package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"nscc/internal/bayes"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
)

// TestFabricChoice pins the fabric precedence (Hier over Switch over
// the bus) and the fault wrap.
func TestFabricChoice(t *testing.T) {
	sw := netsim.DefaultSwitchConfig()
	h := netsim.DefaultHierConfig()
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
		ok   func(netsim.Fabric) bool
	}{
		{"bus", cluster.Config{}, func(f netsim.Fabric) bool { _, ok := f.(*netsim.Network); return ok }},
		{"switch", cluster.Config{Switch: &sw}, func(f netsim.Fabric) bool { _, ok := f.(*netsim.Switch); return ok }},
		{"hier", cluster.Config{Switch: &sw, Hier: &h}, func(f netsim.Fabric) bool { _, ok := f.(*netsim.Hier); return ok }},
		{"faults", cluster.Config{Faults: &faults.Plan{}}, func(f netsim.Fabric) bool { _, ok := f.(*faults.Injector); return ok }},
	} {
		if f := cluster.New(tc.cfg).Machine.Network(); !tc.ok(f) {
			t.Errorf("%s: fabric is %T", tc.name, f)
		}
	}
}

// TestNodeOptions: the cluster's read timeout and series override the
// base options only when set, and the race observer is left nil (not a
// nil pointer in an interface) when race checking is off.
func TestNodeOptions(t *testing.T) {
	base := core.Options{Window: 3, ReadTimeout: 7}
	o := cluster.New(cluster.Config{}).NodeOptions(base)
	if o.Window != 3 || o.ReadTimeout != 7 || o.Races != nil {
		t.Errorf("plain cluster changed the options: %+v", o)
	}
	o = cluster.New(cluster.Config{ReadTimeout: 50, RaceCheck: true}).NodeOptions(base)
	if o.ReadTimeout != 50 || o.Races == nil {
		t.Errorf("read timeout / race observer not applied: %+v", o)
	}
}

// TestLoaderRunsLeaveNoGoroutines is the loader-leak regression: a run
// with a background loader ends while the loader's process is still
// parked, and that goroutine used to outlive the run, pinning its whole
// cluster. After GA and Bayes loader runs the goroutine count must
// return to its baseline.
func TestLoaderRunsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := ga.RunIsland(ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
			Mode: core.Sync, FixedGens: 10,
			Seed: seed, Calib: ga.DefaultCalibration(),
			LoaderBps: 2e6,
		}); err != nil {
			t.Fatal(err)
		}
		bn := bayes.Figure1()
		if _, err := bayes.RunParallel(bayes.ParallelConfig{
			Net:   bn,
			Query: bayes.Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}},
			P:     2, Mode: core.NonStrict, Age: 5,
			Precision: 0.05, MaxIters: 50000,
			Seed: seed, Calib: bayes.DefaultCalibration(),
			LoaderBps: 2e6,
		}); err != nil {
			t.Fatal(err)
		}
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(5 * time.Millisecond) // let exiting goroutines be reaped
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("goroutines after 6 loader runs = %d, baseline %d", n, base)
	}
}
