package clusterflag

import (
	"flag"
	"testing"

	"nscc/internal/sim"
)

func TestRegisterAndStart(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := Register(fs)
	err := fs.Parse([]string{
		"-faults", "../../faults/testdata/smoke-plan.json",
		"-reliable", "-read-timeout", "50ms", "-simrace",
	})
	if err != nil {
		t.Fatal(err)
	}
	cf.Start()
	defer cf.Close()
	if cf.Faults == nil || cf.Faults.Name != "smoke" {
		t.Errorf("fault plan not loaded: %+v", cf.Faults)
	}
	if !cf.Reliable || !cf.SimRace || cf.ReadTimeout != 50*sim.Millisecond {
		t.Errorf("flags not applied: reliable=%v simrace=%v read-timeout=%v", cf.Reliable, cf.SimRace, cf.ReadTimeout)
	}
	if cf.Server != nil {
		t.Error("observer started without -http")
	}
}
