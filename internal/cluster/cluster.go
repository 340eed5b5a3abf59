// Package cluster assembles the simulated machine every workload runs
// on: the engine, the interconnect (shared bus, crossbar switch or
// rack/spine hierarchy), the optional fault injector, the message layer,
// the warp meters, the background loader and the race checker. The GA,
// Bayes and graph runners all build their stack here, so the fabric
// choice and the fault wrapping live in one place and every workload
// runs on the same machine by construction.
//
// A run is: New, spawn the tasks on Machine (building each task's
// coherence node with NodeOptions), Retire each task as it exits, then
// Run and Finish.
package cluster

import (
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
	"nscc/internal/simrace"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// warpWindow is the width of the per-window warp series.
const warpWindow = 100 * sim.Millisecond

// Config describes one simulated cluster.
type Config struct {
	Seed   int64
	Tracer trace.Tracer

	// Net overrides the bus network model (nil = netsim.DefaultConfig()).
	Net *netsim.Config
	// Switch, if set, runs on an SP2-style crossbar switch instead of
	// the shared Ethernet.
	Switch *netsim.SwitchConfig
	// Hier, if set, runs on the hierarchical rack/spine fabric. Takes
	// precedence over Switch.
	Hier *netsim.HierConfig
	// LoaderBps, if positive, runs the background network loader at
	// this offered bit rate on two extra nodes (§5.2).
	LoaderBps float64
	// PVM overrides the messaging overheads (nil = pvm.DefaultConfig()).
	PVM *pvm.Config

	// Faults, if non-nil, wraps the fabric in the fault injector.
	Faults *faults.Plan
	// Reliable runs the message layer with ack/retransmit delivery; it
	// overrides the PVM override's flag.
	Reliable bool
	// ReadTimeout, if positive, bounds Global_Read blocking on every node.
	ReadTimeout sim.Duration
	// RaceCheck attaches the simulated-time race classifier.
	RaceCheck bool
	// Series, if set, records the stack's windowed series and receives
	// gauge "pvm.warp" at Finish.
	Series *tseries.Set
}

// Cluster is one assembled simulated machine.
type Cluster struct {
	// Machine is the message layer the workload spawns its tasks on.
	Machine *pvm.Machine

	cfg        Config
	eng        *sim.Engine
	net        netsim.Fabric
	races      *simrace.Checker // nil unless Config.RaceCheck
	warp       *metrics.WarpMeter
	warpSeries *metrics.WarpSeries

	// Retirement accounting, indexed by task id.
	coreStats  []core.Stats
	staleness  metrics.Histogram
	completion sim.Duration
	retired    int
}

// New builds the cluster. The construction order — fabric, fault wrap,
// message layer, warp hook, loader, race checker — fixes the fabric
// node ids and the per-process random streams, so it must not change:
// every pinned result depends on it. Tasks are spawned after New returns.
func New(cfg Config) *Cluster {
	eng := sim.NewEngine(cfg.Seed)
	eng.SetTracer(cfg.Tracer)
	var net netsim.Fabric
	switch {
	case cfg.Hier != nil:
		net = netsim.NewHier(eng, *cfg.Hier)
	case cfg.Switch != nil:
		sw := netsim.NewSwitch(eng, *cfg.Switch)
		sw.SetSeries(cfg.Series)
		net = sw
	default:
		netCfg := netsim.DefaultConfig()
		if cfg.Net != nil {
			netCfg = *cfg.Net
		}
		bus := netsim.New(eng, netCfg)
		bus.SetSeries(cfg.Series)
		net = bus
	}
	if cfg.Faults != nil {
		net = faults.Wrap(net, cfg.Faults)
	}
	pvmCfg := pvm.DefaultConfig()
	if cfg.PVM != nil {
		pvmCfg = *cfg.PVM
	}
	if cfg.Reliable {
		pvmCfg.Reliable = true
	}
	machine := pvm.NewMachine(eng, net, pvmCfg)
	machine.SetSeries(cfg.Series)

	c := &Cluster{
		Machine: machine, cfg: cfg, eng: eng, net: net,
		warp:       metrics.NewWarpMeter(),
		warpSeries: metrics.NewWarpSeries(warpWindow),
	}
	machine.ArrivalHook = func(dst int, m *pvm.Message) {
		c.warp.Observe(dst, m.Src, m.SentAt, m.ArrivedAt)
		c.warpSeries.Observe(dst, m.Src, m.SentAt, m.ArrivedAt)
	}
	if cfg.LoaderBps > 0 {
		netsim.StartLoader(net, cfg.LoaderBps, 1024)
	}
	if cfg.RaceCheck {
		c.races = simrace.New(eng)
		c.races.Attach(machine)
	}
	return c
}

// NodeOptions returns base with the cluster's read timeout, series and
// race observer applied, for the coherence node of every task.
func (c *Cluster) NodeOptions(base core.Options) core.Options {
	if c.cfg.ReadTimeout > 0 {
		base.ReadTimeout = c.cfg.ReadTimeout
	}
	base.Series = c.cfg.Series
	if c.races != nil {
		base.Races = c.races
	}
	return base
}

// Retire records that task's work is done, called from the task's own
// process as it exits: the node's coherence counters and staleness join
// the run's telemetry, the current time bounds the completion time, and
// the engine stops once every spawned task has retired. It returns the
// node's stats for the workload's own totals.
func (c *Cluster) Retire(task *pvm.Task, node *core.Node) core.Stats {
	if c.coreStats == nil {
		c.coreStats = make([]core.Stats, c.Machine.Tasks())
	}
	st := node.Stats()
	c.coreStats[task.ID()] = st
	c.staleness.Merge(node.Staleness())
	if d := task.Now().Sub(0); d > c.completion {
		c.completion = d
	}
	c.retired++
	if c.retired == c.Machine.Tasks() {
		c.eng.Stop()
	}
	return st
}

// Run runs the simulation until every task has retired, then unwinds
// the processes still parked (the loader, or the stuck processes of a
// deadlocked run) so the finished cluster holds no goroutines.
func (c *Cluster) Run() error {
	err := c.eng.Run()
	c.eng.Unwind()
	return err
}

// Result is what every workload reports about the machine it ran on.
type Result struct {
	Completion  sim.Duration // time of the last task retirement
	Messages    int64        // frames offered to the network
	NetBytes    int64        // bytes carried
	QueueDelay  sim.Duration // cumulative network queuing delay
	WarpMean    float64
	WarpMax     float64
	WarpWindows []float64 // per-100ms mean warp
	Telemetry   *metrics.Telemetry
}

// Finish collects the run's network, warp and telemetry results after
// Run. mode and age label the telemetry.
func (c *Cluster) Finish(mode core.Mode, age int64) Result {
	st := c.net.Stats()
	r := Result{
		Completion:  c.completion,
		Messages:    st.Frames,
		NetBytes:    st.Bytes,
		QueueDelay:  st.QueueDelay,
		WarpMean:    c.warp.Mean(),
		WarpMax:     c.warp.Max(),
		WarpWindows: c.warpSeries.Windows(),
	}

	tasks := c.Machine.TaskTelemetry()
	var violations int64
	for i := range tasks {
		if i < len(c.coreStats) {
			cs := c.coreStats[i]
			tasks[i].GlobalReads = cs.GlobalReads
			tasks[i].BlockedReads = cs.BlockedReads
			tasks[i].BlockedSecs = cs.BlockedTime.Seconds()
			tasks[i].ReadTimeouts = cs.ReadTimeouts
			violations += cs.ReadTimeouts
		}
	}
	r.Telemetry = &metrics.Telemetry{
		Variant:             mode.String(),
		Age:                 age,
		CompletionSecs:      r.Completion.Seconds(),
		Tasks:               tasks,
		Net:                 st.Telemetry(c.eng.Now().Sub(0)),
		Staleness:           c.staleness.Summary(),
		WarpMean:            r.WarpMean,
		WarpMax:             r.WarpMax,
		StalenessViolations: violations,
	}
	if c.races != nil {
		r.Telemetry.Races = c.races.Telemetry()
		r.Telemetry.RaceLocations = c.races.Report().Locations
	}
	if set := c.cfg.Series; set != nil {
		// Copy the warp series into the set as gauge "pvm.warp" (one
		// sample per window, at the window's start) so the export
		// carries warp alongside the other windowed series.
		serWarp := set.Gauge("pvm.warp")
		for w, v := range r.WarpWindows {
			serWarp.Add(sim.Time(int64(w)*int64(warpWindow)), v)
		}
		r.Telemetry.Series = set.Summaries()
	}
	return r
}
