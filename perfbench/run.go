package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/metrics"
	"nscc/internal/runner"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// ctx collects everything one trial's runs produce: host-time spans
// around each public call, the fingerprint lines of the simulated
// results, the ledger counters, the outcome of the output checks and,
// when tracing, the counting tracer. Each trial owns its ctx, so trials
// can run on a pool of workers without sharing state.
type ctx struct {
	tracer trace.Tracer // nil (untraced) or counts
	counts *counter
	trial  span // set by runPass when the trial returns
	calls  []span
	runs   int
	fp     strings.Builder
	led    ledger
	fails  []string
	sims   []simRow

	cost      hostCost // of the trial and the collection after it, probe left out
	probeNs   []int64  // host time of each probe run after the trial
	probeCost hostCost // of all those probe runs
}

// simRow sums one variant's simulated completion times, and those of
// the serial baselines it is compared with.
type simRow struct {
	Variant         string
	Runs            int
	SerialNs, ParNs int64
}

// simulated records one parallel run's simulated completion time
// beside its trial's serial baseline (0 when the trial has none).
func (c *ctx) simulated(variant string, serial, par sim.Duration) {
	c.sims = addSim(c.sims, simRow{variant, 1, int64(serial), int64(par)})
}

func addSim(rows []simRow, r simRow) []simRow {
	for i := range rows {
		if rows[i].Variant == r.Variant {
			rows[i].Runs += r.Runs
			rows[i].SerialNs += r.SerialNs
			rows[i].ParNs += r.ParNs
			return rows
		}
	}
	return append(rows, r)
}

// span is one host-time interval: a pass over the workload, a trial
// within it, or a call into the program within a trial. Cause names
// the span that caused it (pass ← workload, trial ← pass, call ←
// trial).
type span struct {
	Call    string // "pass", "trial" or the public function called
	Label   string
	Cause   string
	Tid     int // trial index within the pass
	StartNs int64
	HostNs  int64
}

// epoch is the origin of span start times.
var epoch = time.Now()

// ledger sums the per-run counters a workload's results report.
type ledger struct {
	Frames, Bytes, Delivered, Dropped int64
	QueueDelayNs, BlockedNs           int64
	BlockedReads, GlobalReads         int64
	Retransmits, ReadTimeouts         int64
	IslandGens, SerialGenUnits        int64
	BayesSamples, Rollbacks           int64
}

func (l *ledger) add(o ledger) {
	l.Frames += o.Frames
	l.Bytes += o.Bytes
	l.Delivered += o.Delivered
	l.Dropped += o.Dropped
	l.QueueDelayNs += o.QueueDelayNs
	l.BlockedNs += o.BlockedNs
	l.BlockedReads += o.BlockedReads
	l.GlobalReads += o.GlobalReads
	l.Retransmits += o.Retransmits
	l.ReadTimeouts += o.ReadTimeouts
	l.IslandGens += o.IslandGens
	l.SerialGenUnits += o.SerialGenUnits
	l.BayesSamples += o.BayesSamples
	l.Rollbacks += o.Rollbacks
}

func newCtx(traced bool) *ctx {
	c := &ctx{}
	if traced {
		c.counts = newCounter()
		c.tracer = c.counts
	}
	return c
}

// call times one call into the program.
func (c *ctx) call(name, label string, fn func()) {
	start := time.Now()
	fn()
	c.calls = append(c.calls, span{Call: name, Label: label,
		StartNs: start.Sub(epoch).Nanoseconds(), HostNs: time.Since(start).Nanoseconds()})
	c.runs++
}

func (c *ctx) fail(label, format string, args ...any) {
	c.fails = append(c.fails, label+": "+fmt.Sprintf(format, args...))
}

// fingerprint appends one run's simulated results at full precision.
func (c *ctx) fingerprint(label string, fields ...any) {
	c.fp.WriteString(label)
	for _, f := range fields {
		c.fp.WriteByte('|')
		switch v := f.(type) {
		case float64:
			fmt.Fprintf(&c.fp, "%x", math.Float64bits(v))
		case []float64:
			for _, x := range v {
				fmt.Fprintf(&c.fp, "%x,", math.Float64bits(x))
			}
		default:
			fmt.Fprint(&c.fp, v)
		}
	}
	c.fp.WriteByte('\n')
}

func (c *ctx) gaSerial(label string, p int, r ga.SerialResult) {
	c.fingerprint(label, r.Gens, r.Evals, r.Best, r.Avg, int64(r.Time), r.OptimumFound)
	c.led.SerialGenUnits += r.Gens * int64(p)
}

func (c *ctx) gaIsland(label string, cfg ga.IslandConfig, r ga.IslandResult) {
	t := r.Telemetry
	c.fingerprint(label, int64(r.Completion), r.Best, r.FinalBest, r.Avg, r.Gens,
		r.OptimumFound, r.ReachedTarget, r.Messages, r.NetBytes, int64(r.QueueDelay),
		r.WarpMean, r.WarpMax, r.WarpWindows, int64(r.BlockedTime), r.Blocked, r.Coalesced,
		t.Staleness.N, t.Staleness.Max, t.Staleness.Mean, t.StalenessViolations, t.Net.Delivered, t.Net.Dropped)
	var gens, reads, retx, timeouts int64
	for _, g := range r.Gens {
		gens += g
	}
	for _, task := range t.Tasks {
		reads += task.GlobalReads
		retx += task.Retransmits
		timeouts += task.ReadTimeouts
	}
	c.led.add(ledger{Frames: r.Messages, Bytes: r.NetBytes, Delivered: t.Net.Delivered,
		Dropped: t.Net.Dropped, QueueDelayNs: int64(r.QueueDelay), BlockedNs: int64(r.BlockedTime),
		BlockedReads: r.Blocked, GlobalReads: reads, Retransmits: retx, ReadTimeouts: timeouts,
		IslandGens: gens})

	// Output checks.
	switch cfg.Mode {
	case core.Sync:
		for i, g := range r.Gens {
			if g != cfg.FixedGens {
				c.fail(label, "island %d ran %d generations, want FixedGens=%d", i, g, cfg.FixedGens)
				break
			}
		}
	case core.NonStrict:
		if t.Staleness.Max > cfg.Age {
			c.fail(label, "staleness.max %d exceeds age %d", t.Staleness.Max, cfg.Age)
		}
	}
	if cfg.Faults != nil && t.StalenessViolations != timeouts {
		c.fail(label, "staleness_violations %d != sum of task read_timeouts %d",
			t.StalenessViolations, timeouts)
	}
	nodes := cfg.P
	if cfg.LoaderBps > 0 {
		nodes += 2
	}
	c.checkNet(label, nodes, cfg.Faults != nil, r.Messages, t.Net)
}

// checkNet bounds the fabric's frame accounting from outside the run.
// The counters cannot balance exactly here: the run stops its engine
// with frames still in flight, and deliveries and drops count once per
// destination. But every delivery or drop belongs to an offered frame
// with at most nodes-1 destinations, delivered at most twice when the
// fault injector duplicates, and a parallel run always sends.
func (c *ctx) checkNet(label string, nodes int, duplicating bool, frames int64, n metrics.NetTelemetry) {
	most := frames * int64(nodes-1)
	if duplicating {
		most *= 2
	}
	if frames <= 0 || n.Delivered < 0 || n.Dropped < 0 || n.Delivered+n.Dropped > most {
		c.fail(label, "fabric counters out of bounds: %d frames among %d nodes, %d delivered, %d dropped",
			frames, nodes, n.Delivered, n.Dropped)
	}
}

func (c *ctx) bayesSerial(label string, r bayes.SerialResult) {
	c.fingerprint(label, r.Prob, r.HalfWidth, r.Iters, r.Accepted, int64(r.Time), r.Converged)
	c.led.BayesSamples += r.Iters
}

// bayesTolerance is how many combined CI half-widths a parallel
// estimate may lie from the serial one. Both intervals are 90 %
// (1.645 sigma) wide, so 3 half-widths of the pair is ~5 sigma of the
// difference: a correct sampler fails it about once in a million
// comparisons, a biased one fails it as soon as the bias exceeds the
// runs' precision.
const bayesTolerance = 3

func (c *ctx) bayesParallel(label string, cfg bayes.ParallelConfig, r bayes.ParallelResult, serial bayes.SerialResult) {
	t := r.Telemetry
	c.fingerprint(label, r.Prob, r.HalfWidth, r.Iters, r.Accepted, int64(r.Completion),
		r.ReachedPrecision, r.Rollbacks, r.Replayed, r.Gambles, r.Conflicts, r.Retracts,
		r.Messages, r.NetBytes, int64(r.QueueDelay), int64(r.BlockedTime), r.Blocked,
		r.WarpMean, r.WarpMax, r.WarpWindows, t.Staleness.N, t.Staleness.Max)
	var reads int64
	for _, task := range t.Tasks {
		reads += task.GlobalReads
	}
	c.led.add(ledger{Frames: r.Messages, Bytes: r.NetBytes, Delivered: t.Net.Delivered,
		Dropped: t.Net.Dropped, QueueDelayNs: int64(r.QueueDelay), BlockedNs: int64(r.BlockedTime),
		BlockedReads: r.Blocked, GlobalReads: reads,
		BayesSamples: r.Iters + r.Replayed/int64(cfg.P), Rollbacks: r.Rollbacks})

	tol := bayesTolerance * math.Hypot(r.HalfWidth, serial.HalfWidth)
	if d := math.Abs(r.Prob - serial.Prob); !(d <= tol) {
		c.fail(label, "estimate %.6f is %.6f from the serial %.6f (tolerance %.6f)",
			r.Prob, d, serial.Prob, tol)
	}
	if cfg.Mode == core.NonStrict && t.Staleness.Max > cfg.Age {
		c.fail(label, "staleness.max %d exceeds age %d", t.Staleness.Max, cfg.Age)
	}
	if cfg.Mode == core.Sync && !r.ReachedPrecision && r.Iters < cfg.MaxIters {
		c.fail(label, "sync run stopped at %d iterations without reaching precision", r.Iters)
	}
	c.checkNet(label, cfg.P, false, r.Messages, t.Net)
}

// pass is the outcome of running a workload's trials once.
type pass struct {
	Runs    int
	WallNs  int64
	CPUNs   int64
	GCNs    int64 // CPU time of the garbage collector
	Alloc   uint64
	RunNs   []int64 // host time of every run, in order
	Calls   map[string][]int64
	Led     ledger
	Counts  *counter
	Spans   []span
	Fails   []string
	FP      string
	ErrText string
	Sims    []simRow
	PeakRSS int64 // bytes, of the process that ran the pass

	ProbeNs []int64 // host time of each host-speed probe run

	// The trials' wall and CPU time, each trial's scaled by the probe
	// runs that followed it and its neighbours (see nearbyProbeNs); set
	// only when probed.
	ScaledWallNs, ScaledCPUNs float64
}

// minNearbyProbes is how many probe runs the scale of one trial is
// taken from. A short trial is followed by only a few, whose median
// is too noisy to scale by; a median over about 20 is steady.
const minNearbyProbes = 20

// nearbyProbeNs returns the median time of the probe runs after trial
// i and after its nearest neighbours, widening the window on both sides
// until it holds at least minNearbyProbes runs or every trial.
func nearbyProbeNs(ctxs []*ctx, i int) float64 {
	var ns []int64
	add := func(j int) {
		if j >= 0 && j < len(ctxs) && ctxs[j] != nil {
			ns = append(ns, ctxs[j].probeNs...)
		}
	}
	add(i)
	for d := 1; len(ns) < minNearbyProbes && (i-d >= 0 || i+d < len(ctxs)); d++ {
		add(i - d)
		add(i + d)
	}
	return max(quantileNs(ns, 0.5), 1)
}

// runPass runs every trial of w on a pool of the given size. With a
// probe (one worker only), each trial is followed by probe runs whose
// cost is recorded apart and left out of the pass's totals.
func runPass(w *workload, name string, workers int, traced bool, pr *probe) *pass {
	p := &pass{Calls: map[string][]int64{}}
	before := snapshot()
	ctxs, err := runner.Map(len(w.trials), workers,
		func(i int) string { return w.name + " " + w.trials[i].label() },
		func(i int) (*ctx, error) {
			c := newCtx(traced)
			start := time.Now()
			begin := snapshot()
			err := w.trials[i].run(c)
			c.trial = span{Call: "trial", Label: w.trials[i].label(), Cause: name, Tid: i,
				StartNs: start.Sub(epoch).Nanoseconds(), HostNs: time.Since(start).Nanoseconds()}
			if pr != nil {
				// Collect the trial's garbage, at the trial's expense,
				// so that no collection overlaps the probe.
				runtime.GC()
				from := snapshot()
				c.cost = from.minus(begin)
				for r := max(1, int(probeShare*float64(c.trial.HostNs)/probeRefNs)); r > 0; r-- {
					t0 := time.Now()
					pr.run()
					c.probeNs = append(c.probeNs, time.Since(t0).Nanoseconds())
				}
				c.probeCost = snapshot().minus(from)
			}
			return c, err
		})
	total := snapshot().minus(before)
	p.Spans = append(p.Spans, span{Call: "pass", Label: name, Cause: w.name,
		StartNs: before.wall.Sub(epoch).Nanoseconds(), HostNs: total.wallNs})
	for i, c := range ctxs {
		if c != nil {
			total = total.without(c.probeCost)
			p.ProbeNs = append(p.ProbeNs, c.probeNs...)
			if pr != nil {
				scale := probeRefNs / nearbyProbeNs(ctxs, i)
				p.ScaledWallNs += float64(c.cost.wallNs) * scale
				p.ScaledCPUNs += float64(c.cost.cpuNs) * scale
			}
		}
	}
	p.WallNs, p.CPUNs, p.GCNs, p.Alloc = total.wallNs, total.cpuNs, total.gcCPUNs, total.alloc
	if err != nil {
		p.ErrText = err.Error()
		return p
	}
	h := sha256.New()
	if traced {
		p.Counts = newCounter()
	}
	for i, c := range ctxs {
		p.Spans = append(p.Spans, c.trial)
		for _, s := range c.calls {
			s.Cause, s.Tid = c.trial.Label, i
			p.Spans = append(p.Spans, s)
			p.RunNs = append(p.RunNs, s.HostNs)
			p.Calls[s.Call] = append(p.Calls[s.Call], s.HostNs)
		}
		p.Runs += c.runs
		p.Led.add(c.led)
		p.Fails = append(p.Fails, c.fails...)
		for _, r := range c.sims {
			p.Sims = addSim(p.Sims, r)
		}
		h.Write([]byte(c.fp.String()))
		if traced {
			p.Counts.merge(c.counts)
		}
	}
	p.FP = hex.EncodeToString(h.Sum(nil))
	return p
}
