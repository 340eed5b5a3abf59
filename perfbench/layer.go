package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"nscc/internal/trace"
)

// passNames are the per-layer run's passes: untraced on one worker,
// traced on one worker, untraced on a pool of two. Each covers every
// layerStride-th trial of the workload, so that the three passes
// together take about as long as one end-to-end pass.
var passNames = []string{"plain", "traced", "pooled"}

const layerStride = 3

// perLayer is the --trace 1 run. It checks the fabric's frame
// accounting, runs the micro ladder, then runs the workload's passes,
// each in a child process of its own so that every pass starts from a
// fresh heap, and requires the three fingerprints to agree. From the
// traced pass's record counts, the results' counters and the ladder's
// ns/op it estimates each layer's share of the untraced host time.
func perLayer(w *workload, seed int64) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	failed := 0
	if err := conservation(w, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		failed++
	}
	micros, err := runLadder()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: micro ladder:", err)
		failed++
	}
	var passes []*pass
	for _, name := range passNames {
		p, err := childPass(w.name, seed, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", name, err)
			p = &pass{ErrText: err.Error()}
		}
		passes = append(passes, p)
	}
	plain, traced, pooled := passes[0], passes[1], passes[2]
	if err := writeSpans(w.name, passes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	failed += report(&res, w, passes)
	res.Attempted = plain.Runs + traced.Runs + pooled.Runs + 1
	if micros == nil || plain.ErrText != "" || traced.ErrText != "" || traced.Counts == nil {
		res.Correct = false
		res.Failed = max(failed, 1)
		return res
	}
	failed += crossCheck(traced)
	res.Failed = failed
	res.Correct = failed == 0

	m := res.Metrics
	ns := map[string]float64{}
	fmt.Printf("%-28s %12s %10s %10s\n", "micro", "ns/op", "allocs/op", "/calib")
	calib := micros[0].ns
	for _, r := range micros {
		ns[r.name] = r.ns
		fmt.Printf("%-28s %12.2f %10.2f %10.1f\n", r.name, r.ns, r.allocs, r.ns/calib)
		if r.name == "calib" {
			m["calib_ns"] = metric{r.ns, "ns"}
			continue
		}
		m[r.name+"_ns"] = metric{r.ns, "ns"}
		m[r.name+"_allocs"] = metric{r.allocs, "count"}
	}

	c, led := traced.Counts, traced.Led
	fmt.Println("trace records (layer/name count):")
	for _, row := range c.rows() {
		fmt.Printf("  %-28s %d\n", row.key, row.n)
	}
	events, wakes := c.get(trace.PidSim, "event"), c.get(trace.PidSim, "wake")
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	count("ga.generations", c.get(trace.PidApp, "gen")+led.SerialGenUnits)
	count("sim.events", events)
	count("sim.wakes", wakes)
	count("netsim.frames", led.Frames)
	count("netsim.bytes", led.Bytes)
	count("netsim.dropped", led.Dropped)
	count("pvm.sends", c.get(trace.PidPVM, "send"))
	count("pvm.retransmits", c.get(trace.PidPVM, "retx"))
	count("faults.drops", c.get(trace.PidFaults, "loss_drop")+c.get(trace.PidFaults, "crash_drop")+
		c.get(trace.PidFaults, "partition_drop"))
	count("faults.dups", c.get(trace.PidFaults, "duplicate"))
	count("core.global_reads", c.get(trace.PidCore, "global_read"))
	count("core.blocked_reads", led.BlockedReads)
	count("core.read_timeouts", c.get(trace.PidCore, "read_timeout"))
	count("bayes.iters", led.BayesSamples)
	count("rollback.rollbacks", c.get(trace.PidApp, "rollback"))
	count("rollback.antimessages", c.get(trace.PidApp, "anti"))
	m["netsim.queue_delay_vs"] = metric{float64(led.QueueDelayNs) / 1e9, "vs"}
	m["core.blocked_vs"] = metric{float64(led.BlockedNs) / 1e9, "vs"}

	hostNs := float64(plain.WallNs)
	m["sim.host_ns_per_event"] = metric{hostNs / float64(events), "ns"}
	m["run.parallel_ms"] = metric{meanMs(plain.Calls["ga.RunIsland"], plain.Calls["bayes.RunParallel"]), "ms"}
	m["trace.overhead_frac"] = metric{float64(traced.WallNs)/hostNs - 1, "frac"}
	rss := peakRSSBytes()
	for _, p := range passes {
		rss = max(rss, p.PeakRSS)
	}
	m["mem.peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}

	// Layer shares: count × ns/op ÷ untraced host time. Each count is
	// the operation the rung performs, and rungs that contain a lower
	// layer's operation have its cost taken out, so that no nanosecond
	// is attributed twice: a delivery's engine event is netsim's, a
	// process switch is sim's, a message arrival beyond its delivery
	// and wake-up is pvm's, and an applied update beyond its round trip
	// is core's.
	pos := func(x float64) float64 { return max(x, 0) }
	send := ns["netsim.bus_send"]
	if w.name == "scale-gossip" {
		send = ns["netsim.hier_send"]
	}
	pingpong := ns["pvm.pingpong"]
	if w.name == "ga-loaded-faults" {
		pingpong = ns["pvm.pingpong_reliable"]
	}
	deliveries := float64(led.Delivered + led.Dropped)
	arrivals := float64(c.get(trace.PidPVM, "msg"))
	cost := map[string]float64{
		"ga":     float64(c.get(trace.PidApp, "gen")+led.SerialGenUnits) * ns["ga.generation"],
		"sim":    float64(wakes)*ns["sim.handoff"] + pos(float64(events-wakes)-deliveries)*ns["sim.queue_hold"],
		"netsim": deliveries * send,
		"pvm":    arrivals * pos(pingpong/2-ns["netsim.bus_send"]-ns["sim.handoff"]),
		"core": float64(c.get(trace.PidCore, "global_read"))*ns["core.global_read_hit"] +
			float64(c.get(trace.PidCore, "update"))*pos(ns["core.global_read_blocked"]-ns["pvm.pingpong"]),
		"metrics": arrivals * ns["metrics.warp_observe"],
		"bayes":   float64(led.BayesSamples) * ns["bayes.sample"],
	}
	if w.name == "ga-loaded-faults" {
		cost["faults"] = deliveries * pos(ns["faults.wrap_send"]-ns["netsim.bus_send"])
	}
	// The collector's share is measured, not estimated.
	cost["gc"] = float64(plain.GCNs)
	rest := 1.0
	fmt.Printf("layer shares of %.3fs untraced host time (%s):\n", hostNs/1e9, w.name)
	for _, layer := range []string{"ga", "sim", "netsim", "pvm", "core", "metrics", "faults", "bayes", "gc"} {
		share := cost[layer] / hostNs
		rest -= share
		m[layer+".share"] = metric{share, "frac"}
		fmt.Printf("  %-14s %7.4f\n", layer+".share", share)
	}
	m["unattributed.share"] = metric{rest, "frac"}
	fmt.Printf("  %-14s %7.4f\n", "unattributed.share", rest)
	printSpans(plain)
	return res
}

// crossCheck compares the traced pass's record counts with the
// counters the runs' results report: the tracer must see exactly the
// work the results account for.
func crossCheck(p *pass) int {
	c, led := p.Counts, p.Led
	bad := 0
	for _, x := range []struct {
		what          string
		trace, result int64
	}{
		{"core global_read spans vs task global_reads", c.get(trace.PidCore, "global_read"), led.GlobalReads},
		{"core read_timeout records vs task read_timeouts", c.get(trace.PidCore, "read_timeout"), led.ReadTimeouts},
		{"pvm retx records vs task retransmits", c.get(trace.PidPVM, "retx"), led.Retransmits},
		{"app gen spans vs island generations", c.get(trace.PidApp, "gen"), led.IslandGens},
		{"app rollback records vs rollbacks", c.get(trace.PidApp, "rollback"), led.Rollbacks},
	} {
		if x.trace != x.result {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %d != %d\n", x.what, x.trace, x.result)
			bad++
		}
	}
	return bad
}

func meanMs(groups ...[]int64) float64 {
	var s, n int64
	for _, g := range groups {
		for _, v := range g {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(s) / float64(n) / 1e6
}

// printSpans summarises the host-time spans per public call, naming
// the slowest run and the trial that caused it.
func printSpans(p *pass) {
	fmt.Println("host spans per call (untraced pass):")
	for _, call := range sortedKeys(p.Calls) {
		var slow span
		var total int64
		for _, s := range p.Spans {
			if s.Call != call || s.Cause == "" {
				continue
			}
			total += s.HostNs
			if s.HostNs > slow.HostNs {
				slow = s
			}
		}
		fmt.Printf("  %-18s %5d runs %10.1f ms, slowest %.1f ms: %s (caused by %s)\n", call, len(p.Calls[call]),
			float64(total)/1e6, float64(slow.HostNs)/1e6, slow.Label, slow.Cause)
	}
}

// spansDir is where the traced run writes its host-time spans, under
// the directory the benchmark is run from.
const spansDir = ".bench_build"

// writeSpans writes every pass's spans as a Chrome trace_event array
// (one process row per pass, one thread row per trial), which loads in
// Perfetto or chrome://tracing.
func writeSpans(workload string, passes []*pass) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("[\n")
	for pid, p := range passes {
		for _, s := range p.Spans {
			if b.Len() > 2 {
				b.WriteString(",\n")
			}
			fmt.Fprintf(&b, `{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"label":%q,"cause":%q}}`,
				s.Call, float64(s.StartNs)/1e3, float64(s.HostNs)/1e3, pid, s.Tid, s.Label, s.Cause)
		}
	}
	b.WriteString("\n]\n")
	return os.WriteFile(filepath.Join(spansDir, "spans-"+workload+".json"), []byte(b.String()), 0o644)
}

// runNamedPass runs one of passNames in this process and writes it to
// standard output as JSON: the child side of childPass.
func runNamedPass(w *workload, name string) error {
	var some []trial
	for i := 0; i < len(w.trials); i += layerStride {
		some = append(some, w.trials[i])
	}
	w.trials = some
	var p *pass
	switch name {
	case "plain":
		p = runPass(w, name, 1, false, nil)
	case "traced":
		p = runPass(w, name, 1, true, nil)
	case "pooled":
		runtime.GOMAXPROCS(min(poolProcs, runtime.NumCPU()))
		p = runPass(w, name, poolProcs, false, nil)
	default:
		return fmt.Errorf("unknown pass %q (want one of %v)", name, passNames)
	}
	p.PeakRSS = peakRSSBytes()
	return json.NewEncoder(os.Stdout).Encode(p)
}

// childPass runs one pass in a child process and waits for it.
func childPass(workload string, seed int64, name string) (*pass, error) {
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--pass", name)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	p := &pass{}
	if err := json.Unmarshal(out, p); err != nil {
		return nil, err
	}
	return p, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
