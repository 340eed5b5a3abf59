package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// endToEnd repeats whole passes over the workload on one worker until
// starting another would overshoot the time budget, and reports what a
// user of the simulator waits on: runs and simulated frames per host
// second, CPU and allocation per pass, and set-up time. Host times are
// scaled to the probe's reference speed (see probe); setupS already is.
func endToEnd(w *workload, seed int64, seconds, setupS float64) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	conserveErr := conservation(w, seed)
	pr := newProbe()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var passes []*pass
	for {
		p := runPass(w, fmt.Sprintf("pass %d", len(passes)+1), 1, false, pr)
		passes = append(passes, p)
		if p.ErrText != "" {
			break
		}
		mean := time.Since(start) / time.Duration(len(passes))
		if time.Since(start)+mean > budget {
			break
		}
	}

	var runs int
	var wallNs, cpuNs int64
	var scaledWallNs, scaledCPUNs float64
	var alloc uint64
	var frames int64
	var runNs, probeNs []int64
	for i, p := range passes {
		fmt.Printf("pass %d: %d runs in %.3fs, fingerprint %s\n", i+1, p.Runs, float64(p.WallNs)/1e9, p.FP)
		runs += p.Runs
		wallNs += p.WallNs
		cpuNs += p.CPUNs
		scaledWallNs += p.ScaledWallNs
		scaledCPUNs += p.ScaledCPUNs
		alloc += p.Alloc
		frames += p.Led.Frames
		runNs = append(runNs, p.RunNs...)
		probeNs = append(probeNs, p.ProbeNs...)
	}
	failed := report(&res, w, passes)
	res.Attempted = runs + 1
	if conserveErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", conserveErr)
		res.Correct = false
		failed++
	}
	res.Failed = failed
	// Each trial's host times are scaled by the probe runs right after
	// it, so that a host whose speed drifts during the run is followed.
	// scale, the run's overall factor, only scales the printed per-run
	// times. Medians ignore probe runs that something else interrupted.
	probeMed := max(quantileNs(probeNs, 0.5), 1)
	scale := probeRefNs / probeMed
	n := float64(len(passes))
	wallS := float64(wallNs) / 1e9
	scaledS := scaledWallNs / 1e9
	fmt.Printf("host-speed probe: %d runs, median %.3f ms (reference %.3f ms), scale %.4f\n",
		len(probeNs), probeMed/1e6, probeRefNs/1e6, scale)
	fmt.Printf("unscaled: %.4f runs/s, %.4f CPU s per pass, %.1f frames/s\n",
		float64(runs)/wallS, float64(cpuNs)/1e9/n, float64(frames)/wallS)
	res.Metrics["runs_per_s"] = metric{float64(runs) / scaledS, "1/s"}
	res.Metrics["cpu_s"] = metric{scaledCPUNs / 1e9 / n, "s"}
	res.Metrics["sim_frames_per_s"] = metric{float64(frames) / scaledS, "1/s"}
	res.Metrics["alloc_mb"] = metric{float64(alloc) / n / 1e6, "MB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	// Per-run host times are printed, not gated: each workload mixes
	// run kinds (serial and parallel, P=4 and P=8, sync and async)
	// whose times form separate clusters, so a quantile that falls
	// between two clusters moves by a quarter when the seed shifts the
	// mix.
	beyond := len(runNs) - int(math.Ceil(0.9*float64(len(runNs))))
	fmt.Printf("run host time over %d runs (scaled): p50 %.3f ms, p90 %.3f ms (%d runs beyond p90)\n",
		len(runNs), quantileNs(runNs, 0.5)/1e6*scale, quantileNs(runNs, 0.9)/1e6*scale, beyond)
	// Simulated processes still parked after their run returned pin
	// that run's whole simulated cluster in memory.
	fmt.Printf("goroutines left after the passes: %d\n", runtime.NumGoroutine()-1)
	return res
}

// report prints the passes' fingerprints and check failures and
// returns how many runs failed. Every pass of one seed must produce the
// same fingerprint.
func report(res *result, w *workload, passes []*pass) int {
	failed := 0
	for i, p := range passes {
		if p.ErrText != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %s\n", w.name, i+1, p.ErrText)
			res.Correct = false
			failed++
			continue
		}
		for _, f := range p.Fails {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		}
		failed += len(p.Fails)
		if len(p.Fails) > 0 {
			res.Correct = false
		}
		if p.FP != passes[0].FP {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d fingerprint %s differs from pass 1 %s\n", i+1, p.FP, passes[0].FP)
			res.Correct = false
			failed++
		}
	}
	fmt.Printf("fingerprint %s %s\n", w.name, passes[0].FP)
	fmt.Println("simulated results (virtual time; printed and fingerprinted, not gated):")
	for _, r := range passes[0].Sims {
		fmt.Printf("  %-22s %4d runs, mean completion %9.3f vs", r.Variant, r.Runs, float64(r.ParNs)/float64(r.Runs)/1e9)
		if r.SerialNs > 0 {
			fmt.Printf(", speedup over serial %.3f", float64(r.SerialNs)/float64(r.ParNs))
		}
		fmt.Println()
	}
	return failed
}
