// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads of simulated runs on the DES cluster, checks every
// run's output, and prints its measurements as one JSON object on the
// last line of standard output.
//
//	perfbench --workload ga-bus --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats whole passes over the workload on one
// worker for about --seconds and reports the end-to-end metrics. With
// --trace 1 it runs the micro ladder and, over every third trial, one
// untraced and one traced pass and a pass on a pool of two workers, and
// reports the per-layer metrics. Either mode fails (correct=false) if a run errs, an output
// check fails or the fingerprints of the simulated results differ
// between passes. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// The simulator runs one goroutine at a time, so the timed runs use
// one P: that is the per-worker cost of a sweep whose pool keeps every
// CPU busy, and it spares each simulated-process handoff a wake-up of
// an idle thread. The pool check runs on poolProcs threads.
const (
	timedProcs = 1
	poolProcs  = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ga-bus, scale-gossip, bayes-rollback or ga-loaded-faults")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 = per-layer run (micro ladder, traced pass), 0 = end-to-end run")
	passName := flag.String("pass", "", "run only this pass of the per-layer run and print it as JSON (used by --trace 1)")
	flag.Parse()
	runtime.GOMAXPROCS(timedProcs)
	if *passName != "" {
		w, err := buildWorkload(*name, *seed)
		if err == nil {
			err = runNamedPass(w, *passName)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}

	w, setupS, err := measureSetup(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res result
	if *traced == 1 {
		res = perLayer(w, *seed)
	} else {
		res = endToEnd(w, *seed, *seconds, setupS)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

// measureSetup times the workload's set-up (see setUp). One set-up
// takes well under a second, so each sample repeats it until at least
// setupSampleNs has passed and is followed by setupProbes runs of the
// host-speed probe, which scale it to the probe's reference speed; the
// reported figure is the median over setupSamples samples of the
// scaled time per set-up.
func measureSetup(name string, seed int64) (*workload, float64, error) {
	const setupSamples = 9
	const setupSampleNs = 50e6
	const setupProbes = 3
	start := time.Now()
	w, err := setUp(name, seed)
	if err != nil {
		return nil, 0, err
	}
	reps := int(setupSampleNs/float64(time.Since(start).Nanoseconds()+1)) + 1
	pr := newProbe()
	samples := make([]float64, setupSamples)
	probeNs := make([]int64, setupProbes)
	for i := range samples {
		runtime.GC()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			setUp(name, seed)
		}
		perSetUp := time.Since(t0).Seconds() / float64(reps)
		runtime.GC()
		for j := range probeNs {
			t0 := time.Now()
			pr.run()
			probeNs[j] = time.Since(t0).Nanoseconds()
		}
		samples[i] = perSetUp * probeRefNs / max(quantileNs(probeNs, 0.5), 1)
	}
	return w, median(samples), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNs returns the nearest-rank q-quantile of xs.
func quantileNs(xs []int64, q float64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}
