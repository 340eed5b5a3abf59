package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

// The micro ladder drives each layer's public API directly, so that a
// workload's host time can be read as a sum of per-layer costs (count
// × ns/op). Each rung performs n operations of one kind.
type rung struct {
	name string
	ops  func(n int) error
}

// microResult is one rung's cost per operation.
type microResult struct {
	name   string
	ns     float64
	allocs float64
}

const (
	microSamples  = 5
	microSampleNs = 25e6
)

func ladder() []rung {
	return []rung{
		{"calib", calibLoop},
		{"sim.handoff", simHandoff},
		{"sim.queue_hold", queueHold()},
		{"netsim.bus_send", func(n int) error {
			eng := sim.NewEngine(1)
			return fabricRelay(eng, netsim.New(eng, netsim.DefaultConfig()), n)
		}},
		{"netsim.hier_send", func(n int) error {
			eng := sim.NewEngine(1)
			return fabricRelay(eng, netsim.NewHier(eng, netsim.DefaultHierConfig()), n)
		}},
		{"faults.wrap_send", func(n int) error {
			eng := sim.NewEngine(1)
			return fabricRelay(eng, faults.Wrap(netsim.New(eng, netsim.DefaultConfig()), &faults.Plan{}), n)
		}},
		{"pvm.pingpong", func(n int) error { return pingPong(n, false) }},
		{"pvm.pingpong_reliable", func(n int) error { return pingPong(n, true) }},
		{"core.global_read_hit", globalReadHit},
		{"core.global_read_blocked", globalReadBlocked},
		{"metrics.warp_observe", warpObserve()},
		{"ga.generation", gaGeneration()},
		{"ga.eval", gaEval()},
		{"bayes.sample", bayesSample()},
	}
}

// runLadder measures every rung: it sizes n so that one sample takes
// about microSampleNs, then reports the fastest of microSamples
// samples (interference only ever adds time) and the allocations per
// operation of that sample.
func runLadder() ([]microResult, error) {
	var out []microResult
	for _, r := range ladder() {
		n := 1
		for {
			d, _, err := sample(r, n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			if d >= microSampleNs/4 || n >= 1<<30 {
				n = int(float64(n) * microSampleNs / float64(d+1))
				if n < 1 {
					n = 1
				}
				break
			}
			n *= 4
		}
		best := microResult{name: r.name}
		for i := 0; i < microSamples; i++ {
			d, allocs, err := sample(r, n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			ns := float64(d) / float64(n)
			if i == 0 || ns < best.ns {
				best.ns = ns
				best.allocs = float64(allocs) / float64(n)
			}
		}
		out = append(out, best)
	}
	return out, nil
}

func sample(r rung, n int) (int64, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := r.ops(n)
	d := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, err
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibLoop is a fixed integer loop (xorshift steps) whose cost depends
// only on the host CPU: ns/op of the other rungs divided by it compare
// across machines.
func calibLoop(n int) error {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return nil
}

// simHandoff is one Sleep of a simulated process: the engine pops the
// wake-up event and hands control to the process and back. A hundred
// processes take turns, as the nodes of a cluster do.
func simHandoff(n int) error {
	const procs = 100
	eng := sim.NewEngine(1)
	for j := 0; j < procs; j++ {
		eng.Spawn("sleeper", func(p *sim.Proc) {
			for i := j; i < n; i += procs {
				p.Sleep(sim.Microsecond)
			}
		})
	}
	return eng.Run()
}

// queueHold is one pop-min + reinsert on the engine's calendar queue
// holding 100k pending events.
func queueHold() func(int) error {
	hb := sim.NewHoldBench(100000, 1)
	return func(n int) error {
		hb.Ops(n)
		return nil
	}
}

// fabricRelay sends n frames over f one at a time: each delivery
// handler offers the next frame. One op is one Send and its delivery
// event. The frames cross racks on a hierarchical fabric.
func fabricRelay(eng *sim.Engine, f netsim.Fabric, n int) error {
	nodes := 40
	sent, got := 0, 0
	dst := nodes - 1
	var next func()
	next = func() {
		if sent < n {
			sent++
			f.Send(0, dst, 64, nil)
		}
	}
	for i := 0; i < nodes; i++ {
		f.Attach("n", func(int, interface{}, sim.Time) {
			got++
			next()
		})
	}
	eng.Schedule(0, next)
	if err := eng.Run(); err != nil {
		return err
	}
	st := f.Stats()
	if got != n || st.Frames != int64(n) || st.Delivered != int64(n) || st.Dropped != 0 {
		return fmt.Errorf("frames offered %d, delivered %d (stats %+v)", n, got, st)
	}
	return nil
}

// pingPong is one round trip of a 64-byte message between two tasks of
// the message layer over the shared bus, plain or with reliable
// (sequence-numbered, acknowledged) delivery.
func pingPong(n int, reliable bool) error {
	eng := sim.NewEngine(1)
	cfg := pvm.DefaultConfig()
	cfg.Pooling = true
	cfg.Reliable = reliable
	m := pvm.NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), cfg)
	m.Spawn("ping", func(t *pvm.Task) {
		for i := 0; i < n; i++ {
			t.Send(1, 1, 64, nil)
			t.Recv(1, 2)
		}
	})
	m.Spawn("pong", func(t *pvm.Task) {
		for i := 0; i < n; i++ {
			t.Recv(0, 1)
			t.Send(0, 2, 64, nil)
		}
	})
	return eng.Run()
}

// coreCluster runs reader and writer on two coherence nodes sharing
// one location written by the writer.
func coreCluster(reader, writer func(*core.Node, *core.Location)) error {
	eng := sim.NewEngine(1)
	cfg := pvm.DefaultConfig()
	cfg.Pooling = true
	m := pvm.NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), cfg)
	loc := &core.Location{ID: 0, Name: "x", Writer: 1, Readers: []int{0}, Size: 64}
	m.Spawn("reader", func(t *pvm.Task) {
		node := core.NewNode(t, core.Options{})
		node.Register(loc)
		reader(node, loc)
	})
	m.Spawn("writer", func(t *pvm.Task) {
		node := core.NewNode(t, core.Options{})
		node.Register(loc)
		writer(node, loc)
	})
	return eng.Run()
}

// globalReadHit is one Global_Read satisfied from the local buffer.
func globalReadHit(n int) error {
	return coreCluster(func(node *core.Node, loc *core.Location) {
		node.GlobalRead(loc, 0, 0)
		for i := 0; i < n; i++ {
			node.GlobalRead(loc, 0, 0)
		}
	}, func(node *core.Node, loc *core.Location) {
		node.Write(loc, 0, 1)
	})
}

// globalReadBlocked is one Global_Read that blocks until the writer's
// next update arrives; the reader's acknowledgement releases the next
// write, so every read blocks.
func globalReadBlocked(n int) error {
	return coreCluster(func(node *core.Node, loc *core.Location) {
		for i := 0; i < n; i++ {
			node.GlobalRead(loc, int64(i), 0)
			node.Task().Send(1, 77, 8, nil)
		}
	}, func(node *core.Node, loc *core.Location) {
		for i := 0; i < n; i++ {
			node.Write(loc, int64(i), i)
			node.Task().Recv(0, 77)
		}
	})
}

// warpObserve is one message arrival as the GA and sampler record it:
// into the run's warp meter and its windowed warp series. Arrivals
// cycle over 4000 (dst, src) pairs, four sources for each of 1000
// destinations, as on a gossip overlay.
func warpObserve() func(int) error {
	return func(n int) error {
		w := metrics.NewWarpMeter()
		ws := metrics.NewWarpSeries(100 * sim.Millisecond)
		for i := 0; i < n; i++ {
			dst := i % 1000
			src := (dst + 1 + 37*((i/1000)%4)) % 1000
			sent := sim.Time(int64(i) * 1000)
			w.Observe(dst, src, sent, sent+5000)
			ws.Observe(dst, src, sent, sent+5000)
		}
		return nil
	}
}

// gaGeneration is one generation of a 50-individual deme on F1 as the
// island GA runs it: evaluate the population, publish its best half,
// take in the best half of a neighbouring deme, then select, cross
// over and mutate.
func gaGeneration() func(int) error {
	rng := rand.New(rand.NewSource(1))
	par := ga.DeJongParams()
	d := ga.NewDeme(functions.F1, par, rng)
	peer := ga.NewDeme(functions.F1, par, rng)
	peer.EvaluateAll()
	return func(n int) error {
		for i := 0; i < n; i++ {
			d.EvaluateAll()
			d.BestK(par.N / 2)
			d.ReplaceWorst(peer.BestK(par.N / 2))
			d.NextGeneration()
		}
		return nil
	}
}

// gaEval is one objective evaluation of a random F5 chromosome.
func gaEval() func(int) error {
	fn := functions.F5
	rng := rand.New(rand.NewSource(1))
	pool := make([][]byte, 64)
	for i := range pool {
		pool[i] = make([]byte, fn.TotalBits())
		for b := range pool[i] {
			pool[i][b] = byte(rng.Intn(2))
		}
	}
	return func(n int) error {
		s := 0.0
		for i := 0; i < n; i++ {
			s += fn.EvalBits(pool[i&63], rng)
		}
		calibSink += uint64(s)
		return nil
	}
}

// bayesSample is one forward (logic) sample of the first Table 2
// network.
func bayesSample() func(int) error {
	bn := bayes.Table2Networks()[0]
	values := make([]int, bn.N())
	rng := rand.New(rand.NewSource(1))
	return func(n int) error {
		for i := 0; i < n; i++ {
			bn.SampleInto(values, rng)
		}
		return nil
	}
}
