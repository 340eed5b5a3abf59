package benchio

import (
	"testing"

	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/rollback"
	"nscc/internal/sim"
)

// NamedMicro pairs a stable snapshot key with a benchmark body.
type NamedMicro struct {
	Name string
	Fn   func(b *testing.B)
}

// StandardMicros returns the key DES hot-path microbenchmarks every
// BENCH_*.json snapshot carries: the engine's event/sleep path, the
// message layer's round trip, one short Global_Read island-GA run, and
// the workload kernels (one GA generation step, one F5 evaluation, one
// iteration of the rollback ledger). They mirror the equivalent go-test
// benchmarks (the bench_test files of internal/sim, internal/pvm,
// internal/ga, internal/ga/functions and internal/rollback) so numbers
// line up across harnesses.
func StandardMicros() []NamedMicro {
	return []NamedMicro{
		{Name: "sim.SleepLoop", Fn: microSleepLoop},
		{Name: "sim.QueueHold100k", Fn: microQueueHoldCalendar},
		{Name: "sim.QueueHold100kHeap", Fn: microQueueHoldHeap},
		{Name: "pvm.PingPong", Fn: microPingPong},
		{Name: "pvm.Bcast1000", Fn: microBcast1000},
		{Name: "ga.IslandShortRun", Fn: microIslandRun},
		{Name: "ga.NextGeneration", Fn: microNextGeneration},
		{Name: "ga.EvalF5", Fn: microEvalF5},
		{Name: "rollback.LedgerIteration", Fn: microLedgerIteration},
	}
}

func microSleepLoop(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	eng.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microQueueHoldCalendar runs the hold model (steady-state pop-min +
// reinsert) on the engine's calendar queue at the pending population a
// multi-thousand-node run sustains. sim.HoldBench drives the queue
// bare, so each op is exactly one pop + one insert — the same work its
// heap twin below performs.
func microQueueHoldCalendar(b *testing.B) {
	b.ReportAllocs()
	hb := sim.NewHoldBench(100000, 1)
	b.ResetTimer()
	hb.Ops(b.N)
}

// microQueueHoldHeap is the same hold model on the pre-calendar binary
// heap, the baseline the calendar queue is gated against.
func microQueueHoldHeap(b *testing.B) {
	b.ReportAllocs()
	hb := sim.NewHoldHeapBench(100000, 1)
	b.ResetTimer()
	hb.Ops(b.N)
}

func microPingPong(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := pvm.NewMachine(eng, net, pvm.DefaultConfig())
	m.Spawn("ping", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Send(1, 1, 64, nil)
			t.Recv(1, 2)
		}
	})
	m.Spawn("pong", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Recv(0, 1)
			t.Send(0, 2, 64, nil)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microBcast1000 is the gossip-round shape of a scaled cluster: one
// task broadcasting to 999 peers that each ack. Its allocs/op is the
// perf-gate sentinel for the O(n²)-payload-copy regression — Bcast must
// reuse its destination scratch and share one pooled Message across the
// fan-out.
func microBcast1000(b *testing.B) {
	b.ReportAllocs()
	const p = 1000
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := pvm.NewMachine(eng, net, pvm.DefaultConfig())
	m.Spawn("root", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Bcast(1, 64, nil)
			for j := 1; j < p; j++ {
				t.Recv(pvm.Any, 2)
			}
		}
	})
	for j := 1; j < p; j++ {
		m.Spawn("leaf", func(t *pvm.Task) {
			for i := 0; i < b.N; i++ {
				t.Recv(0, 1)
				t.Send(0, 2, 8, nil)
			}
		})
	}
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func microIslandRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
			Mode: core.NonStrict, Age: 10,
			FixedGens: 40, MinGens: 40, MaxGens: 160, Target: 0.3,
			Seed: int64(i + 1), Calib: ga.DefaultCalibration(),
		}
		if _, err := ga.RunIsland(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// microNextGeneration is one generation step of a DeJong deme on F1,
// N=50, evaluated once up front: selection, crossover, geometric-gap
// mutation and elitism. Its allocs/op is 0.
func microNextGeneration(b *testing.B) {
	b.ReportAllocs()
	d := ga.NewDeme(functions.F1, ga.DeJongParams(), sim.NewEngine(1).NewRng(0))
	d.EvaluateAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NextGeneration()
	}
}

// evalSink keeps the measured evaluation from being optimized away.
var evalSink float64

func microEvalF5(b *testing.B) {
	b.ReportAllocs()
	bits := make([]byte, functions.F5.TotalBits())
	for i := range bits {
		bits[i] = byte(i & 1)
	}
	scratch := make([]float64, functions.F5.Vars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = functions.F5.EvalBitsInto(scratch, bits, false, nil)
	}
}

// microLedgerIteration is one Bayes iteration's traffic through the
// rollback ledger: Consume of a row of remote parents, PutActual of a
// peer's bundle row one batch ahead, and the Bayes Prune cadence. It
// warms up first, so every row comes from the free list; its
// allocs/op is 0 in that steady state.
func microLedgerIteration(b *testing.B) {
	b.ReportAllocs()
	parents := []int{2, 5, 11, 17, 23, 30, 38, 44, 51, 55}
	const batch, age, warm = 16, 10, 4096
	s := rollback.NewStore()
	step := func(t int64) {
		for _, pa := range parents {
			s.Consume(pa, t, 0)
		}
		for k, n := range parents {
			s.PutActual(n, t+batch, int(t+int64(k))&1)
		}
		if t > 0 && t%1024 == 0 {
			s.Prune(t - 8*batch - age - 128)
		}
	}
	for t := int64(0); t < warm; t++ {
		step(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + int64(i))
	}
}
