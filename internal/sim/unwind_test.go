package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines polls until the goroutine count drops to at most
// want (exiting goroutines take a moment to be reaped) and returns the
// last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestUnwindEndsParkedProcesses covers the three ways a process can
// outlive its run: parked by a Stop (a background loop), stuck in a
// deadlock, and spawned but never started. Unwind must end all of them
// without running any more of their code.
func TestUnwindEndsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()

	stopped := NewEngine(1)
	ticks := 0
	stopped.Spawn("loop", func(p *Proc) {
		for {
			ticks++
			p.Sleep(Millisecond)
		}
	})
	stopped.Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		stopped.Stop()
	})
	if err := stopped.Run(); err != nil {
		t.Fatal(err)
	}

	stuck := NewEngine(2)
	var never WaitList
	stuck.Spawn("waiter", func(p *Proc) { never.Wait(p) })
	if err := stuck.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}

	unstarted := NewEngine(3)
	ran := false
	unstarted.Spawn("late", func(p *Proc) { ran = true })

	for _, e := range []*Engine{stopped, stuck, unstarted} {
		if e.Live() == 0 {
			t.Fatal("expected a live process before Unwind")
		}
	}
	tickBefore := ticks
	for _, e := range []*Engine{stopped, stuck, unstarted} {
		e.Unwind()
		if n := e.Live(); n != 0 {
			t.Errorf("Live after Unwind = %d, want 0", n)
		}
	}
	if ticks != tickBefore || ran {
		t.Error("Unwind ran process code")
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Unwind = %d, want <= %d", n, base)
	}
}
