package main

import (
	"math/rand"
	"slices"
)

// The host-speed probe. The box the benchmark runs on is shared, and
// its speed for this kind of code drifts by up to ±30 % over minutes,
// far more than a change worth gating. So the end-to-end run follows
// every trial, and every set-up sample, with a few runs of a fixed
// piece of work that does not depend on the program, and scales the
// host times of each by probeRefNs ÷ the median time of the probe runs
// right after it: a figure is the time the run would have taken had
// the probe run at its reference speed. The probe mixes what the simulator spends its time on —
// pointer chasing, map lookups, sorting, RNG-driven bit flips and
// goroutine handoffs — so that it slows down when the simulator does.
// Its data (a few hundred KB) stays in the CPU's caches, so its speed
// does not depend on where a process's heap happens to lie.
type probe struct {
	ring  []probeNode
	table map[int]int
	perm  []int
	buf   []int
	bits  []byte
	rng   *rand.Rand
	sink  int
}

type probeNode struct {
	next *probeNode
	val  int
	_    [6]int
}

// probeRefNs is the probe's reference time per run, about its median
// on a 2-vCPU Intel Xeon VM with Go 1.24. It only sets the scale of
// the reported times.
const probeRefNs = 5e6

// probeShare is how much probe time follows each trial, as a share of
// the trial's time; every trial is followed by at least one run.
const probeShare = 0.1

func newProbe() *probe {
	p := &probe{
		ring:  make([]probeNode, 1<<12),
		table: make(map[int]int, 1<<12),
		perm:  rand.New(rand.NewSource(1)).Perm(1 << 12),
		buf:   make([]int, 1<<12),
		bits:  make([]byte, 1<<12),
		rng:   rand.New(rand.NewSource(2)),
	}
	for i, j := range p.perm {
		p.ring[j].next = &p.ring[p.perm[(i+1)%len(p.perm)]]
		p.ring[j].val = i
	}
	for i := 0; i < 1<<12; i++ {
		p.table[i*7919] = i
	}
	return p
}

// run performs the probe's fixed work once.
func (p *probe) run() {
	n := &p.ring[0]
	for i := 0; i < 1<<18; i++ {
		n = n.next
		p.sink += n.val
	}
	for i := 0; i < 1<<15; i++ {
		p.sink += p.table[(i&(1<<12-1))*7919]
	}
	for k := 0; k < 4; k++ {
		copy(p.buf, p.perm)
		slices.Sort(p.buf)
		p.sink += p.buf[len(p.buf)/2]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 5000; i++ {
		ping <- i
		p.sink += <-pong
	}
	close(ping)
	<-pong
	for k := 0; k < 20; k++ {
		for i := range p.bits {
			if p.rng.Float64() < 0.01 {
				p.bits[i] ^= 1
			}
		}
	}
}
