package main

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nscc/internal/trace"
)

// counter is the benchmark's own trace.Tracer: it keeps no events,
// only how many records each layer (pid) emitted under each name.
type counter struct {
	n map[recKey]int64
}

type recKey struct {
	pid  int
	name string
}

func newCounter() *counter { return &counter{n: map[recKey]int64{}} }

// Emit counts one record.
func (c *counter) Emit(ev trace.Event) { c.n[recKey{ev.Pid, ev.Name}]++ }

func (c *counter) merge(o *counter) {
	for k, v := range o.n {
		c.n[k] += v
	}
}

// MarshalJSON writes the counts keyed "pid/name".
func (c *counter) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, len(c.n))
	for k, v := range c.n {
		m[strconv.Itoa(k.pid)+"/"+k.name] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads counts written by MarshalJSON.
func (c *counter) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	c.n = make(map[recKey]int64, len(m))
	for k, v := range m {
		pid, name, ok := strings.Cut(k, "/")
		n, err := strconv.Atoi(pid)
		if !ok || err != nil {
			return fmt.Errorf("bad trace count key %q", k)
		}
		c.n[recKey{n, name}] = v
	}
	return nil
}

// get returns the count of records named name on layer pid.
func (c *counter) get(pid int, name string) int64 { return c.n[recKey{pid, name}] }

// rows returns "layer/name" → count in a stable order.
func (c *counter) rows() []countRow {
	out := make([]countRow, 0, len(c.n))
	for k, v := range c.n {
		out = append(out, countRow{trace.PidName(k.pid) + "/" + k.name, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type countRow struct {
	key string
	n   int64
}

// hostSnap is a point-in-time reading of the process's host clocks and
// allocation counter.
type hostSnap struct {
	wall time.Time
	hostCost
}

// hostCost is what a stretch of the process's work cost the host.
type hostCost struct {
	wallNs, cpuNs, gcCPUNs int64
	alloc                  uint64
}

func snapshot() hostSnap {
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(m)
	s := hostSnap{wall: time.Now()}
	s.cpuNs = cpuNow()
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUNs = int64(m[0].Value.Float64() * 1e9)
	}
	if m[1].Value.Kind() == metrics.KindUint64 {
		s.alloc = m[1].Value.Uint64()
	}
	return s
}

// without returns c less the cost o.
func (c hostCost) without(o hostCost) hostCost {
	return hostCost{c.wallNs - o.wallNs, c.cpuNs - o.cpuNs, c.gcCPUNs - o.gcCPUNs, c.alloc - o.alloc}
}

// minus returns the cost between an earlier snapshot and s.
func (s hostSnap) minus(earlier hostSnap) hostCost {
	return hostCost{
		wallNs:  s.wall.Sub(earlier.wall).Nanoseconds(),
		cpuNs:   s.cpuNs - earlier.cpuNs,
		gcCPUNs: s.gcCPUNs - earlier.gcCPUNs,
		alloc:   s.alloc - earlier.alloc,
	}
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}
