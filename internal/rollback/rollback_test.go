package rollback

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestConsumeActualVsDefault(t *testing.T) {
	s := NewStore()
	v, gambled := s.Consume(7, 3, 1)
	if v != 1 || !gambled {
		t.Fatalf("missing value should gamble on default: v=%d gambled=%v", v, gambled)
	}
	s.PutActual(7, 4, 2)
	v, gambled = s.Consume(7, 4, 1)
	if v != 2 || gambled {
		t.Fatalf("present value should be consumed: v=%d gambled=%v", v, gambled)
	}
	st := s.Stats()
	if st.Gambles != 1 || st.Actuals != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConflictDirtiesIteration(t *testing.T) {
	s := NewStore()
	s.Consume(7, 3, 1) // gamble on 1
	if s.HasDirty() {
		t.Fatal("nothing should be dirty yet")
	}
	if !s.PutActual(7, 3, 0) {
		t.Fatal("conflicting actual must report a conflict")
	}
	if d := s.Dirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("dirty = %v", d)
	}
}

func TestMatchingActualNoConflict(t *testing.T) {
	s := NewStore()
	s.Consume(7, 3, 1)
	if s.PutActual(7, 3, 1) {
		t.Fatal("matching actual should not conflict (the gamble paid off)")
	}
	if s.HasDirty() {
		t.Fatal("nothing dirty after a correct gamble")
	}
}

func TestRetract(t *testing.T) {
	s := NewStore()
	s.PutActual(5, 2, 1)
	s.Consume(5, 2, 0)
	if !s.Retract(5, 2) {
		t.Fatal("retracting a consumed value must dirty the iteration")
	}
	// After retraction the value is gone: next consume gambles.
	s.BeginRollback(2)
	v, gambled := s.Consume(5, 2, 9)
	if v != 9 || !gambled {
		t.Fatalf("post-retract consume: v=%d gambled=%v", v, gambled)
	}
	if s.Retract(4, 2) {
		t.Fatal("retracting an unconsumed value should not dirty")
	}
}

func TestRollbackReplayCycle(t *testing.T) {
	s := NewStore()
	// Iteration 1 gambles on two nodes.
	s.Consume(1, 1, 0)
	s.Consume(2, 1, 0)
	// Both actuals arrive; one conflicts.
	s.PutActual(1, 1, 0)
	s.PutActual(2, 1, 1)
	d := s.Dirty()
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("dirty = %v", d)
	}
	s.BeginRollback(1)
	if s.HasDirty() {
		t.Fatal("BeginRollback must clear the dirty flag")
	}
	// Replay consumes actuals this time.
	if v, g := s.Consume(1, 1, 0); v != 0 || g {
		t.Fatalf("replay node 1: %d %v", v, g)
	}
	if v, g := s.Consume(2, 1, 0); v != 1 || g {
		t.Fatalf("replay node 2: %d %v", v, g)
	}
	if s.Stats().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", s.Stats().Rollbacks)
	}
}

func TestDirtySorted(t *testing.T) {
	s := NewStore()
	for _, it := range []int64{9, 2, 5} {
		s.Consume(1, it, 0)
		s.PutActual(1, it, 1)
	}
	d := s.Dirty()
	if len(d) != 3 || d[0] != 2 || d[1] != 5 || d[2] != 9 {
		t.Fatalf("dirty = %v", d)
	}
}

func TestPrune(t *testing.T) {
	s := NewStore()
	for it := int64(0); it < 10; it++ {
		s.PutActual(1, it, 1)
		s.Consume(1, it, 1)
	}
	// Dirty iteration 3 must survive pruning.
	s.PutActual(1, 3, 0)
	s.Prune(8)
	if v, g := s.Consume(1, 9, 7); v != 1 || g {
		t.Fatalf("recent value pruned: %d %v", v, g)
	}
	if v, g := s.Consume(1, 1, 7); v != 7 || !g {
		t.Fatalf("old value should be pruned: %d %v", v, g)
	}
	if d := s.Dirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("dirty lost by prune: %v", d)
	}
}

// TestLateOpsBelowHorizon: after a prune, records below the horizon are
// gone, and late operations there start from an empty slot.
func TestLateOpsBelowHorizon(t *testing.T) {
	s := NewStore()
	s.PutActual(1, 5, 2) // iteration 5's row is the last one touched
	s.Prune(6)
	if v, g := s.Consume(1, 5, 7); v != 7 || !g {
		t.Fatalf("pruned actual still consumed: %d %v", v, g)
	}
	if !s.PutActual(1, 5, 2) {
		t.Fatal("late actual contradicting the late gamble must conflict")
	}
	s.Prune(6)
	if d := s.Dirty(); len(d) != 1 || d[0] != 5 {
		t.Fatalf("dirty late iteration lost by prune: %v", d)
	}
	s.BeginRollback(5)
	if v, g := s.Consume(1, 5, 7); v != 2 || g {
		t.Fatalf("rollback must keep the late actual: %d %v", v, g)
	}
	if !s.Retract(1, 5) {
		t.Fatal("retracting the consumed late actual must dirty")
	}
}

// Property: a gamble on the eventually-correct value never dirties; a
// gamble on a wrong value always does.
func TestGambleOutcomeProperty(t *testing.T) {
	f := func(defRaw, actRaw uint8, iter int64, node uint8) bool {
		def := int(defRaw % 4)
		act := int(actRaw % 4)
		s := NewStore()
		s.Consume(int(node), iter, def)
		conflict := s.PutActual(int(node), iter, act)
		if def == act {
			return !conflict && !s.HasDirty()
		}
		return conflict && s.HasDirty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// oracle is the reference model of a Store: maps of actuals and
// consumed values, a dirty set and the expected counters.
type oracle struct {
	actuals map[oracleSlot]int
	used    map[oracleSlot]int
	dirty   map[int64]bool
	stats   Stats
}

type oracleSlot struct {
	node int
	iter int64
}

func newOracle() *oracle {
	return &oracle{actuals: map[oracleSlot]int{}, used: map[oracleSlot]int{}, dirty: map[int64]bool{}}
}

func (o *oracle) consume(node int, iter int64, def int) (int, bool) {
	k := oracleSlot{node, iter}
	v, ok := o.actuals[k]
	if ok {
		o.stats.Actuals++
	} else {
		v = def
		o.stats.Gambles++
	}
	o.used[k] = v
	return v, !ok
}

func (o *oracle) putActual(node int, iter int64, state int) bool {
	k := oracleSlot{node, iter}
	o.actuals[k] = state
	if u, ok := o.used[k]; ok && u != state {
		o.stats.Conflicts++
		o.dirty[iter] = true
		return true
	}
	return false
}

func (o *oracle) retract(node int, iter int64) bool {
	k := oracleSlot{node, iter}
	delete(o.actuals, k)
	if _, ok := o.used[k]; ok {
		o.stats.Retracts++
		o.dirty[iter] = true
		return true
	}
	return false
}

func (o *oracle) beginRollback(iter int64) {
	o.stats.Rollbacks++
	delete(o.dirty, iter)
	for k := range o.used {
		if k.iter == iter {
			delete(o.used, k)
		}
	}
}

func (o *oracle) prune(iter int64) {
	for k := range o.actuals {
		if k.iter < iter && !o.dirty[k.iter] {
			delete(o.actuals, k)
		}
	}
	for k := range o.used {
		if k.iter < iter && !o.dirty[k.iter] {
			delete(o.used, k)
		}
	}
}

func (o *oracle) sortedDirty() []int64 {
	out := make([]int64, 0, len(o.dirty))
	for it := range o.dirty {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// agrees reports whether s shows the oracle's dirty set and counters.
func (o *oracle) agrees(s *Store) bool {
	if s.HasDirty() != (len(o.dirty) > 0) || s.Stats() != o.stats {
		return false
	}
	got, want := s.Dirty(), o.sortedDirty()
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Ledger operations driven against the oracle.
const (
	opConsume = iota
	opPutActual
	opRetract
	opRollbackDirty // BeginRollback on a dirty iteration, if any
	opRollbackAny   // BeginRollback on an arbitrary iteration
	opPrune
)

// apply performs op on both s and o at (node, iter) and reports
// whether every result agrees.
func apply(s *Store, o *oracle, rng *rand.Rand, op, node int, iter int64) bool {
	switch op {
	case opConsume:
		def := rng.Intn(3)
		got, gambled := s.Consume(node, iter, def)
		want, wantGambled := o.consume(node, iter, def)
		return got == want && gambled == wantGambled
	case opPutActual:
		state := rng.Intn(3)
		return s.PutActual(node, iter, state) == o.putActual(node, iter, state)
	case opRetract:
		return s.Retract(node, iter) == o.retract(node, iter)
	case opRollbackDirty:
		ds := s.Dirty()
		if len(ds) == 0 {
			return len(o.dirty) == 0
		}
		it := ds[rng.Intn(len(ds))]
		if !o.dirty[it] {
			return false
		}
		s.BeginRollback(it)
		o.beginRollback(it)
	case opRollbackAny:
		s.BeginRollback(iter)
		o.beginRollback(iter)
	case opPrune:
		s.Prune(iter)
		o.prune(iter)
	}
	return true
}

// TestStoreAgainstOracle drives the Store with random operation
// sequences and checks every observable against a simple reference
// model (maps of actuals and consumed values).
func TestStoreAgainstOracle(t *testing.T) {
	t.Run("narrow", func(t *testing.T) {
		// Three nodes over four iterations: every slot is hit often.
		f := func(seed int64, opsRaw []uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			s, o := NewStore(), newOracle()
			for _, op := range opsRaw {
				node := int(op % 3)
				iter := int64(op/3) % 4
				if !apply(s, o, rng, rng.Intn(4), node, iter) || !o.agrees(s) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("prune", func(t *testing.T) {
		// Node ids up to 64 over a cursor that advances through several
		// 1024-iteration prune windows. Prunes fall at random horizons
		// behind the cursor, and some operations land late, below the
		// last horizon. Rollbacks are rare, so dirty iterations
		// outlive prunes.
		hot := []int{0, 3, 9, 20, 31, 42, 57, 64}
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, o := NewStore(), newOracle()
			var cursor, horizon int64
			survived := 0 // dirty iterations below a prune's horizon
			for step := 0; step < 60000; step++ {
				if rng.Intn(16) == 0 {
					cursor++
				}
				node := hot[rng.Intn(len(hot))]
				if rng.Intn(20) == 0 {
					node = rng.Intn(65)
				}
				var iter int64
				switch r := rng.Intn(10); {
				case r < 8:
					iter = cursor - int64(rng.Intn(8))
				case r < 9:
					iter = cursor + int64(rng.Intn(8))
				default:
					iter = horizon - 1 - int64(rng.Intn(8))
				}
				var op int
				switch r := rng.Intn(1000); {
				case r < 400:
					op = opConsume
				case r < 800:
					op = opPutActual
				case r < 900:
					op = opRetract
				case r < 980:
					op = opRollbackDirty
				case r < 998:
					op = opRollbackAny
				default:
					op = opPrune
					horizon = cursor - int64(rng.Intn(256))
					iter = horizon
					for it := range o.dirty {
						if it < horizon {
							survived++
						}
					}
				}
				if !apply(s, o, rng, op, node, iter) || !o.agrees(s) {
					t.Fatalf("seed %d step %d: op %d at node %d iter %d disagrees with the oracle (stats %+v, want %+v)",
						seed, step, op, node, iter, s.Stats(), o.stats)
				}
			}
			if st := s.Stats(); st.Conflicts == 0 || st.Retracts == 0 || st.Rollbacks == 0 || survived == 0 || cursor < 3*1024 {
				t.Fatalf("seed %d: workload too tame: %+v, %d dirty iterations kept by prunes, %d iterations",
					seed, st, survived, cursor)
			}
		}
	})
}
