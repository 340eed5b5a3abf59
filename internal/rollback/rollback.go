// Package rollback implements the bookkeeping for the paper's
// asynchronous logic sampling (§3.2), a variant of synchronization via
// rollback [2]: a processor that needs a remote interface-node value it
// has not received gambles on a default value and continues; when the
// actual value arrives and differs from the value used, the iteration's
// dependent computation must be invalidated and recomputed, and
// corrections (antimessage + fresh value) cascade downstream.
//
// The Store tracks, per (remote node, iteration): the actual values
// received, the values the local computation consumed, and the set of
// iterations dirtied by conflicting or retracted values.
package rollback

import "sort"

// Stats counts the store's activity.
type Stats struct {
	Gambles   int64 // values consumed as defaults
	Actuals   int64 // values consumed from received messages
	Conflicts int64 // received values that contradicted a consumed value
	Retracts  int64 // antimessages that invalidated a consumed value
	Rollbacks int64 // iterations recomputed
}

// Presence flags of a slot.
const (
	hasActual uint8 = 1 << iota // actual holds a received value
	hasUsed                     // used holds a consumed value
)

// slot is one (node, iteration) entry of the ledger.
type slot struct {
	actual int // received value, valid under hasActual
	used   int // consumed value, valid under hasUsed
	flags  uint8
}

// row is one iteration's slots, indexed by node id.
type row struct {
	iter  int64
	slots []slot
}

// Store is one processor's remote-value and gamble ledger. It keeps one
// row per iteration with a slot per node id, sized to the widest node
// id seen; Prune recycles rows instead of freeing them. Node ids must
// be non-negative.
type Store struct {
	rows  map[int64]*row
	last  *row   // the most recently used row: callers touch many nodes of one iteration in a row
	free  []*row // pruned rows awaiting reuse
	width int    // slots per new row
	dirty map[int64]bool
	stats Stats
}

// NewStore returns an empty ledger.
func NewStore() *Store {
	return &Store{
		rows:  make(map[int64]*row),
		dirty: make(map[int64]bool),
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats { return s.stats }

// lookup returns iter's row, or nil if the iteration has none.
func (s *Store) lookup(iter int64) *row {
	if r := s.last; r != nil && r.iter == iter {
		return r
	}
	r := s.rows[iter]
	if r != nil {
		s.last = r
	}
	return r
}

// slot returns the (node, iter) slot, creating the row and widening it
// as needed.
func (s *Store) slot(node int, iter int64) *slot {
	r := s.lookup(iter)
	if r == nil {
		if n := len(s.free); n > 0 {
			r = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			r = new(row)
		}
		if cap(r.slots) >= s.width {
			r.slots = r.slots[:s.width]
			clear(r.slots)
		} else {
			r.slots = make([]slot, s.width)
		}
		r.iter = iter
		s.rows[iter] = r
		s.last = r
	}
	if node >= len(r.slots) {
		if node >= s.width {
			s.width = node + 1
		}
		r.slots = append(r.slots, make([]slot, s.width-len(r.slots))...)
	}
	return &r.slots[node]
}

// PutActual records the received actual state of node at iter. If the
// local computation already consumed a different value for that slot
// (default gamble or since-retracted actual), the iteration is marked
// dirty and true is returned.
func (s *Store) PutActual(node int, iter int64, state int) bool {
	sl := s.slot(node, iter)
	sl.actual = state
	sl.flags |= hasActual
	if sl.flags&hasUsed != 0 && sl.used != state {
		s.stats.Conflicts++
		s.dirty[iter] = true
		return true
	}
	return false
}

// Retract processes an antimessage: the sender withdraws its previously
// sent value of node at iter. If the local computation consumed that
// value, the iteration is marked dirty and true is returned.
func (s *Store) Retract(node int, iter int64) bool {
	r := s.lookup(iter)
	if r == nil || node >= len(r.slots) {
		return false
	}
	sl := &r.slots[node]
	sl.flags &^= hasActual
	if sl.flags&hasUsed != 0 {
		s.stats.Retracts++
		s.dirty[iter] = true
		return true
	}
	return false
}

// Consume returns the value the computation should use for node at
// iter: the received actual if present, otherwise the supplied default
// (a gamble). The consumed value is recorded so later arrivals can be
// checked against it.
func (s *Store) Consume(node int, iter int64, def int) (state int, gambled bool) {
	sl := s.slot(node, iter)
	if sl.flags&hasActual != 0 {
		state, gambled = sl.actual, false
		s.stats.Actuals++
	} else {
		state, gambled = def, true
		s.stats.Gambles++
	}
	sl.used = state
	sl.flags |= hasUsed
	return state, gambled
}

// Dirty returns the dirtied iterations in increasing order (rollbacks
// must replay oldest-first so corrections cascade consistently).
func (s *Store) Dirty() []int64 {
	out := make([]int64, 0, len(s.dirty))
	//nscc:maporder -- the sort below launders the iteration order
	for it := range s.dirty {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasDirty reports whether any iteration awaits recomputation.
func (s *Store) HasDirty() bool { return len(s.dirty) > 0 }

// BeginRollback clears iter's consumed-value records and dirty flag and
// counts the rollback; the caller then recomputes the iteration, during
// which Consume re-records what the replay uses. Actuals are kept.
func (s *Store) BeginRollback(iter int64) {
	s.stats.Rollbacks++
	delete(s.dirty, iter)
	if r := s.lookup(iter); r != nil {
		for i := range r.slots {
			r.slots[i].flags &^= hasUsed
		}
	}
}

// Prune discards actual/used records older than iter (exclusive) to
// bound memory on long runs. Dirty iterations are never pruned.
func (s *Store) Prune(iter int64) {
	//nscc:maporder -- recycled rows are cleared before reuse, so the free list's order is unobservable
	for it, r := range s.rows {
		if it < iter && !s.dirty[it] {
			delete(s.rows, it)
			s.free = append(s.free, r)
		}
	}
	s.last = nil
}
