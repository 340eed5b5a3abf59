package exper

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nscc/internal/ckpt"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
)

// runFigure2 renders Figure 2 and returns the exact report text, so the
// checkpoint tests can assert byte identity rather than approximate
// agreement.
func runFigure2(t *testing.T, opts Options) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Figure2(&buf, opts, []*functions.Function{functions.F1, functions.F5}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// closeStore flushes the store and fails the test on journal errors.
func closeStore(t *testing.T, s *ckpt.Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure2CheckpointResume is the sweep-level crash drill: an
// uncached run, a fresh cached run, a kill-mid-journal-write resume
// (simulated by truncating the last record), a warm rerun at a
// different worker count, and a config change must all agree — the
// first four byte-for-byte, the last by invalidating rather than
// replaying stale cells.
func TestFigure2CheckpointResume(t *testing.T) {
	opts := tinyOpts()
	clean := runFigure2(t, opts) // no checkpoint store at all

	// Fresh cached run: identical output, every cell a miss.
	dir := t.TempDir()
	cachedOpts := opts
	cachedOpts.Ckpt = ckpt.NewStore(dir, false)
	if got := runFigure2(t, cachedOpts); got != clean {
		t.Fatalf("fresh cached run differs from uncached:\n%s\n--- vs ---\n%s", got, clean)
	}
	if c := cachedOpts.Ckpt.Counters(); c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("fresh run counters %+v, want 0 hits / 2 misses", c)
	}
	closeStore(t, cachedOpts.Ckpt)

	// Kill mid-write: chop a byte off the journal's last record. Resume
	// must truncate the torn tail, replay the intact cell, and re-run
	// only the torn one — with byte-identical output.
	journal := filepath.Join(dir, "figure2.ckpt")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	resumeOpts := opts
	resumeOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := runFigure2(t, resumeOpts); got != clean {
		t.Fatalf("resumed run differs from clean run:\n%s\n--- vs ---\n%s", got, clean)
	}
	if c := resumeOpts.Ckpt.Counters(); c.TornRecords != 1 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("resume counters %+v, want 1 torn / 1 hit / 1 miss", c)
	}
	closeStore(t, resumeOpts.Ckpt)

	// Warm rerun at a different worker count: all hits, same bytes.
	warmOpts := opts
	warmOpts.Workers = 8
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := runFigure2(t, warmOpts); got != clean {
		t.Fatal("warm 8-worker run differs from clean run")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != 2 || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want 2 hits / 0 misses", c)
	}
	closeStore(t, warmOpts.Ckpt)

	// A knob that reaches the simulations changes the space fingerprint:
	// the journal must invalidate wholesale, never replay stale bytes.
	staleOpts := opts
	staleOpts.SyncGens = opts.SyncGens + 10
	staleOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := runFigure2(t, staleOpts); got == clean {
		t.Fatal("changed SyncGens left output identical — cells were not re-run")
	}
	if c := staleOpts.Ckpt.Counters(); c.Invalidated != 2 || c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("invalidation counters %+v, want 2 invalidated / 0 hits / 2 misses", c)
	}
	closeStore(t, staleOpts.Ckpt)
}

// TestFigure2OldSchemaJournalNotReplayed: a Figure 2 journal written
// under the previous schema, for exactly this configuration and cell
// keys, must invalidate on resume instead of splicing its cells into
// the new results. Its records hold real but stale cell results (from
// a run with different SyncGens, which the cell keys do not cover), and
// a control journal carrying the same records under the current schema
// shows they would replay if the schema did not exclude them.
func TestFigure2OldSchemaJournalNotReplayed(t *testing.T) {
	opts := tinyOpts()
	clean := runFigure2(t, opts)
	fns := []*functions.Function{functions.F1, functions.F5}
	var keys []ckpt.Key
	for _, p := range opts.Procs {
		for _, fn := range fns {
			for trial := 0; trial < opts.Trials; trial++ {
				keys = append(keys, gaCellKey("figure2", fn, p, 0, trial, gaCellSeed(opts, trial, fn, p)))
			}
		}
	}

	// Stale cell payloads: the same cells at a different SyncGens.
	staleDir := t.TempDir()
	staleOpts := opts
	staleOpts.SyncGens = opts.SyncGens + 10
	staleOpts.Ckpt = ckpt.NewStore(staleDir, false)
	stale := runFigure2(t, staleOpts)
	if stale == clean {
		t.Fatal("stale configuration renders the same report; the test has no teeth")
	}
	closeStore(t, staleOpts.Ckpt)
	src, err := ckpt.OpenJournal(filepath.Join(staleDir, "figure2.ckpt"), staleOpts.sweepSpace(ckptSchema, "figure2"), true)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(keys))
	for i, k := range keys {
		var ok bool
		if payloads[i], ok = src.Get(k); !ok {
			t.Fatalf("stale journal lacks cell %d", i)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	// forge writes the stale records into a figure2 journal for opts
	// under the given schema, then resumes Figure 2 from it.
	forge := func(schema int64) (string, metrics.CacheTelemetry) {
		dir := t.TempDir()
		j, err := ckpt.OpenJournal(filepath.Join(dir, "figure2.ckpt"), opts.sweepSpace(schema, "figure2"), false)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if err := j.Put(k, payloads[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		resumed := opts
		resumed.Ckpt = ckpt.NewStore(dir, true)
		got := runFigure2(t, resumed)
		c := resumed.Ckpt.Counters()
		closeStore(t, resumed.Ckpt)
		return got, c
	}

	n := int64(len(keys))
	if got, c := forge(ckptSchema); got != stale || c.Hits != n {
		t.Fatalf("control: current-schema journal not replayed (counters %+v)", c)
	}
	// Schema 2 journals hold GA cells computed with one RNG draw per
	// mutated bit; geometric gap sampling changed every GA result.
	got, c := forge(2)
	if got != clean {
		t.Fatalf("old-schema journal leaked into the results:\n%s\n--- want ---\n%s", got, clean)
	}
	if c.Invalidated != n || c.Hits != 0 || c.Misses != n {
		t.Fatalf("old-schema counters %+v, want %d invalidated / 0 hits / %d misses", c, n, n)
	}
}

// TestAgeSweepCheckpointResume covers a two-journal sweep (references
// and cells) resuming across worker counts.
func TestAgeSweepCheckpointResume(t *testing.T) {
	opts := tinyOpts()
	loads := []float64{0}
	run := func(opts Options) string {
		var buf bytes.Buffer
		if _, err := AgeSweep(&buf, opts, functions.F1, 2, loads); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := run(opts)

	dir := t.TempDir()
	// 1 load x 1 trial references + 1 load x 8 ages x 1 trial cells.
	const cells = 1 + 8
	freshOpts := opts
	freshOpts.Ckpt = ckpt.NewStore(dir, false)
	if got := run(freshOpts); got != clean {
		t.Fatal("fresh cached age sweep differs from uncached")
	}
	if c := freshOpts.Ckpt.Counters(); c.Hits != 0 || c.Misses != cells {
		t.Fatalf("fresh counters %+v, want 0 hits / %d misses", c, cells)
	}
	closeStore(t, freshOpts.Ckpt)
	for _, name := range []string{"agesweep-refs.ckpt", "agesweep-cells.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("journal %s: %v", name, err)
		}
	}

	warmOpts := opts
	warmOpts.Workers = 8
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := run(warmOpts); got != clean {
		t.Fatal("warm 8-worker age sweep differs from clean run")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != cells || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want %d hits / 0 misses", c, cells)
	}
	closeStore(t, warmOpts.Ckpt)
}

// TestTable2CheckpointResume covers the Bayes-cell key path and the
// Net-pointer reattachment after a cached replay.
func TestTable2CheckpointResume(t *testing.T) {
	opts := tinyOpts()
	var clean bytes.Buffer
	if _, err := Table2(&clean, opts); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	freshOpts := opts
	freshOpts.Ckpt = ckpt.NewStore(dir, false)
	var fresh bytes.Buffer
	if _, err := Table2(&fresh, freshOpts); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != clean.String() {
		t.Fatal("fresh cached Table 2 differs from uncached")
	}
	closeStore(t, freshOpts.Ckpt)

	warmOpts := opts
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	var warm bytes.Buffer
	rows, err := Table2(&warm, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != clean.String() {
		t.Fatal("warm Table 2 differs from uncached")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != 4 || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want 4 hits / 0 misses", c)
	}
	for i, r := range rows {
		if r.Net == nil {
			t.Fatalf("row %d lost its network pointer on the cached path", i)
		}
	}
	closeStore(t, warmOpts.Ckpt)
}
