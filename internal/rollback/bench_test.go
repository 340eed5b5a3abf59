package rollback

import "testing"

// BenchmarkLedgerIteration mirrors the benchio micro
// rollback.LedgerIteration: one Bayes iteration's traffic through the
// ledger. It consumes a row of remote parents at iteration t, stores a
// peer's bundle row one batch ahead, and prunes on the Bayes cadence
// (every 1024 iterations, 8 batches + age + 128 behind). After a
// warm-up every row comes from the free list.
func BenchmarkLedgerIteration(b *testing.B) {
	b.ReportAllocs()
	parents := []int{2, 5, 11, 17, 23, 30, 38, 44, 51, 55}
	const batch, age, warm = 16, 10, 4096
	s := NewStore()
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
