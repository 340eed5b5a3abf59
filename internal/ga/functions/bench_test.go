package functions

import "testing"

// evalSink keeps the measured evaluation from being optimized away.
var evalSink float64

// BenchmarkEvalF5 mirrors the benchio micro ga.EvalF5: one
// allocation-free F5 evaluation.
func BenchmarkEvalF5(b *testing.B) {
	b.ReportAllocs()
	bits := make([]byte, F5.TotalBits())
	for i := range bits {
		bits[i] = byte(i & 1)
	}
	scratch := make([]float64, F5.Vars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = F5.EvalBitsInto(scratch, bits, false, nil)
	}
}
