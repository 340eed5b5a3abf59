package ga

import (
	"testing"

	"nscc/internal/ga/functions"
	"nscc/internal/sim"
)

// BenchmarkNextGeneration mirrors the benchio micro ga.NextGeneration:
// one allocation-free generation step (selection, crossover, mutation,
// elitism) of a DeJong deme on F1, N=50. The population is evaluated
// once up front; the step itself evaluates nothing.
func BenchmarkNextGeneration(b *testing.B) {
	b.ReportAllocs()
	d := NewDeme(functions.F1, DeJongParams(), sim.NewEngine(1).NewRng(0))
	d.EvaluateAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NextGeneration()
	}
}
