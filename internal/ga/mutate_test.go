package ga

import (
	"math"
	"math/rand"
	"testing"

	"nscc/internal/ga/functions"
)

// The tests below check that geometric gap sampling in mutate has the
// law of one independent Bernoulli(M) draw per bit: flip counts per
// individual, gaps between flips, flip positions, independence across
// calls and the overall rate. They run at the paper's M and at two
// larger rates, where a one-bit error in the gap (rate M/(1+M) instead
// of M) lies many standard deviations away. All seeds are fixed, and
// every chi-square test rejects at p ≈ 1e-6, so a correct sampler
// passes on any seed with near certainty.

var mutationRates = []float64{0.001, 0.05, 0.3}

// mutationLen is the chromosome length the sampler is driven with: F1's
// 30 bits, the shortest the experiments use, so the carry of the skip
// counter across individuals is exercised as often as possible.
var mutationLen = functions.F1.TotalBits()

// countingSource counts the Int63 draws a rand.Rand takes from it (it
// hides Source64, so every draw goes through Int63).
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// mutationSample records what mutate does to consecutive all-zero
// individuals of one deme.
type mutationSample struct {
	counts []int   // flips per call, in call order
	pos    []int64 // stream index (call*l + bit) of every flip
}

// sampleMutations runs mutate on calls consecutive all-zero individuals
// of l bits and records every flip. It also checks, per call, that the
// cache is cleared iff some bit flipped, and that mutate drew exactly
// one random number per flip.
func sampleMutations(t *testing.T, m float64, l, calls int, seed int64) mutationSample {
	t.Helper()
	par := DeJongParams()
	par.M = m
	src := &countingSource{Source: rand.NewSource(seed)}
	d := NewDeme(functions.F1, par, rand.New(src))
	ind := Individual{Bits: make([]byte, l)}
	s := mutationSample{counts: make([]int, calls)}
	draws0 := src.draws
	for c := 0; c < calls; c++ {
		ind.Valid = true
		d.mutate(&ind)
		n := 0
		for i, b := range ind.Bits {
			if b != 0 {
				n++
				s.pos = append(s.pos, int64(c)*int64(l)+int64(i))
				ind.Bits[i] = 0
			}
		}
		if ind.Valid != (n == 0) {
			t.Fatalf("M=%v call %d: %d flips left Valid=%v", m, c, n, ind.Valid)
		}
		s.counts[c] = n
	}
	if got := src.draws - draws0; got != len(s.pos) {
		t.Fatalf("M=%v: mutate drew %d random numbers for %d flips, want one per flip", m, got, len(s.pos))
	}
	return s
}

// callsFor sizes a sample to about flips expected flips at rate m.
func callsFor(m float64, l, flips int) int {
	return int(float64(flips)/(m*float64(l))) + 1
}

// chiSquareCrit approximates the upper 1e-6 quantile of the chi-square
// distribution with df degrees of freedom (Wilson–Hilferty).
func chiSquareCrit(df int) float64 {
	const z = 4.753 // upper 1e-6 quantile of the standard normal
	k := float64(df)
	h := 2 / (9 * k)
	return k * math.Pow(1-h+z*math.Sqrt(h), 3)
}

// chiSquare bins the observed values with the category probabilities
// probs (category i covers values [edges[i], edges[i+1]), the last one
// is open-ended) and returns the statistic and its degrees of freedom.
func chiSquare(obs []int64, edges []int64, probs []float64, n int) (stat float64, df int) {
	counts := make([]float64, len(probs))
	for _, v := range obs {
		i := len(edges) - 1
		for i > 0 && v < edges[i] {
			i--
		}
		counts[i]++
	}
	for i, p := range probs {
		e := p * float64(n)
		stat += (counts[i] - e) * (counts[i] - e) / e
	}
	return stat, len(probs) - 1
}

// poolBins merges the probabilities of the integer values 0, 1, 2, ...
// (pmf(k), with the tail beyond the last value folded into the last
// category) into categories of probability at least minP each, and
// returns their lower edges and probabilities.
func poolBins(pmf func(k int64) float64, minP float64) (edges []int64, probs []float64) {
	acc, rest := 0.0, 1.0
	start := int64(0)
	for k := int64(0); rest >= 2*minP; k++ {
		acc += pmf(k)
		if acc >= minP {
			edges, probs = append(edges, start), append(probs, acc)
			rest -= acc
			acc, start = 0, k+1
		}
	}
	// Whatever is left (under 2·minP) is the open-ended last category.
	return append(edges, start), append(probs, rest)
}

func binomialPMF(n int, p float64) func(k int64) float64 {
	return func(k int64) float64 {
		if k > int64(n) {
			return 0
		}
		lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
		kk := float64(k)
		return math.Exp(lg(float64(n)+1) - lg(kk+1) - lg(float64(n)-kk+1) +
			kk*math.Log(p) + (float64(n)-kk)*math.Log1p(-p))
	}
}

func geometricPMF(p float64) func(k int64) float64 {
	return func(k int64) float64 { return p * math.Exp(float64(k)*math.Log1p(-p)) }
}

// TestMutationFlipCountsBinomial: the flips in one individual of l bits
// are Binomial(l, M).
func TestMutationFlipCountsBinomial(t *testing.T) {
	for i, m := range mutationRates {
		calls := callsFor(m, mutationLen, 60000)
		s := sampleMutations(t, m, mutationLen, calls, int64(100+i))
		obs := make([]int64, len(s.counts))
		for j, c := range s.counts {
			obs[j] = int64(c)
		}
		edges, probs := poolBins(binomialPMF(mutationLen, m), 5/float64(calls))
		stat, df := chiSquare(obs, edges, probs, calls)
		if df < 1 || stat > chiSquareCrit(df) {
			t.Errorf("M=%v: flip counts chi-square %.1f on %d df (crit %.1f) over %d individuals",
				m, stat, df, chiSquareCrit(df), calls)
		}
	}
}

// TestMutationGapsGeometric: the numbers of unflipped bits between
// consecutive flips of the stream, across individual boundaries, are
// Geometric(M) on {0, 1, 2, ...}.
func TestMutationGapsGeometric(t *testing.T) {
	for i, m := range mutationRates {
		s := sampleMutations(t, m, mutationLen, callsFor(m, mutationLen, 60000), int64(200+i))
		gaps := make([]int64, 0, len(s.pos))
		prev := int64(-1)
		for _, p := range s.pos {
			gaps = append(gaps, p-prev-1)
			prev = p
		}
		// Twenty roughly equiprobable categories.
		edges, probs := poolBins(geometricPMF(m), 0.05)
		stat, df := chiSquare(gaps, edges, probs, len(gaps))
		if stat > chiSquareCrit(df) {
			t.Errorf("M=%v: gap chi-square %.1f on %d df (crit %.1f) over %d gaps",
				m, stat, df, chiSquareCrit(df), len(gaps))
		}
	}
}

// TestMutationPositionsUniform: flips fall uniformly over the bit index
// within an individual. The first and last bits are checked on their
// own too: they sit next to the individual boundary the skip counter
// carries across.
func TestMutationPositionsUniform(t *testing.T) {
	l := int64(mutationLen)
	for i, m := range mutationRates {
		s := sampleMutations(t, m, mutationLen, callsFor(m, mutationLen, 60000), int64(300+i))
		idx := make([]int64, len(s.pos))
		perBit := make([]float64, l)
		for j, p := range s.pos {
			idx[j] = p % l
			perBit[idx[j]]++
		}
		edges := make([]int64, l)
		probs := make([]float64, l)
		for b := range edges {
			edges[b], probs[b] = int64(b), 1/float64(l)
		}
		stat, df := chiSquare(idx, edges, probs, len(idx))
		if stat > chiSquareCrit(df) {
			t.Errorf("M=%v: position chi-square %.1f on %d df (crit %.1f)", m, stat, df, chiSquareCrit(df))
		}
		// Each bit index is flipped Binomial(calls, M) times.
		calls := float64(len(s.counts))
		mean, sd := calls*m, math.Sqrt(calls*m*(1-m))
		for _, b := range []int64{0, l - 1} {
			if z := (perBit[b] - mean) / sd; math.Abs(z) > 5 {
				t.Errorf("M=%v: bit %d flipped %v times, want %.0f ± %.0f (z=%.1f)", m, b, perBit[b], mean, sd, z)
			}
		}
	}
}

// TestMutationCountsUncorrelated: flip counts of consecutive mutate
// calls are uncorrelated (the carried counter must not couple them).
func TestMutationCountsUncorrelated(t *testing.T) {
	for i, m := range mutationRates {
		s := sampleMutations(t, m, mutationLen, callsFor(m, mutationLen, 60000), int64(400+i))
		n := len(s.counts) - 1
		var sx, sy, sxx, syy, sxy float64
		for j := 0; j < n; j++ {
			x, y := float64(s.counts[j]), float64(s.counts[j+1])
			sx, sy, sxx, syy, sxy = sx+x, sy+y, sxx+x*x, syy+y*y, sxy+x*y
		}
		fn := float64(n)
		r := (sxy - sx*sy/fn) / math.Sqrt((sxx-sx*sx/fn)*(syy-sy*sy/fn))
		// Under independence r is about N(0, 1/n).
		if z := r * math.Sqrt(fn); math.Abs(z) > 5 {
			t.Errorf("M=%v: lag-1 correlation of flip counts %.4f over %d pairs (z=%.1f)", m, r, n, z)
		}
	}
}

// TestMutationRates: the overall flip rate is M, not M/(1+M) or any
// other near miss.
func TestMutationRates(t *testing.T) {
	for i, m := range mutationRates {
		s := sampleMutations(t, m, mutationLen, callsFor(m, mutationLen, 60000), int64(500+i))
		bits := float64(len(s.counts) * mutationLen)
		z := (float64(len(s.pos)) - bits*m) / math.Sqrt(bits*m*(1-m))
		if math.Abs(z) > 5 {
			t.Errorf("M=%v: %d flips in %v bits, rate %.6f (z=%.1f)", m, len(s.pos), bits, float64(len(s.pos))/bits, z)
		}
	}
}

// TestMutationEdgeRates: M <= 0 never flips and never draws; M >= 1
// flips every bit without drawing. Valid is cleared iff a bit flipped
// and never set by mutate.
func TestMutationEdgeRates(t *testing.T) {
	for _, tc := range []struct {
		m    float64
		flip bool
	}{{0, false}, {-0.5, false}, {math.NaN(), false}, {1, true}, {1.5, true}} {
		par := DeJongParams()
		par.M = tc.m
		src := &countingSource{Source: rand.NewSource(7)}
		d := NewDeme(functions.F1, par, rand.New(src))
		if want := par.N * mutationLen; src.draws != want {
			t.Errorf("M=%v: NewDeme drew %d, want %d (the population only)", tc.m, src.draws, want)
		}
		before := src.draws
		for c := 0; c < 1000; c++ {
			valid := c%2 == 0
			ind := Individual{Bits: make([]byte, mutationLen), Valid: valid}
			d.mutate(&ind)
			for i, b := range ind.Bits {
				if (b == 1) != tc.flip {
					t.Fatalf("M=%v call %d: bit %d is %d", tc.m, c, i, b)
				}
			}
			if want := valid && !tc.flip; ind.Valid != want {
				t.Fatalf("M=%v call %d: Valid %v -> %v, want %v", tc.m, c, valid, ind.Valid, want)
			}
		}
		if src.draws != before {
			t.Errorf("M=%v: mutate drew %d random numbers, want 0", tc.m, src.draws-before)
		}
	}
}

// TestMutationHugeGapClamped: a rate so small that log(U)/log1p(-M)
// overflows int64 yields a clamped gap, not a wrapped negative one.
func TestMutationHugeGapClamped(t *testing.T) {
	par := DeJongParams()
	par.M = 1e-300
	d := NewDeme(functions.F1, par, rand.New(rand.NewSource(9)))
	for i := 0; i < 1000; i++ {
		if g := d.nextGap(); g < 0 || g > maxGap {
			t.Fatalf("gap %d outside [0, %d]", g, int64(maxGap))
		}
	}
	ind := Individual{Bits: make([]byte, mutationLen), Valid: true}
	for c := 0; c < 1000; c++ {
		d.mutate(&ind)
	}
	if !ind.Valid {
		t.Fatal("M=1e-300 flipped a bit within 30000 bits")
	}
}
