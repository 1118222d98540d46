package stats

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 50
	}
	return xs
}

func BenchmarkSummarize10k(b *testing.B) {
	xs := benchSeries(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitLinear1k(b *testing.B) {
	n := 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3 + 0.5*float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitMulti3Features(b *testing.B) {
	n := 500
	feats := make([][]float64, n)
	ys := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range feats {
		feats[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = 1 + 2*feats[i][0] - feats[i][1] + 0.5*feats[i][2]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitMulti(feats, ys); err != nil {
			b.Fatal(err)
		}
	}
}
