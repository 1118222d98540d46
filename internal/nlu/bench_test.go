package nlu_test

// Per-profile Engine.Analyze micro-benchmarks against the frozen
// pre-interning reference. TestNLUShape (shape_test.go) is the pass/fail
// guard; these give the per-profile breakdown:
//
//	go test ./internal/nlu -run '^$' -bench BenchmarkAnalyze -benchmem

import (
	"testing"

	"repro/internal/nlu"
	"repro/internal/nlu/nluref"
	"repro/internal/webcorpus"
)

func benchTexts() []string {
	c := webcorpus.Generate(webcorpus.Config{Seed: 19, NumDocs: 64})
	out := make([]string, len(c.Docs))
	for i, d := range c.Docs {
		out[i] = d.Body
	}
	return out
}

func BenchmarkAnalyzeInterned(b *testing.B) {
	for _, p := range []nlu.Profile{nlu.ProfileAlpha, nlu.ProfileBeta, nlu.ProfileGamma} {
		b.Run(p.Name, func(b *testing.B) {
			texts := benchTexts()
			e := nlu.NewEngine(p)
			for _, t := range texts {
				e.Analyze(t)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Analyze(texts[i%len(texts)])
			}
		})
	}
}

func BenchmarkAnalyzeReference(b *testing.B) {
	for _, p := range []nluref.Profile{nluref.ProfileAlpha, nluref.ProfileBeta, nluref.ProfileGamma} {
		b.Run(p.Name, func(b *testing.B) {
			texts := benchTexts()
			e := nluref.NewEngine(p)
			for _, t := range texts {
				e.Analyze(t)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Analyze(texts[i%len(texts)])
			}
		})
	}
}

// BenchmarkDecodeAnalysis decodes one engine answer with DecodeAnalysis
// and with encoding/json (the frozen nluref.DecodeAnalysis):
//
//	go test ./internal/nlu -run '^$' -bench BenchmarkDecodeAnalysis -benchmem
func BenchmarkDecodeAnalysis(b *testing.B) {
	resp, err := nlu.NewEngine(nlu.ProfileBeta).Analyze(benchTexts()[0]).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast-path", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(resp.Body)))
		for i := 0; i < b.N; i++ {
			if _, err := nlu.DecodeAnalysis(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(resp.Body)))
		for i := 0; i < b.N; i++ {
			if _, err := nluref.DecodeAnalysis(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
