package spell

import (
	"testing"

	"repro/internal/lexicon"
)

func BenchmarkCorrectKnownWord(b *testing.B) {
	c := NewChecker(lexicon.Dictionary(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.correct("market"); !ok {
			b.Fatal("known word failed")
		}
	}
}

func BenchmarkCorrectEdit1(b *testing.B) {
	c := NewChecker(lexicon.Dictionary(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.correct("markte"); !ok {
			b.Fatal("edit-1 correction failed")
		}
	}
}

func BenchmarkCorrectEdit2(b *testing.B) {
	c := NewChecker(lexicon.Dictionary(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.correct("marrkte"); !ok {
			b.Fatal("edit-2 correction failed")
		}
	}
}

func BenchmarkCheckParagraph(b *testing.B) {
	c := NewChecker(lexicon.Dictionary(), nil)
	text := "The markte in Germny grew while the economi improved across the regon."
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if got := c.Check(text); len(got) == 0 {
			b.Fatal("no corrections")
		}
	}
}
