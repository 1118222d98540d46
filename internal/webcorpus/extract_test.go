package webcorpus

import (
	"html"
	"strings"
	"testing"
)

// refExtractText is ExtractText as it was before the one-pass rewrite:
// strip tags into a builder, matching tag names in lower(page) at the
// page's own offsets, then unescape, split on whitespace and rejoin.
// With strings.ToLower it is that function verbatim; with asciiLower it
// is the function the rewrite must equal on every input.
func refExtractText(htmlSrc string, lowerFn func(string) string) string {
	var b strings.Builder
	inTag := false
	inScript := false
	i := 0
	lower := lowerFn(htmlSrc)
	for i < len(htmlSrc) {
		ch := htmlSrc[i]
		if !inTag && ch == '<' {
			if strings.HasPrefix(lower[i:], "<script") || strings.HasPrefix(lower[i:], "<style") {
				inScript = true
			}
			if inScript && (strings.HasPrefix(lower[i:], "</script") || strings.HasPrefix(lower[i:], "</style")) {
				inScript = false
			}
			inTag = true
			i++
			continue
		}
		if inTag {
			if ch == '>' {
				inTag = false
				b.WriteByte(' ')
			}
			i++
			continue
		}
		if inScript {
			i++
			continue
		}
		b.WriteByte(ch)
		i++
	}
	text := html.UnescapeString(b.String())
	return strings.Join(strings.Fields(text), " ")
}

// asciiLower folds ASCII upper case only, so offsets never move.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// TestExtractTextNonASCIITags: lower-casing U+212A (Kelvin sign) or
// U+0130 (capital I with dot) changes its byte length, so tag names
// matched in a lower-cased copy at the page's offsets ran past the copy's
// end and panicked the fetching worker.
func TestExtractTextNonASCIITags(t *testing.T) {
	for _, tc := range []struct{ page, want string }{
		{"<p>KKKK</p><script>secret()</script><p>visible</p>", "KKKK visible"},
		{"<p>İİİİİİ</p><script>secret()</script><p>visible</p>", "İİİİİİ visible"},
		{"<p>K</p><SCRIPT>secret()</Script> <p>visible text</p>", "K visible text"},
		// A tag name folds in ASCII only: <scrİpt> is not a script.
		{"<scrİpt>shown</scrİpt>", "shown"},
	} {
		if got := ExtractText(tc.page); got != tc.want {
			t.Errorf("ExtractText(%q) = %q, want %q", tc.page, got, tc.want)
		}
	}
}

// TestExtractTextMatchesParentOnCorpus: on the pages the corpus serves,
// the one-pass extraction is byte-identical to the function it replaced.
func TestExtractTextMatchesParentOnCorpus(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	c := Generate(Config{Seed: 1, NumDocs: n})
	for _, d := range c.Docs {
		page := RenderHTML(d)
		if got, want := ExtractText(page), refExtractText(page, strings.ToLower); got != want {
			t.Fatalf("%s: ExtractText = %q, want %q", d.ID, got, want)
		}
	}
}

func TestExtractTextEdges(t *testing.T) {
	for _, tc := range []struct{ page, want string }{
		{"", ""},
		{"   \t\n ", ""},
		{"a<b>c", "a c"},
		{"<unclosed tag", ""},
		{"x<unclosed", "x"},
		{"a &amp;&#32;b", "a & b"},
		{"a&nbsp;&nbsp;b", "a b"},
		{"&lt;p&gt; stays text", "<p> stays text"},
		{"\xc2<i>\xa0</i>x", "\xc2 \xa0 x"},
		{"<style>p{}</STYLE>after", "after"},
		{"a > b", "a > b"},
	} {
		if got := ExtractText(tc.page); got != tc.want {
			t.Errorf("ExtractText(%q) = %q, want %q", tc.page, got, tc.want)
		}
		if got := refExtractText(tc.page, asciiLower); got != tc.want {
			t.Errorf("reference(%q) = %q, want %q", tc.page, got, tc.want)
		}
	}
}

// FuzzExtractText holds the one-pass extraction to the parent function
// with ASCII-only case folding, on any bytes.
func FuzzExtractText(f *testing.F) {
	f.Add("<html><head><title>A &amp; B</title></head><body><h1>T</h1><p>One. Two.</p></body></html>")
	f.Add("<p>KK</p><script>x</script>&amp; &#160;y")
	f.Add("<ScRiPt>a</sCrIpT>b<style>c</style>d")
	f.Add("\xff\xc2<b>\xa0</b>&#x2003;　z")
	f.Add("&am<b>p;&notit; &#38;#38;")
	f.Fuzz(func(t *testing.T, page string) {
		if got, want := ExtractText(page), refExtractText(page, asciiLower); got != want {
			t.Fatalf("ExtractText(%q) = %q, want %q", page, got, want)
		}
	})
}

var textSink string

func BenchmarkExtractText(b *testing.B) {
	c := Generate(Config{Seed: 1, NumDocs: 64})
	pages := make([]string, len(c.Docs))
	size := 0
	for i, d := range c.Docs {
		pages[i] = RenderHTML(d)
		size += len(pages[i])
	}
	b.SetBytes(int64(size / len(pages)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textSink = ExtractText(pages[i%len(pages)])
	}
}
