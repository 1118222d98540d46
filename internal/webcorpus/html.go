package webcorpus

import (
	"fmt"
	"html"
	"net/http"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RenderHTML renders the document as a minimal HTML page.
func RenderHTML(d Document) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "  <title>%s</title>\n", html.EscapeString(d.Title))
	fmt.Fprintf(&b, "  <meta name=\"kind\" content=%q>\n", d.Kind)
	fmt.Fprintf(&b, "  <meta name=\"published\" content=%q>\n", d.Published.Format("2006-01-02T15:04:05Z07:00"))
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "  <h1>%s</h1>\n", html.EscapeString(d.Title))
	for _, para := range splitParagraphs(d.Body) {
		fmt.Fprintf(&b, "  <p>%s</p>\n", html.EscapeString(para))
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// splitParagraphs groups sentences into paragraphs of three.
func splitParagraphs(body string) []string {
	var paras []string
	var cur []string
	count := 0
	for _, part := range strings.SplitAfter(body, ". ") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		cur = append(cur, strings.TrimSpace(part))
		count++
		if count%3 == 0 {
			paras = append(paras, strings.Join(cur, " "))
			cur = nil
		}
	}
	if len(cur) > 0 {
		paras = append(paras, strings.Join(cur, " "))
	}
	return paras
}

// ExtractText strips HTML tags and collapses whitespace, recovering
// analyzable plain text from a fetched page — the step between "fetch HTML
// documents corresponding to URLs returned from a Web search" and "pass
// them to natural language understanding services" (paper §2.2).
//
// Tags and the contents of script and style elements go; a tag counts as
// whitespace; entities are unescaped; every run of unicode.IsSpace runes
// becomes one space, with none at either end. Tag names match in ASCII
// case only, as HTML's do, and are matched at the page's own offsets, so
// no character outside ASCII can shift one. One pass over the page writes
// the text into one buffer; a page whose text holds an '&' then pays for
// unescaping it and collapsing again.
func ExtractText(page string) string {
	var b strings.Builder
	b.Grow(len(page))
	inTag, inScript := false, false
	space := false // a whitespace run is pending between two words
	amp := false
	for i := 0; i < len(page); {
		ch := page[i]
		switch {
		case inTag:
			if ch == '>' {
				inTag = false
				space = true
			}
			i++
			continue
		case ch == '<':
			rest := page[i:]
			if hasPrefixFold(rest, "<script") || hasPrefixFold(rest, "<style") {
				inScript = true
			}
			if inScript && (hasPrefixFold(rest, "</script") || hasPrefixFold(rest, "</style")) {
				inScript = false
			}
			inTag = true
			i++
			continue
		case inScript:
			i++
			continue
		}
		// A word: every byte up to the next space or tag, written at once.
		j := i
		for j < len(page) {
			c := page[j]
			if c == '<' {
				break
			}
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				amp = amp || c == '&'
				j++
				continue
			}
			r, size := utf8.DecodeRuneInString(page[j:])
			if unicode.IsSpace(r) {
				break
			}
			j += size
		}
		if j == i {
			// Not a word but the space that ends one.
			_, size := utf8.DecodeRuneInString(page[i:])
			space = true
			i += size
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteString(page[i:j])
		i = j
	}
	if !amp {
		return b.String()
	}
	// Whitespace ends an entity, so collapsing before unescaping leaves
	// every entity as it was; what an entity unescapes to may be
	// whitespace itself, hence the second collapse.
	return strings.Join(strings.Fields(html.UnescapeString(b.String())), " ")
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// hasPrefixFold reports whether s begins with prefix, folding ASCII upper
// case in s; prefix must be lower case.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// Handler serves the corpus over HTTP:
//
//	GET /docs/<id>   -> HTML page
//	GET /index       -> newline-separated list of "id url"
func (c *Corpus) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /docs/{id}", func(w http.ResponseWriter, r *http.Request) {
		d, ok := c.byID[r.PathValue("id")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(RenderHTML(*d)))
	})
	mux.HandleFunc("GET /index", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, d := range c.Docs {
			fmt.Fprintf(w, "%s %s\n", d.ID, d.URL)
		}
	})
	return mux
}
