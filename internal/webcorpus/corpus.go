// Package webcorpus generates a deterministic synthetic web: documents with
// known ground truth (which entities they mention and with what sentiment),
// rendered as HTML and served over real local HTTP. It substitutes for the
// live web the paper's SDK searches and fetches — the same code paths
// (search, URL fetch, HTML extraction, NLU analysis) run against content
// whose truth is known, which is what lets experiments score NLU engines
// and aggregation quality.
package webcorpus

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lexicon"
	"repro/internal/xrand"
)

// Document is one synthetic web page with its generation ground truth.
type Document struct {
	// ID is the document's stable identifier ("doc-000042").
	ID string
	// URL is where the corpus server serves the page.
	URL string
	// Title is the page title.
	Title string
	// Body is the plain-text content.
	Body string
	// Kind is the page type: "news", "blog", or "reference". Search
	// engines can restrict to news (paper §2.2).
	Kind string
	// Published is the page timestamp.
	Published time.Time
	// TrueEntities are the canonical IDs of entities deliberately
	// written into the body.
	TrueEntities []string
	// TruePolarity maps entity ID to the intended sentiment sign
	// (+1, 0, -1).
	TruePolarity map[string]float64
}

// Corpus is a generated document collection with lookups.
type Corpus struct {
	Docs []Document
	byID map[string]*Document
}

// Config controls generation.
type Config struct {
	// Seed makes the corpus reproducible.
	Seed int64
	// NumDocs is the corpus size. 0 means 200.
	NumDocs int
}

// The documents' shape. Document i is served at baseURL/docs/<ID> and
// published i hours after firstPublished; it mentions 1..maxEntities entities and
// carries fillerMin..fillerMax neutral filler sentences (inclusive), which
// vary its length and vocabulary.
const (
	baseURL     = "http://web.local"
	maxEntities = 3
	fillerMin   = 2
	fillerMax   = 6
)

var firstPublished = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

var kinds = []string{"news", "news", "blog", "reference"} // news-heavy web

// sentence templates; %e is the entity, %a a sentiment adjective, %n a noun.
var positiveTemplates = []string{
	"%e reported %a results that impressed the %n this quarter.",
	"Analysts praised %e for its %a performance in the %n sector.",
	"%e announced a %a breakthrough that could reshape the %n industry.",
	"Shares of %e surged after the %a earnings report lifted the %n.",
	"%e won a major award for its %a work on %n technology.",
}

var negativeTemplates = []string{
	"%e reported %a results that worried the %n this quarter.",
	"Critics condemned %e for its %a handling of the %n crisis.",
	"%e suffered a %a setback amid the ongoing %n scandal.",
	"Shares of %e plunged after the %a earnings report shook the %n.",
	"%e faces a lawsuit over its %a conduct in the %n dispute.",
}

var neutralTemplates = []string{
	"%e held a meeting to discuss the %n schedule.",
	"Representatives of %e attended the annual %n conference.",
	"%e published its routine report on %n statistics.",
	"A spokesperson for %e commented on the %n agenda.",
}

var fillerTemplates = []string{
	"The %n committee reviewed the quarterly %n figures in detail.",
	"Observers expect the %n market to follow the usual seasonal pattern.",
	"Regional %n programs continued according to the published plan.",
	"The %n forum gathered experts to compare %n methods.",
	"Officials released updated guidance on %n regulation.",
}

// Generate builds a corpus from cfg.
func Generate(cfg Config) *Corpus {
	if cfg.NumDocs <= 0 {
		cfg.NumDocs = 200
	}
	rng := xrand.New(cfg.Seed)
	entities := lexicon.AllEntities()
	c := &Corpus{
		Docs: make([]Document, 0, cfg.NumDocs),
		byID: make(map[string]*Document, cfg.NumDocs),
	}
	for i := 0; i < cfg.NumDocs; i++ {
		doc := generateDoc(i, rng, entities)
		c.Docs = append(c.Docs, doc)
	}
	for i := range c.Docs {
		d := &c.Docs[i]
		c.byID[d.ID] = d
	}
	return c
}

func generateDoc(i int, rng *xrand.Source, entities []lexicon.Entity) Document {
	id := fmt.Sprintf("doc-%06d", i)
	kind := kinds[rng.Intn(len(kinds))]
	nEntities := 1 + rng.Intn(maxEntities)
	chosen := xrand.Sample(rng, entities, nEntities)

	var sentences []string
	trueIDs := make([]string, 0, nEntities)
	polarity := make(map[string]float64, nEntities)
	for _, e := range chosen {
		surface := xrand.Choice(rng, e.Surface())
		pol := rng.Intn(3) - 1 // -1, 0, +1
		var tmpl string
		var adjPool []string
		switch pol {
		case 1:
			tmpl = xrand.Choice(rng, positiveTemplates)
			adjPool = lexicon.Positive
		case -1:
			tmpl = xrand.Choice(rng, negativeTemplates)
			adjPool = lexicon.Negative
		default:
			tmpl = xrand.Choice(rng, neutralTemplates)
		}
		s := strings.ReplaceAll(tmpl, "%e", surface)
		if strings.Contains(s, "%a") {
			s = strings.ReplaceAll(s, "%a", xrand.Choice(rng, adjPool))
		}
		for strings.Contains(s, "%n") {
			s = strings.Replace(s, "%n", xrand.Choice(rng, lexicon.Vocabulary), 1)
		}
		sentences = append(sentences, s)
		trueIDs = append(trueIDs, e.ID)
		polarity[e.ID] = float64(pol)
		// Reinforce the polarity with a second sentence sometimes, so
		// sentiment signal is detectable over noise.
		if pol != 0 && rng.Bernoulli(0.6) {
			var tmpl2 string
			if pol == 1 {
				tmpl2 = xrand.Choice(rng, positiveTemplates)
			} else {
				tmpl2 = xrand.Choice(rng, negativeTemplates)
			}
			s2 := strings.ReplaceAll(tmpl2, "%e", surface)
			if pol == 1 {
				s2 = strings.ReplaceAll(s2, "%a", xrand.Choice(rng, lexicon.Positive))
			} else {
				s2 = strings.ReplaceAll(s2, "%a", xrand.Choice(rng, lexicon.Negative))
			}
			for strings.Contains(s2, "%n") {
				s2 = strings.Replace(s2, "%n", xrand.Choice(rng, lexicon.Vocabulary), 1)
			}
			sentences = append(sentences, s2)
		}
	}
	// Neutral filler to vary length and vocabulary.
	nFiller := fillerMin + rng.Intn(fillerMax-fillerMin+1)
	for f := 0; f < nFiller; f++ {
		s := xrand.Choice(rng, fillerTemplates)
		for strings.Contains(s, "%n") {
			s = strings.Replace(s, "%n", xrand.Choice(rng, lexicon.Vocabulary), 1)
		}
		sentences = append(sentences, s)
	}
	rng.Shuffle(len(sentences), func(a, b int) { sentences[a], sentences[b] = sentences[b], sentences[a] })

	titleEntity := chosen[0]
	title := fmt.Sprintf("%s and the %s %s", titleEntity.Name,
		xrand.Choice(rng, lexicon.Vocabulary), xrand.Choice(rng, lexicon.Vocabulary))

	return Document{
		ID:           id,
		URL:          baseURL + "/docs/" + id,
		Title:        title,
		Body:         strings.Join(sentences, " "),
		Kind:         kind,
		Published:    firstPublished.Add(time.Duration(i) * time.Hour),
		TrueEntities: trueIDs,
		TruePolarity: polarity,
	}
}

// Len returns the corpus size.
func (c *Corpus) Len() int { return len(c.Docs) }
