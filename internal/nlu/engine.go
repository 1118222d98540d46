package nlu

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/lexicon"
	"repro/internal/service"
	"repro/internal/xrand"
)

// Profile tunes an engine's quality characteristics. Real NLU vendors
// differ in precision, recall, and noise; the three stock profiles below
// stand in for competing services so the SDK's ranking, result comparison,
// and consensus aggregation have genuine quality differences to observe.
type Profile struct {
	// Name identifies the engine ("nlu-alpha" etc.).
	Name string
	// UseHeuristics enables capitalized-run detection on top of the
	// gazetteer: more recall, more false positives.
	UseHeuristics bool
	// DropRate is the probability of missing a true gazetteer mention.
	DropRate float64
	// SpuriousRate is the probability per sentence of emitting a
	// fabricated mention.
	SpuriousRate float64
	// SentimentNoise is the standard deviation of Gaussian noise added
	// to sentiment scores.
	SentimentNoise float64
	// MaxKeywords bounds keyword output. 0 means 10.
	MaxKeywords int
	// MaxConcepts bounds concept output. 0 means 5.
	MaxConcepts int
	// Seed decorrelates this engine's noise from other engines'.
	Seed int64
}

// Stock profiles: alpha is the precision-oriented vendor, beta the
// recall-oriented one, gamma the cheap noisy one.
var (
	ProfileAlpha = Profile{Name: "nlu-alpha", UseHeuristics: false, DropRate: 0.02, SentimentNoise: 0.02, Seed: 101}
	ProfileBeta  = Profile{Name: "nlu-beta", UseHeuristics: true, DropRate: 0.08, SpuriousRate: 0.05, SentimentNoise: 0.05, Seed: 202}
	ProfileGamma = Profile{Name: "nlu-gamma", UseHeuristics: true, DropRate: 0.25, SpuriousRate: 0.15, SentimentNoise: 0.15, Seed: 303}
)

// Engine analyzes documents according to its profile. It is immutable after
// construction and safe for concurrent use: per-document noise derives from
// a hash of the text, so the same document always produces the same
// analysis (the behaviour that makes caching semantically sound).
//
// Analyze runs on interned token IDs against the shared process-wide
// vocabulary, with all per-document scratch drawn from a pool; the frozen
// string-based implementation it is pinned against lives in nluref.
type Engine struct {
	profile Profile
	matcher *matcher
}

// NewEngine returns an engine with the given profile over the built-in
// gazetteer and lexicons.
func NewEngine(profile Profile) *Engine {
	if profile.MaxKeywords <= 0 {
		profile.MaxKeywords = 10
	}
	if profile.MaxConcepts <= 0 {
		profile.MaxConcepts = 5
	}
	return &Engine{
		profile: profile,
		matcher: newMatcher(lexicon.AllEntities()),
	}
}

// fnv64a is hash/fnv's 64-bit FNV-1a inlined to avoid the per-document
// hasher allocation on the Analyze hot path.
func fnv64a(s string) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Analyze performs the full analysis of one document. The noise source is
// reseeded (not reallocated) per document from the engine seed and the
// text hash, and every random draw happens in the same sequence as the
// reference implementation, keeping results bit-identical to nluref.
func (e *Engine) Analyze(text string) Analysis {
	o := obsPtr.Load()
	var start time.Time
	if o != nil {
		start = time.Now()
		o.gets.Inc()
	}
	v := vocab()
	d := docPool.Get().(*doc)
	d.scan(text, v, e.matcher.extra)
	rng := d.rng
	rng.Reseed(e.profile.Seed ^ int64(fnv64a(text)))

	mentions := e.matcher.matchDoc(text, d)
	// Profile-driven recall loss.
	if e.profile.DropRate > 0 {
		kept := mentions[:0]
		for _, m := range mentions {
			if !rng.Bernoulli(e.profile.DropRate) {
				kept = append(kept, m)
			}
		}
		mentions = kept
	}
	if e.profile.UseHeuristics {
		mentions = append(mentions, d.heuristicMentions(text, mentions)...)
	}
	// Profile-driven false positives: fabricate a mention per sentence
	// with some probability. Sentences and their whitespace-split words
	// are walked in place rather than materialized — same sentence
	// sequence and random draws as nluref's loop over
	// `nluref.Sentences(text)` with a strings.Fields pick, without the
	// per-sentence allocations.
	if e.profile.SpuriousRate > 0 {
		for off := 0; ; {
			s, next, more := nextSentence(text, off)
			if !more {
				break
			}
			off = next
			if s == "" || !rng.Bernoulli(e.profile.SpuriousRate) {
				continue
			}
			w, ok := spuriousWord(s, rng)
			if !ok {
				continue
			}
			w = strings.Trim(w, ".,!?;:'\"")
			if len(w) < 3 {
				continue
			}
			mentions = append(mentions, Mention{
				EntityID: "unknown:" + strings.ToLower(w),
				Surface:  w,
				Kind:     "Unknown",
			})
		}
	}
	sortMentions(mentions)

	d.scanSentiment(v)
	sentiment := 0.0
	if len(d.hits) > 0 {
		var sum float64
		for _, h := range d.hits {
			sum += h.weight
		}
		sentiment = math.Tanh(sum / 3)
	}
	if e.profile.SentimentNoise > 0 {
		sentiment += rng.NormFloat64() * e.profile.SentimentNoise
		if sentiment > 1 {
			sentiment = 1
		}
		if sentiment < -1 {
			sentiment = -1
		}
	}

	a := Analysis{
		Engine:           e.profile.Name,
		Entities:         mentions,
		Keywords:         d.keywords(v, e.profile.MaxKeywords),
		Sentiment:        sentiment,
		EntitySentiments: d.entitySentiments(mentions),
		Concepts:         d.concepts(v, mentions, e.profile.MaxConcepts),
		Relations:        d.relations(v, text, mentions),
		Language:         "en",
	}
	if o != nil {
		o.tokens.Add(uint64(len(d.spans)))
		o.oov.Add(uint64(d.nOOV))
	}
	d.release()
	if o != nil {
		o.analyze.Observe(time.Since(start))
	}
	return a
}

// nextSentence returns the trimmed sentence beginning at byte offset off
// and the offset just past its terminator ('.', '!', '?' or '…'). more is
// false once off is at the end of the text. The sequence of non-empty
// values is exactly what nluref.Sentences(text) returns (including its
// replacement of invalid UTF-8 with U+FFFD), with empty chunks surfacing
// as s == "".
func nextSentence(text string, off int) (s string, next int, more bool) {
	if off >= len(text) {
		return "", off, false
	}
	for i, r := range text[off:] {
		if r == '.' || r == '!' || r == '?' || r == '…' {
			// The terminator matched, so r is a genuinely decoded rune
			// (never the 1-byte RuneError) and RuneLen is its true width.
			end := off + i + utf8.RuneLen(r)
			return sentenceChunk(text[off:end]), end, true
		}
	}
	return sentenceChunk(text[off:]), len(text), true
}

// sentenceChunk trims one sentence's bytes as nluref.Sentences does: for
// valid UTF-8 that is just a trimmed substring; invalid bytes decode to
// U+FFFD, which only then forces a rebuild.
func sentenceChunk(chunk string) string {
	if !utf8.ValidString(chunk) {
		var b strings.Builder
		for _, r := range chunk {
			b.WriteRune(r)
		}
		chunk = b.String()
	}
	return strings.TrimSpace(chunk)
}

// spuriousWord picks the same word as indexing strings.Fields(s) with
// rng.Intn would, consuming randomness identically (no draw when the
// sentence has no fields), but walks the fields in place.
func spuriousWord(s string, rng *xrand.Source) (string, bool) {
	n := 0
	inField := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	if n == 0 {
		return "", false
	}
	idx := rng.Intn(n)
	k := -1
	start := 0
	inField = false
	for pos, r := range s {
		if unicode.IsSpace(r) {
			if inField && k == idx {
				return s[start:pos], true
			}
			inField = false
		} else if !inField {
			inField = true
			k++
			start = pos
		}
	}
	return s[start:], true
}

func sortMentions(ms []Mention) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Start < ms[j-1].Start; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// Service wraps the engine as a service.Service understanding op "analyze"
// (field Text carries the document). info supplies the metadata under which
// the engine is registered.
func (e *Engine) Service(info service.Info) service.Service {
	return service.Func{
		Meta: info,
		Fn: func(_ context.Context, req service.Request) (service.Response, error) {
			switch req.Op {
			case "analyze", "":
				if req.Text == "" {
					return service.Response{}, fmt.Errorf("nlu: empty document: %w", service.ErrBadRequest)
				}
				return e.Analyze(req.Text).Encode()
			default:
				return service.Response{}, fmt.Errorf("nlu: unsupported op %q: %w", req.Op, service.ErrBadRequest)
			}
		},
	}
}
