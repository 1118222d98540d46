package search

import (
	"sync"

	"repro/internal/plainjson"
)

// resultsDecoder is the pooled state of DecodeResults's fast path.
type resultsDecoder struct {
	plainjson.Decoder
	hits []Result
}

var resultsPool = sync.Pool{New: func() any { return new(resultsDecoder) }}

// decodePlain decodes body when it is Results laid out exactly as the
// search service writes it, and declines (false) anything else, every
// malformed body included, so that encoding/json decodes or words the
// error. When it accepts, the result is what json.Unmarshal gives
// (FuzzDecodeResults). A hit's strings come from no fixed vocabulary, so
// all of them share one arena: one allocation for the strings, one for
// the hits.
func decodePlain(body []byte) (Results, bool) {
	d := resultsPool.Get().(*resultsDecoder)
	p := &d.Decoder
	p.Reset(body, nil)
	var r Results
	p.Open('{')
	p.Key("engine")
	r.Engine = p.Str()
	p.Key("query")
	r.Query = p.Str()
	p.Key("results")
	r.Results = plainjson.List(p, &d.hits, decodeResult)
	p.Close()
	ok := p.Finish()
	if ok {
		p.Fill(&r.Engine)
		p.Fill(&r.Query)
		for i := range r.Results {
			h := &r.Results[i]
			p.Fill(&h.DocID)
			p.Fill(&h.URL)
			p.Fill(&h.Title)
			p.Fill(&h.Kind)
			p.Fill(&h.Published)
		}
	}
	p.Release()
	resultsPool.Put(d)
	return r, ok
}

func decodeResult(p *plainjson.Decoder, h *Result) {
	p.Open('{')
	p.Key("docId")
	h.DocID = p.Str()
	p.Key("url")
	h.URL = p.Str()
	p.Key("title")
	h.Title = p.Str()
	p.Key("kind")
	h.Kind = p.Str()
	p.Key("score")
	h.Score = p.Float()
	p.Key("published")
	h.Published = p.Str()
	p.Close()
}
