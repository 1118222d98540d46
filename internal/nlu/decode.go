package nlu

import (
	"sync"

	"repro/internal/plainjson"
)

// answerDecoder is the pooled state of DecodeAnalysis's fast path: the
// plain-JSON reader and scratch for each slice of an Analysis.
type answerDecoder struct {
	plainjson.Decoder
	entities   []Mention
	keywords   []Keyword
	sentiments []EntitySentiment
	concepts   []Concept
	relations  []Relation
}

var answerPool = sync.Pool{New: func() any { return new(answerDecoder) }}

// decodePlain decodes body when it is an Analysis laid out exactly as
// Encode writes it, and declines (false) anything else, every malformed
// body included, so that encoding/json decodes or words the error. When
// it accepts, the result is what json.Unmarshal gives (FuzzDecodeAnalysis).
// Strings resolve against the engines' answer vocabulary; the rest share
// one arena, so no string pins the body.
func decodePlain(body []byte) (Analysis, bool) {
	d := answerPool.Get().(*answerDecoder)
	p := &d.Decoder
	p.Reset(body, vocab().answers)
	var a Analysis
	p.Open('{')
	p.Key("engine")
	a.Engine = p.Str()
	p.Key("entities")
	a.Entities = plainjson.List(p, &d.entities, decodeMention)
	p.Key("keywords")
	a.Keywords = plainjson.List(p, &d.keywords, decodeKeyword)
	p.Key("sentiment")
	a.Sentiment = p.Float()
	p.Key("entitySentiments")
	a.EntitySentiments = plainjson.List(p, &d.sentiments, decodeEntitySentiment)
	p.Key("concepts")
	a.Concepts = plainjson.List(p, &d.concepts, decodeConcept)
	if p.OptionalKey("relations") {
		a.Relations = plainjson.List(p, &d.relations, decodeRelation)
	}
	p.Key("language")
	a.Language = p.Str()
	p.Close()
	ok := p.Finish()
	if ok {
		fillAnalysis(p, &a)
	}
	p.Release()
	answerPool.Put(d)
	return a, ok
}

func decodeMention(p *plainjson.Decoder, m *Mention) {
	p.Open('{')
	p.Key("entityId")
	m.EntityID = p.Str()
	p.Key("surface")
	m.Surface = p.Str()
	p.Key("kind")
	m.Kind = p.Str()
	p.Key("start")
	m.Start = p.Int()
	p.Key("end")
	m.End = p.Int()
	p.Close()
}

func decodeKeyword(p *plainjson.Decoder, k *Keyword) {
	p.Open('{')
	p.Key("text")
	k.Text = p.Str()
	p.Key("count")
	k.Count = p.Int()
	p.Key("score")
	k.Score = p.Float()
	p.Close()
}

func decodeEntitySentiment(p *plainjson.Decoder, s *EntitySentiment) {
	p.Open('{')
	p.Key("entityId")
	s.EntityID = p.Str()
	p.Key("score")
	s.Score = p.Float()
	p.Key("mentions")
	s.Mentions = p.Int()
	p.Close()
}

func decodeConcept(p *plainjson.Decoder, c *Concept) {
	p.Open('{')
	p.Key("label")
	c.Label = p.Str()
	p.Key("confidence")
	c.Confidence = p.Float()
	p.Close()
}

func decodeRelation(p *plainjson.Decoder, r *Relation) {
	p.Open('{')
	p.Key("subjectId")
	r.SubjectID = p.Str()
	p.Key("predicate")
	r.Predicate = p.Str()
	p.Key("objectId")
	r.ObjectID = p.Str()
	p.Key("trigger")
	r.Trigger = p.Str()
	p.Key("confidence")
	r.Confidence = p.Float()
	p.Close()
}

// fillAnalysis visits a's string fields in the order decodePlain read them.
func fillAnalysis(p *plainjson.Decoder, a *Analysis) {
	p.Fill(&a.Engine)
	for i := range a.Entities {
		m := &a.Entities[i]
		p.Fill(&m.EntityID)
		p.Fill(&m.Surface)
		p.Fill(&m.Kind)
	}
	for i := range a.Keywords {
		p.Fill(&a.Keywords[i].Text)
	}
	for i := range a.EntitySentiments {
		p.Fill(&a.EntitySentiments[i].EntityID)
	}
	for i := range a.Concepts {
		p.Fill(&a.Concepts[i].Label)
	}
	for i := range a.Relations {
		r := &a.Relations[i]
		p.Fill(&r.SubjectID)
		p.Fill(&r.Predicate)
		p.Fill(&r.ObjectID)
		p.Fill(&r.Trigger)
	}
	p.Fill(&a.Language)
}
