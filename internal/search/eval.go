package search

import (
	"encoding/binary"
	"math"
	"sort"
)

// This file is the top-k evaluator: a document-at-a-time MaxScore
// traversal with block-max refinement (WAND-family pruning). Query terms
// are sorted by their score upper bound; once the heap of k results is
// full, the prefix of terms whose combined upper bound cannot beat the
// k-th best score becomes "non-essential" — documents appearing only in
// those lists can never enter the heap, so the candidate scan walks only
// the essential lists and probes non-essential ones per candidate,
// abandoning a candidate (or skipping a whole posting block) as soon as
// its remaining upper bound falls below the threshold. With expansion
// off the results are exactly the searchref baseline's: same document
// set, same Score-then-DocID tie-break order.

// scorer precomputes one query's scoring profile. The score expressions
// are kept token-for-token identical to the seed engine's (searchref) so
// pruning decisions bound the very same floats the baseline computes;
// in particular no BM25 length norm is precomputed, since a compiler
// free to fuse a multiply-add could round a stored norm differently.
// TitleBoost is assumed non-negative and B in [0, 1]; the stock tunings
// and the service layer never produce anything else.
type scorer struct {
	idx        *Index
	bm25       bool
	k1, b      float64
	titleBoost float64
	// logT holds TF-IDF's math.Log(t) for tf < 16 and tit < 4, indexed
	// tf | tit<<4: the same t, so the same logarithm, computed once per
	// query rather than once per posting.
	logT [64]float64
}

func newScorer(idx *Index, p Params) scorer {
	k1, b := p.K1, p.B
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	s := scorer{idx: idx, bm25: p.Scoring == BM25, k1: k1, b: b, titleBoost: p.TitleBoost}
	if !s.bm25 {
		for i := range s.logT {
			s.logT[i] = math.Log(s.combined(uint32(i&15), uint32(i>>4)))
		}
	}
	return s
}

// combined is the frequency a posting scores with: its body frequency
// plus its title frequency times the title boost.
func (s *scorer) combined(tf, tit uint32) float64 {
	return float64(tf) + s.titleBoost*float64(tit)
}

// idf for a term with document frequency df; always >= 0 (BM25's form is
// strictly positive, TF-IDF's reaches 0 when a term is in every doc).
func (s *scorer) idf(df int) float64 {
	n := float64(len(s.idx.docs))
	if s.bm25 {
		return math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
	}
	return math.Log((n + 1) / (float64(df) + 1))
}

// score returns the contribution (idf applied, query weight not) of a
// posting with packed frequencies freq in a document of length dl, and
// whether the posting matches at all (combined frequency > 0 — a
// title-only posting under TitleBoost 0 does not match, mirroring the
// seed's "tf == 0 → skip" rule).
func (s *scorer) score(idf float64, freq, dl uint32) (float64, bool) {
	tf, tit := freq&0xffff, freq>>16
	t := s.combined(tf, tit)
	if t == 0 {
		return 0, false
	}
	if s.bm25 {
		norm := t + s.k1*(1-s.b+s.b*float64(dl)/s.idx.avgLen)
		return idf * t * (s.k1 + 1) / norm, true
	}
	if tf < 16 && tit < 4 {
		return idf * (1 + s.logT[tf|tit<<4]), true
	}
	return idf * (1 + math.Log(t)), true
}

// bound returns the largest contribution any posting with tf <= maxTf,
// tit <= maxTit, and docLen >= minLen can produce: the score expression
// is monotone increasing in the combined frequency and (for BM25, with
// b >= 0) decreasing in document length, so evaluating it at the
// extremes bounds the block.
func (s *scorer) bound(idf float64, maxTf, maxTit uint16, minLen uint32) float64 {
	t := float64(maxTf) + s.titleBoost*float64(maxTit)
	if t <= 0 {
		return 0
	}
	if s.bm25 {
		norm := t + s.k1*(1-s.b+s.b*float64(minLen)/s.idx.avgLen)
		return idf * t * (s.k1 + 1) / norm
	}
	return idf * (1 + math.Log(t))
}

// cursor walks one query term's posting list. pos counts postings from
// the list's start and blk is the block seekBlock stands in; the block
// holding the postings being read is decoded into docs once, when the
// cursor first needs it, and its frequency codes are read in place.
type cursor struct {
	tp     *termPostings
	arena  []byte
	idf    float64
	weight float64 // query-side weight (1 original, scaled for expansions)
	ub     float64 // list-wide upper bound × weight, clamped at 0
	pos    int
	blk    int
	// prefix is the sum of ub over this cursor and every one before it
	// in ascending-bound order; contrib and has are this term's share of
	// the document being scored.
	prefix  float64
	contrib float64
	has     bool

	base  int     // list index of the first posting in docs (-1: none)
	n     uint    // postings in docs
	freqs []byte  // its frequency codes
	wide  bool    // whether they are 4-byte words (else tf | tit<<4 bytes)
	bbBlk int     // block whose bound bb holds (-1: none)
	bb    float64 // that block's upper bound × weight, clamped at 0
	docs  [blockSize]uint32
}

func newCursor(arena []byte, tp *termPostings, idf, weight, ub float64) cursor {
	return cursor{tp: tp, arena: arena, idf: idf, weight: weight, ub: ub, base: -1, bbBlk: -1}
}

// decode reads block b's documents into docs and points freqs at its
// frequency codes.
func (c *cursor) decode(b int) {
	n := c.tp.blockLen(b)
	code := c.arena[c.tp.blocks[b].off:]
	gapW, freqW := int(code[0]&0xf), int(code[0]>>4)
	code = code[1:]
	doc := uint32(0)
	if b > 0 {
		doc = c.tp.blocks[b-1].lastDoc
	}
	docs := c.docs[:n]
	switch gapW {
	case 1:
		for i, g := range code[:n] {
			doc += uint32(g)
			docs[i] = doc
		}
	case 2:
		for i := range docs {
			doc += uint32(binary.LittleEndian.Uint16(code[2*i:]))
			docs[i] = doc
		}
	default:
		for i := range docs {
			doc += binary.LittleEndian.Uint32(code[4*i:])
			docs[i] = doc
		}
	}
	c.base, c.n = b*blockSize, uint(n)
	c.freqs, c.wide = code[gapW*n:][:freqW*n], freqW == 4
}

// freq returns the packed tf | tit<<16 word of the decoded block's i-th
// posting.
func (c *cursor) freq(i int) uint32 {
	if c.wide {
		return binary.LittleEndian.Uint32(c.freqs[4*i:])
	}
	f := uint32(c.freqs[i])
	return f&0xf | f>>4<<16
}

// cur returns the document at pos, or ^uint32(0) once the list is
// exhausted.
func (c *cursor) cur() uint32 {
	if i := uint(c.pos - c.base); i < c.n {
		return c.docs[i]
	}
	return c.enter()
}

// enter is cur's slow path: pos has left the decoded block.
func (c *cursor) enter() uint32 {
	if c.pos >= c.tp.n {
		return ^uint32(0)
	}
	c.decode(c.pos / blockSize)
	return c.docs[c.pos-c.base]
}

// curFreq returns the packed frequencies at pos; cur must have returned
// a document first.
func (c *cursor) curFreq() uint32 { return c.freq(c.pos - c.base) }

// seekBlock advances the block pointer to the first block whose last
// document is >= doc, pulling pos forward to the block start when blocks
// are skipped (never backward). It reads headers only.
func (c *cursor) seekBlock(doc uint32) {
	if b := c.pos / blockSize; b > c.blk {
		c.blk = b
	}
	for c.blk < len(c.tp.blocks) && c.tp.blocks[c.blk].lastDoc < doc {
		c.blk++
	}
	if start := c.blk * blockSize; c.pos < start {
		c.pos = start
	}
}

// blockBound returns the current block's upper bound × weight, clamped
// at 0, computing it once per block.
func (c *cursor) blockBound(sc *scorer) float64 {
	if c.bbBlk != c.blk {
		maxTf, maxTit := c.tp.blockMax(c.blk)
		c.bb = c.weight * sc.bound(c.idf, maxTf, maxTit, uint32(c.tp.blocks[c.blk].minLen))
		if c.bb < 0 {
			c.bb = 0
		}
		c.bbBlk = c.blk
	}
	return c.bb
}

// find binary-searches the current block for doc, leaving pos just past
// doc on a hit and at the first larger posting on a miss, and returns
// the hit's packed frequencies. seekBlock must have been called with the
// same doc first; the block is decoded only if the cursor has not
// decoded it already.
func (c *cursor) find(doc uint32) (uint32, bool) {
	if c.base != c.blk*blockSize {
		c.decode(c.blk)
	}
	lo, hi := c.pos-c.base, int(c.n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.docs[mid] < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.pos = c.base + lo
	if lo < int(c.n) && c.docs[lo] == doc {
		c.pos++
		return c.freq(lo), true
	}
	return 0, false
}

// heapEntry is one top-k candidate. The heap is a min-heap whose root is
// the current worst entry: lowest score, ties broken by largest doc —
// documents are generated with IDs whose string order follows their
// index order (up to a million docs), so the later of two tied documents
// is the one the Score-then-DocID contract evicts first. Because the
// scan visits documents in increasing order, a later candidate that ties
// the root can never displace it, which is exactly the baseline's
// stable-sort behavior.
type heapEntry struct {
	score float64
	doc   uint32
}

// worse reports whether a should sit below b in the min-heap.
func worse(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.doc > b.doc
}

func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapReplaceRoot overwrites the root and sifts it down.
func heapReplaceRoot(h []heapEntry, e heapEntry) {
	h[0] = e
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && worse(h[l], h[small]) {
			small = l
		}
		if r < len(h) && worse(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// slack relaxes a threshold comparison by ~1e-12 relative so that
// floating-point rounding in upper-bound sums can never prune a document
// the exhaustive baseline would keep: a candidate is abandoned only when
// its bound is clearly below the threshold, and exact ties (which lose
// the DocID tie-break anyway) cost at most a wasted probe.
func slack(theta float64) float64 {
	return theta - (math.Abs(theta)+1)*1e-12
}

// evaluate runs the block-max MaxScore top-k scan.
func (idx *Index) evaluate(qterms []qterm, p Params, opts Options, stats *Stats) []Result {
	sc := newScorer(idx, p)
	cursors := make([]cursor, 0, len(qterms))
	for _, q := range qterms {
		tp := &idx.terms[q.id]
		if tp.n == 0 {
			continue
		}
		if float64(tp.maxTf)+sc.titleBoost*float64(tp.maxTit) <= 0 {
			// No posting in this list can match (title-only occurrences
			// under TitleBoost 0): the whole term is skipped.
			continue
		}
		ub := q.weight * sc.bound(sc.idf(tp.n), tp.maxTf, tp.maxTit, tp.minLen)
		if ub < 0 {
			ub = 0 // a negative contribution is never better than absence
		}
		cursors = append(cursors, newCursor(idx.arena, tp, sc.idf(tp.n), q.weight, ub))
	}
	if len(cursors) == 0 {
		return []Result{}
	}
	stats.Terms = len(cursors)
	// Ascending upper bound; stable so equal bounds keep the sorted-term
	// query order and evaluation stays deterministic.
	sort.SliceStable(cursors, func(i, j int) bool { return cursors[i].ub < cursors[j].ub })
	sum := 0.0
	for i := range cursors {
		sum += cursors[i].ub
		cursors[i].prefix = sum
	}

	k := opts.Limit + opts.Offset
	topk := make([]heapEntry, 0, k)
	// bar is slack(θ), θ being the k-th best score: set when the heap
	// fills and whenever its root changes, read only once it is full.
	bar := 0.0
	full := false
	nonEss := 0

	for {
		if full {
			// Terms whose cumulative upper bound cannot beat the
			// threshold become non-essential; when every term is, no
			// unseen document can enter the heap.
			for nonEss < len(cursors) && cursors[nonEss].prefix < bar {
				nonEss++
			}
			if nonEss == len(cursors) {
				break
			}
		}
		// Next candidate: smallest current doc among essential lists.
		doc := ^uint32(0)
		for i := nonEss; i < len(cursors); i++ {
			doc = min(doc, cursors[i].cur())
		}
		if doc == ^uint32(0) {
			break
		}
		stats.Candidates++
		if opts.NewsOnly && !idx.isNews(doc) {
			// Kind filtering at score time: never score a document that
			// cannot be returned.
			for i := nonEss; i < len(cursors); i++ {
				if c := &cursors[i]; c.cur() == doc {
					c.pos++
				}
			}
			continue
		}
		for i := range cursors {
			cursors[i].contrib, cursors[i].has = 0, false
		}
		matched := false
		run := 0.0 // running partial for bound checks only
		for i := nonEss; i < len(cursors); i++ {
			c := &cursors[i]
			if c.cur() == doc {
				s, m := sc.score(c.idf, c.curFreq(), idx.docLen[doc])
				s *= c.weight
				c.pos++
				c.contrib, c.has = s, m
				if m {
					matched = true
					run += s
				}
			}
		}
		abandoned := false
		for j := nonEss - 1; j >= 0; j-- {
			if full && run+cursors[j].prefix < bar {
				abandoned = true
				break
			}
			c := &cursors[j]
			c.seekBlock(doc)
			if c.blk >= len(c.tp.blocks) {
				continue // list exhausted; no contribution possible
			}
			below := 0.0
			if j > 0 {
				below = cursors[j-1].prefix
			}
			if full {
				if run+c.blockBound(&sc)+below < bar {
					// Even this block's best posting plus every
					// lower-bound term cannot lift the doc over the
					// threshold: skip the block probe and the doc.
					stats.BlockSkips++
					abandoned = true
					break
				}
			}
			stats.BlockScans++
			if freq, found := c.find(doc); found {
				s, m := sc.score(c.idf, freq, idx.docLen[doc])
				s *= c.weight
				c.contrib, c.has = s, m
				if m {
					matched = true
					run += s
				}
			}
		}
		if abandoned {
			stats.Pruned++
			continue
		}
		if !matched {
			continue
		}
		// Canonical sum: always in ascending-upper-bound cursor order,
		// independent of where the essential boundary sat when this doc
		// was scored, so structurally tied documents sum identically and
		// tie exactly — as they do in the baseline's single-pass scan.
		score := 0.0
		for i := range cursors {
			if cursors[i].has {
				score += cursors[i].contrib
			}
		}
		stats.Scored++
		if !full {
			topk = heapPush(topk, heapEntry{score, doc})
			if len(topk) == k {
				full = true
				bar = slack(topk[0].score)
			}
		} else if score > topk[0].score {
			heapReplaceRoot(topk, heapEntry{score, doc})
			bar = slack(topk[0].score)
		}
	}

	sort.Slice(topk, func(i, j int) bool {
		if topk[i].score != topk[j].score {
			return topk[i].score > topk[j].score
		}
		return topk[i].doc < topk[j].doc
	})
	if opts.Offset >= len(topk) {
		return []Result{}
	}
	topk = topk[opts.Offset:]
	out := make([]Result, 0, len(topk))
	for _, e := range topk {
		d := idx.docs[e.doc]
		out = append(out, Result{
			DocID:     d.ID,
			URL:       d.URL,
			Title:     d.Title,
			Kind:      d.Kind,
			Score:     e.score,
			Published: d.Published.Format("2006-01-02T15:04:05Z07:00"),
		})
	}
	return out
}
