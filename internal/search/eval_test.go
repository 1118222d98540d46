package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/raceflag"
	"repro/internal/webcorpus"
)

// bodyQueries draws n queries of three words from document bodies the
// way the repository benchmark does: a random document, then three
// random whitespace-separated words with their punctuation trimmed.
func bodyQueries(c *webcorpus.Corpus, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		words := strings.Fields(c.Docs[rng.Intn(len(c.Docs))].Body)
		var q []string
		for len(q) < 3 {
			if w := strings.Trim(words[rng.Intn(len(words))], ".,;:!?\"'()"); w != "" {
				q = append(q, w)
			}
		}
		out[i] = strings.Join(q, " ")
	}
	return out
}

// TestSearchResultsDigest pins every answer the evaluator gives on a
// seeded set of body queries against the 5k seed-1 index with expansion
// built: the three stock tunings, expansion on and off, limits 1/10/50,
// offsets 0/5 and the news restriction on and off. Each Result (Score by
// its float bits) and each Stats counter feeds one FNV hash. The
// constant was computed on the plain-slice posting layout that preceded
// the block coding, so the two are held equal bit for bit, pruning work
// included; change it only with a change meant to alter the answers.
func TestSearchResultsDigest(t *testing.T) {
	const want uint64 = 0xfc775c3e0b2daf7f
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, NumDocs: 5000})
	idx := BuildIndex(c, WithExpansion(lexicon.PMIConfig{}))
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	searches := 0
	for _, q := range bodyQueries(c, 40, 1) {
		for _, p := range []Params{TuningG, TuningB, TuningY} {
			for _, expand := range []bool{false, true} {
				for _, limit := range []int{1, 10, 50} {
					for _, offset := range []int{0, 5} {
						for _, news := range []bool{false, true} {
							res, st := idx.SearchStats(q, p, Options{Limit: limit, Offset: offset, NewsOnly: news, Expand: expand})
							u64(uint64(len(res)))
							for _, r := range res {
								str(r.DocID)
								str(r.URL)
								str(r.Title)
								str(r.Kind)
								u64(math.Float64bits(r.Score))
								str(r.Published)
							}
							for _, v := range []int{st.Terms, st.Expanded, st.Candidates, st.Scored, st.Pruned, st.BlockSkips, st.BlockScans} {
								u64(uint64(v))
							}
							searches++
						}
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("results digest over %d searches %#x, want %#x", searches, got, want)
	}
}

// TestSearchAllocs pins one search's allocations: a fixed three-term
// TuningG body query against the 5k seed-1 index, top 10. The evaluator's
// per-query state lives in its cursors, one allocation; the rest is
// parsing the query and building the results.
func TestSearchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not the product's under the race detector")
	}
	const want = 20
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, NumDocs: 5000})
	idx := BuildIndex(c, WithExpansion(lexicon.PMIConfig{}))
	q := bodyQueries(c, 1, 1)[0]
	if res := idx.Search(q, TuningG, Options{Limit: 10}); len(res) == 0 {
		t.Fatalf("query %q found nothing", q)
	}
	if got := testing.AllocsPerRun(20, func() { idx.Search(q, TuningG, Options{Limit: 10}) }); got != want {
		t.Errorf("search %q makes %v allocations, want %d", q, got, want)
	}
}

// fuzzPostings reads a sorted posting list from data, four bytes a
// posting: b0's low two bits pick the gap's size (one byte, two bytes
// so at least 256 often, or at least 65 536), b0's next two bits widen
// tf and tit to 16 and beyond.
func fuzzPostings(data []byte) []posting {
	var posts []posting
	doc := uint64(0)
	for i := 0; i+4 <= len(data) && len(posts) < 1000; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		gap := uint64(b1)
		switch b0 & 3 {
		case 1:
			gap = uint64(b1)<<8 | uint64(b2)
		case 2:
			gap = 1<<16 | uint64(b1)<<16 | uint64(b2)<<8 | uint64(b3)
		}
		if len(posts) > 0 {
			gap++
		}
		if doc += gap; doc >= math.MaxUint32 {
			break
		}
		tf, tit := uint32(b3&15), uint32(b2&3)
		if b0&4 != 0 {
			tf = uint32(b3)<<8 | uint32(b2)
		}
		if b0&8 != 0 {
			tit = 16 + uint32(b0>>4)*20
		}
		posts = append(posts, posting{doc: uint32(doc), freq: tf | tit<<16})
	}
	return posts
}

// fuzzDocLen gives a document a length of up to 2^18, past what a block
// header's minLen holds.
func fuzzDocLen(doc uint32) uint32 { return doc * 2654435761 >> 14 }

// sliceCursor is the plain-slice model of a cursor: seekBlock and find
// over a []posting, the semantics the block-coded cursor must keep.
type sliceCursor struct {
	posts    []posting
	pos, blk int
}

func (m *sliceCursor) seekBlock(doc uint32) {
	if b := m.pos / blockSize; b > m.blk {
		m.blk = b
	}
	for m.blk*blockSize < len(m.posts) && m.posts[min(m.blk*blockSize+blockSize, len(m.posts))-1].doc < doc {
		m.blk++
	}
	if start := m.blk * blockSize; m.pos < start {
		m.pos = start
	}
}

func (m *sliceCursor) find(doc uint32) (uint32, bool) {
	end := min((m.blk+1)*blockSize, len(m.posts))
	lo, hi := m.pos, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.posts[mid].doc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	m.pos = lo
	if lo < end && m.posts[lo].doc == doc {
		m.pos++
		return m.posts[lo].freq, true
	}
	return 0, false
}

// FuzzPostingBlocks codes an arbitrary sorted posting list — gaps of 256
// and 65 536 and more, tf and tit of 16 and more — and holds a cursor
// over the codes to the plain-slice model through a sequence of ops,
// two bytes each: next (the essential-list step), seekBlock alone (a
// block skipped on its bound), and seekBlock then find (a probe), at a
// document near one of the list's. The block headers must bound what
// their blocks decode to.
func FuzzPostingBlocks(f *testing.F) {
	f.Fuzz(func(t *testing.T, list, ops []byte) {
		posts := fuzzPostings(list)
		tp, arena := codeList(nil, posts, fuzzDocLen)
		if len(arena) != codedLen(posts) {
			t.Fatalf("codeList wrote %d bytes, codedLen says %d", len(arena), codedLen(posts))
		}
		if tp.n != len(posts) || len(tp.blocks) != (len(posts)+blockSize-1)/blockSize {
			t.Fatalf("%d postings in %d blocks, want %d", tp.n, len(tp.blocks), len(posts))
		}
		// Each header holds its block's exact bounds, saturated, and
		// blockMax widens a saturated frequency to the list's.
		var listTf, listTit uint16
		for _, p := range posts {
			listTf, listTit = max(listTf, uint16(p.freq)), max(listTit, uint16(p.freq>>16))
		}
		for b := range tp.blocks {
			blk := posts[b*blockSize : min(b*blockSize+blockSize, len(posts))]
			var maxTf, maxTit uint16
			minLen := ^uint32(0)
			for _, p := range blk {
				maxTf, maxTit = max(maxTf, uint16(p.freq)), max(maxTit, uint16(p.freq>>16))
				minLen = min(minLen, fuzzDocLen(p.doc))
			}
			wantTf, wantTit := maxTf, maxTit
			if maxTf >= 0xff {
				wantTf = listTf
			}
			if maxTit >= 0xff {
				wantTit = listTit
			}
			gotTf, gotTit := tp.blockMax(b)
			h := tp.blocks[b]
			if h.lastDoc != blk[len(blk)-1].doc || gotTf != wantTf || gotTit != wantTit || uint32(h.minLen) != min(minLen, 0xffff) {
				t.Fatalf("block %d header: lastDoc %d, bounds (%d, %d), minLen %d; want %d, (%d, %d), %d",
					b, h.lastDoc, gotTf, gotTit, h.minLen, blk[len(blk)-1].doc, wantTf, wantTit, min(minLen, 0xffff))
			}
		}

		c := newCursor(arena, &tp, 0, 0, 0)
		m := &sliceCursor{posts: posts}
		for i := 0; i+2 <= len(ops); i += 2 {
			kind, at := ops[i]%3, ops[i+1]
			target := uint32(0)
			if len(posts) > 0 {
				near := int64(posts[int(at)*len(posts)/256].doc) + int64(ops[i]>>2) - 16
				target = uint32(min(max(near, 0), math.MaxUint32-1))
			}
			switch kind {
			case 0:
				doc := c.cur()
				if m.pos >= len(posts) {
					if doc != ^uint32(0) {
						t.Fatalf("op %d: exhausted cursor reads doc %d", i/2, doc)
					}
					continue
				}
				if p := m.posts[m.pos]; doc != p.doc || c.curFreq() != p.freq {
					t.Fatalf("op %d: next at %d reads (%d, %#x), model (%d, %#x)", i/2, m.pos, doc, c.curFreq(), p.doc, p.freq)
				}
				c.pos++
				m.pos++
			case 1, 2:
				c.seekBlock(target)
				m.seekBlock(target)
				if kind == 2 && m.blk*blockSize < len(posts) {
					freq, found := c.find(target)
					mfreq, mfound := m.find(target)
					if freq != mfreq || found != mfound {
						t.Fatalf("op %d: find(%d) = (%#x, %v), model (%#x, %v)", i/2, target, freq, found, mfreq, mfound)
					}
				}
			}
			if c.pos != m.pos || c.blk != m.blk {
				t.Fatalf("op %d (kind %d, doc %d): cursor at pos %d block %d, model at %d, %d", i/2, kind, target, c.pos, c.blk, m.pos, m.blk)
			}
		}
	})
}
