// Package search implements the web-search substrate: an inverted index
// over the synthetic web corpus with TF-IDF and BM25 ranking, several
// differently tuned engine profiles standing in for Google, Bing, and
// Yahoo, and a news-only restriction (paper §2.2: "searches can also be
// restricted to news stories"). Engines expose the uniform service
// interface so the SDK can rank them, fail over between them, and cache
// their results.
//
// The index is dictionary-coded: terms are interned to dense uint32 IDs
// (through the shared internal/intern symbol table, frozen once the
// build finishes) and each term's postings, sorted by document, are
// block-coded into one index-wide byte arena: blocks of 64 postings,
// each a run of narrow fixed-width document gaps and (tf, tit) codes
// whose widths the block picks for itself, under a header carrying the
// block's arena offset and score upper-bound metadata (last document,
// max body/title frequency, min document length). Queries run through a
// block-max MaxScore top-k evaluator (eval.go) that skips terms and
// blocks on their headers alone when their upper bound cannot beat the
// current k-th best score, and decodes a block only when a cursor first
// stands in it, so query latency stays near-flat as the corpus grows.
// The seed-era full-scan engine is frozen in
// internal/search/searchref as the equivalence oracle and perf baseline.
package search

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/intern"
	"repro/internal/lexicon"
	"repro/internal/metrics"
	"repro/internal/nlu"
	"repro/internal/webcorpus"
)

// blockSize is the posting-block granularity: each block of up to 64
// postings carries its own score upper-bound metadata so the evaluator
// can skip it wholesale when the block cannot beat the current
// threshold, and picks its own code widths.
const blockSize = 64

// posting is one document of a term's list while BuildIndex gathers
// it: the document's dense ID and the term's body (tf) and title (tit)
// frequencies packed into one word. Frequencies saturate at 65535, far
// beyond any real document. The index keeps no posting: codeList codes
// each finished list into the arena.
type posting struct {
	doc  uint32
	freq uint32 // tf in the low 16 bits, tit in the high 16
}

func packFreq(tf, tit int) uint32 {
	if tf > 0xffff {
		tf = 0xffff
	}
	if tit > 0xffff {
		tit = 0xffff
	}
	return uint32(tf) | uint32(tit)<<16
}

// block is the header of one blockSize-chunk of a posting list: where
// its codes start in Index.arena and the upper-bound metadata that lets
// the evaluator skip it undecoded. maxTf/maxTit bound the frequencies
// and minLen the BM25 length normalizer, so score(maxTf +
// TitleBoost·maxTit, minLen) bounds every posting in the block for any
// monotone scoring profile. The narrow fields saturate in the direction
// that keeps them bounds: minLen at 0xffff (still no longer than any
// document), maxTf/maxTit at 0xff, which the evaluator reads as "use the
// list-wide maximum" (blockMax).
//
// The codes at off are a width byte, then one document gap per posting
// (from the previous block's lastDoc, 0 for the first block) and one
// frequency code per posting. The width byte's low nibble is the gap
// width: 1 byte when every gap in the block is under 256, 2 under
// 65 536, 4 otherwise. Its high nibble is the frequency width: 1 byte
// holding tf | tit<<4 when both are under 16 throughout the block, the
// 4-byte packed word otherwise. A block decodes with no per-posting
// branch on width.
type block struct {
	lastDoc uint32 // doc of the block's final posting (skip key)
	off     uint32
	minLen  uint16
	maxTf   uint8
	maxTit  uint8
}

// termPostings is one term's posting list: its block headers and
// list-wide upper-bound metadata.
type termPostings struct {
	blocks []block
	n      int // postings (the term's document frequency)
	maxTf  uint16
	maxTit uint16
	minLen uint32
}

// blockLen is how many postings block b holds.
func (tp *termPostings) blockLen(b int) int {
	return min(blockSize, tp.n-b*blockSize)
}

// blockMax reads block b's frequency bounds, widening a saturated one
// to the list-wide maximum.
func (tp *termPostings) blockMax(b int) (maxTf, maxTit uint16) {
	blk := &tp.blocks[b]
	maxTf, maxTit = uint16(blk.maxTf), uint16(blk.maxTit)
	if maxTf == 0xff {
		maxTf = tp.maxTf
	}
	if maxTit == 0xff {
		maxTit = tp.maxTit
	}
	return maxTf, maxTit
}

// blockWidths picks the gap and frequency code widths of one block
// whose first gap counts from prev.
func blockWidths(posts []posting, prev uint32) (gapW, freqW int) {
	maxGap, wideFreq := uint32(0), false
	for _, p := range posts {
		maxGap = max(maxGap, p.doc-prev)
		prev = p.doc
		wideFreq = wideFreq || p.freq&0xffff >= 16 || p.freq>>16 >= 16
	}
	switch {
	case maxGap < 1<<8:
		gapW = 1
	case maxGap < 1<<16:
		gapW = 2
	default:
		gapW = 4
	}
	if wideFreq {
		return gapW, 4
	}
	return gapW, 1
}

// codedLen is how many arena bytes codeList writes for posts.
func codedLen(posts []posting) int {
	size, prev := 0, uint32(0)
	for start := 0; start < len(posts); start += blockSize {
		blk := posts[start:min(start+blockSize, len(posts))]
		gapW, freqW := blockWidths(blk, prev)
		size += 1 + len(blk)*(gapW+freqW)
		prev = blk[len(blk)-1].doc
	}
	return size
}

// codeList codes one term's postings, sorted by document, onto arena in
// blockSize blocks and returns the list's headers and bounds with the
// grown arena. docLen reports a document's length for the minLen
// bounds.
func codeList(arena []byte, posts []posting, docLen func(doc uint32) uint32) (termPostings, []byte) {
	tp := termPostings{n: len(posts)}
	if len(posts) == 0 {
		return tp, arena
	}
	tp.blocks = make([]block, 0, (len(posts)+blockSize-1)/blockSize)
	tp.minLen = ^uint32(0)
	prev := uint32(0)
	for start := 0; start < len(posts); start += blockSize {
		blk := posts[start:min(start+blockSize, len(posts))]
		gapW, freqW := blockWidths(blk, prev)
		off := uint32(len(arena))
		var maxTf, maxTit uint16
		minLen := ^uint32(0)
		arena = append(arena, byte(gapW|freqW<<4))
		for _, p := range blk {
			arena = appendUint(arena, p.doc-prev, gapW)
			prev = p.doc
			maxTf = max(maxTf, uint16(p.freq))
			maxTit = max(maxTit, uint16(p.freq>>16))
			minLen = min(minLen, docLen(p.doc))
		}
		for _, p := range blk {
			if freqW == 1 {
				arena = append(arena, byte(p.freq&0xf|p.freq>>16<<4))
			} else {
				arena = appendUint(arena, p.freq, 4)
			}
		}
		tp.blocks = append(tp.blocks, block{
			lastDoc: prev,
			off:     off,
			minLen:  uint16(min(minLen, 0xffff)),
			maxTf:   uint8(min(maxTf, 0xff)),
			maxTit:  uint8(min(maxTit, 0xff)),
		})
		tp.maxTf, tp.maxTit = max(tp.maxTf, maxTf), max(tp.maxTit, maxTit)
		tp.minLen = min(tp.minLen, minLen)
	}
	return tp, arena
}

// appendUint appends the low width bytes of v, little-endian.
func appendUint(b []byte, v uint32, width int) []byte {
	switch width {
	case 1:
		return append(b, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return binary.LittleEndian.AppendUint32(b, v)
}

// Index is an immutable inverted index over a corpus. Build once, search
// concurrently.
type Index struct {
	docs []webcorpus.Document
	// dict is the index's symbol table, frozen when BuildIndex returns
	// (the index is immutable, so concurrent searches share it with no
	// synchronization — intern.Frozen's contract).
	dict   *intern.Frozen[string]
	terms  []termPostings // indexed by term ID
	arena  []byte         // every term's block codes (see block)
	docLen []uint32
	avgLen float64
	news   []uint64 // bitmap over docs: kind == "news"
	// expander is the query-expansion source (nil when the index was
	// built without WithExpansion). Expansion applies only when a search
	// opts in via Options.Expand and the engine's Params enable it, so
	// the default ranking is bit-identical to the searchref baseline.
	expander *lexicon.Expander
	// obs holds the index's instruments (nil when built without
	// WithMetrics): queries pay one nil check, nothing else.
	obs *searchObs
}

// searchObs bundles the query-path instruments registered by
// WithMetrics. Recording happens once per query from the Stats the
// evaluator already collects, so the per-posting hot loops stay
// untouched.
type searchObs struct {
	queries    *metrics.Histogram
	scanned    *metrics.Counter
	skipped    *metrics.Counter
	pruned     *metrics.Counter
	expansions *metrics.Counter
}

func newSearchObs(set *metrics.Set) *searchObs {
	return &searchObs{
		queries: set.Histogram("richsdk_search_query_seconds",
			"Latency of index queries (block-max top-k evaluation)."),
		scanned: set.Counter("richsdk_search_blocks_total",
			"Posting blocks probed or skipped during evaluation.",
			metrics.Label{Name: "outcome", Value: "scanned"}),
		skipped: set.Counter("richsdk_search_blocks_total",
			"Posting blocks probed or skipped during evaluation.",
			metrics.Label{Name: "outcome", Value: "skipped"}),
		pruned: set.Counter("richsdk_search_pruned_candidates_total",
			"Candidate documents abandoned because their score upper bound could not beat the threshold."),
		expansions: set.Counter("richsdk_search_expansion_terms_total",
			"Query terms added by lexicon-driven expansion."),
	}
}

// record folds one query's evaluator stats into the instruments.
func (o *searchObs) record(elapsed time.Duration, stats Stats) {
	if o == nil {
		return
	}
	o.queries.Observe(elapsed)
	o.scanned.Add(uint64(stats.BlockScans))
	o.skipped.Add(uint64(stats.BlockSkips))
	o.pruned.Add(uint64(stats.Pruned))
	o.expansions.Add(uint64(stats.Expanded))
}

// IndexOption configures BuildIndex.
type IndexOption func(*indexConfig)

type indexConfig struct {
	expansion bool
	set       *metrics.Set
}

// WithMetrics registers the index's instrument families in set and turns
// on query-path instrumentation: a query latency histogram, blocks
// scanned/skipped, pruning-abandonment and expansion-term counters, plus
// a dictionary-size gauge. A nil set leaves the index uninstrumented
// (identical to omitting the option).
func WithMetrics(set *metrics.Set) IndexOption {
	return func(c *indexConfig) { c.set = set }
}

// WithExpansion builds the query-expansion tables alongside the index:
// the gazetteer synonym table plus a corpus-derived PMI co-occurrence
// table accumulated from each document's filtered tokens during the
// indexing pass. The argument has no fields (see lexicon.PMIConfig).
func WithExpansion(lexicon.PMIConfig) IndexOption {
	return func(c *indexConfig) { c.expansion = true }
}

// BuildIndex indexes every document in the corpus. It scans each body
// and title once on the calling goroutine. With WithExpansion, the
// term IDs the scan produces are counted for the PMI table on a second
// goroutine (see pmiCounter), which then builds the table while the
// caller codes the posting lists; BuildIndex joins it before it freezes
// the dictionary, so it returns with nothing left running.
func BuildIndex(c *webcorpus.Corpus, opts ...IndexOption) *Index {
	var cfg indexConfig
	for _, o := range opts {
		o(&cfg)
	}
	dict := intern.NewDict[string]()
	stop := lexicon.StopwordSet()
	idx := &Index{
		docs:   c.Docs,
		docLen: make([]uint32, len(c.Docs)),
		news:   make([]uint64, (len(c.Docs)+63)/64),
	}
	var pmi *pmiCounter
	if cfg.expansion {
		pmi = startPMICounter(dict)
	}
	// One scan per body and title resolves each kept token straight to
	// its term ID: the token is lowered into buf and looked up by its
	// bytes, so only a term's first sighting allocates. A stopword never
	// enters the dictionary, so only a miss needs the stopword check. tf
	// and tit are ID-indexed counts of the current document and touched
	// lists the IDs they hold, so resetting them costs what the document
	// used.
	var (
		buf               []byte
		lists             [][]posting // indexed by term ID
		bodyIDs, titleIDs []uint32
		tf, tit           []int
		touched           []uint32
		totalLen          int
	)
	terms := func(text string, ids []uint32) []uint32 {
		ids = ids[:0]
		buf = nlu.ScanLower(text, buf, func(lower []byte) {
			if len(lower) < 2 {
				return
			}
			id, ok := intern.DictLookupBytes(dict, lower)
			if !ok {
				if stop[string(lower)] {
					return
				}
				id = dict.Intern(string(lower))
			}
			ids = append(ids, id)
		})
		return ids
	}
	for i, d := range c.Docs {
		if d.Kind == "news" {
			idx.news[i>>6] |= 1 << (uint(i) & 63)
		}
		bodyIDs = terms(d.Body, bodyIDs)
		titleIDs = terms(d.Title, titleIDs)
		idx.docLen[i] = uint32(len(bodyIDs))
		totalLen += len(bodyIDs)
		if pmi != nil {
			pmi.add(bodyIDs)
			pmi.add(titleIDs)
		}
		if n := dict.Len(); n > len(lists) {
			lists = append(lists, make([][]posting, n-len(lists))...)
			tf = append(tf, make([]int, n-len(tf))...)
			tit = append(tit, make([]int, n-len(tit))...)
		}
		for _, id := range bodyIDs {
			if tf[id] == 0 {
				touched = append(touched, id)
			}
			tf[id]++
		}
		for _, id := range titleIDs {
			if tf[id] == 0 && tit[id] == 0 {
				touched = append(touched, id)
			}
			tit[id]++
		}
		// Documents are indexed in increasing order, so each append keeps
		// the posting list sorted by doc with no explicit sort.
		for _, id := range touched {
			lists[id] = append(lists[id], posting{doc: uint32(i), freq: packFreq(tf[id], tit[id])})
			tf[id], tit[id] = 0, 0
		}
		touched = touched[:0]
	}
	if pmi != nil {
		pmi.finish()
	}
	if len(c.Docs) > 0 {
		idx.avgLen = float64(totalLen) / float64(len(c.Docs))
	}
	// The index is immutable from here on: code every list into one
	// arena sized to exactly what the codes take, and drop the lists.
	size := 0
	for _, posts := range lists {
		size += codedLen(posts)
	}
	idx.arena = make([]byte, 0, size)
	idx.terms = make([]termPostings, len(lists))
	docLen := func(doc uint32) uint32 { return idx.docLen[doc] }
	for tid, posts := range lists {
		idx.terms[tid], idx.arena = codeList(idx.arena, posts, docLen)
	}
	// The PMI builder names its terms through dict, so the counter is
	// joined before the dictionary is frozen.
	if pmi != nil {
		idx.expander = lexicon.NewExpander().WithCooccurrence(<-pmi.table)
	}
	idx.dict = dict.Freeze()
	if cfg.set != nil {
		idx.obs = newSearchObs(cfg.set)
		// The dictionary is frozen, so the gauge is a one-shot reading.
		cfg.set.Gauge("richsdk_intern_dict_size",
			"Distinct terms in an interned symbol table.",
			metrics.Label{Name: "dict", Value: "search"}).Set(int64(idx.dict.Len()))
	}
	return idx
}

// The PMI counter's handoff: the scan fills batches of up to
// pmiBatchIDs term IDs, and pmiBatches batches circulate between the
// scan and the counter, so the scan runs at most that many batches
// ahead and allocates no batch after the first pmiBatches. Both of the
// counter's channels hold every batch, so no send on them blocks: the
// scan waits only for a free batch.
const (
	pmiBatchIDs = 1 << 14
	pmiBatches  = 4
)

// idBatch is a run of term-ID slices in document order, flat: slice i
// is ids[ends[i-1]:ends[i]] (from 0 for the first).
type idBatch struct {
	ids  []uint32
	ends []int
}

// pmiCounter feeds a lexicon.PMIBuilder on a goroutine of its own. The
// scan appends each document's body and title IDs to the batch it holds
// (add) and hands the batch over on full when the next slice would not
// fit. The counter calls AddIDs on each slice in order, so the builder
// sees exactly the sequence an inline build would, and returns the
// emptied batch on free. After finish closes full, the counter runs
// PMIBuilder.Build and sends its table on table. The builder never reads
// the dictionary while it counts (AddIDs' contract), and Build runs only
// after the scan's last intern, which the close orders before it.
type pmiCounter struct {
	cur   *idBatch
	full  chan *idBatch
	free  chan *idBatch
	table chan map[string][]lexicon.Expansion
}

// startPMICounter starts a counter over dict's term IDs.
func startPMICounter(dict *intern.Dict[string]) *pmiCounter {
	c := &pmiCounter{
		full:  make(chan *idBatch, pmiBatches),
		free:  make(chan *idBatch, pmiBatches),
		table: make(chan map[string][]lexicon.Expansion, 1),
	}
	for range pmiBatches {
		c.free <- &idBatch{ids: make([]uint32, 0, pmiBatchIDs)}
	}
	c.cur = <-c.free
	go func(pmi *lexicon.PMIBuilder) {
		for bt := range c.full {
			start := 0
			for _, end := range bt.ends {
				pmi.AddIDs(bt.ids[start:end])
				start = end
			}
			bt.ids, bt.ends = bt.ids[:0], bt.ends[:0]
			c.free <- bt
		}
		c.table <- pmi.Build()
	}(lexicon.NewPMIBuilder(dict))
	return c
}

// add appends one ID slice to the current batch, handing the batch
// over first when the slice would overflow it.
func (c *pmiCounter) add(ids []uint32) {
	if len(c.cur.ends) > 0 && len(c.cur.ids)+len(ids) > cap(c.cur.ids) {
		c.full <- c.cur
		c.cur = <-c.free
	}
	c.cur.ids = append(c.cur.ids, ids...)
	c.cur.ends = append(c.cur.ends, len(c.cur.ids))
}

// finish hands over the last batch and tells the counter the scan is
// done.
func (c *pmiCounter) finish() {
	if len(c.cur.ends) > 0 {
		c.full <- c.cur
	}
	close(c.full)
}

// isNews reports whether doc is a news document (kind bitmap probe).
func (idx *Index) isNews(doc uint32) bool {
	return idx.news[doc>>6]&(1<<(doc&63)) != 0
}

// Result is one search hit.
type Result struct {
	DocID     string  `json:"docId"`
	URL       string  `json:"url"`
	Title     string  `json:"title"`
	Kind      string  `json:"kind"`
	Score     float64 `json:"score"`
	Published string  `json:"published"`
}

// Options controls one search.
type Options struct {
	// Limit bounds the result count. 0 means 10.
	Limit int
	// Offset skips that many top-ranked hits before collecting Limit
	// results (pagination). The evaluator keeps a heap of Limit+Offset
	// entries, so deep pagination costs proportionally more.
	Offset int
	// NewsOnly restricts hits to documents of kind "news". The
	// restriction is a doc-kind bitmap consulted during evaluation —
	// non-news documents are never scored — not a post-filter.
	NewsOnly bool
	// Expand turns on query expansion for this search. It has effect
	// only when the index was built with WithExpansion and the engine's
	// Params carry a positive ExpandWeight.
	Expand bool
}

// Scoring selects the ranking function.
type Scoring int

// Scoring functions.
const (
	TFIDF Scoring = iota + 1
	BM25
)

// Params tunes scoring.
type Params struct {
	Scoring    Scoring
	K1         float64 // BM25 term-frequency saturation (typical 1.2)
	B          float64 // BM25 length normalization (typical 0.75)
	TitleBoost float64 // extra weight for title matches

	// ExpandWeight scales the score contribution of expansion terms
	// relative to original query terms (0 disables expansion for this
	// profile). ExpandTerms caps how many expansion terms a query gains;
	// 0 means 2. Both only apply when Options.Expand is set, so profiles
	// tune how aggressively they broaden a query — one of the axes on
	// which the stock G/B/Y tunings differ.
	ExpandWeight float64
	ExpandTerms  int
}

// Stats reports what one evaluation did; see SearchStats.
type Stats struct {
	// Terms is how many query terms (originals plus expansions) had
	// posting lists and entered evaluation.
	Terms int
	// Expanded is how many of those were added by query expansion.
	Expanded int
	// Candidates counts documents proposed by the essential-list
	// document-at-a-time scan.
	Candidates int
	// Scored counts candidates that survived every bound check and had
	// their full score computed.
	Scored int
	// Pruned counts candidates abandoned because their score upper
	// bound could not beat the running threshold.
	Pruned int
	// BlockSkips counts posting blocks skipped via block-max metadata.
	BlockSkips int
	// BlockScans counts posting blocks actually probed (binary-searched)
	// for a candidate; BlockScans + BlockSkips is the non-essential probe
	// volume, and the scanned:skipped ratio is the live measure of how
	// much work the block-max metadata is avoiding.
	BlockScans int
}

// Search runs a ranked query against the index: top Limit results after
// Offset, scores descending, ties broken by ascending DocID — the same
// contract as the searchref baseline.
//
// A query whose every token is filtered out (stopwords or single
// characters) returns an empty result immediately: stopwords are
// stripped at build time, so the index holds no posting that could match
// them. The seed engine "fell back" to looking the raw tokens up anyway
// and necessarily found nothing; the early return makes that contract
// explicit at zero cost.
func (idx *Index) Search(query string, p Params, opts Options) []Result {
	res, _ := idx.SearchStats(query, p, opts)
	return res
}

// SearchStats is Search plus evaluation statistics (pruning and skip
// counters for experiments and benchmarks).
func (idx *Index) SearchStats(query string, p Params, opts Options) ([]Result, Stats) {
	var start time.Time
	if idx.obs != nil {
		start = time.Now()
	}
	if opts.Limit <= 0 {
		opts.Limit = 10
	}
	if opts.Offset < 0 {
		opts.Offset = 0
	}
	qterms := idx.queryTerms(query)
	if len(qterms) == 0 {
		if idx.obs != nil {
			idx.obs.record(time.Since(start), Stats{})
		}
		return []Result{}, Stats{}
	}
	var stats Stats
	qterms = idx.expandQuery(qterms, p, opts, &stats)
	res := idx.evaluate(qterms, p, opts, &stats)
	if idx.obs != nil {
		idx.obs.record(time.Since(start), stats)
	}
	return res, stats
}

// qterm is one compiled query term: a term ID and the query-side weight
// its contributions are multiplied by (1 for original terms, the scaled
// expansion weight for expansion terms).
type qterm struct {
	id     uint32
	weight float64
}

// queryTerms scans the query, keeps the terms the dictionary knows
// (anything else cannot match; stopwords and one-byte tokens never enter
// it), and dedupes them, sorted by term string for determinism.
func (idx *Index) queryTerms(query string) []qterm {
	out := make([]qterm, 0, 8)
	var buf [64]byte
	nlu.ScanLower(query, buf[:0], func(lower []byte) {
		if id, ok := intern.LookupBytes(idx.dict, lower); ok {
			out = append(out, qterm{id: id, weight: 1})
		}
	})
	slices.SortFunc(out, func(a, b qterm) int {
		return strings.Compare(idx.dict.Value(a.id), idx.dict.Value(b.id))
	})
	return slices.CompactFunc(out, func(a, b qterm) bool { return a.id == b.id })
}

// expandQuery appends up to ExpandTerms weighted expansion terms when
// the search opts in and the index carries expansion tables. Candidates
// from all original terms are merged (keeping each candidate's strongest
// weight), ranked by weight then term, and never duplicate an original.
func (idx *Index) expandQuery(qterms []qterm, p Params, opts Options, stats *Stats) []qterm {
	if !opts.Expand || idx.expander == nil || p.ExpandWeight <= 0 {
		return qterms
	}
	maxTerms := p.ExpandTerms
	if maxTerms <= 0 {
		maxTerms = 2
	}
	present := make(map[uint32]bool, len(qterms))
	for _, q := range qterms {
		present[q.id] = true
	}
	best := make(map[string]float64)
	for _, q := range qterms {
		for _, ex := range idx.expander.Expand(idx.dict.Value(q.id), maxTerms) {
			if ex.Weight > best[ex.Term] {
				best[ex.Term] = ex.Weight
			}
		}
	}
	candidates := make([]lexicon.Expansion, 0, len(best))
	for t, w := range best {
		candidates = append(candidates, lexicon.Expansion{Term: t, Weight: w})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Weight != candidates[j].Weight {
			return candidates[i].Weight > candidates[j].Weight
		}
		return candidates[i].Term < candidates[j].Term
	})
	added := 0
	for _, c := range candidates {
		if added >= maxTerms {
			break
		}
		id, ok := idx.dict.Lookup(c.Term)
		if !ok || present[id] {
			continue
		}
		present[id] = true
		qterms = append(qterms, qterm{id: id, weight: p.ExpandWeight * c.Weight})
		added++
	}
	stats.Expanded = added
	return qterms
}
