// Package kb implements the personalized knowledge base built on top of
// the rich SDK (paper §3). It stores data in multiple forms — relational
// tables, an RDF triple store, CSV files and the remote key-value store —
// exports tables and the graph as CSV, disambiguates entities so aliases
// do not proliferate as
// redundant records, spell-checks text locally, performs statistical
// analysis and regression prediction, stores analysis results as RDF
// statements, and infers new facts from them (the Figure 5 loop:
// ingest → disambiguate → analyze → store results in RDF → infer). Data can
// be encrypted and compressed before persisting, and an enhanced remote
// store client provides cloud persistence with disconnected operation.
package kb

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/aggregate"
	"repro/internal/codec"
	"repro/internal/csvconv"
	"repro/internal/lexicon"
	"repro/internal/nlu"
	"repro/internal/rdbms"
	"repro/internal/rdf"
	"repro/internal/remotestore"
	"repro/internal/spell"
	"repro/internal/stats"
)

// Config configures a knowledge base.
type Config struct {
	// Dir is the root directory for CSV exports and local persistence.
	// Empty means no file persistence.
	Dir string
	// Passphrase, when non-empty, encrypts persisted payloads
	// (AES-256-GCM).
	Passphrase string
	// Compress gzip-compresses persisted payloads (before encryption).
	Compress bool
	// Remote, if non-nil, is the cloud store used by SaveRemote/
	// LoadRemote: a *remotestore.Cluster over one node or many, or a
	// wrapper around one.
	Remote remotestore.Store
}

// KB is a personalized knowledge base. Its components are individually
// safe for concurrent use; compound operations (ingest + convert) are not
// transactional.
type KB struct {
	cfg    Config
	db     *rdbms.DB
	graph  *rdf.Graph
	disamb *nlu.Disambiguator
	spell  *spell.Checker
	cdc    codec.Codec
	conf   *rdf.Confidences

	ruleMu sync.Mutex
	rules  []rdf.Rule
	// composed caches TransitiveRules + RDFSRules + user rules so Infer
	// and Prove don't rebuild (and ForwardChain doesn't re-validate) the
	// slice on every Fig. 5 cycle; AddRule invalidates it.
	composed []rdf.Rule
}

// New creates a knowledge base from cfg.
func New(cfg Config) (*KB, error) {
	var chain codec.Chain
	if cfg.Compress {
		chain = append(chain, codec.Gzip{})
	}
	if cfg.Passphrase != "" {
		enc, err := codec.NewAESGCM(cfg.Passphrase)
		if err != nil {
			return nil, fmt.Errorf("kb: %w", err)
		}
		chain = append(chain, enc)
	}
	var cdc codec.Codec = codec.Identity{}
	if len(chain) > 0 {
		cdc = chain
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("kb: create dir: %w", err)
		}
	}
	return &KB{
		cfg:    cfg,
		db:     rdbms.NewDB(),
		graph:  rdf.NewGraph(),
		disamb: nlu.NewDisambiguator(),
		spell:  spell.NewChecker(lexicon.Dictionary(), nil),
		cdc:    cdc,
	}, nil
}

// DB exposes the relational store.
func (k *KB) DB() *rdbms.DB { return k.db }

// Graph exposes the RDF store.
func (k *KB) Graph() *rdf.Graph { return k.graph }

// --- Ingestion and SQL ---

// IngestCSV loads CSV (with a header) into a new relational table.
func (k *KB) IngestCSV(table string, r io.Reader) (*rdbms.Table, error) {
	return k.db.ImportCSV(table, r)
}

// IngestCSVFile loads a CSV file into a new relational table.
func (k *KB) IngestCSVFile(table, path string) (*rdbms.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kb: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	return k.IngestCSV(table, f)
}

// SQL executes a SQL statement against the relational store.
func (k *KB) SQL(query string) (rdbms.ResultSet, error) {
	return k.db.Exec(query)
}

// --- Facts and inference ---

// AddFact enters a new fact as an RDF statement — the paper: "it is also
// very easy for users to enter new facts into the personal knowledge
// base". Subject and predicate are IRIs; the object is stored as an IRI if
// it looks like one (contains ':') and a literal otherwise.
func (k *KB) AddFact(subject, predicate, object string) error {
	o := rdf.NewLiteral(object)
	if looksLikeIRI(object) {
		o = rdf.NewIRI(object)
	}
	_, err := k.graph.Add(rdf.Statement{
		S: rdf.NewIRI(subject),
		P: rdf.NewIRI(predicate),
		O: o,
	})
	return err
}

func looksLikeIRI(s string) bool {
	for _, r := range s {
		if r == ':' {
			return true
		}
		if r == ' ' {
			return false
		}
	}
	return false
}

// AddRule registers a user-defined inference rule.
func (k *KB) AddRule(r rdf.Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	k.ruleMu.Lock()
	k.rules = append(k.rules, r)
	k.composed = nil
	k.ruleMu.Unlock()
	return nil
}

// allRules returns the cached composition of the built-in reasoners
// (transitive + RDFS) with the user rules, rebuilding it only after
// AddRule. Callers must not mutate the returned slice.
func (k *KB) allRules() []rdf.Rule {
	k.ruleMu.Lock()
	defer k.ruleMu.Unlock()
	if k.composed == nil {
		rules := append([]rdf.Rule{}, rdf.TransitiveRules()...)
		rules = append(rules, rdf.RDFSRules()...)
		k.composed = append(rules, k.rules...)
	}
	return k.composed
}

// Infer forward-chains the built-in reasoners (transitive + RDFS) plus all
// user rules to fixpoint and returns how many new facts were derived.
func (k *KB) Infer() (int, error) {
	return rdf.ForwardChain(k.graph, k.allRules(), 0)
}

// Prove backward-chains a goal against facts plus user rules.
func (k *KB) Prove(goal rdf.Statement) ([]rdf.Binding, error) {
	return rdf.BackwardChain(k.graph, k.allRules(), goal, 0)
}

// Query runs a SPARQL-like query against the RDF store.
func (k *KB) Query(q string) (rdf.QueryResult, error) {
	return k.graph.Query(q)
}

// --- Disambiguation ---

// Disambiguate resolves a surface form to its canonical entity.
func (k *KB) Disambiguate(surface string) (nlu.Resolution, bool) {
	return k.disamb.Resolve(surface)
}

// CanonicalizeColumn rewrites a table column in place, replacing each
// surface form with its canonical entity ID where one resolves. It returns
// (resolved, unresolved) counts. This is what prevents "the proliferation
// of redundant database entries" from alias variation (paper §3).
func (k *KB) CanonicalizeColumn(table, column string) (resolved, unresolved int, err error) {
	t, err := k.db.Table(table)
	if err != nil {
		return 0, 0, err
	}
	schema := t.Schema()
	ci := schema.Index(column)
	if ci < 0 {
		return 0, 0, fmt.Errorf("kb: no column %q in %s", column, table)
	}
	if schema[ci].Type != rdbms.TypeText {
		return 0, 0, fmt.Errorf("kb: column %q is not TEXT", column)
	}
	// Collect distinct surfaces, then rewrite via SQL updates so indexes
	// stay consistent.
	surfaces := make(map[string]bool)
	for _, row := range t.Rows() {
		if !row[ci].Null {
			surfaces[row[ci].Text] = true
		}
	}
	for s := range surfaces {
		r, ok := k.disamb.Resolve(s)
		if !ok {
			unresolved++
			continue
		}
		resolved++
		q := fmt.Sprintf("UPDATE %s SET %s = '%s' WHERE %s = '%s'",
			table, column, escapeSQL(r.EntityID), column, escapeSQL(s))
		if _, err := k.db.Exec(q); err != nil {
			return resolved, unresolved, fmt.Errorf("kb: canonicalize: %w", err)
		}
	}
	return resolved, unresolved, nil
}

func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// --- Spell checking ---

// SpellCheck flags unknown words in text with suggestions, using the local
// checker (paper §3: faster than remote services and free).
func (k *KB) SpellCheck(text string) []spell.Correction {
	return k.spell.Check(text)
}

// --- Statistics and the Figure 5 loop ---

// Regress fits y = a + b*x over two numeric columns.
func (k *KB) Regress(table, xCol, yCol string) (stats.LinearModel, error) {
	xs, ys, err := k.numericColumns(table, xCol, yCol)
	if err != nil {
		return stats.LinearModel{}, err
	}
	return stats.FitLinear(xs, ys)
}

// Summarize computes descriptive statistics over a numeric column.
func (k *KB) Summarize(table, col string) (stats.Summary, error) {
	xs, _, err := k.numericColumns(table, col, col)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(xs)
}

func (k *KB) numericColumns(table, xCol, yCol string) (xs, ys []float64, err error) {
	t, err := k.db.Table(table)
	if err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	xi, yi := schema.Index(xCol), schema.Index(yCol)
	if xi < 0 || yi < 0 {
		return nil, nil, fmt.Errorf("kb: missing column %q or %q", xCol, yCol)
	}
	for _, row := range t.Rows() {
		if row[xi].Null || row[yi].Null {
			continue
		}
		x, err := row[xi].AsFloat()
		if err != nil {
			return nil, nil, err
		}
		y, err := row[yi].AsFloat()
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys, nil
}

// AnalyzeAndStore runs the paper's Figure 5 analysis step: fit a
// regression over (xCol, yCol), predict y at each of predictAt, and store
// the key mathematical results as RDF statements under ns — making them
// available to the inference engine ("mathematical analysis combined with
// inferencing on the RDF store can generate new knowledge beyond that
// produced by just the mathematical analysis itself").
func (k *KB) AnalyzeAndStore(table, xCol, yCol, ns string, predictAt []float64) (stats.LinearModel, error) {
	m, err := k.Regress(table, xCol, yCol)
	if err != nil {
		return stats.LinearModel{}, err
	}
	analysis := ns + "analysis/" + table + "/" + yCol
	facts := []rdf.Statement{
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "kind"), O: rdf.NewLiteral("linear-regression")},
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "table"), O: rdf.NewLiteral(table)},
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "slope"), O: rdf.NewLiteral(formatFloat(m.Slope))},
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "intercept"), O: rdf.NewLiteral(formatFloat(m.Intercept))},
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "r2"), O: rdf.NewLiteral(formatFloat(m.R2))},
		{S: rdf.NewIRI(analysis), P: rdf.NewIRI(ns + "trend"), O: rdf.NewLiteral(trendLabel(m.Slope))},
	}
	// The Fig. 5 "store analysis results in RDF" half: three facts per
	// prediction, in predictAt order.
	for _, x := range predictAt {
		pred := rdf.NewIRI(fmt.Sprintf("%sprediction/%s/%s/%s", ns, table, yCol, formatFloat(x)))
		facts = append(facts,
			rdf.Statement{S: pred, P: rdf.NewIRI(ns + "ofAnalysis"), O: rdf.NewIRI(analysis)},
			rdf.Statement{S: pred, P: rdf.NewIRI(ns + "x"), O: rdf.NewLiteral(formatFloat(x))},
			rdf.Statement{S: pred, P: rdf.NewIRI(ns + "y"), O: rdf.NewLiteral(formatFloat(m.Predict(x)))},
		)
	}
	if _, err := k.graph.AddAll(facts); err != nil {
		return stats.LinearModel{}, err
	}
	return m, nil
}

// StoreWebSentiments records aggregated per-entity web sentiment as RDF
// facts, labeling each entity favorable, neutral, or unfavorable. Its
// signature matches pipeline.AnalysisConfig.Sentiments, so a knowledge
// base plugs directly into the analysis pipeline as its sink.
func (k *KB) StoreWebSentiments(_ context.Context, sentiments []aggregate.EntitySentiment) error {
	for _, s := range sentiments {
		mood := "neutral"
		if s.MeanScore > 0.15 {
			mood = "favorable"
		} else if s.MeanScore < -0.15 {
			mood = "unfavorable"
		}
		if err := k.AddFact(s.EntityID, "kb:webSentiment", mood); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }

func trendLabel(slope float64) string {
	switch {
	case slope > 0:
		return "increasing"
	case slope < 0:
		return "decreasing"
	default:
		return "flat"
	}
}

// --- Conversions ---

// ExportTableCSV writes a table as CSV into the KB directory and returns
// the path.
func (k *KB) ExportTableCSV(table string) (string, error) {
	if k.cfg.Dir == "" {
		return "", fmt.Errorf("kb: no directory configured")
	}
	t, err := k.db.Table(table)
	if err != nil {
		return "", err
	}
	path := filepath.Join(k.cfg.Dir, table+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("kb: create %s: %w", path, err)
	}
	if err := t.ExportCSV(f); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("kb: close %s: %w", path, err)
	}
	return path, nil
}

// ExportGraphCSV writes the RDF store as subject/predicate/object CSV and
// returns the path.
func (k *KB) ExportGraphCSV(name string) (string, error) {
	if k.cfg.Dir == "" {
		return "", fmt.Errorf("kb: no directory configured")
	}
	path := filepath.Join(k.cfg.Dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("kb: create %s: %w", path, err)
	}
	if err := csvconv.StatementsToCSV(f, k.graph.All()); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("kb: close %s: %w", path, err)
	}
	return path, nil
}

// --- Persistence (encrypted/compressed) ---

// SaveLocal persists a payload under the KB directory, transformed by the
// configured compression/encryption chain.
func (k *KB) SaveLocal(name string, data []byte) error {
	if k.cfg.Dir == "" {
		return fmt.Errorf("kb: no directory configured")
	}
	enc, err := k.cdc.Encode(data)
	if err != nil {
		return fmt.Errorf("kb: encode: %w", err)
	}
	path := filepath.Join(k.cfg.Dir, name+".bin")
	if err := os.WriteFile(path, enc, 0o600); err != nil {
		return fmt.Errorf("kb: write %s: %w", path, err)
	}
	return nil
}

// LoadLocal reads and decodes a payload written by SaveLocal.
func (k *KB) LoadLocal(name string) ([]byte, error) {
	path := filepath.Join(k.cfg.Dir, name+".bin")
	enc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kb: read %s: %w", path, err)
	}
	data, err := k.cdc.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("kb: decode: %w", err)
	}
	return data, nil
}

// SaveRemote stores a payload in the configured cloud store through the
// enhanced client (which applies its own codec, caching, and offline
// queueing).
func (k *KB) SaveRemote(key string, data []byte) error {
	if k.cfg.Remote == nil {
		return fmt.Errorf("kb: no remote store configured")
	}
	return k.cfg.Remote.Put(key, data)
}

// LoadRemote retrieves a payload from the cloud store.
func (k *KB) LoadRemote(key string) ([]byte, error) {
	if k.cfg.Remote == nil {
		return nil, fmt.Errorf("kb: no remote store configured")
	}
	return k.cfg.Remote.Get(key)
}
