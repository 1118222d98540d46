// Package docstore persists documents fetched from web searches together
// with the query and the time the query was made (paper §2.2: "it is thus
// valuable to be able to store all of the documents from a particular Web
// search along with the query itself and the time the query was made"), and
// persists NLU analysis results so each document "only has to be analyzed
// once" — avoiding repeat latency, monetary cost, and quota consumption.
package docstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/nlu"
)

// SavedDoc is one stored document.
type SavedDoc struct {
	URL   string `json:"url"`
	Title string `json:"title"`
	// HTML is the raw fetched page.
	HTML string `json:"html"`
	// Text is the extracted plain text, ready for analysis.
	Text string `json:"text"`
}

// SavedSearch is one stored search: the query, which engine ran it, when,
// and every fetched document.
type SavedSearch struct {
	ID     string     `json:"id"`
	Query  string     `json:"query"`
	Engine string     `json:"engine"`
	When   time.Time  `json:"when"`
	Docs   []SavedDoc `json:"docs"`
}

// Store is a directory-backed document store. Searches live under
// dir/searches, analyses under dir/analyses. Safe for concurrent use: each
// write goes to a temporary file of its own and is renamed into place, and
// AnalyzeOnceE calls for the same (document, engine) are single-flighted.
type Store struct {
	dir    string
	clk    clock.Clock
	flight *cache.Group[analyzeRes]
}

// New opens (creating if needed) a store rooted at dir.
func New(dir string, clk clock.Clock) (*Store, error) {
	if clk == nil {
		clk = clock.Real()
	}
	for _, sub := range []string{"searches", "analyses"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("docstore: create %s: %w", sub, err)
		}
	}
	return &Store{dir: dir, clk: clk, flight: cache.NewGroup[analyzeRes]()}, nil
}

// SaveSearch persists a search and returns its ID. The ID is derived from
// query, engine, and timestamp, so re-running the same query later stores a
// distinct snapshot — the paper notes "the results from a Web search can
// change over time".
func (s *Store) SaveSearch(query, engine string, docs []SavedDoc) (string, error) {
	when := s.clk.Now()
	id := searchID(query, engine, when)
	saved := SavedSearch{ID: id, Query: query, Engine: engine, When: when, Docs: docs}
	if err := writeJSON(filepath.Join(s.dir, "searches", id+".json"), saved); err != nil {
		return "", err
	}
	return id, nil
}

func searchID(query, engine string, when time.Time) string {
	h := sha256.Sum256([]byte(query + "\x00" + engine + "\x00" + when.Format(time.RFC3339Nano)))
	return hex.EncodeToString(h[:8])
}

// LoadSearch retrieves a stored search by ID.
func (s *Store) LoadSearch(id string) (SavedSearch, error) {
	var saved SavedSearch
	if err := readJSON(filepath.Join(s.dir, "searches", id+".json"), &saved); err != nil {
		return SavedSearch{}, err
	}
	return saved, nil
}

// saveAnalysis persists the analysis an engine produced for a document
// (keyed by content, so the same document re-fetched under another URL
// still hits). Overwrites are allowed: analyses are deterministic per
// engine, so a rewrite is a no-op semantically.
func (s *Store) saveAnalysis(docText, engine string, a nlu.Analysis) error {
	return writeJSON(s.analysisPath(docText, engine), a)
}

// loadAnalysis retrieves a stored analysis; ok is false when the document
// has not been analyzed by that engine yet.
func (s *Store) loadAnalysis(docText, engine string) (nlu.Analysis, bool, error) {
	var a nlu.Analysis
	err := readJSON(s.analysisPath(docText, engine), &a)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nlu.Analysis{}, false, nil
		}
		return nlu.Analysis{}, false, err
	}
	return a, true, nil
}

// analyzeRes carries an AnalyzeOnceE outcome through the single-flight
// group.
type analyzeRes struct {
	a      nlu.Analysis
	cached bool
}

// AnalyzeOnceE returns the stored analysis if present, otherwise runs
// analyze — a remote NLU service behind the SDK, for example — stores, and
// returns its result. cached reports whether the store satisfied the
// request without a fresh analysis. Concurrent callers for the same
// (document, engine) are single-flighted: exactly one runs analyze, the
// rest share its result. The analysis is persisted only on success;
// failures are returned to every caller sharing the flight and nothing is
// stored, so a later call retries.
func (s *Store) AnalyzeOnceE(docText, engine string, analyze func(string) (nlu.Analysis, error)) (a nlu.Analysis, cached bool, err error) {
	key := s.analysisPath(docText, engine)
	ran := false
	res, err, _ := s.flight.Do(key, func() (analyzeRes, error) {
		ran = true
		if a, ok, err := s.loadAnalysis(docText, engine); err != nil {
			return analyzeRes{}, err
		} else if ok {
			return analyzeRes{a: a, cached: true}, nil
		}
		a, err := analyze(docText)
		if err != nil {
			return analyzeRes{}, err
		}
		if err := s.saveAnalysis(docText, engine, a); err != nil {
			return analyzeRes{}, err
		}
		return analyzeRes{a: a}, nil
	})
	if err != nil {
		return nlu.Analysis{}, false, err
	}
	// A caller whose closure never ran joined another caller's flight: it
	// did not trigger an analysis of its own, so from its point of view
	// the store satisfied the request.
	return res.a, res.cached || !ran, nil
}

func (s *Store) analysisPath(docText, engine string) string {
	h := sha256.Sum256([]byte(engine + "\x00" + docText))
	return filepath.Join(s.dir, "analyses", hex.EncodeToString(h[:16])+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("docstore: encode: %w", err)
	}
	// Each write stages its bytes in a file of its own, so concurrent
	// writers of one path never rename each other's temporary file away.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("docstore: write: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's is 0o600
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("docstore: write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("docstore: rename: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("docstore: read: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("docstore: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}
