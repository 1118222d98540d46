package nlu

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/lexicon"
)

// Resolution is the result of disambiguating a surface form: the canonical
// entity plus the linked-data URLs, mirroring the paper's Watson example
// where "US" resolves to the country with website, DBpedia, and Yago links.
type Resolution struct {
	EntityID string `json:"entityId"`
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Website  string `json:"website,omitempty"`
	DBpedia  string `json:"dbpedia,omitempty"`
	Yago     string `json:"yago,omitempty"`
}

// Disambiguator maps surface forms to canonical entities. It combines the
// built-in gazetteer with user-provided synonym tables (paper §3: "for
// domains for which there are no existing services or tools to help with
// entity disambiguation, users can provide their own files which identify
// synonyms which map to the same entity"). It is safe for concurrent use.
type Disambiguator struct {
	mu       sync.RWMutex
	aliases  map[string]string         // lower surface -> entity ID
	entities map[string]lexicon.Entity // entity ID -> entity
	custom   map[string]lexicon.Entity // user-defined entities
}

// NewDisambiguator returns a disambiguator over the built-in gazetteer.
func NewDisambiguator() *Disambiguator {
	return &Disambiguator{
		aliases:  lexicon.AliasIndex(),
		entities: lexicon.ByID(),
		custom:   make(map[string]lexicon.Entity),
	}
}

// addSynonym maps a surface form to an entity ID. Unknown entity IDs create
// a new user-defined entity whose name is the ID's suffix.
func (d *Disambiguator) addSynonym(surface, entityID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.aliases[strings.ToLower(strings.TrimSpace(surface))] = entityID
	if _, ok := d.entities[entityID]; ok {
		return
	}
	if _, ok := d.custom[entityID]; ok {
		return
	}
	name := entityID
	if i := strings.LastIndex(entityID, ":"); i >= 0 {
		name = entityID[i+1:]
	}
	d.custom[entityID] = lexicon.Entity{ID: entityID, Name: name}
}

// LoadSynonyms reads a CSV synonym table (surface,entityID per row) and
// adds every mapping. Blank lines and rows with fewer than two fields are
// rejected.
func (d *Disambiguator) LoadSynonyms(r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("nlu: read synonyms: %w", err)
		}
		if len(rec) < 2 {
			return n, fmt.Errorf("nlu: synonym row %v needs surface,entityID", rec)
		}
		d.addSynonym(rec[0], rec[1])
		n++
	}
}

// Resolve maps a surface form to its canonical entity. It reports false for
// unknown surfaces.
func (d *Disambiguator) Resolve(surface string) (Resolution, bool) {
	key := strings.ToLower(strings.TrimSpace(surface))
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.aliases[key]
	if !ok {
		return Resolution{}, false
	}
	e, ok := d.entities[id]
	if !ok {
		e, ok = d.custom[id]
		if !ok {
			return Resolution{EntityID: id}, true
		}
	}
	return Resolution{
		EntityID: e.ID,
		Name:     e.Name,
		Kind:     e.Kind.String(),
		Website:  e.Website,
		DBpedia:  e.DBpedia,
		Yago:     e.Yago,
	}, true
}
