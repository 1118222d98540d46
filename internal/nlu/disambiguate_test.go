package nlu

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// CanonicalIDs disambiguates every surface in the list and returns the
// distinct canonical IDs, sorted. Surfaces that cannot be resolved map to
// "unknown:<lower surface>" — preserved so callers can see the residue.
// This is the operation that prevents "the proliferation of redundant
// database entries" the paper describes.
func (d *Disambiguator) CanonicalIDs(surfaces []string) []string {
	set := make(map[string]bool)
	for _, s := range surfaces {
		if r, ok := d.Resolve(s); ok {
			set[r.EntityID] = true
		} else {
			set["unknown:"+strings.ToLower(strings.TrimSpace(s))] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func TestResolvePaperExample(t *testing.T) {
	d := NewDisambiguator()
	// The paper: "US" resolves to the country with website, DBpedia, and
	// Yago URLs.
	r, ok := d.Resolve("US")
	if !ok {
		t.Fatal("US not resolved")
	}
	if r.EntityID != "country:us" || r.Name != "United States" {
		t.Errorf("resolution = %+v", r)
	}
	if r.Website != "http://www.usa.gov/" {
		t.Errorf("Website = %s", r.Website)
	}
	if !strings.Contains(r.DBpedia, "dbpedia.org") || !strings.Contains(r.Yago, "yago-knowledge.org") {
		t.Errorf("linked URLs = %+v", r)
	}
}

func TestResolveAllUSAliasesCollapse(t *testing.T) {
	d := NewDisambiguator()
	aliases := []string{"United States of America", "USA", "US", "United States", "America", "the states"}
	ids := d.CanonicalIDs(aliases)
	if !reflect.DeepEqual(ids, []string{"country:us"}) {
		t.Errorf("CanonicalIDs = %v, want single country:us", ids)
	}
}

func TestResolveUnknown(t *testing.T) {
	d := NewDisambiguator()
	if _, ok := d.Resolve("Atlantis"); ok {
		t.Error("Atlantis resolved unexpectedly")
	}
	ids := d.CanonicalIDs([]string{"Atlantis", "atlantis "})
	if !reflect.DeepEqual(ids, []string{"unknown:atlantis"}) {
		t.Errorf("CanonicalIDs = %v", ids)
	}
}

func TestAddSynonymUserDomain(t *testing.T) {
	// Paper: for domains without tools (for example diseases), users
	// provide synonym files.
	d := NewDisambiguator()
	d.addSynonym("heart attack", "disease:mi")
	d.addSynonym("myocardial infarction", "disease:mi")
	d.addSynonym("MI", "disease:mi")
	ids := d.CanonicalIDs([]string{"Heart Attack", "myocardial infarction", "mi"})
	if !reflect.DeepEqual(ids, []string{"disease:mi"}) {
		t.Errorf("CanonicalIDs = %v, want single disease:mi", ids)
	}
	r, ok := d.Resolve("heart attack")
	if !ok || r.Name != "mi" {
		t.Errorf("Resolve = (%+v, %v)", r, ok)
	}
}

func TestLoadSynonymsCSV(t *testing.T) {
	d := NewDisambiguator()
	csvData := "diabetes,disease:dm\nsugar disease,disease:dm\ntype 2 diabetes,disease:dm\n"
	n, err := d.LoadSynonyms(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d rows, want 3", n)
	}
	ids := d.CanonicalIDs([]string{"Diabetes", "SUGAR DISEASE", "type 2 diabetes"})
	if !reflect.DeepEqual(ids, []string{"disease:dm"}) {
		t.Errorf("CanonicalIDs = %v", ids)
	}
}

func TestLoadSynonymsBadRow(t *testing.T) {
	d := NewDisambiguator()
	if _, err := d.LoadSynonyms(strings.NewReader("only-one-field\n")); err == nil {
		t.Error("expected error for short row")
	}
}

func TestUserSynonymOverridesGazetteer(t *testing.T) {
	d := NewDisambiguator()
	d.addSynonym("america", "continent:americas")
	r, ok := d.Resolve("America")
	if !ok || r.EntityID != "continent:americas" {
		t.Errorf("Resolve = (%+v, %v), user mapping should win", r, ok)
	}
}
