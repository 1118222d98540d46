// Package lexicon holds the shared linguistic data used by the NLU engines,
// the synthetic web corpus, and the spell checker: an entity gazetteer
// (countries with aliases, companies, people), a sentiment lexicon,
// stopwords, and a general vocabulary. Centralizing the data keeps the
// generator and the analyzers consistent, which is what lets experiments
// score NLU output against ground truth.
package lexicon

import (
	"sort"
	"strings"
)

// EntityKind classifies gazetteer entries.
type EntityKind int

// Entity kinds.
const (
	kindCountry EntityKind = iota + 1
	kindCompany
	kindPerson
	kindCity
)

// String returns the kind's conventional NER label.
func (k EntityKind) String() string {
	switch k {
	case kindCountry:
		return "Country"
	case kindCompany:
		return "Company"
	case kindPerson:
		return "Person"
	case kindCity:
		return "City"
	default:
		return "Unknown"
	}
}

// Entity is one gazetteer entry: a canonical ID, a display name, a kind,
// and the aliases under which text may refer to it. The paper's running
// example: "United States of America" is also referred to as USA, US,
// United States, America, and the states.
type Entity struct {
	// ID is the canonical identifier, unique across the gazetteer.
	ID string
	// Name is the canonical display name.
	Name string
	// Kind classifies the entity.
	Kind EntityKind
	// Aliases are alternative surface forms, canonical name excluded.
	Aliases []string
	// Website, DBpedia and Yago are the linked-data style URLs the
	// disambiguator returns, mirroring the paper's Watson example.
	Website string
	DBpedia string
	Yago    string
}

// Surface returns every surface form: the canonical name plus all aliases.
func (e Entity) Surface() []string {
	out := make([]string, 0, len(e.Aliases)+1)
	out = append(out, e.Name)
	out = append(out, e.Aliases...)
	return out
}

// Countries is the country gazetteer.
var Countries = []Entity{
	{ID: "country:us", Name: "United States", Kind: kindCountry,
		Aliases: []string{"United States of America", "USA", "US", "America", "the states"},
		Website: "http://www.usa.gov/", DBpedia: "http://dbpedia.org/resource/United_States",
		Yago: "http://yago-knowledge.org/resource/United_States"},
	{ID: "country:uk", Name: "United Kingdom", Kind: kindCountry,
		Aliases: []string{"UK", "Britain", "Great Britain", "England"},
		DBpedia: "http://dbpedia.org/resource/United_Kingdom"},
	{ID: "country:de", Name: "Germany", Kind: kindCountry,
		Aliases: []string{"Deutschland", "Federal Republic of Germany"},
		DBpedia: "http://dbpedia.org/resource/Germany"},
	{ID: "country:fr", Name: "France", Kind: kindCountry,
		Aliases: []string{"French Republic"},
		DBpedia: "http://dbpedia.org/resource/France"},
	{ID: "country:jp", Name: "Japan", Kind: kindCountry,
		Aliases: []string{"Nippon"},
		DBpedia: "http://dbpedia.org/resource/Japan"},
	{ID: "country:cn", Name: "China", Kind: kindCountry,
		Aliases: []string{"PRC", "People's Republic of China"},
		DBpedia: "http://dbpedia.org/resource/China"},
	{ID: "country:in", Name: "India", Kind: kindCountry,
		Aliases: []string{"Republic of India", "Bharat"},
		DBpedia: "http://dbpedia.org/resource/India"},
	{ID: "country:br", Name: "Brazil", Kind: kindCountry,
		Aliases: []string{"Brasil"},
		DBpedia: "http://dbpedia.org/resource/Brazil"},
	{ID: "country:ca", Name: "Canada", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Canada"},
	{ID: "country:au", Name: "Australia", Kind: kindCountry,
		Aliases: []string{"Commonwealth of Australia", "Oz"},
		DBpedia: "http://dbpedia.org/resource/Australia"},
	{ID: "country:ru", Name: "Russia", Kind: kindCountry,
		Aliases: []string{"Russian Federation"},
		DBpedia: "http://dbpedia.org/resource/Russia"},
	{ID: "country:it", Name: "Italy", Kind: kindCountry,
		Aliases: []string{"Italian Republic"},
		DBpedia: "http://dbpedia.org/resource/Italy"},
	{ID: "country:es", Name: "Spain", Kind: kindCountry,
		Aliases: []string{"Kingdom of Spain"},
		DBpedia: "http://dbpedia.org/resource/Spain"},
	{ID: "country:mx", Name: "Mexico", Kind: kindCountry,
		Aliases: []string{"United Mexican States"},
		DBpedia: "http://dbpedia.org/resource/Mexico"},
	{ID: "country:kr", Name: "South Korea", Kind: kindCountry,
		Aliases: []string{"Republic of Korea", "Korea"},
		DBpedia: "http://dbpedia.org/resource/South_Korea"},
	{ID: "country:nl", Name: "Netherlands", Kind: kindCountry,
		Aliases: []string{"Holland"},
		DBpedia: "http://dbpedia.org/resource/Netherlands"},
	{ID: "country:ch", Name: "Switzerland", Kind: kindCountry,
		Aliases: []string{"Swiss Confederation"},
		DBpedia: "http://dbpedia.org/resource/Switzerland"},
	{ID: "country:se", Name: "Sweden", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Sweden"},
	{ID: "country:no", Name: "Norway", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Norway"},
	{ID: "country:eg", Name: "Egypt", Kind: kindCountry,
		Aliases: []string{"Arab Republic of Egypt"},
		DBpedia: "http://dbpedia.org/resource/Egypt"},
	{ID: "country:za", Name: "South Africa", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/South_Africa"},
	{ID: "country:ar", Name: "Argentina", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Argentina"},
	{ID: "country:gr", Name: "Greece", Kind: kindCountry,
		Aliases: []string{"Hellenic Republic", "Hellas"},
		DBpedia: "http://dbpedia.org/resource/Greece"},
	{ID: "country:tr", Name: "Turkey", Kind: kindCountry,
		Aliases: []string{"Turkiye"},
		DBpedia: "http://dbpedia.org/resource/Turkey"},
	{ID: "country:pl", Name: "Poland", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Poland"},
	{ID: "country:pt", Name: "Portugal", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Portugal"},
	{ID: "country:ie", Name: "Ireland", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Ireland"},
	{ID: "country:sg", Name: "Singapore", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Singapore"},
	{ID: "country:th", Name: "Thailand", Kind: kindCountry,
		Aliases: []string{"Siam"},
		DBpedia: "http://dbpedia.org/resource/Thailand"},
	{ID: "country:vn", Name: "Vietnam", Kind: kindCountry,
		DBpedia: "http://dbpedia.org/resource/Vietnam"},
}

// Companies is the company gazetteer. Names are synthetic to keep the
// corpus self-contained while exercising multi-word matching.
var Companies = []Entity{
	{ID: "company:acme", Name: "Acme Corporation", Kind: kindCompany, Aliases: []string{"Acme", "Acme Corp"}},
	{ID: "company:globex", Name: "Globex Industries", Kind: kindCompany, Aliases: []string{"Globex"}},
	{ID: "company:initech", Name: "Initech Systems", Kind: kindCompany, Aliases: []string{"Initech"}},
	{ID: "company:umbra", Name: "Umbra Analytics", Kind: kindCompany, Aliases: []string{"Umbra"}},
	{ID: "company:vertex", Name: "Vertex Capital", Kind: kindCompany, Aliases: []string{"Vertex"}},
	{ID: "company:solara", Name: "Solara Energy", Kind: kindCompany, Aliases: []string{"Solara"}},
	{ID: "company:nimbus", Name: "Nimbus Cloud Services", Kind: kindCompany, Aliases: []string{"Nimbus Cloud", "Nimbus"}},
	{ID: "company:quanta", Name: "Quanta Robotics", Kind: kindCompany, Aliases: []string{"Quanta"}},
	{ID: "company:helix", Name: "Helix Biotech", Kind: kindCompany, Aliases: []string{"Helix"}},
	{ID: "company:orion", Name: "Orion Logistics", Kind: kindCompany, Aliases: []string{"Orion"}},
	{ID: "company:zephyr", Name: "Zephyr Airlines", Kind: kindCompany, Aliases: []string{"Zephyr Air", "Zephyr"}},
	{ID: "company:aurora", Name: "Aurora Motors", Kind: kindCompany, Aliases: []string{"Aurora"}},
	{ID: "company:cobalt", Name: "Cobalt Mining Group", Kind: kindCompany, Aliases: []string{"Cobalt Group"}},
	{ID: "company:pinnacle", Name: "Pinnacle Foods", Kind: kindCompany, Aliases: []string{"Pinnacle"}},
	{ID: "company:stratos", Name: "Stratos Media", Kind: kindCompany, Aliases: []string{"Stratos"}},
	{ID: "company:kestrel", Name: "Kestrel Defense", Kind: kindCompany, Aliases: []string{"Kestrel"}},
	{ID: "company:meridian", Name: "Meridian Bank", Kind: kindCompany, Aliases: []string{"Meridian"}},
	{ID: "company:tidal", Name: "Tidal Shipping", Kind: kindCompany, Aliases: []string{"Tidal"}},
	{ID: "company:ember", Name: "Ember Semiconductors", Kind: kindCompany, Aliases: []string{"Ember Semi", "Ember"}},
	{ID: "company:lattice", Name: "Lattice Pharmaceuticals", Kind: kindCompany, Aliases: []string{"Lattice Pharma", "Lattice"}},
}

// people is the person gazetteer (synthetic public figures).
var people = []Entity{
	{ID: "person:akira-tanaka", Name: "Akira Tanaka", Kind: kindPerson, Aliases: []string{"Tanaka"}},
	{ID: "person:maria-silva", Name: "Maria Silva", Kind: kindPerson, Aliases: []string{"Silva"}},
	{ID: "person:john-whitfield", Name: "John Whitfield", Kind: kindPerson, Aliases: []string{"Whitfield"}},
	{ID: "person:elena-petrova", Name: "Elena Petrova", Kind: kindPerson, Aliases: []string{"Petrova"}},
	{ID: "person:omar-hassan", Name: "Omar Hassan", Kind: kindPerson, Aliases: []string{"Hassan"}},
	{ID: "person:ingrid-larsen", Name: "Ingrid Larsen", Kind: kindPerson, Aliases: []string{"Larsen"}},
	{ID: "person:wei-zhang", Name: "Wei Zhang", Kind: kindPerson, Aliases: []string{"Zhang"}},
	{ID: "person:priya-sharma", Name: "Priya Sharma", Kind: kindPerson, Aliases: []string{"Sharma"}},
	{ID: "person:carlos-mendez", Name: "Carlos Mendez", Kind: kindPerson, Aliases: []string{"Mendez"}},
	{ID: "person:fatima-almasri", Name: "Fatima Almasri", Kind: kindPerson, Aliases: []string{"Almasri"}},
	{ID: "person:david-okafor", Name: "David Okafor", Kind: kindPerson, Aliases: []string{"Okafor"}},
	{ID: "person:sofia-rossi", Name: "Sofia Rossi", Kind: kindPerson, Aliases: []string{"Rossi"}},
}

// Positive and Negative are the sentiment lexicon; each word carries unit
// weight. "very"-style intensifiers and "not"-style negators are handled by
// the analyzer, not listed here.
var Positive = []string{
	"good", "great", "excellent", "outstanding", "impressive", "strong",
	"successful", "profitable", "innovative", "reliable", "robust",
	"efficient", "beneficial", "promising", "favorable", "positive",
	"remarkable", "superb", "wonderful", "thriving", "booming", "soaring",
	"praised", "acclaimed", "celebrated", "admired", "trusted", "respected",
	"growth", "gain", "gains", "improvement", "improved", "improving",
	"breakthrough", "milestone", "record", "surge", "surged", "rally",
	"optimistic", "confident", "stable", "healthy", "vibrant", "leading",
	"award", "awarded", "win", "wins", "won", "victory", "triumph",
	"upgrade", "upgraded", "expansion", "expanding", "recovery",
	"recovered", "rebound", "exceeded", "beat", "beats", "outperformed",
	"flourishing", "prosperous", "landmark", "pioneering", "best",
}

// Negative sentiment words.
var Negative = []string{
	"bad", "poor", "terrible", "awful", "disappointing", "weak",
	"failed", "failing", "failure", "unprofitable", "unreliable",
	"inefficient", "harmful", "troubling", "unfavorable", "negative",
	"alarming", "dire", "dismal", "struggling", "collapsing", "plunging",
	"criticized", "condemned", "blamed", "distrusted", "scandal",
	"loss", "losses", "decline", "declined", "declining", "downturn",
	"crisis", "setback", "slump", "crash", "crashed", "selloff",
	"pessimistic", "uncertain", "unstable", "unhealthy", "stagnant",
	"lawsuit", "fine", "fined", "penalty", "defeat", "defeated",
	"downgrade", "downgraded", "layoffs", "recession", "bankruptcy",
	"missed", "underperformed", "shrinking", "deteriorating", "worst",
	"fraud", "corruption", "breach", "outage", "recall", "delays",
}

// Intensifiers amplify the following sentiment word.
var Intensifiers = []string{"very", "extremely", "highly", "incredibly", "exceptionally", "remarkably"}

// Negators flip the polarity of the following sentiment word.
var Negators = []string{"not", "never", "no", "hardly", "barely", "neither", "nor", "without"}

// Stopwords are excluded from keyword extraction.
var Stopwords = []string{
	"a", "an", "the", "and", "or", "but", "if", "then", "else", "when",
	"at", "by", "for", "with", "about", "against", "between", "into",
	"through", "during", "before", "after", "above", "below", "to",
	"from", "up", "down", "in", "out", "on", "off", "over", "under",
	"again", "further", "once", "here", "there", "all", "any", "both",
	"each", "few", "more", "most", "other", "some", "such", "only",
	"own", "same", "so", "than", "too", "very", "can", "will", "just",
	"should", "now", "is", "are", "was", "were", "be", "been", "being",
	"have", "has", "had", "having", "do", "does", "did", "doing",
	"would", "could", "ought", "i", "you", "he", "she", "it", "we",
	"they", "them", "their", "this", "that", "these", "those", "of",
	"as", "its", "his", "her", "my", "your", "our", "not", "no", "also",
	"said", "says", "according", "reported", "week", "year", "today",
	"yesterday", "tomorrow", "meanwhile", "monday", "tuesday",
	"wednesday", "thursday", "friday", "saturday", "sunday", "january",
	"february", "march", "april", "may", "june", "july", "august",
	"september", "october", "november", "december",
}

// Vocabulary is the neutral filler vocabulary used by the corpus generator
// and the spell-check dictionary.
var Vocabulary = []string{
	"market", "economy", "industry", "technology", "company", "government",
	"report", "analysis", "quarter", "revenue", "earnings", "product",
	"service", "customer", "investor", "shares", "stock", "price",
	"percent", "billion", "million", "announcement", "statement",
	"official", "minister", "president", "executive", "director",
	"strategy", "project", "development", "research", "science",
	"energy", "climate", "policy", "trade", "export", "import",
	"agreement", "partnership", "merger", "acquisition", "investment",
	"infrastructure", "manufacturing", "production", "supply", "demand",
	"employment", "inflation", "interest", "currency", "budget",
	"regulation", "compliance", "security", "privacy", "data",
	"platform", "software", "hardware", "network", "internet",
	"artificial", "intelligence", "learning", "model", "algorithm",
	"cloud", "computing", "storage", "database", "application",
	"mobile", "device", "sensor", "vehicle", "battery", "solar",
	"hospital", "health", "medicine", "vaccine", "treatment",
	"education", "university", "student", "school", "training",
	"transport", "aviation", "railway", "shipping", "logistics",
	"agriculture", "food", "water", "mineral", "resource",
	"election", "parliament", "senate", "court", "justice",
	"committee", "council", "summit", "conference", "forum",
	"launch", "release", "update", "version", "feature",
	"quarterly", "annual", "monthly", "daily", "global",
	"regional", "local", "national", "international", "domestic",
	"analyst", "economist", "scientist", "engineer", "researcher",
	"consumer", "citizen", "community", "public", "private",
}

// commonWords are everyday verbs and function words that belong in the
// spell-check dictionary but are neither stopwords nor topic vocabulary.
var commonWords = []string{
	"grew", "grow", "grows", "growing", "rose", "rise", "rises", "rising",
	"fell", "fall", "falls", "falling", "made", "make", "makes", "making",
	"took", "take", "takes", "taking", "gave", "give", "gives", "giving",
	"held", "hold", "holds", "holding", "came", "come", "comes", "coming",
	"went", "go", "goes", "going", "saw", "see", "sees", "seeing",
	"while", "since", "until", "although", "though", "because", "despite",
	"among", "amid", "across", "toward", "towards", "within", "beyond",
	"new", "old", "big", "small", "large", "high", "low", "long", "short",
	"first", "second", "third", "last", "next", "early", "late", "recent",
	"many", "much", "several", "various", "major", "minor", "key", "main",
	"people", "person", "group", "team", "member", "leader", "worker",
	"place", "area", "region", "country", "city", "world", "state",
	"time", "day", "month", "period", "moment", "decade", "century",
	"way", "part", "number", "amount", "level", "rate", "share", "value",
	"plan", "plans", "deal", "deals", "talks", "meeting", "review",
	"expect", "expects", "expected", "continue", "continued", "remain",
	"remained", "become", "became", "show", "showed", "shows", "include",
	"includes", "including", "provide", "provides", "provided", "use",
	"used", "uses", "using", "work", "works", "worked", "working",
}

// AllEntities returns the concatenated gazetteer, sorted by ID.
func AllEntities() []Entity {
	out := make([]Entity, 0, len(Countries)+len(Companies)+len(people))
	out = append(out, Countries...)
	out = append(out, Companies...)
	out = append(out, people...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns a lookup from entity ID to entity.
func ByID() map[string]Entity {
	m := make(map[string]Entity)
	for _, e := range AllEntities() {
		m[e.ID] = e
	}
	return m
}

// AliasIndex returns a lookup from lower-cased surface form to entity ID.
// Ambiguous surfaces (used by several entities) map to the first entity in
// gazetteer order; the disambiguator refines these with context.
func AliasIndex() map[string]string {
	m := make(map[string]string)
	for _, e := range AllEntities() {
		for _, s := range e.Surface() {
			key := strings.ToLower(s)
			if _, exists := m[key]; !exists {
				m[key] = e.ID
			}
		}
	}
	return m
}

// StopwordSet returns the stopwords as a set.
func StopwordSet() map[string]bool {
	m := make(map[string]bool, len(Stopwords))
	for _, w := range Stopwords {
		m[w] = true
	}
	return m
}

// SentimentWeights returns the full sentiment lexicon as word -> weight
// (+1 positive, -1 negative).
func SentimentWeights() map[string]float64 {
	m := make(map[string]float64, len(Positive)+len(Negative))
	for _, w := range Positive {
		m[w] = 1
	}
	for _, w := range Negative {
		m[w] = -1
	}
	return m
}

// Dictionary returns the spell-check dictionary: vocabulary, stopwords,
// sentiment words, and all single-word entity surface forms, lower-cased
// and de-duplicated.
func Dictionary() []string {
	set := make(map[string]bool)
	add := func(words []string) {
		for _, w := range words {
			for _, part := range strings.Fields(w) {
				set[strings.ToLower(part)] = true
			}
		}
	}
	add(Vocabulary)
	add(commonWords)
	add(Stopwords)
	add(Positive)
	add(Negative)
	add(Intensifiers)
	add(Negators)
	for _, e := range AllEntities() {
		add(e.Surface())
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
