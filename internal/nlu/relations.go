package nlu

// Relationship extraction (paper §2.1: documents may be analyzed "for named
// entity recognition or relationship extraction", and outputs from several
// such services can be combined). A relation is extracted when two entity
// mentions share a sentence and a trigger word between them names the
// relationship; confidence decays with the distance between the mentions.

// Relation is one extracted (subject, predicate, object) relationship.
type Relation struct {
	// SubjectID and ObjectID are entity IDs of the related mentions.
	SubjectID string `json:"subjectId"`
	// Predicate is the canonical relation name ("kb:acquired").
	Predicate string `json:"predicate"`
	ObjectID  string `json:"objectId"`
	// Trigger is the surface word that signaled the relation.
	Trigger string `json:"trigger"`
	// Confidence in (0, 1]: closer mentions score higher.
	Confidence float64 `json:"confidence"`
}

// relationTriggers maps trigger words to canonical predicates. The
// vocabulary matches the corpus generator's templates plus common business
// relations, and users may extend it per engine.
var relationTriggers = map[string]string{
	"acquired":   "kb:acquired",
	"acquires":   "kb:acquired",
	"bought":     "kb:acquired",
	"merged":     "kb:mergedWith",
	"praised":    "kb:praised",
	"condemned":  "kb:condemned",
	"criticized": "kb:condemned",
	"blamed":     "kb:condemned",
	"welcomed":   "kb:welcomed",
	"sued":       "kb:sued",
	"partnered":  "kb:partneredWith",
	"supplies":   "kb:supplies",
	"employs":    "kb:employs",
	"visited":    "kb:visited",
	"signed":     "kb:signedWith",
	"invested":   "kb:investedIn",
}

// maxTriggerDistance bounds how many tokens may separate the mentions for
// a relation to be emitted.
const maxTriggerDistance = 12
