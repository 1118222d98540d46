package nlu

// topicConcepts maps topic trigger words to taxonomy labels for concept
// extraction.
var topicConcepts = map[string]string{
	"technology": "/technology", "software": "/technology", "hardware": "/technology",
	"artificial": "/technology/ai", "intelligence": "/technology/ai", "algorithm": "/technology/ai",
	"cloud": "/technology/cloud", "computing": "/technology/cloud", "data": "/technology/data",
	"market": "/finance", "stock": "/finance", "shares": "/finance", "earnings": "/finance",
	"revenue": "/finance", "investor": "/finance", "investment": "/finance", "bank": "/finance",
	"economy": "/economics", "inflation": "/economics", "trade": "/economics", "currency": "/economics",
	"health": "/health", "hospital": "/health", "medicine": "/health", "vaccine": "/health",
	"climate": "/environment", "energy": "/environment/energy", "solar": "/environment/energy",
	"election": "/politics", "parliament": "/politics", "government": "/politics", "minister": "/politics",
	"education": "/education", "university": "/education", "student": "/education",
	"transport": "/transport", "aviation": "/transport", "railway": "/transport", "shipping": "/transport",
}

// kindConcepts maps mention kinds to taxonomy labels.
var kindConcepts = map[string]string{
	"Country": "/geography/countries",
	"Company": "/business/companies",
	"Person":  "/people",
	"City":    "/geography/cities",
}
