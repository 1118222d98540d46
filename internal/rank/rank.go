// Package rank implements the rich SDK's service ranking (paper §2): each
// service providing similar functionality is assigned a score combining its
// predicted response time, monetary cost, and response quality, and
// services are ranked by ascending score — "the service with the lowest
// score is the most desirable one". Both the raw weighted formula
// (Equation 1) and the normalized formula (Equation 2) are provided, along
// with support for user-supplied custom scoring.
package rank

import "sort"

// Estimate carries the predicted properties of one service, produced from
// the SDK's collected monitoring data (or defaults when data is missing).
type Estimate struct {
	// Name identifies the service.
	Name string
	// ResponseTimeMS is the predicted response time in milliseconds (r).
	ResponseTimeMS float64
	// Cost is the predicted monetary cost per invocation (c).
	Cost float64
	// Quality is the predicted quality of returned data (q); higher is
	// better.
	Quality float64
}

// Weights are the relative importances of response time, cost, and quality
// (the paper's alpha, beta, gamma). They may be supplied by the user.
type Weights struct {
	Alpha float64 // response time weight
	Beta  float64 // monetary cost weight
	Gamma float64 // quality weight
}

// DefaultWeights balance the three factors equally.
var DefaultWeights = Weights{Alpha: 1, Beta: 1, Gamma: 1}

// Scorer assigns a score to one service's estimate; all carries every
// candidate's estimate for scorers that need population context (for
// example normalization). Lower scores rank higher.
type Scorer interface {
	Score(e Estimate, all []Estimate) float64
}

// Weighted implements the paper's Equation 1:
//
//	S = alpha*r + beta*c - gamma*q
type Weighted struct {
	W Weights
}

var _ Scorer = Weighted{}

// Score implements Scorer.
func (s Weighted) Score(e Estimate, _ []Estimate) float64 {
	return s.W.Alpha*e.ResponseTimeMS + s.W.Beta*e.Cost - s.W.Gamma*e.Quality
}

// Normalized implements the paper's Equation 2, which normalizes each
// factor by its maximum over all services with similar functionality:
//
//	Sn = alpha*r/rmax + beta*c/cmax - gamma*q/qmax
//
// Factors whose maximum is zero contribute zero (all candidates tie on that
// factor).
type Normalized struct {
	W Weights
}

var _ Scorer = Normalized{}

// Score implements Scorer.
func (s Normalized) Score(e Estimate, all []Estimate) float64 {
	var rmax, cmax, qmax float64
	for _, a := range all {
		if a.ResponseTimeMS > rmax {
			rmax = a.ResponseTimeMS
		}
		if a.Cost > cmax {
			cmax = a.Cost
		}
		if a.Quality > qmax {
			qmax = a.Quality
		}
	}
	var score float64
	if rmax > 0 {
		score += s.W.Alpha * e.ResponseTimeMS / rmax
	}
	if cmax > 0 {
		score += s.W.Beta * e.Cost / cmax
	}
	if qmax > 0 {
		score -= s.W.Gamma * e.Quality / qmax
	}
	return score
}

// Custom adapts a user-provided scoring function (paper §2: "the rich SDK
// allows scores to be assigned to services using Equation 1, Equation 2, or
// a customized formula provided by the user").
type Custom func(e Estimate, all []Estimate) float64

var _ Scorer = Custom(nil)

// Score implements Scorer.
func (c Custom) Score(e Estimate, all []Estimate) float64 { return c(e, all) }

// Scored is an estimate with its computed score.
type Scored struct {
	Estimate
	Score float64
}

// Rank scores every estimate and returns them sorted by ascending score
// (best first). Ties preserve input order, making ranking deterministic.
func Rank(estimates []Estimate, scorer Scorer) []Scored {
	out := make([]Scored, len(estimates))
	for i, e := range estimates {
		out[i] = Scored{Estimate: e, Score: scorer.Score(e, estimates)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}
