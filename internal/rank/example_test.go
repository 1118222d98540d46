package rank_test

import (
	"fmt"

	"repro/internal/rank"
)

// The paper's Equation 1: pick a service by weighted response time, cost,
// and quality.
func ExampleWeighted() {
	candidates := []rank.Estimate{
		{Name: "watson-like", ResponseTimeMS: 80, Cost: 0.004, Quality: 0.95},
		{Name: "budget-nlu", ResponseTimeMS: 15, Cost: 0.0005, Quality: 0.70},
	}
	// A latency-sensitive user: alpha dominates.
	ranked := rank.Rank(candidates, rank.Weighted{W: rank.Weights{Alpha: 1, Beta: 100, Gamma: 10}})
	fmt.Println(ranked[0].Name)
	// Output: budget-nlu
}

// Equation 2 normalizes factors so magnitudes don't drown each other.
func ExampleNormalized() {
	candidates := []rank.Estimate{
		{Name: "low-latency", ResponseTimeMS: 90, Cost: 10},
		{Name: "cheap", ResponseTimeMS: 100, Cost: 1},
	}
	ranked := rank.Rank(candidates, rank.Normalized{W: rank.DefaultWeights})
	fmt.Println(ranked[0].Name)
	// Output: cheap
}
