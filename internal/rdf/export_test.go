package rdf

// SolveRows exposes solveRows to the package's external benchmarks.
func (g *Graph) SolveRows(patterns []Statement) solutions { return g.solveRows(patterns) }
