package analysts

import "magnet/internal/blackboard"

// CentroidOf exposes the per-run collection centroid to the external
// tests, so an oracle analyst can read the very vector Refinement reads.
func CentroidOf(env *Env, v blackboard.View) map[string]float64 { return env.centroid(v) }
