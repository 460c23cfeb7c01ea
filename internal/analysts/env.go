// Package analysts implements Magnet's analysts (paper §4.1, §4.3): the
// algorithmic units that, triggered by the currently viewed item or
// collection, write navigation suggestions on the blackboard for the
// advisors to present. The default set covers every advisor the paper
// lists: query refinement over property values and text terms, shared
// properties, similarity by content (item and collection variants),
// similarity by visit, contrary constraints, numeric range widgets,
// within-collection keyword search, and history.
package analysts

import (
	"magnet/internal/blackboard"
	"magnet/internal/history"
	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/vsm"
)

// Env bundles the substrates analysts consult. All fields except Tracker
// and LookupView are required.
type Env struct {
	Graph  *rdf.Graph
	Schema *schema.Store
	Model  *vsm.Model
	Engine *query.Engine
	Text   *index.TextIndex
	// Tracker records visits; nil disables the history-based analysts.
	Tracker *history.Tracker
	// LookupView resolves a history key back to a view so history
	// suggestions can carry executable actions; nil disables them too.
	LookupView func(key string) (blackboard.View, bool)
}

// Label renders a resource using the graph's labels.
func (e *Env) Label(r rdf.IRI) string { return e.Graph.Label(r) }

// Labeler returns the query.Labeler for this environment.
func (e *Env) Labeler() query.Labeler {
	return func(r rdf.IRI) string { return e.Graph.Label(r) }
}

// memoKey names the per-run values the collection analysts share through
// blackboard.View.Memo; the type is private so no other package collides.
type memoKey int

const (
	collectionKey memoKey = iota
	centroidKey
)

// collection returns the view's collection interned on the graph's
// dense-ID plane, once per analyst run.
func (e *Env) collection(v blackboard.View) itemset.Set {
	return v.Memo(collectionKey, func() any { return e.Graph.SubjectIDSetOf(v.Collection) }).(itemset.Set)
}

// centroid returns the collection centroid, once per analyst run, so
// Refinement and SimilarCollection read the very same vector. It is
// shared: read it, never write it.
func (e *Env) centroid(v blackboard.View) map[string]float64 {
	return v.Memo(centroidKey, func() any { return e.Model.Centroid(v.Collection) }).(map[string]float64)
}

// DefaultSet returns the paper's full analyst complement, ready for
// registration ("the following advisors have been implemented", §4.1).
func DefaultSet(env *Env) []blackboard.Analyst {
	return []blackboard.Analyst{
		NewRefinement(env, 40),
		NewSharedProperty(env, 30),
		NewSimilarItem(env, 20),
		NewSimilarCollection(env, 20),
		NewSimilarByVisit(env, 5),
		NewContrary(env),
		NewRangeWidget(env, 12),
		NewSearchWithin(env),
		NewHistory(env, 5),
		NewDropConstraint(env),
		NewOverviewHint(env),
	}
}

// BaselineSet returns the Flamenco-like baseline configuration used as the
// user study's control (§6.3): "navigation advisors suggesting refinements
// roughly the same as those in the Flamenco system", including text terms
// and negation via context menu, but no similarity, contrary, or visit
// advisors.
func BaselineSet(env *Env) []blackboard.Analyst {
	return []blackboard.Analyst{
		NewRefinement(env, 40),
		NewRangeWidget(env, 12),
		NewSearchWithin(env),
		NewHistory(env, 5),
	}
}
