package analysts_test

import (
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/obs"
	"magnet/internal/rdf"
	"magnet/internal/vsm"
)

// centroids counts vsm.Model.Centroid calls (the registry returns the
// model's own counter for the name).
var centroids = obs.NewCounter("vsm.centroid.count")

// Refinement and SimilarCollection both need the collection centroid; a
// run computes it once and both read it — at pool width 1 and 4 alike.
func TestCentroidOncePerRunParallel(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	for _, width := range []int{1, 4} {
		m := core.Open(g, core.Options{Parallelism: width})
		s := m.NewSession()
		greekCollection(s)
		for run := 0; run < 3; run++ {
			before := centroids.Value()
			board := s.Board()
			if got := centroids.Value() - before; got != 1 {
				t.Errorf("width %d run %d: %d centroids computed, want 1", width, run, got)
			}
			if len(suggestionsOf(board, "query-refinement")) == 0 || len(suggestionsOf(board, "similar-by-content-collection")) != 1 {
				t.Fatalf("width %d: a centroid reader posted nothing", width)
			}
		}
	}
}

// centroidSpy records the per-run centroid the collection analysts read.
type centroidSpy struct {
	env *analysts.Env
	got map[string]float64
}

func (*centroidSpy) Name() string                     { return "centroid-spy" }
func (*centroidSpy) Triggered(v blackboard.View) bool { return v.IsCollection() }
func (c *centroidSpy) Suggest(v blackboard.View, _ *blackboard.Board) {
	c.got = analysts.CentroidOf(c.env, v)
}

// The memo lives for one run only: a run after Magnet.IndexItem sees the
// re-indexed vector in the centroid both analysts share.
func TestRunAfterIndexItemSeesNewVector(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	var spy *centroidSpy
	m := core.Open(g, core.Options{Analysts: func(env *analysts.Env) []blackboard.Analyst {
		spy = &centroidSpy{env: env}
		return append(analysts.DefaultSet(env), spy)
	}})
	s := m.NewSession()
	greekCollection(s)
	s.Board()
	before := spy.got

	member := s.Items()[0]
	prop, val := rdf.IRI(recipes.NS+"award"), rdf.IRI(recipes.NS+"award/GoldenSpoon")
	coord := vsm.Coord{Kind: vsm.CoordObject, Path: []rdf.IRI{prop}, Value: val}.Key()
	if _, ok := before[coord]; ok {
		t.Fatal("coordinate present before the item changed")
	}
	g.Add(member, prop, val)
	m.IndexItem(member)

	s.Board()
	if _, ok := spy.got[coord]; !ok {
		t.Fatal("run after IndexItem did not see the new vector")
	}
	want := m.Model().Centroid(s.Items())
	if len(spy.got) != len(want) {
		t.Errorf("centroid has %d coordinates, a fresh one %d", len(spy.got), len(want))
	}
}
