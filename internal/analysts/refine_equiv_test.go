package analysts_test

import (
	"fmt"
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/inex"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/vsm"
)

// refineOracle is the Refinement analyst as it counted before counts moved
// to posting intersections: a string-keyed map over every member's every
// non-hidden value, and a full PathProperty evaluation filtered through a
// member map. It reads the same per-run centroid as Refinement, so the two
// can differ only in how they count. It posts nothing; it keeps its
// suggestions for the test to compare.
type refineOracle struct {
	env *analysts.Env
	k   int
	got []blackboard.Suggestion
}

func (*refineOracle) Name() string { return "refine-oracle" }

func (*refineOracle) Triggered(v blackboard.View) bool {
	return v.IsCollection() && len(v.Collection) >= 2
}

func (o *refineOracle) Suggest(v blackboard.View, _ *blackboard.Board) {
	o.got = nil
	coords := vsm.RefinementCoordsOf(analysts.CentroidOf(o.env, v), o.k, nil)
	if len(coords) == 0 {
		return
	}
	g := o.env.Graph
	counts := make(map[string]int)
	members := make(map[rdf.IRI]bool, len(v.Collection))
	for _, it := range v.Collection {
		members[it] = true
		for _, p := range g.PredicatesOf(it) {
			if o.env.Schema.Hidden(p) {
				continue
			}
			for _, val := range g.Objects(it, p) {
				counts[string(p)+"\x00"+val.Key()]++
			}
		}
	}
	n := len(v.Collection)
	maxW := coords[0].Weight
	for _, wc := range coords {
		c := wc.Coord
		weight := wc.Weight / maxW
		switch c.Kind {
		case vsm.CoordObject:
			var pred query.Predicate
			cnt := 0
			if len(c.Path) == 1 {
				pred = query.Property{Prop: c.Path[0], Value: c.Value}
				cnt = counts[string(c.Path[0])+"\x00"+c.Value.Key()]
			} else {
				pp := query.PathProperty{Path: c.Path, Value: c.Value}
				pred = pp
				pp.Eval(o.env.Engine).ForEach(func(it rdf.IRI) bool {
					if members[it] {
						cnt++
					}
					return true
				})
			}
			if cnt == 0 || cnt == n {
				continue
			}
			o.got = append(o.got, blackboard.Suggestion{
				Group:  vsm.PathLabel(c.Path, o.env.Label),
				Title:  g.TermLabel(c.Value),
				Detail: fmt.Sprintf("%d of %d", cnt, n),
				Weight: weight,
				Key:    "refine:" + pred.Key(),
			})
		case vsm.CoordWord:
			if len(c.Path) != 1 {
				continue
			}
			display := c.Word
			if o.env.Text != nil {
				display = o.env.Text.Surface(c.Word)
			}
			pred := query.TermMatch{Term: c.Word, Field: string(c.Path[0]), Display: display}
			o.got = append(o.got, blackboard.Suggestion{
				Group:  o.env.Label(c.Path[0]) + " words",
				Title:  display,
				Weight: weight,
				Key:    "refine:" + pred.Key(),
			})
		}
	}
}

// equivSession opens g with only Refinement and its oracle registered.
func equivSession(g *rdf.Graph, opts core.Options) (*core.Magnet, *core.Session, *refineOracle) {
	var oracle *refineOracle
	opts.Analysts = func(env *analysts.Env) []blackboard.Analyst {
		oracle = &refineOracle{env: env, k: 40}
		return []blackboard.Analyst{analysts.NewRefinement(env, 40), oracle}
	}
	m := core.Open(g, opts)
	return m, m.NewSession(), oracle
}

// assertSameRefinements runs the board on the session's current view and
// compares Refinement's suggestions with the oracle's, field by field. It
// returns how many it compared and how many of those carried a composed
// path.
func assertSameRefinements(t *testing.T, label string, s *core.Session, oracle *refineOracle) (compared, composed int) {
	t.Helper()
	got := suggestionsOf(s.Board(), "query-refinement")
	if len(got) != len(oracle.got) {
		t.Fatalf("%s: %d suggestions, oracle %d", label, len(got), len(oracle.got))
	}
	for i, sg := range got {
		want := oracle.got[i]
		if sg.Group != want.Group || sg.Title != want.Title || sg.Detail != want.Detail ||
			sg.Weight != want.Weight || sg.Key != want.Key {
			t.Errorf("%s #%d:\n got  %q %q %q %v %q\n want %q %q %q %v %q", label, i,
				sg.Group, sg.Title, sg.Detail, sg.Weight, sg.Key,
				want.Group, want.Title, want.Detail, want.Weight, want.Key)
		}
		if r, ok := sg.Action.(blackboard.Refine); ok {
			if _, ok := r.Add.(query.PathProperty); ok {
				composed++
			}
		}
	}
	return len(got), composed
}

// Recipes: direct coordinates, plus the composed ingredient·group ones
// the compose annotation adds, over the landing collection and two
// narrower ones.
func TestRefinementCountsMatchOracleRecipes(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 500, Seed: 1})
	_, s, oracle := equivSession(g, core.Options{})
	compared, composed := assertSameRefinements(t, "landing", s, oracle)
	greekCollection(s)
	n, c := assertSameRefinements(t, "Greek", s, oracle)
	compared, composed = compared+n, composed+c
	s.Refine(query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")}, blackboard.Filter)
	n, c = assertSameRefinements(t, "Greek ∧ Parsley", s, oracle)
	compared, composed = compared+n, composed+c
	if compared == 0 || composed == 0 {
		t.Errorf("compared %d suggestions, %d composed; want some of each", compared, composed)
	}
}

// INEX is tree-shaped, so coordinates compose up to four steps deep.
func TestRefinementCountsMatchOracleTree(t *testing.T) {
	c, err := inex.Build(inex.Config{Articles: 60})
	if err != nil {
		t.Fatal(err)
	}
	_, s, oracle := equivSession(c.Graph, core.Options{})
	compared, composed := assertSameRefinements(t, "landing", s, oracle)
	// Follow composed refinements down a few levels.
	for depth := 0; depth < 3; depth++ {
		var next query.Predicate
		for _, sg := range suggestionsOf(s.Board(), "query-refinement") {
			if r, ok := sg.Action.(blackboard.Refine); ok {
				if pp, ok := r.Add.(query.PathProperty); ok && len(pp.Path) > 1 {
					next = pp
					break
				}
			}
		}
		if next == nil {
			break
		}
		s.Refine(next, blackboard.Filter)
		n, c := assertSameRefinements(t, fmt.Sprintf("depth %d", depth+1), s, oracle)
		compared, composed = compared+n, composed+c
	}
	if compared == 0 || composed == 0 {
		t.Errorf("compared %d suggestions, %d composed; want some of each", compared, composed)
	}
}

// A fixed collection may name items the graph has never seen: they count
// toward n but match nothing.
func TestRefinementCountsMatchOracleAbsentMembers(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	_, s, oracle := equivSession(g, core.Options{})
	greekCollection(s)
	items := append([]rdf.IRI{}, s.Items()...)
	items = append(items, "http://absent.example.org/a", "http://absent.example.org/b")
	if err := s.Apply(blackboard.GoToCollection{Title: "with strangers", Items: items}); err != nil {
		t.Fatal(err)
	}
	if n, _ := assertSameRefinements(t, "fixed", s, oracle); n == 0 {
		t.Error("no suggestion compared")
	}
}
