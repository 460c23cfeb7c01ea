package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

var (
	pType       = rdf.Type
	pTitle      = rdf.DCTitle
	pContent    = rdf.IRI(ex + "content")
	pCourse     = rdf.IRI(ex + "course")
	pMethod     = rdf.IRI(ex + "cookingMethod")
	pIngredient = rdf.IRI(ex + "ingredient")
	pCuisine    = rdf.IRI(ex + "cuisine")
	clsRecipe   = rdf.IRI(ex + "Recipe")
)

// figure3Graph builds the paper's Figure 3 example: the 'Apple Cobbler
// Cake' recipe plus companions so idf is meaningful.
func figure3Graph() (*rdf.Graph, *schema.Store, []rdf.IRI) {
	g := rdf.NewGraph()
	sch := schema.NewStore(g)

	cobbler := rdf.IRI(ex + "appleCobblerCake")
	g.Add(cobbler, pType, clsRecipe)
	g.Add(cobbler, pTitle, rdf.NewString("Apple Cobbler Cake"))
	g.Add(cobbler, pContent, rdf.NewString("Mix apples with batter and bake the cake"))
	g.Add(cobbler, pCourse, rdf.IRI(ex+"Dessert"))
	g.Add(cobbler, pMethod, rdf.IRI(ex+"Bake"))
	g.Add(cobbler, pIngredient, rdf.IRI(ex+"Apple"))
	g.Add(cobbler, pIngredient, rdf.IRI(ex+"Flour"))
	g.Add(cobbler, pIngredient, rdf.IRI(ex+"Butter"))

	pie := rdf.IRI(ex + "applePie")
	g.Add(pie, pType, clsRecipe)
	g.Add(pie, pTitle, rdf.NewString("Apple Pie"))
	g.Add(pie, pContent, rdf.NewString("Roll the dough and bake with apples"))
	g.Add(pie, pCourse, rdf.IRI(ex+"Dessert"))
	g.Add(pie, pMethod, rdf.IRI(ex+"Bake"))
	g.Add(pie, pIngredient, rdf.IRI(ex+"Apple"))
	g.Add(pie, pIngredient, rdf.IRI(ex+"Flour"))

	salad := rdf.IRI(ex + "greekSalad")
	g.Add(salad, pType, clsRecipe)
	g.Add(salad, pTitle, rdf.NewString("Greek Salad"))
	g.Add(salad, pContent, rdf.NewString("Toss feta with olives"))
	g.Add(salad, pCourse, rdf.IRI(ex+"Appetizer"))
	g.Add(salad, pMethod, rdf.IRI(ex+"Raw"))
	g.Add(salad, pCuisine, rdf.IRI(ex+"Greek"))
	g.Add(salad, pIngredient, rdf.IRI(ex+"Feta"))
	g.Add(salad, pIngredient, rdf.IRI(ex+"Olive"))

	items := []rdf.IRI{cobbler, pie, salad}
	return g, sch, items
}

func TestVectorizeFigure4Shape(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)

	raw := m.Vectorize(items[0])

	// Object coordinates for each attribute/value pair.
	wantObj := []Coord{
		{Kind: CoordObject, Path: []rdf.IRI{pType}, Value: clsRecipe},
		{Kind: CoordObject, Path: []rdf.IRI{pCourse}, Value: rdf.IRI(ex + "Dessert")},
		{Kind: CoordObject, Path: []rdf.IRI{pMethod}, Value: rdf.IRI(ex + "Bake")},
		{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")},
	}
	for _, c := range wantObj {
		if raw[c.Key()] == 0 {
			t.Errorf("missing object coordinate %v", c)
		}
	}
	// Text coordinates: title words split and stemmed ("apple", "cobbler",
	// "cake" — lower-case in the figure).
	for _, w := range []string{"appl", "cobbler", "cake"} {
		c := Coord{Kind: CoordWord, Path: []rdf.IRI{pTitle}, Word: w}
		if raw[c.Key()] == 0 {
			t.Errorf("missing title word coordinate %q", w)
		}
	}
	// Ingredient values are objects, never split into words.
	for k := range raw {
		c, ok := ParseCoord(k)
		if !ok {
			t.Fatalf("unparseable coordinate %q", k)
		}
		if c.Kind == CoordWord && c.Path[0] == pIngredient {
			t.Errorf("ingredient should not yield word coordinates: %v", c)
		}
	}
}

func TestPerAttributeNormalization(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	raw := m.Vectorize(items[0])

	// Three ingredients: each contributes 1/3.
	ing := Coord{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")}
	if w := raw[ing.Key()]; math.Abs(w-1.0/3.0) > 1e-9 {
		t.Errorf("ingredient share = %v, want 1/3", w)
	}
	// Single-valued course contributes 1.
	course := Coord{Kind: CoordObject, Path: []rdf.IRI{pCourse}, Value: rdf.IRI(ex + "Dessert")}
	if w := raw[course.Key()]; math.Abs(w-1) > 1e-9 {
		t.Errorf("course share = %v, want 1", w)
	}
	// Title words sum to 1 (per-attribute total mass equal across attrs).
	var titleMass float64
	for k, w := range raw {
		if c, ok := ParseCoord(k); ok && c.Kind == CoordWord && c.Path[0] == pTitle {
			titleMass += w
		}
	}
	if math.Abs(titleMass-1) > 1e-9 {
		t.Errorf("title word mass = %v, want 1", titleMass)
	}
}

func TestPerAttributeNormalizationAblation(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{DisablePerAttributeNorm: true})
	m.IndexAll(items)
	raw := m.Vectorize(items[0])
	ing := Coord{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")}
	if w := raw[ing.Key()]; w != 1 {
		t.Errorf("raw count = %v, want 1 (no division)", w)
	}
}

func TestUniversalCoordinateVanishes(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	vec := m.Vector(items[0])
	typeCoord := Coord{Kind: CoordObject, Path: []rdf.IRI{pType}, Value: clsRecipe}
	if _, ok := vec[typeCoord.Key()]; ok {
		t.Error("type=Recipe appears in every doc; idf should remove it")
	}
}

func TestVectorsUnitNorm(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	for _, it := range items {
		var norm float64
		for _, w := range m.Vector(it) {
			norm += w * w
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Errorf("norm²(%s) = %v", it.LocalName(), norm)
		}
	}
}

func TestSimilarityOrdering(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	cobbler, pie, salad := items[0], items[1], items[2]
	if m.Similarity(cobbler, pie) <= m.Similarity(cobbler, salad) {
		t.Errorf("apple desserts should be more similar than dessert vs salad: %v vs %v",
			m.Similarity(cobbler, pie), m.Similarity(cobbler, salad))
	}
	sims := m.SimilarToItem(cobbler, 5)
	if len(sims) == 0 || sims[0].Item != pie {
		t.Errorf("SimilarToItem = %v, want pie first", sims)
	}
	for _, s := range sims {
		if s.Item == cobbler {
			t.Error("item itself must be excluded")
		}
	}
}

func TestSimilarToCollection(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	coll := []rdf.IRI{items[0], items[1]} // the two apple desserts
	got := m.SimilarToCollection(coll, 5, true)
	for _, s := range got {
		if s.Item == items[0] || s.Item == items[1] {
			t.Error("members must be excluded when excludeMembers")
		}
	}
	withMembers := m.SimilarToCollection(coll, 5, false)
	if len(withMembers) <= len(got) {
		t.Error("including members should not shrink the result")
	}
}

func TestUnitCircleNumericEncoding(t *testing.T) {
	// Paper §5.4: e-mails a day apart should share numeric similarity;
	// e-mails far apart should not.
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	pSent := rdf.IRI(ex + "sent")
	mk := func(id string, day time.Time) rdf.IRI {
		it := rdf.IRI(ex + id)
		g.Add(it, pType, rdf.IRI(ex+"Email"))
		g.Add(it, pSent, rdf.NewTime(day))
		// Distinct body words so only the date links them.
		g.Add(it, pContent, rdf.NewString("unique"+id))
		return it
	}
	base := time.Date(2003, 7, 31, 0, 0, 0, 0, time.UTC)
	a := mk("a", base)
	b := mk("b", base.AddDate(0, 0, 1))
	c := mk("c", base.AddDate(2, 0, 0))

	m := New(g, sch, Options{})
	m.IndexAll([]rdf.IRI{a, b, c})

	// All three share the numeric coordinate pair; its norm contribution is
	// identical ("all values have the same norm").
	simAB := m.Similarity(a, b)
	simAC := m.Similarity(a, c)
	if simAB <= simAC {
		t.Errorf("a day apart (%v) should beat two years apart (%v)", simAB, simAC)
	}
	if simAC <= 0 {
		t.Errorf("far dates should still have small positive dot product, got %v", simAC)
	}
	// Range stats recorded.
	if r, ok := m.NumericRange([]rdf.IRI{pSent}); !ok || r.Count != 3 {
		t.Errorf("NumericRange = %+v, %v", r, ok)
	}
}

func TestRawNumericAblationSwamps(t *testing.T) {
	// §5.4's motivating failure: with raw numeric coordinates, arbitrarily
	// large values swamp every other coordinate after normalization, so two
	// items sharing *nothing* but possessing the numeric attribute come out
	// nearly identical. The unit-circle encoding keeps them dissimilar
	// (θ = 0 vs θ = π/2 ⇒ dot ≈ 0).
	build := func(opts Options) (simUnrelated float64) {
		g := rdf.NewGraph()
		sch := schema.NewStore(g)
		pArea := rdf.IRI(ex + "area")
		sch.SetValueType(pArea, schema.Integer)
		a := rdf.IRI(ex + "a")
		b := rdf.IRI(ex + "b")
		c := rdf.IRI(ex + "c")
		g.Add(a, pContent, rdf.NewString("cardinal bird watching"))
		g.Add(a, pArea, rdf.NewInteger(1))
		g.Add(b, pContent, rdf.NewString("volcano geology survey"))
		g.Add(b, pArea, rdf.NewInteger(5_000_000))
		// A third document keeps word idf positive.
		g.Add(c, pContent, rdf.NewString("something else entirely"))
		g.Add(c, pArea, rdf.NewInteger(2_500_000))
		m := New(g, sch, opts)
		m.IndexAll([]rdf.IRI{a, b, c})
		return m.Similarity(a, b)
	}
	unitCircle := build(Options{})
	raw := build(Options{RawNumeric: true})
	if raw < 0.8 {
		t.Errorf("raw numeric should manufacture high similarity for unrelated items, got %v", raw)
	}
	if unitCircle > 0.2 {
		t.Errorf("unit circle should keep range-extreme unrelated items dissimilar, got %v", unitCircle)
	}
}

func TestCompositionAnnotation(t *testing.T) {
	// §5.1: documents have authors; authors have fields of expertise. With
	// the composition annotation, "the author's field of expertise" becomes
	// a coordinate.
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	pAuthor := rdf.IRI(ex + "author")
	pField := rdf.IRI(ex + "expertise")
	doc := rdf.IRI(ex + "doc1")
	alice := rdf.IRI(ex + "alice")
	g.Add(doc, pAuthor, alice)
	g.Add(alice, pField, rdf.IRI(ex+"IR"))

	composed := Coord{Kind: CoordObject, Path: []rdf.IRI{pAuthor, pField}, Value: rdf.IRI(ex + "IR")}

	m := New(g, sch, Options{})
	m.IndexAll([]rdf.IRI{doc})
	if raw := m.Vectorize(doc); raw[composed.Key()] != 0 {
		t.Error("composition should require an annotation")
	}

	sch.SetCompose(pAuthor)
	m.IndexAll([]rdf.IRI{doc})
	if raw := m.Vectorize(doc); raw[composed.Key()] == 0 {
		t.Error("annotated composition missing from vector")
	}

	// Ablation switch suppresses it even when annotated.
	m2 := New(g, sch, Options{DisableCompositions: true})
	m2.IndexAll([]rdf.IRI{doc})
	if raw := m2.Vectorize(doc); raw[composed.Key()] != 0 {
		t.Error("DisableCompositions should suppress composed coordinates")
	}
}

func TestTreeShapedDeepComposition(t *testing.T) {
	// §6.2: tree-shaped (XML) data licenses multi-step composition without
	// per-property annotations.
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	p1, p2, p3 := rdf.IRI(ex+"sec"), rdf.IRI(ex+"para"), rdf.IRI(ex+"textOf")
	a, b, c := rdf.IRI(ex+"art"), rdf.IRI(ex+"s1"), rdf.IRI(ex+"p1")
	g.Add(a, p1, b)
	g.Add(b, p2, c)
	g.Add(c, p3, rdf.NewString("retrieval"))

	deep := Coord{Kind: CoordWord, Path: []rdf.IRI{p1, p2, p3}, Word: "retriev"}

	m := New(g, sch, Options{})
	m.IndexAll([]rdf.IRI{a})
	if raw := m.Vectorize(a); raw[deep.Key()] != 0 {
		t.Error("deep composition should not happen on general graphs")
	}

	sch.SetTreeShaped()
	m = New(g, sch, Options{})
	m.IndexAll([]rdf.IRI{a})
	if raw := m.Vectorize(a); raw[deep.Key()] == 0 {
		t.Error("tree-shaped dataset should follow multiple steps")
	}
}

func TestCyclicGraphTerminates(t *testing.T) {
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	sch.SetTreeShaped() // lie: annotation says tree but graph has a cycle
	pNext := rdf.IRI(ex + "next")
	a, b := rdf.IRI(ex+"a"), rdf.IRI(ex+"b")
	g.Add(a, pNext, b)
	g.Add(b, pNext, a)
	g.Add(a, pContent, rdf.NewString("alpha"))
	g.Add(b, pContent, rdf.NewString("beta"))

	done := make(chan struct{})
	go func() {
		m := New(g, sch, Options{})
		m.IndexAll([]rdf.IRI{a, b})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cyclic graph traversal did not terminate")
	}
}

func TestRefinementCoords(t *testing.T) {
	// Build 6 recipes: 4 Greek (2 with feta), 2 Mexican; refine the Greek
	// subset — "feta" should rank as a refinement while "type=Recipe"
	// (universal) must not appear.
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	var greek []rdf.IRI
	var all []rdf.IRI
	for i := 0; i < 6; i++ {
		it := rdf.IRI(fmt.Sprintf("%sr%d", ex, i))
		all = append(all, it)
		g.Add(it, pType, clsRecipe)
		if i < 4 {
			g.Add(it, pCuisine, rdf.IRI(ex+"Greek"))
			greek = append(greek, it)
		} else {
			g.Add(it, pCuisine, rdf.IRI(ex+"Mexican"))
		}
		if i < 2 {
			g.Add(it, pIngredient, rdf.IRI(ex+"Feta"))
		}
		g.Add(it, pIngredient, rdf.IRI(fmt.Sprintf("%sunique%d", ex, i)))
	}
	m := New(g, sch, Options{})
	m.IndexAll(all)

	coords := m.RefinementCoords(greek, 10, nil)
	if len(coords) == 0 {
		t.Fatal("no refinement coordinates")
	}
	foundFeta := false
	for _, wc := range coords {
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == rdf.IRI(ex+"Feta") {
			foundFeta = true
		}
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == clsRecipe {
			t.Error("universal type coordinate should not be suggested")
		}
		if wc.Coord.Kind == CoordNumeric {
			t.Error("numeric coordinates must be filtered out")
		}
	}
	if !foundFeta {
		t.Errorf("feta not among refinements: %v", coords)
	}

	// accept filter narrows to words only.
	words := m.RefinementCoords(greek, 10, func(c Coord) bool { return c.Kind == CoordWord })
	for _, wc := range words {
		if wc.Coord.Kind != CoordWord {
			t.Errorf("accept filter violated: %v", wc)
		}
	}
}

func TestIndexItemAfterIndexAllClampsRange(t *testing.T) {
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	pN := rdf.IRI(ex + "n")
	a, b := rdf.IRI(ex+"a"), rdf.IRI(ex+"b")
	g.Add(a, pN, rdf.NewInteger(0))
	g.Add(b, pN, rdf.NewInteger(10))
	m := New(g, sch, Options{})
	m.IndexAll([]rdf.IRI{a, b})

	// New item beyond the observed range: clamps to θ = π/2.
	c := rdf.IRI(ex + "c")
	g.Add(c, pN, rdf.NewInteger(1000))
	m.IndexItem(c)
	vec := m.Vector(c)
	sinKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pN}, Axis: "sin"}.Key()
	cosKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pN}, Axis: "cos"}.Key()
	if vec[sinKey] == 0 {
		t.Error("clamped value should sit at the sin end of the quadrant")
	}
	if math.Abs(vec[cosKey]) > 1e-9 {
		t.Errorf("cos component should be ~0 at clamp, got %v", vec[cosKey])
	}
	if !m.RemoveItem(c) || m.RemoveItem(c) {
		t.Error("RemoveItem semantics")
	}
}

func TestExplainSimilarity(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	cobbler, pie := items[0], items[1]

	expl := m.ExplainSimilarity(cobbler, pie, 0)
	if len(expl) == 0 {
		t.Fatal("no explanation for similar desserts")
	}
	// Contributions sum to the similarity and are sorted descending.
	var sum float64
	for i, wc := range expl {
		sum += wc.Weight
		if i > 0 && wc.Weight > expl[i-1].Weight {
			t.Error("explanation not sorted")
		}
	}
	if math.Abs(sum-m.Similarity(cobbler, pie)) > 1e-9 {
		t.Errorf("contributions sum %v ≠ similarity %v", sum, m.Similarity(cobbler, pie))
	}
	// The shared Apple ingredient is among the top contributors.
	found := false
	for _, wc := range expl {
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == rdf.IRI(ex+"Apple") {
			found = true
		}
	}
	if !found {
		t.Errorf("shared apple missing from explanation: %v", expl)
	}
	// k truncates.
	if got := m.ExplainSimilarity(cobbler, pie, 2); len(got) != 2 {
		t.Errorf("k=2 gave %d", len(got))
	}
	// Disjoint items explain as empty.
	if got := m.ExplainSimilarity(cobbler, rdf.IRI(ex+"missing"), 5); len(got) != 0 {
		t.Errorf("missing item explanation = %v", got)
	}
}

func TestDebugVectorReadable(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	lines := m.DebugVector(items[0], func(p rdf.IRI) string { return p.LocalName() })
	if len(lines) == 0 {
		t.Fatal("empty debug vector")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ingredient") || !strings.Contains(joined, "⇒") {
		t.Errorf("debug output unreadable:\n%s", joined)
	}
}

// Property: for random small graphs, every indexed vector is unit norm (or
// empty) and Vectorize is deterministic.
func TestQuickModelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		sch := schema.NewStore(g)
		var items []rdf.IRI
		for i := 0; i < 6; i++ {
			it := rdf.IRI(fmt.Sprintf("%si%d", ex, i))
			items = append(items, it)
			for j := 0; j < rng.Intn(4)+1; j++ {
				p := rdf.IRI(fmt.Sprintf("%sp%d", ex, rng.Intn(3)))
				switch rng.Intn(3) {
				case 0:
					g.Add(it, p, rdf.IRI(fmt.Sprintf("%sv%d", ex, rng.Intn(4))))
				case 1:
					g.Add(it, p, rdf.NewString(fmt.Sprintf("word%d text", rng.Intn(4))))
				case 2:
					g.Add(it, rdf.IRI(ex+"num"), rdf.NewInteger(int64(rng.Intn(100))))
				}
			}
		}
		m := New(g, sch, Options{})
		m.IndexAll(items)
		for _, it := range items {
			var norm float64
			for _, w := range m.Vector(it) {
				norm += w * w
			}
			if len(m.Vector(it)) > 0 && math.Abs(norm-1) > 1e-6 {
				return false
			}
			a := m.Vectorize(it)
			b := m.Vectorize(it)
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if math.Abs(b[k]-v) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// One "INF"^^xsd:double used to become the property's Max, which made
// theta NaN for that item and 0 for every finite one. Non-finite values
// are not numeric now: they are left out of the range and the vectors.
func TestNonFiniteNumericValuesSkipped(t *testing.T) {
	g := rdf.NewGraph()
	sch := schema.NewStore(g)
	pSize := rdf.IRI(ex + "size")
	var items []rdf.IRI
	for i, lex := range []string{"1", "2", "3", "INF", "NaN"} {
		it := rdf.IRI(fmt.Sprintf("%sthing%d", ex, i))
		g.Add(it, pType, rdf.IRI(ex+"Thing"))
		g.Add(it, pSize, rdf.Literal{Lexical: lex, Datatype: rdf.XSDDouble})
		items = append(items, it)
	}
	m := New(g, sch, Options{})
	m.IndexAll(items)
	if r, ok := m.NumericRange([]rdf.IRI{pSize}); !ok || r.Min != 1 || r.Max != 3 || r.Count != 3 {
		t.Fatalf("NumericRange = %+v, %v; want 1..3 over 3 values", r, ok)
	}
	sinKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pSize}, Axis: "sin"}.Key()
	cosKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pSize}, Axis: "cos"}.Key()
	for i, it := range items {
		vec := m.Vector(it)
		for term, w := range vec {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Errorf("%s: %s = %v", it, term, w)
			}
		}
		_, hasSin := vec[sinKey]
		_, hasCos := vec[cosKey]
		if has := hasSin || hasCos; has != (i < 3) {
			t.Errorf("%s: numeric coordinate present = %v", it, has)
		}
	}
	if m.Vector(items[2])[sinKey] <= m.Vector(items[1])[sinKey] {
		t.Error("finite values no longer spread over the unit circle")
	}
}

// A range wider than MaxFloat64 overflows Max-Min; theta must still place
// values on [0, π/2] instead of returning NaN.
func TestThetaHugeSpan(t *testing.T) {
	r := Range{Min: -1e308, Max: 1e308, Count: 2}
	for v, want := range map[float64]float64{-1e308: 0, 0: math.Pi / 4, 1e308: math.Pi / 2} {
		if got := r.theta(v); math.Abs(got-want) > 1e-12 {
			t.Errorf("theta(%g) = %v, want %v", v, got, want)
		}
	}
}

// The centroid-taking variants are the collection methods with the
// centroid computed by the caller.
func TestCentroidTakingVariants(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.IndexAll(items)
	coll := items[:2]
	centroid := m.Centroid(coll)
	got, want := RefinementCoordsOf(centroid, 10, nil), m.RefinementCoords(coll, 10, nil)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("RefinementCoordsOf: %d coords, RefinementCoords: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Coord.Key() != want[i].Coord.Key() || !ApproxEqual(got[i].Weight, want[i].Weight) {
			t.Errorf("coord %d: %v vs %v", i, got[i], want[i])
		}
	}
	for _, exclude := range []bool{true, false} {
		got, want := m.SimilarToCentroid(centroid, coll, 5, exclude), m.SimilarToCollection(coll, 5, exclude)
		if len(got) != len(want) {
			t.Fatalf("exclude=%v: %d vs %d items", exclude, len(got), len(want))
		}
		for i := range got {
			if got[i].Item != want[i].Item || !ApproxEqual(got[i].Score, want[i].Score) {
				t.Errorf("exclude=%v, %d: %v vs %v", exclude, i, got[i], want[i])
			}
		}
	}
}
