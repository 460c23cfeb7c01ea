package query

import (
	"magnet/internal/itemset"
	"magnet/internal/rdf"
)

// Candidate-first evaluation: the planner's fast path. Once a cheap term
// has produced a small candidate set, the remaining conjuncts only need to
// decide membership *within* those candidates — a galloping intersect
// against a posting list, or a per-candidate probe — never a full
// materialization of their own result sets. Predicates opt in by
// implementing WithinEvaluator; everything else falls back to Eval + an
// intersect, which is exactly the naive semantics, so planned output is
// byte-identical to the unplanned path by construction.

// WithinEvaluator is the optional candidate-first fast path on a
// Predicate: EvalWithin must return the same set as
// Eval(e).IDs() ∩ candidates, expressed on the engine's dense-ID plane.
type WithinEvaluator interface {
	Predicate
	EvalWithin(e *Engine, candidates itemset.Set) itemset.Set
}

// EvalWithinSet evaluates p restricted to candidates (which must be on
// the engine's dense-ID plane): the dispatch point the planner and the
// composite predicates' own EvalWithin methods share. The result always
// equals Eval(e).IDs() ∩ candidates.
func EvalWithinSet(e *Engine, p Predicate, candidates itemset.Set) itemset.Set {
	if candidates.IsEmpty() {
		return itemset.Set{}
	}
	if w, ok := p.(WithinEvaluator); ok {
		return w.EvalWithin(e, candidates)
	}
	// Fallback: full evaluation, then intersect. Intersect is
	// rebase-aware, so custom predicates built over a foreign interner
	// (the engine-less NewSet path) still land on the engine's ID plane.
	return e.FromIDs(candidates).Intersect(p.Eval(e)).IDs()
}

// EvalWithin implements WithinEvaluator: one galloping intersect of the
// candidates against the copy-on-write posting list — no result-set
// materialization at all.
func (p Property) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	return candidates.Intersect(e.g.SubjectIDSet(p.Prop, p.Value))
}

// EvalWithin implements WithinEvaluator. It chases the path backwards
// like Eval as far as the resources one hop from the items — those
// frontiers range over linked resources, not candidate items — and then
// only collects candidates: each resource's posting is intersected with
// them rather than unioned whole.
func (p PathProperty) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	if len(p.Path) == 0 {
		return itemset.Set{}
	}
	if len(p.Path) == 1 {
		return candidates.Intersect(e.g.SubjectIDSet(p.Path[0], p.Value))
	}
	b := itemset.NewBits(e.g.Interner().Len())
	var buf []uint32 // intersection scratch, reused across resources
	p.chase(e, 1).ForEach(func(id uint32) bool {
		inter := itemset.IntersectInto(buf, candidates, e.g.SubjectIDSet(p.Path[0], e.g.SubjectByID(id)))
		buf = inter.Buffer()[:0]
		b.AddSlice(inter.Slice())
		return true
	})
	return b.Extract()
}

// rangeWithinCutoff bounds Range's per-candidate path: each candidate
// check costs one forward-index probe over that item's values, so for
// large candidate sets the value-domain walk of Eval (one reverse-index
// probe per distinct value) wins. Both branches compute the same set.
const rangeWithinCutoff = 256

// EvalWithin implements WithinEvaluator: small candidate sets are checked
// item-by-item against the forward index (Eval's value-domain walk would
// visit every distinct value of the property, in or out of the
// candidates); large ones fall back to Eval + intersect.
func (r Range) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	if candidates.Len() > rangeWithinCutoff {
		return candidates.Intersect(r.Eval(e).IDs())
	}
	kept := make([]uint32, 0, candidates.Len())
	candidates.ForEach(func(id uint32) bool {
		if r.matchesSubject(e, id) {
			kept = append(kept, id)
		}
		return true
	})
	return itemset.FromSorted(kept)
}

// matchesSubject reports whether one item carries an in-range value of
// Prop — the per-candidate dual of Eval's value-domain walk, with the
// same literal-and-parseable admission rules.
func (r Range) matchesSubject(e *Engine, id uint32) bool {
	match := false
	e.g.ForEachObject(e.g.SubjectByID(id), r.Prop, func(v rdf.Term) bool {
		lit, ok := v.(rdf.Literal)
		if !ok {
			return true
		}
		f, ok := lit.Float()
		if !ok {
			return true
		}
		if r.Min != nil && f < *r.Min {
			return true
		}
		if r.Max != nil && f > *r.Max {
			return true
		}
		match = true
		return false
	})
	return match
}

// EvalWithin implements WithinEvaluator: the lazy complement that keeps
// Not from materializing the universe on the planned path.
// (C ∩ U) \ E = C ∩ (U \ E), and the inner predicate itself only needs
// to be decided within C ∩ U — recursively through EvalWithinSet, so a
// Not over a Range checks candidates item-by-item too.
func (n Not) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	w := candidates.Intersect(e.Universe().IDs())
	if w.IsEmpty() {
		return w
	}
	return w.Minus(EvalWithinSet(e, n.P, w))
}

// EvalWithin implements WithinEvaluator by folding every conjunct over
// the shrinking candidate set; the empty conjunction is the universe, so
// it restricts the candidates to it.
func (a And) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	if len(a.Ps) == 0 {
		return candidates.Intersect(e.Universe().IDs())
	}
	out := candidates
	for _, p := range a.Ps {
		if out.IsEmpty() {
			return out
		}
		out = EvalWithinSet(e, p, out)
	}
	return out
}

// EvalWithin implements WithinEvaluator: restriction distributes over
// union, (∪ᵢ Eᵢ) ∩ C = ∪ᵢ (Eᵢ ∩ C), so each branch is decided within the
// candidates independently.
func (o Or) EvalWithin(e *Engine, candidates itemset.Set) itemset.Set {
	var out itemset.Set
	for _, p := range o.Ps {
		out = out.Union(EvalWithinSet(e, p, candidates))
	}
	return out
}
