package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"time"

	"magnet/internal/advisors"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/vsm"
)

// Layer span names: one per public call the web handlers make into the
// program. The click root's self time is the glue between them
// (Items, Label and graph reads), reported as unattributed.
const (
	spanClick    = "click"
	spanQuery    = "query"        // Session navigation calls
	spanAnalysts = "analysts"     // Session.Board
	spanAdvisors = "advisors"     // advisors.Build
	spanFacets   = "facets"       // Session.Overview
	spanVectors  = "vectors.item" // Model().SimilarToItem + ExplainSimilarityText
)

// span is one timed call, kept in memory until the run ends. Spans of one
// click share a trace ID; parent is -1 for the click root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans for one serial pass. With on false it records only
// click roots, so the same pass runs untraced for the overhead figure.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// call times fn as a child of parent when tracing is on.
func (t *tracer) call(trace, parent int, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := t.begin(trace, parent, name)
	fn()
	t.finish(id)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// mirror replays clicks by issuing the same public calls the web handlers
// make for them, each inside a benchmark-owned span. Session.Board
// followed by advisors.Build stands in for Session.Pane, which gives the
// same pane.
type mirror struct {
	m    *core.Magnet
	cfgs []advisors.Config
	t    *tracer
	// traces counts the clicks replayed so far: the next trace ID.
	traces int
}

// session replays one logged session serially on a fresh core.Session,
// one trace ID per click, and returns the click roots' durations.
func (mr *mirror) session(s *session) ([]time.Duration, error) {
	roots := make([]time.Duration, 0, len(s.clicks))
	var sess *core.Session
	for _, c := range s.clicks {
		trace := mr.traces
		mr.traces++
		root := mr.t.begin(trace, -1, spanClick)
		err := mr.click(&sess, c.uri, trace, root)
		mr.t.finish(root)
		if err != nil {
			return nil, fmt.Errorf("traced replay of %q: %w", c.uri, err)
		}
		roots = append(roots, mr.t.spans[root].dur())
	}
	return roots, nil
}

func (mr *mirror) click(sessp **core.Session, uri string, trace, root int) error {
	t := mr.t
	if *sessp == nil {
		// The web server creates the session on first contact.
		t.call(trace, root, spanQuery, func() { *sessp = mr.m.NewSession() })
	}
	sess := *sessp
	u, err := url.Parse(uri)
	if err != nil {
		return err
	}
	q := u.Query()
	nav := func(fn func()) {
		t.call(trace, root, spanQuery, fn)
		mr.collection(sess, trace, root)
	}
	switch u.Path {
	case "/":
		mr.collection(sess, trace, root)
	case "/go":
		var board *blackboard.Board
		t.call(trace, root, spanAnalysts, func() { board = sess.Board() })
		var found *blackboard.Suggestion
		for _, sg := range board.Suggestions() {
			if sg.Key == q.Get("k") {
				found = &sg
				break
			}
		}
		if found == nil {
			return fmt.Errorf("suggestion %q not on the board", q.Get("k"))
		}
		action := found.Action
		if ref, ok := action.(blackboard.Refine); ok && q.Get("mode") != "" {
			ref.Mode = refineMode(q.Get("mode"))
			action = ref
		}
		switch action.(type) {
		case blackboard.ShowRange:
		case blackboard.ShowSearch:
			mr.collection(sess, trace, root)
		case blackboard.ShowOverview:
			mr.overview(sess, trace, root)
		default:
			nav(func() { err = sess.Apply(action) })
		}
		return err
	case "/open":
		item := rdf.IRI(q.Get("item"))
		if !mr.m.Graph().HasSubject(item) {
			return fmt.Errorf("no item %q", item)
		}
		t.call(trace, root, spanQuery, func() { sess.OpenItem(item) })
		mr.item(item, trace, root)
	case "/overview":
		mr.overview(sess, trace, root)
	case "/refine":
		term, ok := rdf.ParseTermKey(q.Get("vk"))
		if !ok {
			return fmt.Errorf("bad value key %q", q.Get("vk"))
		}
		p := query.Property{Prop: rdf.IRI(q.Get("prop")), Value: term}
		nav(func() { sess.Refine(p, refineMode(q.Get("mode"))) })
	case "/back":
		nav(func() { sess.Back() })
	case "/home":
		nav(sess.GoHome)
	case "/rm", "/neg":
		i, err := strconv.Atoi(q.Get("i"))
		if err != nil {
			return err
		}
		if u.Path == "/rm" {
			nav(func() { sess.RemoveConstraint(i) })
		} else {
			nav(func() { sess.NegateConstraint(i) })
		}
	default:
		return fmt.Errorf("no route %q", u.Path)
	}
	return nil
}

func refineMode(mode string) blackboard.RefineMode {
	switch mode {
	case "exclude":
		return blackboard.Exclude
	case "expand":
		return blackboard.Expand
	}
	return blackboard.Filter
}

// collection mirrors the collection page: the pane, then the first 40
// items' labels.
func (mr *mirror) collection(sess *core.Session, trace, root int) {
	var board *blackboard.Board
	mr.t.call(trace, root, spanAnalysts, func() { board = sess.Board() })
	mr.t.call(trace, root, spanAdvisors, func() {
		advisors.Build(sess.Query(), mr.m.Labeler(), board, mr.cfgs)
	})
	items := sess.Items()
	if len(items) > 40 {
		items = items[:40]
	}
	for _, it := range items {
		mr.m.Label(it)
	}
}

// overview mirrors the facet overview page.
func (mr *mirror) overview(sess *core.Session, trace, root int) {
	mr.t.call(trace, root, spanFacets, func() { sess.Overview(8) })
	_ = len(sess.Items())
}

// item mirrors the item page: its attributes, then its similar items with
// their explanations.
func (mr *mirror) item(item rdf.IRI, trace, root int) {
	g := mr.m.Graph()
	mr.m.Label(item)
	for _, p := range g.PredicatesOf(item) {
		mr.m.Label(p)
		for _, v := range g.Objects(item, p) {
			g.TermLabel(v)
			if iri, ok := v.(rdf.IRI); ok {
				g.HasSubject(iri)
			}
		}
	}
	var sims []vsm.ScoredItem
	mr.t.call(trace, root, spanVectors, func() {
		sims = mr.m.Model().SimilarToItem(item, 6)
		for _, sc := range sims {
			mr.m.ExplainSimilarityText(item, sc.Item, 3)
		}
	})
	for _, sc := range sims {
		mr.m.Label(sc.Item)
	}
}
