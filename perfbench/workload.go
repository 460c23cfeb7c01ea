package main

import (
	"fmt"
	"html"
	"math/rand"
	"regexp"
	"strings"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
)

// kind classifies a click by the route the user clicked.
type kind int

const (
	kindLanding    kind = iota // the session's first page, GET /
	kindCollection             // a "back to collection" link, GET /
	kindSuggest                // a pane suggestion, /go
	kindOpen                   // an item page, /open
	kindOverview               // the facet overview, /overview
	kindFacet                  // a facet-value refinement, /refine
	kindBack                   // /back
	kindRemove                 // /rm, drop a constraint
	kindNegate                 // /neg, negate a constraint
	kindHome                   // /home
	numKinds
)

var kindNames = [numKinds]string{"landing", "collection", "suggest", "open", "overview", "facet", "back", "remove", "negate", "home"}

func (k kind) String() string { return kindNames[k] }

// undo reports whether the kind steps back or widens the query: the
// clicks undo_p50_ms covers.
func (k kind) undo() bool { return k >= kindBack && k <= kindHome }

var routes = map[string]kind{
	"/":         kindCollection,
	"/go":       kindSuggest,
	"/open":     kindOpen,
	"/overview": kindOverview,
	"/refine":   kindFacet,
	"/back":     kindBack,
	"/rm":       kindRemove,
	"/neg":      kindNegate,
	"/home":     kindHome,
}

// classify maps a clicked URI to its kind; ok is false for links the
// simulated user never follows (the keyword form, external anchors).
func classify(uri string) (kind, bool) {
	path, _, _ := strings.Cut(uri, "?")
	k, ok := routes[path]
	return k, ok
}

// workload is one seeded browse shape: which system serves it and the
// click script its simulated users follow. BENCHMARK.json records why
// each exists.
type workload struct {
	name string
	// baseline serves analysts.BaselineSet (magnet-server -baseline)
	// instead of the full analysts.DefaultSet.
	baseline bool
	// scripts give the kind of every click of a session after the landing
	// page: the user follows a link of that kind from the page just
	// served. Session g follows scripts[g%len(scripts)]; all scripts have
	// the same length. Fixed scripts fix the click mix of a run, so runs
	// differ only in which links were drawn.
	scripts [][]kind
	// rate is the nominal clicks per second that sizes a run: a run of
	// --seconds s issues a fixed rate×s clicks, however fast they go. The
	// rates are what one client reached on each workload on a two-vCPU
	// virtual machine.
	rate float64
}

func (w *workload) analysts() func(*analysts.Env) []blackboard.Analyst {
	if w.baseline {
		return analysts.BaselineSet
	}
	return analysts.DefaultSet
}

// sessionLength is the number of clicks in a session, landing included.
func (w *workload) sessionLength() int { return 1 + len(w.scripts[0]) }

var workloads = []*workload{
	{
		// The paper's complete system as its users meet it: pane
		// suggestions and item pages, with some overview, facet-value and
		// back clicks. Item pages carry no pane, so the user returns to
		// the collection before the next suggestion.
		name: "browse-full",
		scripts: [][]kind{{
			kindSuggest, kindOpen, kindCollection, kindSuggest, kindOverview,
			kindFacet, kindBack, kindSuggest, kindOpen,
		}},
		rate: 16,
	},
	{
		// The baseline analysts and no item pages: facets, the refinement
		// analyst and the planner work while the vector layer idles.
		name:     "drill-baseline",
		baseline: true,
		// One undo click a session, rotating through back, remove and
		// negate.
		scripts: [][]kind{
			{kindOverview, kindFacet, kindSuggest, kindOverview, kindFacet, kindBack},
			{kindOverview, kindFacet, kindSuggest, kindOverview, kindFacet, kindRemove},
			{kindOverview, kindFacet, kindSuggest, kindOverview, kindFacet, kindNegate},
		},
		rate: 21,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

var hrefRE = regexp.MustCompile(`href="([^"]*)"`)

// links returns the distinct followable links of a page, grouped by kind,
// each group in page order.
func links(body []byte) [numKinds][]string {
	var out [numKinds][]string
	seen := make(map[string]bool)
	for _, m := range hrefRE.FindAllSubmatch(body, -1) {
		uri := html.UnescapeString(string(m[1]))
		if seen[uri] {
			continue
		}
		seen[uri] = true
		if k, ok := classify(uri); ok {
			out[k] = append(out[k], uri)
		}
	}
	return out
}

// next picks click number i (1-based, after the landing page) of session
// g from the page's links: one of the kind g's script gives that click,
// the one at position u in [0, 1) of that kind's links in page order.
// When the page offers no link of that kind (an empty collection has no
// facet values) the kind is drawn from the kinds the page offers,
// weighted by how often the script uses them.
func (w *workload) next(rng *rand.Rand, g, i int, u float64, body []byte) string {
	ls := links(body)
	script := w.scripts[g%len(w.scripts)]
	if k := script[i-1]; len(ls[k]) > 0 {
		return ls[k][int(u*float64(len(ls[k])))]
	}
	var offered []kind
	for _, k := range script {
		if len(ls[k]) > 0 {
			offered = append(offered, k)
		}
	}
	if len(offered) == 0 {
		return "/"
	}
	k := offered[rng.Intn(len(offered))]
	return ls[k][rng.Intn(len(ls[k]))]
}
