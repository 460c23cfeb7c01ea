package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/web"
)

// smallRecipes is the self-test corpus size: big enough that every
// scripted click kind finds links, small enough to run in seconds.
const smallRecipes = 300

// declared reads the workloads, and the metric names and units,
// BENCHMARK.json declares.
func declared(t *testing.T) (names []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return names, endToEnd, perLayer
}

// TestWorkloadsPrintDeclaredMetrics runs every declared workload on a
// small corpus, untraced and traced, and checks that the result line
// carries exactly the metrics BENCHMARK.json declares, each with its unit.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 1, trace: trace, recipes: smallRecipes, out: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", w.name, trace, name)
				}
			}
		}
	}
}

// TestVerifyCatchesCorruptDigest checks that the naive-path comparison
// flags a click whose recorded body digest was corrupted, and counts it
// as a failure.
func TestVerifyCatchesCorruptDigest(t *testing.T) {
	w, err := findWorkload("browse-full")
	if err != nil {
		t.Fatal(err)
	}
	g := recipes.Build(recipes.Config{Recipes: smallRecipes, Seed: 3})
	m := core.Open(g, core.Options{Analysts: w.analysts()})
	defer m.Close()
	log, err := runClients(web.NewServer(m, web.WithLogger(quiet)), w, 3, clients, 2)
	if err != nil {
		t.Fatal(err)
	}
	naive := core.Open(g, core.Options{Analysts: w.analysts(), Parallelism: 1, PlanCache: -1})
	defer naive.Close()
	newHandler := func() http.Handler { return web.NewServer(naive, web.WithLogger(quiet)) }

	bad, err := verify(newHandler, log, clients)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFailed(log, bad); n != 0 {
		t.Fatalf("clean log: %d failed clicks, want 0", n)
	}

	log[1].clicks[3].digest[0] ^= 0xff
	bad, err = verify(newHandler, log, clients)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFailed(log, bad); n != 1 {
		t.Fatalf("corrupted digest: %d failed clicks, want 1", n)
	}
}

// TestSelfTimes checks that a span's self time excludes the part of its
// interval its children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},
		{ID: 3, Parent: 1, Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := []int64{60, 25, 20, 5}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSetExcess checks that a difference between two passes beyond its
// noise is recorded as measured, and one within it as no difference.
func TestSetExcess(t *testing.T) {
	msec := func(vs ...int) []time.Duration {
		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v) * time.Millisecond
		}
		return ds
	}
	r := &report{metrics: map[string]metric{}, log: io.Discard}
	// Every session 10 ms slower: no spread, so 30 ms of 600 resolves.
	r.setExcess("steady", 1, msec(110, 210, 310), msec(100, 200, 300), 600e6, "ratio")
	// +10, -10 and +5 ms: 5 ms of 600, well within the spread.
	r.setExcess("noisy", 0, msec(110, 190, 305), msec(100, 200, 300), 600e6, "ratio")
	if got := r.metrics["steady"].Value; got < 1.0499 || got > 1.0501 {
		t.Errorf("steady excess recorded as %v, want 1.05", got)
	}
	if got := r.metrics["noisy"].Value; got != 0 {
		t.Errorf("noisy excess recorded as %v, want 0 (unresolved)", got)
	}
}
