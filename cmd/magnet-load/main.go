// Command magnet-load replays concurrent simulated-user navigation sessions
// (internal/simuser) against one shared core instance and reports step
// latency and throughput. It is the serving-side load harness: the proof
// that many sessions can step concurrently against one Magnet — and the
// source of the load-test entries in the committed BENCH_<date>.json
// snapshots.
//
// Each session is a full study task driven through core.Session (queries,
// refinements, pane assembly, facet overview), so the latencies are real
// end-to-end navigation steps, measured by the existing internal/obs step
// histograms (session.query.ns, session.pane.ns, session.overview.ns):
// the harness snapshots them before and after the run and reports the
// delta, so only this run's steps are counted.
//
// Usage:
//
//	magnet-load                                      # 200 sessions, in-memory corpus
//	magnet-load -parallelism 4                       # 4-wide worker pool
//	magnet-load -segments segs/recipes               # segment-backed
//	magnet-load -sessions 40 -concurrency 8 -out ""  # short smoke run, no snapshot write
//
// With -out (default BENCH_<date>.json) the results merge into that day's
// benchmark snapshot next to the microbenchmarks, replacing any previous
// magnet-load entries for the same configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"magnet/internal/benchfmt"
	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/obs"
	"magnet/internal/simuser"
)

func main() {
	dataset := flag.String("dataset", "recipes", "built-in dataset (must be recipes-vocabulary for the study tasks)")
	nRecipes := flag.Int("recipes", 2000, "in-memory recipe corpus size")
	seed := flag.Int64("seed", 1, "corpus and session seed")
	segments := flag.String("segments", "", "open a segment directory instead of building in memory")
	parallelism := flag.Int("parallelism", 0, "core worker-pool width (0 = GOMAXPROCS)")
	sessions := flag.Int("sessions", 200, "number of simulated-user sessions to replay")
	concurrency := flag.Int("concurrency", 0, "sessions in flight at once (0 = all of them)")
	out := flag.String("out", "", "benchmark snapshot to merge results into (default BENCH_<date>.json; empty with an explicit -out= skips the write)")
	minPlanHitRate := flag.Float64("min-plan-hit-rate", -1, "fail unless the planner's delta-cache hit rate (hits+deltas over lookups) reaches this fraction; negative disables the gate")
	outSet := false
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	if err := run(*dataset, *nRecipes, *seed, *segments, *parallelism,
		*sessions, *concurrency, *out, outSet, *minPlanHitRate); err != nil {
		fmt.Fprintf(os.Stderr, "magnet-load: %v\n", err)
		os.Exit(1)
	}
}

// open builds or opens the serving instance per the flags.
func open(dataset string, nRecipes int, seed int64, segments string, parallelism int) (*core.Magnet, string, error) {
	opts := core.Options{Parallelism: parallelism}
	if segments != "" {
		m, err := core.OpenSegments(segments, opts)
		if err != nil {
			return nil, "", err
		}
		return m, fmt.Sprintf("segment set %s", segments), nil
	}
	g, allSubjects, err := dataload.Load(dataload.Spec{Dataset: dataset, Recipes: nRecipes, Seed: seed})
	if err != nil {
		return nil, "", err
	}
	opts.IndexAllSubjects = allSubjects
	return core.Open(g, opts), fmt.Sprintf("in-memory %s corpus (%d recipes)", dataset, nRecipes), nil
}

// step is one of the session step histograms the harness reports on.
type step struct {
	name   string
	hist   *obs.Histogram
	before obs.HistSnapshot
	delta  obs.HistSnapshot
}

// planCounters snapshots the planner's delta-cache counters so the report
// covers only this run, mirroring the histogram snapshots for steps.
type planCounters struct {
	hit, miss, delta uint64
}

func snapshotPlanCounters() planCounters {
	return planCounters{
		hit:   obs.Default.Counter("plan.cache.hit").Value(),
		miss:  obs.Default.Counter("plan.cache.miss").Value(),
		delta: obs.Default.Counter("plan.cache.delta").Value(),
	}
}

// sub returns the per-run deltas against an earlier snapshot.
func (pc planCounters) sub(before planCounters) planCounters {
	return planCounters{hit: pc.hit - before.hit, miss: pc.miss - before.miss, delta: pc.delta - before.delta}
}

// hitRate is the fraction of cache lookups resolved without a from-scratch
// evaluation: exact hits plus parent deltas over all lookups. Note misses
// count every non-hit lookup, including the ones a delta then resolves, so
// lookups = hit + miss and deltas are a subset of misses.
func (pc planCounters) hitRate() float64 {
	lookups := pc.hit + pc.miss
	if lookups == 0 {
		return 0
	}
	return float64(pc.hit+pc.delta) / float64(lookups)
}

func run(dataset string, nRecipes int, seed int64, segments string, parallelism, sessions, concurrency int, out string, outSet bool, minPlanHitRate float64) error {
	if sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1")
	}
	if concurrency <= 0 || concurrency > sessions {
		concurrency = sessions
	}

	m, backing, err := open(dataset, nRecipes, seed, segments, parallelism)
	if err != nil {
		return err
	}
	defer m.Close()
	replay := simuser.NewReplay(m)
	if _, err := replay.Target(); err != nil {
		return err
	}

	fmt.Printf("magnet-load: %s, %d sessions, %d concurrent, GOMAXPROCS=%d\n",
		backing, sessions, concurrency, runtime.GOMAXPROCS(0))

	// Snapshot the process-global step histograms so the report covers only
	// this run (Replay preparation above already stepped a few sessions' worth
	// of nothing — NewReplay itself runs no sessions, but NewSession inside
	// the workers does the all-items query that lands in session.query.ns).
	steps := []*step{
		{name: "query", hist: obs.Default.Histogram("session.query.ns")},
		{name: "pane", hist: obs.Default.Histogram("session.pane.ns")},
		{name: "overview", hist: obs.Default.Histogram("session.overview.ns")},
	}
	for _, st := range steps {
		st.before = st.hist.Snapshot()
	}
	planBefore := snapshotPlanCounters()

	// Replay: an atomic cursor hands out session indices; `concurrency`
	// workers run them, every session a fresh core.Session against the one
	// shared instance.
	var next atomic.Int64
	var found atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				found.Add(int64(replay.Session(i, seed+int64(i)*7919)))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var combined obs.HistSnapshot
	for _, st := range steps {
		st.delta = st.hist.Snapshot().Sub(st.before)
		combined = combined.Add(st.delta)
	}
	if combined.Count == 0 {
		return fmt.Errorf("no navigation steps recorded — the replay did nothing")
	}

	qps := float64(combined.Count) / wall.Seconds()
	fmt.Printf("  %d sessions in %s: %d steps, %.1f steps/s, %d recipes found\n",
		sessions, wall.Round(time.Millisecond), combined.Count, qps, found.Load())
	for _, st := range append(steps, &step{name: "step", delta: combined}) {
		if st.delta.Count == 0 {
			continue
		}
		fmt.Printf("  %-8s count=%-6d p50=%-10s p99=%s\n", st.name, st.delta.Count,
			time.Duration(st.delta.Quantile(0.5)), time.Duration(st.delta.Quantile(0.99)))
	}
	plan := snapshotPlanCounters().sub(planBefore)
	planRate := plan.hitRate()
	if plan.hit+plan.miss > 0 {
		fmt.Printf("  plan.cache hit-rate=%.1f%% (hits=%d deltas=%d misses=%d lookups=%d)\n",
			planRate*100, plan.hit, plan.delta, plan.miss-plan.delta, plan.hit+plan.miss)
	}
	if minPlanHitRate >= 0 && planRate < minPlanHitRate {
		return fmt.Errorf("plan-cache hit rate %.3f below required %.3f", planRate, minPlanHitRate)
	}

	if outSet && out == "" {
		return nil
	}

	doc, err := benchfmt.Load(orDefault(out))
	if err != nil {
		return err
	}
	name := "BenchmarkLoadSessions/concurrency=" + strconv.Itoa(concurrency)
	entry := benchfmt.Benchmark{
		Name:       name,
		Pkg:        "magnet/cmd/magnet-load",
		Procs:      runtime.GOMAXPROCS(0),
		Iterations: int64(sessions),
		Metrics: map[string]float64{
			"steps/s":           qps,
			"p50-step-ns":       float64(combined.Quantile(0.5)),
			"p99-step-ns":       float64(combined.Quantile(0.99)),
			"p50-query-ns":      float64(steps[0].delta.Quantile(0.5)),
			"p99-query-ns":      float64(steps[0].delta.Quantile(0.99)),
			"p50-pane-ns":       float64(steps[1].delta.Quantile(0.5)),
			"p99-pane-ns":       float64(steps[1].delta.Quantile(0.99)),
			"p50-overview-ns":   float64(steps[2].delta.Quantile(0.5)),
			"p99-overview-ns":   float64(steps[2].delta.Quantile(0.99)),
			"steps":             float64(combined.Count),
			"plan-hit-rate":     planRate,
			"plan-cache-hits":   float64(plan.hit),
			"plan-cache-deltas": float64(plan.delta),
			"gomaxprocs":        float64(runtime.GOMAXPROCS(0)),
			"wall-s":            wall.Seconds(),
		},
	}
	doc.Merge(entry)
	path := orDefault(out)
	if err := doc.Write(path); err != nil {
		return err
	}
	fmt.Printf("  merged %s into %s\n", name, path)
	return nil
}

// orDefault resolves the output path: empty means today's BENCH_<date>.json.
func orDefault(out string) string {
	if out != "" {
		return out
	}
	return benchfmt.New().FileName()
}
