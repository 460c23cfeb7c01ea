package main

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"magnet/internal/advisors"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/obs"
	"magnet/internal/rdf"
	"magnet/internal/web"
)

const (
	// repeats is how many times a run times its sessions, each time on a
	// freshly opened instance.
	repeats = 2
	// setupSamples is how many set-ups a run times: one per repeat, and
	// the rest on instances opened only for that.
	setupSamples = 3
	// corpusSeed generates the one recipes corpus every run serves: the
	// generator's own default, so the workload seed varies the users'
	// sessions, not the repository. Corpora from different seeds differ
	// enough in their value counts to move drill-baseline's clicks/s by
	// a fifth, which would drown the changes the benchmark is for.
	corpusSeed = 1
	// warmSessions is how many untimed sessions the client browses before
	// timing starts.
	warmSessions = 2
	// clients is the number of closed-loop clients in the timed phase.
	// With one, the process's CPU time during a click is that click's own.
	clients = 1
	// loadClients is the number of clients at once in the traced run's
	// contention pass, and of naive-path replay workers: one per CPU of the
	// two-CPU machine the benchmark was sized on.
	loadClients = 2
)

// config is one run's settings.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	recipes  int
	out      string
}

// sessions sizes each repeat of the timed phase: a fixed number of
// clicks per run, the workload's nominal rate times the run length, shared
// among the repeats and rounded to whole sessions, at least one per client.
func (c config) sessions() int {
	n := c.workload.rate * float64(c.seconds) / float64(repeats*c.workload.sessionLength())
	return max(clients, int(n+0.5))
}

// setupSample is one timed open: core.Open until the first page is
// served.
type setupSample struct {
	open, firstPage, text, vectors time.Duration
}

// run executes one benchmark run and returns its result line.
func run(cfg config, log io.Writer) (*result, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%s-seed%d", w.name, cfg.seed)
	fmt.Fprintf(log, "perfbench: %s, %d recipes (corpus seed %d), session seed %d, %d clients, GOMAXPROCS=%d\n",
		w.name, cfg.recipes, corpusSeed, cfg.seed, clients, runtime.GOMAXPROCS(0))

	// Input preparation, outside every timer.
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(log, "  phase %-10s %6.2fs\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	g := recipes.Build(recipes.Config{Recipes: cfg.recipes, Seed: corpusSeed})
	opts := core.Options{Analysts: w.analysts()}
	naiveOpts := opts
	naiveOpts.Parallelism, naiveOpts.PlanCache = 1, -1
	lap("prepare")

	// The timed phase, repeated: each repeat opens a fresh instance (a
	// timed set-up), browses the untimed warm-up sessions so the plan and
	// vector caches fill, and then times the same sessions. Every repeat
	// thus does the same work from the same state.
	n := cfg.sessions()
	logs := make([][]*session, repeats)
	var setups []setupSample
	var wall time.Duration
	var heap float64
	conc := probe{}
	warmFailed := 0
	for r := range logs {
		s, m, err := timedSetup(g, opts)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		srv := web.NewServer(m, web.WithLogger(quiet))
		nw, err := warmUp(srv, w, cfg.seed)
		if err != nil {
			m.Close()
			return nil, err
		}
		warmFailed += nw
		runtime.GC()
		runtime.GC()
		if r == 0 {
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			heap = float64(mem.HeapAlloc) / (1 << 20)
		}
		before, start := takeProbe(), time.Now()
		logs[r], err = runClients(srv, w, cfg.seed, clients, n)
		wall += time.Since(start)
		conc.add(takeProbe().since(before))
		m.Close()
		if err != nil {
			return nil, err
		}
	}
	for len(setups) < setupSamples {
		s, m, err := timedSetup(g, opts)
		if err != nil {
			return nil, err
		}
		m.Close()
		setups = append(setups, s)
	}
	lap("timed")
	clickLog := logs[0]

	// Correctness: every click ends in a 200, every page of the first
	// repeat equals the naive path's serial replay of the same session,
	// and every later repeat serves the first one's pages.
	naive := core.Open(g, naiveOpts)
	// One server per worker: sessions are independent, and separate
	// servers keep the workers off each other's session mutex.
	bad, err := verify(func() http.Handler { return web.NewServer(naive, web.WithLogger(quiet)) }, clickLog, loadClients)
	naive.Close()
	if err != nil {
		return nil, fmt.Errorf("naive replay: %w", err)
	}
	lap("verify")
	if err := writeClickLog(filepath.Join(cfg.out, "clicks-"+tag+".tsv"), clickLog, bad); err != nil {
		return nil, err
	}
	var all []click
	var status4xx5xx, mismatched, failed int
	for r, rl := range logs {
		failed += countFailed(rl, bad)
		for j, s := range rl {
			for i := range s.clicks {
				all = append(all, s.clicks[i])
				if !s.clicks[i].ok() {
					status4xx5xx++
				}
			}
			if r > 0 {
				d := mismatches(clickLog[j].clicks, s.clicks)
				failed += d
				mismatched += d
			}
		}
	}
	for _, n := range bad {
		mismatched += n * repeats
	}
	failed += warmFailed
	attempted := len(all) + repeats*warmSessions*w.sessionLength()

	fmt.Fprintf(log, "  clicks: %d timed in %d repeats of %d sessions + %d warm-up; failed %d (non-200 %d, naive-path or repeat mismatches %d, warm-up %d), failed_ratio %.4f\n",
		len(all), repeats, n, attempted-len(all), failed, status4xx5xx, mismatched, warmFailed, ratio(float64(failed), float64(attempted)))
	fmt.Fprintln(log, " click latency (printed, not in the result line):")
	for _, l := range latencies(all) {
		fmt.Fprintf(log, "  %-40s %14.4f ms  (n=%d)\n", l.name, l.ms, l.n)
	}

	e2e := &report{metrics: map[string]metric{}, log: log}
	fmt.Fprintln(log, " end-to-end (tracing off):")
	setupTotals := make([]time.Duration, len(setups))
	for i, s := range setups {
		setupTotals[i] = s.open + s.firstPage
	}
	e2e.set("setup_s", quantile(setupTotals, 0.5).Seconds(), "s")
	// A click's CPU time is the least over the repeats of that click.
	// Whatever else the shared machine runs can only add to it, and a
	// stretch in which it ran slow seldom covers the same click twice.
	var cpu time.Duration
	nClicks := 0
	for j := range clickLog {
		for i := range clickLog[j].clicks {
			least := clickLog[j].clicks[i].cpu
			for _, l := range logs[1:] {
				least = min(least, l[j].clicks[i].cpu)
			}
			cpu += least
			nClicks++
		}
	}
	e2e.set("click_cpu_ms", ms(cpu)/float64(nClicks), "ms")
	e2e.set("heap_mb", heap, "MB")
	// Wall-clock throughput follows the share of the machine the run was
	// granted as much as the program, so it is printed, and carried with
	// the per-layer metrics, but not gated.
	throughput := metric{Value: float64(len(all)) / wall.Seconds(), Unit: "1/s"}
	fmt.Fprintf(log, "  %-40s %14.4f %s  (wall clock, not gated)\n", "clicks_per_s", throughput.Value, throughput.Unit)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e.metrics}
	if !cfg.trace {
		return res, nil
	}

	// Each pass of the traced run gets an instance of its own, opened and
	// warmed up as each repeat's was, so it meets the click log with the
	// caches the timed sessions met it with.
	fresh := func() (*core.Magnet, http.Handler, error) {
		m := core.Open(g, opts)
		srv := web.NewServer(m, web.WithLogger(quiet))
		if n, err := warmUp(srv, w, cfg.seed); err != nil || n > 0 {
			m.Close()
			if err == nil {
				err = fmt.Errorf("warm-up of a replay instance: %d clicks failed", n)
			}
			return nil, nil, err
		}
		return m, srv, nil
	}
	// The traced run reads the timed phase's counters per click of one
	// repeat.
	for k := range conc {
		conc[k] /= repeats
	}
	layers, extraFailed, err := traced(cfg, fresh, clickLog, conc, setups, tag, log)
	if err != nil {
		return nil, err
	}
	lap("traced")
	res.Failed += extraFailed
	res.Correct = res.Failed == 0
	layers["clicks_per_s"] = throughput
	res.Metrics = layers
	return res, nil
}

// cpuTime returns the CPU time the process has used so far, user and
// system, in all its threads. The kernel leaves out time a hypervisor
// took from the virtual CPUs, so this counts the program's own work, not
// the share of the machine it was granted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup opens an instance of g and serves its first page, timing
// both, and returns the open instance.
func timedSetup(g *rdf.Graph, opts core.Options) (setupSample, *core.Magnet, error) {
	runtime.GC()
	var s setupSample
	start := time.Now()
	m := core.Open(g, opts)
	s.open = time.Since(start)
	b := &browser{h: web.NewServer(m, web.WithLogger(quiet))}
	status, _, err := b.click("/")
	s.firstPage = time.Since(start) - s.open
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		m.Close()
		return s, nil, fmt.Errorf("first page: %w", err)
	}
	s.text = time.Duration(obs.Default.Gauge("startup.text.ns").Value())
	s.vectors = time.Duration(obs.Default.Gauge("startup.vectors.ns").Value())
	return s, m, nil
}

// warmUp browses the run's untimed warm-up sessions on h and returns how
// many of their clicks did not end in a 200.
func warmUp(h http.Handler, w *workload, seed int64) (int, error) {
	warm, err := runClients(h, w, ^seed, clients, warmSessions)
	if err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	failed := 0
	for _, s := range warm {
		for i := range s.clicks {
			if !s.clicks[i].ok() {
				failed++
			}
		}
	}
	return failed, nil
}

// latency is one row of a click-latency table.
type latency struct {
	name string
	ms   float64
	n    int
}

// latencies returns the exact click p50 and p99 and the per-route
// medians of a set of clicks: suggestions (/go), item pages (/open), the
// overview, facet values (/refine) and undo clicks (/back, /rm, /neg,
// /home). A route with no clicks reads 0.
func latencies(clicks []click) []latency {
	groups := []struct {
		name string
		in   func(kind) bool
	}{
		{"suggest_p50_ms", func(k kind) bool { return k == kindSuggest }},
		{"open_p50_ms", func(k kind) bool { return k == kindOpen }},
		{"overview_p50_ms", func(k kind) bool { return k == kindOverview }},
		{"facet_p50_ms", func(k kind) bool { return k == kindFacet }},
		{"undo_p50_ms", kind.undo},
	}
	all := make([]time.Duration, len(clicks))
	for i := range clicks {
		all[i] = clicks[i].dur
	}
	out := []latency{
		{"click_p50_ms", ms(quantile(all, 0.5)), len(all)},
		{"click_p99_ms", ms(quantile(all, 0.99)), len(all)},
	}
	for _, g := range groups {
		var ds []time.Duration
		for i := range clicks {
			if g.in(clicks[i].kind) {
				ds = append(ds, clicks[i].dur)
			}
		}
		out = append(out, latency{g.name, ms(quantile(ds, 0.5)), len(ds)})
	}
	return out
}

// countFailed counts the clicks that did not end in a 200 or whose page
// differed from the naive path's.
func countFailed(log []*session, bad []int) int {
	n := 0
	for j, s := range log {
		for i := range s.clicks {
			if !s.clicks[i].ok() {
				n++
			}
		}
		n += bad[j]
	}
	return n
}

// writeClickLog writes the first repeat's clicks as tab-separated lines:
// session, client, click index, kind, status, body digest, latency in ms,
// the session's naive-path mismatch count, and the URI clicked.
func writeClickLog(path string, log []*session, bad []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "session\tclient\tclick\tkind\tstatus\tdigest\tms\tsession_mismatches\turi")
	for j, s := range log {
		for i, c := range s.clicks {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%s\t%.3f\t%d\t%s\n", j, s.client, i, c.kind, c.status,
				hex.EncodeToString(c.digest[:8]), ms(c.dur), bad[j], c.uri)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// analystSlugs are the analysts whose time the traced run breaks out,
// named by their blackboard.analyst.<slug>.ns histograms.
var analystSlugs = []string{"query_refinement", "similar_by_content_collection", "similar_by_content_item", "shared_property"}

// Program instruments a probe reads: counters by value, histograms by
// their Sum and Count only, never their bucket quantiles.
var (
	probeCounters = []string{
		"blackboard.run.count", "plan.cache.hit", "plan.cache.miss", "plan.cache.delta",
		"index.vector.cache.hit", "index.vector.cache.miss", "par.batch.count", "par.batch.serial",
	}
	probeHistograms = func() []string {
		hs := []string{"par.queue.wait.ns", "index.vector.search.ns"}
		for _, slug := range analystSlugs {
			hs = append(hs, "blackboard.analyst."+slug+".ns")
		}
		return hs
	}()
)

// probe is a snapshot of the program's own instruments, plus the
// runtime's allocation counters under "alloc.bytes" and "gc.count".
// Histograms appear as "<name>.sum" and "<name>.count".
type probe map[string]float64

func takeProbe() probe {
	p := probe{}
	for _, name := range probeCounters {
		p[name] = float64(obs.Default.Counter(name).Value())
	}
	for _, name := range probeHistograms {
		h := obs.Default.Histogram(name)
		p[name+".sum"], p[name+".count"] = float64(h.Sum()), float64(h.Count())
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p["alloc.bytes"], p["gc.count"] = float64(mem.TotalAlloc), float64(mem.NumGC)
	return p
}

// since returns the change from an earlier probe.
func (p probe) since(q probe) probe {
	d := probe{}
	for k, v := range p {
		d[k] = v - q[k]
	}
	return d
}

// add accumulates a change into p.
func (p probe) add(d probe) {
	for k, v := range d {
		p[k] += v
	}
}

// traced runs the contention pass and the serial replays of the click
// log, and returns the per-layer metrics and the clicks those passes
// served differently from the timed phase. fresh opens a warmed-up
// instance and its web server.
func traced(cfg config, fresh func() (*core.Magnet, http.Handler, error), log []*session, conc probe, setups []setupSample, tag string, out io.Writer) (map[string]metric, int, error) {
	nClicks := 0
	for _, s := range log {
		nClicks += len(s.clicks)
	}

	// The contention pass: the same sessions from loadClients clients at
	// once, on an instance of its own, for the click time the session
	// mutex and the shared CPUs add.
	m, h, err := fresh()
	if err != nil {
		return nil, 0, err
	}
	load, err := runClients(h, cfg.workload, cfg.seed, loadClients, len(log))
	m.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("contention pass: %w", err)
	}

	// Three serial replays of every session, each pass on an instance of
	// its own: through ServeHTTP (the untraced serial click time, and the
	// web layer's analyst runs), and by direct calls, untraced and traced.
	// The order rotates from session to session so the machine's drift
	// favours no pass.
	var inst [3]*core.Magnet
	var srv http.Handler
	for i := range inst {
		m, h, err := fresh()
		if err != nil {
			return nil, 0, err
		}
		defer m.Close()
		inst[i] = m
		if i == 0 {
			srv = h
		}
	}
	cfgs := advisors.DefaultConfigs()
	plain := &mirror{m: inst[1], cfgs: cfgs, t: newTracer(false)}
	tr := &mirror{m: inst[2], cfgs: cfgs, t: newTracer(true)}
	// Click time per session: in the contention pass, and in each serial
	// pass.
	n := len(log)
	concS, httpS, plainS, tracedS := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	var httpClicks []click
	httpProbe, trProbe := probe{}, probe{}
	mismatched := 0
	for j, s := range log {
		mismatched += mismatches(s.clicks, load[j].clicks)
		for i := range load[j].clicks {
			concS[j] += load[j].clicks[i].dur
		}
		for k := 0; k < 3; k++ {
			before := takeProbe()
			switch (j + k) % 3 {
			case 0:
				got, err := replay(srv, s)
				if err != nil {
					return nil, 0, fmt.Errorf("serial replay: %w", err)
				}
				httpProbe.add(takeProbe().since(before))
				mismatched += mismatches(s.clicks, got)
				httpClicks = append(httpClicks, got...)
				for i := range got {
					httpS[j] += got[i].dur
				}
			case 1:
				roots, err := plain.session(s)
				if err != nil {
					return nil, 0, err
				}
				plainS[j] = sum(roots)
			case 2:
				roots, err := tr.session(s)
				if err != nil {
					return nil, 0, err
				}
				trProbe.add(takeProbe().since(before))
				tracedS[j] = sum(roots)
			}
		}
	}
	spans := tr.t.spans
	if err := writeSpans(filepath.Join(cfg.out, "spans-"+tag+".jsonl"), spans); err != nil {
		return nil, 0, err
	}

	byLayer := map[string][]time.Duration{}
	self := selfTimes(spans)
	var rootSelf time.Duration
	for i := range spans {
		if spans[i].Parent < 0 {
			rootSelf += self[i]
			continue
		}
		byLayer[spans[i].Name] = append(byLayer[spans[i].Name], self[i])
	}

	D := float64(sum(httpS))
	share := func(d time.Duration) float64 { return ratio(float64(d), D) }
	r := &report{metrics: map[string]metric{}, log: out}
	fmt.Fprintf(out, " per layer (serial replays of %d clicks; shares of %.3fs serial ServeHTTP click time):\n", nClicks, D/1e9)
	r.setExcess("web.self_share", 0, httpS, plainS, D, "ratio")
	r.setExcess("web.wait_share", 0, concS, httpS, float64(sum(concS)), "ratio")
	r.set("web.board_runs_per_click", httpProbe["blackboard.run.count"]/float64(nClicks), "count")
	for _, l := range latencies(httpClicks) {
		r.set("web.serial."+l.name, l.ms, "ms")
	}
	for _, l := range []struct{ span, metric string }{
		{spanQuery, "query.share"}, {spanAnalysts, "analysts.share"}, {spanAdvisors, "advisors.share"},
		{spanFacets, "facets.share"}, {spanVectors, "vectors.item_share"},
	} {
		r.set(l.metric, share(sum(byLayer[l.span])), "ratio")
	}
	r.set("query.ms_p50", ms(quantile(byLayer[spanQuery], 0.5)), "ms")
	r.set("analysts.ms_p50", ms(quantile(byLayer[spanAnalysts], 0.5)), "ms")
	r.set("analysts.ms_p99", ms(quantile(byLayer[spanAnalysts], 0.99)), "ms")
	r.set("facets.ms_p50", ms(quantile(byLayer[spanFacets], 0.5)), "ms")
	for _, slug := range analystSlugs {
		r.set("analyst."+slug+".share", trProbe["blackboard.analyst."+slug+".ns.sum"]/D, "ratio")
	}
	r.set("vectors.search_share", trProbe["index.vector.search.ns.sum"]/D, "ratio")
	r.set("unattributed_share", share(rootSelf), "ratio")
	r.setExcess("trace.overhead_ratio", 1, tracedS, plainS, float64(sum(plainS)), "ratio")

	// Counter ratios come from the timed phase, per repeat. A miss is every
	// lookup that was not an exact hit, so deltas are a subset of misses.
	lookups := conc["plan.cache.hit"] + conc["plan.cache.miss"]
	r.set("plan.hit_ratio", ratio(conc["plan.cache.hit"]+conc["plan.cache.delta"], lookups), "ratio")
	r.set("plan.lookups", lookups, "count")
	vecLookups := conc["index.vector.cache.hit"] + conc["index.vector.cache.miss"]
	r.set("vectors.cache_hit_ratio", ratio(conc["index.vector.cache.hit"], vecLookups), "ratio")
	r.set("vectors.cache_lookups", vecLookups, "count")
	r.set("par.queue_wait_ms_mean", ratio(conc["par.queue.wait.ns.sum"], conc["par.queue.wait.ns.count"])/1e6, "ms")
	r.set("par.serial_ratio", ratio(conc["par.batch.serial"], conc["par.batch.count"]), "ratio")
	r.set("alloc_mb_per_click", conc["alloc.bytes"]/(1<<20)/float64(nClicks), "MB")
	r.set("gc_per_click", conc["gc.count"]/float64(nClicks), "count")

	med := func(f func(setupSample) time.Duration) time.Duration {
		ds := make([]time.Duration, len(setups))
		for i, s := range setups {
			ds[i] = f(s)
		}
		return quantile(ds, 0.5)
	}
	r.set("setup.open_ms", ms(med(func(s setupSample) time.Duration { return s.open })), "ms")
	r.set("setup.first_page_ms", ms(med(func(s setupSample) time.Duration { return s.firstPage })), "ms")
	r.set("setup.text_s", med(func(s setupSample) time.Duration { return s.text }).Seconds(), "s")
	r.set("setup.vectors_s", med(func(s setupSample) time.Duration { return s.vectors }).Seconds(), "s")
	if mismatched > 0 {
		fmt.Fprintf(out, "  the contention pass and the serial ServeHTTP replay served %d clicks differently from the timed phase\n", mismatched)
	}
	fmt.Fprintf(out, "  %d spans written to spans-%s.jsonl\n", len(spans), tag)
	return r.metrics, mismatched, nil
}
