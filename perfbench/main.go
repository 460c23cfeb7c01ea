// Command perfbench is Magnet's click-level serving benchmark. It replays
// link-following browse sessions through the in-process web.Server
// handler — ServeHTTP on recorded requests, one cookie per session, no
// sockets — from a closed-loop client, and measures what a user waits
// on: the click, one request plus the redirect it triggers.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload browse-full --seed 1 --seconds 24 --trace 0
//
// A run builds the paper-scale recipes corpus (6,444 recipes). Twice
// over, it opens a fresh instance (timing set-up), warms its caches with
// untimed sessions, and times the same fixed number of clicks — the
// workload's nominal rate times --seconds, shared between the repeats —
// whose sequence derives from --seed and the pages served. Each click's
// CPU time is the lesser of its two repeats. Every click must end in a
// 200, both repeats must serve the same pages, and every page body must
// equal the one a serial replay of the same session serves on the naive
// path (Parallelism 1, no plan cache).
//
// With --trace 1 the sessions are then browsed once more by two clients
// at once, and the click log is replayed serially three more times, each
// pass on a fresh instance warmed up like the timed ones: through
// ServeHTTP, and twice by issuing the public calls each handler makes
// into core, blackboard/analysts, advisors, facets and index/vsm — once
// inside benchmark-owned spans, once without. That gives the per-layer
// shares, the web layer's own and waiting time, and the tracing overhead.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. A human-readable report,
// including the click-latency percentiles, goes to standard error. The
// exit code is non-zero when a click fails the correctness check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"time"
)

// discard is a slog handler that drops everything before formatting, so
// the access log and slow-step warnings stay out of the measurements.
type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }

var quiet = slog.New(discard{})

const (
	// paperRecipes is the paper's corpus size.
	paperRecipes = 6444
	// outDir receives the click log and the spans, relative to the
	// directory the benchmark runs in.
	outDir = ".bench_build/perfbench-out"
)

func main() {
	var cfg config
	var name string
	flag.StringVar(&name, "workload", "", "workload to run: browse-full or drill-baseline")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every session's click sequence derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 24, "run length: the run issues the workload's nominal rate times this many clicks")
	trace := flag.Int("trace", 0, "1 adds the traced serial replays and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.recipes, cfg.out = paperRecipes, outDir
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.workload, cfg.trace = w, *trace == 1
	slog.SetDefault(quiet)

	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics by name and echoes them to the human-readable
// report.
type report struct {
	metrics map[string]metric
	log     io.Writer
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "  %-40s %14.4f %s\n", name, v, unit)
}

// setExcess records base plus the share of total by which the
// per-session times a exceed b: a difference between two serial passes.
// Such passes differ with no cause in the program, by as much as twice
// the standard error of the summed per-session differences. An excess
// within that noise is unresolved: it is recorded as base alone and
// reported as unresolved, never as a figure.
func (r *report) setExcess(name string, base float64, a, b []time.Duration, total float64, unit string) {
	d := make([]float64, len(a))
	var mean float64
	for i := range a {
		d[i] = float64(a[i] - b[i])
		mean += d[i] / float64(len(d))
	}
	var ss float64
	for _, x := range d {
		ss += (x - mean) * (x - mean)
	}
	// The sum of n differences has n times their variance; with fewer
	// than two sessions there is no spread to estimate, so nothing resolves.
	noise := math.Inf(1)
	if len(d) > 1 {
		noise = ratio(2*math.Sqrt(ss*float64(len(d))/float64(len(d)-1)), total)
	}
	excess := ratio(mean*float64(len(d)), total)
	if math.Abs(excess) <= noise {
		r.metrics[name] = metric{Value: base, Unit: unit}
		fmt.Fprintf(r.log, "  %-40s %14s %s  (%+.4f, within noise ±%.4f)\n", name, "unresolved", unit, excess, noise)
		return
	}
	r.metrics[name] = metric{Value: base + excess, Unit: unit}
	fmt.Fprintf(r.log, "  %-40s %14.4f %s  (noise ±%.4f)\n", name, base+excess, unit, noise)
}
