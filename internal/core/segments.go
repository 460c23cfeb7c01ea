package core

// Segment-backed startup: OpenSegments is the read-only counterpart of Open
// that reassembles the whole instance — graph, text index, vector store,
// numeric range statistics, item universe — from a compiled segment set
// (internal/segment) instead of re-deriving them from triples.
// WriteSegments is the build side magnet-build drives.
//
// The open path is O(1) in the corpus size: columns are zero-copy slices
// into mapped files, interners and terms rehydrate lazily, and the item
// universe stays on the dense-ID plane until first use. Renderer output is
// byte-identical between the two backings (asserted by segment_equiv_test).

import (
	"context"
	"sort"
	"time"

	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/segment"
	"magnet/internal/vsm"
)

var startupGraphNS = obs.NewGauge("startup.graph.ns")

// OpenSegments opens the segment set in dir as a read-only Magnet.
// Options that were fixed at build time (IndexAllSubjects) are taken from
// the set's manifest, overriding opts. Callers must Close the instance to
// unmap the segment files.
func OpenSegments(dir string, opts Options) (*Magnet, error) {
	return OpenSegmentsContext(context.Background(), dir, opts)
}

// OpenSegmentsContext is OpenSegments with startup tracing (see
// OpenContext).
func OpenSegmentsContext(ctx context.Context, dir string, opts Options) (*Magnet, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "startup.load")
	set, err := segment.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	m, err := openFromSet(ctx, set, opts)
	if err != nil {
		return nil, err
	}
	sp.End()
	startupLoadNS.Set(time.Since(start).Nanoseconds())
	return m, nil
}

// openFromSet assembles a read-only Magnet from an opened segment set.
// Takes ownership of set: on error it is closed.
func openFromSet(ctx context.Context, set *segment.Set, opts Options) (*Magnet, error) {
	opts.IndexAllSubjects = set.Data.IndexAllSubjects

	var err error
	m := &Magnet{
		opts:     opts,
		pool:     par.New(opts.Parallelism),
		set:      set,
		readOnly: true,
	}
	fail := func(err error) (*Magnet, error) {
		_ = set.Close()
		m.pool.Close()
		return nil, err
	}
	component(ctx, "startup.graph", startupGraphNS, func() {
		m.g, err = rdf.FromColumns(set.Data.Graph)
	})
	if err != nil {
		return fail(err)
	}
	m.sch = schema.NewStore(m.g)
	component(ctx, "startup.text", startupTextNS, func() {
		m.text, err = index.FromTextColumns(opts.VSM.Analyzer, set.Data.Text)
	})
	if err != nil {
		return fail(err)
	}
	component(ctx, "startup.vectors", startupVectorsNS, func() {
		var store *index.VectorStore
		store, err = index.FromVectorColumns(set.Data.Vectors)
		if err != nil {
			return
		}
		ranges := make(map[string]vsm.Range, len(set.Data.Ranges))
		for _, r := range set.Data.Ranges {
			ranges[r.Key] = vsm.Range{Min: r.Min, Max: r.Max, Count: r.Count}
		}
		m.model = vsm.FromStore(m.g, m.sch, store, ranges, opts.VSM)
		m.model.SetPool(m.pool)
	})
	if err != nil {
		return fail(err)
	}
	component(ctx, "startup.items", startupItemsNS, func() {
		m.itemIDs = itemset.FromSorted(set.Data.Items)
	})
	component(ctx, "startup.engine", startupEngineNS, m.buildEngine)
	return m, nil
}

// Segments returns the backing segment set (nil for in-memory instances).
func (m *Magnet) Segments() *segment.Set { return m.set }

// WriteSegments compiles the instance's current indexes into a segment set
// at dir — the build side magnet-build drives. dataset and params are
// recorded in the manifest so readers can verify they opened what they
// expected. Works on any instance, including one that was itself opened
// from segments (a copy).
func (m *Magnet) WriteSegments(dir, dataset string, params map[string]int64) (segment.Manifest, error) {
	ranges := m.model.Ranges()
	nr := make([]segment.NumericRange, 0, len(ranges))
	for k, r := range ranges {
		nr = append(nr, segment.NumericRange{Key: k, Min: r.Min, Max: r.Max, Count: r.Count})
	}
	sort.Slice(nr, func(i, j int) bool { return nr[i].Key < nr[j].Key })
	return segment.BuildDir(dir, segment.Data{
		Dataset:          dataset,
		Params:           params,
		IndexAllSubjects: m.opts.IndexAllSubjects,
		Items:            m.itemIDs.Slice(),
		Graph:            m.g.Columns(),
		Text:             m.text.Columns(),
		Vectors:          m.model.Store().Columns(),
		Ranges:           nr,
	})
}
