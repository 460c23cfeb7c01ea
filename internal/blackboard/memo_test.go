package blackboard

import (
	"sync"
	"sync/atomic"
	"testing"

	"magnet/internal/par"
)

type memoTestKey struct{}

// memoAnalyst reads one memoized value and records what it saw; as a
// Reactor it reads it again in the second round.
type memoAnalyst struct {
	computed *atomic.Int32
	mu       sync.Mutex
	seen     []*int
}

func (a *memoAnalyst) Name() string        { return "memo" }
func (a *memoAnalyst) Triggered(View) bool { return true }
func (a *memoAnalyst) Suggest(v View, _ *Board) {
	a.record(v)
}
func (a *memoAnalyst) React(v View, _ []Suggestion, _ *Board) {
	a.record(v)
}

func (a *memoAnalyst) record(v View) {
	p := v.Memo(memoTestKey{}, func() any {
		spin()
		n := int(a.computed.Add(1))
		return &n
	}).(*int)
	a.mu.Lock()
	a.seen = append(a.seen, p)
	a.mu.Unlock()
}

// A memoized value is computed once per run however many analysts ask
// for it at once, every analyst of both rounds sees the same value, and
// the next run starts from an empty memo.
func TestMemoOncePerRunParallel(t *testing.T) {
	var computed atomic.Int32
	analysts := make([]*memoAnalyst, 6)
	reg := NewRegistry()
	for i := range analysts {
		analysts[i] = &memoAnalyst{computed: &computed}
		reg.Register(analysts[i])
	}
	pool := par.New(4)
	defer pool.Close()
	reg.SetPool(pool)
	v := FixedView("memo", nil)
	for run := 1; run <= 3; run++ {
		reg.Run(v)
		if got := int(computed.Load()); got != run {
			t.Fatalf("after run %d the value was computed %d times", run, got)
		}
		for i, a := range analysts {
			if len(a.seen) != 2*run {
				t.Fatalf("analyst %d read the memo %d times, want %d", i, len(a.seen), 2*run)
			}
			for _, p := range a.seen[2*run-2:] {
				if *p != run {
					t.Errorf("run %d: analyst %d saw the value of computation %d", run, i, *p)
				}
			}
		}
	}
	if v.memo != nil {
		t.Error("Run attached its memo to the caller's view")
	}
	// Outside a run there is nothing to share: Memo just computes.
	before := computed.Load()
	analysts[0].record(v)
	analysts[0].record(v)
	if got := computed.Load() - before; got != 2 {
		t.Errorf("outside a run: %d computations for 2 reads, want 2", got)
	}
}
