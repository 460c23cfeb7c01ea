package simuser

import (
	"sync"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// TestReplayDeterministicAndConcurrent replays the same session mix
// serially and concurrently against one shared instance and requires
// identical per-session outcomes: per-session state (history, views) must
// be isolated, and shared engine state must be read-only. Run with -race
// this is also the session-concurrency soundness check at the simuser
// level (the core-level stress test lives in internal/core).
func TestReplayDeterministicAndConcurrent(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 400, Seed: 1})
	m := core.Open(g, core.Options{Parallelism: 2})
	defer m.Close()

	r := NewReplay(m)
	if _, err := r.Target(); err != nil {
		t.Fatalf("Target: %v", err)
	}

	const sessions = 24
	serial := make([]int, sessions)
	for i := range serial {
		serial[i] = r.Session(i, int64(1000+i*7919))
	}

	concurrent := make([]int, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = r.Session(i, int64(1000+i*7919))
		}(i)
	}
	wg.Wait()

	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Errorf("session %d: serial found %d, concurrent found %d", i, serial[i], concurrent[i])
		}
	}
}

// TestReplayTaskDispatch checks the task index wraps instead of panicking.
func TestReplayTaskDispatch(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 200, Seed: 2})
	m := core.Open(g, core.Options{})
	defer m.Close()
	r := NewReplay(m)
	for _, task := range []int{0, 1, 2, 5, -1} {
		if n := r.Session(task, 42); n < 0 {
			t.Fatalf("task %d returned negative count %d", task, n)
		}
	}
}
