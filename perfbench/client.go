package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sessionCookie is the web server's browsing-session cookie.
const sessionCookie = "magnet_session"

// maxRedirects bounds how many redirects one click follows.
const maxRedirects = 5

// browser is one in-process client: it calls the handler's ServeHTTP on
// recorded requests, keeps the session cookie, and follows redirects the
// way a browser does (fragment stripped, method GET).
type browser struct {
	h      http.Handler
	cookie *http.Cookie
}

// click issues one request and follows the redirects it triggers,
// returning the final status and body.
func (b *browser) click(uri string) (int, []byte, error) {
	for hop := 0; ; hop++ {
		req, err := http.NewRequest(http.MethodGet, uri, nil)
		if err != nil {
			return 0, nil, fmt.Errorf("request %q: %w", uri, err)
		}
		if b.cookie != nil {
			req.AddCookie(b.cookie)
		}
		rec := httptest.NewRecorder()
		b.h.ServeHTTP(rec, req)
		res := rec.Result()
		for _, c := range res.Cookies() {
			if c.Name == sessionCookie {
				b.cookie = &http.Cookie{Name: c.Name, Value: c.Value}
			}
		}
		if res.StatusCode < 300 || res.StatusCode >= 400 {
			return res.StatusCode, rec.Body.Bytes(), nil
		}
		if hop == maxRedirects {
			return res.StatusCode, nil, fmt.Errorf("click %q: more than %d redirects", uri, maxRedirects)
		}
		loc := res.Header.Get("Location")
		if i := strings.IndexByte(loc, '#'); i >= 0 {
			loc = loc[:i]
		}
		if loc == "" {
			loc = "/"
		}
		uri = loc
	}
}

// click is one recorded click: what was clicked, and what it returned.
type click struct {
	uri    string
	kind   kind
	status int
	// digest is the SHA-256 of the final page body.
	digest [sha256.Size]byte
	// dur is the click's latency: the request plus the redirects it
	// triggered.
	dur time.Duration
	// cpu is the CPU time the process used during the click.
	cpu time.Duration
}

// ok reports whether the click ended in a 200.
func (c *click) ok() bool { return c.status == http.StatusOK }

// session is one simulated user's visit: a fresh cookie and a fixed
// number of clicks. client records which client browsed it.
type session struct {
	client int
	clicks []click
}

// Seed streams: derive draws a session's link choices and a click
// position's strata from separate streams of the workload seed.
const (
	streamSession = iota
	streamStrata
)

// derive returns the seed of item i of a stream, so every click sequence
// depends only on the workload seed, the session's number and the pages
// served.
func derive(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb96994d049
	x ^= x >> 29
	return int64(x)
}

// strata spreads the runs' link choices evenly over the links a page
// offers: for click i of a run's n sessions, session g draws its link
// from stratum perm[i][g] of n equal slices of the page's link list, at a
// random point inside it. Every run thus samples the panes' links in the
// same proportions, which keeps the cost of a run's clicks from swinging
// with a lucky or unlucky draw.
type strata struct {
	perm [][]int
	n    int
}

func newStrata(seed int64, n, length int) *strata {
	st := &strata{perm: make([][]int, length), n: n}
	for i := range st.perm {
		st.perm[i] = rand.New(rand.NewSource(derive(seed, streamStrata, i))).Perm(n)
	}
	return st
}

// at returns session g's position in [0, 1) for click i.
func (st *strata) at(rng *rand.Rand, i, g int) float64 {
	return (float64(st.perm[i][g]) + rng.Float64()) / float64(st.n)
}

// browse runs session g of a run on h for the given client: it lands on
// the collection, then picks each next click from the page just served.
func browse(h http.Handler, w *workload, seed int64, st *strata, client, g int) (*session, error) {
	length := w.sessionLength()
	rng := rand.New(rand.NewSource(derive(seed, streamSession, g)))
	s := &session{client: client, clicks: make([]click, 0, length)}
	b := &browser{h: h}
	uri := "/"
	for i := 0; i < length; i++ {
		k, _ := classify(uri)
		if i == 0 {
			k = kindLanding
		}
		cpu, start := cpuTime(), time.Now()
		status, body, err := b.click(uri)
		dur, cpu := time.Since(start), cpuTime()-cpu
		if err != nil {
			return nil, err
		}
		s.clicks = append(s.clicks, click{uri: uri, kind: k, status: status, digest: sha256.Sum256(body), dur: dur, cpu: cpu})
		if i+1 < length {
			uri = w.next(rng, g, i+1, st.at(rng, i+1, g), body)
		}
	}
	return s, nil
}

// replay sends a recorded session's clicks to h with a fresh cookie and
// returns what they returned, timed.
func replay(h http.Handler, s *session) ([]click, error) {
	out := make([]click, len(s.clicks))
	b := &browser{h: h}
	for i, c := range s.clicks {
		start := time.Now()
		status, body, err := b.click(c.uri)
		dur := time.Since(start)
		if err != nil {
			return nil, err
		}
		out[i] = click{uri: c.uri, kind: c.kind, status: status, digest: sha256.Sum256(body), dur: dur}
	}
	return out, nil
}

// runClients runs nClients closed-loop clients at once on h until n
// sessions are done; session g is log entry g. The clients take session
// numbers from one shared counter, so neither sits idle while sessions
// remain, and a session's clicks do not depend on which client runs it.
func runClients(h http.Handler, w *workload, seed int64, nClients, n int) ([]*session, error) {
	log := make([]*session, n)
	st := newStrata(seed, n, w.sessionLength())
	errs := make([]error, nClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for g := int(next.Add(1)) - 1; g < n; g = int(next.Add(1)) - 1 {
				s, err := browse(h, w, seed, st, c, g)
				if err != nil {
					errs[c] = err
					return
				}
				log[g] = s
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return log, nil
}

// mismatches counts the clicks of a replay that differ from the log: a
// different status or a different page body.
func mismatches(log, got []click) int {
	n := 0
	for i := range log {
		if got[i].status != log[i].status || got[i].digest != log[i].digest {
			n++
		}
	}
	return n
}

// verify replays every logged session — each session serially, up to
// workers sessions at once, each worker on its own handler from
// newHandler — and returns, per session, how many of its clicks returned
// a different status or body than the log recorded.
func verify(newHandler func() http.Handler, log []*session, workers int) ([]int, error) {
	bad := make([]int, len(log))
	errs := make([]error, len(log))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		h := newHandler()
		go func() {
			defer wg.Done()
			for j := range jobs {
				got, err := replay(h, log[j])
				if err != nil {
					errs[j] = err
					continue
				}
				bad[j] = mismatches(log[j].clicks, got)
			}
		}()
	}
	for j := range log {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bad, nil
}
