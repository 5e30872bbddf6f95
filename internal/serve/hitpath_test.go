package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mto/internal/block"
	"mto/internal/predicate"
)

// execGate holds the next query execution once armed: the execution's
// first scan announces itself on entered and waits for release.
type execGate struct {
	block.Backend
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newExecGate(b block.Backend) *execGate {
	return &execGate{Backend: b, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *execGate) CompileScan(table string, filters []predicate.Predicate) block.Scan {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Backend.CompileScan(table, filters)
}

// open releases a held execution (once; later calls do nothing).
func (g *execGate) open() { g.once.Do(func() { close(g.release) }) }

// holdWorker arms the gate, runs submit (a submission that misses the
// cache) in the background and returns once its execution is held; the
// channel yields submit's error after the gate opens.
func holdWorker(t *testing.T, g *execGate, submit func() error) <-chan error {
	t.Helper()
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- submit() }()
	select {
	case <-g.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the execution never reached the gate")
	}
	return done
}

// TestHitAnsweredWhileWorkersBusy: with the only worker held inside an
// execution, a cache hit is still answered — on the submitting goroutine,
// not by a worker.
func TestHitAnsweredWhileWorkersBusy(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, false)
	gate := newExecGate(cfg.Store)
	cfg.Store = gate
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 1})
	t.Cleanup(gate.open) // runs before the server's shutdown
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := s.Submit(ctx, "alpha", shift[0])
	if err != nil || first.Cached {
		t.Fatalf("first submission: cached=%v, %v", first.Cached, err)
	}
	miss := holdWorker(t, gate, func() error { _, err := s.Submit(ctx, "alpha", shift[1]); return err })

	hit, err := s.Submit(ctx, "alpha", shift[0])
	if err != nil || !hit.Cached {
		t.Fatalf("hit while the worker is held: cached=%v, %v", hit.Cached, err)
	}
	if hit.Result.Query != shift[0].ID || hit.Result.SurvivingRows["fact"] != first.Result.SurvivingRows["fact"] {
		t.Errorf("hit differs from the first answer: %+v vs %+v", hit.Result, first.Result)
	}
	st := s.Stats()
	if st.Completed != 2 || st.Tenants[0].CacheHits != 1 || st.Latency.Count != 2 {
		t.Errorf("hit not recorded on the caller: completed %d, hits %d, latency samples %d; want 2, 1, 2",
			st.Completed, st.Tenants[0].CacheHits, st.Latency.Count)
	}

	gate.open()
	if err := <-miss; err != nil {
		t.Fatalf("held miss: %v", err)
	}
	if st := s.Stats(); st.Completed != 3 || st.Tenants[0].Engine.Queries != st.Cache.Misses {
		t.Errorf("after the miss: completed %d, engine queries %d, cache misses %d", st.Completed,
			st.Tenants[0].Engine.Queries, st.Cache.Misses)
	}
}

// TestHitAdmission: a hit passes the same admission as a miss — an empty
// token bucket rejects it with ErrRateLimited and a draining server with
// ErrShuttingDown, and neither rejected submission reaches the cache.
func TestHitAdmission(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, false)
	ctx := context.Background()

	limited := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 1, Rate: 0.001, Burst: 2})
	for i, wantCached := range []bool{false, true} {
		resp, err := limited.Submit(ctx, "alpha", shift[0])
		if err != nil || resp.Cached != wantCached {
			t.Fatalf("submission %d: cached=%v, %v; want cached=%v", i, resp.Cached, err, wantCached)
		}
	}
	if _, err := limited.Submit(ctx, "alpha", shift[0]); !errors.Is(err, ErrRateLimited) {
		t.Errorf("hit on an empty bucket: %v, want ErrRateLimited", err)
	}
	if st := limited.Stats(); st.RejectedRate != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("rate-limited hit: rejected %d, cache hits %d, misses %d; want 1, 1, 1",
			st.RejectedRate, st.Cache.Hits, st.Cache.Misses)
	}

	cfg2, shift2 := serveScenario(t, "alpha", 4, false)
	drained := startServer(t, Config{Tenants: []TenantConfig{cfg2}, Workers: 1})
	if _, err := drained.Submit(ctx, "alpha", shift2[0]); err != nil {
		t.Fatal(err)
	}
	if err := drained.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := drained.Submit(ctx, "alpha", shift2[0]); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("hit after the drain: %v, want ErrShuttingDown", err)
	}
	if st := drained.Stats(); st.RejectedShutdown != 1 || st.Cache.Hits != 0 {
		t.Errorf("drained hit: rejected %d, cache hits %d; want 1, 0", st.RejectedShutdown, st.Cache.Hits)
	}
}

// TestHitIgnoresMaxQueue: with the only worker held and the queue at
// MaxQueue, a hit is still answered while a miss is rejected with
// ErrOverloaded.
func TestHitIgnoresMaxQueue(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, false)
	gate := newExecGate(cfg.Store)
	cfg.Store = gate
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 1, MaxQueue: 1})
	t.Cleanup(gate.open)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := s.Submit(ctx, "alpha", shift[0]); err != nil {
		t.Fatal(err)
	}
	held := holdWorker(t, gate, func() error { _, err := s.Submit(ctx, "alpha", shift[1]); return err })
	queued := make(chan error, 1)
	go func() { _, err := s.Submit(ctx, "alpha", shift[2]); queued <- err }()
	for s.Stats().QueueDepth < 1 {
		if ctx.Err() != nil {
			t.Fatal("the second miss never queued")
		}
		time.Sleep(time.Millisecond)
	}

	hit, err := s.Submit(ctx, "alpha", shift[0])
	if err != nil || !hit.Cached {
		t.Fatalf("hit with the queue full: cached=%v, %v", hit.Cached, err)
	}
	if _, err := s.Submit(ctx, "alpha", shift[3]); !errors.Is(err, ErrOverloaded) {
		t.Errorf("miss with the queue full: %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.RejectedQueue != 1 {
		t.Errorf("RejectedQueue = %d, want 1 (the miss only)", st.RejectedQueue)
	}

	gate.open()
	for _, done := range []<-chan error{held, queued} {
		if err := <-done; err != nil {
			t.Errorf("queued miss: %v", err)
		}
	}
}
