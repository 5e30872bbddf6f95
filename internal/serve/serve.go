// Package serve is the multi-tenant query-serving frontend over the MTO
// engine: a long-running server hosting one installed layout per tenant,
// with token-bucket admission control, a sharded result cache keyed on
// (tenant, layout generation, normalized query), weighted-fair queueing of
// cache misses into a bounded worker pool, and live integration of the
// reorgd daemon — each tenant's daemon consumes the server's query stream
// in the background and installs budgeted partial reorganizations through
// an atomic generation swap while queries keep draining.
//
// A submission passes the drain check and the token bucket, then looks the
// cache up once on the submitting goroutine. A hit is answered there and
// then; only a miss is queued for a worker, which executes it and caches
// the result. Workers, MaxQueue and the fair queue therefore bound and
// order executions, never hits.
//
// The cache-key + invalidation contract: a query's cache key is its
// workload.Query.Normalize rendering plus the tenant's layout generation.
// The generation is bumped inside the same tenant-write-lock critical
// section that physically installs a reorganization and rebuilds the
// engine, so every cached entry is implicitly invalidated by the swap (its
// generation no longer matches) and a hit is always byte-identical to what
// fresh execution under the current layout would return.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/engine"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// Submission outcomes distinguishable by clients (the HTTP layer maps them
// to 429 / 503 status codes).
var (
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	ErrUnknownQuery  = errors.New("serve: unknown query ID")
	// ErrRateLimited is admission-control backpressure (retryable).
	ErrRateLimited = errors.New("serve: rate limited")
	// ErrOverloaded is queue-depth backpressure (retryable).
	ErrOverloaded = errors.New("serve: queue full")
	// ErrShuttingDown rejects new work during graceful shutdown.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Config parameterizes a Server.
type Config struct {
	Tenants []TenantConfig
	// Workers bounds concurrent query executions (default 4). Cache hits
	// are answered on the submitting goroutine and take no worker.
	Workers int
	// Rate/Burst configure token-bucket admission (Rate ≤ 0 disables).
	Rate, Burst float64
	// CacheEntries caps the result cache (default 4096; negative disables
	// caching entirely).
	CacheEntries int
	// MaxQueue rejects cache misses once this many are queued for a
	// worker (default 4096; negative disables the bound). Hits never
	// queue and are never rejected by it.
	MaxQueue int
}

// Response is one successful submission's outcome.
type Response struct {
	Result *engine.Result
	// Cached reports a result-cache hit (no engine execution happened).
	Cached bool
	// Gen is the tenant's layout generation the result was produced (or
	// cached) under.
	Gen uint64
}

// request is one queued submission: a cache miss waiting for a worker.
type request struct {
	ctx      context.Context // the submitter's: a worker skips the request once it is done
	tenant   *tenant
	q        *workload.Query
	norm     string    // q's cache key
	admitted time.Time // when admission passed; latency runs from here
	start    float64   // wfq virtual start tag
	finish   float64   // wfq virtual finish tag
	resp     Response
	err      error
	done     chan struct{}
}

// Server is the serving frontend. Create with New, launch with Start,
// submit with Submit/SubmitID, stop with Shutdown.
type Server struct {
	cfg     Config
	tenants map[string]*tenant
	order   []string // tenant names in registration order
	cache   *ResultCache
	bucket  *TokenBucket
	queue   *wfq
	hist    *Histogram

	cancel  context.CancelFunc
	wg      sync.WaitGroup // workers + daemon loops
	started atomic.Bool
	// drainMu serializes request registration against the drain flip:
	// Submit registers in reqWG under the read lock, Shutdown sets
	// draining under the write lock before waiting — so every Add
	// happens-before the Wait (a bare atomic flag would leave Add racing
	// Wait at counter zero, which WaitGroup forbids).
	drainMu  sync.RWMutex
	reqWG    sync.WaitGroup // admitted submissions not yet answered
	draining atomic.Bool

	completed   atomic.Int64
	errors      atomic.Int64
	rejRate     atomic.Int64
	rejQueue    atomic.Int64
	rejShutdown atomic.Int64
}

// New builds a server over the configured tenants. Layouts must already be
// installed in each tenant's store.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4096
	}
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenant{},
		bucket:  NewTokenBucket(cfg.Rate, cfg.Burst),
		queue:   newWFQ(),
		hist:    NewHistogram(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewResultCache(cfg.CacheEntries)
	}
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		t, err := newTenant(tc, s.cache)
		if err != nil {
			return nil, err
		}
		s.tenants[tc.Name] = t
		s.order = append(s.order, tc.Name)
		s.queue.addTenant(tc.Name, tc.Weight)
	}
	return s, nil
}

// Start launches the worker pool and each reorg-enabled tenant's daemon
// loop. It returns immediately; Shutdown stops everything.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	for _, name := range s.order {
		t := s.tenants[name]
		if t.daemon == nil {
			continue
		}
		s.wg.Add(1)
		go func(t *tenant) {
			defer s.wg.Done()
			if err := t.daemon.Run(ctx); err != nil {
				t.daemonErr.Store(err)
			}
		}(t)
	}
}

// Shutdown drains gracefully: new submissions are rejected with
// ErrShuttingDown, every already-accepted query completes and its waiter
// is answered, then the daemon loops and workers stop. Returns ctx.Err()
// if the drain outlives ctx (the server is then left draining; a later
// call may complete the stop).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.queue.close()
	s.wg.Wait()
	return nil
}

// SubmitID submits the tenant's registered template with the given ID.
func (s *Server) SubmitID(ctx context.Context, tenant, id string) (Response, error) {
	t := s.tenants[tenant]
	if t == nil {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	q := t.queries[id]
	if q == nil {
		return Response{}, fmt.Errorf("%w: %q/%q", ErrUnknownQuery, tenant, id)
	}
	return s.Submit(ctx, tenant, q)
}

// Submit admits one query for the tenant and answers it. A result-cache
// hit is answered here, on the caller's goroutine; only a miss is queued
// for a worker, and Submit blocks until it executes or ctx is done. A miss
// whose ctx is done before a worker takes it is never executed or cached;
// one a worker has begun runs to completion.
func (s *Server) Submit(ctx context.Context, tenant string, q *workload.Query) (Response, error) {
	t := s.tenants[tenant]
	if t == nil {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	// Register under the read lock: Shutdown flips the flag under the
	// write lock before waiting on reqWG, so it either happens after this
	// Add (and waits for the request) or this check sees the flag (and
	// rejects) — no Add can race the Wait.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.rejShutdown.Add(1)
		return Response{}, ErrShuttingDown
	}
	s.reqWG.Add(1)
	s.drainMu.RUnlock()
	now := time.Now()
	if !s.bucket.Allow(now) {
		s.reqWG.Done()
		s.rejRate.Add(1)
		return Response{}, ErrRateLimited
	}
	t.submitted.Add(1)
	norm := t.normalizeOf(q)
	if s.cache != nil {
		// The one lookup of this submission. The generation read lock
		// pins gen to the layout the entry was cached under.
		gen, _ := t.live.RLock()
		res, ok := s.cache.Get(t.name, gen, norm, q)
		t.live.RUnlock()
		if ok {
			t.hits.Add(1)
			s.record(t, q, res, now)
			s.reqWG.Done()
			return Response{Result: res, Cached: true, Gen: gen}, nil
		}
	}
	if s.cfg.MaxQueue > 0 && s.queue.depth() >= s.cfg.MaxQueue {
		s.reqWG.Done()
		s.rejQueue.Add(1)
		return Response{}, ErrOverloaded
	}
	r := &request{ctx: ctx, tenant: t, q: q, norm: norm, admitted: now, done: make(chan struct{})}
	if !s.queue.enqueue(tenant, r) {
		s.reqWG.Done()
		s.rejShutdown.Add(1)
		return Response{}, ErrShuttingDown
	}
	select {
	case <-r.done:
		return r.resp, r.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// worker is one pool goroutine: dequeue in weighted-fair order, execute
// unless the waiter has given up, answer the waiter.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		r, ok := s.queue.dequeue()
		if !ok {
			return
		}
		if r.err = r.ctx.Err(); r.err == nil {
			s.execute(r)
		}
		close(r.done)
		s.reqWG.Done()
	}
}

// execute runs one cache miss under the tenant's generation read lock and
// caches the result under the generation it ran at. The daemon observation
// happens after the read lock is released — the daemon's install path
// takes the write lock, so observing under the read lock could deadlock a
// Step that is already committed to installing.
func (s *Server) execute(r *request) {
	t := r.tenant
	gen, eng := t.live.RLock()
	res, err := eng.Execute(r.q)
	if err != nil {
		t.live.RUnlock()
		r.err = err
		s.errors.Add(1)
		return
	}
	if s.cache != nil {
		s.cache.Put(t.name, gen, r.norm, res)
	}
	t.live.RUnlock()
	r.resp = Response{Result: res, Gen: gen}
	s.record(t, r.q, res, r.admitted)
}

// record counts one answered submission, feeds the daemon and records its
// latency since admission.
func (s *Server) record(t *tenant, q *workload.Query, res *engine.Result, admitted time.Time) {
	s.completed.Add(1)
	s.observe(t, q, res)
	s.hist.RecordDuration(time.Since(admitted))
}

// observe feeds the tenant's daemon. Cache hits are observed too: the
// recorded per-table blocks are what the current layout would read for
// this query, which is exactly the staleness signal the daemon scores —
// demand the cache absorbs is still demand the layout should serve well.
func (s *Server) observe(t *tenant, q *workload.Query, res *engine.Result) {
	if t.daemon == nil {
		return
	}
	tb := make(map[string]int, len(res.PerTable))
	for name, ta := range res.PerTable {
		tb[name] = ta.BlocksRead
	}
	t.daemon.Observe(q, tb)
}

// ExecuteDirect runs q for the tenant outside the serving path — no
// admission, no queue, no cache, a fresh engine — under the tenant's
// generation read-lock, returning the result and the generation it ran
// under. Load generators use it to verify that served (possibly cached)
// results are byte-identical to direct execution at the same generation.
func (s *Server) ExecuteDirect(tenant string, q *workload.Query) (*engine.Result, uint64, error) {
	t := s.tenants[tenant]
	if t == nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	return t.live.ExecuteFresh(q)
}

// Template resolves a tenant's registered query by ID (nil when absent).
func (s *Server) Template(tenant, id string) *workload.Query {
	if t := s.tenants[tenant]; t != nil {
		return t.queries[id]
	}
	return nil
}

// TemplateIDs lists a tenant's registered query IDs (sorted registration
// is not preserved; callers sort if they need determinism).
func (s *Server) TemplateIDs(tenant string) []string {
	t := s.tenants[tenant]
	if t == nil {
		return nil
	}
	ids := make([]string, 0, len(t.queries))
	for id := range t.queries {
		ids = append(ids, id)
	}
	return ids
}

// Tenants lists tenant names in registration order.
func (s *Server) Tenants() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// StepTenant runs one reorg-daemon cycle for the tenant synchronously
// (tests and CLI tooling; the background loop normally drives cycles).
func (s *Server) StepTenant(tenant string) (reorgd.CycleStats, error) {
	t := s.tenants[tenant]
	if t == nil {
		return reorgd.CycleStats{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if t.daemon == nil {
		return reorgd.CycleStats{}, fmt.Errorf("serve: tenant %q has no reorg daemon", tenant)
	}
	return t.daemon.Step()
}

// ReorgTrace returns the tenant's reorg-daemon cycle trace (nil when the
// tenant has no daemon).
func (s *Server) ReorgTrace(tenant string) []reorgd.CycleStats {
	t := s.tenants[tenant]
	if t == nil || t.daemon == nil {
		return nil
	}
	return t.daemon.Trace()
}

// Generation returns the tenant's current layout generation.
func (s *Server) Generation(tenant string) uint64 {
	if t := s.tenants[tenant]; t != nil {
		return t.live.Generation()
	}
	return 0
}

// ServerStats is the /stats payload.
type ServerStats struct {
	Tenants          []TenantStats  `json:"tenants"`
	Cache            CacheStats     `json:"cache"`
	Latency          LatencySummary `json:"latency"`
	Completed        int64          `json:"completed"`
	Errors           int64          `json:"errors"`
	RejectedRate     int64          `json:"rejected_rate"`
	RejectedQueue    int64          `json:"rejected_queue"`
	RejectedShutdown int64          `json:"rejected_shutdown"`
	QueueDepth       int            `json:"queue_depth"`
	GenerationSwaps  int64          `json:"generation_swaps"`
}

// Stats snapshots the server and every tenant.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Latency:          s.hist.Summary(),
		Completed:        s.completed.Load(),
		Errors:           s.errors.Load(),
		RejectedRate:     s.rejRate.Load(),
		RejectedQueue:    s.rejQueue.Load(),
		RejectedShutdown: s.rejShutdown.Load(),
		QueueDepth:       s.queue.depth(),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	for _, name := range s.order {
		ts := s.tenants[name].stats()
		st.Tenants = append(st.Tenants, ts)
		st.GenerationSwaps += int64(ts.Generation)
	}
	return st
}

// Histogram exposes the server's latency histogram (read-only use).
func (s *Server) Histogram() *Histogram { return s.hist }
