package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/block"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// TenantConfig describes one tenant of the serving layer: an installed
// layout over its own dataset and backend, the query templates clients may
// submit by ID, and optionally a reorg-daemon configuration to keep the
// layout adapted to the tenant's live traffic.
type TenantConfig struct {
	Name    string
	Dataset *relation.Dataset
	Design  *layout.Design
	Store   block.Backend
	// Optimizer is required when Reorg is set (the daemon plans through
	// it); otherwise optional.
	Optimizer *core.Optimizer
	// EngineOptions configures execution; the zero value selects
	// engine.DefaultOptions.
	EngineOptions *engine.Options
	// Templates are the registered queries, addressable by their IDs.
	Templates []*workload.Query
	// Weight is the tenant's fair-queueing share (≤ 0 means 1).
	Weight float64
	// Reorg, when non-nil, runs a reorgd daemon for this tenant: the
	// server feeds it every executed query and the daemon installs
	// budgeted partial reorganizations through the tenant's generation
	// swap. The config's InstallWrap must be unset — the server owns it.
	Reorg *reorgd.Config
}

// tenant is the server's per-tenant state. mu is the generation lock:
// queries execute under RLock, a reorg install (and the generation bump,
// engine rebuild, and cache invalidation that must be atomic with it) runs
// under Lock. gen is additionally atomic so stats readers can load it
// without the lock.
type tenant struct {
	name    string
	weight  float64
	ds      *relation.Dataset
	design  *layout.Design
	store   block.Backend
	opts    engine.Options
	daemon  *reorgd.Daemon
	queries map[string]*workload.Query
	normKey map[*workload.Query]string // memoized Normalize of registered templates

	mu  sync.RWMutex
	eng *engine.Engine
	// How long installs held mu's write side: the last one, and the longest.
	swapLockLast, swapLockMax time.Duration

	gen       atomic.Uint64
	swaps     atomic.Int64
	submitted atomic.Int64
	hits      atomic.Int64
	daemonErr atomic.Value // error from the daemon loop, if any
}

func newTenant(cfg TenantConfig, onSwap func(tenant string, gen uint64)) (*tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: tenant with empty name")
	}
	if cfg.Dataset == nil || cfg.Design == nil || cfg.Store == nil {
		return nil, fmt.Errorf("serve: tenant %q needs Dataset, Design, and Store", cfg.Name)
	}
	opts := engine.DefaultOptions()
	if cfg.EngineOptions != nil {
		opts = *cfg.EngineOptions
	}
	t := &tenant{
		name:    cfg.Name,
		weight:  cfg.Weight,
		ds:      cfg.Dataset,
		design:  cfg.Design,
		store:   cfg.Store,
		opts:    opts,
		queries: make(map[string]*workload.Query, len(cfg.Templates)),
		normKey: make(map[*workload.Query]string, len(cfg.Templates)),
	}
	t.eng = engine.New(t.store, t.design, t.ds, t.opts)
	for _, q := range cfg.Templates {
		if q.ID == "" {
			return nil, fmt.Errorf("serve: tenant %q has a template with empty ID", cfg.Name)
		}
		if _, dup := t.queries[q.ID]; dup {
			return nil, fmt.Errorf("serve: tenant %q has duplicate template ID %q", cfg.Name, q.ID)
		}
		t.queries[q.ID] = q
		t.normKey[q] = q.Normalize()
	}
	if cfg.Reorg != nil {
		if cfg.Optimizer == nil {
			return nil, fmt.Errorf("serve: tenant %q has Reorg but no Optimizer", cfg.Name)
		}
		if cfg.Reorg.InstallWrap != nil {
			return nil, fmt.Errorf("serve: tenant %q must leave Reorg.InstallWrap to the server", cfg.Name)
		}
		rc := *cfg.Reorg
		rc.InstallWrap = func(install func() error) error {
			return t.installSwap(install, onSwap)
		}
		t.daemon = reorgd.New(cfg.Optimizer, t.design, t.store, rc)
	}
	return t, nil
}

// installSwap is the generation-swap critical section, invoked by the
// daemon (via InstallWrap) with the commit of an already staged
// reorganization: routing, encoding and validation ran beside the queries.
// Under the tenant write lock — no query in flight — it swaps the new
// layout in, bumps the generation, rebuilds the engine (whose routing and
// row-placement caches describe the old layout), and invalidates the old
// generation's cache entries. Queries admitted after the lock releases see
// the new generation, a fresh engine, and an empty cache slice — never a
// half-installed layout or a stale cached result.
func (t *tenant) installSwap(commit func() error, onSwap func(string, uint64)) error {
	t.mu.Lock()
	start := time.Now()
	defer func() {
		t.swapLockLast = time.Since(start)
		t.swapLockMax = max(t.swapLockMax, t.swapLockLast)
		t.mu.Unlock()
	}()
	if err := commit(); err != nil {
		return err
	}
	gen := t.gen.Add(1)
	t.swaps.Add(1)
	t.eng = engine.New(t.store, t.design, t.ds, t.opts)
	if onSwap != nil {
		onSwap(t.name, gen)
	}
	return nil
}

// normalizeOf returns the query's cache key, memoized for registered
// template pointers (the common case: every load-generator and HTTP
// submission resolves to a registered template).
func (t *tenant) normalizeOf(q *workload.Query) string {
	if k, ok := t.normKey[q]; ok {
		return k
	}
	return q.Normalize()
}

// TenantStats is one tenant's /stats entry.
type TenantStats struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Swaps      int64  `json:"generation_swaps"`
	// How long the last install, and the longest, held the tenant's write
	// lock: the stall a swap imposes on queries.
	SwapLockLastUS float64      `json:"swap_lock_us_last"`
	SwapLockMaxUS  float64      `json:"swap_lock_us_max"`
	Submitted      int64        `json:"submitted"`
	CacheHits      int64        `json:"cache_hits"`
	Engine         engine.Stats `json:"engine"`
	Store          block.Stats  `json:"store"`
	Templates      int          `json:"templates"`
	DaemonErr      string       `json:"daemon_error,omitempty"`
	Reorgs         int          `json:"reorgs"`
}

func (t *tenant) stats() TenantStats {
	t.mu.RLock()
	eng, lockLast, lockMax := t.eng, t.swapLockLast, t.swapLockMax
	t.mu.RUnlock()
	ts := TenantStats{
		Name:           t.name,
		Generation:     t.gen.Load(),
		Swaps:          t.swaps.Load(),
		SwapLockLastUS: float64(lockLast) / float64(time.Microsecond),
		SwapLockMaxUS:  float64(lockMax) / float64(time.Microsecond),
		Submitted:      t.submitted.Load(),
		CacheHits:      t.hits.Load(),
		Engine:         eng.StatsSnapshot(),
		Store:          t.store.Stats(),
		Templates:      len(t.queries),
	}
	if t.daemon != nil {
		for _, cs := range t.daemon.Trace() {
			if cs.Action == "reorg" {
				ts.Reorgs++
			}
		}
	}
	if err, ok := t.daemonErr.Load().(error); ok && err != nil {
		ts.DaemonErr = err.Error()
	}
	return ts
}
