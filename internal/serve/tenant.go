package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"mto/internal/block"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/live"
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
	// Templates are the registered queries, addressable by their IDs.
	Templates []*workload.Query
	// Weight is the tenant's fair-queueing share (≤ 0 means 1).
	Weight float64
	// Reorg, when non-nil, runs a reorgd daemon for this tenant: the
	// server feeds it every executed query and the daemon installs
	// budgeted partial reorganizations through the tenant's generation
	// swap.
	Reorg *reorgd.Config
}

// tenant is the server's per-tenant state: the live layout (its generation
// lock, generation counter and engine), the registered templates, and the
// tenant's counters and daemon.
type tenant struct {
	name    string
	weight  float64
	live    *live.Instance
	daemon  *reorgd.Daemon
	queries map[string]*workload.Query
	normKey map[*workload.Query]string // memoized Normalize of registered templates

	submitted atomic.Int64
	hits      atomic.Int64
	daemonErr atomic.Value // error from the daemon loop, if any
}

// newTenant serves the tenant's layout with engine.DefaultOptions; each
// generation swap drops the tenant's older entries from cache (if any).
func newTenant(cfg TenantConfig, cache *ResultCache) (*tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: tenant with empty name")
	}
	if cfg.Dataset == nil || cfg.Design == nil || cfg.Store == nil {
		return nil, fmt.Errorf("serve: tenant %q needs Dataset, Design, and Store", cfg.Name)
	}
	if cfg.Reorg != nil && cfg.Optimizer == nil {
		return nil, fmt.Errorf("serve: tenant %q has Reorg but no Optimizer", cfg.Name)
	}
	t := &tenant{
		name:    cfg.Name,
		weight:  cfg.Weight,
		queries: make(map[string]*workload.Query, len(cfg.Templates)),
		normKey: make(map[*workload.Query]string, len(cfg.Templates)),
	}
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
	var onSwap func(gen uint64)
	if cache != nil {
		onSwap = func(gen uint64) { cache.InvalidateBelow(cfg.Name, gen) }
	}
	t.live = live.New(cfg.Optimizer, cfg.Design, cfg.Store, cfg.Dataset, engine.DefaultOptions(), onSwap)
	if cfg.Reorg != nil {
		t.daemon = reorgd.New(t.live, *cfg.Reorg)
	}
	return t, nil
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
	Name string `json:"name"`
	// Generation counts the layout swaps installed since the tenant
	// started.
	Generation uint64 `json:"generation"`
	// How long the last install, and the longest, held the tenant's write
	// lock: the stall a swap imposes on queries.
	SwapLockLastUS float64 `json:"swap_lock_us_last"`
	SwapLockMaxUS  float64 `json:"swap_lock_us_max"`
	// Submitted counts submissions past admission (the drain check and
	// the token bucket): every hit, and every miss, queued or refused by
	// MaxQueue.
	Submitted int64        `json:"submitted"`
	CacheHits int64        `json:"cache_hits"`
	Engine    engine.Stats `json:"engine"`
	Store     block.Stats  `json:"store"`
	Templates int          `json:"templates"`
	DaemonErr string       `json:"daemon_error,omitempty"`
}

func (t *tenant) stats() TenantStats {
	ls := t.live.Stats()
	ts := TenantStats{
		Name:           t.name,
		Generation:     ls.Generation,
		SwapLockLastUS: float64(ls.SwapLockLast) / float64(time.Microsecond),
		SwapLockMaxUS:  float64(ls.SwapLockMax) / float64(time.Microsecond),
		Submitted:      t.submitted.Load(),
		CacheHits:      t.hits.Load(),
		Engine:         ls.Engine,
		Store:          t.live.Store().Stats(),
		Templates:      len(t.queries),
	}
	if err, ok := t.daemonErr.Load().(error); ok && err != nil {
		ts.DaemonErr = err.Error()
	}
	return ts
}
