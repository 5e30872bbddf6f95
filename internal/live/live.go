// Package live holds the layout that queries read while reorganizations
// replace it (§5.1.1). mto.System, each serving tenant and the reorg daemon
// query and install through an Instance: queries run under its read lock; a
// reorganization or an insert stages off every lock and takes the write
// lock only to commit, bump the generation and rebuild the engine.
package live

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/block"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/workload"
)

// Mutations are refused while a reorganization stages, and after Close.
var (
	ErrBusy   = errors.New("live: a reorganization is in progress")
	ErrClosed = errors.New("live: instance closed")
)

// Stage prepares a reorganization without publishing anything; a nil
// StagedReorg with a nil error means there is nothing to install.
type Stage func() (*core.StagedReorg, error)

// Instance is one live layout, safe for concurrent use.
type Instance struct {
	opt    *core.Optimizer
	design *layout.Design
	store  block.Backend
	ds     *relation.Dataset
	opts   engine.Options
	onSwap func(gen uint64)

	mu                sync.RWMutex // the generation lock
	eng               *engine.Engine
	retired           engine.Stats  // summed counters of the engines swaps replaced
	lockLast, lockMax time.Duration // write-lock hold of the last and longest commit
	gen               atomic.Uint64 // written under mu, loaded without it
	// busy is the one mutation slot: a reorganization or an insert holds
	// it from its claim to its commit (it stages against opt and design off
	// the lock). closed is set under mu. Both are atomics so a claim never
	// waits for the queries in flight.
	busy, closed atomic.Bool
}

// New serves a layout already installed in store; opt may be nil if the
// instance is only queried. onSwap, when non-nil, runs under the write lock
// after every generation bump (a serving layer drops stale cache entries),
// so it must not call back into the instance.
func New(opt *core.Optimizer, design *layout.Design, store block.Backend, ds *relation.Dataset, opts engine.Options, onSwap func(gen uint64)) *Instance {
	in := &Instance{opt: opt, design: design, store: store, ds: ds, opts: opts, onSwap: onSwap}
	in.eng = in.newEngine()
	return in
}

func (in *Instance) newEngine() *engine.Engine {
	return engine.New(in.store, in.design, in.ds, in.opts)
}

// Optimizer, Design and Store change only inside a commit:
// read them under RLock or from the instance's one mutator.
func (in *Instance) Optimizer() *core.Optimizer { return in.opt }
func (in *Instance) Design() *layout.Design     { return in.design }
func (in *Instance) Store() block.Backend       { return in.store }

// RLock read-locks the instance and returns the generation and engine,
// both current until RUnlock.
func (in *Instance) RLock() (uint64, *engine.Engine) {
	in.mu.RLock()
	return in.gen.Load(), in.eng
}

func (in *Instance) RUnlock() { in.mu.RUnlock() }

// Generation returns the current generation without the lock.
func (in *Instance) Generation() uint64 { return in.gen.Load() }

func (in *Instance) Execute(q *workload.Query) (*engine.Result, error) {
	_, eng := in.RLock()
	defer in.RUnlock()
	return eng.Execute(q)
}

// ExecuteWorkload replays queries on one layout over a bounded worker pool.
func (in *Instance) ExecuteWorkload(queries []*workload.Query, parallelism int) (*engine.WorkloadResult, error) {
	_, eng := in.RLock()
	defer in.RUnlock()
	return engine.RunWorkload(eng, queries, engine.RunOptions{Parallelism: parallelism})
}

// ExecuteFresh runs q on a new engine, without the current one's caches,
// and returns the generation it ran under.
func (in *Instance) ExecuteFresh(q *workload.Query) (*engine.Result, uint64, error) {
	gen, _ := in.RLock()
	defer in.RUnlock()
	res, err := in.newEngine().Execute(q)
	return res, gen, err
}

// Begin claims the mutation slot for a reorganization and returns the rest of
// Reorganize, to be run exactly once, possibly on another goroutine.
func (in *Instance) Begin() (func(Stage) error, error) {
	if err := in.claim(); err != nil {
		return nil, err
	}
	return in.install, nil
}

// Reorganize claims the slot, runs stage off every lock and commits what it
// staged under the write lock; whatever is not committed is aborted.
func (in *Instance) Reorganize(stage Stage) error {
	run, err := in.Begin()
	if err != nil {
		return err
	}
	return run(stage)
}

func (in *Instance) install(stage Stage) error {
	defer in.busy.Store(false)
	staged, err := stage()
	if staged != nil {
		defer staged.Abort() // no-op once committed
	}
	if err != nil || staged == nil {
		return err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed.Load() {
		return ErrClosed
	}
	start := time.Now()
	err = staged.Commit()
	// A refused table leaves itself and every later one untouched, but the
	// tables committed before it changed.
	if err == nil || staged.Stats != (core.ReorgStats{}) {
		in.swap()
	}
	in.lockLast = time.Since(start)
	in.lockMax = max(in.lockMax, in.lockLast)
	return err
}

// Insert absorbs rows newly appended to the named base table (§5.2): a
// reorganization whose stage is core.StageInsert, so only its commit holds
// the write lock. Like any reorganization it is refused with ErrBusy while
// another mutation holds the slot.
func (in *Instance) Insert(table string, rows []int) (core.ChangeStats, error) {
	var staged *core.StagedReorg
	err := in.Reorganize(func() (s *core.StagedReorg, err error) {
		staged, err = in.opt.StageInsert(table, rows, in.design, in.store)
		return staged, err
	})
	if err != nil || staged == nil {
		return core.ChangeStats{}, err
	}
	return staged.Insert, nil
}

// claim takes the mutation slot.
func (in *Instance) claim() error {
	if in.closed.Load() {
		return ErrClosed
	}
	if !in.busy.CompareAndSwap(false, true) {
		return ErrBusy
	}
	return nil
}

// swap makes a committed change visible — the next generation, an engine
// without the old layout's cached routing and row placement, the onSwap
// hook — and is the only place either changes. Caller holds the write
// lock, so no query is in flight on the retired engine.
func (in *Instance) swap() {
	gen := in.gen.Add(1)
	in.retired = in.retired.Add(in.eng.StatsSnapshot())
	in.eng = in.newEngine()
	if in.onSwap != nil {
		in.onSwap(gen)
	}
}

// Closed reports whether Close has run: every later mutation is refused
// with ErrClosed.
func (in *Instance) Closed() bool { return in.closed.Load() }

// Close refuses every later mutation, fails a reorganization staging
// meanwhile at its commit, and closes the backend if it is an io.Closer.
func (in *Instance) Close() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed.Store(true)
	if c, ok := in.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Stats is a snapshot of an instance's counters. Engine sums every engine
// the instance has run, retired ones included.
type Stats struct {
	Generation                uint64
	SwapLockLast, SwapLockMax time.Duration
	Engine                    engine.Stats
}

func (in *Instance) Stats() Stats {
	gen, eng := in.RLock()
	defer in.RUnlock()
	return Stats{gen, in.lockLast, in.lockMax, in.retired.Add(eng.StatsSnapshot())}
}
