package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/serve"
	"mto/internal/workload"
)

// tenantDeploy is one tenant's installed layout on its own disk store.
type tenantDeploy struct {
	spec   tenantSpec
	fam    family
	ds     *relation.Dataset
	train  *workload.Workload
	opt    *core.Optimizer
	design *layout.Design
	store  *colstore.Store
	// installed is each table's block count at install. It is the base of
	// write_amplification and the denominator of every blocks-read fraction:
	// a partial reorganization leaves a table in more, partly filled blocks,
	// so a fraction of the current count would improve as reads get worse.
	installed map[string]int
}

func (td *tenantDeploy) installedBlocks() int {
	n := 0
	for _, b := range td.installed {
		n += b
	}
	return n
}

// installedFor sums the installed block counts of the tables res accessed.
func (td *tenantDeploy) installedFor(res *engine.Result) int {
	n := 0
	for table := range res.PerTable {
		n += td.installed[table]
	}
	return n
}

// setupTimes are the set-up phases, summed over the workload's tenants.
type setupTimes struct {
	generate, optimize, routing, buildDesign, install, warmup, total float64
}

// deployment is a started server over freshly installed tenants.
type deployment struct {
	spec    spec
	tenants []*tenantDeploy
	srv     *serve.Server
	times   setupTimes
	dir     string
}

// scratch hands out the run's temp directories and removes them all on
// exit, including after a failure or a signal.
type scratch struct {
	root string
	mu   sync.Mutex
	dirs []string
}

func (s *scratch) mkdir(pattern string) (string, error) {
	if err := os.MkdirAll(s.root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(s.root, pattern)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

func (s *scratch) removeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
	s.dirs = nil
}

// timed runs f inside a span and returns its wall seconds.
func timed(tr *tracer, name string, parent int, f func() error) (float64, error) {
	id := tr.begin(name, parent, 0)
	t0 := time.Now()
	err := f()
	sec := time.Since(t0).Seconds()
	tr.end(id)
	return sec, err
}

// deploy generates each tenant's dataset, learns and installs its MTO
// layout on a fresh disk store, starts the server, and runs the unmeasured
// warm-up pass. tr may be nil (spans are then not recorded).
func deploy(s spec, cfg runConfig, sc *scratch, tr *tracer) (dep *deployment, err error) {
	begin := time.Now()
	root := tr.begin("bench.setup", 0, 0)
	defer tr.end(root)

	dir, err := sc.mkdir(s.name + "-seg-")
	if err != nil {
		return nil, err
	}
	dep = &deployment{spec: s, dir: dir}
	defer func() {
		if err != nil {
			dep.close()
			dep = nil
		}
	}()

	var tenants []serve.TenantConfig
	for _, ts := range s.tenants {
		if cfg.sf > 0 {
			ts.sf = cfg.sf
		}
		td := &tenantDeploy{spec: ts, fam: familyOf(ts.name)}
		dep.tenants = append(dep.tenants, td)

		sec, _ := timed(tr, "datagen.generate", root, func() error {
			td.ds = td.fam.dataset(ts.sf)
			return nil
		})
		dep.times.generate += sec
		td.train = td.fam.training(ts.trainFrom, ts.trainTo)

		sec, err = timed(tr, "core.optimize", root, func() (e error) {
			td.opt, e = core.Optimize(td.ds, td.train, core.Options{
				BlockSize:     td.fam.blockSize,
				SampleRate:    0.25,
				JoinInduction: true,
				LeafOrderKeys: map[string]string(td.fam.sortKeys),
				Seed:          datasetSeed,
			})
			return e
		})
		dep.times.optimize += sec
		if err != nil {
			return nil, fmt.Errorf("%s: optimize: %w", ts.name, err)
		}

		sec, err = timed(tr, "core.build_design", root, func() (e error) {
			td.design, e = td.opt.BuildDesign()
			return e
		})
		dep.times.buildDesign += sec
		if err != nil {
			return nil, fmt.Errorf("%s: build design: %w", ts.name, err)
		}
		dep.times.routing += td.opt.Timings().RoutingSeconds

		sec, err = timed(tr, "layout.install", root, func() (e error) {
			td.store, e = colstore.NewStore(filepath.Join(dir, ts.name), s.poolBytes, block.DefaultCostModel())
			if e != nil {
				return e
			}
			_, e = td.design.Install(td.store, nil, 0)
			return e
		})
		dep.times.install += sec
		if err != nil {
			return nil, fmt.Errorf("%s: install: %w", ts.name, err)
		}
		td.installed = map[string]int{}
		for _, table := range td.store.Tables() {
			td.installed[table] = td.store.NumBlocks(table)
		}

		tenants = append(tenants, serve.TenantConfig{
			Name: ts.name, Dataset: td.ds, Design: td.design, Store: td.store,
			Optimizer: td.opt, Templates: td.train.Queries, Weight: ts.weight, Reorg: ts.reorg,
		})
	}

	srvCfg := serve.Config{Tenants: tenants, Workers: cfg.clients}
	if !s.resultCache {
		srvCfg.CacheEntries = -1
	}
	dep.srv, err = serve.New(srvCfg)
	if err != nil {
		return nil, err
	}
	dep.srv.Start()

	sec, err := timed(tr, "bench.warmup", root, func() error { return dep.warmUp(cfg) })
	dep.times.warmup = sec
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dep.times.total = time.Since(begin).Seconds()
	return dep, nil
}

// warmUp runs each client's first queries under a seed the measured run
// never uses, so pools, engine caches and (on tenants_hot) the result cache
// are filled before timing without pre-computing any measured answer.
func (d *deployment) warmUp(cfg runConfig) error {
	n := min(d.spec.warmup, cfg.countedOf(d.spec))
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := d.spec.stream(d, -1, c)
			for i := 0; i < n; i++ {
				// Position 0 throughout: on drift_reorg the warm-up is all
				// pre-shift traffic, the daemon's baseline.
				t, q := next(i, 0)
				if _, err := d.srv.Submit(context.Background(), d.tenants[t].spec.name, q); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// engineFor returns a harness-owned engine over tenant t's store, the
// "direct Execute" rung of the ladder.
func (d *deployment) engineFor(t int) *engine.Engine {
	td := d.tenants[t]
	return engine.New(td.store, td.design, td.ds, engine.DefaultOptions())
}

// segmentBytes sums the files under the deployment's segment directory.
func (d *deployment) segmentBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (d *deployment) rows() int {
	n := 0
	for _, td := range d.tenants {
		n += td.ds.NumRows()
	}
	return n
}

// close drains the server, closes the stores and removes the segments.
func (d *deployment) close() {
	if d == nil {
		return
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		d.srv.Shutdown(ctx)
		cancel()
	}
	for _, td := range d.tenants {
		if td.store != nil {
			td.store.Close()
		}
	}
	os.RemoveAll(d.dir)
}
