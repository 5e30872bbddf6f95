// Command mtoserve runs the multi-tenant query-serving frontend over three
// MTO-optimized tenants (SSB, TPC-H, TPC-DS). The TPC-H tenant carries a
// live reorg daemon: as client traffic shifts, the daemon installs budgeted
// partial reorganizations through atomic generation swaps while queries
// keep draining.
//
// Endpoints:
//
//	POST /query      {"tenant":"tpch","id":"q12-0"}  → result payload
//	                 {"direct":true} bypasses queue and cache (verification)
//	GET  /templates  [?tenant=...]                   → registered query IDs
//	GET  /stats                                      → server + tenant stats
//	GET  /healthz                                    → 200 serving, 503 draining
//
// SIGINT/SIGTERM drain gracefully: in-flight queries complete, new ones are
// rejected with 503.
//
// Usage:
//
//	mtoserve [-addr :8080] [-sf 0.02] [-workers 8] [-rate 0] [-reorg-interval 1s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mto/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtoserve:", err)
		os.Exit(1)
	}
}

// run builds the tenants and serves until a signal or a listen error. It
// returns only after its deferred cleanup (the -store disk temp directory,
// the tenants' stores) has run, so main's exit never skips it.
func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		sf           = flag.Float64("sf", 0.02, "scale factor for the generated datasets")
		perTemplate  = flag.Int("per-template", 8, "TPC-H queries per template")
		seed         = flag.Int64("seed", 1, "random seed")
		parallel     = flag.Int("parallel", 0, "worker budget for layout building (0 = GOMAXPROCS)")
		store        = flag.String("store", "mem", `where the columnar segments live: "mem" (held in memory) or "disk" (segment files)`)
		datadir      = flag.String("datadir", "", "segment directory for -store=disk (default: a temp dir removed on exit)")
		cacheMB      = flag.Int("cache-mb", 64, "buffer-pool capacity for -store=disk in MiB")
		workers      = flag.Int("workers", 8, "query worker-pool size")
		rate         = flag.Float64("rate", 0, "token-bucket admission rate in queries/sec (0 = unlimited)")
		burst        = flag.Float64("burst", 0, "token-bucket burst (defaults to rate)")
		cacheEntries = flag.Int("cache-entries", 4096, "result-cache capacity (negative disables)")
		budget       = flag.Int("reorg-budget", 80, "per-cycle block-write budget for the TPC-H tenant's daemon")
		interval     = flag.Duration("reorg-interval", time.Second, "background daemon cycle period")
	)
	flag.Parse()

	scale := experiments.DefaultScale()
	scale.SF = *sf
	scale.PerTemplate = *perTemplate
	scale.Seed = *seed
	scale.Parallel = *parallel
	scale.Store = *store
	scale.CacheMB = *cacheMB
	if *store == "disk" {
		scale.DataDir = *datadir
		if scale.DataDir == "" {
			dir, err := os.MkdirTemp("", "mtoserve-segments-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			scale.DataDir = dir
		}
	}

	fmt.Fprintf(os.Stderr, "mtoserve: building tenants (sf=%g, store=%s)...\n", *sf, *store)
	dep, err := experiments.NewServeDeployment(scale, experiments.ServeScenario{
		Workers:      *workers,
		Rate:         *rate,
		Burst:        *burst,
		CacheEntries: *cacheEntries,
		Budget:       *budget,
		Interval:     *interval,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dep.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mtoserve: close:", cerr)
		}
	}()
	srv := dep.Server
	srv.Start()
	for _, name := range srv.Tenants() {
		fmt.Fprintf(os.Stderr, "mtoserve: tenant %-6s %d templates\n", name, len(srv.TemplateIDs(name)))
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mtoserve: serving on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "mtoserve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mtoserve: drain:", err)
	}
	if serveErr != nil {
		return serveErr
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mtoserve: http:", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "mtoserve: done — %d completed, %d cache hits, %d generation swaps\n",
		st.Completed, st.Cache.Hits, st.GenerationSwaps)
	return nil
}
