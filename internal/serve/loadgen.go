package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/workload"
)

// LoadConfig parameterizes the in-process load generator.
type LoadConfig struct {
	// Streams maps tenant → the query pool its traffic samples from
	// (typically a drift stream; queries are drawn by index, uniformly at
	// random per worker).
	Streams map[string][]*workload.Query
	// Total is the number of submissions to issue across all tenants.
	Total int64
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int
	// OpenRateQPS > 0 switches to an open loop: workers pace their issues
	// to an aggregate target rate instead of issuing back to back.
	OpenRateQPS float64
	// Seed drives query selection (per-worker rngs derived from it).
	Seed int64
	// Ordered walks each stream by issue order instead of sampling
	// uniformly: submission n draws its tenant's query at stream position
	// n/Total — preserving the temporal structure of drift streams, so a
	// workload shift encoded in the stream actually arrives as a shift.
	Ordered bool
	// VerifyEveryN, when > 0, re-executes every Nth submission directly
	// (fresh engine, no cache) and requires the served result to be
	// byte-identical whenever both ran under the same layout generation.
	VerifyEveryN int64
}

// LoadStats is the generator's outcome. Latency is client-observed,
// including queue wait: submit-to-response in the closed loop, and in the
// open loop from the instant the request was due, so a stall is charged to
// every request that fell due during it.
type LoadStats struct {
	Queries   int64 `json:"queries"`
	Cached    int64 `json:"cached"`
	Errors    int64 `json:"errors"`
	Rejected  int64 `json:"rejected"`
	Verified  int64 `json:"verified"`
	Identical int64 `json:"identical"`
	// GenSkew counts verification pairs skipped because a generation swap
	// landed between the served and the direct execution (results may then
	// differ legitimately).
	GenSkew    int64          `json:"gen_skew_skipped"`
	Mismatches []string       `json:"mismatches,omitempty"`
	Seconds    float64        `json:"seconds"`
	QPS        float64        `json:"qps"`
	Latency    LatencySummary `json:"latency"`
	// MaxLatenessUS is the furthest the open-loop generator fell behind its
	// schedule: the longest gap between a request's due time and its send
	// (0 in the closed loop).
	MaxLatenessUS int64 `json:"max_lateness_us"`
}

// RunLoad drives cfg.Total submissions at the server and returns the
// aggregate stats. An identity mismatch does not abort the run — it is
// recorded (first few, verbatim) and surfaces in Mismatches so the caller
// can fail loudly with evidence.
func RunLoad(ctx context.Context, s *Server, cfg LoadConfig) (*LoadStats, error) {
	if len(cfg.Streams) == 0 {
		return nil, fmt.Errorf("serve: load config has no streams")
	}
	tenants := make([]string, 0, len(cfg.Streams))
	for _, name := range s.Tenants() {
		if pool := cfg.Streams[name]; len(pool) > 0 {
			tenants = append(tenants, name)
		}
	}
	if len(tenants) != len(cfg.Streams) {
		return nil, fmt.Errorf("serve: streams reference unregistered tenants or empty pools")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}

	var (
		issued    atomic.Int64
		stats     LoadStats
		statMu    sync.Mutex
		hist      = NewHistogram()
		queries   atomic.Int64
		cached    atomic.Int64
		errsN     atomic.Int64
		rejected  atomic.Int64
		verified  atomic.Int64
		identical atomic.Int64
		genSkew   atomic.Int64
		maxLate   atomic.Int64 // ns
	)
	var interval time.Duration
	if cfg.OpenRateQPS > 0 {
		interval = time.Duration(float64(cfg.Concurrency) / cfg.OpenRateQPS * float64(time.Second))
	}

	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			next := time.Now()
			for {
				n := issued.Add(1)
				if n > cfg.Total || ctx.Err() != nil {
					return
				}
				due := next
				if interval > 0 {
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					late := int64(time.Since(due))
					for cur := maxLate.Load(); late > cur && !maxLate.CompareAndSwap(cur, late); {
						cur = maxLate.Load()
					}
					next = due.Add(interval)
				}
				tenant := tenants[rng.Intn(len(tenants))]
				pool := cfg.Streams[tenant]
				var q *workload.Query
				if cfg.Ordered {
					idx := int((n - 1) * int64(len(pool)) / cfg.Total)
					if idx >= len(pool) {
						idx = len(pool) - 1
					}
					q = pool[idx]
				} else {
					q = pool[rng.Intn(len(pool))]
				}

				t0 := time.Now()
				if interval > 0 {
					t0 = due
				}
				resp, err := s.Submit(ctx, tenant, q)
				if err != nil {
					switch {
					case errors.Is(err, ErrRateLimited) || errors.Is(err, ErrOverloaded):
						rejected.Add(1)
					case errors.Is(err, context.Canceled) || errors.Is(err, ErrShuttingDown):
						return
					default:
						errsN.Add(1)
					}
					continue
				}
				hist.RecordDuration(time.Since(t0))
				queries.Add(1)
				if resp.Cached {
					cached.Add(1)
				}

				if cfg.VerifyEveryN > 0 && n%cfg.VerifyEveryN == 0 {
					direct, dgen, derr := s.ExecuteDirect(tenant, q)
					if derr != nil {
						errsN.Add(1)
						continue
					}
					if dgen != resp.Gen {
						genSkew.Add(1)
						continue
					}
					verified.Add(1)
					if reflect.DeepEqual(resp.Result, direct) {
						identical.Add(1)
					} else {
						statMu.Lock()
						if len(stats.Mismatches) < 5 {
							stats.Mismatches = append(stats.Mismatches,
								fmt.Sprintf("tenant %s query %s gen %d: served %+v != direct %+v",
									tenant, q.ID, resp.Gen, resp.Result, direct))
						}
						statMu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	stats.Queries = queries.Load()
	stats.Cached = cached.Load()
	stats.Errors = errsN.Load()
	stats.Rejected = rejected.Load()
	stats.Verified = verified.Load()
	stats.Identical = identical.Load()
	stats.GenSkew = genSkew.Load()
	stats.Seconds = time.Since(begin).Seconds()
	if stats.Seconds > 0 {
		stats.QPS = float64(stats.Queries) / stats.Seconds
	}
	stats.Latency = hist.Summary()
	stats.MaxLatenessUS = maxLate.Load() / int64(time.Microsecond)
	return &stats, nil
}
