package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mto/internal/engine"
	"mto/internal/serve"
	"mto/internal/workload"
)

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed int64
	// seconds is the least time the clients measure for. A client also
	// always finishes its counted prefix (spec.counted), so a run is the
	// longer of the two and a slow box never truncates the counted part.
	seconds float64
	clients int

	// No flag sets these three; smoke_test.go uses them to run at toy scale.
	counted int     // overrides the workload's counted prefix when > 0
	sf      float64 // overrides every tenant's scale factor when > 0
	setups  int     // overrides the workload's set-ups per timed run when > 0
}

// runResult is one run of one workload, timed or traced.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Verified  int               `json:"verified"`
	GenSkew   int               `json:"gen_skew_skipped"`
	Digest    string            `json:"digest,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one completed submission; idx is its index in its client's
// stream.
type sample struct {
	latNs                   int64
	idx                     int32
	blocksRead, totalBlocks int32
}

// served keeps a sampled response for the post-run identity check.
type served struct {
	tenant int
	q      *workload.Query
	resp   serve.Response
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	samples []sample
	kept    []served
	digest  uint64
	failed  int
	errs    []string
}

// countedOf is the length of each client's counted prefix: the queries
// whose block counts and digest a run reports and from which it samples the
// identity check. They are fixed by the seed
// alone, so those numbers do not depend on how fast the box is; queries a
// client issues after its prefix, until the time is up, add latency and
// throughput samples only.
func (cfg runConfig) countedOf(s spec) int {
	if cfg.counted > 0 {
		return cfg.counted
	}
	return s.counted
}

// tailFrom is where the "tail" of the counted prefix starts: its last
// quarter.
const tailFrom = 0.75

// digestOf hashes a result's layout-invariant fields. Per-query hashes are
// summed, so the digest does not depend on completion order.
func digestOf(q *workload.Query, res *engine.Result, buf []byte) (uint64, []byte) {
	buf = append(buf[:0], q.ID...)
	for _, a := range invariantAliases(q) {
		buf = append(buf, '|')
		buf = append(buf, a...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(res.SurvivingRows[a]), 10)
	}
	for _, av := range res.Aggregates {
		buf = append(buf, '|')
		buf = append(buf, av.String()...)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64(), buf
}

// stepLog is what the daemon-stepping goroutine recorded.
type stepLog struct {
	reorgNs []int64 // wall time of StepTenant calls that installed a reorg
	maxNs   int64
	err     error
}

// runClients drives the closed loop: cfg.clients goroutines, each issuing
// its own seed-derived stream through Server.Submit and waiting for every
// reply, until it has finished its counted prefix and cfg.seconds have
// passed. A client's position is its index as a fraction of the prefix; the
// drift stream and the daemon's cycles are defined on it, so the scenario is
// the same at every box speed. On a reorg workload a further goroutine steps
// the daemon as the first client passes each stepAt position, concurrently
// with the clients; it is the only goroutine that touches tr (nil in a timed
// run).
func runClients(d *deployment, cfg runConfig, tr *tracer) ([]*clientLog, *stepLog, time.Duration) {
	s := d.spec
	counted := cfg.countedOf(s)
	atLeast := time.Duration(cfg.seconds * float64(time.Second))
	logs := make([]*clientLog, cfg.clients)
	var nextStep atomic.Int32                    // index into s.stepAt of the next cycle to trigger
	stepCh := make(chan struct{}, len(s.stepAt)) // sized to the number of sends
	steps := &stepLog{}
	var stepWG sync.WaitGroup
	if len(s.stepAt) > 0 {
		stepWG.Add(1)
		go func() {
			defer stepWG.Done()
			tenant := d.tenants[0].spec.name
			for range stepCh {
				id := tr.begin("reorgd.step", 0, 0)
				t0 := time.Now()
				cs, err := d.srv.StepTenant(tenant)
				ns := time.Since(t0).Nanoseconds()
				tr.end(id)
				if err != nil {
					steps.err = err
					return
				}
				steps.maxNs = max(steps.maxNs, ns)
				if cs.Action == "reorg" {
					steps.reorgNs = append(steps.reorgNs, ns)
				}
			}
		}()
	}

	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int, log *clientLog) {
			defer wg.Done()
			next := s.stream(d, cfg.seed, c)
			var buf []byte
			done := begin
			for i := 0; i < counted || done.Sub(begin) < atLeast; i++ {
				frac := float64(i) / float64(counted)
				t, q := next(i, frac)
				t0 := time.Now()
				resp, err := d.srv.Submit(context.Background(), d.tenants[t].spec.name, q)
				done = time.Now()
				if err != nil {
					log.failed++
					if len(log.errs) < 3 {
						log.errs = append(log.errs, fmt.Sprintf("%s: %v", q.ID, err))
					}
					continue
				}
				res := resp.Result
				log.samples = append(log.samples, sample{
					latNs: done.Sub(t0).Nanoseconds(), idx: int32(i),
					blocksRead: int32(res.BlocksRead), totalBlocks: int32(d.tenants[t].installedFor(res)),
				})
				if i < counted {
					var h uint64
					h, buf = digestOf(q, res, buf)
					log.digest += h
					if i%s.verifyEvery == 0 {
						log.kept = append(log.kept, served{tenant: t, q: q, resp: resp})
					}
				}
				if k := nextStep.Load(); int(k) < len(s.stepAt) && frac >= s.stepAt[k] && nextStep.CompareAndSwap(k, k+1) {
					stepCh <- struct{}{}
				}
			}
		}(c, logs[c])
	}
	wg.Wait()
	wall := time.Since(begin)
	close(stepCh)
	stepWG.Wait()
	return logs, steps, wall
}

// verify re-runs the sampled queries through Server.ExecuteDirect after
// the measurement. At equal generation the served result must be
// reflect.DeepEqual to the direct one; when a swap landed in between, the
// block counts legitimately differ, so only the layout-invariant fields are
// compared and the pair is counted as generation-skewed.
func verify(d *deployment, logs []*clientLog, res *runResult) {
	var buf []byte
	for _, log := range logs {
		for _, k := range log.kept {
			direct, gen, err := d.srv.ExecuteDirect(d.tenants[k.tenant].spec.name, k.q)
			if err != nil {
				res.Failed++
				res.note("verify %s: %v", k.q.ID, err)
				continue
			}
			res.Verified++
			same := false
			if gen == k.resp.Gen {
				same = reflect.DeepEqual(k.resp.Result, direct)
			} else {
				res.GenSkew++
				var a, b uint64
				a, buf = digestOf(k.q, k.resp.Result, buf)
				b, buf = digestOf(k.q, direct, buf)
				same = a == b
			}
			if !same {
				res.Failed++
				res.note("identity mismatch on %s (served gen %d, direct gen %d)", k.q.ID, k.resp.Gen, gen)
			}
		}
	}
}

func (r *runResult) note(format string, args ...any) {
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// runTimed is the untraced run: several set-ups (the last one is kept and
// measured), the closed loop, the post-run checks, and the end-to-end
// metrics.
func runTimed(s spec, cfg runConfig, man *manifest, sc *scratch, expected digests) (*runResult, error) {
	var dep *deployment
	var setupS []float64
	setups := s.setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	for i := 0; i < setups; i++ {
		dep.close()
		var err error
		if dep, err = deploy(s, cfg, sc, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, dep.times.total)
	}
	defer dep.close()

	logs, steps, wall := runClients(dep, cfg, nil)
	res := &runResult{Workload: s.name, Seed: cfg.seed}
	if steps.err != nil {
		return nil, fmt.Errorf("daemon step: %w", steps.err)
	}

	var lats []int64
	var digest uint64
	for _, log := range logs {
		res.Failed += log.failed
		res.Attempted += log.failed + len(log.samples)
		digest += log.digest
		for _, e := range log.errs {
			res.note("submit %s", e)
		}
		for _, sm := range log.samples {
			lats = append(lats, sm.latNs)
		}
	}
	reads, _ := countedReads(logs, cfg.countedOf(s))
	if len(lats) == 0 {
		return nil, fmt.Errorf("%s: no query completed", s.name)
	}
	st := dep.srv.Stats()
	res.Failed += int(st.Errors + st.RejectedRate + st.RejectedQueue)
	verify(dep, logs, res)

	res.Digest = fmt.Sprintf("%016x", digest)
	if want, ok := expected.lookup(s, cfg); ok && want != res.Digest {
		res.Failed++
		res.note("digest %s, expected %s", res.Digest, want)
	}
	if len(s.stepAt) > 0 && st.GenerationSwaps == 0 {
		res.note("no generation swap installed")
	}

	var written, installed float64
	for _, td := range dep.tenants {
		written += float64(td.store.Stats().BlocksWritten)
		installed += float64(td.installedBlocks())
	}
	segBytes, err := dep.segmentBytes()
	if err != nil {
		return nil, err
	}

	slices.Sort(lats)
	n := len(lats)
	ms := newMetricSet(man.EndToEnd)
	ms.set("setup_s", median(setupS), len(setupS))
	ms.set("queries_per_s", float64(n)/wall.Seconds(), n)
	ms.set("query_p50_ms", float64(percentile(lats, 50))*msPerNs, n)
	ms.set("query_p99_ms", float64(percentile(lats, 99))*msPerNs, n)
	ms.set("blocks_read_frac", reads.frac(), reads.n)
	ms.set("write_amplification", ratio(written, installed), int(installed))
	ms.set("segment_bytes_per_row", ratio(float64(segBytes), float64(dep.rows())), dep.rows())
	if res.Metrics, err = ms.done(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// blockCount sums blocks read against blocks installed over some samples.
type blockCount struct {
	read, installed float64
	n               int
}

func (b *blockCount) add(sm sample) {
	b.read += float64(sm.blocksRead)
	b.installed += float64(sm.totalBlocks)
	b.n++
}

func (b blockCount) frac() float64 { return ratio(b.read, b.installed) }

// countedReads sums the block counts of every client's counted prefix, and
// of the prefix's tail.
func countedReads(logs []*clientLog, counted int) (all, tail blockCount) {
	tailIdx := int32(tailFrom * float64(counted))
	for _, log := range logs {
		for _, sm := range log.samples {
			if int(sm.idx) >= counted {
				continue
			}
			all.add(sm)
			if sm.idx >= tailIdx {
				tail.add(sm)
			}
		}
	}
	return all, tail
}

// digests holds bench/expected_digests.json: the digest of the counted
// prefix at its default size, per workload and seed.
type digests map[string]map[string]string

// lookup returns the recorded digest for a run at the workload's default
// size and scale; overridden sizes have none.
func (e digests) lookup(s spec, cfg runConfig) (string, bool) {
	if cfg.counted > 0 || cfg.sf > 0 {
		return "", false
	}
	want, ok := e[s.name][strconv.FormatInt(cfg.seed, 10)]
	return want, ok
}
