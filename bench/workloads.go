package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"

	"mto/internal/datagen"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// Fixed seeds: the dataset and the training workload never change with
// -seed, which drives only the measured traffic.
const (
	datasetSeed = 1
	trainSeed   = 2
)

// tenantSpec is one tenant of a workload's server.
type tenantSpec struct {
	name   string // also the benchmark family: "ssb", "tpch" or "tpcds"
	sf     float64
	weight float64
	// trainFrom/trainTo restrict the TPC-H training templates (drift_reorg
	// trains on 1–11 only); zero means all 22.
	trainFrom, trainTo int
	reorg              *reorgd.Config
}

// spec is one benchmark workload: what is deployed and what traffic runs.
type spec struct {
	name      string
	tenants   []tenantSpec
	poolBytes int64 // buffer pool per tenant store
	// warmup and counted are per-client counts: the unmeasured pass before
	// timing, and the prefix of the measured stream whose block counts and
	// digest are reported (see runConfig.countedOf). Each prefix takes about
	// half of BENCHMARK.json's run_seconds on the reference box, except on
	// drift_reorg, where it is the whole scenario.
	warmup, counted int
	// setups is how many times a timed run sets up; setup_s is the median.
	// More where one set-up is short, since short timings are noisier.
	setups int
	// resultCache keeps serve's result cache on. Several TPC-H templates
	// draw their parameters from domains of 4–60 values, so fresh instances
	// repeat within a run; with the cache on, a quarter of tpch_cold would be
	// LRU lookups. It is on only where it is the subject.
	resultCache bool
	// verifyEvery samples one served query in N of the counted prefix for
	// the post-run identity check against Server.ExecuteDirect, which builds
	// an engine per call (about 30 ms): 56, 56, 196 and 126 checks per run.
	verifyEvery int
	// stepAt drives the reorg daemon: one StepTenant on tenant 0 as the
	// first client passes each of these fractions of its counted prefix.
	stepAt []float64
	// twin adds a fully resident copy of tenant 0's store to the traced
	// ladder, so cold-minus-warm execution time isolates I/O and decode.
	twin bool
	// stream returns client c's query generator. Calls arrive in index
	// order; frac is the index as a fraction of the counted prefix, 1 or
	// more once the client is past it.
	stream func(d *deployment, seed int64, c int) streamFn
}

type streamFn func(i int, frac float64) (tenant int, q *workload.Query)

// Scale factors. The static TPC-H workloads run at SF 0.05 (435 blocks of
// 1000 rows, ~13 MB of encoded segments) so that three set-ups and a
// twelve-second measurement fit the per-run budget; the issue's SF 0.1
// sizing assumed 30–40 s runs. drift_reorg runs at SF 0.02 so that a daemon
// cycle (under a second) is short against the run.
const (
	tpchSF  = 0.05
	smallSF = 0.02
)

func specs() []spec {
	return []spec{
		{
			name:      "tpch_cold",
			tenants:   []tenantSpec{{name: "tpch", sf: tpchSF}},
			poolBytes: 4 << 20, // well below the working set: about half of pool lookups miss
			warmup:    110, counted: 440, setups: 3, verifyEvery: 16, twin: true,
			stream: tpchRoundRobin,
		},
		{
			name:      "tpch_warm",
			tenants:   []tenantSpec{{name: "tpch", sf: tpchSF}},
			poolBytes: 512 << 20, // everything resident after the warm-up pass
			warmup:    110, counted: 440, setups: 3, verifyEvery: 16, twin: true,
			stream: tpchRoundRobin,
		},
		{
			name: "tenants_hot",
			tenants: []tenantSpec{
				{name: "ssb", sf: smallSF, weight: 1},
				{name: "tpch", sf: smallSF, weight: 2},
				{name: "tpcds", sf: smallSF, weight: 1},
			},
			poolBytes: 64 << 20, resultCache: true,
			warmup: 2000, counted: 100_000, setups: 5, verifyEvery: 1024,
			stream: hotTemplates,
		},
		{
			name: "drift_reorg",
			tenants: []tenantSpec{{
				name: "tpch", sf: smallSF, trainFrom: 1, trainTo: 11,
				// Interval is an hour so the wall-clock loop never fires:
				// the harness drives every cycle through StepTenant. The
				// budget admits one rewrite of lineitem (about 150 blocks)
				// plus a small table per cycle. Window 256 rather than the
				// serving default of 64: a window of three template
				// rotations plans from a sample so small that which subtrees
				// clear the reward bar changes from seed to seed.
				reorg: &reorgd.Config{
					Budget: 230, Interval: time.Hour, Window: 256,
					MinCycleQueries: 32, TopK: 8, Seed: 1, Q: 5000, W: 100,
				},
			}},
			poolBytes: 64 << 20,
			warmup:    220, counted: 3000, setups: 5, verifyEvery: 48,
			// One cycle mid-shift and one just after it. Both install on
			// every seed tried; a third cycle, at 0.45, finds a reward near
			// zero and installs on some seeds only, which makes the write
			// and read counts bimodal, so it is left out.
			stepAt: []float64{0.12, 0.30},
			stream: tpchDrift,
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// family bundles what differs between the three benchmark generators.
type family struct {
	templates int
	blockSize int
	sortKeys  layout.SortKeys
	dataset   func(sf float64) *relation.Dataset
	training  func(from, to int) *workload.Workload
	fresh     func(template int, rng *rand.Rand) *workload.Query
}

var ssbQueries = [][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}, {3, 3}, {3, 4}, {4, 1}, {4, 2}, {4, 3}}

func familyOf(name string) family {
	switch name {
	case "ssb":
		return family{
			templates: len(ssbQueries), blockSize: 1000, sortKeys: datagen.SSBSortKeys(),
			dataset: func(sf float64) *relation.Dataset {
				return datagen.SSB(datagen.SSBConfig{ScaleFactor: sf, Seed: datasetSeed})
			},
			training: func(int, int) *workload.Workload { return datagen.SSBWorkload(trainSeed) },
			fresh: func(t int, rng *rand.Rand) *workload.Query {
				fq := ssbQueries[t-1]
				return datagen.SSBQuery(fq[0], fq[1], rng)
			},
		}
	case "tpch":
		return family{
			templates: datagen.NumTPCHTemplates, blockSize: 1000, sortKeys: datagen.TPCHSortKeys(),
			dataset: func(sf float64) *relation.Dataset {
				return datagen.TPCH(datagen.TPCHConfig{ScaleFactor: sf, Seed: datasetSeed})
			},
			training: func(from, to int) *workload.Workload {
				if from == 0 {
					from, to = 1, datagen.NumTPCHTemplates
				}
				return datagen.TPCHWorkloadTemplates(from, to, 8, trainSeed)
			},
			fresh: datagen.TPCHQuery,
		}
	case "tpcds":
		return family{
			templates: datagen.NumTPCDSTemplates, blockSize: 500, sortKeys: datagen.TPCDSSortKeys(),
			dataset: func(sf float64) *relation.Dataset {
				return datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: sf, Seed: datasetSeed})
			},
			training: func(int, int) *workload.Workload { return datagen.TPCDSWorkload(trainSeed) },
			fresh:    datagen.TPCDSQuery,
		}
	}
	panic("bench: unknown tenant family " + name)
}

func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 17))
}

// stamp gives a fresh instance an ID unique within the run, so a digest
// or a mismatch report names the exact submission.
func stamp(q *workload.Query, c, i int) *workload.Query {
	q.ID = q.ID + "@" + strconv.Itoa(c) + "." + strconv.Itoa(i)
	return q
}

// tpchRoundRobin yields fresh instances of the 22 templates in turn, so
// every query is a result-cache miss. Clients start half a cycle apart so
// the two heaviest templates do not always run side by side. tpch_cold and
// tpch_warm share it and count the same prefix, so with one seed they
// answer the same queries and their digests are equal.
func tpchRoundRobin(_ *deployment, seed int64, c int) streamFn {
	rng := clientRNG(seed, c)
	const n = datagen.NumTPCHTemplates
	return func(i int, _ float64) (int, *workload.Query) {
		return 0, stamp(datagen.TPCHQuery((i+c*n/2)%n+1, rng), c, i)
	}
}

// hotTemplates draws a tenant, then one of its registered templates,
// uniformly; one submission in a thousand is a fresh instance instead, so
// the engine path stays exercised at about a 99.9 % result-cache hit rate.
func hotTemplates(d *deployment, seed int64, c int) streamFn {
	rng := clientRNG(seed, c)
	return func(i int, _ float64) (int, *workload.Query) {
		t := rng.Intn(len(d.tenants))
		td := d.tenants[t]
		if rng.Intn(1000) == 0 {
			return t, stamp(td.fam.fresh(rng.Intn(td.fam.templates)+1, rng), c, i)
		}
		return t, td.train.Queries[rng.Intn(len(td.train.Queries))]
	}
}

// tpchDrift shifts the traffic from templates 1–11 into 12–22. A
// workload.Drift schedule, walked by position in the counted prefix, says
// which of the two phases a submission belongs to: the cross-fade takes the
// first quarter of the prefix and everything after it is pure 12–22 traffic,
// so the daemon has half the prefix to adapt before the tail is measured. Within a phase the templates go
// round-robin and every instance is fresh, so each daemon window holds the
// same template mix and only the parameters differ between seeds.
func tpchDrift(_ *deployment, seed int64, c int) streamFn {
	rng := clientRNG(seed, c)
	before, after := workload.NewQuery("before"), workload.NewQuery("after")
	schedule := workload.Drift([][]*workload.Query{{before}, {after}, {after}, {after}}, 4096, seed*31+int64(c))
	const half = datagen.NumTPCHTemplates / 2
	var issued [2]int // per phase
	return func(i int, frac float64) (int, *workload.Query) {
		pos := max(0, min(int(frac*float64(len(schedule))), len(schedule)-1))
		phase := 0
		if schedule[pos] == after {
			phase = 1
		}
		t := phase*half + (issued[phase]+c*half/2)%half + 1
		issued[phase]++
		return 0, stamp(datagen.TPCHQuery(t, rng), c, i)
	}
}

// invariantAliases lists the aliases whose SurvivingRows do not depend on
// the layout: all but the key-feeding side of an anti-semi join, whose
// count reflects how many of its blocks the layout let the engine skip.
func invariantAliases(q *workload.Query) []string {
	out := q.Aliases()
	for _, j := range q.Joins {
		switch j.Type {
		case workload.LeftAntiSemiJoin:
			out = without(out, j.Right)
		case workload.RightAntiSemiJoin:
			out = without(out, j.Left)
		}
	}
	return out
}

func without(aliases []string, drop string) []string {
	return slices.DeleteFunc(aliases, func(a string) bool { return a == drop })
}

// shapeOf buckets a query by the engine kernel that dominates it.
func shapeOf(q *workload.Query) string {
	switch {
	case !q.GroupBy.IsZero():
		return "groupby"
	case len(q.Tables) >= 2:
		return "join"
	default:
		return "scan_only"
	}
}
