// Package reorgd implements the adaptive incremental reorganization
// daemon: a long-running loop that watches a rolling query log, scores
// qd-tree staleness per table, and each cycle re-optimizes only the
// highest-scoring subtrees under a physical block-write budget. Candidate
// layout strategies are chosen by a seeded multi-armed bandit whose reward
// is the observed blocks-read improvement after each install, so the
// daemon learns which re-optimization recipe pays off for the workload at
// hand (observe → propose → migrate → evaluate → learn). The daemon drives
// one live.Instance: it stages each install beside the instance's queries
// and commits it through Instance.Reorganize, which bumps the generation
// and rebuilds the engine under the instance's write lock.
package reorgd

import (
	"math"
	"math/rand"
)

// Bandit is a deterministic multi-armed bandit over layout strategies.
// With Epsilon == 0 it runs UCB1; otherwise seeded epsilon-greedy. Both
// pull every arm once first (lowest index first) and break value ties by
// lowest index, so a fixed seed yields a byte-identical decision sequence.
type Bandit struct {
	arms  []string
	pulls []int
	sums  []float64
	total int
	eps   float64
	rng   *rand.Rand
}

// NewBandit returns a bandit over the named arms. epsilon == 0 selects
// UCB1; epsilon > 0 selects epsilon-greedy with a rand.Source seeded by
// seed (the only randomness in the daemon).
func NewBandit(arms []string, epsilon float64, seed int64) *Bandit {
	if len(arms) == 0 {
		panic("reorgd: bandit needs at least one arm")
	}
	return &Bandit{
		arms:  append([]string(nil), arms...),
		pulls: make([]int, len(arms)),
		sums:  make([]float64, len(arms)),
		eps:   epsilon,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Name returns arm i's name.
func (b *Bandit) Name(i int) string { return b.arms[i] }

// Pick selects the next arm to pull.
func (b *Bandit) Pick() int {
	for i, n := range b.pulls {
		if n == 0 {
			return i
		}
	}
	if b.eps > 0 {
		if b.rng.Float64() < b.eps {
			return b.rng.Intn(len(b.arms))
		}
		return b.best(func(i int) float64 { return b.sums[i] / float64(b.pulls[i]) })
	}
	// UCB1: mean + sqrt(2 ln N / n_i).
	return b.best(func(i int) float64 {
		return b.sums[i]/float64(b.pulls[i]) +
			math.Sqrt(2*math.Log(float64(b.total))/float64(b.pulls[i]))
	})
}

func (b *Bandit) best(score func(int) float64) int {
	bestIdx, bestVal := 0, math.Inf(-1)
	for i := range b.arms {
		if v := score(i); v > bestVal {
			bestIdx, bestVal = i, v
		}
	}
	return bestIdx
}

// Update records the reward of a pull of arm i.
func (b *Bandit) Update(i int, reward float64) {
	b.pulls[i]++
	b.sums[i] += reward
	b.total++
}
