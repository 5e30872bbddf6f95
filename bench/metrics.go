package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the harness reads: it is the one
// place metric names, units and bounds are declared, and the harness
// refuses to emit a metric it does not list.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// metric is one measured value; N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects one run's metrics against the declared list.
type metricSet struct {
	decls  []metricDecl
	values map[string]metric
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: map[string]metric{}}
}

func (s *metricSet) set(name string, v float64, n int) {
	for _, d := range s.decls {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.values[name] = metric{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in BENCHMARK.json")
}

// done returns the collected metrics, or an error naming the declared
// metrics the run did not measure.
func (s *metricSet) done() (map[string]metric, error) {
	var missing []string
	for _, d := range s.decls {
		if _, ok := s.values[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return s.values, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank p-th percentile of sorted (0 when
// empty).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(1, min(rank, len(sorted)))-1]
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), the
// rule the acceptance driver applies. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

const (
	msPerNs = 1e-6
	usPerNs = 1e-3
)
