package qdtree

import (
	"mto/internal/predicate"
	"mto/internal/relation"
)

// seedBuild is the pre-bitset greedy build kept verbatim as a reference:
// boolean membership matrix, explicit row-id slices, sequential scoring, and
// a second routing pass (through the oracle router) when partitioning
// queries. The identity tests pin the rewritten Build to this
// implementation, and BenchmarkBuildSeed measures the speedup against it.
func seedBuild(tbl *relation.Table, queries []BuildQuery, cuts []Cut, cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CASampleRate == 0 {
		cfg.CASampleRate = cfg.SampleRate
	}
	tree := &Tree{Table: cfg.Table, BlockSize: cfg.BlockSize, Schema: tbl.Schema()}

	matches := make([][]bool, len(cuts))
	for i, c := range cuts {
		bits := newBitset(tbl.NumRows())
		c.FillMask(tbl, nil, bits, nil)
		m := make([]bool, tbl.NumRows())
		for r := range m {
			m[r] = bits.get(r)
		}
		matches[i] = m
	}

	rows := make([]int32, tbl.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	b := &seedBuilder{schema: tbl.Schema(), cuts: cuts, matches: matches, cfg: cfg}
	tree.Root = b.split(rows, queries, predicate.Ranges{}, map[string]bool{}, 1,
		float64(len(rows))/cfg.SampleRate, nil)
	tree.Reindex()
	return tree, nil
}

type seedBuilder struct {
	schema  *relation.Schema
	cuts    []Cut
	matches [][]bool
	cfg     Config
}

func (b *seedBuilder) split(rows []int32, queries []BuildQuery, region predicate.Ranges,
	pathJoins map[string]bool, k float64, est float64, parent *Node) *Node {

	node := &Node{
		Parent:     parent,
		LeafIndex:  -1,
		SampleRows: len(rows),
		EstRows:    est,
		Region:     region,
	}
	if est < 2*float64(b.cfg.BlockSize) || len(rows) < 2 || len(queries) == 0 {
		return node
	}

	bestIdx, bestScore, bestCountL, bestEstL, bestKNew := -1, 0.0, 0, 0.0, 1.0
	s := b.cfg.SampleRate
	for i, cut := range b.cuts {
		countL := 0
		m := b.matches[i]
		for _, r := range rows {
			if m[r] {
				countL++
			}
		}
		if countL == 0 || countL == len(rows) {
			continue
		}
		kNew := 1.0
		if !b.cfg.DisableCA {
			rates := cut.JoinRates()
			for hi, jk := range cut.JoinKeys() {
				if pathJoins[jk] {
					continue
				}
				if rates != nil {
					kNew *= rates[hi]
				} else {
					kNew *= b.cfg.CASampleRate
				}
			}
		}
		estL := float64(countL) / (s * k * kNew)
		if estL > est {
			estL = est
		}
		estR := est - estL
		if estL < float64(b.cfg.BlockSize) || estR < float64(b.cfg.BlockSize) {
			continue
		}
		score := 0.0
		for qi := range queries {
			bq := &queries[qi]
			rc := RouteContext{Query: bq.Query, Alias: bq.Alias, Filter: bq.Query.FilterOn(bq.Alias), Schema: b.schema}
			l, r := oracleRoute(cut, &rc, region)
			if !l {
				score += bq.Weight * estL
			}
			if !r {
				score += bq.Weight * estR
			}
		}
		if score > bestScore {
			bestIdx, bestScore = i, score
			bestCountL, bestEstL, bestKNew = countL, estL, kNew
		}
	}
	if bestIdx < 0 {
		return node
	}

	cut := b.cuts[bestIdx]
	node.Cut = cut

	m := b.matches[bestIdx]
	leftRows := make([]int32, 0, bestCountL)
	rightRows := make([]int32, 0, len(rows)-bestCountL)
	for _, r := range rows {
		if m[r] {
			leftRows = append(leftRows, r)
		} else {
			rightRows = append(rightRows, r)
		}
	}

	var leftQs, rightQs []BuildQuery
	for qi := range queries {
		bq := queries[qi]
		rc := RouteContext{Query: bq.Query, Alias: bq.Alias, Filter: bq.Query.FilterOn(bq.Alias), Schema: b.schema}
		l, r := oracleRoute(cut, &rc, region)
		if l {
			leftQs = append(leftQs, bq)
		}
		if r {
			rightQs = append(rightQs, bq)
		}
	}

	leftJoins := pathJoins
	leftK := k
	if jk := cut.JoinKeys(); len(jk) > 0 && !b.cfg.DisableCA {
		leftJoins = make(map[string]bool, len(pathJoins)+len(jk))
		for j := range pathJoins {
			leftJoins[j] = true
		}
		for _, j := range jk {
			leftJoins[j] = true
		}
		leftK = k * bestKNew
	}

	node.Left = b.split(leftRows, leftQs, cut.LeftRanges(region, b.schema), leftJoins, leftK, bestEstL, node)
	node.Right = b.split(rightRows, rightQs, cut.RightRanges(region, b.schema), pathJoins, k, est-bestEstL, node)
	return node
}
