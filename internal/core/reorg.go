package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mto/internal/block"
	"mto/internal/induce"
	"mto/internal/layout"
	"mto/internal/qdtree"
	"mto/internal/relation"
	"mto/internal/workload"
)

// ReorgConfig parameterizes the reward function R(T,Q) = (q/w)·B(T,Q) − C(T)
// of §5.1.2.
type ReorgConfig struct {
	// Q is the number of future queries expected from the observed
	// distribution before the next workload shift. math.Inf(1) forces a
	// full reorganization.
	Q float64
	// W is the relative cost of writing vs reading a block (the paper's
	// evaluation system has w ≈ 100).
	W float64
	// DisablePruning turns off the §5.1.3 bound-based pruning (ablation);
	// every subtree's benefit is computed exactly.
	DisablePruning bool
	// Tables restricts planning to the named tables (nil = every table).
	// The incremental daemon plans only its top-staleness tables per cycle.
	Tables []string
	// ExtraCuts adds per-table candidate cuts beyond those extracted from
	// the observed workload (e.g. the current tree's cuts, so a rebuild can
	// retain splits that still discriminate). Duplicates of observed cuts
	// are ignored.
	ExtraCuts map[string][]qdtree.Cut
}

func (c ReorgConfig) withDefaults() ReorgConfig {
	if c.W == 0 {
		c.W = 100
	}
	return c
}

// subtreeChoice is one selected reorganization target.
type subtreeChoice struct {
	node    *qdtree.Node
	newTree *qdtree.Tree
	reward  float64
	blocks  int // blocks under node
	rows    int // records under node
	// order is the node's BFS index in the tree, giving budget trimming a
	// deterministic identity for tie-breaking.
	order int
}

// ReorgPlan is the outcome of §5.1.3's optimization for one table.
type ReorgPlan struct {
	Table string
	// TotalReward is the combined reward of the chosen subtree set.
	TotalReward float64
	// SubtreesConsidered / SubtreesTotal report how much work pruning
	// saved (Table 5's "fraction of subtrees considered").
	SubtreesConsidered int
	SubtreesTotal      int
	// BlocksToRewrite counts the blocks under the chosen subtrees.
	BlocksToRewrite int
	// RowsToRewrite counts the records that will move.
	RowsToRewrite int
	// PlanSeconds is the wall-clock time spent planning (re-optimization
	// time in Table 5).
	PlanSeconds float64

	choices []subtreeChoice
}

// PlanReorg evaluates, for every table, which qd-tree subtrees are worth
// reorganizing for the observed workload (§5.1.2–5.1.3). design must be the
// installed design produced by this optimizer (its group→block mapping
// gives C(T)). The plan does not modify any state; pass it to ApplyReorg.
func (o *Optimizer) PlanReorg(observed *workload.Workload, cfg ReorgConfig, design *layout.Design) (map[string]*ReorgPlan, error) {
	cfg = cfg.withDefaults()
	if err := observed.Validate(); err != nil {
		return nil, err
	}
	tables := cfg.Tables
	if tables == nil {
		tables = o.ds.TableNames()
	} else {
		tables = append([]string(nil), tables...)
		sort.Strings(tables)
		for _, name := range tables {
			if o.ds.Table(name) == nil {
				return nil, fmt.Errorf("core: unknown table %q in reorg config", name)
			}
		}
	}
	// Candidate cuts from the observed workload, with literals on the full
	// dataset (reorganization always runs on full records, §5.1.2).
	simple := workload.SimplePredicates(observed)
	var inducedByTable map[string][]*induce.Predicate
	if o.opts.JoinInduction {
		inducedByTable = induce.FromWorkload(observed, o.unique, o.opts.MaxInductionDepth)
		if err := induce.EvaluateAll(o.ds, flattenInduced(inducedByTable), o.opts.Parallelism); err != nil {
			return nil, err
		}
	}
	plans := map[string]*ReorgPlan{}
	for _, name := range tables {
		var cuts []qdtree.Cut
		seen := map[string]bool{}
		for _, p := range simple[name] {
			c := qdtree.NewSimpleCut(p)
			seen[c.String()] = true
			cuts = append(cuts, c)
		}
		for _, ip := range inducedByTable[name] {
			c := qdtree.NewInducedCut(ip)
			seen[c.String()] = true
			cuts = append(cuts, c)
		}
		for _, c := range cfg.ExtraCuts[name] {
			if key := c.String(); !seen[key] {
				seen[key] = true
				cuts = append(cuts, c)
			}
		}
		plan, err := o.planTableReorg(name, observed, cfg, design, cuts)
		if err != nil {
			return nil, err
		}
		plans[name] = plan
	}
	return plans, nil
}

// planTableReorg runs the reward computation and DP for one table.
func (o *Optimizer) planTableReorg(table string, observed *workload.Workload,
	cfg ReorgConfig, design *layout.Design, cuts []qdtree.Cut) (*ReorgPlan, error) {

	start := time.Now()
	tree := o.trees[table]
	tbl := o.ds.Table(table)
	groups := design.Table(table).Groups()
	groupBlocks := design.GroupBlocks(table)
	if groupBlocks == nil {
		return nil, fmt.Errorf("core: design not installed for table %q", table)
	}
	plan := &ReorgPlan{Table: table}

	// Route each observed query once; record the leaf sets.
	qLeaves := make([]map[int]bool, observed.Len())
	for qi, q := range observed.Queries {
		set := map[int]bool{}
		for _, li := range tree.RouteQuery(q) {
			set[li] = true
		}
		qLeaves[qi] = set
	}
	nQueries := float64(observed.Len())
	if nQueries == 0 {
		return plan, nil
	}

	// curAccesses(T): average blocks accessed under T per observed query —
	// both the benefit's upper bound (property 1) and the input to B.
	blocksUnderLeaf := func(li int) int { return len(groupBlocks[li]) }
	curAvgAccess := func(n *qdtree.Node) float64 {
		total := 0.0
		for qi := range qLeaves {
			for _, lf := range qdtree.SubtreeLeaves(n) {
				if qLeaves[qi][lf.LeafIndex] {
					total += float64(blocksUnderLeaf(lf.LeafIndex))
				}
			}
		}
		return total / nQueries
	}

	nodes := tree.Nodes()
	plan.SubtreesTotal = len(nodes)
	orderOf := map[*qdtree.Node]int{}
	for i, n := range nodes {
		orderOf[n] = i
	}

	type nodeInfo struct {
		bound    float64 // upper bound on B(T,Q)
		benefit  float64 // true B(T,Q), valid when computed
		computed bool
		pruned   bool
		reward   float64
		newTree  *qdtree.Tree
		blocks   int
		rows     int
	}
	info := map[*qdtree.Node]*nodeInfo{}

	// Property 1: B(T,Q) is bounded by current average accesses under T.
	for _, n := range nodes {
		ni := &nodeInfo{bound: curAvgAccess(n), reward: math.Inf(-1)}
		blocks, rows := 0, 0
		for _, lf := range qdtree.SubtreeLeaves(n) {
			blocks += blocksUnderLeaf(lf.LeafIndex)
			rows += len(groups[lf.LeafIndex])
		}
		ni.blocks, ni.rows = blocks, rows
		info[n] = ni
	}

	qw := cfg.Q / cfg.W
	// BFS order (nodes already is BFS): compute rewards with pruning.
	for _, n := range nodes {
		ni := info[n]
		if ni.pruned {
			continue
		}
		if !cfg.DisablePruning && qw*ni.bound-float64(ni.blocks) <= 0 {
			continue // cannot have positive reward
		}
		// Compute the true benefit: rebuild a tree over T's records and
		// measure the drop in block accesses for the observed queries.
		rows := qdtree.CollectRows(qdtree.SubtreeLeaves(n), groups)
		if len(rows) == 0 {
			continue
		}
		sub := tbl.SelectRows(intsOf(rows))
		newTree, err := qdtree.Build(sub, qdtree.BuildQueries(observed, table), cuts, qdtree.Config{
			Table:       table,
			BlockSize:   o.opts.BlockSize,
			SampleRate:  1,
			Parallelism: o.opts.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		plan.SubtreesConsidered++
		newAccess := 0.0
		for _, q := range observed.Queries {
			for _, li := range newTree.RouteQuery(q) {
				leafRows := newTree.Leaves()[li].SampleRows
				newAccess += float64(blocksFor(leafRows, o.opts.BlockSize))
			}
		}
		ni.benefit = ni.bound - newAccess/nQueries
		if ni.benefit < 0 {
			ni.benefit = 0
		}
		ni.computed = true
		ni.newTree = newTree
		ni.reward = qw*ni.benefit - float64(ni.blocks)

		if n.IsLeaf() || cfg.DisablePruning {
			continue
		}
		// Property 2: children's benefits are bounded by B(T,Q).
		for _, child := range []*qdtree.Node{n.Left, n.Right} {
			ci := info[child]
			if ni.benefit < ci.bound {
				ci.bound = ni.benefit
			}
			// ...and the bound propagates to all descendants.
			for _, d := range descendants(child) {
				if ni.benefit < info[d].bound {
					info[d].bound = ni.benefit
				}
			}
		}
		// Sibling bound: B(S) ≤ B(P) − B(T).
		if p := n.Parent; p != nil && info[p].computed {
			sib := p.Left
			if sib == n {
				sib = p.Right
			}
			rem := info[p].benefit - ni.benefit
			if rem < 0 {
				rem = 0
			}
			for _, d := range append(descendants(sib), sib) {
				if rem < info[d].bound {
					info[d].bound = rem
				}
			}
		}
		// Property 3: if R(T) ≥ B(T_L)+B(T_R), no descendant set beats {T}.
		childSum := info[n.Left].bound + info[n.Right].bound
		if info[n.Left].computed {
			childSum = info[n.Left].benefit + info[n.Right].bound
		}
		if ni.reward >= childSum {
			for _, d := range descendants(n) {
				info[d].pruned = true
			}
		}
	}

	// DP for the optimal non-overlapping subtree set (§5.1.3).
	type dpResult struct {
		reward  float64
		choices []subtreeChoice
	}
	var dp func(n *qdtree.Node) dpResult
	dp = func(n *qdtree.Node) dpResult {
		ni := info[n]
		self := dpResult{reward: 0}
		if ni.computed && ni.reward > 0 {
			self = dpResult{reward: ni.reward, choices: []subtreeChoice{{
				node: n, newTree: ni.newTree, reward: ni.reward, blocks: ni.blocks,
				rows: ni.rows, order: orderOf[n],
			}}}
		}
		if n.IsLeaf() {
			return self
		}
		l, r := dp(n.Left), dp(n.Right)
		if l.reward+r.reward > self.reward {
			return dpResult{reward: l.reward + r.reward, choices: append(l.choices, r.choices...)}
		}
		return self
	}
	best := dp(tree.Root)
	plan.TotalReward = best.reward
	plan.choices = best.choices
	for _, c := range best.choices {
		plan.BlocksToRewrite += c.blocks
		plan.RowsToRewrite += c.rows
	}
	plan.PlanSeconds = time.Since(start).Seconds()
	return plan, nil
}

func descendants(n *qdtree.Node) []*qdtree.Node {
	var out []*qdtree.Node
	var walk func(m *qdtree.Node)
	walk = func(m *qdtree.Node) {
		if m == nil {
			return
		}
		if m != n {
			out = append(out, m)
		}
		if !m.IsLeaf() {
			walk(m.Left)
			walk(m.Right)
		}
	}
	walk(n)
	return out
}

func intsOf(rows []int32) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r)
	}
	return out
}

func blocksFor(rows, blockSize int) int {
	if rows == 0 {
		return 0
	}
	return (rows + blockSize - 1) / blockSize
}

// ReorgStats summarizes a committed reorganization.
type ReorgStats struct {
	// BlocksRewritten counts the blocks under the chosen subtrees — the
	// paper's logical rewrite unit (§5.1.2's C(T)).
	BlocksRewritten int
	// BlocksWritten counts the block writes charged to the store: the whole
	// table for a full install, only the appended replacement blocks for a
	// partial one. The daemon's per-cycle write budget bounds this.
	BlocksWritten int
	// RowsMoved counts the records re-routed into new blocks.
	RowsMoved int
	// FracDataReorganized is RowsMoved over total dataset rows.
	FracDataReorganized float64
	// SimSeconds is the simulated wall-clock cost of the rewrite, per
	// §5.1.1 performed off the query path: BlocksRewritten × block write
	// cost for a full rewrite, the store's charge for the appended blocks
	// for a partial one.
	SimSeconds float64
}

// leafSlot is one leaf of the post-reorganization tree in final
// left-to-right order: either a surviving leaf of the current tree or a
// leaf of a chosen subtree's replacement. Staging computes the slots from
// the unmodified tree so nothing mutates before the store accepts the new
// layout.
type leafSlot struct {
	old    *qdtree.Node // surviving leaf; nil for replacement leaves
	choice int          // index into choices (-1 for surviving leaves)
	leaf   int          // leaf index within choices[choice].newTree
}

// finalSlots walks the current tree, substituting each chosen subtree with
// its replacement's leaves, and returns the post-commit leaf order.
func finalSlots(root *qdtree.Node, choices []subtreeChoice) []leafSlot {
	chosen := map[*qdtree.Node]int{}
	for i, c := range choices {
		chosen[c.node] = i
	}
	var out []leafSlot
	var walk func(n *qdtree.Node)
	walk = func(n *qdtree.Node) {
		if i, ok := chosen[n]; ok {
			for li := range choices[i].newTree.Leaves() {
				out = append(out, leafSlot{old: nil, choice: i, leaf: li})
			}
			return
		}
		if n.IsLeaf() {
			out = append(out, leafSlot{old: n, choice: -1})
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return out
}

// routeChoices routes each chosen subtree's records through its
// replacement tree and returns, per choice, the base-table row groups in
// the replacement's leaf order.
func (o *Optimizer) routeChoices(tbl *relation.Table, oldGroups [][]int32, choices []subtreeChoice) [][][]int32 {
	routed := make([][][]int32, len(choices))
	for i, c := range choices {
		rows := qdtree.CollectRows(qdtree.SubtreeLeaves(c.node), oldGroups)
		sub := tbl.SelectRows(intsOf(rows))
		routed[i] = c.newTree.AssignRecordsParallel(sub, o.opts.Parallelism)
		for _, g := range routed[i] {
			for j, r := range g {
				g[j] = rows[r] // sub-table row → base-table row, in place
			}
		}
	}
	return routed
}

// ApplyReorg physically performs the planned reorganization (§5.1.1) as a
// whole-table rewrite: each chosen subtree is replaced by its re-optimized
// tree, the affected records are re-routed, and the table is re-packed into
// full blocks. Only blocks under chosen subtrees count as rewritten.
func (o *Optimizer) ApplyReorg(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend) (ReorgStats, error) {
	return commitStaged(o.StageReorg(plans, design, store, false))
}

// ApplyReorgPartial performs it through the backend's block replacement
// instead: only the blocks under the chosen subtrees — plus the leftover
// rows of blocks straddling a chosen/unchosen leaf boundary — are replaced,
// and every untouched block keeps its rows (renumbered). This is the
// incremental daemon's install path; the writes charged are the appended
// replacement blocks only (ReorgStats.BlocksWritten). The store still
// encodes a whole new segment generation and drops every pooled page of the
// table at commit, untouched blocks included, until ROADMAP item 2(b).
func (o *Optimizer) ApplyReorgPartial(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend) (ReorgStats, error) {
	return commitStaged(o.StageReorg(plans, design, store, true))
}

func commitStaged(s *StagedReorg, err error) (ReorgStats, error) {
	if err != nil {
		return ReorgStats{}, err
	}
	defer s.Abort()
	err = s.Commit()
	return s.Stats, err
}

// StagedReorg is a planned reorganization whose new layouts are prepared in
// the store but not published: records routed, post-commit groups and block
// numbering computed, segments encoded — with tree, design and store
// untouched, so queries keep running beside it.
type StagedReorg struct {
	// Stats summarizes the tables Commit has published so far.
	Stats ReorgStats

	o       *Optimizer
	design  *layout.Design
	store   block.Backend
	partial bool
	tables  []stagedTable
}

// stagedTable is one table's share of a StagedReorg.
type stagedTable struct {
	tbl         *relation.Table
	tree        *qdtree.Tree
	choices     []subtreeChoice
	groups      [][]int32 // post-commit leaf order
	groupBlocks [][]int   // in the prepared layout's numbering
	prepared    block.Prepared
	stats       ReorgStats // this table's RowsMoved, BlocksRewritten, BlocksWritten
}

// StageReorg stages the plans' tables in dataset order — as block
// replacements when partial, else as whole-table rewrites. Tables without
// positive-reward choices are skipped entirely (an all-empty plan set
// commits as a free no-op); a table that fails to stage aborts the ones
// staged before it.
func (o *Optimizer) StageReorg(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend, partial bool) (*StagedReorg, error) {
	s := &StagedReorg{o: o, design: design, store: store, partial: partial}
	for _, name := range o.ds.TableNames() {
		if plan := plans[name]; plan.Choices() > 0 {
			st, err := s.stageTable(name, plan.choices)
			if err != nil {
				s.Abort()
				return nil, err
			}
			s.tables = append(s.tables, st)
		}
	}
	return s, nil
}

// stageTable computes one table's post-commit groups from the unmodified
// tree and design and has the store prepare the matching layout.
func (s *StagedReorg) stageTable(name string, choices []subtreeChoice) (stagedTable, error) {
	o, blockSize := s.o, s.o.opts.BlockSize
	st := stagedTable{tbl: o.ds.Table(name), tree: o.trees[name], choices: choices}
	gb := s.design.GroupBlocks(name)
	if gb == nil {
		return st, fmt.Errorf("core: design not installed for table %q", name)
	}
	oldGroups := s.design.Table(name).Groups()
	routed := o.routeChoices(st.tbl, oldGroups, choices)
	for _, leaves := range routed {
		rows := 0
		for _, g := range leaves {
			rows += len(g)
		}
		st.stats.RowsMoved += rows
		st.stats.BlocksRewritten += blocksFor(rows, blockSize)
	}
	slots := finalSlots(st.tree.Root, choices)
	st.groups = make([][]int32, len(slots))
	for si, sl := range slots {
		if sl.old != nil {
			st.groups[si] = oldGroups[sl.old.LeafIndex]
		} else {
			st.groups[si] = routed[sl.choice][sl.leaf]
		}
	}
	if !s.partial {
		tl, groupBlocks, err := s.design.PackTable(st.tbl, st.groups)
		if err != nil {
			return st, err
		}
		st.groupBlocks, st.stats.BlocksWritten = groupBlocks, tl.NumBlocks()
		st.prepared, err = s.store.PrepareLayout(name, tl)
		return st, err
	}

	// Number the groups for a block replacement: kept blocks in ascending
	// old-ID order (as BuildReplacement renumbers them), appended groups
	// after them.
	rowToBlock, err := s.store.RowToBlock(name)
	if err != nil {
		return st, err
	}
	oldIDs := retiredBlocks(choices, gb)
	rank := make([]int, s.store.NumBlocks(name))
	kept := 0
	for id := range rank {
		rank[id] = -1
		if !oldIDs[id] {
			rank[id] = kept
			kept++
		}
	}
	st.groupBlocks = make([][]int, len(slots))
	var storeGroups [][]int32
	next := kept
	appendGroup := func(si int, g []int32) {
		if len(g) == 0 {
			return
		}
		storeGroups = append(storeGroups, g)
		for nb := blocksFor(len(g), blockSize); nb > 0; nb-- {
			st.groupBlocks[si] = append(st.groupBlocks[si], next)
			next++
		}
	}
	for si, sl := range slots {
		if sl.old == nil {
			appendGroup(si, st.groups[si])
			continue
		}
		for _, b := range gb[sl.old.LeafIndex] {
			if rank[b] >= 0 {
				st.groupBlocks[si] = append(st.groupBlocks[si], rank[b])
			}
		}
		// Rows of this surviving leaf that lived in a retired (straddling)
		// block move into a fresh appended block.
		var stray []int32
		for _, r := range st.groups[si] {
			if oldIDs[int(rowToBlock[r])] {
				stray = append(stray, r)
			}
		}
		appendGroup(si, stray)
	}
	st.stats.BlocksWritten = next - kept
	st.prepared, err = s.store.PrepareReplace(name, oldIDs, storeGroups, blockSize)
	return st, err
}

// retiredBlocks returns the blocks under the chosen subtrees, including any
// that straddle a chosen/unchosen leaf boundary.
func retiredBlocks(choices []subtreeChoice, gb [][]int) map[int]bool {
	oldIDs := map[int]bool{}
	for _, c := range choices {
		for _, lf := range qdtree.SubtreeLeaves(c.node) {
			for _, b := range gb[lf.LeafIndex] {
				oldIDs[b] = true
			}
		}
	}
	return oldIDs
}

// Commit publishes the staged layouts — the one place a reorganization
// mutates trees and design. Tables commit one at a time: the store swaps in
// the prepared generation, the chosen subtrees are replaced (leaf order now
// matches the staged groups) and the design is pointed at the new block
// numbering. A table the store refuses stays, like every table after it,
// exactly as before — never torn; Stats covers the tables before it.
func (s *StagedReorg) Commit() error {
	stats := &s.Stats
	for i := range s.tables {
		st := &s.tables[i]
		sec, err := st.prepared.Commit()
		if err != nil {
			return err
		}
		for _, c := range st.choices {
			st.tree.Replace(c.node, c.newTree.Root)
		}
		tr := st.tree // the route closure reads the tree lazily at query time
		route := func(q *workload.Query) []int { return tr.RouteQuery(q) }
		s.design.SetTableBlocks(st.tbl, st.groups, route, st.groupBlocks)
		stats.RowsMoved += st.stats.RowsMoved
		stats.BlocksRewritten += st.stats.BlocksRewritten
		stats.BlocksWritten += st.stats.BlocksWritten
		stats.SimSeconds += sec
	}
	if n := s.o.ds.NumRows(); n > 0 && stats.RowsMoved > 0 {
		stats.FracDataReorganized = float64(stats.RowsMoved) / float64(n)
	}
	if !s.partial {
		// A rewrite is charged for the blocks under the chosen subtrees,
		// not for the whole re-packed table the store wrote.
		stats.SimSeconds = float64(stats.BlocksRewritten) * s.store.Cost().BlockWriteSeconds
	}
	return nil
}

// Abort discards the staged layouts Commit did not publish, so callers may
// defer it.
func (s *StagedReorg) Abort() {
	for _, st := range s.tables {
		st.prepared.Abort()
	}
}

// estimateWrites returns the physical block writes a partial install of
// the given choices of plan would charge: the chopped replacement groups
// plus one stray group per surviving leaf that shares a block with a chosen
// subtree. design and store must reflect the layout the plan was computed
// against.
func (o *Optimizer) estimateWrites(plan *ReorgPlan, choices []subtreeChoice, design *layout.Design, store block.Backend) (int, error) {
	if len(choices) == 0 {
		return 0, nil
	}
	name := plan.Table
	gb := design.GroupBlocks(name)
	if gb == nil {
		return 0, fmt.Errorf("core: design not installed for table %q", name)
	}
	rowToBlock, err := store.RowToBlock(name)
	if err != nil {
		return 0, err
	}
	oldGroups := design.Table(name).Groups()
	oldIDs := retiredBlocks(choices, gb)
	chosenLeaves := map[*qdtree.Node]bool{}
	writes := 0
	for _, c := range choices {
		for _, lf := range qdtree.SubtreeLeaves(c.node) {
			chosenLeaves[lf] = true
		}
		// Replacement leaves are built at sample rate 1, so SampleRows is
		// the exact row count each leaf will hold.
		for _, lf := range c.newTree.Leaves() {
			writes += blocksFor(lf.SampleRows, o.opts.BlockSize)
		}
	}
	tree := o.trees[name]
	for _, lf := range tree.Leaves() {
		if chosenLeaves[lf] {
			continue
		}
		stray := 0
		for _, r := range oldGroups[lf.LeafIndex] {
			if oldIDs[int(rowToBlock[r])] {
				stray++
			}
		}
		writes += blocksFor(stray, o.opts.BlockSize)
	}
	return writes, nil
}

// TrimPlansToBudget drops the lowest-value subtree choices until the
// estimated physical writes of a partial install fit within budget
// blocks. Choices are ranked greedily by reward per estimated write
// (standalone), with deterministic tie-breaking on reward, table name, and
// BFS order; a choice whose marginal cost no longer fits is skipped but
// later, cheaper choices may still be admitted. The returned plans map
// shares ReorgPlan values only for untrimmed tables; trimmed tables get
// shallow copies with the reduced choice set and recomputed totals.
// budget <= 0 means unlimited and returns plans unchanged.
func (o *Optimizer) TrimPlansToBudget(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend, budget int) (map[string]*ReorgPlan, error) {
	if budget <= 0 {
		return plans, nil
	}
	type cand struct {
		table  string
		idx    int // index into the table plan's choices
		reward float64
		solo   int // standalone write estimate
		order  int
	}
	var cands []cand
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		plan := plans[name]
		if plan == nil {
			continue
		}
		for i, c := range plan.choices {
			solo, err := o.estimateWrites(plan, plan.choices[i:i+1], design, store)
			if err != nil {
				return nil, err
			}
			cands = append(cands, cand{table: name, idx: i, reward: c.reward, solo: solo, order: c.order})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		da := ca.reward / float64(ca.solo+1)
		db := cb.reward / float64(cb.solo+1)
		if da != db {
			return da > db
		}
		if ca.reward != cb.reward {
			return ca.reward > cb.reward
		}
		if ca.table != cb.table {
			return ca.table < cb.table
		}
		return ca.order < cb.order
	})

	selected := map[string][]int{} // table → chosen indexes
	estimate := map[string]int{}   // table → estimated writes of selected
	spent := 0
	for _, c := range cands {
		trial := append(append([]int(nil), selected[c.table]...), c.idx)
		cost, err := o.estimateWrites(plans[c.table], choicesAt(plans[c.table], trial), design, store)
		if err != nil {
			return nil, err
		}
		marginal := cost - estimate[c.table]
		if spent+marginal > budget {
			continue
		}
		spent += marginal
		selected[c.table], estimate[c.table] = trial, cost
	}

	out := make(map[string]*ReorgPlan, len(plans))
	for _, name := range names {
		plan := plans[name]
		if plan == nil {
			out[name] = nil
			continue
		}
		sel := selected[name]
		if len(sel) == len(plan.choices) {
			out[name] = plan
			continue
		}
		sort.Ints(sel)
		trimmed := &ReorgPlan{
			Table:              plan.Table,
			SubtreesConsidered: plan.SubtreesConsidered,
			SubtreesTotal:      plan.SubtreesTotal,
			PlanSeconds:        plan.PlanSeconds,
		}
		for _, i := range sel {
			c := plan.choices[i]
			trimmed.choices = append(trimmed.choices, c)
			trimmed.TotalReward += c.reward
			trimmed.BlocksToRewrite += c.blocks
			trimmed.RowsToRewrite += c.rows
		}
		out[name] = trimmed
	}
	return out, nil
}

func choicesAt(plan *ReorgPlan, idxs []int) []subtreeChoice {
	out := make([]subtreeChoice, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, plan.choices[i])
	}
	return out
}

// Choices reports how many subtree replacements the plan selected.
func (p *ReorgPlan) Choices() int {
	if p == nil {
		return 0
	}
	return len(p.choices)
}
