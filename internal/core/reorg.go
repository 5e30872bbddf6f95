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
	// DisableInduction skips join-induced candidate cuts even when the
	// optimizer was built with induction. Induced cuts require a full
	// evaluation pass over the dataset, so the daemon's cheap bandit arms
	// turn them off and let the reward signal decide whether they pay.
	DisableInduction bool
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
	blocks  int
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
	if o.opts.JoinInduction && !cfg.DisableInduction {
		inducedByTable = induce.FromWorkload(observed, o.unique, o.opts.MaxInductionDepth)
		for _, ips := range inducedByTable {
			for _, ip := range ips {
				if err := ip.Evaluate(o.ds); err != nil {
					return nil, err
				}
			}
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
				order: orderOf[n],
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
		plan.RowsToRewrite += info[c.node].rows
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

// ReorgStats summarizes an applied reorganization.
type ReorgStats struct {
	// BlocksRewritten counts the blocks under the chosen subtrees — the
	// paper's logical rewrite unit (§5.1.2's C(T)).
	BlocksRewritten int
	// BlocksWritten counts the physical block writes charged to the store:
	// the whole table for a full install, only the appended replacement
	// blocks for ApplyReorgPartial. This is the unit the daemon's
	// per-cycle write budget bounds.
	BlocksWritten int
	// RowsMoved counts the records re-routed into new blocks.
	RowsMoved int
	// FracDataReorganized is RowsMoved over total dataset rows.
	FracDataReorganized float64
	// SimSeconds is the simulated wall-clock cost of the rewrite
	// (BlocksRewritten × block write cost), per §5.1.1 performed off the
	// query path on a shadow copy.
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
		subGroups := c.newTree.AssignRecordsParallel(sub, o.opts.Parallelism)
		base := make([][]int32, len(subGroups))
		for li, g := range subGroups {
			bg := make([]int32, len(g))
			for j, r := range g {
				bg[j] = rows[r]
			}
			base[li] = bg
		}
		routed[i] = base
	}
	return routed
}

// ApplyReorg physically performs the planned reorganization (§5.1.1):
// each chosen subtree is replaced by its re-optimized tree, the affected
// records are re-routed, and the table's layout is re-installed in store.
// Only blocks under chosen subtrees count as rewritten.
//
// Tables commit one at a time, and each commit is staged: the tree and
// design mutate only after the store accepted the table's new layout. A
// mid-apply backend failure therefore leaves every table either fully
// reorganized or fully untouched — never torn — and the returned stats
// cover exactly the committed tables. Tables without positive-reward
// choices are skipped entirely (no store write); an all-empty plan set is
// a free no-op.
func (o *Optimizer) ApplyReorg(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend) (ReorgStats, error) {
	var stats ReorgStats
	cost := store.Cost()
	for _, name := range o.ds.TableNames() {
		plan := plans[name]
		if plan == nil || len(plan.choices) == 0 {
			continue
		}
		tree := o.trees[name]
		tbl := o.ds.Table(name)
		oldGroups := design.Table(name).Groups()

		// Stage: compute the post-commit groups without mutating anything.
		routed := o.routeChoices(tbl, oldGroups, plan.choices)
		slots := finalSlots(tree.Root, plan.choices)
		groups := make([][]int32, len(slots))
		for si, sl := range slots {
			if sl.old != nil {
				groups[si] = oldGroups[sl.old.LeafIndex]
			} else {
				groups[si] = routed[sl.choice][sl.leaf]
			}
		}
		// Install: the route closure reads the tree lazily at query time,
		// after the commit below has swapped the chosen subtrees in.
		tr := tree
		if _, err := design.InstallTable(store, tbl, groups, func(q *workload.Query) []int {
			return tr.RouteQuery(q)
		}); err != nil {
			return stats, err
		}
		// Commit: swap the subtrees; leaf order now matches groups.
		for _, c := range plan.choices {
			tree.Replace(c.node, c.newTree.Root)
		}
		for i := range plan.choices {
			rows := 0
			for _, g := range routed[i] {
				rows += len(g)
			}
			stats.RowsMoved += rows
			stats.BlocksRewritten += blocksFor(rows, o.opts.BlockSize)
		}
		stats.BlocksWritten += store.NumBlocks(name)
	}
	if n := o.ds.NumRows(); n > 0 && stats.RowsMoved > 0 {
		stats.FracDataReorganized = float64(stats.RowsMoved) / float64(n)
	}
	stats.SimSeconds = float64(stats.BlocksRewritten) * cost.BlockWriteSeconds
	return stats, nil
}

// ApplyReorgPartial performs the planned reorganization through the
// backend's ReplaceBlocks primitive instead of a full per-table rewrite:
// only the blocks under the chosen subtrees — plus the leftover rows of
// blocks straddling a chosen/unchosen leaf boundary — are replaced, and
// every untouched block keeps its identity (and its buffer-pool pages)
// across the swap. This is the incremental daemon's
// install path; physical writes are the appended replacement blocks only,
// reported in ReorgStats.BlocksWritten.
//
// Like ApplyReorg, tables commit one at a time with stage-then-commit
// semantics: ReplaceBlocks swaps a complete new generation atomically, and
// the tree/design mutate only after it succeeds.
func (o *Optimizer) ApplyReorgPartial(plans map[string]*ReorgPlan, design *layout.Design, store block.Backend) (ReorgStats, error) {
	var stats ReorgStats
	blockSize := o.opts.BlockSize
	for _, name := range o.ds.TableNames() {
		plan := plans[name]
		if plan == nil || len(plan.choices) == 0 {
			continue
		}
		tree := o.trees[name]
		tbl := o.ds.Table(name)
		oldGroups := design.Table(name).Groups()
		gb := design.GroupBlocks(name)
		if gb == nil {
			return stats, fmt.Errorf("core: design not installed for table %q", name)
		}
		rowToBlock, err := store.RowToBlock(name)
		if err != nil {
			return stats, err
		}
		numBlocks := store.NumBlocks(name)

		// Blocks retired by the chosen subtrees. A block straddling a
		// chosen/unchosen boundary is retired too; its surviving rows are
		// re-appended as stray groups below.
		oldIDs := map[int]bool{}
		for _, c := range plan.choices {
			for _, lf := range qdtree.SubtreeLeaves(c.node) {
				for _, b := range gb[lf.LeafIndex] {
					oldIDs[b] = true
				}
			}
		}
		// Kept blocks are renumbered by BuildReplacement in ascending
		// old-ID order; appended groups get sequential IDs after them.
		rank := make([]int, numBlocks)
		kept := 0
		for id := 0; id < numBlocks; id++ {
			if oldIDs[id] {
				rank[id] = -1
			} else {
				rank[id] = kept
				kept++
			}
		}

		routed := o.routeChoices(tbl, oldGroups, plan.choices)
		slots := finalSlots(tree.Root, plan.choices)
		groups := make([][]int32, len(slots))
		groupBlocks := make([][]int, len(slots))
		var storeGroups [][]int32
		next := kept
		appendGroup := func(si int, g []int32) {
			if len(g) == 0 {
				return
			}
			storeGroups = append(storeGroups, g)
			nb := blocksFor(len(g), blockSize)
			for j := 0; j < nb; j++ {
				groupBlocks[si] = append(groupBlocks[si], next+j)
			}
			next += nb
		}
		for si, sl := range slots {
			if sl.old != nil {
				g := oldGroups[sl.old.LeafIndex]
				groups[si] = g
				for _, b := range gb[sl.old.LeafIndex] {
					if rank[b] >= 0 {
						groupBlocks[si] = append(groupBlocks[si], rank[b])
					}
				}
				// Rows of this surviving leaf that lived in a retired
				// (straddling) block move into a fresh appended block.
				var stray []int32
				for _, r := range g {
					if oldIDs[int(rowToBlock[r])] {
						stray = append(stray, r)
					}
				}
				appendGroup(si, stray)
			} else {
				g := routed[sl.choice][sl.leaf]
				groups[si] = g
				appendGroup(si, g)
			}
		}

		sec, err := store.ReplaceBlocks(name, oldIDs, storeGroups, blockSize)
		if err != nil {
			return stats, err
		}
		// Commit: swap the subtrees, then point the design at the
		// replacement numbering computed above.
		for _, c := range plan.choices {
			tree.Replace(c.node, c.newTree.Root)
		}
		tr := tree
		if err := design.SetTableBlocks(tbl, groups, func(q *workload.Query) []int {
			return tr.RouteQuery(q)
		}, groupBlocks); err != nil {
			return stats, err
		}
		for i := range plan.choices {
			rows := 0
			for _, g := range routed[i] {
				rows += len(g)
			}
			stats.RowsMoved += rows
			stats.BlocksRewritten += blocksFor(rows, blockSize)
		}
		stats.BlocksWritten += next - kept
		stats.SimSeconds += sec
	}
	if n := o.ds.NumRows(); n > 0 && stats.RowsMoved > 0 {
		stats.FracDataReorganized = float64(stats.RowsMoved) / float64(n)
	}
	return stats, nil
}

// EstimateWrites returns the physical block writes ApplyReorgPartial would
// charge for the plan's current choices: the chopped replacement groups
// plus one stray group per surviving leaf that shares a block with a
// chosen subtree. design and store must reflect the layout the plan was
// computed against.
func (o *Optimizer) EstimateWrites(plan *ReorgPlan, design *layout.Design, store block.Backend) (int, error) {
	return o.estimateWrites(plan, plan.choices, design, store)
}

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
	oldIDs := map[int]bool{}
	chosenLeaves := map[*qdtree.Node]bool{}
	writes := 0
	for _, c := range choices {
		for _, lf := range qdtree.SubtreeLeaves(c.node) {
			chosenLeaves[lf] = true
			for _, b := range gb[lf.LeafIndex] {
				oldIDs[b] = true
			}
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
// estimated physical writes of an ApplyReorgPartial fit within budget
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
	spent := 0
	for _, c := range cands {
		trial := append(append([]int(nil), selected[c.table]...), c.idx)
		var choices []subtreeChoice
		for _, i := range trial {
			choices = append(choices, plans[c.table].choices[i])
		}
		cost, err := o.estimateWrites(plans[c.table], choices, design, store)
		if err != nil {
			return nil, err
		}
		prev, err := o.estimateWrites(plans[c.table], choicesAt(plans[c.table], selected[c.table]), design, store)
		if err != nil {
			return nil, err
		}
		marginal := cost - prev
		if spent+marginal > budget {
			continue
		}
		spent += marginal
		selected[c.table] = trial
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
		}
		trimmed.RowsToRewrite = 0
		groups := design.Table(name).Groups()
		for _, c := range trimmed.choices {
			for _, lf := range qdtree.SubtreeLeaves(c.node) {
				trimmed.RowsToRewrite += len(groups[lf.LeafIndex])
			}
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
