package core

import (
	"encoding/json"
	"fmt"
	"io"

	"mto/internal/joingraph"
	"mto/internal/qdtree"
	"mto/internal/relation"
	"mto/internal/workload"
)

// layoutDocument is the persisted form of a learned layout: the per-table
// qd-trees (logical form) plus the options needed to keep routing and
// maintenance consistent. Literal cuts are rebuilt on load by re-running
// the semi-join chains against the dataset, so the document stays small and
// stays correct across data changes between save and load.
type layoutDocument struct {
	Version int               `json:"version"`
	Options persistedOptions  `json:"options"`
	Trees   []json.RawMessage `json:"trees"`
}

type persistedOptions struct {
	BlockSize                int               `json:"block_size"`
	SampleRate               float64           `json:"sample_rate"`
	MaxInductionDepth        int               `json:"max_induction_depth"`
	JoinInduction            bool              `json:"join_induction"`
	DisableUniqueRestriction bool              `json:"disable_unique_restriction"`
	LeafOrderKeys            map[string]string `json:"leaf_order_keys,omitempty"`
}

const layoutDocVersion = 1

// Save writes the learned layout to w as JSON.
func (o *Optimizer) Save(w io.Writer) error {
	doc := layoutDocument{
		Version: layoutDocVersion,
		Options: persistedOptions{
			BlockSize:                o.opts.BlockSize,
			SampleRate:               o.opts.SampleRate,
			MaxInductionDepth:        o.opts.MaxInductionDepth,
			JoinInduction:            o.opts.JoinInduction,
			DisableUniqueRestriction: o.opts.DisableUniqueRestriction,
			LeafOrderKeys:            o.opts.LeafOrderKeys,
		},
	}
	for _, name := range o.ds.TableNames() {
		tree := o.trees[name]
		if tree == nil {
			return fmt.Errorf("core: no tree for table %q", name)
		}
		raw, err := json.Marshal(tree)
		if err != nil {
			return fmt.Errorf("core: marshal tree %s: %w", name, err)
		}
		doc.Trees = append(doc.Trees, raw)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Load reconstructs an Optimizer from a saved layout: trees are decoded,
// join-induced cuts are re-evaluated against ds (the data may have changed
// since saving — literals always reflect the current dataset), and the
// training workload is re-attached for reorganization planning. The
// returned optimizer routes records and queries exactly like the one that
// was saved.
func Load(r io.Reader, ds *relation.Dataset, w *workload.Workload) (*Optimizer, error) {
	var doc layoutDocument
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decode layout: %w", err)
	}
	if doc.Version != layoutDocVersion {
		return nil, fmt.Errorf("core: unsupported layout version %d", doc.Version)
	}
	if w == nil {
		w = workload.NewWorkload()
	}
	o := &Optimizer{
		opts: Options{
			BlockSize:                doc.Options.BlockSize,
			SampleRate:               doc.Options.SampleRate,
			MaxInductionDepth:        doc.Options.MaxInductionDepth,
			JoinInduction:            doc.Options.JoinInduction,
			DisableUniqueRestriction: doc.Options.DisableUniqueRestriction,
			LeafOrderKeys:            doc.Options.LeafOrderKeys,
		}.withDefaults(),
		ds:    ds,
		w:     w,
		trees: map[string]*qdtree.Tree{},
	}
	if err := o.opts.validate(); err != nil {
		return nil, err
	}
	if o.opts.DisableUniqueRestriction {
		o.unique = joingraph.AllowAll
	} else {
		o.unique = UniqueFromDataset(ds)
	}
	for _, raw := range doc.Trees {
		tree, err := qdtree.UnmarshalTree(raw, ds)
		if err != nil {
			return nil, err
		}
		if _, dup := o.trees[tree.Table]; dup {
			return nil, fmt.Errorf("core: duplicate tree for table %q", tree.Table)
		}
		o.trees[tree.Table] = tree
	}
	for _, name := range ds.TableNames() {
		if o.trees[name] == nil {
			return nil, fmt.Errorf("core: layout missing tree for table %q", name)
		}
	}
	// Rebuild literal cuts against the current data (step 1c on load).
	if err := o.reevaluateInducedCuts(); err != nil {
		return nil, err
	}
	return o, nil
}
