package qdtree

import (
	"encoding/json"
	"fmt"

	"mto/internal/induce"
	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/workload"
)

// JSON persistence for qd-trees. The logical structure — cuts, shape, and
// build-time estimates — is saved; join-induced cuts store their logical
// form (induction path + source cut) and must be re-evaluated against the
// dataset after loading to rebuild their literal key sets, exactly as the
// paper's offline step 1c does.

type jsonHop struct {
	FromTable  string `json:"ft"`
	FromColumn string `json:"fc"`
	ToTable    string `json:"tt"`
	ToColumn   string `json:"tc"`
	JoinType   uint8  `json:"jt"`
}

type jsonCut struct {
	Kind      string          `json:"kind"` // "simple" | "induced"
	Pred      json.RawMessage `json:"pred,omitempty"`
	Hops      []jsonHop       `json:"hops,omitempty"`
	SourceCut json.RawMessage `json:"src,omitempty"`
}

type jsonNodeReal struct {
	Cut        *jsonCut      `json:"cut,omitempty"`
	Left       *jsonNodeReal `json:"l,omitempty"`
	Right      *jsonNodeReal `json:"r,omitempty"`
	SampleRows int           `json:"rows"`
	EstRows    float64       `json:"est"`
}

type jsonTree struct {
	Table     string        `json:"table"`
	BlockSize int           `json:"block_size"`
	Root      *jsonNodeReal `json:"root"`
}

// MarshalJSON implements json.Marshaler.
func (t *Tree) MarshalJSON() ([]byte, error) {
	root, err := nodeToJSON(t.Root)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonTree{Table: t.Table, BlockSize: t.BlockSize, Root: root})
}

func nodeToJSON(n *Node) (*jsonNodeReal, error) {
	if n == nil {
		return nil, nil
	}
	out := &jsonNodeReal{SampleRows: n.SampleRows, EstRows: n.EstRows}
	if !n.IsLeaf() {
		jc, err := cutToJSON(n.Cut)
		if err != nil {
			return nil, err
		}
		out.Cut = jc
		l, err := nodeToJSON(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := nodeToJSON(n.Right)
		if err != nil {
			return nil, err
		}
		out.Left, out.Right = l, r
	}
	return out, nil
}

func cutToJSON(c Cut) (*jsonCut, error) {
	switch t := c.(type) {
	case *SimpleCut:
		raw, err := predicate.MarshalJSONTree(t.Pred)
		if err != nil {
			return nil, err
		}
		return &jsonCut{Kind: "simple", Pred: raw}, nil
	case *InducedCut:
		raw, err := predicate.MarshalJSONTree(t.Ind.SourceCut)
		if err != nil {
			return nil, err
		}
		hops := make([]jsonHop, len(t.Ind.Path.Hops))
		for i, h := range t.Ind.Path.Hops {
			hops[i] = jsonHop{
				FromTable: h.FromTable, FromColumn: h.FromColumn,
				ToTable: h.ToTable, ToColumn: h.ToColumn,
				JoinType: uint8(h.Type),
			}
		}
		return &jsonCut{Kind: "induced", Hops: hops, SourceCut: raw}, nil
	default:
		return nil, fmt.Errorf("qdtree: cannot serialize cut %T", c)
	}
}

// UnmarshalTree decodes a tree. Join-induced cuts come back unevaluated;
// evaluate them with induce.EvaluateAll (as core's loader does) before
// routing records.
func UnmarshalTree(data []byte) (*Tree, error) {
	var jt jsonTree
	if err := json.Unmarshal(data, &jt); err != nil {
		return nil, err
	}
	if jt.Table == "" || jt.Root == nil {
		return nil, fmt.Errorf("qdtree: malformed tree document")
	}
	root, err := nodeFromJSON(jt.Root, nil)
	if err != nil {
		return nil, err
	}
	t := &Tree{Table: jt.Table, BlockSize: jt.BlockSize, Root: root}
	rebuildRegions(t.Root, predicate.Ranges{})
	t.Reindex()
	return t, nil
}

func nodeFromJSON(j *jsonNodeReal, parent *Node) (*Node, error) {
	if j == nil {
		return nil, nil
	}
	n := &Node{Parent: parent, LeafIndex: -1, SampleRows: j.SampleRows, EstRows: j.EstRows}
	if j.Cut != nil {
		c, err := cutFromJSON(j.Cut)
		if err != nil {
			return nil, err
		}
		n.Cut = c
		if j.Left == nil || j.Right == nil {
			return nil, fmt.Errorf("qdtree: inner node missing children")
		}
		l, err := nodeFromJSON(j.Left, n)
		if err != nil {
			return nil, err
		}
		r, err := nodeFromJSON(j.Right, n)
		if err != nil {
			return nil, err
		}
		n.Left, n.Right = l, r
	}
	return n, nil
}

func cutFromJSON(j *jsonCut) (Cut, error) {
	switch j.Kind {
	case "simple":
		p, err := predicate.UnmarshalJSONTree(j.Pred)
		if err != nil {
			return nil, err
		}
		return NewSimpleCut(p), nil
	case "induced":
		src, err := predicate.UnmarshalJSONTree(j.SourceCut)
		if err != nil {
			return nil, err
		}
		if len(j.Hops) == 0 {
			return nil, fmt.Errorf("qdtree: induced cut without hops")
		}
		hops := make([]joingraph.Hop, len(j.Hops))
		for i, h := range j.Hops {
			hops[i] = joingraph.Hop{
				FromTable: h.FromTable, FromColumn: h.FromColumn,
				ToTable: h.ToTable, ToColumn: h.ToColumn,
				Type: workload.JoinType(h.JoinType),
			}
		}
		return NewInducedCut(induce.New(joingraph.Path{Hops: hops}, src)), nil
	default:
		return nil, fmt.Errorf("qdtree: unknown cut kind %q", j.Kind)
	}
}

// rebuildRegions recomputes each node's accumulated region from its
// ancestors' simple cuts (regions are derived state, not persisted).
func rebuildRegions(n *Node, region predicate.Ranges) {
	if n == nil {
		return
	}
	n.Region = region
	if n.IsLeaf() {
		return
	}
	rebuildRegions(n.Left, n.Cut.LeftRanges(region))
	rebuildRegions(n.Right, n.Cut.RightRanges(region))
}
