package shard

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"

	"x3/internal/match"
	"x3/internal/xmltree"
)

// ShardOf returns the partition of one fact among n: an FNV-1a hash of
// the fact's decoded grouping values at every axis's most relaxed live
// state — the most-relaxed pattern's key axes. Hashing decoded strings
// (not ValueIDs) makes the function independent of dictionary interning
// order, so the build-time partition and any re-partition of the same
// facts agree.
func ShardOf(dicts []*match.Dict, f *match.Fact, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	var vals []string
	for a := range f.Axes {
		s := len(f.Axes[a]) - 1
		if s >= 0 {
			vals = vals[:0]
			for _, id := range f.Values(a, s) {
				vals = append(vals, dicts[a].Value(id))
			}
			// A fact's per-axis value list is ordered by ValueID — an
			// interning accident. Sort the decoded strings so the hash
			// sees a canonical sequence regardless of dictionary order.
			sort.Strings(vals)
			for _, v := range vals {
				h.Write([]byte(v)) //x3:nolint(errdrop) hash.Hash.Write is documented to never return an error (this line and the separator write below)
				h.Write([]byte{0x1f})
			}
		}
		//x3:nolint(errdrop) hash.Hash.Write is documented to never return an error
		h.Write([]byte{0x1e})
	}
	return int(h.Sum64() % uint64(n))
}

// Partition splits base into n disjoint, complete fact subsets by
// ShardOf. The subsets share base's dictionaries and fact records; a
// store built over one works on its own clone (serve.BuildDir).
func Partition(base *match.Set, n int) []*match.Set {
	if n <= 0 {
		n = 1
	}
	out := make([]*match.Set, n)
	for i := range out {
		out[i] = &match.Set{Lattice: base.Lattice, Dicts: base.Dicts}
	}
	for _, f := range base.Facts {
		si := ShardOf(base.Dicts, f, n)
		out[si].Facts = append(out[si].Facts, f)
	}
	return out
}

// splitRecords partitions an appended document's top-level records among
// n shards: each element child of the root becomes a candidate record,
// the record's own facts (evaluated against a scratch dictionary) pick
// its shard via the first fact's hash, and per-shard sub-documents are
// re-serialized under a copy of the root. Records that yield no facts
// route to shard 0 — they contribute nothing to any cube.
//
// The unit of routing is the record, not the fact: a record whose facts
// straddle hash classes still lands whole on one shard. Partitions stay
// disjoint and complete — the only property cross-shard merging needs —
// because every record lands on exactly one shard.
func (c *Coordinator) splitRecords(doc *xmltree.Document) (map[int][]byte, int, error) {
	root := doc.Root()
	if root == nil {
		return nil, 0, fmt.Errorf("shard: empty document")
	}
	type batch struct {
		b       *xmltree.Builder
		open    bool
		records int
	}
	batches := make([]*batch, len(c.shards))
	records := 0
	var splitErr error
	doc.EachChild(root.ID, func(id xmltree.NodeID) bool {
		n := doc.Node(id)
		if n.Kind != xmltree.Element {
			return true
		}
		records++
		si, err := c.recordShard(doc, root, id)
		if err != nil {
			splitErr = err
			return false
		}
		bt := batches[si]
		if bt == nil {
			bt = &batch{b: &xmltree.Builder{}}
			openRootShell(doc, root, bt.b)
			bt.open = true
			batches[si] = bt
		}
		copySubtree(doc, id, bt.b)
		bt.records++
		return true
	})
	if splitErr != nil {
		return nil, 0, splitErr
	}
	out := make(map[int][]byte, len(batches))
	for si, bt := range batches {
		if bt == nil {
			continue
		}
		bt.b.Close()
		sub, err := bt.b.Done()
		if err != nil {
			return nil, 0, fmt.Errorf("shard: rebuild record batch: %w", err)
		}
		var buf bytes.Buffer
		if err := sub.Write(&buf); err != nil {
			return nil, 0, err
		}
		out[si] = buf.Bytes()
	}
	return out, records, nil
}

// recordShard evaluates one record as a standalone mini-document and
// hashes its first fact.
func (c *Coordinator) recordShard(doc *xmltree.Document, root *xmltree.Node, id xmltree.NodeID) (int, error) {
	b := &xmltree.Builder{}
	openRootShell(doc, root, b)
	copySubtree(doc, id, b)
	b.Close()
	mini, err := b.Done()
	if err != nil {
		return 0, fmt.Errorf("shard: extract record: %w", err)
	}
	set, err := match.Evaluate(mini, c.lat)
	if err != nil {
		return 0, fmt.Errorf("shard: route record: %w", err)
	}
	if len(set.Facts) == 0 {
		return 0, nil
	}
	return ShardOf(set.Dicts, set.Facts[0], len(c.shards)), nil
}

// openRootShell opens a copy of the original root (tag, attributes,
// direct text) and leaves it open for record subtrees.
func openRootShell(doc *xmltree.Document, root *xmltree.Node, b *xmltree.Builder) {
	b.Open(root.Tag)
	if root.Value != "" {
		b.Text(root.Value)
	}
	doc.EachChild(root.ID, func(ch xmltree.NodeID) bool {
		n := doc.Node(ch)
		if n.Kind != xmltree.Attr {
			return false // attributes precede element children
		}
		b.Attr(n.Tag[1:], n.Value)
		return true
	})
}

// copySubtree replays the subtree rooted at id into b.
func copySubtree(doc *xmltree.Document, id xmltree.NodeID, b *xmltree.Builder) {
	n := doc.Node(id)
	if n.Kind == xmltree.Attr {
		b.Attr(n.Tag[1:], n.Value)
		return
	}
	b.Open(n.Tag)
	if n.Value != "" {
		b.Text(n.Value)
	}
	doc.EachChild(id, func(ch xmltree.NodeID) bool {
		copySubtree(doc, ch, b)
		return true
	})
	b.Close()
}
