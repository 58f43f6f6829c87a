package main

import (
	"fmt"
	"strings"

	"ordxml"
	"ordxml/internal/core/xpath"
	"ordxml/internal/xmltree"
)

// oracle is the logical document every store of a workload should hold:
// the generated tree with the workload's edits applied. Query results are
// checked against xpath.Eval over it.
type oracle struct {
	root  *xmltree.Node
	cache map[string][]*xmltree.Node
	xml   string // root.String(), "" when stale
}

func newOracle(root *xmltree.Node) *oracle {
	return &oracle{root: root, cache: map[string][]*xmltree.Node{}}
}

// changed drops cached results after an edit of the tree.
func (o *oracle) changed() {
	clear(o.cache)
	o.xml = ""
}

func (o *oracle) eval(q string) ([]*xmltree.Node, error) {
	if r, ok := o.cache[q]; ok {
		return r, nil
	}
	r, err := xpath.EvalString(o.root, q)
	if err != nil {
		return nil, err
	}
	o.cache[q] = r
	return r, nil
}

func (o *oracle) String() string {
	if o.xml == "" {
		o.xml = o.root.String()
	}
	return o.xml
}

// assignIDs numbers n's subtree in the shredder's pre-order (node,
// attributes, children) starting at first, as the store numbers a loaded
// document or an inserted fragment.
func assignIDs(n *xmltree.Node, first int64, ids map[*xmltree.Node]int64) {
	next := first
	n.Walk(func(m *xmltree.Node) bool {
		ids[m] = next
		next++
		return true
	})
}

var kinds = map[xmltree.Kind]ordxml.NodeKind{
	xmltree.Element: ordxml.ElementNode,
	xmltree.Attr:    ordxml.AttributeNode,
	xmltree.Text:    ordxml.TextNode,
}

// checkNodes compares a store's query result with the oracle's: the same
// nodes in document order, each with its kind, name and value.
func checkNodes(got []ordxml.Node, want []*xmltree.Node, ids map[*xmltree.Node]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != ids[w] || g.Kind != kinds[w.Kind] {
			return fmt.Errorf("result %d is %s node %d, oracle has %s node %d", i, g.Kind, g.ID, kinds[w.Kind], ids[w])
		}
		if w.Kind != xmltree.Text && g.Tag != w.Tag {
			return fmt.Errorf("result %d has name %q, oracle has %q", i, g.Tag, w.Tag)
		}
		if w.Kind != xmltree.Element && g.Value != w.Value {
			return fmt.Errorf("result %d has value %q, oracle has %q", i, g.Value, w.Value)
		}
	}
	return nil
}

// signature renders a result without node ids, so stores whose ids differ
// (a rebuilt store renumbers them) can still be compared.
func signature(res []ordxml.Node) string {
	var sb strings.Builder
	for _, n := range res {
		fmt.Fprintf(&sb, "%d|%s|%s\n", n.Kind, n.Tag, n.Value)
	}
	return sb.String()
}

// renumberModel is the paper's dense cost model for inserting a subtree
// before (or, for after, behind) sibling anchor: Global renumbers every node
// that follows the insertion point in document order, Local the following
// siblings, Dewey the following siblings with their subtrees.
func renumberModel(enc ordxml.Encoding, root, anchor *xmltree.Node, after bool) int64 {
	parent := anchor.Parent
	idx := indexOf(parent.Children, anchor)
	if after {
		idx++
	}
	switch enc {
	case ordxml.Global:
		var n int64
		seen := false
		var first *xmltree.Node
		if idx < len(parent.Children) {
			first = parent.Children[idx]
		} else {
			first = nextAfterSubtree(parent)
		}
		root.Walk(func(m *xmltree.Node) bool {
			if m == first {
				seen = true
			}
			if seen {
				n++
			}
			return true
		})
		return n
	case ordxml.Local:
		return int64(len(parent.Children) - idx)
	default:
		var n int64
		for _, c := range parent.Children[idx:] {
			n += int64(c.Size())
		}
		return n
	}
}

// nextAfterSubtree returns the first node after n's subtree in document
// order, nil at the end of the document.
func nextAfterSubtree(n *xmltree.Node) *xmltree.Node {
	for ; n.Parent != nil; n = n.Parent {
		sib := n.Parent.Children
		if i := indexOf(sib, n); i+1 < len(sib) {
			return sib[i+1]
		}
	}
	return nil
}

func indexOf(list []*xmltree.Node, n *xmltree.Node) int {
	for i, c := range list {
		if c == n {
			return i
		}
	}
	return -1
}

// insertAt places child into parent's children at index i.
func insertAt(parent *xmltree.Node, i int, child *xmltree.Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[i+1:], parent.Children[i:])
	parent.Children[i] = child
}

func removeChild(n *xmltree.Node) {
	p := n.Parent
	i := indexOf(p.Children, n)
	p.Children = append(p.Children[:i], p.Children[i+1:]...)
	n.Parent = nil
}
