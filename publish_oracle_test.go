package ordxml_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ordxml"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// TestSubtreePublishOracle is the oracle test for subtree reconstruction:
// after a random history of deletes (leaving holes in the order keys) and
// inserts (some refilling a hole, some landing in gaps), Serialize of every
// node must equal the oracle's serialization of the same node. It covers
// each encoding dense and with gap 64 (Dewey in both codecs), on memory and
// on paged durable stores, at parallelism 1 and 4. Global's streamed
// subtree scan stops at the first row whose parent is outside the subtree;
// this is the test that rule must pass.
func TestSubtreePublishOracle(t *testing.T) {
	type config struct {
		name string
		opts ordxml.Options
	}
	var configs []config
	for _, enc := range []struct {
		name string
		opts ordxml.Options
	}{
		{"global", ordxml.Options{Encoding: ordxml.Global}},
		{"local", ordxml.Options{Encoding: ordxml.Local}},
		{"dewey", ordxml.Options{Encoding: ordxml.Dewey}},
		{"dewey_text", ordxml.Options{Encoding: ordxml.Dewey, DeweyAsText: true}},
	} {
		for _, gap := range []uint32{0, 64} {
			opts := enc.opts
			opts.Gap = gap
			configs = append(configs, config{fmt.Sprintf("%s/gap%d", enc.name, gap), opts})
		}
	}
	for _, cfg := range configs {
		for _, paged := range []bool{false, true} {
			storage := "memory"
			if paged {
				storage = "paged"
			}
			t.Run(cfg.name+"/"+storage, func(t *testing.T) {
				for seed := int64(0); seed < 2; seed++ {
					s := &session{name: cfg.name, ids: map[*xmltree.Node]int64{}}
					var err error
					if paged {
						opts := cfg.opts
						opts.BufferPoolFrames = 64
						s.store, err = ordxml.OpenDurable(t.TempDir(), opts)
					} else {
						s.store, err = ordxml.Open(cfg.opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					oracle := publishHistory(t, s, seed)
					for _, par := range []int{1, 4} {
						s.store.SetParallelism(par)
						checkEverySubtree(t, s, oracle, fmt.Sprintf("seed %d parallelism %d", seed, par))
					}
					if paged {
						if err := s.store.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// publishHistory loads a random document (a root over four random trees)
// into s and applies a random history of deletes and inserts to both the
// store and the returned oracle. Half of the deletes are followed by an
// insert into the hole they left.
func publishHistory(t *testing.T, s *session, seed int64) *xmltree.Node {
	t.Helper()
	oracle := xmltree.NewElement("root")
	for k := int64(0); k < 4; k++ {
		oracle.AddChild(xmlgen.Random(xmlgen.DefaultRandom(900 + 10*seed + k)))
	}
	doc, err := s.store.LoadString("oracle", oracle.String())
	if err != nil {
		t.Fatal(err)
	}
	s.doc = doc
	s.mapFragment(oracle, 1)
	r := rand.New(rand.NewSource(seed + 77))
	insert := func(op int, target *xmltree.Node, mode ordxml.Position) {
		frag := fmt.Sprintf(`<ins n="%d"><leaf>v%d</leaf><b><c/>t%d</b></ins>`, op, op, op)
		rep, err := s.store.Insert(s.doc, s.ids[target], mode, frag)
		if err != nil {
			t.Fatalf("op %d: insert: %v", op, err)
		}
		node, _ := xmltree.ParseString(frag)
		s.mapFragment(node, rep.NewID)
		switch mode {
		case ordxml.FirstChild:
			node.Parent = target
			target.Children = append([]*xmltree.Node{node}, target.Children...)
		case ordxml.LastChild:
			target.AddChild(node)
		default:
			p := target.Parent
			idx := target.ChildIndex()
			if mode == ordxml.After {
				idx++
			}
			node.Parent = p
			p.Children = append(p.Children, nil)
			copy(p.Children[idx+1:], p.Children[idx:])
			p.Children[idx] = node
		}
	}
	for op := 0; op < 24; op++ {
		var elems []*xmltree.Node
		oracle.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Element {
				elems = append(elems, n)
			}
			return true
		})
		target := elems[r.Intn(len(elems))]
		if r.Intn(2) == 0 || target.Parent == nil || len(elems) < 6 {
			mode := []ordxml.Position{ordxml.FirstChild, ordxml.LastChild, ordxml.Before, ordxml.After}[r.Intn(4)]
			if target.Parent == nil && (mode == ordxml.Before || mode == ordxml.After) {
				mode = ordxml.LastChild
			}
			insert(op, target, mode)
			continue
		}
		p, idx := target.Parent, target.ChildIndex()
		if _, err := s.store.Delete(s.doc, s.ids[target]); err != nil {
			t.Fatalf("op %d: delete: %v", op, err)
		}
		p.Children = append(p.Children[:idx], p.Children[idx+1:]...)
		if r.Intn(2) == 0 {
			// Refill the hole: right after the deleted node's left sibling,
			// or as the first child when it had none.
			if idx > 0 {
				insert(op, p.Children[idx-1], ordxml.After)
			} else {
				insert(op, p, ordxml.FirstChild)
			}
		}
	}
	return oracle
}

// checkEverySubtree compares Serialize of every oracle node (elements,
// attributes and text) with the oracle.
func checkEverySubtree(t *testing.T, s *session, oracle *xmltree.Node, label string) {
	t.Helper()
	n := 0
	oracle.Walk(func(node *xmltree.Node) bool {
		got, err := s.store.Serialize(s.doc, s.ids[node])
		if err != nil {
			t.Fatalf("%s: node %d: %v", label, s.ids[node], err)
		}
		if want := node.String(); got != want {
			t.Fatalf("%s: node %d (%s %q):\n got %s\nwant %s", label, s.ids[node], node.Kind, node.Tag, got, want)
		}
		n++
		return true
	})
	if n < 50 {
		t.Fatalf("%s: only %d nodes checked", label, n)
	}
}
