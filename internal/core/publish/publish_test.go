package publish

import (
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Round trips across encodings live in the shred package; these tests cover
// the publisher's own edge cases and failure paths.

func setup(t *testing.T, opts encoding.Options, xml string) (*Publisher, int64, *sqldb.DB) {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	sh, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sh.LoadTree("d", tree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, doc, db
}

func TestMissingDocument(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
	} {
		p, _, _ := setup(t, opts, "<a/>")
		if _, err := p.Document(99); err == nil {
			t.Errorf("%s: missing document published", opts.Kind)
		}
		if _, err := p.Subtree(99, 1); err == nil {
			t.Errorf("%s: subtree of missing document published", opts.Kind)
		}
		if _, err := p.Subtree(1, 42); err == nil {
			t.Errorf("%s: missing node published", opts.Kind)
		}
	}
}

func TestSubtreeOfLeaf(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		p, doc, db := setup(t, opts, `<a><b x="1">hi</b></a>`)
		// Find the text node's id.
		res, err := db.Query(
			"SELECT id FROM "+opts.NodesTable()+" WHERE doc = ? AND kind = 'text'", sqldb.I(doc))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%v rows, %v", len(res.Rows), err)
		}
		textID := res.Rows[0][0].Int()
		sub, err := p.Subtree(doc, textID)
		if err != nil {
			t.Fatalf("%s: %v", opts.Kind, err)
		}
		if sub.Kind != xmltree.Text || sub.Value != "hi" {
			t.Errorf("%s: leaf subtree = %+v", opts.Kind, sub)
		}
		// Attribute node as subtree.
		res, _ = db.Query(
			"SELECT id FROM "+opts.NodesTable()+" WHERE doc = ? AND kind = 'attr'", sqldb.I(doc))
		attrID := res.Rows[0][0].Int()
		sub, err = p.Subtree(doc, attrID)
		if err != nil || sub.Kind != xmltree.Attr || sub.Tag != "x" {
			t.Errorf("%s: attr subtree = %+v, %v", opts.Kind, sub, err)
		}
	}
}

func TestDocumentAfterSubtreeDeletion(t *testing.T) {
	// Publishing must tolerate order keys with holes (post-delete state is
	// simulated by loading with a gap).
	opts := encoding.Options{Kind: encoding.Global, Gap: 32}
	p, doc, _ := setup(t, opts, `<a><b/><c/><d/></a>`)
	tree, err := p.Document(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 3 {
		t.Errorf("children = %d", len(tree.Children))
	}
}

func TestMixedContentOrder(t *testing.T) {
	const xml = `<p>one <b>two</b> three <i>four</i> five</p>`
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
	} {
		p, doc, _ := setup(t, opts, xml)
		tree, err := p.Document(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.String(); got != xml {
			t.Errorf("%s: mixed content order lost: %s", opts.Kind, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	db := sqldb.Open()
	if _, err := New(db, encoding.Options{Kind: encoding.Kind(9)}); err == nil {
		t.Error("bad options accepted")
	}
	if _, err := New(db, encoding.Options{Kind: encoding.Global}); err == nil {
		t.Error("uninstalled encoding accepted")
	}
}

// TestSubtreeStatementCounts pins the set-based publisher's statement
// counts: Global and Dewey read a subtree with one lookup plus one interval
// scan; Local needs one lookup plus one statement per localChunk parents of
// each tree level that has elements, whatever their number of children.
func TestSubtreeStatementCounts(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 100; i++ {
		sb.WriteString(`<i n="x"><j>t</j></i>`)
	}
	sb.WriteString("</r>")
	xml := sb.String()
	for _, tc := range []struct {
		opts encoding.Options
		want int64
	}{
		{encoding.Options{Kind: encoding.Global}, 2},
		{encoding.Options{Kind: encoding.Global, Gap: 64}, 2},
		{encoding.Options{Kind: encoding.Dewey}, 2},
		// r, then 100 i (2 chunks), then 100 j (2 chunks).
		{encoding.Options{Kind: encoding.Local}, 1 + 1 + 2 + 2},
	} {
		p, doc, db := setup(t, tc.opts, xml)
		queries := func() int64 { return db.Metrics().Counters["sqldb.queries"] }
		for round := 0; round < 2; round++ {
			before, misses := queries(), db.PlanCacheStats().Misses
			sub, err := p.Subtree(doc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := sub.String(); got != xml {
				t.Fatalf("%s: subtree = %s", tc.opts.Kind, got)
			}
			if got := queries() - before; got != tc.want {
				t.Errorf("%s: %d statements, want %d", tc.opts.Kind, got, tc.want)
			}
			if round == 1 && db.PlanCacheStats().Misses != misses {
				t.Errorf("%s: repeated publish missed the plan cache", tc.opts.Kind)
			}
		}
	}
}

// TestLocalLevelPlan: the shape of the Local level statement plans as one
// index multi-seek over (doc, parent, lorder) whose order satisfies ORDER BY
// parent, lorder.
func TestLocalLevelPlan(t *testing.T) {
	_, _, db := setup(t, encoding.Options{Kind: encoding.Local}, "<a/>")
	plan, err := db.Explain(sqlgen.SQL(`SELECT id, lorder FROM xl_nodes WHERE doc = ? AND parent IN (%s) ORDER BY parent, lorder`,
		sqlgen.Placeholders(localChunk)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexScan xl_nodes using xl_nodes_parent doc=? parent IN (?") || strings.Contains(plan, "Sort") {
		t.Errorf("level plan:\n%s", plan)
	}
}
