package translate

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/xpath"
	"ordxml/internal/sqldb"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// allOptions are the encoding configurations cross-validated against the
// oracle.
func allOptions() []encoding.Options {
	return []encoding.Options{
		{Kind: encoding.Global},
		{Kind: encoding.Local},
		{Kind: encoding.Dewey},
		{Kind: encoding.Global, Gap: 8},
		{Kind: encoding.Local, Gap: 8},
		{Kind: encoding.Dewey, Gap: 8},
		{Kind: encoding.Dewey, DeweyAsText: true},
	}
}

func optName(o encoding.Options) string {
	n := o.Kind.String()
	if o.Gap > 1 {
		n += "_gap"
	}
	if o.DeweyAsText {
		n += "_text"
	}
	return n
}

// loadedDoc couples an in-memory tree with its shredded form and the
// tree-node -> surrogate-id mapping (both sides number nodes in the same
// pre-order walk).
type loadedDoc struct {
	tree  *xmltree.Node
	docID int64
	ids   map[*xmltree.Node]int64
	eval  *Evaluator
}

func load(t *testing.T, opts encoding.Options, tree *xmltree.Node) *loadedDoc {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	s, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	docID, err := s.LoadTree("doc", tree)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[*xmltree.Node]int64{}
	next := int64(1)
	tree.Walk(func(n *xmltree.Node) bool {
		ids[n] = next
		next++
		return true
	})
	return &loadedDoc{tree: tree, docID: docID, ids: ids, eval: ev}
}

// check runs one query against both the oracle and the relational
// evaluator and compares the ordered id sequences.
func (ld *loadedDoc) check(t *testing.T, query string) {
	t.Helper()
	oracle, err := xpath.EvalString(ld.tree, query)
	if err != nil {
		t.Fatalf("oracle %q: %v", query, err)
	}
	want := make([]int64, len(oracle))
	for i, n := range oracle {
		want[i] = ld.ids[n]
	}
	got, sqls, err := ld.eval.QuerySQL(context.Background(), ld.docID, query)
	if err != nil {
		t.Fatalf("%s: translate %q: %v", optName(ld.eval.opts), query, err)
	}
	gotIDs := make([]int64, len(got))
	for i, r := range got {
		gotIDs[i] = r.ID
	}
	if len(gotIDs) != len(want) {
		t.Fatalf("%s: %q: got %v, want %v\nSQL: %v",
			optName(ld.eval.opts), query, gotIDs, want, sqls)
	}
	for i := range want {
		if gotIDs[i] != want[i] {
			t.Fatalf("%s: %q: got %v, want %v\nSQL: %v",
				optName(ld.eval.opts), query, gotIDs, want, sqls)
		}
	}
}

const fixtureDoc = `<site>
  <regions>
    <namerica>
      <item id="i1" featured="yes"><name>widget</name><price>10</price></item>
      <item id="i2"><name>gadget</name><price>20</price>
        <description>nice <keyword>rare</keyword> and <keyword>vintage</keyword> thing</description>
      </item>
      <item id="i3"><name>gizmo</name><price>10</price></item>
      <item id="i4"><name>widget</name><price>30</price></item>
    </namerica>
    <europe>
      <item id="e1"><name>widget</name><price>30</price></item>
      <item id="e2"><name>doohickey</name><price>5</price>
        <description><keyword>rare</keyword></description>
      </item>
    </europe>
  </regions>
  <people>
    <person id="p1"><name>ann</name></person>
    <person id="p2"><name>bob</name></person>
  </people>
</site>`

// fixtureQueries is the hand-written battery covering every axis and
// predicate class (the E3 query suite shapes are among them).
var fixtureQueries = []string{
	"/site",
	"/site/regions/namerica/item",
	"/site/regions/namerica/item/name",
	"/site/regions/*",
	"/site/regions/namerica/item/@id",
	"/site/regions/namerica/item[2]",
	"/site/regions/namerica/item[4]",
	"/site/regions/namerica/item[99]",
	"/site/regions/namerica/item[last()]",
	"/site/regions/namerica/item[position() <= 2]",
	"/site/regions/namerica/item[position() > 1]",
	"/site/regions/namerica/item[position() != 2]",
	"/site/regions/namerica/item[2]/following-sibling::item",
	"/site/regions/namerica/item[3]/preceding-sibling::item",
	"/site/regions/namerica/item[3]/preceding-sibling::item[1]",
	"/site/regions/namerica/item[1]/following-sibling::item[2]",
	"/site/regions/namerica/item[2]/following-sibling::item[last()]",
	"/site/regions/namerica/item/following-sibling::*",
	"//keyword",
	"//item",
	"//item/@id",
	"//item[2]",
	"//description/keyword",
	"//description//keyword",
	"//namerica//keyword",
	"//regions//item/name",
	"//item[@id = 'i2']",
	"//item[@id = 'i2']/name",
	"//item[price = '10']",
	"//item[price = '10']/@id",
	"//item[price != '10']",
	"//item[name = 'widget'][2]",
	"//item[description]",
	"//item[description/keyword = 'rare']",
	"//item[description/keyword = 'rare'][1]",
	"//name[. = 'gizmo']",
	"//keyword/parent::description",
	"//keyword/..",
	"//item/parent::*",
	"//description/text()",
	"/site/people/person[@id = 'p2']/name",
	"/site/regions/europe/item[1]/name",
	"//europe/item[price = '30']/following-sibling::item",
	"/site/regions/namerica/item[price = '10'][2]",
	"//item[price = '10']/following-sibling::item[1]",
	// Mixed-content and text positions.
	"//description/text()[1]",
	"//description/text()[2]",
	"//description/text()[last()]",
	"//item/name/text()",
	// Attribute positional (attributes occupy leading sibling ordinals).
	"/site/regions/namerica/item[1]/@id",
	"/site/regions/namerica/item[1]/@featured",
	"//item[@featured = 'yes']",
	"//item[@featured != 'yes']",
	// Wildcards at various depths.
	"/*",
	"/*/*",
	"/site/*/namerica/item/name",
	"//*[@id = 'e2']",
	"/site/regions/*/item[1]",
	// Multi-predicate steps.
	"//item[price = '10'][name = 'widget']",
	"//item[name = 'widget'][price = '10']",
	"//item[@id = 'i1'][1]",
	"//item[keyword]",
	"//item[description][price = '20']",
	"/site/regions/namerica/item[position() >= 2][position() <= 2]",
	// Predicates with deeper relative paths.
	"//regions[namerica/item/name = 'gizmo']",
	"/site[regions/namerica/item]/people/person",
	"//item[description/keyword]",
	// Chained sibling hops.
	"/site/regions/namerica/item[1]/following-sibling::item[1]/following-sibling::item",
	"/site/regions/namerica/item[2]/preceding-sibling::item/following-sibling::item",
	"/site/regions/namerica/item[2]/following-sibling::*[last()]",
	// Parent/ancestor compositions.
	"//keyword/../..",
	"//keyword/parent::*/parent::item/name",
	"//name/ancestor::*[2]",
	"//keyword/ancestor::item/following-sibling::item",
	// Descendant compositions.
	"//regions//keyword",
	"/site//europe//keyword",
	"//item//text()",
	"/site//item[2]",
	"//description//keyword[2]",
	// Descendant with explicit spelling.
	"/site/descendant::keyword",
	"/site/regions/descendant::item[position() <= 3]",
	// Misses mixed with hits.
	"//item[price = '999']",
	"//item[@id = 'i1']/keyword",
	"/site/people/person/following-sibling::person[2]",
	"//keyword/ancestor::item",
	"//keyword/ancestor::*",
	"//keyword/ancestor::item/@id",
	"//keyword/ancestor::*[1]",
	"//keyword/ancestor::*[2]",
	"//keyword/ancestor::*[last()]",
	"//name/ancestor::item/price",
	"/site/regions/namerica/item[2]/name/ancestor::item",
	"//item/ancestor::regions",
	"/nothere",
	"/site/nothere/item",
	"//nothere",
}

func TestFixtureQueriesAllEncodings(t *testing.T) {
	tree, err := xmltree.ParseString(fixtureDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range allOptions() {
		t.Run(optName(opts), func(t *testing.T) {
			ld := load(t, opts, tree)
			for _, q := range fixtureQueries {
				ld.check(t, q)
			}
		})
	}
}

// randQuery builds a random query from the tags and attribute names that
// actually occur in the generated documents, plus misses.
func randQuery(r *rand.Rand) string {
	tags := []string{"a", "b", "c", "d", "zz"}
	attrs := []string{"quick", "brown", "fox", "none"}
	steps := 1 + r.Intn(3)
	q := ""
	for i := 0; i < steps; i++ {
		if r.Intn(4) == 0 {
			q += "//"
		} else {
			q += "/"
		}
		switch r.Intn(10) {
		case 0:
			q += "*"
		case 1:
			if i > 0 {
				q += "text()"
				return q
			}
			q += tags[r.Intn(len(tags))]
		default:
			q += tags[r.Intn(len(tags))]
		}
		// Predicates.
		for p := r.Intn(3); p > 0; p-- {
			switch r.Intn(6) {
			case 0:
				q += fmt.Sprintf("[%d]", 1+r.Intn(3))
			case 1:
				q += fmt.Sprintf("[position() %s %d]",
					[]string{"<=", ">=", "<", ">", "="}[r.Intn(5)], 1+r.Intn(3))
			case 2:
				q += "[last()]"
			case 3:
				q += fmt.Sprintf("[@%s = 'x']", attrs[r.Intn(len(attrs))])
			case 4:
				q += fmt.Sprintf("[%s]", tags[r.Intn(len(tags))])
			default:
				q += fmt.Sprintf("[@%s != 'x']", attrs[r.Intn(len(attrs))])
			}
		}
		if r.Intn(5) == 0 && i == steps-1 {
			ax := []string{"/following-sibling::", "/preceding-sibling::", "/parent::", "/ancestor::"}[r.Intn(4)]
			q += ax + tags[r.Intn(len(tags))]
		}
	}
	return q
}

// TestRandomQueriesAgainstOracle is the main correctness property: random
// documents x random queries x every encoding must equal the oracle.
func TestRandomQueriesAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep is slow")
	}
	opts := allOptions()
	for docSeed := int64(0); docSeed < 10; docSeed++ {
		tree := xmlgen.Random(xmlgen.DefaultRandom(docSeed))
		var lds []*loadedDoc
		for _, o := range opts {
			lds = append(lds, load(t, o, tree))
		}
		r := rand.New(rand.NewSource(docSeed * 977))
		for qi := 0; qi < 90; qi++ {
			q := randQuery(r)
			if _, err := xpath.Parse(q); err != nil {
				continue
			}
			for _, ld := range lds {
				ld.check(t, q)
			}
		}
	}
}

func TestEvaluatorErrors(t *testing.T) {
	tree, _ := xmltree.ParseString("<a><b/></a>")
	ld := load(t, encoding.Options{Kind: encoding.Dewey}, tree)
	if _, err := ld.eval.Query(ld.docID, "not a path ("); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := ld.eval.Query(ld.docID, "/a/b[following-sibling::c]"); err == nil {
		t.Error("unsupported predicate axis accepted")
	}
	// Missing document: no rows, no error.
	refs, err := ld.eval.Query(999, "/a")
	if err != nil || len(refs) != 0 {
		t.Errorf("missing doc: %v, %v", refs, err)
	}
}

func TestQuerySQLExposed(t *testing.T) {
	tree, _ := xmltree.ParseString("<a><b><c/></b></a>")
	ld := load(t, encoding.Options{Kind: encoding.Dewey}, tree)
	_, sqls, err := ld.eval.QuerySQL(context.Background(), ld.docID, "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(sqls) != 1 {
		t.Fatalf("QuerySQL statements = %v", sqls)
	}
	if got := sqls[0]; !contains(got, "xd_nodes n3") || !contains(got, "ORDER BY n3.path") {
		t.Errorf("generated SQL unexpected: %s", got)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
