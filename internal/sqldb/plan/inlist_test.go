package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
)

// treeFixture loads a two-document forest: node i of each document hangs
// under parent i/5, so every parent has up to five children whose ord
// values run against id order.
func treeFixture(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	for _, s := range []string{
		"CREATE TABLE n (doc INT NOT NULL, id INT NOT NULL, parent INT, ord INT NOT NULL)",
		"CREATE UNIQUE INDEX n_id ON n (doc, id)",
		"CREATE INDEX n_parent ON n (doc, parent, ord)",
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	var rows []sqltypes.Row
	for doc := int64(1); doc <= 2; doc++ {
		for i := int64(1); i <= 200; i++ {
			parent := sqldb.Null()
			if i > 1 {
				parent = sqldb.I(i / 5)
			}
			rows = append(rows, sqltypes.Row{sqldb.I(doc), sqldb.I(i), parent, sqldb.I(1000 - i)})
		}
	}
	if _, err := db.BulkInsert("n", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func resultText(res *sqldb.Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// TestInListMultiSeek checks the IN multi-seek against the same query with
// the IN kept as a residual filter ((parent + 0) is not a bare column, so
// the planner cannot seek on it): duplicates, NULL items, unsorted lists,
// items that need coercion or cannot match an INT column, and values with no
// rows must all give the filter's rows in the filter's order.
func TestInListMultiSeek(t *testing.T) {
	db := treeFixture(t)
	cases := []struct {
		name   string
		list   string
		params []sqltypes.Value
	}{
		{"sorted", "1, 2, 3", nil},
		{"unsorted", "7, 2, 30, 4", nil},
		{"duplicates", "3, 3, 1, 3", nil},
		{"null", "NULL, 2, NULL", nil},
		{"only_null", "NULL", nil},
		{"coerced", "2.0, '3', 4.5, 6", nil},
		{"no_match", "999, -1, 100", nil},
		{"params", "?, ?, ?, ?", []sqltypes.Value{sqldb.I(9), sqldb.Null(), sqldb.I(2), sqldb.I(9)}},
		{"param_coerced", "?, ?", []sqltypes.Value{sqldb.F(5), sqldb.S("6")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := append([]sqltypes.Value{sqldb.I(2)}, tc.params...)
			seek := "SELECT id, parent, ord FROM n WHERE doc = ? AND parent IN (" + tc.list + ") ORDER BY parent, ord"
			filter := "SELECT id, parent, ord FROM n WHERE doc = ? AND (parent + 0) IN (" + tc.list + ") ORDER BY parent, ord"
			p := explain(t, db, seek)
			if !strings.Contains(p, "using n_parent doc=? parent IN (") || strings.Contains(p, "filter=") {
				t.Fatalf("IN did not become a multi-seek:\n%s", p)
			}
			if !strings.Contains(explain(t, db, filter), "filter=") {
				t.Fatalf("control query has no residual filter")
			}
			got, err := db.Query(seek, params...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Query(filter, params...)
			if err != nil {
				t.Fatal(err)
			}
			if resultText(got) != resultText(want) {
				t.Fatalf("multi-seek rows:\n%s\nfilter rows:\n%s", resultText(got), resultText(want))
			}
		})
	}
	// One seek per distinct value: the probes are exactly the matching rows.
	before := db.Counters()
	res, err := db.Query("SELECT id FROM n WHERE doc = 1 AND parent IN (3, 1, 3, 999)")
	if err != nil {
		t.Fatal(err)
	}
	if d := db.Counters().Sub(before); len(res.Rows) != 10 || d.IndexProbes != 10 {
		t.Errorf("rows = %d, probes = %d, want 10 and 10", len(res.Rows), d.IndexProbes)
	}
}

// TestInListNotSeekable: NOT IN and lists with a column item stay filters.
func TestInListNotSeekable(t *testing.T) {
	db := treeFixture(t)
	for _, sql := range []string{
		"SELECT id FROM n WHERE doc = 1 AND parent NOT IN (1, 2)",
		"SELECT id FROM n WHERE doc = 1 AND parent IN (1, id)",
	} {
		if p := explain(t, db, sql); !strings.Contains(p, "IN (1, ") || !strings.Contains(p, "filter=(parent") {
			t.Errorf("%s: IN is not a residual filter:\n%s", sql, p)
		}
	}
}

// TestInListDeliversOrder: the seeks run in ascending value order, so ORDER
// BY the columns after the equality prefix needs no Sort node — and a
// multi-seek is never shared out to Gather workers, even at parallelism 4
// on a table big enough that a plain index range under the same Sort is.
func TestInListDeliversOrder(t *testing.T) {
	db := treeFixture(t)
	p := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND parent IN (5, 1, 3) ORDER BY parent, ord")
	if strings.Contains(p, "Sort") {
		t.Errorf("multi-seek order not used:\n%s", p)
	}
	// ORDER BY ord alone is not the index order after the IN column.
	p = explain(t, db, "SELECT id FROM n WHERE doc = 1 AND parent IN (5, 1, 3) ORDER BY ord")
	if !strings.Contains(p, "Sort") {
		t.Errorf("ORDER BY ord served without a Sort:\n%s", p)
	}

	big := sqldb.Open()
	if _, err := big.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 10000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqldb.I(int64(i)), sqldb.I(int64(i % 17))}
	}
	if _, err := big.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	big.SetParallelism(4)
	if p := explain(t, big, "SELECT id, v FROM t WHERE id >= 0 ORDER BY v"); !strings.Contains(p, "parallel") {
		t.Fatalf("control range scan did not go parallel:\n%s", p)
	}
	const q = "SELECT id, v FROM t WHERE id IN (9000, 3, 77, 3) ORDER BY v, id"
	p = explain(t, big, q)
	if !strings.Contains(p, "id IN (9000, 3, 77, 3)") || strings.Contains(p, "parallel") || strings.Contains(p, "Gather") {
		t.Errorf("multi-seek plan at parallelism 4:\n%s", p)
	}
	res, err := big.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultText(res); got != "(3, 3)\n(9000, 7)\n(77, 9)\n" {
		t.Errorf("rows = %q", got)
	}
}
