package sqlgen

import (
	"strings"
	"testing"
)

func TestSQL(t *testing.T) {
	got := SQL(`SELECT %s FROM %s WHERE doc = ?`, "gorder", "xg_nodes")
	want := `SELECT gorder FROM xg_nodes WHERE doc = ?`
	if got != want {
		t.Fatalf("SQL = %q, want %q", got, want)
	}
}

func TestSQLColumnList(t *testing.T) {
	got := SQL(`SELECT %s FROM %s`, "id, parent,kind", "xl_nodes")
	want := `SELECT id, parent, kind FROM xl_nodes`
	if got != want {
		t.Fatalf("SQL = %q, want %q", got, want)
	}
}

func TestSQLEscapedPercent(t *testing.T) {
	got := SQL(`SELECT id FROM %s WHERE tag LIKE '%%x'`, "xd_nodes")
	if !strings.Contains(got, "'%x'") {
		t.Fatalf("escaped %%%% not preserved: %q", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestSQLRejects(t *testing.T) {
	mustPanic(t, "injection", func() {
		SQL(`DELETE FROM %s`, "docs; DROP TABLE docs")
	})
	mustPanic(t, "quoted", func() {
		SQL(`SELECT id FROM %s`, `"docs"`)
	})
	mustPanic(t, "empty", func() {
		SQL(`SELECT id FROM %s`, "")
	})
	mustPanic(t, "arity-low", func() {
		SQL(`SELECT %s FROM %s`, "id")
	})
	mustPanic(t, "arity-high", func() {
		SQL(`SELECT id FROM %s`, "docs", "extra")
	})
	mustPanic(t, "verb", func() {
		SQL(`SELECT id FROM docs WHERE id = %d`)
	})
	mustPanic(t, "dangling", func() {
		SQL(`SELECT id FROM docs WHERE x = '%`)
	})
}

func TestIdent(t *testing.T) {
	if Ident("xg_nodes") != "xg_nodes" {
		t.Fatal("valid identifier mangled")
	}
	mustPanic(t, "leading-digit", func() { Ident("1x") })
	mustPanic(t, "space", func() { Ident("a b") })
}

func TestList(t *testing.T) {
	if got := List("id", "parent", "path"); got != "id, parent, path" {
		t.Fatalf("List = %q", got)
	}
	mustPanic(t, "bad element", func() { List("id", "pa rent") })
}

func TestPlaceholders(t *testing.T) {
	if got := Placeholders(1); got != "?" {
		t.Fatalf("Placeholders(1) = %q", got)
	}
	got := SQL(`SELECT id FROM %s WHERE parent IN (%s)`, "xl_nodes", Placeholders(3))
	if want := `SELECT id FROM xl_nodes WHERE parent IN (?, ?, ?)`; got != want {
		t.Fatalf("SQL = %q, want %q", got, want)
	}
	mustPanic(t, "zero", func() { Placeholders(0) })
	mustPanic(t, "value in list", func() {
		SQL(`SELECT id FROM t WHERE parent IN (%s)`, "?, 1")
	})
	mustPanic(t, "stray placeholder", func() {
		SQL(`SELECT %s FROM t`, "id, ?")
	})
}
