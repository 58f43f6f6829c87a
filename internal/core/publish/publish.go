// Package publish reconstructs XML from the relational encodings — the
// inverse of shredding. Reconstruction cost differs sharply by encoding,
// which experiment E7 quantifies:
//
//   - Global and Dewey: one index scan in order-key order yields the
//     document in pre-order; the tree is rebuilt with a single pass.
//   - Local: sibling order is only meaningful per parent, so the publisher
//     fetches all rows and sorts each sibling group.
//   - Subtrees: a subtree is one contiguous interval of document order.
//     Dewey bounds it with a path-prefix range scan. Global streams the
//     order index from the root's key and stops at the first row whose
//     parent lies outside the subtree — in pre-order, exactly the first
//     node after it. Local has no document order to scan, so it fetches the
//     subtree one tree level at a time with a parent IN (...) statement per
//     level (per localChunk parents of that level).
package publish

import (
	"context"
	"fmt"
	"sort"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/govern"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Publisher reconstructs documents from one encoding's tables.
type Publisher struct {
	db   *sqldb.DB
	opts encoding.Options

	allOrdered *sqldb.Stmt // doc rows in order-key order (global/dewey)
	allRows    *sqldb.Stmt // doc rows unordered (local)
	byID       *sqldb.Stmt
	pathRange  *sqldb.Stmt // dewey subtree range
	levelRows  *sqldb.Stmt // local: children of localChunk parents, by parent and sibling order
	fromKey    string      // global: doc rows from one order key on, in order (streamed)
}

// localChunk is the number of parent ids one Local level statement binds.
// The placeholder list has this fixed length — a short chunk repeats one of
// its ids — so the statement text, and with it the plan-cache entry, never
// varies.
const localChunk = 64

// New prepares a publisher for the encoding.
func New(db *sqldb.DB, opts encoding.Options) (*Publisher, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	tbl, ord := opts.NodesTable(), opts.OrderColumn()
	p := &Publisher{db: db, opts: opts}
	var err error
	cols := sqlgen.List("id", "parent", "kind", "tag", "value", ord)
	if p.allOrdered, err = db.Prepare(sqlgen.SQL(
		`SELECT %s FROM %s WHERE doc = ? ORDER BY %s`, cols, tbl, ord)); err != nil {
		return nil, err
	}
	if p.allRows, err = db.Prepare(sqlgen.SQL(
		`SELECT %s FROM %s WHERE doc = ?`, cols, tbl)); err != nil {
		return nil, err
	}
	if p.byID, err = db.Prepare(sqlgen.SQL(
		`SELECT %s FROM %s WHERE doc = ? AND id = ?`, cols, tbl)); err != nil {
		return nil, err
	}
	switch opts.Kind {
	case encoding.Global:
		p.fromKey = sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? AND %s >= ? ORDER BY %s`, cols, tbl, ord, ord)
	case encoding.Local:
		if p.levelRows, err = db.Prepare(sqlgen.SQL(
			`SELECT %s FROM %s WHERE doc = ? AND parent IN (%s) ORDER BY parent, %s`,
			cols, tbl, sqlgen.Placeholders(localChunk), ord)); err != nil {
			return nil, err
		}
	case encoding.Dewey:
		if p.pathRange, err = db.Prepare(sqlgen.SQL(
			`SELECT %s FROM %s WHERE doc = ? AND %s >= ? AND %s < ? ORDER BY %s`,
			cols, tbl, ord, ord, ord)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// nodeRow is one decoded node record.
type nodeRow struct {
	id     int64
	parent int64 // 0 = none
	kind   xmltree.Kind
	tag    string
	value  string
	order  sqltypes.Value
}

func decodeRow(r sqltypes.Row) (nodeRow, error) {
	kind, err := xmltree.ParseKind(r[2].Text())
	if err != nil {
		return nodeRow{}, err
	}
	n := nodeRow{id: r[0].Int(), kind: kind, order: r[5]}
	if !r[1].IsNull() {
		n.parent = r[1].Int()
	}
	if !r[3].IsNull() {
		n.tag = r[3].Text()
	}
	if !r[4].IsNull() {
		n.value = r[4].Text()
	}
	return n, nil
}

func (r nodeRow) toNode() *xmltree.Node {
	switch r.kind {
	case xmltree.Element:
		return xmltree.NewElement(r.tag)
	case xmltree.Attr:
		return xmltree.NewAttr(r.tag, r.value)
	default:
		return xmltree.NewText(r.value)
	}
}

// attach links child into parent respecting node kind.
func attach(parent, child *xmltree.Node) {
	if child.Kind == xmltree.Attr {
		child.Parent = parent
		parent.Attrs = append(parent.Attrs, child)
		return
	}
	parent.AddChild(child)
}

// Document reconstructs the whole document. The reconstruction pins one
// storage snapshot, so every row it reads — across however many statements
// the encoding needs — comes from the same store version.
func (p *Publisher) Document(doc int64) (*xmltree.Node, error) {
	return p.DocumentAt(nil, doc)
}

// DocumentAt reconstructs the document as of a pinned snapshot (nil pins the
// current version).
func (p *Publisher) DocumentAt(snap *sqldb.Snap, doc int64) (*xmltree.Node, error) {
	return p.DocumentCtx(context.Background(), snap, doc)
}

// DocumentCtx is DocumentAt with a caller context: the reconstruction's
// statements run governed (cancellation, deadline, memory budget) and join
// the request trace.
func (p *Publisher) DocumentCtx(ctx context.Context, snap *sqldb.Snap, doc int64) (*xmltree.Node, error) {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	if p.opts.Kind == encoding.Local {
		return p.documentLocal(ctx, snap, doc)
	}
	res, err := p.allOrdered.QueryAtCtx(ctx, snap, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	return buildPreOrder(res.Rows, 0)
}

// preOrder links rows arriving in document (pre-)order into a tree: the
// first row is the root, every later row hangs under an element already
// linked.
type preOrder struct {
	root  *xmltree.Node
	elems map[int64]*xmltree.Node // linked elements by id: the possible parents
}

// add links one row. It reports false, linking nothing, when the row's
// parent is not in the tree yet.
func (b *preOrder) add(nr nodeRow) bool {
	n := nr.toNode()
	if b.root == nil {
		b.root = n
		b.elems = map[int64]*xmltree.Node{}
	} else {
		parent, ok := b.elems[nr.parent]
		if !ok {
			return false
		}
		attach(parent, n)
	}
	if nr.kind == xmltree.Element {
		b.elems[nr.id] = n
	}
	return true
}

// buildPreOrder rebuilds a tree from rows sorted in document (pre-)order.
// rootParent identifies the parent id that marks the subtree root row.
func buildPreOrder(rows []sqltypes.Row, rootParent int64) (*xmltree.Node, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("no rows to publish")
	}
	var b preOrder
	for i, r := range rows {
		nr, err := decodeRow(r)
		if err != nil {
			return nil, err
		}
		if i == 0 && nr.parent != rootParent && rootParent != 0 {
			return nil, fmt.Errorf("subtree root mismatch: row parent %d", nr.parent)
		}
		if !b.add(nr) {
			return nil, fmt.Errorf("row %d arrived before its parent %d (order key corrupt?)", nr.id, nr.parent)
		}
	}
	return b.root, nil
}

// documentLocal rebuilds from the local encoding: one unordered scan, then a
// per-parent sibling sort.
func (p *Publisher) documentLocal(ctx context.Context, snap *sqldb.Snap, doc int64) (*xmltree.Node, error) {
	res, err := p.allRows.QueryAtCtx(ctx, snap, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("no rows to publish")
	}
	type entry struct {
		row  nodeRow
		node *xmltree.Node
	}
	byParent := map[int64][]entry{}
	var root *entry
	for _, r := range res.Rows {
		nr, err := decodeRow(r)
		if err != nil {
			return nil, err
		}
		e := entry{row: nr, node: nr.toNode()}
		if nr.parent == 0 {
			root = &e
			continue
		}
		byParent[nr.parent] = append(byParent[nr.parent], e)
	}
	if root == nil {
		return nil, fmt.Errorf("document %d has no root row", doc)
	}
	var link func(e *entry)
	link = func(e *entry) {
		kids := byParent[e.row.id]
		sort.Slice(kids, func(a, b int) bool {
			return kids[a].row.order.Int() < kids[b].row.order.Int()
		})
		for i := range kids {
			attach(e.node, kids[i].node)
			link(&kids[i])
		}
	}
	link(root)
	return root.node, nil
}

// Subtree reconstructs the subtree rooted at the node with the given
// surrogate id, against one pinned storage snapshot.
func (p *Publisher) Subtree(doc, id int64) (*xmltree.Node, error) {
	return p.SubtreeAt(nil, doc, id)
}

// SubtreeAt reconstructs a subtree as of a pinned snapshot (nil pins the
// current version).
func (p *Publisher) SubtreeAt(snap *sqldb.Snap, doc, id int64) (*xmltree.Node, error) {
	return p.SubtreeCtx(context.Background(), snap, doc, id)
}

// SubtreeCtx is SubtreeAt with a caller context (see DocumentCtx).
func (p *Publisher) SubtreeCtx(ctx context.Context, snap *sqldb.Snap, doc, id int64) (*xmltree.Node, error) {
	// A subtree takes a handful of statements, most of them too small to
	// reach the executor's poll interval, so the publisher checks the
	// context itself: here and once per Local level.
	if err := govern.CtxErr(ctx); err != nil {
		return nil, err
	}
	if snap == nil {
		snap = p.db.Snapshot()
	}
	res, err := p.byID.QueryAtCtx(ctx, snap, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("document %d has no node %d", doc, id)
	}
	rootRow, err := decodeRow(res.Rows[0])
	if err != nil {
		return nil, err
	}
	switch p.opts.Kind {
	case encoding.Global:
		return p.subtreeGlobal(ctx, snap, doc, rootRow)
	case encoding.Local:
		return p.subtreeLocal(ctx, snap, doc, rootRow)
	case encoding.Dewey:
		return p.subtreeDewey(ctx, snap, doc, rootRow)
	default:
		return nil, fmt.Errorf("unknown encoding %s", p.opts.Kind)
	}
}

// subtreeGlobal streams the order index from the root's key. In pre-order
// every node of the subtree follows its parent, and the first node after
// the subtree has its parent outside it, so the scan stops at the first row
// whose parent is not linked yet. Gaps left by deletes or by gap numbering
// do not matter: the rule looks at parents, not at key values.
func (p *Publisher) subtreeGlobal(ctx context.Context, snap *sqldb.Snap, doc int64, rootRow nodeRow) (_ *xmltree.Node, err error) {
	rows, err := snap.QueryRows(ctx, p.fromKey, sqldb.I(doc), rootRow.order)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
	}()
	var b preOrder
	for rows.Next() {
		nr, err := decodeRow(rows.Row())
		if err != nil {
			return nil, err
		}
		if b.root == nil && nr.id != rootRow.id {
			return nil, fmt.Errorf("order key %v starts at node %d, not at subtree root %d", rootRow.order, nr.id, rootRow.id)
		}
		if !b.add(nr) {
			break
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if b.root == nil {
		return nil, fmt.Errorf("document %d has no order key %v", doc, rootRow.order)
	}
	return b.root, nil
}

// subtreeLocal fetches the subtree one level at a time: the children of a
// level's elements, localChunk parents per statement, arrive ordered by
// parent and then sibling order, so each parent's children are appended in
// document order.
func (p *Publisher) subtreeLocal(ctx context.Context, snap *sqldb.Snap, doc int64, rootRow nodeRow) (*xmltree.Node, error) {
	root := rootRow.toNode()
	var ids []int64 // the level's elements, in the order they were fetched
	if rootRow.kind == xmltree.Element {
		ids = []int64{rootRow.id}
	}
	elems := map[int64]*xmltree.Node{rootRow.id: root}
	params := make([]sqltypes.Value, 1+localChunk)
	params[0] = sqldb.I(doc)
	for len(ids) > 0 {
		if err := govern.CtxErr(ctx); err != nil {
			return nil, err
		}
		var next []int64
		for start := 0; start < len(ids); start += localChunk {
			chunk := ids[start:min(start+localChunk, len(ids))]
			for i := range localChunk {
				params[1+i] = sqldb.I(chunk[min(i, len(chunk)-1)])
			}
			res, err := p.levelRows.QueryAtCtx(ctx, snap, params...)
			if err != nil {
				return nil, err
			}
			for _, r := range res.Rows {
				nr, err := decodeRow(r)
				if err != nil {
					return nil, err
				}
				child := nr.toNode()
				attach(elems[nr.parent], child)
				if nr.kind == xmltree.Element {
					elems[nr.id] = child
					next = append(next, nr.id)
				}
			}
		}
		ids = next
	}
	return root, nil
}

// subtreeDewey extracts the subtree with one path-prefix range scan.
func (p *Publisher) subtreeDewey(ctx context.Context, snap *sqldb.Snap, doc int64, rootRow nodeRow) (*xmltree.Node, error) {
	var low, high sqltypes.Value
	if p.opts.DeweyAsText {
		ps := rootRow.order.Text()
		path, err := dewey.ParsePadded(ps)
		if err != nil {
			return nil, err
		}
		low = sqldb.S(ps)
		high = sqldb.S(path.PaddedPrefixSuccessor())
	} else {
		path, err := dewey.FromBytes(rootRow.order.Blob())
		if err != nil {
			return nil, err
		}
		low = sqldb.B(path.Bytes())
		succ := path.PrefixSuccessor()
		if succ == nil {
			return nil, fmt.Errorf("path has no prefix successor")
		}
		high = sqldb.B(succ)
	}
	res, err := p.pathRange.QueryAtCtx(ctx, snap, sqldb.I(doc), low, high)
	if err != nil {
		return nil, err
	}
	return buildPreOrder(res.Rows, rootRow.parent)
}
