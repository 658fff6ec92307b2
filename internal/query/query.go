// Package query provides the predicate model and executor that exercise
// index cooperativity (Section 2.1): selection conditions over several
// attributes combine through bulk Boolean operations on the row sets the
// per-attribute indexes return, instead of compound-key B-trees.
//
// Semantics are set-oriented: Eval returns the set of rows satisfying the
// predicate. Not is plain set complement over all row positions (it is the
// caller's job to intersect with an existence/non-NULL set when SQL
// three-valued logic is wanted; the encoded bitmap index's Existing()
// provides exactly that set).
package query

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/table"
)

// Predicate is a selection condition tree.
type Predicate interface {
	isPredicate()
	String() string
}

// Eq selects rows where a column equals a value.
type Eq struct {
	Col string
	Val table.Cell
}

// In selects rows where a column takes one of the listed values — the
// paper's "Attribute IN {...}" range search.
type In struct {
	Col  string
	Vals []table.Cell
}

// Range selects rows where an int64 column lies in [Lo, Hi] inclusive —
// the paper's "j < Attribute < i" form on discrete domains.
type Range struct {
	Col    string
	Lo, Hi int64
}

// And is the conjunction of its children.
type And struct{ Preds []Predicate }

// Or is the disjunction of its children.
type Or struct{ Preds []Predicate }

// Not is the set complement of its child.
type Not struct{ Pred Predicate }

func (Eq) isPredicate()    {}
func (In) isPredicate()    {}
func (Range) isPredicate() {}
func (And) isPredicate()   {}
func (Or) isPredicate()    {}
func (Not) isPredicate()   {}

func cellString(c table.Cell) string {
	if c.Null {
		return "NULL"
	}
	if c.S != "" {
		return fmt.Sprintf("%q", c.S)
	}
	return fmt.Sprintf("%d", c.I)
}

func (p Eq) String() string { return fmt.Sprintf("%s = %s", p.Col, cellString(p.Val)) }

func (p In) String() string {
	s := p.Col + " IN {"
	for i, v := range p.Vals {
		if i > 0 {
			s += ","
		}
		s += cellString(v)
	}
	return s + "}"
}

func (p Range) String() string { return fmt.Sprintf("%d <= %s <= %d", p.Lo, p.Col, p.Hi) }

func joinPreds(ps []Predicate, op string) string {
	s := "("
	for i, p := range ps {
		if i > 0 {
			s += " " + op + " "
		}
		s += p.String()
	}
	return s + ")"
}

func (p And) String() string { return joinPreds(p.Preds, "AND") }
func (p Or) String() string  { return joinPreds(p.Preds, "OR") }
func (p Not) String() string { return "NOT " + p.Pred.String() }

// ColumnIndex is the access path the executor consults for leaf
// predicates on one column. Implementations that do not support an
// operation return ErrUnsupported, and the executor falls back to a scan.
// LeafIndex is its one optional extension.
type ColumnIndex interface {
	Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error)
	In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error)
	Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error)
}

// ErrUnsupported signals that an index cannot answer an operation and the
// executor should scan instead.
var ErrUnsupported = fmt.Errorf("query: operation unsupported by this index")

// Executor evaluates predicates against a table, using registered column
// indexes where available and falling back to column scans.
type Executor struct {
	tab *table.Table
	idx map[string]ColumnIndex
}

// NewExecutor returns an executor over the table.
func NewExecutor(t *table.Table) *Executor {
	return &Executor{tab: t, idx: make(map[string]ColumnIndex)}
}

// Use registers an index as the access path for a column.
func (e *Executor) Use(col string, ix ColumnIndex) { e.idx[col] = ix }

// Eval returns the row set satisfying the predicate plus the accumulated
// access cost.
func (e *Executor) Eval(p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	return e.EvalContext(context.Background(), p)
}

// EvalContext is Eval with trace propagation: when telemetry is enabled
// it records an "ebi.eval" span (predicate shape, access cost, latency)
// under any parent span already attached to ctx, and evaluations over
// the slow-query log's latency threshold are captured there (without a
// plan tree — only the planner produces one).
func (e *Executor) EvalContext(ctx context.Context, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	ctx, sp := obs.StartSpan(ctx, "ebi.eval")
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	r := run{ex: e}
	var rows *bitvec.Vector
	var err error
	withFamily(ctx, "", p, func(ctx context.Context) {
		rows, _, err = r.eval(ctx, p, nil)
	})
	finishQuery(sp, p, r.st, err, 0)
	e.auditObserve(p, rows, r.st, sp, err)
	if err == nil && !t0.IsZero() {
		observeSlowNoPlan(p, r.st, time.Since(t0))
	}
	return rows, r.st, err
}

// resolve answers a leaf from the executor: through the column's
// Use-registered index, or by scanning the column when there is none or
// the index reports ErrUnsupported.
func (e *Executor) resolve(ctx context.Context, col string, p Predicate) (LeafResult, error) {
	if ix, ok := e.idx[col]; ok {
		res, _, err := evalLeaf(ctx, ix, p, 1)
		if err == nil {
			return res, nil
		}
		if err != ErrUnsupported {
			return LeafResult{}, fmt.Errorf("query: column %s: %w", col, err)
		}
	}
	c := e.tab.Column(col)
	if c == nil {
		return LeafResult{}, fmt.Errorf("query: unknown column %s", col)
	}
	match := scanMatch(c, p)
	if match == nil {
		return LeafResult{}, fmt.Errorf("query: predicate kind mismatch on column %s (%s)", col, c.Kind)
	}
	n := e.tab.Len()
	out := bitvec.New(n)
	for row := 0; row < n; row++ {
		if match(row) {
			out.Set(row)
		}
	}
	return LeafResult{Rows: out, Stats: iostat.Stats{RowsScanned: n}}, nil
}

// scanMatch returns the row test a column scan applies for a leaf, or nil
// when the leaf does not fit the column's kind (a range on strings).
func scanMatch(c *table.Column, p Predicate) func(int) bool {
	switch p := p.(type) {
	case Eq:
		// Eq against NULL means IS NULL engine-wide (every index adapter
		// rewrites it that way); the scan must agree.
		if p.Val.Null {
			return c.IsNull
		}
		return cellPredicate(c, func(x table.Cell) bool { return cellEqual(x, p.Val) })
	case In:
		return cellPredicate(c, func(x table.Cell) bool {
			for _, v := range p.Vals {
				if cellEqual(x, v) {
					return true
				}
			}
			return false
		})
	case Range:
		if c.Kind != table.Int64 {
			return nil
		}
		return func(row int) bool {
			if c.IsNull(row) {
				return false
			}
			v := c.Int(row)
			return v >= p.Lo && v <= p.Hi
		}
	}
	return nil
}

func cellPredicate(col *table.Column, match func(table.Cell) bool) func(int) bool {
	return func(row int) bool {
		if col.IsNull(row) {
			return false
		}
		var c table.Cell
		switch col.Kind {
		case table.Int64:
			c = table.IntCell(col.Int(row))
		default:
			c = table.StrCell(col.Str(row))
		}
		return match(c)
	}
}

func cellEqual(a, b table.Cell) bool {
	if a.Null || b.Null {
		return false
	}
	return a.I == b.I && a.S == b.S
}

// Count evaluates the predicate and returns only the qualifying row
// count — the COUNT(*) pushdown, which never materializes row ids beyond
// the bitmap.
func (e *Executor) Count(p Predicate) (int, iostat.Stats, error) {
	rows, st, err := e.Eval(p)
	if err != nil {
		return 0, st, err
	}
	return rows.Count(), st, nil
}

// Sum evaluates the predicate and sums an int64 measure column over the
// qualifying rows.
func (e *Executor) Sum(p Predicate, measureCol string) (int64, iostat.Stats, error) {
	rows, st, err := e.Eval(p)
	if err != nil {
		return 0, st, err
	}
	col := e.tab.Column(measureCol)
	if col == nil {
		return 0, st, fmt.Errorf("query: unknown measure column %s", measureCol)
	}
	if col.Kind != table.Int64 {
		return 0, st, fmt.Errorf("query: measure column %s is %s, not int64", measureCol, col.Kind)
	}
	var sum int64
	rows.ForEach(func(row int) bool {
		if !col.IsNull(row) {
			sum += col.Int(row)
			st.RowsScanned++
		}
		return true
	})
	return sum, st, nil
}
