package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/table"
)

// runTable loads a CSV with a header row, indexes every column with an
// encoded bitmap index, and evaluates a simple conjunctive query of the
// form  col=value[,col=value...]  and/or  col:lo..hi  range terms —
// demonstrating index cooperativity over real files.
func runTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	file := fs.String("file", "", "CSV file with a header row")
	where := fs.String("where", "", "conjunctive filter: col=value,col:lo..hi,...")
	limit := fs.Int("limit", 10, "max matching row numbers to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("table: -file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	tab, err := table.LoadCSV(*file, f)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d rows, %d columns\n", tab.Len(), len(tab.Columns()))

	ex := query.NewExecutor(tab)
	totalVectors := 0
	for _, col := range tab.Columns() {
		switch col.Kind {
		case table.Int64:
			ix, err := core.Build(col.Ints(), col.NullMask(), nil)
			if err != nil {
				return fmt.Errorf("indexing %s: %w", col.Name, err)
			}
			ex.Use(col.Name, query.EBIInt{Ix: ix})
			totalVectors += ix.K()
			fmt.Printf("  %-16s int64   %5d distinct -> %d vectors\n", col.Name, ix.Cardinality(), ix.K())
		case table.String:
			ix, err := core.Build(col.Strs(), col.NullMask(), nil)
			if err != nil {
				return fmt.Errorf("indexing %s: %w", col.Name, err)
			}
			ex.Use(col.Name, query.EBI[string]{Ix: ix})
			totalVectors += ix.K()
			fmt.Printf("  %-16s string  %5d distinct -> %d vectors\n", col.Name, ix.Cardinality(), ix.K())
		}
	}
	fmt.Printf("total bitmap vectors: %d\n", totalVectors)
	if *where == "" {
		return nil
	}

	pred, err := parseWhere(tab, *where)
	if err != nil {
		return err
	}
	rows, st, err := ex.Eval(pred)
	if err != nil {
		return err
	}
	fmt.Printf("\nWHERE %s\n%d rows match; %d bitmap vectors read, %d rows scanned\n",
		pred, rows.Count(), st.VectorsRead, st.RowsScanned)
	shown := 0
	rows.ForEach(func(row int) bool {
		fmt.Printf("  row %d\n", row)
		shown++
		return shown < *limit
	})
	return nil
}

// parseWhere turns "a=5,region=north,qty:3..9" into an AND tree.
func parseWhere(tab *table.Table, s string) (query.Predicate, error) {
	var preds []query.Predicate
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if col, rng, ok := strings.Cut(term, ":"); ok && strings.Contains(rng, "..") {
			loS, hiS, _ := strings.Cut(rng, "..")
			lo, err1 := strconv.ParseInt(strings.TrimSpace(loS), 10, 64)
			hi, err2 := strconv.ParseInt(strings.TrimSpace(hiS), 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("table: bad range term %q", term)
			}
			preds = append(preds, query.Range{Col: strings.TrimSpace(col), Lo: lo, Hi: hi})
			continue
		}
		col, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("table: bad filter term %q (want col=value or col:lo..hi)", term)
		}
		col = strings.TrimSpace(col)
		val = strings.TrimSpace(val)
		c := tab.Column(col)
		if c == nil {
			return nil, fmt.Errorf("table: unknown column %q", col)
		}
		var cell table.Cell
		if c.Kind == table.Int64 {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("table: column %s is int64, got %q", col, val)
			}
			cell = table.IntCell(v)
		} else {
			cell = table.StrCell(val)
		}
		preds = append(preds, query.Eq{Col: col, Val: cell})
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("table: empty -where")
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return query.And{Preds: preds}, nil
}
