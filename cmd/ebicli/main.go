// Command ebicli is a small demonstration shell for the encoded bitmap
// index library.
//
// Usage:
//
//	ebicli demo
//	    Walk through the paper's running example (Figure 1 and Figure 2):
//	    mapping table, bitmap vectors, retrieval functions, logical
//	    reduction, and maintenance under domain expansion.
//
//	ebicli csv -file data.csv -col 2 [-eq VALUE] [-in A,B,C]
//	    Build an encoded bitmap index over one column of a headerless CSV
//	    file and evaluate a selection, printing matching row numbers and
//	    the access cost. -save/-load persist the index.
//
//	ebicli table -file data.csv -where "region=north,qty:3..9"
//	    Load a CSV with a header row, index every column, and evaluate a
//	    conjunctive filter across columns (index cooperativity).
//
//	ebicli serve [-addr :8080] [-file data.csv -col N] [-interval 25ms] [-slow 250µs] [-drift 5s] [-scrape 1s] [-incidents DIR] [-audit 0.01]
//	    Build an index behind a paged buffer cache (built-in demo data by
//	    default), enable telemetry, run a background demo query workload,
//	    and serve /metrics (Prometheus or OpenMetrics text with trace
//	    exemplars), /debug/vars (expvar), /debug/pprof/*, /traces
//	    (hierarchical span trees as JSON; ?id= resolves an exemplar's
//	    trace or span ID), /debug/requests (per-predicate-family latency,
//	    CPU and allocation aggregates), /debug/heatmap (per-segment page
//	    access counts), and /debug/slowlog (slow/misestimated queries
//	    with their analyzed plans) until interrupted.
//	    -slow sets the slowlog latency threshold (0 keeps only
//	    misestimate captures); -drift enables the encoding-drift watcher
//	    at the given interval and serves re-encoding plans on
//	    /debug/drift (0, the default, leaves it off); -scrape sets the
//	    flight-recorder time-series interval behind /debug/timeseries
//	    (0 disables the ring); -incidents names a directory for incident
//	    bundles and enables the trigger watchers plus /debug/incidents;
//	    -audit samples that fraction of query executions into the audit
//	    plane (scan shadow checks, analytic-stats conformance, planner
//	    calibration on /debug/audit — audit mismatches also trigger
//	    incident bundles when -incidents is set).
//
//	ebicli incidents -dir DIR [-id BUNDLE] [-json]
//	    Inspect a flight-recorder bundle directory offline: list every
//	    bundle with a parseable manifest (non-zero exit when there is
//	    none; -json emits the listing as a JSON array), or print one
//	    manifest in full with -id.
//
//	ebicli explain [-n 20000] [-seed 1] [-analyze=false] [-json]
//	    Build the synthetic star schema, register simple-bitmap and
//	    encoded-bitmap access paths, and print the EXPLAIN / EXPLAIN
//	    ANALYZE plan tree for a sample star-schema query.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/encoding"
)

const usage = `usage: ebicli <subcommand> [flags]

subcommands:
  demo     walk through the paper's running example (mapping table,
           retrieval functions, reduction, maintenance)
  csv      index one column of a headerless CSV and evaluate -eq / -in
  table    index every column of a CSV with a header and evaluate a
           conjunctive -where filter
  serve    run the telemetry server with a live demo workload
           (/metrics /traces /debug/requests /debug/heatmap ...);
           -slow tunes the slowlog, -drift enables the drift watcher,
           -scrape the /debug/timeseries ring, -incidents the flight
           recorder's bundle directory (/debug/incidents), -audit the
           sampled query-verification plane (/debug/audit)
  incidents  list or print flight-recorder bundle manifests from a
           directory (-dir DIR [-id BUNDLE] [-json])
  explain  print EXPLAIN / EXPLAIN ANALYZE for a star-schema query

run "ebicli <subcommand> -h" for the full flag list.`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = runDemo()
	case "csv":
		err = runCSV(os.Args[2:])
	case "table":
		err = runTable(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "incidents":
		err = runIncidents(os.Args[2:])
	case "explain":
		err = runExplain(os.Args[2:])
	case "help", "-h", "-help", "--help":
		fmt.Println(usage)
	default:
		err = fmt.Errorf("unknown subcommand %q\n%s", os.Args[1], usage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runDemo() error {
	fmt.Println("== Encoded bitmap indexing: the paper's running example ==")
	fmt.Println()
	column := []string{"a", "b", "c", "b", "a", "c"}
	fmt.Printf("table T, attribute A = %v\n\n", column)

	m := encoding.NewMapping[string](2)
	m.MustAdd("a", 0b00)
	m.MustAdd("b", 0b01)
	m.MustAdd("c", 0b10)
	ix, err := core.Build(column, nil, &core.Options[string]{
		Mapping: m, DisableVoidReserve: true, DisableDontCares: true,
	})
	if err != nil {
		return err
	}

	fmt.Println("mapping table (Figure 1):")
	fmt.Print(ix.Mapping().String())
	fmt.Printf("\nbitmap vectors (k = ceil(log2 3) = %d instead of 3 simple vectors):\n", ix.K())
	for i := ix.K() - 1; i >= 0; i-- {
		fmt.Printf("  B%d = %s\n", i, ix.Vector(i).String())
	}

	fmt.Println("\nretrieval functions (Definition 2.1):")
	for _, v := range ix.Values() {
		fmt.Printf("  f_%s = %s\n", v, ix.DescribeSelection([]string{v}))
	}

	fmt.Println("\nQ1: SELECT ... WHERE A = 'a'")
	rows, st := ix.Eq("a")
	fmt.Printf("  rows %v, %d bitmap vectors read\n", rows.Indices(), st.VectorsRead)

	fmt.Println("Q2: SELECT ... WHERE A = 'a' OR A = 'b'")
	fmt.Printf("  f_a + f_b reduces to %s (logical reduction)\n", ix.DescribeSelection([]string{"a", "b"}))
	rows, st = ix.In([]string{"a", "b"})
	fmt.Printf("  rows %v, %d bitmap vector read\n", rows.Indices(), st.VectorsRead)

	fmt.Println("\nmaintenance (Figure 2): append a tuple with the new value 'd'")
	sx := core.NewSynced(ix) // the mutable handle; ix itself never changes
	if err := sx.Append("d"); err != nil {
		return err
	}
	code, _ := sx.Mapping().CodeOf("d")
	fmt.Printf("  ceil(log2 4) = 2 still: M(d) = %02b, no new vector (k = %d)\n", code, sx.K())

	fmt.Println("append a tuple with the new value 'e'")
	if err := sx.Append("e"); err != nil {
		return err
	}
	code, _ = sx.Mapping().CodeOf("e")
	fmt.Printf("  domain grew past 4: M(e) = %03b, new vector B2 added (k = %d)\n", code, sx.K())
	return sx.WithReadLock(func(ix *core.Index[string]) error {
		fmt.Printf("  f_e = %s; old functions gained B2': f_a = %s\n",
			ix.DescribeSelection([]string{"e"}), ix.DescribeSelection([]string{"a"}))
		return nil
	})
}

func runCSV(args []string) error {
	fs := flag.NewFlagSet("csv", flag.ExitOnError)
	file := fs.String("file", "", "CSV file (no header)")
	col := fs.Int("col", 0, "0-based column to index")
	eq := fs.String("eq", "", "evaluate column = VALUE")
	in := fs.String("in", "", "evaluate column IN comma,separated,list")
	save := fs.String("save", "", "write the built index to this file")
	load := fs.String("load", "", "load a previously saved index instead of building")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ix *core.Index[string]
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		ix, err = core.Load[string](f, core.StringCodec{})
		if err != nil {
			return err
		}
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		records, err := csv.NewReader(f).ReadAll()
		if err != nil {
			return err
		}
		var column []string
		var isNull []bool
		for i, rec := range records {
			if *col < 0 || *col >= len(rec) {
				return fmt.Errorf("csv: row %d has no column %d", i, *col)
			}
			v := rec[*col]
			column = append(column, v)
			isNull = append(isNull, v == "")
		}
		ix, err = core.Build(column, isNull, nil)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("csv: -file or -load is required")
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := core.Save(f, ix, core.StringCodec{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("index saved to %s\n", *save)
	}
	fmt.Printf("indexed %d rows, %d distinct values, %d bitmap vectors (%d bytes)\n",
		ix.Len(), ix.Cardinality(), ix.K(), ix.SizeBytes())

	report := func(label string, vals []string) {
		expr := ix.DescribeSelection(vals)
		rows, st := ix.In(vals)
		fmt.Printf("%s:\n  retrieval function: %s\n  %d rows match (%d vectors read): %v\n",
			label, expr, rows.Count(), st.VectorsRead, rows.Indices())
	}
	switch {
	case *eq != "":
		report(fmt.Sprintf("column %d = %q", *col, *eq), []string{*eq})
	case *in != "":
		report(fmt.Sprintf("column %d IN {%s}", *col, *in), strings.Split(*in, ","))
	default:
		fmt.Println("no query given; use -eq or -in")
	}
	return nil
}
