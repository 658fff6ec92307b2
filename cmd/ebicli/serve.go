package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/query"
	"repro/internal/table"
)

// runServe builds an encoded bitmap index behind a paged buffer cache,
// enables telemetry, and serves /metrics, /debug/vars, /debug/pprof/*,
// /traces, /debug/requests and /debug/heatmap until interrupted. A
// background loop keeps issuing a mixed selection workload so the
// endpoints show live numbers; -interval 0 disables it. With -drift the
// live workload is profiled and a drift watcher publishes re-encoding
// plans on /debug/drift. Adding -apply turns the watcher's plans into
// live re-encodings: the index is served through the epoch-flip Synced
// wrapper (skipping the paged buffer cache, which wraps a plain index),
// the demo workload is biased toward hot value groups the build-time
// encoding is bad at, and /debug/drift reports each apply. With -audit
// a background auditor samples that fraction of executions and
// shadow-verifies them against a table scan, checks measured stats
// against the analytic model, and tracks planner calibration
// (/debug/audit; mismatches trip the flight recorder when -incidents
// is set).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address for the telemetry endpoints")
	file := fs.String("file", "", "optional headerless CSV to index (default: built-in demo data)")
	col := fs.Int("col", 0, "0-based CSV column to index")
	interval := fs.Duration("interval", 25*time.Millisecond, "delay between background demo queries (0 disables the loop)")
	slow := fs.Duration("slow", 250*time.Microsecond, "latency threshold for the /debug/slowlog capture (0 keeps only misestimate captures)")
	driftIv := fs.Duration("drift", 0, "drift-watcher interval; >0 profiles the live workload and serves re-encoding plans on /debug/drift (e.g. 5s)")
	apply := fs.Bool("apply", false, "with -drift: apply proposed re-encodings live through the zero-downtime epoch flip (serves the Synced index, skipping the paged buffer cache)")
	scrape := fs.Duration("scrape", time.Second, "flight-recorder scrape interval behind /debug/timeseries (0 disables the ring)")
	incidents := fs.String("incidents", "", "incident-bundle directory; enables the flight-recorder triggers and /debug/incidents (requires -scrape > 0)")
	auditRate := fs.Float64("audit", 0, "audit-plane sampling rate in [0,1]; sampled queries are shadow-verified against a table scan and checked against the analytic cost model (/debug/audit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *auditRate < 0 || *auditRate > 1 {
		return fmt.Errorf("serve: -audit must be in [0,1], got %g", *auditRate)
	}
	if *incidents != "" && *scrape <= 0 {
		return fmt.Errorf("serve: -incidents needs the time-series ring; set -scrape > 0")
	}
	if *apply && *driftIv <= 0 {
		return fmt.Errorf("serve: -apply needs the drift watcher; set -drift > 0")
	}
	obs.DefaultSlowLog().SetLatencyThreshold(*slow)

	column, err := serveColumn(*file, *col)
	if err != nil {
		return err
	}
	tab := table.MustNew("data", table.NewColumn("v", table.String))
	for _, v := range column {
		if err := tab.AppendRow(table.StrCell(v)); err != nil {
			return err
		}
	}
	ex := query.NewExecutor(tab)
	// The index is built behind its mutable handle either way: the drift
	// watcher plans against it, and -apply re-encodes it live.
	sx, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		return err
	}
	var rec *drift.Recorder[string]
	if *driftIv > 0 {
		rec = drift.NewRecorder[string]("v", 0, 0)
		sx.SetSelectionObserver(rec)
	}
	if *apply {
		// Live re-encoding flips the whole vector set atomically, which
		// the paged wrapper (pinned to one snapshot's pages) cannot
		// follow yet — apply mode serves the Synced index directly.
		ex.Use("v", query.EBI[string]{Ix: sx})
	} else {
		// Serve the current snapshot through a paged wrapper: vector
		// reads are charged against a small simulated buffer cache, so
		// /debug/heatmap shows page-access skew and traces gain
		// ebi.page.fetch spans under each query leaf.
		var ix *core.Index[string]
		_ = sx.WithReadLock(func(snap *core.Index[string]) error { ix = snap; return nil })
		paged := pagestore.NewPagedIndex(ix, 32, 64)
		paged.RegisterHeatmap("v")
		defer paged.UnregisterHeatmap("v")
		ex.Use("v", query.PagedEBI[string]{Ix: paged})
	}

	ln, err := obs.Serve(*addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("indexed %d rows, %d distinct values, %d bitmap vectors\n", sx.Len(), sx.Cardinality(), sx.K())
	fmt.Printf("telemetry on http://%s/ — the / index lists every endpoint\n", ln.Addr())

	var scraper *obs.Scraper
	if *scrape > 0 {
		scraper = obs.NewScraper(obs.TimeSeriesConfig{Interval: *scrape})
		scraper.Start()
		defer scraper.Stop()
		fmt.Printf("time-series ring scraping every %s — /debug/timeseries\n", *scrape)
		if *incidents != "" {
			fr, err := flight.New(flight.Config{Dir: *incidents, Scraper: scraper})
			if err != nil {
				return err
			}
			fr.Start()
			defer fr.Stop()
			fmt.Printf("flight recorder armed, bundles in %s — /debug/incidents\n", *incidents)
		}
	}
	if *auditRate > 0 {
		// The demo table is append-free after startup, so the scan
		// reference can run concurrently with the serving workload.
		auditor := audit.New(audit.Config{
			Rate:       *auditRate,
			References: []audit.Reference{audit.ScanReference(tab)},
			Scraper:    scraper,
		})
		auditor.Start()
		defer auditor.Stop()
		fmt.Printf("audit plane sampling %.4g of executions — /debug/audit\n", *auditRate)
	}
	if *driftIv > 0 {
		cfg := drift.Config{Interval: *driftIv}
		if *apply {
			cfg.Apply = true
			cfg.ScoreThreshold = 0.1
			cfg.ApplyCooldown = 10 * *driftIv
		}
		w := drift.NewWatcher[string](sx, rec, cfg)
		w.Start()
		defer w.Stop()
		if *apply {
			fmt.Printf("drift watcher applying re-encodings live every %s — /debug/drift\n", *driftIv)
		} else {
			fmt.Printf("drift watcher planning a re-encoding every %s — /debug/drift\n", *driftIv)
		}
	}
	if *interval > 0 {
		if *apply {
			go hotGroupLoop(ex, sx.Values(), *interval)
		} else {
			go queryLoop(ex, sx.Values(), *interval)
		}
		fmt.Printf("demo query loop running every %s\n", *interval)
	}
	select {}
}

// serveColumn loads the CSV column, or synthesizes a skewed demo column
// when no file is given.
func serveColumn(file string, col int) ([]string, error) {
	if file == "" {
		regions := []string{
			"north", "south", "east", "west", "centre",
			"overseas", "online", "wholesale", "retail", "returns",
		}
		r := rand.New(rand.NewSource(1))
		column := make([]string, 5000)
		for i := range column {
			// Zipf-ish skew: low indexes dominate, like real dimensions.
			column[i] = regions[min(r.Intn(len(regions)), r.Intn(len(regions)))]
		}
		return column, nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	var column []string
	for i, rec := range records {
		if col < 0 || col >= len(rec) {
			return nil, fmt.Errorf("serve: row %d has no column %d", i, col)
		}
		column = append(column, rec[col])
	}
	if len(column) == 0 {
		return nil, fmt.Errorf("serve: %s is empty", file)
	}
	return column, nil
}

// hotGroupLoop issues a workload dominated by two fixed scattered value
// groups. The build-time (value-order) encoding retrieves each group at
// nearly full k, so the drift watcher in apply mode reliably crosses its
// score threshold and re-encodes for the groups.
func hotGroupLoop(ex *query.Executor, domain []string, interval time.Duration) {
	r := rand.New(rand.NewSource(3))
	group := func(idx ...int) []table.Cell {
		cells := make([]table.Cell, 0, len(idx))
		for _, i := range idx {
			cells = append(cells, table.StrCell(domain[i%len(domain)]))
		}
		return cells
	}
	hot1 := group(0, 3, 5, 9)
	hot2 := group(1, 4, 6, 8)
	for i := 0; ; i++ {
		var p query.Predicate
		switch i % 4 {
		case 0, 1:
			p = query.In{Col: "v", Vals: hot1}
		case 2:
			p = query.In{Col: "v", Vals: hot2}
		default:
			p = query.Eq{Col: "v", Val: table.StrCell(domain[r.Intn(len(domain))])}
		}
		if _, _, err := ex.Eval(p); err != nil {
			fmt.Fprintf(os.Stderr, "serve: hot-group loop: %v\n", err)
			return
		}
		time.Sleep(interval)
	}
}

// queryLoop issues a mixed Eq / IN / NOT workload forever.
func queryLoop(ex *query.Executor, domain []string, interval time.Duration) {
	r := rand.New(rand.NewSource(2))
	cell := func() table.Cell { return table.StrCell(domain[r.Intn(len(domain))]) }
	for i := 0; ; i++ {
		var p query.Predicate
		switch i % 4 {
		case 0:
			p = query.Eq{Col: "v", Val: cell()}
		case 1:
			p = query.In{Col: "v", Vals: []table.Cell{cell(), cell(), cell()}}
		case 2:
			p = query.Not{Pred: query.Eq{Col: "v", Val: cell()}}
		case 3:
			p = query.Or{Preds: []query.Predicate{
				query.Eq{Col: "v", Val: cell()},
				query.Eq{Col: "v", Val: cell()},
			}}
		}
		if _, _, err := ex.Eval(p); err != nil {
			fmt.Fprintf(os.Stderr, "serve: query loop: %v\n", err)
			return
		}
		time.Sleep(interval)
	}
}
