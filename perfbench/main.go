// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads against the encoded bitmap index stack in a closed
// loop with one client, checks every result against a table scan, and
// prints its metrics as the last line of standard output:
//
//	perfbench --workload tpcd-mix|inlist|serve --seed N [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced replay and writes its spans under
// .bench_build/perfbench-traces/. "perfbench spread FILE..." prints the
// median and quartile spread of each metric over saved result lines.
// README.md describes the workloads and which layer moves which metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// maxProcs caps the Go scheduler at the two threads the benchmark is
// sized for.
const maxProcs = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := printSpread(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var seed string
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: tpcd-mix, inlist or serve")
	fs.StringVar(&seed, "seed", "", "workload seed (required)")
	fs.IntVar(&opt.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if seed == "" {
		return opt, errors.New("--seed is required")
	}
	s, err := strconv.ParseInt(seed, 10, 64)
	if err != nil {
		return opt, fmt.Errorf("--seed: %w", err)
	}
	opt.seed = s
	if opt.seconds < 1 {
		return opt, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, errors.New("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

// workloads maps a workload name to the function that builds its data
// and runs it.
var workloads = map[string]func(opt options) (*outcome, error){
	"tpcd-mix": func(opt options) (*outcome, error) {
		ro, err := newTPCDMix(opt.seed, 1_000_000)
		if err != nil {
			return nil, err
		}
		return ro.run(opt)
	},
	"inlist": func(opt options) (*outcome, error) {
		ro, err := newInList(opt.seed)
		if err != nil {
			return nil, err
		}
		return ro.run(opt)
	},
	"serve": runServe,
}

// outcome is a finished run: its counts, metrics and what to print
// beside them.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]float64
	tailLabel string // how query_p99_us is labelled (p99 or max)
	samples   int    // query latency samples behind the end-to-end metrics
	rows      int    // fact rows the workload starts from
	spans     *tracer
}

// measure runs the passes of a run. Untraced, one pass fills the
// whole window. Traced, an untraced pass with allocation sampling fills
// the first half and the traced replay the second.
func measure(opt options, su *setupStats, step func(ps *pass, i int)) *outcome {
	window := time.Duration(opt.seconds) * time.Second
	if !opt.trace {
		ps := &pass{}
		ps.run(window, func(i int) { step(ps, i) })
		m, label := endToEndMetrics(ps, *su)
		return &outcome{attempted: ps.attempted, failed: ps.failed, firstErr: ps.firstErr,
			metrics: m, tailLabel: label, samples: len(ps.latUS)}
	}
	plain := &pass{sampleAllocs: true, mirror: true}
	plain.run(window/2, func(i int) { step(plain, i) })
	traced := &pass{t: newTracer()}
	traced.run(window/2, func(i int) { step(traced, i) })
	firstErr := plain.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	return &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		firstErr:  firstErr,
		metrics:   perLayerMetrics(plain, traced, summarize(traced.t.spans)),
		samples:   len(plain.latUS),
		spans:     traced.t,
	}
}

func run(opt options, stdout io.Writer) error {
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	out, err := workloads[opt.workload](opt)
	if err != nil {
		return err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "perfbench-traces", fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := out.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(out.spans.spans), path)
	}
	metrics, err := selectMetrics(defs, out.metrics)
	if err != nil {
		return err
	}
	stamp := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"git_commit": commit(), "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"rows": out.rows, "latency_samples": out.samples,
	}
	if err := printJSON(stdout, "# stamp ", stamp); err != nil {
		return err
	}
	for _, d := range defs {
		label := d.name
		if d.name == "query_p99_us" && out.tailLabel == "max" {
			label += " (max: fewer than 10 samples beyond p99)"
		}
		fmt.Fprintf(stdout, "# %-32s %14.4f %s\n", label, metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "# failed_frac %.6f (%d of %d operations)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	if out.firstErr != nil {
		fmt.Fprintln(stdout, "# first failure:", out.firstErr)
	}
	return printJSON(stdout, "", map[string]any{
		"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
}

// commit is the source revision, which run.sh passes in; a checkout that
// is not a git repository reads "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func printJSON(w io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, b)
	return err
}
