// Package audit is the serving path's trust plane: a background auditor
// that samples a configurable fraction of live query executions and
// re-verifies each sampled query three ways.
//
//  1. Shadow result check — the sampled row set is re-evaluated against
//     one or more independent references (a plain column scan over the
//     table, or a second index family) and compared bit for bit.
//  2. Stats conformance — the measured iostat.Stats must equal the
//     Theorem 2.2/2.3 analytic prediction for the executed plan,
//     computed at sample time against the same encoding basis
//     (query.LeafIndex.PredictLeaf); live re-encoding flips and appends are
//     told apart from genuine divergence by the basis stamp.
//  3. Planner calibration — per-leaf est-vs-actual ratios feed rolling
//     per-family EWMA gauges (ebi_audit_calibration_ratio_milli_<path>)
//     with edge-triggered drift detection over the time-series ring.
//
// The hook (query.SetAuditSink) costs one atomic load while disabled and
// hands sampled records to a bounded non-blocking queue — overflow is
// counted in ebi_audit_dropped_total, never backpressure. Verdicts,
// counters, and last-failure details are served at /debug/audit and
// captured into flight-recorder incident bundles; a mismatch increments
// ebi_audit_mismatches_total, which the flight recorder watches as a
// capture trigger.
package audit

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// calibPrefix names the per-path calibration gauges; the drift detector
// rediscovers them by prefix in every time-series sample.
const calibPrefix = "ebi_audit_calibration_ratio_milli_"

var (
	mSampled = obs.Default().Counter("ebi_audit_sampled_total",
		"Query executions chosen by the audit sampler.")
	mVerified = obs.Default().Counter("ebi_audit_verified_total",
		"Sampled executions that passed every applicable audit check.")
	mMismatches = obs.Default().Counter("ebi_audit_mismatches_total",
		"Sampled executions whose row set disagreed with an independent reference.")
	mStatsDivergence = obs.Default().Counter("ebi_audit_stats_divergence_total",
		"Sampled executions whose measured stats broke the analytic model on a pinned encoding basis.")
	mDropped = obs.Default().Counter("ebi_audit_dropped_total",
		"Sampled executions dropped because the audit queue was full.")
	mSkipped = obs.Default().Counter("ebi_audit_skipped_total",
		"Audit checks skipped: no analytic model, encoding basis moved, or a reference errored.")
	mCalibDrift = obs.Default().Counter("ebi_audit_calibration_drift_total",
		"Per-path calibration ratios detected outside the drift band (edge-triggered).")
	hVerify = obs.Default().Histogram("ebi_audit_verify_seconds",
		"Wall-clock latency of one sampled query's audit verification.", nil)
	hFailure = obs.Default().Histogram("ebi_audit_failure_seconds",
		"Verification latency of audits that found a mismatch or stats divergence; bucket exemplars link to the failure's span tree.", nil)
)

// Reference re-evaluates a predicate independently of the audited
// engine. Implementations must be safe for use from the auditor's
// goroutine while the engine serves queries.
type Reference interface {
	Name() string
	Eval(p query.Predicate) (*bitvec.Vector, iostat.Stats, error)
}

type executorRef struct {
	name string
	ex   *query.Executor
}

func (r executorRef) Name() string { return r.name }
func (r executorRef) Eval(p query.Predicate) (*bitvec.Vector, iostat.Stats, error) {
	return r.ex.EvalForAudit(p)
}

// ScanReference shadows queries with plain column scans over the table —
// always available and independent of every index family. Evaluation
// runs outside telemetry and sampling (query.Executor.EvalForAudit).
// The table must not be appended to while audits are in flight (Flush
// first): tables, unlike Synced indexes, are not concurrent structures.
func ScanReference(tab *table.Table) Reference {
	return executorRef{name: "scan", ex: query.NewExecutor(tab)}
}

// IndexReference shadows queries with a second index family: an executor
// the caller registered alternate indexes on. Cheaper than a scan when a
// spare family exists.
func IndexReference(name string, ex *query.Executor) Reference {
	return executorRef{name: name, ex: ex}
}

// Config tunes an Auditor. The zero value audits nothing (Rate 0).
type Config struct {
	// Rate is the sampled fraction of successful query executions:
	// 1 samples everything, 0.01 one in a hundred, <= 0 nothing. The
	// sampler is a deterministic 1-in-round(1/Rate) stride.
	Rate float64
	// Queue bounds the verification backlog; enqueueing never blocks
	// the query path (overflow counts into ebi_audit_dropped_total).
	// Default 256.
	Queue int
	// References are the independent engines sampled row sets are
	// compared against, in order. Empty disables shadow checks.
	References []Reference
	// Verdicts is the rolling verdict ring size served at /debug/audit.
	// Default 64.
	Verdicts int
	// CalibrationAlpha is the EWMA smoothing factor for per-path
	// est-vs-actual ratios. Default 0.2.
	CalibrationAlpha float64
	// CalibrationBand flags a path as drifting when its smoothed ratio
	// leaves [1/band, band]. Default 2, the planner's own misestimate
	// threshold.
	CalibrationBand float64
	// CalibrationMin is the number of leaf observations a path needs
	// before drift detection arms. Default 20.
	CalibrationMin int
	// Scraper, when set, drives calibration drift detection over the
	// time-series ring: every scrape sample is checked against the band,
	// edge-triggered per path.
	Scraper *obs.Scraper
	// Name keys this auditor's snapshot at /debug/audit and in incident
	// bundles. Default "default".
	Name string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Queue <= 0 {
		out.Queue = 256
	}
	if out.Verdicts <= 0 {
		out.Verdicts = 64
	}
	if out.CalibrationAlpha <= 0 || out.CalibrationAlpha > 1 {
		out.CalibrationAlpha = 0.2
	}
	if out.CalibrationBand <= 1 {
		out.CalibrationBand = 2
	}
	if out.CalibrationMin <= 0 {
		out.CalibrationMin = 20
	}
	if out.Name == "" {
		out.Name = "default"
	}
	return out
}

// Verdict is one rolling audit outcome on /debug/audit.
type Verdict struct {
	UnixMilli int64  `json:"unix_ms"`
	Query     string `json:"query"`
	Source    string `json:"source"`
	Family    string `json:"family"`
	Verdict   string `json:"verdict"`
	Detail    string `json:"detail,omitempty"`
	TraceID   uint64 `json:"trace_id,omitempty"`
}

// MismatchDetail is the last shadow-check failure, with enough context
// to reproduce: the offending plan and samples of the expected and
// actual row sets around the first divergence.
type MismatchDetail struct {
	UnixMilli     int64        `json:"unix_ms"`
	Query         string       `json:"query"`
	Source        string       `json:"source"`
	Reference     string       `json:"reference"`
	Plan          []string     `json:"plan,omitempty"`
	TraceID       uint64       `json:"trace_id,omitempty"`
	Rows          int          `json:"rows"`
	FirstDiff     int          `json:"first_diff"`
	ExpectedCount int          `json:"expected_count"`
	ActualCount   int          `json:"actual_count"`
	ExpectedRows  []int        `json:"expected_rows_sample"`
	ActualRows    []int        `json:"actual_rows_sample"`
	Stats         iostat.Stats `json:"stats"`
}

// DivergenceDetail is the last stats-conformance failure.
type DivergenceDetail struct {
	UnixMilli    int64        `json:"unix_ms"`
	Query        string       `json:"query"`
	Source       string       `json:"source"`
	Plan         []string     `json:"plan,omitempty"`
	TraceID      uint64       `json:"trace_id,omitempty"`
	Measured     iostat.Stats `json:"measured"`
	Predicted    iostat.Stats `json:"predicted"`
	RerunStats   iostat.Stats `json:"rerun_stats"`
	Reproducible bool         `json:"reproducible"`
}

// CalibDriftDetail is the last calibration-drift detection, with the
// offending series' recent history from the time-series ring.
type CalibDriftDetail struct {
	UnixMilli  int64     `json:"unix_ms"`
	Path       string    `json:"path"`
	RatioMilli int64     `json:"ratio_milli"`
	BandMilli  int64     `json:"band_milli"`
	History    []float64 `json:"history,omitempty"`
}

// CalibEntry is one path's rolling calibration state.
type CalibEntry struct {
	RatioMilli int64 `json:"ratio_milli"`
	Samples    int   `json:"samples"`
	Drifting   bool  `json:"drifting"`
}

type pathCalib struct {
	ewma     float64
	samples  int
	drifting bool
	gauge    *obs.Gauge
}

// Auditor implements query.AuditSink: it samples live executions into a
// bounded queue and verifies them on a background goroutine.
type Auditor struct {
	cfg    Config
	stride uint64
	count  atomic.Uint64

	ch       chan *query.AuditRecord
	stop     chan struct{}
	done     chan struct{}
	inflight atomic.Int64
	running  atomic.Bool

	fault atomic.Pointer[func(*query.AuditRecord)]

	mu             sync.Mutex
	verdicts       []Verdict
	vNext          int
	vCount         int
	calib          map[string]*pathCalib
	lastMismatch   *MismatchDetail
	lastDivergence *DivergenceDetail
	lastCalibDrift *CalibDriftDetail
	subscribed     bool
}

// New builds an Auditor; Start installs it.
func New(cfg Config) *Auditor {
	cfg = cfg.withDefaults()
	stride := uint64(0)
	if cfg.Rate > 0 {
		stride = uint64(math.Round(1 / cfg.Rate))
		if stride < 1 {
			stride = 1
		}
	}
	return &Auditor{
		cfg:      cfg,
		stride:   stride,
		ch:       make(chan *query.AuditRecord, cfg.Queue),
		verdicts: make([]Verdict, cfg.Verdicts),
		calib:    make(map[string]*pathCalib),
	}
}

// Start installs the auditor as the process-wide audit sink, spawns the
// verification worker, registers the /debug/audit route and the
// incident-bundle snapshot source, and (when a scraper is configured)
// arms calibration drift detection. Stop reverses all of it.
func (a *Auditor) Start() {
	if !a.running.CompareAndSwap(false, true) {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	obs.RegisterAuditSource(a.cfg.Name, func() any { return a.Snapshot() })
	obs.RegisterRoute("/debug/audit", "Audit plane: config, rolling verdicts, last mismatch/divergence detail.",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			obs.WriteJSON(w, obs.AuditSnapshot())
		}))
	if a.cfg.Scraper != nil {
		a.mu.Lock()
		if !a.subscribed {
			// OnSample subscriptions cannot be removed; guard with the
			// running flag so a stopped auditor goes quiet.
			a.subscribed = true
			a.cfg.Scraper.OnSample(func(smp obs.Sample) {
				if a.running.Load() {
					a.checkCalibrationDrift(smp)
				}
			})
		}
		a.mu.Unlock()
	}
	go a.loop()
	query.SetAuditSink(a)
}

// Stop uninstalls the sink, drains and verifies the queued backlog, and
// unregisters the route and snapshot source.
func (a *Auditor) Stop() {
	if !a.running.CompareAndSwap(true, false) {
		return
	}
	query.SetAuditSink(nil)
	close(a.stop)
	<-a.done
	obs.UnregisterRoute("/debug/audit")
	obs.UnregisterAuditSource(a.cfg.Name)
}

// Flush blocks until every record enqueued so far has been verified —
// deterministic settling for tests and experiments.
func (a *Auditor) Flush() {
	for a.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// SetFaultHook installs a test-only corruption hook run on each dequeued
// record before verification; the fault-injection suite uses it to prove
// the plane detects what it claims to. nil uninstalls.
func (a *Auditor) SetFaultHook(fn func(*query.AuditRecord)) {
	if fn == nil {
		a.fault.Store(nil)
		return
	}
	a.fault.Store(&fn)
}

// SampleQuery implements query.AuditSink: a counter-stride decision,
// allocation-free on the query path.
func (a *Auditor) SampleQuery() bool {
	if a.stride == 0 || !a.running.Load() {
		return false
	}
	return a.count.Add(1)%a.stride == 0
}

// ObserveQuery implements query.AuditSink: bounded, non-blocking
// enqueue. A full queue drops the record and counts the drop.
func (a *Auditor) ObserveQuery(rec *query.AuditRecord) {
	mSampled.Inc()
	a.inflight.Add(1)
	select {
	case a.ch <- rec:
	default:
		a.inflight.Add(-1)
		mDropped.Inc()
	}
}

func (a *Auditor) loop() {
	defer close(a.done)
	for {
		select {
		case rec := <-a.ch:
			a.verify(rec)
		case <-a.stop:
			for {
				select {
				case rec := <-a.ch:
					a.verify(rec)
				default:
					return
				}
			}
		}
	}
}

// firstDiff returns the first row in [0, n) where the two row sets
// disagree, or -1 when they agree everywhere; n is clamped to both
// lengths (rows appended after the sampled execution are not compared).
func firstDiff(a, b *bitvec.Vector, n int) int {
	if n > a.Len() {
		n = a.Len()
	}
	if n > b.Len() {
		n = b.Len()
	}
	if a.Len() == b.Len() && a.Len() == n && a.Equal(b) {
		return -1
	}
	for i := 0; i < n; i++ {
		if a.Get(i) != b.Get(i) {
			return i
		}
	}
	return -1
}

// rowSample lists up to max set rows starting at the first divergence's
// neighborhood, for the mismatch detail.
func rowSample(v *bitvec.Vector, from, max int) []int {
	out := []int{}
	start := from - 64
	if start < 0 {
		start = 0
	}
	for i := v.NextSet(start); i >= 0 && len(out) < max; i = v.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// verify runs the three audit checks on one sampled record.
func (a *Auditor) verify(rec *query.AuditRecord) {
	defer a.inflight.Add(-1)
	t0 := time.Now()
	if f := a.fault.Load(); f != nil {
		(*f)(rec)
	}

	verdict, detail := "ok", ""
	failed := false

	// (1) Shadow result check against every configured reference.
	for _, ref := range a.cfg.References {
		refRows, _, err := ref.Eval(rec.Pred)
		if err != nil {
			mSkipped.Inc()
			if verdict == "ok" {
				verdict, detail = "reference-error", fmt.Sprintf("%s: %v", ref.Name(), err)
			}
			continue
		}
		if i := firstDiff(rec.Rows, refRows, rec.N); i >= 0 {
			failed = true
			verdict = "mismatch"
			detail = fmt.Sprintf("reference %s diverges first at row %d", ref.Name(), i)
			a.recordMismatch(rec, ref.Name(), refRows, i)
			break
		}
	}

	// (2) Stats conformance against the sample-time prediction.
	if !failed {
		switch {
		case !rec.PredictOK:
			mSkipped.Inc()
			if verdict == "ok" {
				verdict, detail = "stats-unmodeled", "no analytic model for this plan"
			}
		case rec.Stats != rec.Predicted:
			fresh, gen, ok := rec.Repredict()
			if !ok || gen != rec.PredictedGen || fresh != rec.Predicted {
				// The encoding basis moved between execution and
				// verification (append or live re-encoding flip):
				// nothing can be asserted about the recorded run.
				mSkipped.Inc()
				verdict, detail = "skipped-basis-moved", "encoding basis changed since sampling"
			} else {
				failed = true
				verdict = "stats-divergence"
				detail = fmt.Sprintf("measured %+v != predicted %+v", rec.Stats, rec.Predicted)
				a.recordDivergence(rec, fresh)
			}
		}
	}

	// (3) Planner calibration from the recorded routing decisions.
	for _, ch := range rec.Choices {
		a.observeChoice(ch)
	}

	elapsed := time.Since(t0).Seconds()
	hVerify.Observe(elapsed)
	if failed {
		a.failureSpan(rec, verdict, detail, elapsed)
	} else if verdict == "ok" {
		mVerified.Inc()
	}
	a.pushVerdict(Verdict{
		UnixMilli: time.Now().UnixMilli(),
		Query:     rec.Query, Source: rec.Source, Family: rec.Family,
		Verdict: verdict, Detail: detail, TraceID: rec.TraceID,
	})
}

// failureSpan emits a span tree for a failed audit and links it from the
// failure histogram's bucket exemplar, so /traces and /metrics lead back
// to the offending execution.
func (a *Auditor) failureSpan(rec *query.AuditRecord, verdict, detail string, elapsed float64) {
	_, sp := obs.StartSpan(context.Background(), "ebi.audit.failure")
	if sp != nil {
		sp.SetAttr("verdict", verdict)
		sp.SetAttr("query", rec.Query)
		sp.SetAttr("source", rec.Source)
		sp.SetAttr("detail", detail)
		if rec.TraceID != 0 {
			sp.SetAttr("query_trace_id", fmt.Sprintf("%x", rec.TraceID))
		}
		if len(rec.Choices) > 0 {
			plan := make([]string, len(rec.Choices))
			for i, c := range rec.Choices {
				plan[i] = c.String()
			}
			sp.SetAttr("plan", plan)
		}
		sp.SetStats(rec.Stats)
		sp.End()
	}
	hFailure.ObserveSpan(elapsed, sp)
}

func (a *Auditor) recordMismatch(rec *query.AuditRecord, refName string, refRows *bitvec.Vector, diffAt int) {
	mMismatches.Inc()
	plan := make([]string, len(rec.Choices))
	for i, c := range rec.Choices {
		plan[i] = c.String()
	}
	d := &MismatchDetail{
		UnixMilli: time.Now().UnixMilli(),
		Query:     rec.Query, Source: rec.Source, Reference: refName,
		Plan: plan, TraceID: rec.TraceID, Rows: rec.N, FirstDiff: diffAt,
		ExpectedCount: refRows.Count(), ActualCount: rec.Rows.Count(),
		ExpectedRows: rowSample(refRows, diffAt, 16),
		ActualRows:   rowSample(rec.Rows, diffAt, 16),
		Stats:        rec.Stats,
	}
	a.mu.Lock()
	a.lastMismatch = d
	a.mu.Unlock()
}

func (a *Auditor) recordDivergence(rec *query.AuditRecord, fresh iostat.Stats) {
	mStatsDivergence.Inc()
	rerun := iostat.Stats{}
	reproducible := false
	if rec.Rerun != nil {
		if _, rst, err := rec.Rerun(); err == nil {
			rerun = rst
			reproducible = rst != fresh
		}
	}
	plan := make([]string, len(rec.Choices))
	for i, c := range rec.Choices {
		plan[i] = c.String()
	}
	d := &DivergenceDetail{
		UnixMilli: time.Now().UnixMilli(),
		Query:     rec.Query, Source: rec.Source, Plan: plan, TraceID: rec.TraceID,
		Measured: rec.Stats, Predicted: rec.Predicted,
		RerunStats: rerun, Reproducible: reproducible,
	}
	a.mu.Lock()
	a.lastDivergence = d
	a.mu.Unlock()
}

func (a *Auditor) pushVerdict(v Verdict) {
	a.mu.Lock()
	a.verdicts[a.vNext] = v
	a.vNext = (a.vNext + 1) % len(a.verdicts)
	if a.vCount < len(a.verdicts) {
		a.vCount++
	}
	a.mu.Unlock()
}

// observeChoice folds one routing decision into its path's calibration
// EWMA. Fallback routings (infinite estimate) carry no estimate to
// calibrate; costs under one vector read clamp to one, mirroring
// Choice.Misestimated.
func (a *Auditor) observeChoice(ch query.Choice) {
	if ch.Path == "" || ch.Path == "fallback" || math.IsInf(ch.Cost, 1) {
		return
	}
	ratio := math.Max(ch.Actual, 1) / math.Max(ch.Cost, 1)
	a.mu.Lock()
	c := a.calib[ch.Path]
	if c == nil {
		c = &pathCalib{ewma: ratio, gauge: obs.Default().Gauge(calibPrefix+ch.Path,
			"Rolling actual/estimated leaf cost ratio for this access path, in milli (1000 = perfectly calibrated).")}
		a.calib[ch.Path] = c
	} else {
		c.ewma = a.cfg.CalibrationAlpha*ratio + (1-a.cfg.CalibrationAlpha)*c.ewma
	}
	c.samples++
	c.gauge.Set(int64(math.Round(c.ewma * 1000)))
	a.mu.Unlock()
}

// checkCalibrationDrift runs on every time-series sample: any armed
// path whose smoothed ratio sits outside [1/band, band] trips the drift
// counter once per excursion (edge-triggered), with the offending
// series' ring history attached to the detail.
func (a *Auditor) checkCalibrationDrift(smp obs.Sample) {
	lo := 1000 / a.cfg.CalibrationBand
	hi := 1000 * a.cfg.CalibrationBand
	for name, val := range smp.Values {
		if !strings.HasPrefix(name, calibPrefix) {
			continue
		}
		path := strings.TrimPrefix(name, calibPrefix)
		a.mu.Lock()
		c := a.calib[path]
		if c == nil || c.samples < a.cfg.CalibrationMin {
			a.mu.Unlock()
			continue
		}
		out := val < lo || val > hi
		rising := out && !c.drifting
		c.drifting = out
		a.mu.Unlock()
		if !rising {
			continue
		}
		mCalibDrift.Inc()
		d := &CalibDriftDetail{
			UnixMilli:  smp.UnixMilli,
			Path:       path,
			RatioMilli: int64(math.Round(val)),
			BandMilli:  int64(math.Round(hi)),
		}
		if a.cfg.Scraper != nil {
			d.History = a.cfg.Scraper.WindowSeries(0, 0, name).Series[name]
		}
		a.mu.Lock()
		a.lastCalibDrift = d
		a.mu.Unlock()
	}
}

// Snapshot is the /debug/audit payload (per registered auditor name).
type Snapshot struct {
	Config struct {
		Rate       float64  `json:"rate"`
		Stride     uint64   `json:"stride"`
		Queue      int      `json:"queue"`
		References []string `json:"references"`
		Running    bool     `json:"running"`
	} `json:"config"`
	Sampled          uint64                `json:"sampled"`
	Verified         uint64                `json:"verified"`
	Mismatches       uint64                `json:"mismatches"`
	StatsDivergence  uint64                `json:"stats_divergence"`
	Dropped          uint64                `json:"dropped"`
	Skipped          uint64                `json:"skipped"`
	CalibrationDrift uint64                `json:"calibration_drift"`
	QueueDepth       int                   `json:"queue_depth"`
	Calibration      map[string]CalibEntry `json:"calibration"`
	Verdicts         []Verdict             `json:"verdicts"`
	LastMismatch     *MismatchDetail       `json:"last_mismatch,omitempty"`
	LastDivergence   *DivergenceDetail     `json:"last_stats_divergence,omitempty"`
	LastCalibDrift   *CalibDriftDetail     `json:"last_calibration_drift,omitempty"`
}

// Snapshot returns the auditor's current state. Counters are process
// globals (they survive auditor restarts); everything else is this
// instance's.
func (a *Auditor) Snapshot() Snapshot {
	var s Snapshot
	s.Config.Rate = a.cfg.Rate
	s.Config.Stride = a.stride
	s.Config.Queue = a.cfg.Queue
	s.Config.Running = a.running.Load()
	for _, ref := range a.cfg.References {
		s.Config.References = append(s.Config.References, ref.Name())
	}
	s.Sampled = mSampled.Value()
	s.Verified = mVerified.Value()
	s.Mismatches = mMismatches.Value()
	s.StatsDivergence = mStatsDivergence.Value()
	s.Dropped = mDropped.Value()
	s.Skipped = mSkipped.Value()
	s.CalibrationDrift = mCalibDrift.Value()
	s.QueueDepth = len(a.ch)

	a.mu.Lock()
	defer a.mu.Unlock()
	s.Calibration = make(map[string]CalibEntry, len(a.calib))
	for path, c := range a.calib {
		s.Calibration[path] = CalibEntry{
			RatioMilli: int64(math.Round(c.ewma * 1000)),
			Samples:    c.samples,
			Drifting:   c.drifting,
		}
	}
	s.Verdicts = make([]Verdict, 0, a.vCount)
	for i := 0; i < a.vCount; i++ {
		s.Verdicts = append(s.Verdicts, a.verdicts[(a.vNext-a.vCount+i+len(a.verdicts))%len(a.verdicts)])
	}
	s.LastMismatch = a.lastMismatch
	s.LastDivergence = a.lastDivergence
	s.LastCalibDrift = a.lastCalibDrift
	return s
}

// Paths returns the calibrated path names, sorted — tests and discovery.
func (a *Auditor) Paths() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.calib))
	for p := range a.calib {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
