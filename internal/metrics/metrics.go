// Package metrics is the observability substrate of the solver stack:
// allocation-free per-fold instrumentation (phase timings, cell and FLOP
// throughput), atomic cross-fold aggregation safe under any concurrency,
// and JSON snapshots whose schema the CLIs emit and the CI benchmark gate
// consumes.
//
// The design splits recording in two layers so the hot path stays free of
// both allocation and contention:
//
//   - FoldMetrics is a plain struct owned by exactly one fold. The solver's
//     coordinating goroutine writes it at wavefront granularity (two
//     time.Now calls per phase per wavefront), so no atomics are needed and
//     enabling it costs nothing on the worker goroutines that execute the
//     actual max-plus kernels.
//   - Metrics is the cumulative, concurrency-safe aggregate: folds from any
//     number of goroutines fold their FoldMetrics into it with atomic adds
//     at fold end (a dozen atomic operations per fold, not per cell).
//
// Engine and pool utilization counters live with their owners
// (internal/bpmax.Engine, internal/bpmax.Pool, internal/bufpool.Pool); this
// package defines the snapshot structs (EngineStats, PoolStats,
// BufferStats) so every layer reports through one schema.
package metrics

import (
	"sync/atomic"
	"time"
)

// Phase names one instrumented section of a schedule. Phases are the
// paper's own decomposition: the R0/R3/R4 accumulation that streams
// finalized triangles (phase A of the hybrid schedules), the serial-ish
// R1/R2 + cell-update finalize pass (phase B), whole-triangle units for the
// base/coarse schedules, and the banded equivalents for windowed scans.
type Phase uint8

const (
	// PhaseSubstrate is problem construction: sequence parsing, the pair
	// score tables and the two Nussinov S tables.
	PhaseSubstrate Phase = iota
	// PhaseAccum is the R0/R3/R4 accumulation (rows or row tiles; phase A
	// of the fine/hybrid/hybrid-tiled schedules).
	PhaseAccum
	// PhaseFinalize is the R1/R2 + cell-update pass (phase B; triangle
	// granularity).
	PhaseFinalize
	// PhaseTriangle is whole-triangle work: the unit of the coarse
	// schedule, and the entire fill of the base schedule.
	PhaseTriangle
	// PhaseWindowAccum is the banded R0/R3/R4 accumulation of a windowed
	// scan.
	PhaseWindowAccum
	// PhaseWindowFinalize is the banded finalize pass of a windowed scan.
	PhaseWindowFinalize
	// PhaseCount sizes per-phase arrays; not a phase.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	PhaseSubstrate:      "substrate",
	PhaseAccum:          "accumulate",
	PhaseFinalize:       "finalize",
	PhaseTriangle:       "triangle",
	PhaseWindowAccum:    "window-accumulate",
	PhaseWindowFinalize: "window-finalize",
}

// String returns the stable label used in snapshots and traces.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseStat accumulates one phase's wall time and unit count (units are
// the phase's tasks: rows, row tiles, or triangles).
type PhaseStat struct {
	Nanos int64 `json:"nanos"`
	Units int64 `json:"units"`
}

// Tracer receives span callbacks around schedule phases. Calls come from
// the fold's coordinating goroutine, strictly nested and balanced
// (BeginPhase then EndPhase with the elapsed wall time). Implementations
// must be cheap and must not block: the solver invokes them once per phase
// per wavefront. Typical adapters set pprof labels, feed an OpenTelemetry
// span, or count phase transitions; see docs/OBSERVABILITY.md.
type Tracer interface {
	BeginPhase(p Phase)
	EndPhase(p Phase, d time.Duration)
}

// FoldMetrics instruments one fold. It is owned by a single fold and
// written only by that fold's coordinating goroutine, so reads are safe
// once the fold has returned and recording needs no atomics. The zero
// value is ready; Reset reuses the struct across pooled folds.
type FoldMetrics struct {
	// Schedule is the executed schedule's name ("hybrid-tiled", ...). For a
	// fold that degraded to a windowed scan it is "windowed".
	Schedule string `json:"schedule"`
	// N1, N2 are the sequence lengths; Workers the requested width.
	N1      int `json:"n1"`
	N2      int `json:"n2"`
	Workers int `json:"workers"`
	// Wavefronts counts outer anti-diagonals executed.
	Wavefronts int64 `json:"wavefronts"`
	// Phases holds per-phase wall time and task counts, indexed by Phase.
	Phases [PhaseCount]PhaseStat `json:"-"`
	// FillNanos is the wall time of the table fill (excludes substrate
	// construction and traceback).
	FillNanos int64 `json:"fill_nanos"`
	// Cells is the number of DP cells computed; FLOPs the analytic
	// max-plus operation count (0 for windowed scans).
	Cells int64 `json:"cells"`
	FLOPs int64 `json:"flops"`
	// TableBytes is the fold's table footprint; BudgetEstimateBytes the
	// pre-allocation estimate charged against WithMemoryLimit (0 when no
	// limit was set).
	TableBytes          int64 `json:"table_bytes"`
	BudgetEstimateBytes int64 `json:"budget_estimate_bytes"`
	// Degraded records the degradation rung ("none", "packed",
	// "windowed").
	Degraded string `json:"degraded"`
	// Algebra records the evaluation semiring ("maxplus", "partition");
	// empty on records from layers that predate the field.
	Algebra string `json:"algebra,omitempty"`
	// PartitionDomain records which domain a partition fill ended in
	// ("scaled", or "log" for the base/reference schedules and the
	// extreme-kT fallback, which costs an exp and a log1p per element);
	// empty on max-plus folds.
	PartitionDomain string `json:"partition_domain,omitempty"`
}

// Reset zeroes the struct for reuse by a pooled fold.
func (m *FoldMetrics) Reset() { *m = FoldMetrics{} }

// GFLOPS returns the effective max-plus throughput of the fill.
func (m *FoldMetrics) GFLOPS() float64 {
	if m.FillNanos <= 0 {
		return 0
	}
	return float64(m.FLOPs) / float64(m.FillNanos)
}

// CellsPerSecond returns the DP-cell fill rate.
func (m *FoldMetrics) CellsPerSecond() float64 {
	if m.FillNanos <= 0 {
		return 0
	}
	return float64(m.Cells) / (float64(m.FillNanos) / 1e9)
}

// Snapshot renders the fold metrics with phases keyed by name (zero
// phases omitted) and derived rates attached.
func (m *FoldMetrics) Snapshot() FoldSnapshot {
	s := FoldSnapshot{
		Schedule:            m.Schedule,
		N1:                  m.N1,
		N2:                  m.N2,
		Workers:             m.Workers,
		Wavefronts:          m.Wavefronts,
		FillNanos:           m.FillNanos,
		Cells:               m.Cells,
		FLOPs:               m.FLOPs,
		TableBytes:          m.TableBytes,
		BudgetEstimateBytes: m.BudgetEstimateBytes,
		Degraded:            m.Degraded,
		Algebra:             m.Algebra,
		PartitionDomain:     m.PartitionDomain,
		GFLOPS:              m.GFLOPS(),
		CellsPerSecond:      m.CellsPerSecond(),
	}
	for p := Phase(0); p < PhaseCount; p++ {
		if st := m.Phases[p]; st != (PhaseStat{}) {
			if s.Phases == nil {
				s.Phases = map[string]PhaseStat{}
			}
			s.Phases[p.String()] = st
		}
	}
	return s
}

// FoldSnapshot is the JSON form of one fold's metrics.
type FoldSnapshot struct {
	Schedule            string               `json:"schedule"`
	N1                  int                  `json:"n1"`
	N2                  int                  `json:"n2"`
	Workers             int                  `json:"workers"`
	Wavefronts          int64                `json:"wavefronts"`
	Phases              map[string]PhaseStat `json:"phases,omitempty"`
	FillNanos           int64                `json:"fill_nanos"`
	Cells               int64                `json:"cells"`
	FLOPs               int64                `json:"flops"`
	TableBytes          int64                `json:"table_bytes"`
	BudgetEstimateBytes int64                `json:"budget_estimate_bytes"`
	Degraded            string               `json:"degraded"`
	Algebra             string               `json:"algebra,omitempty"`
	PartitionDomain     string               `json:"partition_domain,omitempty"`
	GFLOPS              float64              `json:"gflops"`
	CellsPerSecond      float64              `json:"cells_per_second"`
}

// Span times one phase for callers outside the solver core (the public
// layer times substrate construction with it). Begin with nil destinations
// returns an inert Span whose End is a no-op, so disabled observability
// costs neither a time.Now nor a branch miss.
type Span struct {
	m     *FoldMetrics
	tr    Tracer
	phase Phase
	start time.Time
}

// Begin opens a span on phase p against the given destinations (either may
// be nil).
func Begin(m *FoldMetrics, tr Tracer, p Phase) Span {
	if m == nil && tr == nil {
		return Span{}
	}
	if tr != nil {
		tr.BeginPhase(p)
	}
	return Span{m: m, tr: tr, phase: p, start: time.Now()}
}

// End closes the span, crediting its wall time and unit count.
func (s Span) End(units int64) {
	if s.m == nil && s.tr == nil {
		return
	}
	d := time.Since(s.start)
	if s.m != nil {
		st := &s.m.Phases[s.phase]
		st.Nanos += int64(d)
		st.Units += units
	}
	if s.tr != nil {
		s.tr.EndPhase(s.phase, d)
	}
}

// HighWater is an atomic maximum tracker.
type HighWater struct{ v atomic.Int64 }

// Update raises the mark to x if x is higher.
func (w *HighWater) Update(x int64) {
	for {
		cur := w.v.Load()
		if x <= cur || w.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Load returns the current mark.
func (w *HighWater) Load() int64 { return w.v.Load() }

// Metrics aggregates folds from any number of goroutines. All methods are
// safe for concurrent use; recording a fold performs a bounded number of
// atomic adds and allocates nothing. The zero value is ready.
type Metrics struct {
	folds    atomic.Int64
	errors   atomic.Int64
	degraded atomic.Int64

	cells     atomic.Int64
	flops     atomic.Int64
	fillNanos atomic.Int64

	phaseNanos [PhaseCount]atomic.Int64
	phaseUnits [PhaseCount]atomic.Int64

	tableBytesHW HighWater
	budgetHW     HighWater

	foldNanos Histogram

	retries          atomic.Int64
	retrySuccesses   atomic.Int64
	retriesExhausted atomic.Int64
}

// RecordFold folds one completed fold's metrics into the aggregate.
func (m *Metrics) RecordFold(fm *FoldMetrics) {
	if m == nil || fm == nil {
		return
	}
	m.folds.Add(1)
	if fm.Degraded != "" && fm.Degraded != "none" {
		m.degraded.Add(1)
	}
	m.cells.Add(fm.Cells)
	m.flops.Add(fm.FLOPs)
	m.fillNanos.Add(fm.FillNanos)
	for p := Phase(0); p < PhaseCount; p++ {
		if st := fm.Phases[p]; st != (PhaseStat{}) {
			m.phaseNanos[p].Add(st.Nanos)
			m.phaseUnits[p].Add(st.Units)
		}
	}
	m.tableBytesHW.Update(fm.TableBytes)
	m.budgetHW.Update(fm.BudgetEstimateBytes)
	m.foldNanos.Observe(fm.FillNanos)
}

// RecordError counts a failed fold (cancelled, over budget, panicked,
// invalid input).
func (m *Metrics) RecordError() {
	if m != nil {
		m.errors.Add(1)
	}
}

// RecordRetry counts one retry attempt of a transiently failed fold.
func (m *Metrics) RecordRetry() {
	if m != nil {
		m.retries.Add(1)
	}
}

// RecordRetrySuccess counts a fold that failed transiently but succeeded on
// a retry attempt.
func (m *Metrics) RecordRetrySuccess() {
	if m != nil {
		m.retrySuccesses.Add(1)
	}
}

// RecordRetryExhausted counts a fold that was retried and still failed when
// its attempt budget ran out.
func (m *Metrics) RecordRetryExhausted() {
	if m != nil {
		m.retriesExhausted.Add(1)
	}
}

// Folds returns the number of successful folds recorded.
func (m *Metrics) Folds() int64 { return m.folds.Load() }

// Errors returns the number of failed folds recorded.
func (m *Metrics) Errors() int64 { return m.errors.Load() }

// Snapshot returns a point-in-time copy for serialization. Concurrent
// recording keeps running; the snapshot is internally consistent enough
// for monitoring (each counter is read once, atomically).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Folds:               m.folds.Load(),
		Errors:              m.errors.Load(),
		Degraded:            m.degraded.Load(),
		Cells:               m.cells.Load(),
		FLOPs:               m.flops.Load(),
		FillNanos:           m.fillNanos.Load(),
		TableBytesHighWater: m.tableBytesHW.Load(),
		BudgetHighWater:     m.budgetHW.Load(),
		FoldNanos:           m.foldNanos.Snapshot(),
		Retries:             m.retries.Load(),
		RetrySuccesses:      m.retrySuccesses.Load(),
		RetriesExhausted:    m.retriesExhausted.Load(),
	}
	if s.FillNanos > 0 {
		s.GFLOPS = float64(s.FLOPs) / float64(s.FillNanos)
		s.CellsPerSecond = float64(s.Cells) / (float64(s.FillNanos) / 1e9)
	}
	for p := Phase(0); p < PhaseCount; p++ {
		st := PhaseStat{Nanos: m.phaseNanos[p].Load(), Units: m.phaseUnits[p].Load()}
		if st != (PhaseStat{}) {
			if s.Phases == nil {
				s.Phases = map[string]PhaseStat{}
			}
			s.Phases[p.String()] = st
		}
	}
	return s
}

// Snapshot is the JSON form of the cumulative aggregate. Engine and Pool
// are attached by the caller that owns those components (the solver layer
// cannot know which engine or pool a service routes folds through).
type Snapshot struct {
	Folds    int64 `json:"folds"`
	Errors   int64 `json:"errors"`
	Degraded int64 `json:"degraded"`

	Cells          int64   `json:"cells"`
	FLOPs          int64   `json:"flops"`
	FillNanos      int64   `json:"fill_nanos"`
	GFLOPS         float64 `json:"gflops"`
	CellsPerSecond float64 `json:"cells_per_second"`

	Phases map[string]PhaseStat `json:"phases,omitempty"`

	TableBytesHighWater int64 `json:"table_bytes_high_water"`
	BudgetHighWater     int64 `json:"budget_estimate_high_water"`

	FoldNanos HistogramSnapshot `json:"fold_nanos"`

	// Retries counts retry attempts under WithRetry; RetrySuccesses the
	// folds rescued by one, RetriesExhausted the folds that were retried and
	// still failed.
	Retries          int64 `json:"retries"`
	RetrySuccesses   int64 `json:"retry_successes"`
	RetriesExhausted int64 `json:"retries_exhausted"`

	Engine    *EngineStats    `json:"engine,omitempty"`
	Pool      *PoolStats      `json:"pool,omitempty"`
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Faults is the fault-injection registry's activity, attached by callers
	// that armed failpoints (nil in normal operation).
	Faults *FaultStats `json:"faults,omitempty"`
	// Server is the HTTP front-end's request accounting, attached by
	// cmd/bpmaxd (nil when the metrics owner is not a network server).
	Server *ServerStats `json:"server,omitempty"`
	// Runtime is a Go runtime health sample (ReadRuntime), attached by
	// process-level snapshot paths (bpmax -stats, bpmaxd /metrics).
	Runtime *RuntimeStats `json:"runtime,omitempty"`
}

// ServerStats counts an HTTP front-end's request outcomes by status class.
// The invariant a load harness checks against its own client-side counts is
// Requests == OK + BadRequest + Shed + Unavailable + Timeouts + Failed +
// InFlight (in-flight only while serving; zero after a drain).
type ServerStats struct {
	// Requests counts every request routed to a serving endpoint
	// (/v1/*); health, metrics and pprof probes are not included.
	Requests int64 `json:"requests"`
	// InFlight is the number of requests currently being served.
	InFlight int64 `json:"in_flight"`
	// OK counts 2xx responses.
	OK int64 `json:"ok"`
	// BadRequest counts 4xx responses other than 429 (malformed bodies,
	// invalid sequences, unknown options).
	BadRequest int64 `json:"bad_request"`
	// Shed counts 429 responses: admission queue full, load shed.
	Shed int64 `json:"shed"`
	// Unavailable counts 503 responses (session closed / draining).
	Unavailable int64 `json:"unavailable"`
	// Timeouts counts 504 responses: the per-request deadline expired
	// before the fold finished (queued or solving).
	Timeouts int64 `json:"timeouts"`
	// Failed counts 5xx responses other than 503/504 (solver panics
	// surfacing as 500s).
	Failed int64 `json:"failed"`
	// Disconnects counts requests whose client went away mid-fold
	// (context canceled by the peer, no response written).
	Disconnects int64 `json:"client_disconnects"`
	// Draining reports whether the server has begun its graceful drain.
	Draining bool `json:"draining"`
}

// EngineStats is a snapshot of a persistent worker engine's utilization
// counters: how often parallel loops actually recruited parked helpers
// versus running sequentially or finding every helper busy, and how many
// dynamic chunk claims the workers made.
type EngineStats struct {
	// Width is the engine's total parallel width (submitter + helpers).
	Width int `json:"width"`
	// Runs counts parallel loops executed on the engine; SequentialRuns
	// the subset that ran on the submitter alone (width or n clamped
	// to 1); FallbackRuns loops served by the fork-join runtime because
	// the engine was closed.
	Runs           int64 `json:"runs"`
	SequentialRuns int64 `json:"sequential_runs"`
	FallbackRuns   int64 `json:"fallback_runs"`
	// HelperOffers counts recruitment attempts (one per potential helper
	// per run); HelpersRecruited the offers a parked helper accepted. The
	// difference is demand that found every helper busy — the
	// degrade-to-submitter path.
	HelperOffers     int64 `json:"helper_offers"`
	HelpersRecruited int64 `json:"helpers_recruited"`
	// ChunksClaimed counts dynamic-scheduling claims across all workers
	// (each claim is one contiguous index range of a loop).
	ChunksClaimed int64 `json:"chunks_claimed"`
	// Panics counts solver panics recovered inside engine jobs.
	Panics int64 `json:"panics"`
}

// Utilization returns the fraction of helper offers that recruited a
// parked worker — 1.0 means every parallel loop got its full width.
func (s EngineStats) Utilization() float64 {
	if s.HelperOffers == 0 {
		return 0
	}
	return float64(s.HelpersRecruited) / float64(s.HelperOffers)
}

// PoolStats is a snapshot of the fold-state pool's reuse counters. A hit
// serves a request from a recycled shell; a miss falls through to the
// allocator (expected while warming).
type PoolStats struct {
	ProblemHits   int64 `json:"problem_hits"`
	ProblemMisses int64 `json:"problem_misses"`
	FTableHits    int64 `json:"ftable_hits"`
	FTableMisses  int64 `json:"ftable_misses"`
	WTableHits    int64 `json:"wtable_hits"`
	WTableMisses  int64 `json:"wtable_misses"`
	SolverHits    int64 `json:"solver_hits"`
	SolverMisses  int64 `json:"solver_misses"`
	ResultHits    int64 `json:"result_hits"`
	ResultMisses  int64 `json:"result_misses"`
	// Buffers is the size-classed float32 arena behind the tables.
	Buffers BufferStats `json:"buffers"`
}

// HitRate returns the overall shell reuse rate across all shell kinds.
func (s PoolStats) HitRate() float64 {
	hits := s.ProblemHits + s.FTableHits + s.WTableHits + s.SolverHits + s.ResultHits
	total := hits + s.ProblemMisses + s.FTableMisses + s.WTableMisses + s.SolverMisses + s.ResultMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// CacheStats is a snapshot of the content-addressed request cache. The two
// entry classes are counted separately: substrate entries memoize one
// strand's Nussinov S table, result entries retain a whole completed fold.
type CacheStats struct {
	SubstrateHits   int64 `json:"substrate_hits"`
	SubstrateMisses int64 `json:"substrate_misses"`
	ResultHits      int64 `json:"result_hits"`
	ResultMisses    int64 `json:"result_misses"`
	// SingleFlightShared counts requests served by another request's
	// in-flight computation instead of solving themselves.
	SingleFlightShared int64 `json:"single_flight_shared"`
	// Evictions counts entries dropped by the LRU policy; Entries is the
	// current entry count across both classes.
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	// RetainedBytes is the storage currently pinned by cache entries (it is
	// charged against WithMemoryLimit budgets); RetainedHighWater the
	// maximum ever pinned.
	RetainedBytes     int64 `json:"retained_bytes"`
	RetainedHighWater int64 `json:"retained_high_water"`
	// BreakerOpens counts result-layer circuit-breaker trips (a key whose
	// single-flight leaders kept failing); BreakerBypasses the requests
	// served cold because their key's breaker was open; BreakerOpenKeys the
	// keys currently open or half-open.
	BreakerOpens    int64 `json:"breaker_opens"`
	BreakerBypasses int64 `json:"breaker_bypasses"`
	BreakerOpenKeys int64 `json:"breaker_open_keys"`
}

// AdmissionStats is a snapshot of an admission gate: the bounded concurrency
// slots, the FIFO wait queue, and the fate of every request that reached the
// gate (admitted, rejected because the queue was full, or expired while
// queued because its context ended first).
type AdmissionStats struct {
	// MaxConcurrent and MaxQueue echo the gate's configuration (MaxQueue 0
	// means unbounded).
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// Running is the number of requests currently holding a slot;
	// QueueDepth the number currently waiting.
	Running    int64 `json:"running"`
	QueueDepth int64 `json:"queue_depth"`
	// QueueDepthHighWater is the deepest the wait queue has ever been.
	QueueDepthHighWater int64 `json:"queue_depth_high_water"`
	Admitted            int64 `json:"admitted"`
	Rejected            int64 `json:"rejected"`
	Expired             int64 `json:"expired"`
	// WaitNanosTotal sums the queue time of every admitted request;
	// WaitNanosHighWater is the longest any single request waited.
	WaitNanosTotal     int64 `json:"wait_nanos_total"`
	WaitNanosHighWater int64 `json:"wait_nanos_high_water"`
}

// FaultStats is a snapshot of the fault-injection registry
// (internal/fault): how many sites are armed, how many checks armed sites
// have seen, and how many injections fired, broken down by site.
type FaultStats struct {
	Armed    int   `json:"armed"`
	Checks   int64 `json:"checks"`
	Injected int64 `json:"injected"`
	// Sites maps site name to its injection count (sites that never fired
	// are omitted).
	Sites map[string]int64 `json:"sites,omitempty"`
}

// BufferStats is a snapshot of the size-classed buffer arena.
type BufferStats struct {
	// Gets counts buffers served; Hits the subset reusing an idle pooled
	// buffer; Misses fresh allocations.
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts buffers returned to the arena; Drops returns discarded
	// because the class was full or the buffer was not class-shaped.
	Puts  int64 `json:"puts"`
	Drops int64 `json:"drops"`
	// Live is Gets minus returns — buffers currently owned by callers. A
	// monotonically growing Live under a steady workload indicates leaked
	// results (folds whose Release was never called).
	Live int64 `json:"live"`
	// RetainedBytes is the idle storage parked in the arena now;
	// RetainedHighWater the maximum ever parked.
	RetainedBytes     int64 `json:"retained_bytes"`
	RetainedHighWater int64 `json:"retained_high_water"`
}
