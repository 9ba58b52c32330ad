// Package m3d reproduces "Ultra-Dense 3D Physical Design Unlocks New
// Architectural Design Points with Large Benefits" (DATE 2023): a
// monolithic-3D (M3D) design-space-exploration library built on a
// self-contained EDA substrate — technology/PDK modeling, standard-cell
// characterization, structural synthesis, floorplanning, placement with
// M3D tier assignment, 3D global routing over inter-layer vias, static
// timing, power analysis, GDSII export — plus an accelerator architecture
// model, a ZigZag-style mapping engine, and the paper's analytical
// framework (Eqs. 1-12, 17).
//
// This file re-exports the public API surface from the internal packages;
// see the examples/ directory for end-to-end usage and bench_test.go for
// the per-table/figure reproduction harness.
package m3d

import (
	"context"

	"m3d/internal/analytic"
	"m3d/internal/arch"
	"m3d/internal/core"
	"m3d/internal/dse"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/macro"
	"m3d/internal/obs"
	"m3d/internal/serve"
	"m3d/internal/tech"
	"m3d/internal/thermal"
	"m3d/internal/vary"
	"m3d/internal/workload"
)

// Error contract. Every public entry point reports failures from one of
// three families, matchable with errors.Is:
//
//   - ErrBadSpec: the inputs were invalid (malformed SoCSpec, empty load
//     list, non-positive sweep axis values). The wrapped message names the
//     offending field.
//   - ErrCanceled: the run was stopped by its context. The error also
//     matches the underlying context error (context.Canceled or
//     context.DeadlineExceeded).
//   - ErrThermalLimit: an opt-in WithThermalCheck sign-off found the
//     Eq. 17 stack temperature rise above budget.
//
// Anything else is an internal stage failure (synthesis, routing, DRC,
// ...) whose message names the stage.
var (
	// ErrCanceled matches run failures caused by context cancellation.
	ErrCanceled = errs.ErrCanceled
	// ErrBadSpec matches validation failures of specs, loads and axes.
	ErrBadSpec = errs.ErrBadSpec
	// ErrThermalLimit matches Eq. 17 thermal sign-off failures.
	ErrThermalLimit = errs.ErrThermalLimit
	// ErrOverloaded matches admission failures: the service's in-flight
	// and queue capacity are both exhausted (HTTP 429 in the service).
	ErrOverloaded = errs.ErrOverloaded
)

// Technology modeling (the foundry M3D PDK substitute).
type (
	// PDK is the parameterized 130 nm M3D process model.
	PDK = tech.PDK
	// Tier identifies a device tier (Si CMOS / RRAM / CNFET).
	Tier = tech.Tier
)

// Tier values.
const (
	TierSiCMOS = tech.TierSiCMOS
	TierRRAM   = tech.TierRRAM
	TierCNFET  = tech.TierCNFET
	// NumTiers is the number of device tiers — the length of per-tier
	// parameter arrays such as VariationCorner.TierScale.
	NumTiers = tech.NumTiers
)

// Variation is the inter-tier process variation model (per-tier σ,
// systematic CNFET Vt shift, ILV resistance spread, tier correlation);
// attach one to a PDK with its WithVariation method.
type Variation = tech.Variation

// DefaultVariation returns the stock corner model the yield surfaces
// fall back to.
func DefaultVariation() Variation { return tech.DefaultVariation() }

// Default130 returns the default 130 nm foundry M3D PDK model.
func Default130() *PDK { return tech.Default130() }

// Accelerator architecture modeling.
type (
	// Accel is an accelerator configuration (CS organization, banked RRAM,
	// buffer hierarchy, energy model).
	Accel = arch.Accel
	// Model is a DNN workload (layer shape table).
	Model = workload.Model
	// Layer is one DNN layer shape.
	Layer = workload.Layer
)

// CaseStudy2D returns the paper's Sec. II 2D baseline accelerator.
func CaseStudy2D() *Accel { return arch.CaseStudy2D() }

// CaseStudy3D returns the paper's iso-footprint M3D design point (8 CSs).
func CaseStudy3D() *Accel { return arch.CaseStudy3D() }

// TableII returns Table II architecture preset n (1-6).
func TableII(n int) (*Accel, error) { return arch.TableII(n) }

// Workload zoo.
var (
	// AlexNet ... ResNet152 return the evaluation networks.
	AlexNet   = workload.AlexNet
	VGG16     = workload.VGG16
	ResNet18  = workload.ResNet18
	ResNet34  = workload.ResNet34
	ResNet50  = workload.ResNet50
	ResNet152 = workload.ResNet152
	// Zoo returns all of them (the Fig. 5 x-axis).
	Zoo = workload.Zoo
)

// Analytical framework (Sec. III).
type (
	// Params are the framework's machine quantities (P_peak, B, N, α, E).
	Params = analytic.Params
	// Load is one workload abstraction (F₀ ops, D₀ bits, N# partitions).
	Load = analytic.Load
	// AreaModel is the Fig. 6a area decomposition feeding Eq. 2.
	AreaModel = analytic.AreaModel
	// Result bundles speedup, energy ratio, and EDP benefit.
	Result = analytic.Result
	// SweepPoint is one Fig. 8 (CS count × bandwidth) grid cell.
	SweepPoint = analytic.SweepPoint
	// DesignPoint selects one combined Case 1 × Case 3 design — δ,
	// interleaved tier pairs, bandwidth scale — for objective
	// extraction (DSE evaluation, VariationEDPBand).
	DesignPoint = analytic.DesignPoint
)

// Evaluate applies Eqs. 1-8 to one load.
func Evaluate(p Params, w Load) (Result, error) { return analytic.Evaluate(p, w) }

// EvaluateMany aggregates Eqs. 1-8 over a layer sequence.
func EvaluateMany(p Params, loads []Load) (Result, error) { return analytic.EvaluateMany(p, loads) }

// Experiments (one per paper table/figure; see also the benchmarks).
type (
	// BenefitRow is one speedup/energy/EDP comparison row.
	BenefitRow = core.BenefitRow
	// Fig7Row pairs mapper and analytic results for one architecture.
	Fig7Row = core.Fig7Row
	// Fig9Row is one RRAM-capacity point.
	Fig9Row = core.Fig9Row
	// Fig10Row is one δ/β design point.
	Fig10Row = core.Fig10Row
	// Fig10dRow is one interleaved-tier point with its thermal state.
	Fig10dRow = core.Fig10dRow
	// PhysicalComparison is the Fig. 2-style post-route comparison.
	PhysicalComparison = core.PhysicalComparison
	// FoldingComparison quantifies the folding-only baseline.
	FoldingComparison = core.FoldingComparison
)

// Experiment entry points; each regenerates the corresponding paper
// table/figure data.
var (
	Table1           = core.Table1
	Fig5             = core.Fig5
	Fig7             = core.Fig7
	Fig8             = core.Fig8
	Fig9             = core.Fig9
	Fig10bc          = core.Fig10bc
	Obs8             = core.Obs8
	Fig10d           = core.Fig10d
	Obs3             = core.Obs3
	RunCaseStudyFlow = core.RunCaseStudyFlow
	RunFoldingStudy  = core.RunFoldingStudy
	BuildAreaModel   = core.AreaModel
	CaseStudyPair    = core.CaseStudyPair
	// FutureWorkUpperLogic evaluates the conclusion's "full CMOS on upper
	// layers" extension.
	FutureWorkUpperLogic = core.FutureWorkUpperLogic
)

// Physical-design flow.
type (
	// SoCSpec describes one RTL-to-GDS flow run.
	SoCSpec = flow.SoCSpec
	// FlowResult is the flow's post-route report.
	FlowResult = flow.Result
	// MacroStyle selects 2D (Si access FETs) vs M3D (CNFET access FETs).
	MacroStyle = macro.Style
)

// Macro styles.
const (
	Style2D = macro.Style2D
	Style3D = macro.Style3D
)

// RunFlow executes the RTL-to-GDS flow for one SoC spec. Options control
// pool width, cancellation, observability and the thermal sign-off
// (WithWorkers, WithContext, WithTracer, WithMetrics, WithThermalCheck).
// The returned result retains the design database: write the GDS,
// Verilog and DEF from it with its WriteGDS, WriteVerilog and WriteDEF
// methods.
func RunFlow(p *PDK, spec SoCSpec, opts ...Option) (*FlowResult, error) {
	return flow.Run(p, spec, opts...)
}

// RunFlowContext is RunFlow under an explicit context: cancellation stops
// the run between stages (error matches ErrCanceled), and a tracer or
// metrics registry attached to ctx (ContextWithTracer/ContextWithMetrics)
// instruments it.
func RunFlowContext(ctx context.Context, p *PDK, spec SoCSpec, opts ...Option) (*FlowResult, error) {
	return flow.RunContext(ctx, p, spec, opts...)
}

// Shared run-option surface. Every fan-out entry point — RunFlow,
// RunFlowMany, SweepBandwidthCS, the experiment functions — accepts the
// same Option set.
type (
	// Option configures one run: pool width, cancellation, tracing,
	// metrics, the thermal sign-off.
	Option = exec.Option
)

var (
	// WithWorkers bounds the run's worker pool (0 or less = default).
	WithWorkers = exec.WithWorkers
	// WithContext attaches a cancellation context to the run.
	WithContext = exec.WithContext
	// WithTracer attaches a span sink (NewTraceRecorder, NewJSONLTracer).
	WithTracer = exec.WithTracer
	// WithMetrics attaches a metrics registry (NewMetrics).
	WithMetrics = exec.WithMetrics
	// DefaultWorkers reports the default pool width (GOMAXPROCS or the
	// M3D_WORKERS environment override).
	DefaultWorkers = exec.DefaultWorkers
)

// WithThermalCheck enables the Eq. 17 thermal sign-off stage (maxRiseK ≤
// 0 uses the PDK budget); failures match ErrThermalLimit.
var WithThermalCheck = flow.WithThermalCheck

// Observability (spans + metrics; see DESIGN.md §8 for the taxonomy).
type (
	// Tracer receives one span per flow stage / pool task / experiment.
	Tracer = obs.Tracer
	// TraceSpan is one in-flight span.
	TraceSpan = obs.Span
	// TraceAttr is one span attribute.
	TraceAttr = obs.Attr
	// TraceRecorder is an in-memory Tracer for tests and tooling.
	TraceRecorder = obs.Recorder
	// SpanRecord is one finished span captured by a TraceRecorder.
	SpanRecord = obs.SpanRecord
	// JSONLTracer streams spans (and metric snapshots) as JSON lines.
	JSONLTracer = obs.JSONL
	// Metrics is an atomic registry of counters, gauges and histograms.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
)

var (
	// NewTraceRecorder returns an in-memory span recorder.
	NewTraceRecorder = obs.NewRecorder
	// NewJSONLTracer returns a tracer streaming JSON lines to w.
	NewJSONLTracer = obs.NewJSONL
	// NewMetrics returns an empty metrics registry.
	NewMetrics = obs.NewRegistry
	// ContextWithTracer / ContextWithMetrics attach observability sinks to
	// a context for the context-first entry points.
	ContextWithTracer  = obs.ContextWithTracer
	ContextWithMetrics = obs.ContextWithMetrics
)

// SweepBandwidthCS evaluates the Fig. 8 (CS count × bandwidth) grid on
// the worker pool with deterministic, serial-identical ordering.
func SweepBandwidthCS(p Params, w Load, csCounts []int, bwScales []float64, opts ...Option) ([]SweepPoint, error) {
	return analytic.SweepBandwidthCS(p, w, csCounts, bwScales, opts...)
}

// RunFlowMany executes the RTL-to-GDS flow for every spec on the worker
// pool, returning results in spec order. Identical specs are evaluated
// once and share a *FlowResult; write exports from the results.
func RunFlowMany(p *PDK, specs []SoCSpec, opts ...Option) ([]*FlowResult, error) {
	return flow.RunMany(p, specs, opts...)
}

// RunFlowManyContext is RunFlowMany under an explicit context (see
// RunFlowContext).
func RunFlowManyContext(ctx context.Context, p *PDK, specs []SoCSpec, opts ...Option) ([]*FlowResult, error) {
	return flow.RunManyContext(ctx, p, specs, opts...)
}

// RunFlowCaseStudy runs the 2D baseline and the iso-footprint M3D design.
func RunFlowCaseStudy(p *PDK, scale SoCSpec, numCS int, opts ...Option) (*FlowResult, *FlowResult, error) {
	return flow.CaseStudy(p, scale, numCS, opts...)
}

// HTTP evaluation service (cmd/m3dserve; see DESIGN.md §9). The service
// layers production plumbing over the same entry points re-exported
// above: bounded admission with load shedding (ErrOverloaded → 429),
// single-flight coalescing of identical requests, per-request deadlines
// into the pool, sentinel→status error mapping and graceful drain.
type (
	// Service is the evaluation HTTP handler (an http.Handler serving
	// /healthz, /metrics, /v1/sweep, /v1/flow, /v1/batch, /v1/dse,
	// /v1/yield).
	Service = serve.Server
	// ServiceConfig configures a Service (PDK, pool width, admission
	// capacity, per-request deadline, observability sinks).
	ServiceConfig = serve.Config
	// ServiceSweepRequest / ServiceSweepResponse are the /v1/sweep body
	// and reply shapes.
	ServiceSweepRequest  = serve.SweepRequest
	ServiceSweepResponse = serve.SweepResponse
	// ServiceFlowRequest / ServiceFlowResponse are the /v1/flow body and
	// reply shapes.
	ServiceFlowRequest  = serve.FlowRequest
	ServiceFlowResponse = serve.FlowResponse
	// ServiceBatchItem / ServiceBatchItemResult are the /v1/batch array
	// element and its streamed per-item reply (one of sweep/flow, with
	// isolated per-item status and error).
	ServiceBatchItem       = serve.BatchItem
	ServiceBatchItemResult = serve.BatchItemResult
	// ServiceDSERequest / ServiceDSEUpdate are the /v1/dse body and the
	// streamed reply-array element (a DSEUpdate frontier snapshot; the
	// final element also carries any ServiceDSEPromotion flow runs).
	ServiceDSERequest   = serve.DSERequest
	ServiceDSEUpdate    = serve.DSEUpdate
	ServiceDSEPromotion = serve.DSEPromotion
	// ServiceYieldRequest / ServiceYieldUpdate are the /v1/yield body
	// and the streamed reply-array element (a per-batch refinement of
	// the yield curve and critical-path quantiles);
	// ServiceVariationSpec is the request's wire-form variation model.
	ServiceYieldRequest  = serve.YieldRequest
	ServiceYieldUpdate   = serve.YieldUpdate
	ServiceVariationSpec = serve.VariationSpec
)

// NewService returns an evaluation HTTP handler; mount it on any
// http.Server and call Drain on shutdown.
func NewService(cfg ServiceConfig) *Service { return serve.New(cfg) }

// Async job tier (POST /v1/jobs; DESIGN.md §14): long-running flow,
// sweep and DSE work submitted for background execution with per-stage
// checkpoints persisted through a JobStore, so a restarted Service
// resumes interrupted jobs from their last completed stage and
// reproduces the uninterrupted results byte for byte.
type (
	// ServiceJobRequest is the POST /v1/jobs body: exactly one of
	// Sweep/Flow/DSE, an optional client-chosen idempotency ID, and an
	// optional chunk count for sweep checkpoint granularity.
	ServiceJobRequest = serve.JobRequest
	// ServiceJobStatus is the job envelope returned by every jobs
	// endpoint: state machine position, per-stage progress, and — once
	// done — the result payload and artifact names.
	ServiceJobStatus = serve.JobStatus
	// ServiceJobStore persists job records and stage checkpoints;
	// MemJobStore and DirJobStore are the built-ins.
	ServiceJobStore = serve.JobStore
	// ServiceMemJobStore is the in-process JobStore (tests, single run).
	ServiceMemJobStore = serve.MemJobStore
	// ServiceDirJobStore is the on-disk JobStore (atomic per-stage
	// files; survives restarts and powers crash/resume).
	ServiceDirJobStore = serve.DirJobStore
)

// Job lifecycle states (ServiceJobStatus.State).
const (
	JobStateAccepted = serve.JobStateAccepted
	JobStateQueued   = serve.JobStateQueued
	JobStateRunning  = serve.JobStateRunning
	JobStateDone     = serve.JobStateDone
	JobStateFailed   = serve.JobStateFailed
	JobStateCanceled = serve.JobStateCanceled
)

// NewServiceMemJobStore returns an in-process job store, for
// ServiceConfig.JobStore.
func NewServiceMemJobStore() *ServiceMemJobStore { return serve.NewMemJobStore() }

// NewServiceDirJobStore opens (creating if needed) an on-disk job store
// rooted at dir, for ServiceConfig.JobStore.
func NewServiceDirJobStore(dir string) (*ServiceDirJobStore, error) { return serve.NewDirJobStore(dir) }

// CacheCapEnv is the environment variable (M3D_CACHE_CAP) that bounds
// the service's coalescing response caches, unless ServiceConfig.CacheCap
// overrides it, at that many entries with least-recently-used eviction.
// Unset or non-positive keeps them unbounded.
const CacheCapEnv = exec.CacheCapEnv

// Adaptive multi-objective design-space exploration (internal/dse;
// DESIGN.md §13): a Pareto search over the combined Case 1 × Case 3
// space — δ × interleaved tier pairs × bandwidth scale — maximizing
// speedup, EDP benefit and Eq. 17 thermal headroom while minimizing
// footprint. Deterministic at any worker width; POST /v1/dse is the
// served twin with streamed frontier updates.
type (
	// DSEAxis is a uniform float axis of the exploration box.
	DSEAxis = dse.Axis
	// DSEIntAxis is a unit-stride integer axis of the exploration box.
	DSEIntAxis = dse.IntAxis
	// DSESpace is the boxed design space an exploration samples.
	DSESpace = dse.Space
	// DSEOptions tune one exploration (evaluation budget, seed, thermal
	// filtering, variation-aware mode).
	DSEOptions = dse.Options
	// DSEPoint is one evaluated design point with its four objectives.
	DSEPoint = dse.Point
	// DSEUpdate is one streamed frontier snapshot (the current
	// non-dominated set plus an evaluations counter).
	DSEUpdate = dse.Update
	// DSEResult is the final state of one exploration.
	DSEResult = dse.Result
	// DSEArchive is a Pareto archive with dominated-region pruning.
	DSEArchive = dse.Archive
)

var (
	// DSEDefaultSpace returns the stock exploration box (δ ∈ [1, 2.5] in
	// 16 steps, Y ∈ [1, 6], bandwidth scale ∈ [1, 8] in 8 steps, 2 W per
	// pair).
	DSEDefaultSpace = dse.DefaultSpace
	// DSETopK picks the k highest-EDP frontier points (the promotion
	// order of /v1/dse and `m3ddse pareto -promote`).
	DSETopK = dse.TopK
)

// ExploreDesignSpace runs the adaptive Pareto search over space on the
// case-study machine. onUpdate (when non-nil) receives one frontier
// snapshot per refinement round plus a final Done update, always from
// the calling goroutine in round order. The usual Option set applies;
// results are deep-equal at any worker width.
func ExploreDesignSpace(p *PDK, space DSESpace, opt DSEOptions, onUpdate func(DSEUpdate), opts ...Option) (*DSEResult, error) {
	return dse.Explore(p, space, opt, onUpdate, opts...)
}

// BruteForceDesignSpace evaluates every lattice cell of space and
// returns the exact non-dominated set — the oracle ExploreDesignSpace
// is tested against, and the cost baseline its evaluation counts are
// compared to (see EXPERIMENTS.md).
func BruteForceDesignSpace(p *PDK, space DSESpace, opts ...Option) (*DSEResult, error) {
	return dse.BruteForce(p, space, opts...)
}

// Inter-tier process variation and Monte-Carlo timing yield
// (internal/vary; DESIGN.md §15): seeded, sample-indexed corner draws
// over the per-tier Variation model, thousands of re-timed STA runs
// through reusable timers, timing-yield curves P(slack ≥ 0) vs clock
// period, and variation-aware EDP quantile bands. Deterministic at any
// worker width; POST /v1/yield is the served twin with streamed
// per-batch quantile refinement.
type (
	// VariationSampler draws correlated per-tier corner samples from a
	// seeded stream; sample i is the same at any worker width.
	VariationSampler = vary.Sampler
	// VariationCorner is one drawn corner: per-tier delay scale factors
	// indexed by Tier.
	VariationCorner = vary.Corner
	// YieldEngine re-times one placed-and-routed design under sampled
	// corners (a timing graph compiled once, shared by a reusable
	// scratch pool). The design must not change while it is in use.
	YieldEngine = vary.Engine
	// YieldOptions tune one Monte-Carlo yield analysis (sample count,
	// seed, clock periods).
	YieldOptions = vary.Options
	// YieldResult is the full analysis: nominal report, per-sample
	// critical paths, the yield curve and the quantile band.
	YieldResult = vary.Result
	// YieldPoint is one yield-curve sample: P(critical path ≤ period).
	YieldPoint = vary.YieldPoint
	// Quantiles is a p5/p50/p95 band (critical paths, EDP benefits).
	Quantiles = vary.Quantiles
)

// MaxYieldSamples bounds one Monte-Carlo yield run.
const MaxYieldSamples = vary.MaxSamples

var (
	// NewVariationSampler validates the variation model and returns a
	// seeded corner sampler (invalid models match ErrBadSpec).
	NewVariationSampler = vary.NewSampler
	// QuantilesOf computes the nearest-rank p5/p50/p95 band of xs.
	QuantilesOf = vary.QuantilesOf
	// YieldCurve folds per-sample critical paths into P(meets period)
	// per clock period.
	YieldCurve = vary.Curve
	// DefaultYieldPeriods spans 0.90×–1.50× the nominal critical path.
	DefaultYieldPeriods = vary.DefaultPeriods
	// VariationEDPSamples / VariationEDPBand evaluate the Sec. III EDP
	// benefit of one design point under n sampled corners; n outside
	// [1, MaxYieldSamples] matches ErrBadSpec.
	VariationEDPSamples = vary.EDPSamples
	VariationEDPBand    = vary.EDPBand
)

// NewYieldEngine builds a Monte-Carlo timing-yield engine over a
// completed flow run's design database (netlist and routes), sampling
// corners from v with the given seed.
func NewYieldEngine(res *FlowResult, v Variation, seed int64) (*YieldEngine, error) {
	pdk, nl, routes := res.Design()
	return vary.NewEngine(pdk, nl, routes, v, seed)
}

// Thermal modeling (Eq. 17).
type (
	// ThermalStack is a vertical tier stack with per-tier power.
	ThermalStack = thermal.Stack
)

// NewThermalStack builds an Eq. 17 stack from the PDK and per-tier powers.
func NewThermalStack(p *PDK, tierPowersW []float64) ThermalStack {
	return thermal.NewStack(p, tierPowersW)
}

// MaxThermalTiers returns the deepest feasible stack at the given per-tier
// power under the PDK's temperature budget (Obs. 10).
func MaxThermalTiers(p *PDK, perTierPowerW float64) int {
	return thermal.MaxTiers(p, perTierPowerW)
}
