//! The discrete-time simulation engine.
//!
//! The engine advances a topology one second at a time as a fluid model:
//! tuple *mass* (fractional counts and bytes) flows from spouts through
//! instance input queues, is consumed at each instance's processing
//! capacity, multiplied by its selectivity and routed downstream by the
//! edge groupings. Queue bytes feed the watermark-based
//! [`BackpressureTracker`]; while backpressure is active every spout
//! stops, reproducing Heron's throttle-and-drain oscillation.
//!
//! Per simulated minute the engine exports the metrics the models read
//! (see [`crate::metrics::metric`]), with optional multiplicative
//! observation noise so repeated runs produce confidence bands like the
//! paper's Figs. 4-12.
//!
//! # Kernel layout
//!
//! The hot loop is a struct-of-arrays kernel: every per-instance constant
//! (capacity, selectivity, fail rate, gateway overhead, container, CPU
//! cores) lives in a parallel `Vec` built once in [`Simulation::new`]
//! (`InstanceTable`), routing fan-out is a flat CSR edge table
//! (`EdgeTable`), and mutable queue state is split from the per-minute
//! accumulators (`LiveState` vs `MinuteAccum`) so a tick touches only
//! contiguous arrays and a minute flush reads the accumulators in place.
//! `tick()` performs **zero heap allocations**: backpressure attribution
//! reuses a scratch buffer, and the per-component spout offer is staged in
//! a pre-sized vector. The per-tick arithmetic is bit-for-bit identical to
//! the retained seed kernel in [`crate::reference`]; the workspace
//! equivalence suite enforces this with `to_bits()` comparisons.
//!
//! # Event-driven advancement
//!
//! [`SimConfig::event_mode`] is the engine's one fast path and its only
//! mode switch: off, a minute is `60 · ticks_per_second` exact ticks; on,
//! each minute runs against an *agenda* for any **piecewise-linear**
//! spout profile (constant, stepped, ramping, diurnal): the sorted list
//! of the minute's rate-profile breakpoint ticks, each shifted by every
//! pipeline delay so per-instance flows stay linear between them. The
//! fluid model (`crate::fluid`) is built from the same instance,
//! component and edge tables the tick reads, and advances two regimes in
//! closed form:
//!
//! - **Relaxed spans** (no backpressure): up to the next agenda tick or
//!   the minute end, queue depths, throughput accumulators and clamped
//!   CPU move as arithmetic series over the profile segments — the exact
//!   sums the tick loop would accumulate. An entry probe requires the
//!   live state to match the model within `1e-6` relative, and the span
//!   plan truncates at the first analytic saturation-onset or
//!   watermark-crossing tick.
//! - **Throttled-drain spans** (backpressure active): every spout is
//!   stopped, so each bolt drains at `capacity·(1 − gateway)` per tick
//!   or passes a constant inflow through, and spout backlogs grow by the
//!   profile's integer-second sums. The drain plan stops before a
//!   triggering queue falls under the low watermark, a non-triggering
//!   queue rises over the high one, a saturated queue falls under one
//!   tick of work, or the minute ends.
//!
//! Both stop with the same conservative `1e-6` margin, so the crossing
//! tick itself — saturation onset, backpressure onset, release —
//! always executes exactly and the [`BackpressureTracker`] observes
//! every transition; per-minute backpressure time therefore matches
//! exact runs. Every exact tick is counted under an [`ExactTickReason`].
//! Inputs the fluid model cannot represent (see
//! [`SimConfig::event_mode`]) run the whole minute on exact ticks,
//! bit-identical to `event_mode: false`. Closed-form results are *not*
//! bit-identical to exact runs, so the flag defaults to **off** — the
//! bit-identity suite and the figure benches need the exact kernel as
//! the reference — and `planner::replay` always turns it on, behind the
//! workspace equivalence suite's 0.1 % sink-rate tolerance contract.

use crate::backpressure::{BackpressureTracker, WatermarkConfig};
use crate::error::{Result, SimError};
use crate::fluid::{FluidEngine, FluidTargets, SpanPlan};
use crate::metrics::SimMetrics;
use crate::packing::{PackingAlgorithm, PackingPlan};
use crate::profiles::hash64;
use crate::topology::{ComponentKind, Topology};
use caladrius_obs::{Counter, Histogram};
use caladrius_tsdb::series::DEFAULT_CHUNK_SIZE;
use caladrius_tsdb::{MetricsDb, Sample, SeriesHandle};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// After a failed event-mode entry probe (live state does not yet match
/// the relaxed model — pipeline refilling after cold start or a
/// backpressure episode), a relaxed plan that stops at its first tick,
/// or a failed drain plan (pipeline still converging after a
/// backpressure onset), tick exactly this many times before planning
/// again. A drain plan that stops at its first tick (a crossing is due)
/// does not back off: it replans after that one exact tick.
const EVENT_RETRY_TICKS: u64 = 8;

/// Process-wide histogram of wall-clock time per recorded simulated
/// minute (tick loop + metric flush). One static handle: the simulator
/// hot loop must not pay a registry lookup per minute.
fn sim_minute_histogram() -> &'static Histogram {
    static HANDLE: OnceLock<Histogram> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_sim_minute_duration_seconds",
            "Wall-clock time to simulate one recorded minute (ticks + flush)",
        );
        registry.histogram("caladrius_sim_minute_duration_seconds", &[])
    })
}

/// Why a tick ran on the exact kernel instead of in closed form — the
/// `reason` label of `caladrius_sim_ticks_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExactTickReason {
    /// [`SimConfig::event_mode`] is off.
    ExactMode,
    /// Event mode is on but the fluid model declines the simulation:
    /// sub-second ticks, finite stream managers, more than 64 flow terms
    /// on an instance, or a spout profile that is not piecewise-linear.
    Ineligible,
    /// Backoff after a failed relaxed entry probe (live state still
    /// converging toward the model, e.g. a pipeline refilling).
    ProbeRetry,
    /// Backoff after a relaxed span planned zero ticks: a capacity or
    /// high-watermark crossing is due at the doorstep.
    Crossing,
    /// Backpressure is active and no drain span applies: onset and
    /// release ticks, the ticks around a watermark crossing, and a drain
    /// still converging.
    BackpressureEdge,
}

impl ExactTickReason {
    /// Every reason, in label order.
    pub const ALL: [ExactTickReason; 5] = [
        ExactTickReason::ExactMode,
        ExactTickReason::Ineligible,
        ExactTickReason::ProbeRetry,
        ExactTickReason::Crossing,
        ExactTickReason::BackpressureEdge,
    ];

    /// The `reason` label value.
    pub fn label(self) -> &'static str {
        match self {
            ExactTickReason::ExactMode => "exact-mode",
            ExactTickReason::Ineligible => "ineligible",
            ExactTickReason::ProbeRetry => "probe-retry",
            ExactTickReason::Crossing => "crossing",
            ExactTickReason::BackpressureEdge => "backpressure-edge",
        }
    }
}

/// Process-wide simulator counters: ticks executed exactly (one series
/// per [`ExactTickReason`], in `ALL` order), agenda events processed by
/// the event-driven core, and ticks advanced in closed form.
/// `caladrius_sim_ticks_closed_form_total` over the sum of
/// `caladrius_sim_ticks_total` and closed form is the event-mode coverage
/// ratio on `/metrics/service`.
struct SimCounters {
    ticks: [Counter; 5],
    events: Counter,
    ticks_closed_form: Counter,
}

fn sim_counters() -> &'static SimCounters {
    static HANDLE: OnceLock<SimCounters> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_sim_ticks_total",
            "Simulation ticks executed exactly, by why closed form did not apply",
        );
        registry.describe(
            "caladrius_sim_events_total",
            "Agenda events processed by the event-driven simulation core",
        );
        registry.describe(
            "caladrius_sim_ticks_closed_form_total",
            "Simulated ticks advanced in closed form (relaxed and drain spans)",
        );
        SimCounters {
            ticks: ExactTickReason::ALL.map(|reason| {
                registry.counter("caladrius_sim_ticks_total", &[("reason", reason.label())])
            }),
            events: registry.counter("caladrius_sim_events_total", &[]),
            ticks_closed_form: registry.counter("caladrius_sim_ticks_closed_form_total", &[]),
        }
    })
}

/// Pre-resolved sink state for one `(simulation, SimMetrics)` pairing.
/// Registered once at the top of a run, so the steady-state flush path
/// never touches the catalog or a lock.
///
/// A simulated minute is one row of `block`: per instance, in
/// `register_sink` order, execute, emit, CPU, backpressure and, for
/// spouts, offered load — one value per entry of `handles`. The block
/// holds at most [`DEFAULT_CHUNK_SIZE`] minutes. It is sealed when full
/// and at the end of a run: each series' values are gathered in one
/// strided pass into the reused `samples` buffer and committed with one
/// [`MetricsDb::append_series`] call. The stored chunks are
/// byte-identical to per-minute ingestion, by
/// [`caladrius_tsdb::Series::extend_from_slice`]'s contract.
struct SinkHandles {
    handles: Vec<SeriesHandle>,
    /// The block's minute timestamps, one per row.
    minutes: Vec<i64>,
    /// Row-major: `minutes.len()` rows of `handles.len()` values.
    block: Vec<f64>,
    samples: Vec<Sample>,
}

impl SinkHandles {
    /// Commits the block's rows, one `append_series` call per series,
    /// and empties it.
    fn seal(&mut self, db: &MetricsDb) {
        if self.minutes.is_empty() {
            return;
        }
        let width = self.handles.len();
        for (column, handle) in self.handles.iter().enumerate() {
            self.samples.clear();
            self.samples.extend(
                self.minutes
                    .iter()
                    .zip(self.block[column..].iter().step_by(width))
                    .map(|(&ts, &value)| Sample::new(ts, value)),
            );
            db.append_series(handle, &self.samples);
        }
        self.minutes.clear();
        self.block.clear();
    }
}

/// Per-minute, per-component totals of a run that records nothing (see
/// [`Simulation::run_component_totals`]). Indexed `[component][minute]`,
/// components in topology order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentTotals {
    /// Backpressure time summed over the component's instances, ms.
    pub backpressure_ms: Vec<Vec<f64>>,
    /// Executed tuples summed over the component's instances.
    pub executed: Vec<Vec<f64>>,
}

/// Baseline CPU (cores) an idle instance consumes (JVM + gateway).
pub(crate) const BASE_CPU_OVERHEAD: f64 = 0.05;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Queue watermarks (Heron defaults: 100 MB / 50 MB).
    pub watermarks: WatermarkConfig,
    /// How instances are packed onto containers. `None` uses Heron-style
    /// round-robin over `ceil(instances / 4)` containers — the "small
    /// number of instances per container" regime the paper assumes.
    pub packing: Option<PackingAlgorithm>,
    /// Relative multiplicative observation noise on exported throughput /
    /// CPU metrics (0 disables). Default `0.004` gives the narrow 90 %
    /// confidence bands seen in the paper's figures.
    pub metric_noise: f64,
    /// Deterministic seed for observation noise.
    pub seed: u64,
    /// Simulation resolution: ticks per simulated second (default 1).
    /// Raise it when a bottleneck component's queue holds only a few
    /// seconds of work at its drain rate (e.g. small tuples + high
    /// rates), so that pipeline-refill gaps are resolved faithfully.
    pub ticks_per_second: u32,
    /// Routing capacity of each stream manager (tuples/second). `None`
    /// (default) makes stream managers transparent — the paper's
    /// Assumption 1 ("the throughput bottleneck is not the stream
    /// manager"), which holds in the paper's operating regime of few
    /// instances per container. Set a finite capacity to study when that
    /// assumption breaks (the `stmgr_ablation` bench).
    pub stmgr_capacity: Option<f64>,
    /// Opt-in event-driven advancement (default `false`) — the engine's
    /// only mode switch. Each minute's agenda is its sorted rate-profile
    /// breakpoint ticks; between them (and up to analytically computed
    /// saturation onsets and watermark crossings) the fluid state
    /// advances in closed form (`crate::fluid`) for any
    /// piecewise-linear spout profile, with or without backpressure
    /// (throttled drains advance in closed form too). Falls back to exact
    /// ticking (per tick) whenever closed form is not provably valid, so
    /// per-minute backpressure time matches exact runs; sink rates agree
    /// within the equivalence suite's 0.1 % tolerance rather than
    /// bitwise. Requires
    /// `ticks_per_second == 1`, transparent stream managers,
    /// piecewise-linear spout profiles and at most `fluid::MAX_TERMS`
    /// flow terms per instance; otherwise the engine runs exact,
    /// bit-identical to `event_mode: false`, counting every tick under
    /// [`ExactTickReason::Ineligible`].
    pub event_mode: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            watermarks: WatermarkConfig::default(),
            packing: None,
            metric_noise: 0.004,
            seed: 0xCA1AD,
            ticks_per_second: 1,
            stmgr_capacity: None,
            event_mode: false,
        }
    }
}

/// Per-instance constants, struct-of-arrays. Built once in
/// [`Simulation::new`]; the tick loop indexes these flat vectors instead
/// of matching on `ComponentKind` per instance.
#[derive(Debug)]
pub(crate) struct InstanceTable {
    /// Number of instances (length of every column).
    pub(crate) n: usize,
    /// Owning component index.
    pub(crate) comp_idx: Vec<u32>,
    /// Index within the component.
    pub(crate) inst_idx: Vec<u32>,
    /// Container the instance is packed on.
    pub(crate) container: Vec<u32>,
    /// Processing capacity, tuples/second.
    pub(crate) capacity: Vec<f64>,
    /// Allocated CPU cores.
    pub(crate) cpu_cores: Vec<f64>,
    /// `capacity / cpu_cores`, precomputed (division is deterministic, so
    /// hoisting it out of the tick preserves bit-identity).
    pub(crate) cap_per_core: Vec<f64>,
    /// Output tuples per executed tuple.
    pub(crate) selectivity: Vec<f64>,
    /// Capacity fraction lost to the gateway thread at full pressure.
    pub(crate) gateway_overhead: Vec<f64>,
    /// Fraction of executed tuples failed by user logic.
    pub(crate) fail_rate: Vec<f64>,
}

/// Per-component constants plus the CSR index into [`EdgeTable`].
#[derive(Debug)]
pub(crate) struct ComponentTable {
    /// Spout/bolt tag, flattened out of the `ComponentKind` enum.
    pub(crate) is_spout: Vec<bool>,
    /// True when the component has no outgoing edges.
    pub(crate) is_sink: Vec<bool>,
    /// Parallelism as `f64` (spout rate division).
    pub(crate) parallelism: Vec<f64>,
    /// CSR: instances of component `c` occupy
    /// `inst_start[c]..inst_start[c + 1]` in the instance table. The tick
    /// iterates per component so per-component constants (capacity,
    /// selectivity, fail rate, edge range) hoist out of the instance loop.
    pub(crate) inst_start: Vec<usize>,
    /// CSR: edges leaving component `c` occupy
    /// `edge_start[c]..edge_start[c + 1]` in the edge table.
    pub(crate) edge_start: Vec<usize>,
    /// Component indices that are spouts (per-tick offer computation).
    pub(crate) spout_comps: Vec<usize>,
}

/// All edges and their per-destination routes, flattened CSR-style so the
/// tick never takes `out_edges` out of `self`.
#[derive(Debug)]
pub(crate) struct EdgeTable {
    /// Per edge: grouping replicates to every downstream instance.
    pub(crate) replicates: Vec<bool>,
    /// Per edge: bytes per emitted tuple.
    pub(crate) tuple_bytes: Vec<f64>,
    /// CSR: routes of edge `e` occupy `route_start[e]..route_start[e+1]`.
    pub(crate) route_start: Vec<usize>,
    /// Per route: destination flat instance id.
    pub(crate) route_dst: Vec<usize>,
    /// Per route: share of the edge's output (non-replicating groupings).
    pub(crate) route_share: Vec<f64>,
}

/// Mutable queue state, struct-of-arrays. Split from [`MinuteAccum`] so
/// the minute flush reads accumulators in place (no per-instance clone).
#[derive(Debug)]
struct LiveState {
    queue_tuples: Vec<f64>,
    queue_bytes: Vec<f64>,
    incoming_tuples: Vec<f64>,
    incoming_bytes: Vec<f64>,
    /// Spouts only: tuples accumulated at the external source while the
    /// spout was throttled ("data will begin to accumulate in the external
    /// system waiting to be fetched", paper §II-C). Drained as fast as the
    /// spout allows once backpressure lifts — which is what makes the
    /// per-minute backpressure-time metric bimodal (paper §IV-B1).
    backlog: Vec<f64>,
}

impl LiveState {
    fn zeroed(n: usize) -> Self {
        Self {
            queue_tuples: vec![0.0; n],
            queue_bytes: vec![0.0; n],
            incoming_tuples: vec![0.0; n],
            incoming_bytes: vec![0.0; n],
            backlog: vec![0.0; n],
        }
    }

    fn reset(&mut self) {
        self.queue_tuples.fill(0.0);
        self.queue_bytes.fill(0.0);
        self.incoming_tuples.fill(0.0);
        self.incoming_bytes.fill(0.0);
        self.backlog.fill(0.0);
    }
}

/// Per-minute metric accumulators, struct-of-arrays.
#[derive(Debug)]
struct MinuteAccum {
    executed: Vec<f64>,
    emitted: Vec<f64>,
    offered: Vec<f64>,
    bp_ms: Vec<f64>,
    cpu_core_seconds: Vec<f64>,
}

impl MinuteAccum {
    fn zeroed(n: usize) -> Self {
        Self {
            executed: vec![0.0; n],
            emitted: vec![0.0; n],
            offered: vec![0.0; n],
            bp_ms: vec![0.0; n],
            cpu_core_seconds: vec![0.0; n],
        }
    }

    fn reset(&mut self) {
        self.executed.fill(0.0);
        self.emitted.fill(0.0);
        self.offered.fill(0.0);
        self.bp_ms.fill(0.0);
        self.cpu_core_seconds.fill(0.0);
    }
}

/// Per-container stream-manager forwarding queue (only used when
/// `SimConfig::stmgr_capacity` is set): pending tuple mass per destination
/// instance, plus totals for O(1) watermark checks.
#[derive(Debug, Clone, Default)]
struct StmgrState {
    pending_tuples: Vec<f64>,
    pending_bytes: Vec<f64>,
    total_tuples: f64,
    total_bytes: f64,
}

impl StmgrState {
    fn sized(n_instances: usize) -> Self {
        Self {
            pending_tuples: vec![0.0; n_instances],
            pending_bytes: vec![0.0; n_instances],
            total_tuples: 0.0,
            total_bytes: 0.0,
        }
    }

    fn enqueue(&mut self, dst: usize, tuples: f64, bytes: f64) {
        self.pending_tuples[dst] += tuples;
        self.pending_bytes[dst] += bytes;
        self.total_tuples += tuples;
        self.total_bytes += bytes;
    }

    fn reset(&mut self) {
        self.pending_tuples.fill(0.0);
        self.pending_bytes.fill(0.0);
        self.total_tuples = 0.0;
        self.total_bytes = 0.0;
    }
}

/// A runnable simulation of one topology.
#[derive(Debug)]
pub struct Simulation {
    topology: Topology,
    plan: PackingPlan,
    config: SimConfig,
    inst: InstanceTable,
    comps: ComponentTable,
    edges: EdgeTable,
    live: LiveState,
    accum: MinuteAccum,
    tracker: BackpressureTracker,
    /// Simulation clock in ticks (see `SimConfig::ticks_per_second`).
    now_ticks: u64,
    /// Per-container forwarding queues; empty when stream managers are
    /// transparent.
    stmgrs: Vec<StmgrState>,
    /// Per-component spout offer for the current tick (scratch).
    spout_offered: Vec<f64>,
    /// Per-instance emitted mass for the current tick (scratch): written
    /// by each component's compute phase, read by its routing phase.
    emit_scratch: Vec<f64>,
    /// Reused buffer for backpressure attribution (no per-tick alloc).
    bp_scratch: Vec<usize>,
    /// Lifetime tick and event counters.
    counters: TickCounters,
    /// Lazily built fluid model for event mode.
    fluid: FluidState,
}

/// Lifetime counters of a simulation: they survive
/// [`Simulation::reset_with`], table rebuild included.
#[derive(Debug, Clone, Copy, Default)]
struct TickCounters {
    /// Ticks executed exactly, indexed by [`ExactTickReason`]
    /// discriminant.
    exact: [u64; 5],
    /// Agenda events processed in event mode.
    events: u64,
    /// Ticks *not* executed exactly: advanced in closed form by the
    /// event-driven core.
    closed_form: u64,
}

/// Cache state of the event-mode fluid model, and with it whether closed
/// form is usable for the current spout profiles. `Ineligible` is sticky
/// per instance-table build (the term count only depends on topology
/// shape); a profile swap by [`Simulation::reset_with`] turns a built
/// model `Stale`.
#[derive(Debug, Default)]
enum FluidState {
    /// Not built yet (or invalidated by a table rebuild).
    #[default]
    Unbuilt,
    /// The topology's fan-in exceeds the fluid model's term budget.
    Ineligible,
    /// Built; the spout profiles changed since it last decomposed them.
    Stale(Box<FluidEngine>),
    /// Built, but some spout profile is not piecewise-linear.
    NonLinear(Box<FluidEngine>),
    /// Built, with every spout profile decomposed: closed form usable.
    Ready(Box<FluidEngine>),
}

impl Simulation {
    /// Builds a simulation, packing the topology per the config.
    pub fn new(topology: Topology, config: SimConfig) -> Result<Self> {
        config
            .watermarks
            .validate()
            .map_err(SimError::InvalidConfig)?;
        if let Some(cap) = config.stmgr_capacity {
            if !(cap > 0.0 && cap.is_finite()) {
                return Err(SimError::InvalidConfig(format!(
                    "stmgr_capacity must be positive and finite, got {cap}"
                )));
            }
        }
        if config.ticks_per_second == 0 {
            return Err(SimError::InvalidConfig(
                "ticks_per_second must be at least 1".into(),
            ));
        }
        if !(0.0..0.5).contains(&config.metric_noise) {
            return Err(SimError::InvalidConfig(format!(
                "metric_noise must be in [0, 0.5), got {}",
                config.metric_noise
            )));
        }
        // `Topology`'s fields are public, so a topology that never went
        // through `TopologyBuilder::build` is checked here too.
        topology.validate()?;
        let packing = config.packing.unwrap_or(PackingAlgorithm::RoundRobin {
            num_containers: (topology.total_instances() as usize).div_ceil(4).max(1),
        });
        let plan = packing.pack(&topology)?;

        let n_comps = topology.components.len();
        let n = topology.total_instances() as usize;

        // Instance table in flat (component, index) order — the same
        // iteration order as the reference kernel.
        let mut inst = InstanceTable {
            n,
            comp_idx: Vec::with_capacity(n),
            inst_idx: Vec::with_capacity(n),
            container: Vec::with_capacity(n),
            capacity: Vec::with_capacity(n),
            cpu_cores: Vec::with_capacity(n),
            cap_per_core: Vec::with_capacity(n),
            selectivity: Vec::with_capacity(n),
            gateway_overhead: Vec::with_capacity(n),
            fail_rate: Vec::with_capacity(n),
        };
        let mut inst_start = Vec::with_capacity(n_comps + 1);
        inst_start.push(0);
        for (comp_idx, comp) in topology.components.iter().enumerate() {
            let work = comp.kind.work();
            let capacity = work.capacity_per_core * comp.resources.cpu_cores;
            for inst_idx in 0..comp.parallelism {
                let container = plan
                    .container_of(&comp.name, inst_idx)
                    .expect("packing places every instance");
                inst.comp_idx.push(comp_idx as u32);
                inst.inst_idx.push(inst_idx);
                inst.container.push(container);
                inst.capacity.push(capacity);
                inst.cpu_cores.push(comp.resources.cpu_cores);
                inst.cap_per_core.push(capacity / comp.resources.cpu_cores);
                inst.selectivity.push(work.selectivity);
                inst.gateway_overhead.push(work.gateway_overhead);
                inst.fail_rate.push(work.fail_rate);
            }
            inst_start.push(inst.comp_idx.len());
        }

        // CSR edge/route tables. Edges are grouped per source component in
        // `topology.edges` order — the order the reference kernel's
        // per-component `Vec<EdgeRuntime>` preserves.
        let mut edges = EdgeTable {
            replicates: Vec::with_capacity(topology.edges.len()),
            tuple_bytes: Vec::with_capacity(topology.edges.len()),
            route_start: Vec::with_capacity(topology.edges.len() + 1),
            route_dst: Vec::new(),
            route_share: Vec::new(),
        };
        edges.route_start.push(0);
        let mut edge_start = Vec::with_capacity(n_comps + 1);
        edge_start.push(0);
        for comp_idx in 0..n_comps {
            for edge in topology.edges.iter().filter(|e| e.from == comp_idx) {
                let dst_lo = inst_start[edge.to];
                let dst_hi = inst_start[edge.to + 1];
                let shares = edge.grouping.shares(dst_hi - dst_lo);
                for (dst, share) in (dst_lo..dst_hi).zip(&shares) {
                    edges.route_dst.push(dst);
                    edges.route_share.push(*share);
                }
                edges.replicates.push(edge.grouping.replicates());
                edges.tuple_bytes.push(f64::from(
                    topology.components[comp_idx].kind.work().out_tuple_bytes,
                ));
                edges.route_start.push(edges.route_dst.len());
            }
            edge_start.push(edges.replicates.len());
        }

        let comps = ComponentTable {
            is_spout: topology
                .components
                .iter()
                .map(|c| c.kind.is_spout())
                .collect(),
            is_sink: (0..n_comps)
                .map(|c| edge_start[c] == edge_start[c + 1])
                .collect(),
            parallelism: topology
                .components
                .iter()
                .map(|c| f64::from(c.parallelism))
                .collect(),
            inst_start,
            edge_start,
            spout_comps: topology.spout_indices(),
        };

        let plan_containers = plan.num_containers();
        let stmgrs = if config.stmgr_capacity.is_some() {
            vec![StmgrState::sized(n); plan_containers]
        } else {
            Vec::new()
        };
        Ok(Self {
            plan,
            live: LiveState::zeroed(n),
            accum: MinuteAccum::zeroed(n),
            tracker: BackpressureTracker::new(config.watermarks),
            now_ticks: 0,
            spout_offered: vec![0.0; n_comps],
            emit_scratch: vec![0.0; n],
            bp_scratch: Vec::with_capacity(n),
            stmgrs,
            inst,
            comps,
            edges,
            topology,
            config,
            counters: TickCounters::default(),
            fluid: FluidState::Unbuilt,
        })
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The packing plan in effect.
    pub fn plan(&self) -> &PackingPlan {
        &self.plan
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> u64 {
        self.now_ticks / u64::from(self.config.ticks_per_second)
    }

    /// Cumulative ticks this simulation executed exactly (lifetime,
    /// surviving [`Simulation::reset_with`]).
    pub fn ticks_executed(&self) -> u64 {
        self.counters.exact.iter().sum()
    }

    /// Cumulative ticks executed exactly for `reason` (lifetime, like
    /// [`Simulation::ticks_executed`], which the reasons sum to).
    pub fn exact_ticks(&self, reason: ExactTickReason) -> u64 {
        self.counters.exact[reason as usize]
    }

    /// Cumulative ticks not executed exactly. Closed form is the only
    /// way the engine skips a tick, so this is
    /// [`Simulation::ticks_closed_form`] under the name that pairs with
    /// [`Simulation::ticks_executed`] (their sum is the simulated tick
    /// count).
    pub fn ticks_skipped(&self) -> u64 {
        self.counters.closed_form
    }

    /// Cumulative agenda events processed in event mode: per minute, the
    /// minute end, each rate-profile breakpoint tick, each closed-form
    /// span a crossing stopped, and each backoff falling due within the
    /// minute (lifetime, surviving [`Simulation::reset_with`]).
    pub fn sim_events(&self) -> u64 {
        self.counters.events
    }

    /// Cumulative ticks advanced in closed form by the event-driven core
    /// (lifetime, surviving [`Simulation::reset_with`]).
    pub fn ticks_closed_form(&self) -> u64 {
        self.counters.closed_form
    }

    /// Replaces the observation-noise seed for subsequent runs.
    pub fn set_seed(&mut self, seed: u64) {
        self.config.seed = seed;
    }

    /// Rewinds this simulation to the zero state of a freshly built one
    /// with `updates` applied and the spouts offering `rate_per_min`,
    /// reusing the flattened tables when no parallelism changed.
    ///
    /// Contract: after `reset_with`, runs are bit-identical to those of
    /// `Simulation::new(topo.with_parallelisms(updates)?.with_source_rate
    /// (rate_per_min)?, config)` with the current config (including any
    /// [`Simulation::set_seed`]). Only the clock, queues, accumulators,
    /// backpressure tracker and spout profiles are reset; the lifetime
    /// tick counters keep counting.
    pub fn reset_with(&mut self, updates: &[(&str, u32)], rate_per_min: f64) -> Result<()> {
        let topo = self.topology.with_parallelisms(updates)?;
        self.rewind_to(topo.with_source_rate(rate_per_min)?)
    }

    /// [`Simulation::reset_with`] with an arbitrary spout rate profile
    /// instead of a constant rate — the same bit-identity contract,
    /// against `Simulation::new(topo.with_parallelisms(updates)?
    /// .with_source_profile(profile)?, config)`.
    pub fn reset_with_profile(
        &mut self,
        updates: &[(&str, u32)],
        profile: &crate::profiles::RateProfile,
    ) -> Result<()> {
        let topo = self.topology.with_parallelisms(updates)?;
        self.rewind_to(topo.with_source_profile(profile)?)
    }

    /// Rewinds to the zero state of `topo` (which must differ from the
    /// current topology only in parallelisms and spout profiles),
    /// rebuilding the flattened tables only when parallelism changed.
    fn rewind_to(&mut self, topo: Topology) -> Result<()> {
        let parallelism_changed = topo
            .components
            .iter()
            .zip(&self.topology.components)
            .any(|(new, old)| new.parallelism != old.parallelism);
        if parallelism_changed {
            // Packing and routing change shape: rebuild the tables, but
            // keep the lifetime tick counters.
            let counters = self.counters;
            *self = Simulation::new(topo, self.config.clone())?;
            self.counters = counters;
            return Ok(());
        }
        self.topology = topo;
        self.fluid = match std::mem::take(&mut self.fluid) {
            FluidState::NonLinear(engine) | FluidState::Ready(engine) => FluidState::Stale(engine),
            unchanged => unchanged,
        };
        self.live.reset();
        self.accum.reset();
        for stmgr in &mut self.stmgrs {
            stmgr.reset();
        }
        self.tracker = BackpressureTracker::new(self.config.watermarks);
        self.now_ticks = 0;
        Ok(())
    }

    /// Moves the clock forward to `minute` (without simulating) so that a
    /// restarted topology records into a fresh time range — the paper
    /// emulates repeated observations "by restarting the topology and
    /// observing its throughput multiple times", and restarts never share
    /// wall-clock minutes.
    ///
    /// # Panics
    /// Panics if the clock is already past `minute`.
    pub fn skip_to_minute(&mut self, minute: u64) {
        let target = minute * 60 * u64::from(self.config.ticks_per_second);
        assert!(
            target >= self.now_ticks,
            "cannot move the clock backwards ({} -> {})",
            self.now_ticks,
            target
        );
        self.now_ticks = target;
    }

    /// True while backpressure is active.
    pub fn backpressure_active(&self) -> bool {
        self.tracker.active()
    }

    /// Advances one tick exactly, counted under `reason`. Allocation-free;
    /// arithmetic is bit-identical to the reference kernel (see module
    /// docs).
    ///
    /// The loop is organised for the optimiser rather than the reader:
    /// one sub-loop per component (so every per-component constant —
    /// capacity, selectivity, fail rate, edge range — is hoisted out of
    /// the per-instance body), with all hot columns rebound to local
    /// slices up front (distinct `&mut` borrows carry no-alias guarantees
    /// the per-field `self.x[i]` form loses). Every hoisted expression
    /// uses the same operands and operations as the reference kernel's
    /// per-instance form, so results stay bit-identical.
    fn tick(&mut self, reason: ExactTickReason) {
        let Simulation {
            topology,
            config,
            inst,
            comps,
            edges,
            live,
            accum,
            tracker,
            stmgrs,
            spout_offered,
            emit_scratch,
            bp_scratch,
            ..
        } = self;
        let bp = tracker.active();
        let dt = 1.0 / f64::from(config.ticks_per_second);
        let now_secs = self.now_ticks / u64::from(config.ticks_per_second);
        let finite_stmgr = config.stmgr_capacity.is_some();
        let base_cpu = BASE_CPU_OVERHEAD;
        let high_watermark = config.watermarks.high_bytes;
        let n = inst.n;

        // Per-tick spout offer, once per spout component. Same operands
        // and operations as the reference's per-instance computation, so
        // the hoisted value is bit-identical.
        for &c in &comps.spout_comps {
            if let ComponentKind::Spout { profile, .. } = &topology.components[c].kind {
                spout_offered[c] = profile.rate_at(now_secs) / comps.parallelism[c] * dt;
            }
        }

        let backlog = &mut live.backlog[..n];
        let queue_tuples = &mut live.queue_tuples[..n];
        let queue_bytes = &mut live.queue_bytes[..n];
        let incoming_tuples = &mut live.incoming_tuples[..n];
        let incoming_bytes = &mut live.incoming_bytes[..n];
        let acc_executed = &mut accum.executed[..n];
        let acc_emitted = &mut accum.emitted[..n];
        let acc_offered = &mut accum.offered[..n];
        let acc_cpu = &mut accum.cpu_core_seconds[..n];
        let emitted_now = &mut emit_scratch[..n];

        // Emissions staged into `incoming_*` buffers so routing happens
        // after all instances have run (simultaneous update). Earlier
        // instances' stagings are visible to later instances' pressure
        // reads, exactly as in the reference: instances run in flat
        // order, a component never routes to itself, and each component
        // runs a straight-line *compute* pass (vectorisable — stores its
        // emissions into `emitted_now`) before its *routing* pass, which
        // preserves the reference's visibility order.
        for (c, &comp_is_spout) in comps.is_spout.iter().enumerate() {
            let lo = comps.inst_start[c];
            let hi = comps.inst_start[c + 1];
            // Constants shared by every instance of the component.
            let capacity = inst.capacity[lo];
            let cap_dt = capacity * dt;
            let cap_per_core = inst.cap_per_core[lo];
            let cpu_cores = inst.cpu_cores[lo];
            let selectivity = inst.selectivity[lo];
            let one_minus_fail = 1.0 - inst.fail_rate[lo];
            let is_sink = comps.is_sink[c];

            // Compute pass.
            if comp_is_spout {
                let offered = spout_offered[c];
                if bp {
                    // Throttled: nothing emitted (so routing below would
                    // move zero mass — skipped outright), executed is 0,
                    // and the CPU term collapses to the constant
                    // `(base + 0/dt/cap).min(cores)`. Adding an exact 0.0
                    // to the non-negative accumulators is a bitwise
                    // no-op, so only `offered` and idle CPU are stored.
                    let idle_cpu_dt = (base_cpu + 0.0 / dt / cap_per_core).min(cpu_cores) * dt;
                    for flat in lo..hi {
                        backlog[flat] += offered;
                        acc_offered[flat] += offered;
                        acc_cpu[flat] += idle_cpu_dt;
                    }
                    continue;
                }
                for flat in lo..hi {
                    let backed = backlog[flat] + offered;
                    let emitted = backed.min(cap_dt);
                    backlog[flat] = backed - emitted;
                    emitted_now[flat] = emitted;
                    acc_executed[flat] += emitted;
                    acc_offered[flat] += offered;
                    let cpu = (base_cpu + emitted / dt / cap_per_core).min(cpu_cores);
                    acc_cpu[flat] += cpu * dt;
                }
            } else {
                let gateway = inst.gateway_overhead[lo];
                for flat in lo..hi {
                    // Gateway contention: the worker thread loses a small
                    // capacity fraction proportional to input pressure.
                    let queue = queue_tuples[flat];
                    let pressure = if queue > 0.0 {
                        1.0
                    } else {
                        (incoming_tuples[flat] / cap_dt).min(1.0)
                    };
                    let eff_capacity = capacity * (1.0 - gateway * pressure);
                    let processed = queue.min(eff_capacity * dt);
                    // Consume from the queue proportionally in bytes.
                    if processed > 0.0 {
                        let byte_ratio = queue_bytes[flat] / queue;
                        queue_tuples[flat] -= processed;
                        queue_bytes[flat] -= processed * byte_ratio;
                        if queue_tuples[flat] < 1e-9 {
                            queue_tuples[flat] = 0.0;
                            queue_bytes[flat] = 0.0;
                        }
                    }
                    emitted_now[flat] = processed * one_minus_fail;
                    acc_executed[flat] += processed;
                    let cpu = (base_cpu + processed / dt / cap_per_core).min(cpu_cores);
                    acc_cpu[flat] += cpu * dt;
                }
            }

            // Routing pass: move each instance's emissions downstream
            // through the CSR tables; live state and edge tables are
            // disjoint fields, so no `mem::take`. Sinks (no out edges)
            // still count their processed output, the way the paper
            // treats the Counter's processing throughput as the topology
            // output.
            if is_sink {
                for flat in lo..hi {
                    acc_emitted[flat] += emitted_now[flat];
                }
                continue;
            }
            let e_range = comps.edge_start[c]..comps.edge_start[c + 1];
            for flat in lo..hi {
                let mut total_emitted = 0.0;
                let container = inst.container[flat] as usize;
                let produced = emitted_now[flat] * selectivity;
                for e in e_range.clone() {
                    let tuple_bytes = edges.tuple_bytes[e];
                    let replicates = edges.replicates[e];
                    for r in edges.route_start[e]..edges.route_start[e + 1] {
                        let amount = if replicates {
                            produced
                        } else {
                            produced * edges.route_share[r]
                        };
                        if amount <= 0.0 {
                            continue;
                        }
                        let dst = edges.route_dst[r];
                        if finite_stmgr {
                            // Every tuple leaves through the local stream
                            // manager; remote hops are taken when
                            // forwarding.
                            stmgrs[container].enqueue(dst, amount, amount * tuple_bytes);
                        } else {
                            incoming_tuples[dst] += amount;
                            incoming_bytes[dst] += amount * tuple_bytes;
                        }
                        total_emitted += amount;
                    }
                }
                acc_emitted[flat] += total_emitted;
            }
        }

        // Stream-manager forwarding (finite-capacity mode): each stream
        // manager ships up to capacity*dt tuples this tick, split
        // proportionally across destinations. Remote deliveries hop into
        // the destination container's stream manager and spend its
        // capacity on a later tick, as in Heron's two-stmgr path.
        if let Some(capacity) = config.stmgr_capacity {
            for container in 0..stmgrs.len() {
                let total = stmgrs[container].total_tuples;
                if total <= 0.0 {
                    // `observe(_, 0.0)` only removes the id from the
                    // triggering set — a no-op while nothing triggers.
                    if tracker.active() {
                        tracker.observe(n + container, 0.0);
                    }
                    continue;
                }
                let ship = total.min(capacity * dt);
                let fraction = ship / total;
                let mut stmgr = std::mem::take(&mut stmgrs[container]);
                for dst in 0..n {
                    let tuples = stmgr.pending_tuples[dst] * fraction;
                    if tuples <= 0.0 {
                        continue;
                    }
                    let bytes = stmgr.pending_bytes[dst] * fraction;
                    stmgr.pending_tuples[dst] -= tuples;
                    stmgr.pending_bytes[dst] -= bytes;
                    stmgr.total_tuples -= tuples;
                    stmgr.total_bytes -= bytes;
                    let dst_container = inst.container[dst] as usize;
                    if dst_container == container {
                        incoming_tuples[dst] += tuples;
                        incoming_bytes[dst] += bytes;
                    } else {
                        stmgrs[dst_container].enqueue(dst, tuples, bytes);
                    }
                }
                // The stream manager's buffer participates in watermark
                // backpressure exactly like an instance queue (in Heron it
                // is in fact the stream manager that owns the buffers).
                if tracker.active() || stmgr.total_bytes > high_watermark {
                    tracker.observe(n + container, stmgr.total_bytes);
                }
                stmgrs[container] = stmgr;
            }
        }

        // Apply staged arrivals (vectorisable: independent columns plus a
        // running max, no calls) …
        let mut max_queue_bytes = 0.0f64;
        for flat in 0..n {
            queue_tuples[flat] += incoming_tuples[flat];
            let qb = queue_bytes[flat] + incoming_bytes[flat];
            queue_bytes[flat] = qb;
            incoming_tuples[flat] = 0.0;
            incoming_bytes[flat] = 0.0;
            max_queue_bytes = max_queue_bytes.max(qb);
        }
        // … then observe queues for backpressure. While nothing triggers,
        // `observe` can only matter by *inserting* (a queue over the high
        // watermark); every other call is a structural no-op on an empty
        // set. So unless something triggers or could start to, the whole
        // pass is skipped; otherwise every queue is observed in the
        // reference's order, keeping the tracker state identical tick
        // for tick.
        if tracker.active() || max_queue_bytes > high_watermark {
            for (flat, qb) in queue_bytes.iter().enumerate() {
                tracker.observe(flat, *qb);
            }
        }

        // Attribute backpressure time to the instances holding it (ids at
        // or beyond the instance count are stream managers; their
        // suppression time is visible through the spout throttling). The
        // triggering set is drained into a reused scratch buffer.
        if tracker.active() {
            bp_scratch.clear();
            bp_scratch.extend(tracker.triggering_instances());
            for &id in bp_scratch.iter() {
                if id < n {
                    accum.bp_ms[id] += 1000.0 * dt;
                }
            }
        }

        self.now_ticks += 1;
        self.counters.exact[reason as usize] += 1;
    }

    /// The fluid model of this simulation's tables, configured for its
    /// watermarks; `None` over the term budget.
    pub(crate) fn fluid_engine(&self) -> Option<FluidEngine> {
        let order = self.topology.topo_order();
        let mut engine = FluidEngine::build(&self.inst, &self.comps, &self.edges, &order)?;
        engine.configure(self.config.watermarks);
        Some(engine)
    }

    /// Brings the event-mode fluid model up to date with the tables and
    /// spout profiles. `false` when event mode cannot engage for this
    /// simulation: sub-second resolution, finite stream managers, a
    /// topology over the fluid term budget, or a spout profile that is
    /// not piecewise-linear.
    fn ensure_fluid(&mut self) -> bool {
        if self.config.ticks_per_second != 1 || self.config.stmgr_capacity.is_some() {
            return false;
        }
        let decompose = |mut engine: Box<FluidEngine>, topology: &Topology| {
            if engine.refresh_profiles(topology) {
                FluidState::Ready(engine)
            } else {
                FluidState::NonLinear(engine)
            }
        };
        self.fluid = match std::mem::take(&mut self.fluid) {
            FluidState::Unbuilt => match self.fluid_engine() {
                Some(engine) => decompose(Box::new(engine), &self.topology),
                None => FluidState::Ineligible,
            },
            FluidState::Stale(engine) => decompose(engine, &self.topology),
            settled => settled,
        };
        matches!(self.fluid, FluidState::Ready(_))
    }

    /// Advances one simulated minute in event mode. The minute's agenda
    /// is the sorted list of its rate-profile breakpoint ticks, each
    /// shifted by every pipeline delay; the engine alternates between
    /// closed-form spans and exact ticks, walking the agenda with a
    /// cursor.
    ///
    /// Without backpressure a span runs in closed form only when the
    /// live state passes the fluid model's entry probe and the span plan
    /// proves the relaxed regime holds up to the next agenda tick or the
    /// minute end; analytic saturation / watermark crossings truncate
    /// spans so the crossing tick itself always executes exactly (the
    /// backpressure tracker must observe it). Under backpressure a
    /// throttled-drain span runs up to the tick before the first
    /// watermark or saturation crossing (or the minute end), so onset and
    /// release ticks execute exactly too. A failed probe or drain plan
    /// backs off [`EVENT_RETRY_TICKS`] exact ticks.
    fn run_minute_with_events(&mut self, engine: &FluidEngine) {
        let minute_end = self.now_ticks + 60;
        let n = self.inst.n;
        let mut agenda = Vec::new();
        engine.for_each_breakpoint_event(self.now_ticks, minute_end, |tick| agenda.push(tick));
        agenda.sort_unstable();
        let mut cursor = 0;
        // The minute end and every breakpoint are events; so are, below,
        // each span a crossing stops and each backoff due by the minute
        // end.
        let mut events = 1 + agenda.len() as u64;
        // Relaxed entry backoff and why it was taken; drain backoff.
        let mut retry_at = 0u64;
        let mut retry_reason = ExactTickReason::ProbeRetry;
        let mut drain_retry_at = 0u64;
        while self.now_ticks < minute_end {
            let t0 = self.now_ticks;
            let reason = if self.tracker.active() {
                if t0 >= drain_retry_at {
                    let tracker = &self.tracker;
                    match engine.plan_drain(
                        t0,
                        minute_end,
                        &self.live.queue_tuples[..n],
                        &self.live.queue_bytes[..n],
                        |i| tracker.is_triggering(i),
                    ) {
                        Some(drain) if drain.ticks > 0 => {
                            engine.apply_drain(t0, &drain, &mut self.fluid_targets());
                            for id in self.tracker.triggering_instances().filter(|&id| id < n) {
                                self.accum.bp_ms[id] += 1000.0 * drain.ticks as f64;
                            }
                            self.now_ticks += drain.ticks;
                            self.counters.closed_form += drain.ticks;
                            continue;
                        }
                        // A crossing is due this tick: run it exactly.
                        Some(_) => {}
                        // Not a steady drain yet (pipeline converging
                        // after onset). Back off before replanning.
                        None => {
                            drain_retry_at = t0 + EVENT_RETRY_TICKS;
                            events += u64::from(drain_retry_at <= minute_end);
                        }
                    }
                }
                ExactTickReason::BackpressureEdge
            } else {
                if t0 >= retry_at {
                    if engine.entry_matches(
                        t0,
                        &self.live.queue_tuples,
                        &self.live.queue_bytes,
                        &self.live.backlog,
                    ) {
                        while agenda.get(cursor).is_some_and(|&tick| tick <= t0) {
                            cursor += 1;
                        }
                        let next = agenda.get(cursor).copied().unwrap_or(minute_end);
                        let stop = match engine.plan_span(t0, next) {
                            SpanPlan::Full => next,
                            SpanPlan::Stop { tick } => tick,
                        };
                        if stop > t0 {
                            engine.apply(t0, stop, &mut self.fluid_targets());
                            self.now_ticks = stop;
                            self.counters.closed_form += stop - t0;
                            events += u64::from(stop < next);
                            continue;
                        }
                        // Congested at the doorstep: the crossing tick is
                        // now. Run it (and a backoff window) exactly.
                        retry_reason = ExactTickReason::Crossing;
                    } else {
                        // Entry probe failed: live state still converging
                        // toward the model (pipeline refill).
                        retry_reason = ExactTickReason::ProbeRetry;
                    }
                    retry_at = t0 + EVENT_RETRY_TICKS;
                    events += u64::from(retry_at <= minute_end);
                }
                retry_reason
            };
            self.tick(reason);
        }
        self.counters.events += events;
    }

    /// The accumulators and live queues a closed-form span advances.
    fn fluid_targets(&mut self) -> FluidTargets<'_> {
        let n = self.inst.n;
        FluidTargets {
            executed: &mut self.accum.executed[..n],
            emitted: &mut self.accum.emitted[..n],
            offered: &mut self.accum.offered[..n],
            cpu_core_seconds: &mut self.accum.cpu_core_seconds[..n],
            queue_tuples: &mut self.live.queue_tuples[..n],
            queue_bytes: &mut self.live.queue_bytes[..n],
            backlog: &mut self.live.backlog[..n],
        }
    }

    /// Advances one simulated minute: against its agenda when
    /// [`SimConfig::event_mode`] is on and the fluid model applies,
    /// otherwise `60 · ticks_per_second` exact ticks.
    fn advance_minute(&mut self) {
        let reason = if self.config.event_mode {
            if self.ensure_fluid() {
                let FluidState::Ready(engine) = std::mem::take(&mut self.fluid) else {
                    unreachable!("ensure_fluid returned true");
                };
                self.run_minute_with_events(&engine);
                self.fluid = FluidState::Ready(engine);
                return;
            }
            ExactTickReason::Ineligible
        } else {
            ExactTickReason::ExactMode
        };
        for _ in 0..60 * u64::from(self.config.ticks_per_second) {
            self.tick(reason);
        }
    }

    fn noise(&self, salt: u64) -> f64 {
        if self.config.metric_noise == 0.0 {
            return 1.0;
        }
        let h = hash64(self.config.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        1.0 + self.config.metric_noise * 2.0 * unit
    }

    /// Resolves every series handle a flushed row writes to, in row
    /// order, with a block sized for `minutes` rows (at most one chunk).
    /// One catalog pass per run; the flush loop itself is catalog- and
    /// lock-free. Registration order matches the reference kernel's so
    /// both assign identical series ids.
    fn register_sink(&self, metrics: &SimMetrics, minutes: u64) -> SinkHandles {
        let mut handles = Vec::with_capacity(self.inst.n * 5);
        for flat in 0..self.inst.n {
            let comp = &self.topology.components[self.inst.comp_idx[flat] as usize];
            let instance = metrics.register_instance(
                &comp.name,
                self.inst.inst_idx[flat],
                self.inst.container[flat],
                comp.kind.is_spout(),
            );
            handles.extend([
                instance.execute,
                instance.emit,
                instance.cpu,
                instance.backpressure,
            ]);
            handles.extend(instance.offered);
        }
        let rows = (minutes as usize).min(DEFAULT_CHUNK_SIZE);
        SinkHandles {
            minutes: Vec::with_capacity(rows),
            block: Vec::with_capacity(rows * handles.len()),
            samples: Vec::with_capacity(rows),
            handles,
        }
    }

    /// Appends the minute ending now to `row`: per instance, in
    /// `register_sink` order, execute, emit, CPU, backpressure and, for
    /// spouts, offered load. The accumulators are read in place (they
    /// are split from the live queue state) and zeroed for the next
    /// minute.
    fn flush_minute(&mut self, row: &mut Vec<f64>) {
        let minute = self.now_secs() / 60;
        for flat in 0..self.inst.n {
            let salt = ((flat as u64) << 32) | minute;

            let executed = self.accum.executed[flat] * self.noise(salt ^ (1 << 17));
            let emitted = self.accum.emitted[flat] * self.noise(salt ^ (2 << 17));
            let cpu = self.accum.cpu_core_seconds[flat] / 60.0 * self.noise(salt ^ (3 << 17));
            row.extend([executed, emitted, cpu, self.accum.bp_ms[flat].min(60_000.0)]);
            if self.comps.is_spout[self.inst.comp_idx[flat] as usize] {
                row.push(self.accum.offered[flat]);
            }

            self.accum.executed[flat] = 0.0;
            self.accum.emitted[flat] = 0.0;
            self.accum.offered[flat] = 0.0;
            self.accum.bp_ms[flat] = 0.0;
            self.accum.cpu_core_seconds[flat] = 0.0;
        }
    }

    /// Runs `body` as one `sim.run` span over `minutes` simulated
    /// minutes, then adds the events, closed-form ticks and exact ticks
    /// by reason it took to the process-wide sim counters and to the
    /// span. Recorded and totals runs both go through here, so the two
    /// are observed alike.
    fn observed<R>(&mut self, minutes: u64, body: impl FnOnce(&mut Self) -> R) -> R {
        let mut span = caladrius_obs::global_span("sim.run");
        span.field("topology", &self.topology.name)
            .field("minutes", minutes);
        let before = self.counters;
        let out = body(self);
        let events = self.counters.events - before.events;
        let closed_form = self.counters.closed_form - before.closed_form;
        let counters = sim_counters();
        counters.events.add(events);
        counters.ticks_closed_form.add(closed_form);
        span.field("sim_events", events)
            .field("ticks_closed_form", closed_form);
        // One field for the whole split, naming only the reasons that
        // occurred: the trace ring retains thousands of these spans.
        let mut split = String::new();
        for reason in ExactTickReason::ALL {
            let ticks = self.counters.exact[reason as usize] - before.exact[reason as usize];
            counters.ticks[reason as usize].add(ticks);
            if ticks > 0 {
                let sep = if split.is_empty() { "" } else { " " };
                let _ = write!(split, "{sep}{}={ticks}", reason.label());
            }
        }
        if !split.is_empty() {
            span.field("exact_ticks", split);
        }
        out
    }

    /// Runs `minutes` simulated minutes, recording metrics into `metrics`.
    ///
    /// Series handles are resolved once, at the top of the run. Each
    /// minute is one row of a block that is committed to the store, one
    /// [`caladrius_tsdb::MetricsDb::append_series`] call per series,
    /// whenever it holds a whole chunk and at the end of the run. The
    /// stored chunks are byte-identical to per-minute ingestion.
    pub fn run_minutes_into(&mut self, minutes: u64, metrics: &SimMetrics) {
        self.observed(minutes, |sim| {
            let minute_hist = sim_minute_histogram();
            let db = metrics.db();
            let mut sink = sim.register_sink(metrics, minutes);
            for _ in 0..minutes {
                let started = Instant::now();
                sim.advance_minute();
                sink.minutes.push((sim.now_secs() * 1000) as i64 - 60_000);
                sim.flush_minute(&mut sink.block);
                minute_hist.record_duration(started.elapsed());
                if sink.minutes.len() == DEFAULT_CHUNK_SIZE {
                    sink.seal(&db);
                }
            }
            sink.seal(&db);
        });
    }

    /// Runs `minutes` simulated minutes into a fresh metrics store and
    /// returns it.
    pub fn run_minutes(&mut self, minutes: u64) -> SimMetrics {
        let metrics = SimMetrics::new(self.topology.name.clone());
        self.run_minutes_into(minutes, &metrics);
        metrics
    }

    /// Runs `warmup` unrecorded minutes, then `minutes` measured ones,
    /// and returns each measured minute's per-component totals without
    /// recording anything.
    ///
    /// A measured minute's totals are read off the row a recorded run
    /// would store, each component's instances added in the store's key
    /// order: the bits [`SimMetrics::component_sum`] would return for
    /// those minutes after
    /// [`Simulation::run_minutes_into`]`(warmup + minutes)`. The run is
    /// observed as that recorded run would be: one `sim.run` span over
    /// `warmup + minutes` minutes, the same sim counters, and one
    /// `caladrius_sim_minute_duration_seconds` observation per minute.
    pub fn run_component_totals(&mut self, warmup: u64, minutes: u64) -> ComponentTotals {
        // Per component, its instances' row offsets in key order.
        let n_comps = self.topology.components.len();
        let mut order: Vec<Vec<(u32, u32, usize)>> = vec![Vec::new(); n_comps];
        let mut width = 0;
        for flat in 0..self.inst.n {
            let comp = self.inst.comp_idx[flat] as usize;
            order[comp].push((self.inst.inst_idx[flat], self.inst.container[flat], width));
            width += if self.comps.is_spout[comp] { 5 } else { 4 };
        }
        for (comp, instances) in self.topology.components.iter().zip(&mut order) {
            SimMetrics::sort_in_key_order(&comp.name, instances);
        }
        let mut totals = ComponentTotals {
            backpressure_ms: vec![Vec::with_capacity(minutes as usize); n_comps],
            executed: vec![Vec::with_capacity(minutes as usize); n_comps],
        };
        let mut row = Vec::with_capacity(width);
        self.observed(warmup + minutes, |sim| {
            let minute_hist = sim_minute_histogram();
            for minute in 0..warmup + minutes {
                let started = Instant::now();
                sim.advance_minute();
                if minute < warmup {
                    sim.accum.reset();
                } else {
                    row.clear();
                    sim.flush_minute(&mut row);
                    for (comp, instances) in order.iter().enumerate() {
                        let sum = |field: usize| {
                            instances
                                .iter()
                                .map(|&(_, _, offset)| row[offset + field])
                                .sum::<f64>()
                        };
                        totals.executed[comp].push(sum(0));
                        totals.backpressure_ms[comp].push(sum(3));
                    }
                }
                minute_hist.record_duration(started.elapsed());
            }
        });
        totals
    }

    /// Runs `minutes` simulated minutes without recording anything —
    /// the paper's "allowed to run ... to attain steady state before
    /// measurements were retrieved". Each minute's accumulators are
    /// zeroed where a recorded minute would flush them; nothing else
    /// differs from a recorded run.
    pub fn warmup_minutes(&mut self, minutes: u64) {
        for _ in 0..minutes {
            self.advance_minute();
            self.accum.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::metrics::metric;
    use crate::profiles::RateProfile;
    use crate::topology::{TopologyBuilder, WorkProfile};
    use caladrius_tsdb::Aggregation;

    /// WordCount with per-instance splitter capacity `cap` sentences/sec
    /// and offered load `rate` sentences/sec.
    fn wordcount(rate: f64, splitter_p: u32, splitter_cap: f64) -> Topology {
        TopologyBuilder::new("wc")
            .spout("spout", 8, RateProfile::constant(rate), 60)
            .bolt(
                "splitter",
                splitter_p,
                WorkProfile::new(splitter_cap, 7.63, 8).with_gateway_overhead(0.0),
            )
            .bolt("counter", 3, WorkProfile::new(1.0e9, 1.0, 16))
            .edge("spout", "splitter", Grouping::shuffle())
            .edge("splitter", "counter", Grouping::fields_uniform())
            .build()
            .unwrap()
    }

    fn quiet() -> SimConfig {
        SimConfig {
            metric_noise: 0.0,
            ..SimConfig::default()
        }
    }

    fn mean_of(samples: &[caladrius_tsdb::Sample]) -> f64 {
        Aggregation::Mean.apply(samples.iter().map(|s| s.value))
    }

    #[test]
    fn below_saturation_output_tracks_input_times_alpha() {
        // Offered 1000 sentences/s, splitter capacity 5000/s: no saturation.
        let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
        sim.warmup_minutes(2);
        let metrics = sim.run_minutes(5);
        let input =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));
        let output =
            mean_of(&metrics.component_sum(metric::EMIT_COUNT, Some("splitter"), 0, i64::MAX));
        let expected_in = 1000.0 * 60.0;
        assert!(
            (input - expected_in).abs() / expected_in < 0.01,
            "input {input}"
        );
        assert!(
            (output / input - 7.63).abs() < 0.01,
            "alpha {}",
            output / input
        );
        assert!(!sim.backpressure_active());
    }

    #[test]
    fn above_saturation_backpressure_caps_throughput() {
        // Offered 8000/s, capacity 5000/s: must saturate.
        let mut sim = Simulation::new(wordcount(8000.0, 1, 5000.0), quiet()).unwrap();
        sim.warmup_minutes(10);
        let metrics = sim.run_minutes(10);
        let input =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));
        // Input throughput over a minute hovers around capacity.
        let cap_per_min = 5000.0 * 60.0;
        assert!(
            (input - cap_per_min).abs() / cap_per_min < 0.08,
            "saturated input {input} vs capacity {cap_per_min}"
        );
        // Backpressure time accrues on the splitter instance.
        let bp = mean_of(&metrics.component_sum(
            metric::BACKPRESSURE_TIME,
            Some("splitter"),
            0,
            i64::MAX,
        ));
        assert!(
            bp > 30_000.0,
            "expected most of each minute in backpressure, got {bp} ms"
        );
    }

    #[test]
    fn no_backpressure_below_saturation() {
        let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
        let metrics = sim.run_minutes(5);
        let bp = metrics.component_sum(metric::BACKPRESSURE_TIME, None, 0, i64::MAX);
        assert!(bp.iter().all(|s| s.value == 0.0));
    }

    #[test]
    fn offered_load_recorded_even_under_backpressure() {
        // Small watermarks keep the throttle/drain cycle short so the duty
        // cycle reaches steady state within the simulated window.
        let cfg = SimConfig {
            watermarks: WatermarkConfig {
                high_bytes: 600_000.0,
                low_bytes: 300_000.0,
            },
            metric_noise: 0.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(wordcount(8000.0, 1, 5000.0), cfg).unwrap();
        sim.warmup_minutes(5);
        let metrics = sim.run_minutes(5);
        let offered =
            mean_of(&metrics.component_sum(metric::SOURCE_OFFERED, Some("spout"), 0, i64::MAX));
        let expected = 8000.0 * 60.0;
        assert!((offered - expected).abs() / expected < 1e-6);
        let emitted =
            mean_of(&metrics.component_sum(metric::EMIT_COUNT, Some("spout"), 0, i64::MAX));
        assert!(
            emitted < offered * 0.8,
            "spout must be throttled: {emitted} vs {offered}"
        );
    }

    #[test]
    fn doubling_parallelism_doubles_saturation_throughput() {
        let mut sat1 = Simulation::new(wordcount(20_000.0, 1, 5000.0), quiet()).unwrap();
        sat1.warmup_minutes(10);
        let m1 = sat1.run_minutes(10);
        let in1 = mean_of(&m1.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));

        let mut sat2 = Simulation::new(wordcount(20_000.0, 2, 5000.0), quiet()).unwrap();
        sat2.warmup_minutes(10);
        let m2 = sat2.run_minutes(10);
        let in2 = mean_of(&m2.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));

        let ratio = in2 / in1;
        assert!((ratio - 2.0).abs() < 0.15, "scaling ratio {ratio}");
    }

    #[test]
    fn cpu_load_scales_with_input_and_caps_at_allocation() {
        let low = {
            let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
            sim.warmup_minutes(2);
            let m = sim.run_minutes(5);
            mean_of(&m.component_sum(metric::CPU_LOAD, Some("splitter"), 0, i64::MAX))
        };
        let high = {
            let mut sim = Simulation::new(wordcount(4000.0, 1, 5000.0), quiet()).unwrap();
            sim.warmup_minutes(2);
            let m = sim.run_minutes(5);
            mean_of(&m.component_sum(metric::CPU_LOAD, Some("splitter"), 0, i64::MAX))
        };
        let saturated = {
            let mut sim = Simulation::new(wordcount(50_000.0, 1, 5000.0), quiet()).unwrap();
            sim.warmup_minutes(5);
            let m = sim.run_minutes(5);
            mean_of(&m.component_sum(metric::CPU_LOAD, Some("splitter"), 0, i64::MAX))
        };
        assert!(low < high, "cpu must grow with input ({low} < {high})");
        // Roughly linear: 4x input => ~4x the dynamic part.
        let dynamic_ratio = (high - 0.05) / (low - 0.05);
        assert!(
            (dynamic_ratio - 4.0).abs() < 0.5,
            "dynamic cpu ratio {dynamic_ratio}"
        );
        assert!(
            saturated <= 1.0 + 1e-9,
            "cpu capped at 1 core, got {saturated}"
        );
    }

    #[test]
    fn mass_conservation_spout_to_splitter() {
        let mut sim = Simulation::new(wordcount(2000.0, 2, 5000.0), quiet()).unwrap();
        sim.warmup_minutes(3);
        let metrics = sim.run_minutes(10);
        let spout_out =
            mean_of(&metrics.component_sum(metric::EMIT_COUNT, Some("spout"), 0, i64::MAX));
        let splitter_in =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));
        assert!(
            (spout_out - splitter_in).abs() / spout_out < 0.01,
            "what the spout emits, the splitter processes: {spout_out} vs {splitter_in}"
        );
    }

    #[test]
    fn shuffle_spreads_evenly_fields_by_shares() {
        let mut sim = Simulation::new(wordcount(3000.0, 2, 5000.0), quiet()).unwrap();
        sim.warmup_minutes(3);
        let metrics = sim.run_minutes(5);
        let per_inst = metrics.per_instance(metric::EXECUTE_COUNT, "splitter", 0, i64::MAX);
        assert_eq!(per_inst.len(), 2);
        let a = mean_of(&per_inst[0].1);
        let b = mean_of(&per_inst[1].1);
        assert!(
            (a - b).abs() / a < 0.01,
            "shuffle must split evenly: {a} vs {b}"
        );
    }

    #[test]
    fn failed_tuples_reduce_emissions() {
        let topo = TopologyBuilder::new("f")
            .spout("s", 1, RateProfile::constant(1000.0), 60)
            .bolt(
                "b",
                1,
                WorkProfile::new(10_000.0, 1.0, 8)
                    .with_gateway_overhead(0.0)
                    .with_fail_rate(0.25),
            )
            .edge("s", "b", Grouping::shuffle())
            .build()
            .unwrap();
        let mut sim = Simulation::new(topo, quiet()).unwrap();
        sim.warmup_minutes(2);
        let metrics = sim.run_minutes(5);
        let executed =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("b"), 0, i64::MAX));
        let emitted = mean_of(&metrics.component_sum(metric::EMIT_COUNT, Some("b"), 0, i64::MAX));
        // A 1:1 bolt: every executed tuple is either emitted or failed.
        let fail_rate = 1.0 - emitted / executed;
        assert!((fail_rate - 0.25).abs() < 0.01);
    }

    #[test]
    fn clock_advances_and_runs_continue() {
        let mut sim = Simulation::new(wordcount(100.0, 1, 5000.0), quiet()).unwrap();
        assert_eq!(sim.now_secs(), 0);
        let metrics = SimMetrics::new("wc");
        sim.run_minutes_into(2, &metrics);
        assert_eq!(sim.now_secs(), 120);
        sim.run_minutes_into(1, &metrics);
        assert_eq!(sim.now_secs(), 180);
        // Three distinct minutes recorded for the spout instance.
        let series = metrics.instance_series(metric::EMIT_COUNT, "spout", 0, 0, i64::MAX);
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[1].ts - w[0].ts == 60_000));
    }

    #[test]
    fn component_totals_equal_the_recorded_component_sums() {
        // 14 splitters: instance tags "10".."13" sort before "2", so key
        // order is not flat order. Noisy, and saturated into
        // backpressure, so every total is order-sensitive.
        let topo = wordcount(10.0e6, 14, 8.0e4);
        let (warmup, minutes) = (3, 12);
        let mut recorded = Simulation::new(topo.clone(), SimConfig::default()).unwrap();
        let metrics = recorded.run_minutes(warmup + minutes);
        let mut totalled = Simulation::new(topo.clone(), SimConfig::default()).unwrap();
        let totals = totalled.run_component_totals(warmup, minutes);
        let from = (warmup * 60_000) as i64;
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut backpressured = false;
        for (idx, comp) in topo.components.iter().enumerate() {
            for (name, totals) in [
                (metric::EXECUTE_COUNT, &totals.executed[idx]),
                (metric::BACKPRESSURE_TIME, &totals.backpressure_ms[idx]),
            ] {
                let stored: Vec<f64> = metrics
                    .component_sum(name, Some(&comp.name), from, i64::MAX)
                    .iter()
                    .map(|s| s.value)
                    .collect();
                assert_eq!(stored.len(), minutes as usize);
                assert_eq!(bits(totals), bits(&stored), "{} {name}", comp.name);
                backpressured |=
                    name == metric::BACKPRESSURE_TIME && stored.iter().any(|&v| v > 0.0);
            }
        }
        assert!(backpressured, "the run never backpressured");
        assert_eq!(totalled.now_secs(), recorded.now_secs());
        assert_eq!(totalled.sim_events(), recorded.sim_events());
        for reason in ExactTickReason::ALL {
            assert_eq!(totalled.exact_ticks(reason), recorded.exact_ticks(reason));
        }
    }

    #[test]
    fn metric_noise_produces_variation_deterministically() {
        let cfg = SimConfig {
            metric_noise: 0.01,
            seed: 7,
            ..SimConfig::default()
        };
        let mut a = Simulation::new(wordcount(1000.0, 1, 5000.0), cfg.clone()).unwrap();
        let mut b = Simulation::new(wordcount(1000.0, 1, 5000.0), cfg).unwrap();
        let ma = a.run_minutes(5);
        let mb = b.run_minutes(5);
        let sa = ma.instance_series(metric::EXECUTE_COUNT, "splitter", 0, 0, i64::MAX);
        let sb = mb.instance_series(metric::EXECUTE_COUNT, "splitter", 0, 0, i64::MAX);
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.value, y.value, "same seed, same observations");
        }
        // And the noise actually varies across minutes.
        let distinct: std::collections::BTreeSet<u64> =
            sa.iter().map(|s| s.value.to_bits()).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn invalid_config_rejected() {
        let topo = wordcount(1.0, 1, 1.0);
        let cfg = SimConfig {
            metric_noise: 0.9,
            ..SimConfig::default()
        };
        assert!(Simulation::new(topo.clone(), cfg).is_err());
        let cfg = SimConfig {
            watermarks: WatermarkConfig {
                high_bytes: 1.0,
                low_bytes: 2.0,
            },
            ..SimConfig::default()
        };
        assert!(Simulation::new(topo, cfg).is_err());
    }

    #[test]
    fn inputs_that_would_poison_metrics_are_typed_errors() {
        // Each bad profile, through every entry point that accepts one:
        // the builder, `with_source_profile`, and `Simulation::new` on a
        // topology whose public fields were edited after building.
        let bad_profiles = [
            ("NaN constant", RateProfile::constant(f64::NAN)),
            ("negative constant", RateProfile::constant(-1.0)),
            ("infinite constant", RateProfile::constant(f64::INFINITY)),
            (
                "NaN step",
                RateProfile::Steps {
                    initial: 10.0,
                    steps: vec![(60, f64::NAN)],
                },
            ),
            (
                "steps out of order",
                RateProfile::Steps {
                    initial: 10.0,
                    steps: vec![(120, 20.0), (60, 30.0)],
                },
            ),
            (
                "negative ramp",
                RateProfile::Ramp {
                    from: -5.0,
                    to: 10.0,
                    duration_secs: 60,
                },
            ),
            (
                "knots out of order",
                RateProfile::PiecewiseLinear {
                    points: vec![(0, 10.0), (600, 20.0), (300, 15.0)],
                },
            ),
            (
                "infinite knot",
                RateProfile::PiecewiseLinear {
                    points: vec![(0, 10.0), (600, f64::INFINITY)],
                },
            ),
            (
                "NaN seasonal amplitude",
                RateProfile::Seasonal {
                    base: 10.0,
                    daily_amplitude: f64::NAN,
                    weekend_delta: 0.0,
                    noise: 0.0,
                    seed: 1,
                },
            ),
        ];
        for (case, profile) in bad_profiles {
            assert!(
                matches!(
                    wordcount_profiled(RateProfile::constant(1.0), 5000.0)
                        .with_source_profile(&profile),
                    Err(SimError::InvalidConfig(_))
                ),
                "{case}: with_source_profile"
            );
            let built = TopologyBuilder::new("bad")
                .spout("spout", 1, profile.clone(), 60)
                .bolt("sink", 1, WorkProfile::new(1000.0, 1.0, 8))
                .edge("spout", "sink", Grouping::shuffle())
                .build();
            assert!(
                matches!(built, Err(SimError::InvalidTopology(_))),
                "{case}: build"
            );
            let mut edited = wordcount(1000.0, 1, 5000.0);
            if let ComponentKind::Spout { profile: p, .. } = &mut edited.components[0].kind {
                *p = profile;
            }
            assert!(
                matches!(
                    Simulation::new(edited, quiet()),
                    Err(SimError::InvalidTopology(_))
                ),
                "{case}: Simulation::new"
            );
        }

        // A NaN CPU request, built and edited in.
        let nan_cpu = TopologyBuilder::new("bad")
            .spout("spout", 1, RateProfile::constant(1.0), 60)
            .bolt_with(
                "sink",
                1,
                WorkProfile::new(1000.0, 1.0, 8),
                crate::topology::Resources {
                    cpu_cores: f64::NAN,
                    ram_mb: 1024,
                },
            )
            .edge("spout", "sink", Grouping::shuffle())
            .build();
        assert!(matches!(nan_cpu, Err(SimError::InvalidTopology(_))));
        let mut edited = wordcount(1000.0, 1, 5000.0);
        edited.components[1].resources.cpu_cores = f64::NAN;
        assert!(matches!(
            Simulation::new(edited, quiet()),
            Err(SimError::InvalidTopology(_))
        ));

        // A NaN noise level.
        let cfg = SimConfig {
            metric_noise: f64::NAN,
            ..SimConfig::default()
        };
        assert!(matches!(
            Simulation::new(wordcount(1000.0, 1, 5000.0), cfg),
            Err(SimError::InvalidConfig(_))
        ));

        // Equal step / knot times stay legal (the later entry wins).
        let ties = RateProfile::PiecewiseLinear {
            points: vec![(0, 10.0), (300, 20.0), (300, 5.0)],
        };
        assert!(wordcount(1000.0, 1, 5000.0)
            .with_source_profile(&ties)
            .is_ok());
    }

    #[test]
    fn hand_built_topologies_are_validated_by_simulation_new() {
        // `Topology`'s fields are public: each bad shape below skips the
        // builder and must still be refused with a typed error.
        let base = TopologyBuilder::new("shapes")
            .spout("s1", 1, RateProfile::constant(100.0), 60)
            .spout("s2", 1, RateProfile::constant(100.0), 60)
            .bolt("b", 1, WorkProfile::new(1000.0, 1.0, 8))
            .bolt("c", 1, WorkProfile::new(1000.0, 1.0, 8))
            .edge("s1", "b", Grouping::shuffle())
            .edge("s2", "b", Grouping::shuffle())
            .edge("b", "c", Grouping::shuffle())
            .build()
            .unwrap();
        let edge = |from, to| crate::topology::EdgeSpec {
            from,
            to,
            grouping: Grouping::shuffle(),
        };
        let cases = [
            (
                "an out-of-range edge",
                vec![edge(0, 2), edge(1, 2), edge(2, 3), edge(2, 9)],
            ),
            (
                "a cycle",
                vec![edge(0, 2), edge(1, 2), edge(2, 3), edge(3, 2)],
            ),
            (
                "a stream into a spout",
                vec![edge(0, 2), edge(2, 3), edge(3, 1)],
            ),
            ("a bolt no spout reaches", vec![edge(0, 2), edge(1, 2)]),
        ];
        for (shape, edges) in cases {
            let topology = Topology {
                edges,
                ..base.clone()
            };
            assert!(
                matches!(
                    Simulation::new(topology, quiet()),
                    Err(SimError::InvalidTopology(_))
                ),
                "{shape}"
            );
        }
    }

    #[test]
    fn transparent_stream_managers_by_default() {
        let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
        assert!(sim.stmgrs.is_empty());
        sim.warmup_minutes(1);
    }

    #[test]
    fn finite_stmgr_capacity_caps_throughput() {
        // Instances could process 5000/s each, but everything is packed on
        // ONE container whose stream manager routes at most 3000 tuples/s.
        // Each spout tuple is routed once to the splitter and its 7.63
        // words once more to the counter, so the stream manager saturates
        // long before the instances do.
        let cfg = SimConfig {
            metric_noise: 0.0,
            packing: Some(PackingAlgorithm::RoundRobin { num_containers: 1 }),
            stmgr_capacity: Some(3_000.0),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(wordcount(2000.0, 1, 5000.0), cfg).unwrap();
        sim.warmup_minutes(20);
        let metrics = sim.run_minutes(10);
        let splitter_in =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX));
        // Unthrottled the splitter would see 2000/s = 120k/min; the shared
        // stream manager (sentences + words) limits it to roughly
        // 3000/(1+7.63)/s ≈ 348/s ≈ 20.9k/min.
        let counter_in =
            mean_of(&metrics.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX));
        // Conservation: with one container, every tuple the splitter and
        // counter execute crossed the one stream manager, which routes
        // exactly its capacity (the bolts drain their queues every tick).
        let routed = splitter_in + counter_in;
        assert!(
            (routed - 3_000.0 * 60.0).abs() < 1e-6,
            "stream manager must route at capacity, got {routed}/min"
        );
        // The splitter's unthrottled input would be 2000/s = 120k/min;
        // sharing one 3000/s stream manager with its own 7.63x word
        // volume must cut it drastically. (The exact split depends on the
        // watermark duty cycle, not on naive flow balance.)
        assert!(
            splitter_in < 120_000.0 * 0.4,
            "stmgr-bound input {splitter_in:.0}/min should be well below the unthrottled 120k"
        );
        // And the throttling shows up as backpressure (spouts suppressed).
        let offered =
            mean_of(&metrics.component_sum(metric::SOURCE_OFFERED, Some("spout"), 0, i64::MAX));
        let spout_out =
            mean_of(&metrics.component_sum(metric::EMIT_COUNT, Some("spout"), 0, i64::MAX));
        assert!(
            spout_out < offered * 0.5,
            "spouts must be throttled by the stream manager"
        );
    }

    #[test]
    fn ample_stmgr_capacity_matches_transparent_mode() {
        let transparent = {
            let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
            sim.warmup_minutes(3);
            let m = sim.run_minutes(5);
            mean_of(&m.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX))
        };
        let modelled = {
            let cfg = SimConfig {
                metric_noise: 0.0,
                stmgr_capacity: Some(1.0e9),
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), cfg).unwrap();
            sim.warmup_minutes(3);
            let m = sim.run_minutes(5);
            mean_of(&m.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX))
        };
        assert!(
            (transparent - modelled).abs() / transparent < 0.02,
            "with ample capacity the queue path must match: {transparent} vs {modelled}"
        );
    }

    #[test]
    fn invalid_stmgr_capacity_rejected() {
        let cfg = SimConfig {
            stmgr_capacity: Some(0.0),
            ..SimConfig::default()
        };
        assert!(Simulation::new(wordcount(1.0, 1, 1.0), cfg).is_err());
        let cfg = SimConfig {
            stmgr_capacity: Some(f64::NAN),
            ..SimConfig::default()
        };
        assert!(Simulation::new(wordcount(1.0, 1, 1.0), cfg).is_err());
    }

    #[test]
    fn backpressure_oscillation_drains_and_refills() {
        // Capacity 5k/s, offered 7k/s, tiny watermarks so cycles are fast.
        let cfg = SimConfig {
            watermarks: WatermarkConfig {
                high_bytes: 600_000.0,
                low_bytes: 300_000.0,
            },
            metric_noise: 0.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(wordcount(7000.0, 1, 5000.0), cfg).unwrap();
        let mut states = Vec::new();
        for _ in 0..600 {
            sim.tick(ExactTickReason::ExactMode);
            states.push(sim.backpressure_active());
        }
        let transitions = states.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            transitions >= 4,
            "expected on/off oscillation, got {transitions} transitions"
        );
    }

    #[test]
    fn reset_with_matches_fresh_simulation() {
        let base = wordcount(1000.0, 2, 5000.0);
        let cfg = SimConfig {
            metric_noise: 0.01,
            seed: 11,
            ..SimConfig::default()
        };
        // Dirty the simulation, then reset to a new rate + parallelism.
        let mut reused = Simulation::new(base.clone(), cfg.clone()).unwrap();
        reused.warmup_minutes(3);
        reused
            .reset_with(&[("splitter", 3), ("counter", 3)], 90_000.0)
            .unwrap();
        let m_reused = reused.run_minutes(4);

        let fresh_topo = base
            .with_parallelisms(&[("splitter", 3), ("counter", 3)])
            .unwrap()
            .with_source_rate(90_000.0)
            .unwrap();
        let mut fresh = Simulation::new(fresh_topo, cfg.clone()).unwrap();
        let m_fresh = fresh.run_minutes(4);

        for name in [metric::EXECUTE_COUNT, metric::EMIT_COUNT, metric::CPU_LOAD] {
            let a = m_reused.component_sum(name, None, 0, i64::MAX);
            let b = m_fresh.component_sum(name, None, 0, i64::MAX);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{name} diverged");
            }
        }

        // Same-parallelism reset takes the table-reuse path and must be
        // equally bit-identical.
        reused.reset_with(&[("splitter", 3)], 120_000.0).unwrap();
        let m2 = reused.run_minutes(2);
        let fresh2_topo = base
            .with_parallelisms(&[("splitter", 3), ("counter", 3)])
            .unwrap()
            .with_source_rate(120_000.0)
            .unwrap();
        let mut fresh2 = Simulation::new(fresh2_topo, cfg).unwrap();
        let f2 = fresh2.run_minutes(2);
        let a = m2.component_sum(metric::EXECUTE_COUNT, None, 0, i64::MAX);
        let b = f2.component_sum(metric::EXECUTE_COUNT, None, 0, i64::MAX);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    #[test]
    fn reset_with_rejects_bad_updates() {
        let mut sim = Simulation::new(wordcount(1000.0, 1, 5000.0), quiet()).unwrap();
        assert!(sim.reset_with(&[("ghost", 2)], 60_000.0).is_err());
        assert!(sim.reset_with(&[("splitter", 0)], 60_000.0).is_err());
        assert!(sim.reset_with(&[], f64::NAN).is_err());
    }

    #[test]
    fn reset_with_profile_matches_fresh_simulation() {
        let base = wordcount(1000.0, 2, 5000.0);
        let cfg = SimConfig {
            metric_noise: 0.01,
            seed: 23,
            ..SimConfig::default()
        };
        let ramp = RateProfile::Ramp {
            from: 400.0,
            to: 2200.0,
            duration_secs: 180,
        };
        let mut reused = Simulation::new(base.clone(), cfg.clone()).unwrap();
        reused.warmup_minutes(3);
        reused.reset_with_profile(&[], &ramp).unwrap();
        let m_reused = reused.run_minutes(4);

        let fresh_topo = base.with_source_profile(&ramp).unwrap();
        let mut fresh = Simulation::new(fresh_topo, cfg).unwrap();
        let m_fresh = fresh.run_minutes(4);

        for name in [metric::EXECUTE_COUNT, metric::EMIT_COUNT, metric::CPU_LOAD] {
            let a = m_reused.component_sum(name, None, 0, i64::MAX);
            let b = m_fresh.component_sum(name, None, 0, i64::MAX);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{name} diverged");
            }
        }
    }

    /// WordCount with an arbitrary spout profile (event-mode cases).
    fn wordcount_profiled(profile: RateProfile, splitter_cap: f64) -> Topology {
        TopologyBuilder::new("wc")
            .spout("spout", 8, profile, 60)
            .bolt(
                "splitter",
                2,
                WorkProfile::new(splitter_cap, 7.63, 8).with_gateway_overhead(0.0),
            )
            .bolt("counter", 3, WorkProfile::new(1.0e9, 1.0, 16))
            .edge("spout", "splitter", Grouping::shuffle())
            .edge("splitter", "counter", Grouping::fields_uniform())
            .build()
            .unwrap()
    }

    /// Runs `topo` for `minutes` (no warmup) and returns the mean sink
    /// execute-count plus coverage counters.
    fn run_mode(topo: Topology, event_mode: bool, minutes: u64) -> (f64, u64, u64, bool) {
        let cfg = SimConfig {
            metric_noise: 0.0,
            event_mode,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(topo, cfg).unwrap();
        let m = sim.run_minutes(minutes);
        let sink = mean_of(&m.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX));
        (
            sink,
            sim.ticks_closed_form(),
            sim.sim_events(),
            sim.backpressure_active(),
        )
    }

    #[test]
    fn event_mode_covers_constant_load_and_matches_exact() {
        let (exact, _, _, _) = run_mode(wordcount(1000.0, 1, 5000.0), false, 5);
        let (event, closed_form, events, bp) = run_mode(wordcount(1000.0, 1, 5000.0), true, 5);
        assert!(!bp);
        assert!(events >= 5, "at least one MinuteEnd event per minute");
        // Cold start loses at most the pipeline depth + one retry window
        // per run; everything else advances in closed form.
        assert!(
            closed_form > 280,
            "constant load should be nearly all closed form, got {closed_form}"
        );
        assert!(
            (event - exact).abs() / exact < 1e-3,
            "sink tolerance: exact {exact} vs event {event}"
        );
    }

    #[test]
    fn event_mode_matches_exact_on_ramp() {
        // 500 → 4000 sentences/s over 20 minutes: no two ticks offer the
        // same rate, and the event core must still engage.
        let profile = RateProfile::Ramp {
            from: 500.0,
            to: 4000.0,
            duration_secs: 1200,
        };
        let (exact, exact_cf, _, _) =
            run_mode(wordcount_profiled(profile.clone(), 5000.0), false, 20);
        let (event, closed_form, _, bp) = run_mode(wordcount_profiled(profile, 5000.0), true, 20);
        assert_eq!(exact_cf, 0);
        assert!(!bp);
        assert!(
            closed_form > 1000,
            "ramp should advance mostly in closed form, got {closed_form}"
        );
        assert!(
            (event - exact).abs() / exact < 1e-3,
            "sink tolerance: exact {exact} vs event {event}"
        );
    }

    #[test]
    fn event_mode_matches_exact_on_steps() {
        let profile = RateProfile::Steps {
            initial: 800.0,
            steps: vec![(90, 2500.0), (200, 1200.0), (400, 3600.0)],
        };
        let (exact, _, _, _) = run_mode(wordcount_profiled(profile.clone(), 5000.0), false, 10);
        let (event, closed_form, _, _) = run_mode(wordcount_profiled(profile, 5000.0), true, 10);
        assert!(closed_form > 400, "got {closed_form}");
        assert!(
            (event - exact).abs() / exact < 1e-3,
            "sink tolerance: exact {exact} vs event {event}"
        );
    }

    #[test]
    fn event_mode_backpressure_verdicts_match_exact() {
        // A ramp that crosses the splitter knee (2 × 5000/s) mid-run:
        // backpressure must engage in both modes, and the event core must
        // detect the watermark crossing analytically rather than sail
        // past it.
        let profile = RateProfile::Ramp {
            from: 1000.0,
            to: 16000.0,
            duration_secs: 600,
        };
        let run = |event_mode: bool| {
            let cfg = SimConfig {
                metric_noise: 0.0,
                event_mode,
                watermarks: WatermarkConfig {
                    high_bytes: 600_000.0,
                    low_bytes: 300_000.0,
                },
                ..SimConfig::default()
            };
            let mut sim =
                Simulation::new(wordcount_profiled(profile.clone(), 5000.0), cfg).unwrap();
            let m = sim.run_minutes(15);
            let bp_mins: Vec<bool> = m
                .component_sum(metric::BACKPRESSURE_TIME, Some("splitter"), 0, i64::MAX)
                .iter()
                .map(|s| s.value > 1.0)
                .collect();
            let sink =
                mean_of(&m.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX));
            (sink, bp_mins, sim.ticks_closed_form())
        };
        let (exact_sink, exact_bp, _) = run(false);
        let (event_sink, event_bp, closed_form) = run(true);
        assert!(
            exact_bp.iter().any(|&b| b),
            "case must exercise backpressure"
        );
        assert_eq!(
            exact_bp, event_bp,
            "per-minute backpressure verdicts must match"
        );
        assert!(
            closed_form > 200,
            "pre-knee ramp should still run in closed form, got {closed_form}"
        );
        assert!(
            (event_sink - exact_sink).abs() / exact_sink < 1e-3,
            "sink tolerance: exact {exact_sink} vs event {event_sink}"
        );
    }

    #[test]
    fn event_mode_falls_back_bitwise_wherever_the_fluid_model_declines() {
        // Every reason `ensure_fluid` declines: the whole run must stay on
        // exact ticks, bit-identical to `event_mode: false`.
        let seasonal = RateProfile::Seasonal {
            base: 1000.0,
            daily_amplitude: 0.4,
            weekend_delta: -0.3,
            noise: 0.0,
            seed: 7,
        };
        // `spouts` spout components into one bolt: that many (spout,
        // delay) flow terms on the bolt instance; `fluid::MAX_TERMS` is 64.
        let fan_in = |spouts: u32| {
            let mut wide =
                TopologyBuilder::new("wide").bolt("sink", 1, WorkProfile::new(1.0e9, 1.0, 16));
            for k in 0..spouts {
                let spout = format!("spout{k}");
                wide = wide
                    .spout(&spout, 1, RateProfile::constant(10.0 + f64::from(k)), 60)
                    .edge(&spout, "sink", Grouping::shuffle());
            }
            wide.build().unwrap()
        };
        let steady = || wordcount(1000.0, 2, 5000.0);
        let cases: [(&str, Topology, SimConfig); 4] = [
            (
                "seasonal profile",
                wordcount_profiled(seasonal, 5000.0),
                quiet(),
            ),
            (
                "finite stream managers",
                steady(),
                SimConfig {
                    stmgr_capacity: Some(150_000.0),
                    ..quiet()
                },
            ),
            (
                "sub-second ticks",
                steady(),
                SimConfig {
                    ticks_per_second: 10,
                    ..quiet()
                },
            ),
            ("over the term budget", fan_in(65), quiet()),
        ];
        for (reason, topo, cfg) in cases {
            let run = |event_mode: bool| {
                let cfg = SimConfig {
                    event_mode,
                    ..cfg.clone()
                };
                let mut sim = Simulation::new(topo.clone(), cfg).unwrap();
                let m = sim.run_minutes(5);
                (
                    m.component_sum(metric::EXECUTE_COUNT, None, 0, i64::MAX),
                    m.component_sum(metric::CPU_LOAD, None, 0, i64::MAX),
                    sim.ticks_closed_form(),
                    sim.exact_ticks(ExactTickReason::Ineligible) == sim.ticks_executed(),
                )
            };
            let (exact_exec, exact_cpu, _, _) = run(false);
            let (event_exec, event_cpu, closed_form, all_ineligible) = run(true);
            assert_eq!(closed_form, 0, "{reason}: closed form must not engage");
            assert!(all_ineligible, "{reason}: every tick counts as ineligible");
            assert_eq!(exact_exec.len(), 5, "{reason}");
            for (exact, event) in [(&exact_exec, &event_exec), (&exact_cpu, &event_cpu)] {
                assert_eq!(exact.len(), event.len(), "{reason}");
                for (a, b) in exact.iter().zip(event) {
                    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{reason}");
                }
            }
        }
        // One spout fewer fits the term budget and engages, so the last
        // case declined on the budget and not on the topology's shape.
        let cfg = SimConfig {
            event_mode: true,
            ..quiet()
        };
        let mut sim = Simulation::new(fan_in(64), cfg).unwrap();
        sim.run_minutes(5);
        assert!(sim.ticks_closed_form() > 0);
    }

    #[test]
    fn event_mode_survives_reset_with_profile_swap() {
        let cfg = SimConfig {
            metric_noise: 0.0,
            event_mode: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(wordcount(1000.0, 2, 5000.0), cfg.clone()).unwrap();
        sim.run_minutes(2);
        let before = sim.ticks_closed_form();
        assert!(before > 0);
        // Rate-only reset keeps the fluid structure but must re-decompose
        // the swapped profiles; a fresh sim at the new rate is the oracle.
        sim.reset_with(&[], 90_000.0).unwrap();
        let m_reused = sim.run_minutes(3);
        assert!(
            sim.ticks_closed_form() > before,
            "closed form must re-engage"
        );
        let fresh_topo = wordcount(1000.0, 2, 5000.0)
            .with_source_rate(90_000.0)
            .unwrap();
        let mut fresh = Simulation::new(fresh_topo, cfg).unwrap();
        let m_fresh = fresh.run_minutes(3);
        let a = m_reused.component_sum(metric::EXECUTE_COUNT, None, 0, i64::MAX);
        let b = m_fresh.component_sum(metric::EXECUTE_COUNT, None, 0, i64::MAX);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }
}
