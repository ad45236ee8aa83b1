//! The seed (pre-SoA) simulation kernel, retained verbatim as the
//! executable specification of the engine's semantics.
//!
//! [`ReferenceSimulation`] is the array-of-structs, per-tick-allocating
//! engine this repository shipped before the struct-of-arrays rewrite in
//! [`crate::engine`]. It is kept for two reasons:
//!
//! 1. **Equivalence testing** — the workspace suite
//!    `tests/sim_kernel_equivalence.rs` proves that with event mode
//!    off the SoA kernel emits *byte-identical* metric samples (compared
//!    with `f64::to_bits`) to this reference across topologies, rates,
//!    seeds, noise levels and stream-manager modes.
//! 2. **Benchmark baseline** — the `sim_hot_loop` bench reports the SoA
//!    kernel's ticks/sec against this kernel on the same workloads.
//!
//! It is *not* part of the supported API: no event mode, no
//! instance reuse, no observability instrumentation. Use
//! [`crate::engine::Simulation`] for everything else.

use crate::backpressure::BackpressureTracker;
use crate::engine::SimConfig;
use crate::error::{Result, SimError};
use crate::metrics::{InstanceHandles, SimMetrics};
use crate::packing::PackingAlgorithm;
use crate::profiles::hash64;
use crate::topology::{ComponentKind, Topology};
use caladrius_tsdb::MetricBatch;

/// Pre-resolved sink state for one `(simulation, SimMetrics)` pairing.
struct SinkHandles {
    instances: Vec<InstanceHandles>,
    batch: MetricBatch,
}

/// Routing entry: one downstream instance of one edge.
#[derive(Debug, Clone, Copy)]
struct Route {
    dst: usize,
    share: f64,
}

/// Static (per-run) data for one edge leaving a component.
#[derive(Debug, Clone)]
struct EdgeRuntime {
    routes: Vec<Route>,
    replicates: bool,
    tuple_bytes: f64,
}

/// Mutable state of one instance.
#[derive(Debug, Clone, Default)]
struct InstanceState {
    queue_tuples: f64,
    queue_bytes: f64,
    incoming_tuples: f64,
    incoming_bytes: f64,
    backlog: f64,
    // Per-minute accumulators.
    executed: f64,
    emitted: f64,
    offered: f64,
    bp_ms: f64,
    cpu_core_seconds: f64,
}

/// Static description of one instance.
#[derive(Debug, Clone, Copy)]
struct InstanceInfo {
    comp_idx: usize,
    inst_idx: u32,
    container: u32,
    capacity: f64,
    cpu_cores: f64,
    selectivity: f64,
    gateway_overhead: f64,
    fail_rate: f64,
}

/// Per-container stream-manager forwarding queue.
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
}

/// The retained seed kernel: a runnable simulation of one topology with
/// the exact per-tick semantics of the pre-SoA engine.
#[derive(Debug)]
pub struct ReferenceSimulation {
    topology: Topology,
    config: SimConfig,
    instances: Vec<InstanceInfo>,
    states: Vec<InstanceState>,
    out_edges: Vec<Vec<EdgeRuntime>>,
    tracker: BackpressureTracker,
    now_ticks: u64,
    stmgrs: Vec<StmgrState>,
}

impl ReferenceSimulation {
    /// Builds a reference simulation, packing the topology per the config.
    ///
    /// `config.event_mode` is ignored: the reference kernel always runs
    /// every tick exactly.
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
        if config.metric_noise < 0.0 || config.metric_noise >= 0.5 {
            return Err(SimError::InvalidConfig(format!(
                "metric_noise must be in [0, 0.5), got {}",
                config.metric_noise
            )));
        }
        let packing = config.packing.unwrap_or(PackingAlgorithm::RoundRobin {
            num_containers: (topology.total_instances() as usize).div_ceil(4).max(1),
        });
        let plan = packing.pack(&topology)?;

        // Flat instance table in (component, index) order.
        let mut instances = Vec::with_capacity(topology.total_instances() as usize);
        let mut comp_instances = vec![Vec::new(); topology.components.len()];
        for (comp_idx, comp) in topology.components.iter().enumerate() {
            let work = comp.kind.work();
            for inst_idx in 0..comp.parallelism {
                let container = plan
                    .container_of(&comp.name, inst_idx)
                    .expect("packing places every instance");
                comp_instances[comp_idx].push(instances.len());
                instances.push(InstanceInfo {
                    comp_idx,
                    inst_idx,
                    container,
                    capacity: work.capacity_per_core * comp.resources.cpu_cores,
                    cpu_cores: comp.resources.cpu_cores,
                    selectivity: work.selectivity,
                    gateway_overhead: work.gateway_overhead,
                    fail_rate: work.fail_rate,
                });
            }
        }

        // Pre-compute routing tables per component edge.
        let mut out_edges: Vec<Vec<EdgeRuntime>> = vec![Vec::new(); topology.components.len()];
        for edge in &topology.edges {
            let downstream = &comp_instances[edge.to];
            let shares = edge.grouping.shares(downstream.len());
            let routes: Vec<Route> = downstream
                .iter()
                .zip(&shares)
                .map(|(dst, share)| Route {
                    dst: *dst,
                    share: *share,
                })
                .collect();
            out_edges[edge.from].push(EdgeRuntime {
                routes,
                replicates: edge.grouping.replicates(),
                tuple_bytes: f64::from(topology.components[edge.from].kind.work().out_tuple_bytes),
            });
        }

        let n = instances.len();
        let plan_containers = plan.num_containers();
        Ok(Self {
            instances,
            states: vec![InstanceState::default(); n],
            out_edges,
            tracker: BackpressureTracker::new(config.watermarks),
            now_ticks: 0,
            stmgrs: if config.stmgr_capacity.is_some() {
                vec![StmgrState::sized(n); plan_containers]
            } else {
                Vec::new()
            },
            topology,
            config,
        })
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> u64 {
        self.now_ticks / u64::from(self.config.ticks_per_second)
    }

    /// True while backpressure is active.
    pub fn backpressure_active(&self) -> bool {
        self.tracker.active()
    }

    /// Moves the clock forward to `minute` without simulating.
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

    /// Advances one tick — the seed kernel, verbatim.
    fn tick(&mut self) {
        let bp = self.tracker.active();
        let dt = 1.0 / f64::from(self.config.ticks_per_second);

        // Emissions staged into `incoming_*` buffers so routing happens
        // after all instances have run (simultaneous update).
        for flat in 0..self.instances.len() {
            let info = self.instances[flat];
            let is_spout = self.topology.components[info.comp_idx].kind.is_spout();
            let (executed, emitted_base, offered) =
                match &self.topology.components[info.comp_idx].kind {
                    ComponentKind::Spout { profile, .. } => {
                        let parallelism =
                            f64::from(self.topology.components[info.comp_idx].parallelism);
                        let now_secs = self.now_ticks / u64::from(self.config.ticks_per_second);
                        let offered = profile.rate_at(now_secs) / parallelism * dt;
                        let state = &mut self.states[flat];
                        state.backlog += offered;
                        let emitted = if bp {
                            0.0
                        } else {
                            state.backlog.min(info.capacity * dt)
                        };
                        state.backlog -= emitted;
                        (emitted, emitted, offered)
                    }
                    ComponentKind::Bolt { .. } => {
                        let state = &self.states[flat];
                        // Gateway contention: the worker thread loses a small
                        // capacity fraction proportional to input pressure.
                        let pressure = if state.queue_tuples > 0.0 {
                            1.0
                        } else {
                            (state.incoming_tuples / (info.capacity * dt)).min(1.0)
                        };
                        let eff_capacity = info.capacity * (1.0 - info.gateway_overhead * pressure);
                        let processed = state.queue_tuples.min(eff_capacity * dt);
                        (processed, processed * (1.0 - info.fail_rate), 0.0)
                    }
                };

            // Consume from the queue (bolts) proportionally in bytes.
            if !is_spout && executed > 0.0 {
                let state = &mut self.states[flat];
                let byte_ratio = state.queue_bytes / state.queue_tuples;
                state.queue_tuples -= executed;
                state.queue_bytes -= executed * byte_ratio;
                if state.queue_tuples < 1e-9 {
                    state.queue_tuples = 0.0;
                    state.queue_bytes = 0.0;
                }
            }

            // Route outputs downstream. The edge table is temporarily taken
            // out of `self` so destination states can be updated in place.
            let mut total_emitted = 0.0;
            let edges = std::mem::take(&mut self.out_edges[info.comp_idx]);
            for edge in &edges {
                let produced = emitted_base * info.selectivity;
                for route in &edge.routes {
                    let amount = if edge.replicates {
                        produced
                    } else {
                        produced * route.share
                    };
                    if amount <= 0.0 {
                        continue;
                    }
                    if self.config.stmgr_capacity.is_some() {
                        // Every tuple leaves through the local stream
                        // manager; remote hops are taken when forwarding.
                        self.stmgrs[info.container as usize].enqueue(
                            route.dst,
                            amount,
                            amount * edge.tuple_bytes,
                        );
                    } else {
                        let dst = &mut self.states[route.dst];
                        dst.incoming_tuples += amount;
                        dst.incoming_bytes += amount * edge.tuple_bytes;
                    }
                    total_emitted += amount;
                }
            }
            let is_sink = edges.is_empty();
            self.out_edges[info.comp_idx] = edges;
            // Sinks (no out edges) still count their processed output.
            if is_sink {
                total_emitted = emitted_base;
            }

            let cpu = (crate::engine::BASE_CPU_OVERHEAD
                + executed / dt / (info.capacity / info.cpu_cores))
                .min(info.cpu_cores);
            let state = &mut self.states[flat];
            state.executed += executed;
            state.emitted += total_emitted;
            state.offered += offered;
            state.cpu_core_seconds += cpu * dt;
        }

        // Stream-manager forwarding (finite-capacity mode).
        if let Some(capacity) = self.config.stmgr_capacity {
            let n_instances = self.instances.len();
            for container in 0..self.stmgrs.len() {
                let total = self.stmgrs[container].total_tuples;
                if total <= 0.0 {
                    self.tracker.observe(n_instances + container, 0.0);
                    continue;
                }
                let ship = total.min(capacity * dt);
                let fraction = ship / total;
                let mut stmgr = std::mem::take(&mut self.stmgrs[container]);
                for dst in 0..n_instances {
                    let tuples = stmgr.pending_tuples[dst] * fraction;
                    if tuples <= 0.0 {
                        continue;
                    }
                    let bytes = stmgr.pending_bytes[dst] * fraction;
                    stmgr.pending_tuples[dst] -= tuples;
                    stmgr.pending_bytes[dst] -= bytes;
                    stmgr.total_tuples -= tuples;
                    stmgr.total_bytes -= bytes;
                    let dst_container = self.instances[dst].container as usize;
                    if dst_container == container {
                        let state = &mut self.states[dst];
                        state.incoming_tuples += tuples;
                        state.incoming_bytes += bytes;
                    } else {
                        self.stmgrs[dst_container].enqueue(dst, tuples, bytes);
                    }
                }
                self.tracker
                    .observe(n_instances + container, stmgr.total_bytes);
                self.stmgrs[container] = stmgr;
            }
        }

        // Apply staged arrivals and observe queues for backpressure.
        for flat in 0..self.instances.len() {
            let state = &mut self.states[flat];
            state.queue_tuples += state.incoming_tuples;
            state.queue_bytes += state.incoming_bytes;
            state.incoming_tuples = 0.0;
            state.incoming_bytes = 0.0;
            self.tracker.observe(flat, state.queue_bytes);
        }

        // Attribute backpressure time to the instances holding it.
        if self.tracker.active() {
            let n_instances = self.instances.len();
            let triggering: Vec<usize> = self.tracker.triggering_instances().collect();
            for id in triggering {
                if id < n_instances {
                    self.states[id].bp_ms += 1000.0 * dt;
                }
            }
        }

        self.now_ticks += 1;
    }

    fn noise(&self, salt: u64) -> f64 {
        if self.config.metric_noise == 0.0 {
            return 1.0;
        }
        let h = hash64(self.config.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        1.0 + self.config.metric_noise * 2.0 * unit
    }

    fn register_sink(&self, metrics: &SimMetrics) -> SinkHandles {
        let rows_per_minute = self
            .instances
            .iter()
            .map(|info| {
                if self.topology.components[info.comp_idx].kind.is_spout() {
                    5
                } else {
                    4
                }
            })
            .sum::<usize>();
        SinkHandles {
            instances: self
                .instances
                .iter()
                .map(|info| {
                    let comp = &self.topology.components[info.comp_idx];
                    metrics.register_instance(
                        &comp.name,
                        info.inst_idx,
                        info.container,
                        comp.kind.is_spout(),
                    )
                })
                .collect(),
            batch: MetricBatch::with_capacity(0, rows_per_minute),
        }
    }

    fn flush_minute(&mut self, metrics: &SimMetrics, sink: &mut SinkHandles) {
        let minute_ts = (self.now_secs() * 1000) as i64 - 60_000;
        sink.batch.reset(minute_ts);
        for flat in 0..self.instances.len() {
            let state = self.states[flat].clone();
            let salt = ((flat as u64) << 32) | (self.now_secs() / 60);

            let executed = state.executed * self.noise(salt ^ (1 << 17));
            let emitted = state.emitted * self.noise(salt ^ (2 << 17));
            let cpu = state.cpu_core_seconds / 60.0 * self.noise(salt ^ (3 << 17));
            let handles = &sink.instances[flat];
            sink.batch.push(&handles.execute, executed);
            sink.batch.push(&handles.emit, emitted);
            sink.batch.push(&handles.cpu, cpu);
            sink.batch
                .push(&handles.backpressure, state.bp_ms.min(60_000.0));
            if let Some(offered) = &handles.offered {
                sink.batch.push(offered, state.offered);
            }

            let state = &mut self.states[flat];
            state.executed = 0.0;
            state.emitted = 0.0;
            state.offered = 0.0;
            state.bp_ms = 0.0;
            state.cpu_core_seconds = 0.0;
        }
        metrics.ingest(&sink.batch);
    }

    /// Runs `minutes` simulated minutes, recording metrics into `metrics`.
    pub fn run_minutes_into(&mut self, minutes: u64, metrics: &SimMetrics) {
        let mut sink = self.register_sink(metrics);
        let ticks_per_minute = 60 * u64::from(self.config.ticks_per_second);
        for _ in 0..minutes {
            for _ in 0..ticks_per_minute {
                self.tick();
            }
            self.flush_minute(metrics, &mut sink);
        }
    }

    /// Runs `minutes` simulated minutes into a fresh metrics store.
    pub fn run_minutes(&mut self, minutes: u64) -> SimMetrics {
        let metrics = SimMetrics::new(self.topology.name.clone());
        self.run_minutes_into(minutes, &metrics);
        metrics
    }

    /// Runs `minutes` simulated minutes without recording anything.
    pub fn warmup_minutes(&mut self, minutes: u64) {
        let discard = SimMetrics::new("warmup-discard");
        let mut sink = self.register_sink(&discard);
        let ticks_per_minute = 60 * u64::from(self.config.ticks_per_second);
        for _ in 0..minutes {
            for _ in 0..ticks_per_minute {
                self.tick();
            }
            self.flush_minute(&discard, &mut sink);
        }
    }
}
