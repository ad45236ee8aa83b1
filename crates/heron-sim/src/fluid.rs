//! Closed-form fluid advancement for the event-driven simulation core.
//!
//! Between two ticks of a minute's agenda (its rate-profile breakpoints,
//! see [`FluidEngine::for_each_breakpoint_event`]) the tick kernel's
//! behaviour in the *relaxed* regime — no backpressure, every queue a
//! pure pass-through holding exactly one tick of arrivals — is a linear
//! function of the spout rate profiles. [`FluidEngine`] exploits that:
//! built from the kernel's own instance, component and edge tables, it
//! precomputes, per instance, the flow terms
//!
//! ```text
//! executed_i(t) = Σ_k  w_ik · r_k(t − d_ik)
//! ```
//!
//! where `r_k(t)` is spout component `k`'s per-instance offered rate at
//! second `t`, `d_ik` the pipeline delay in ticks along a path (one tick
//! per hop, exactly the staging latency of the tick kernel's
//! apply-arrivals-at-end-of-tick rule), and `w_ik` the product of
//! selectivities, `(1 − fail)` factors and grouping shares along the
//! path. With every profile decomposed into [`RateSegment`]s, the sums
//! over the integer seconds of a span collapse into arithmetic series
//! ([`RateSegment::sum_over`]) — the *exact* mass the tick loop would
//! have accumulated sampling `rate_at` once per second, not a continuous
//! integral approximation.
//!
//! The engine only advances a relaxed span in closed form when that
//! regime provably holds across it: modelled input stays below every
//! instance's effective capacity (margin `1e-6`) and modelled queue
//! bytes stay below the backpressure high watermark (the crossing time
//! comes from [`WatermarkConfig::secs_to_high`]).
//!
//! The second regime is the **throttled drain** ([`FluidEngine::plan_drain`]):
//! while backpressure is active every spout is stopped, so per-tick
//! flows no longer depend on the rate profile. Each bolt either drains
//! a queue holding more than one tick of work at `capacity·(1 − gateway)`
//! per tick, or passes a constant inflow straight through; queues move
//! linearly and spout backlogs grow by the profile's integer-second sums.
//! A drain span stops (same `1e-6` margin, early never late) before a
//! triggering queue falls under the low watermark
//! ([`WatermarkConfig::secs_to_low`]), a non-triggering queue rises over
//! the high one, or a saturated bolt's queue falls under one tick of
//! processing.
//!
//! Everything else — onset and release ticks, the ticks around each
//! crossing, pipelines still converging — runs on the exact kernel, so
//! the backpressure tracker observes every transition itself: per-minute
//! backpressure time matches exact runs and sink throughput stays within
//! the 0.1 % tolerance contract (enforced by
//! `tests/sim_kernel_equivalence.rs`).

use crate::backpressure::WatermarkConfig;
use crate::engine::{ComponentTable, EdgeTable, InstanceTable, BASE_CPU_OVERHEAD};
use crate::profiles::Segments;
use crate::topology::{ComponentKind, Topology};
use std::collections::BTreeMap;

/// Relative safety margin on capacity and watermark comparisons: spans
/// whose modelled flows come within this fraction of a limit are handed
/// to the exact tick kernel instead. Must stay well above [`ENTRY_TOL`]
/// so a state accepted at entry cannot straddle a limit.
const MARGIN: f64 = 1e-6;

/// Relative tolerance (with an absolute floor of the same magnitude) for
/// the entry probe comparing actual queue state against the model.
const ENTRY_TOL: f64 = 1e-6;

/// Per-instance cap on flow terms; topologies with wider spout × delay
/// fan-in fall back to exact ticking rather than paying quadratic spans.
const MAX_TERMS: usize = 64;

/// One flow term: spout slot, pipeline delay (ticks), and the tuple /
/// byte weights of all paths sharing that (spout, delay) pair.
#[derive(Debug, Clone, Copy)]
struct Term {
    slot: u32,
    delay: u32,
    w: f64,
    wb: f64,
}

/// Where a planned span must stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanPlan {
    /// The whole span `[t0, t1)` is provably relaxed.
    Full,
    /// Closed form is valid only for `[t0, tick)` with `tick < t1`: a
    /// saturation onset or watermark crossing is due, and the tick at
    /// `tick` (and onward) must run exactly. `tick == t0` means the
    /// regime is congested at the doorstep.
    Stop { tick: u64 },
}

/// A planned throttled-drain span (see [`FluidEngine::plan_drain`]): the
/// constant per-tick flows of a backpressured topology, and how many
/// ticks they provably hold for.
#[derive(Debug)]
pub(crate) struct Drain {
    /// Ticks the span may advance; `0` when a crossing is due on the
    /// next tick, which must then run exactly.
    pub ticks: u64,
    /// Per instance: tuples processed per tick.
    processed: Vec<f64>,
    /// Per instance: tuples and bytes arriving per tick.
    inflow: Vec<f64>,
    inflow_bytes: Vec<f64>,
    /// Per instance: the queue holds more than one tick of work.
    saturated: Vec<bool>,
}

/// True when live state matches a modelled value within [`ENTRY_TOL`]
/// relative (absolute floor of the same magnitude).
fn close(actual: f64, model: f64) -> bool {
    (actual - model).abs() <= ENTRY_TOL * model.max(1.0)
}

/// Mutable engine state a closed-form span advances, passed as disjoint
/// slices so `fluid` needs no visibility into the engine's tables.
pub(crate) struct FluidTargets<'a> {
    pub executed: &'a mut [f64],
    pub emitted: &'a mut [f64],
    pub offered: &'a mut [f64],
    pub failed: &'a mut [f64],
    pub cpu_core_seconds: &'a mut [f64],
    pub stmgr_tuples: &'a mut [f64],
    pub queue_tuples: &'a mut [f64],
    pub queue_bytes: &'a mut [f64],
    pub backlog: &'a mut [f64],
}

/// Precomputed fluid model of one packed topology. Structure (terms,
/// coefficients) survives rate-profile swaps; the cached per-spout
/// [`Segments`] are rebuilt via [`FluidEngine::refresh_profiles`].
#[derive(Debug)]
pub(crate) struct FluidEngine {
    n: usize,
    /// CSR over `terms`: instance `i`'s terms are
    /// `terms[term_start[i]..term_start[i + 1]]`.
    term_start: Vec<usize>,
    terms: Vec<Term>,
    is_spout: Vec<bool>,
    /// Emitted-metric mass per executed tuple (selectivity × route sum ×
    /// `(1 − fail)`, or just `(1 − fail)` for sinks).
    emit_coeff: Vec<f64>,
    fail_rate: Vec<f64>,
    /// Relaxed-regime input limit: capacity × (1 − gateway) for bolts
    /// (queues flowing mass have pressure 1), plain capacity for spouts.
    sat_limit: Vec<f64>,
    cap_per_core: Vec<f64>,
    cpu_cores: Vec<f64>,
    /// CSR of per-instance stream-manager contributions: routed mass per
    /// executed tuple, per touched container.
    cc_start: Vec<usize>,
    cc: Vec<(u32, f64)>,
    /// CSR of per-instance routes: `(destination, tuples, bytes)` that
    /// arrive downstream per executed tuple (throttled-drain inflows).
    route_start: Vec<usize>,
    routes: Vec<(u32, f64, f64)>,
    /// Spout slots: component index and parallelism divisor.
    spout_comp: Vec<usize>,
    spout_par: Vec<f64>,
    /// Per-slot profile decomposition (refreshed on profile swaps).
    spout_segs: Vec<Segments>,
    max_delay: u32,
    /// Watermarks pre-scaled by the safety margin (high lowered, low
    /// raised), wrapped in a [`WatermarkConfig`] so crossings come from
    /// its analytic solvers.
    margin_wm: WatermarkConfig,
}

/// `Σ_{j=0}^{n-1} min(u0 + slope·j, cap)` — the clamped-CPU arithmetic
/// series, split analytically at the clamp crossing.
fn clamped_linear_sum(u0: f64, slope: f64, n: u64, cap: f64) -> f64 {
    let arith = |a: f64, s: f64, k: f64| k * a + s * k * (k - 1.0) * 0.5;
    let n_f = n as f64;
    if n == 0 {
        return 0.0;
    }
    if slope == 0.0 {
        return n_f * u0.min(cap);
    }
    if slope > 0.0 {
        // Clamped for j ≥ k where u0 + slope·k ≥ cap.
        let k = if u0 >= cap {
            0.0
        } else {
            ((cap - u0) / slope).ceil().min(n_f)
        };
        arith(u0, slope, k) + cap * (n_f - k)
    } else {
        // Decreasing: clamped prefix j ≤ (cap − u0)/slope.
        let k = if u0 < cap {
            0.0
        } else {
            (((cap - u0) / slope).floor() + 1.0).min(n_f)
        };
        cap * k + arith(u0 + slope * k, slope, n_f - k)
    }
}

impl FluidEngine {
    /// Builds the fluid model from the tick kernel's flattened tables, or
    /// `None` when the topology's fan-in produces more than [`MAX_TERMS`]
    /// flow terms on some instance. `order` is the topology's
    /// [`Topology::topo_order`]: terms propagate downstream, so every
    /// source is folded before its destinations. The flow terms and the
    /// coefficients derived from them are the only thing computed here;
    /// capacities, routes, shares and containers are the tables'.
    pub fn build(
        inst: &InstanceTable,
        comps: &ComponentTable,
        edges: &EdgeTable,
        order: &[usize],
    ) -> Option<Self> {
        let n = inst.n;
        let mut slot_of = vec![u32::MAX; comps.is_spout.len()];
        for (slot, &c) in comps.spout_comps.iter().enumerate() {
            slot_of[c] = slot as u32;
        }

        // Per-instance flow terms keyed (slot, delay); BTreeMap keeps the
        // fold order deterministic for the replay byte-identity contract.
        let mut term_maps: Vec<BTreeMap<(u32, u32), (f64, f64)>> = vec![BTreeMap::new(); n];
        let mut cc_maps: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); n];
        let mut route_lists: Vec<Vec<(u32, f64, f64)>> = vec![Vec::new(); n];
        let mut route_sum = vec![0.0f64; n];

        for &c in order {
            let lo = comps.inst_start[c];
            let spout = comps.is_spout[c];
            let kappa = if spout {
                inst.selectivity[lo]
            } else {
                inst.selectivity[lo] * (1.0 - inst.fail_rate[lo])
            };
            for flat in lo..comps.inst_start[c + 1] {
                if spout {
                    term_maps[flat].insert((slot_of[c], 0), (1.0, 0.0));
                }
                let src_terms: Vec<((u32, u32), (f64, f64))> =
                    term_maps[flat].iter().map(|(k, v)| (*k, *v)).collect();
                let src_container = inst.container[flat];
                for e in comps.edge_start[c]..comps.edge_start[c + 1] {
                    let tuple_bytes = edges.tuple_bytes[e];
                    for r in edges.route_start[e]..edges.route_start[e + 1] {
                        let rw = if edges.replicates[e] {
                            1.0
                        } else {
                            edges.route_share[r]
                        };
                        if rw == 0.0 {
                            continue;
                        }
                        let dst = edges.route_dst[r];
                        route_sum[flat] += rw;
                        let amount = kappa * rw;
                        *cc_maps[flat].entry(src_container).or_insert(0.0) += amount;
                        let dst_container = edges.route_dst_container[r];
                        if dst_container != src_container {
                            *cc_maps[flat].entry(dst_container).or_insert(0.0) += amount;
                        }
                        route_lists[flat].push((dst as u32, amount, amount * tuple_bytes));
                        for &((slot, d), (w, _)) in &src_terms {
                            let e = term_maps[dst].entry((slot, d + 1)).or_insert((0.0, 0.0));
                            e.0 += amount * w;
                            e.1 += amount * w * tuple_bytes;
                        }
                    }
                }
            }
        }
        if term_maps.iter().any(|m| m.len() > MAX_TERMS) {
            return None;
        }

        let mut term_start = Vec::with_capacity(n + 1);
        let mut terms = Vec::new();
        let mut cc_start = Vec::with_capacity(n + 1);
        let mut cc = Vec::new();
        let mut route_start = Vec::with_capacity(n + 1);
        term_start.push(0);
        cc_start.push(0);
        route_start.push(0);
        let mut max_delay = 0;
        for flat in 0..n {
            for (&(slot, delay), &(w, wb)) in &term_maps[flat] {
                terms.push(Term { slot, delay, w, wb });
                max_delay = max_delay.max(delay);
            }
            term_start.push(terms.len());
            for (&container, &coeff) in &cc_maps[flat] {
                cc.push((container, coeff));
            }
            cc_start.push(cc.len());
            route_start.push(route_start[flat] + route_lists[flat].len());
        }
        let routes = route_lists.concat();

        let mut is_spout = Vec::with_capacity(n);
        let mut emit_coeff = Vec::with_capacity(n);
        let mut fail_rate = Vec::with_capacity(n);
        let mut sat_limit = Vec::with_capacity(n);
        for (flat, routed) in route_sum.into_iter().enumerate() {
            let c = inst.comp_idx[flat] as usize;
            let spout = comps.is_spout[c];
            let capacity = inst.capacity[flat];
            is_spout.push(spout);
            fail_rate.push(if spout { 0.0 } else { inst.fail_rate[flat] });
            sat_limit.push(if spout {
                capacity
            } else {
                capacity * (1.0 - inst.gateway_overhead[flat])
            });
            let one_minus_fail = if spout {
                1.0
            } else {
                1.0 - inst.fail_rate[flat]
            };
            emit_coeff.push(if comps.is_sink[c] {
                one_minus_fail
            } else {
                one_minus_fail * inst.selectivity[flat] * routed
            });
        }

        Some(Self {
            n,
            term_start,
            terms,
            is_spout,
            emit_coeff,
            fail_rate,
            sat_limit,
            cap_per_core: inst.cap_per_core.clone(),
            cpu_cores: inst.cpu_cores.clone(),
            cc_start,
            cc,
            route_start,
            routes,
            spout_comp: comps.spout_comps.clone(),
            spout_par: comps
                .spout_comps
                .iter()
                .map(|&c| comps.parallelism[c])
                .collect(),
            spout_segs: Vec::new(),
            max_delay,
            margin_wm: WatermarkConfig::default(), // set in configure
        })
    }

    /// Installs the queue watermarks the closed form depends on.
    pub fn configure(&mut self, watermarks: WatermarkConfig) {
        self.margin_wm = WatermarkConfig {
            high_bytes: watermarks.high_bytes * (1.0 - MARGIN),
            low_bytes: watermarks.low_bytes * (1.0 + MARGIN),
        };
    }

    /// Rebuilds the per-spout segment decompositions after a profile
    /// swap. `false` (and an empty cache) when any spout profile is not
    /// piecewise-linear — the caller then falls back to exact ticking.
    pub fn refresh_profiles(&mut self, topology: &Topology) -> bool {
        self.spout_segs.clear();
        for &c in &self.spout_comp {
            let ComponentKind::Spout { profile, .. } = &topology.components[c].kind else {
                return false;
            };
            match profile.segments() {
                Some(segs) => self.spout_segs.push(segs),
                None => {
                    self.spout_segs.clear();
                    return false;
                }
            }
        }
        true
    }

    /// Invokes `f` at every tick in `(lo, hi)` where some per-instance
    /// flow term changes slope: each raw profile breakpoint shifted by
    /// every pipeline delay in `[-1, max_delay]` (the `-1` covers the
    /// one-tick lookahead of end-of-tick queue depths).
    ///
    /// The first segment's start (`t = 0`) counts as a breakpoint too:
    /// `rate(t < 0) = 0`, so the simulation epoch is a rate
    /// discontinuity whose delayed echoes switch flow terms on at ticks
    /// `1..=max_delay` — span endpoints are only linear once those are
    /// event boundaries.
    pub fn for_each_breakpoint_event(&self, lo: u64, hi: u64, mut f: impl FnMut(u64)) {
        for segs in &self.spout_segs {
            for seg in segs.iter() {
                let b = seg.start_secs;
                for shift in 0..=u64::from(self.max_delay) + 1 {
                    let t = b + shift;
                    if t >= 1 && t - 1 > lo && t - 1 < hi {
                        f(t - 1);
                    }
                }
            }
        }
    }

    /// Per-instance offered spout rate at second `t` (0 before the
    /// simulation epoch).
    fn rate(&self, slot: u32, t: i64) -> f64 {
        if t < 0 {
            return 0.0;
        }
        self.spout_segs[slot as usize].rate_at(t as u64) / self.spout_par[slot as usize]
    }

    /// Closed-form `Σ rate(slot, s)` over integer seconds `s ∈ [a, b)`,
    /// clamping the pre-epoch portion to zero.
    fn sum_rate(&self, slot: u32, a: i64, b: i64) -> f64 {
        if b <= 0 || b <= a {
            return 0.0;
        }
        let lo = a.max(0) as u64;
        self.spout_segs[slot as usize].sum_over(lo, b as u64) / self.spout_par[slot as usize]
    }

    fn terms_of(&self, i: usize) -> &[Term] {
        &self.terms[self.term_start[i]..self.term_start[i + 1]]
    }

    /// Modelled executed mass of instance `i` during tick `t`.
    #[cfg(test)]
    fn exec_at(&self, i: usize, t: i64) -> f64 {
        self.terms_of(i)
            .iter()
            .map(|term| term.w * self.rate(term.slot, t - i64::from(term.delay)))
            .sum()
    }

    /// Modelled queue state (tuples, bytes) of instance `i` at the START
    /// of tick `t` — the arrivals staged during tick `t − 1`.
    #[cfg(test)]
    fn queue_at(&self, i: usize, t: u64) -> (f64, f64) {
        let tab = self.rates_at(t as i64);
        self.queue_from(i, &tab)
    }

    /// Modelled queue bytes of instance `i` at the END of tick `t`.
    #[cfg(test)]
    fn queue_bytes_end(&self, i: usize, t: u64) -> f64 {
        let tab = self.rates_at(t as i64 + 1);
        self.qb_from(i, &tab)
    }

    /// Delay-sample stride of a rate table: one column per pipeline
    /// delay `0..=max_delay`.
    fn stride(&self) -> usize {
        self.max_delay as usize + 1
    }

    /// Rate table at base tick `t`: `tab[slot·stride + d] = rate(slot,
    /// t − d)`. Every instance's terms index the same table, so
    /// whole-fleet probes and applies are O(instances) flops instead of
    /// O(instances) segment searches.
    fn rates_at(&self, t: i64) -> Vec<f64> {
        let stride = self.stride();
        let mut tab = Vec::with_capacity(self.spout_segs.len() * stride);
        for slot in 0..self.spout_segs.len() as u32 {
            for d in 0..stride {
                tab.push(self.rate(slot, t - d as i64));
            }
        }
        tab
    }

    /// Span-sum table: `tab[slot·stride + d] = Σ rate(slot, s − d)` for
    /// `s ∈ [t0, t1)`.
    fn sums_over(&self, t0: i64, t1: i64) -> Vec<f64> {
        let stride = self.stride();
        let mut tab = Vec::with_capacity(self.spout_segs.len() * stride);
        for slot in 0..self.spout_segs.len() as u32 {
            for d in 0..stride {
                tab.push(self.sum_rate(slot, t0 - d as i64, t1 - d as i64));
            }
        }
        tab
    }

    /// `Σ w · tab[term]` — executed mass of instance `i` against a rate
    /// (or span-sum) table.
    fn exec_from(&self, i: usize, tab: &[f64]) -> f64 {
        let stride = self.stride();
        self.terms_of(i)
            .iter()
            .map(|term| term.w * tab[term.slot as usize * stride + term.delay as usize])
            .sum()
    }

    /// Queue state (tuples, bytes) of instance `i` against a rate table.
    fn queue_from(&self, i: usize, tab: &[f64]) -> (f64, f64) {
        let stride = self.stride();
        let mut qt = 0.0;
        let mut qb = 0.0;
        for term in self.terms_of(i) {
            let r = tab[term.slot as usize * stride + term.delay as usize];
            qt += term.w * r;
            qb += term.wb * r;
        }
        (qt, qb)
    }

    /// `Σ wb · tab[term]` — queue bytes of instance `i` against a rate
    /// table.
    fn qb_from(&self, i: usize, tab: &[f64]) -> f64 {
        let stride = self.stride();
        self.terms_of(i)
            .iter()
            .map(|term| term.wb * tab[term.slot as usize * stride + term.delay as usize])
            .sum()
    }

    /// Entry probe: true when the live state at the start of tick `t0`
    /// matches the relaxed-regime model within [`ENTRY_TOL`]. On
    /// success the caller may advance in closed form and overwrite the
    /// live state with the model's exit state; the probe bounds the
    /// discontinuity.
    pub fn entry_matches(
        &self,
        t0: u64,
        queue_tuples: &[f64],
        queue_bytes: &[f64],
        backlog: &[f64],
    ) -> bool {
        let tab = self.rates_at(t0 as i64);
        for i in 0..self.n {
            if self.is_spout[i] {
                // A throttled spout still holds source backlog; closed
                // form assumes it drained to exactly zero.
                if backlog[i] != 0.0 || queue_tuples[i] != 0.0 {
                    return false;
                }
            } else {
                let (mt, mb) = self.queue_from(i, &tab);
                if !close(queue_tuples[i], mt) || !close(queue_bytes[i], mb) {
                    return false;
                }
            }
        }
        true
    }

    /// Plans the span `[t0, t1)` (no profile breakpoints strictly
    /// inside: `t1` is the minute's next agenda tick or its end): either
    /// the whole span is relaxed, or closed form must stop at the
    /// analytic first crossing of a capacity or watermark limit.
    pub fn plan_span(&self, t0: u64, t1: u64) -> SpanPlan {
        debug_assert!(t1 > t0);
        let last = t1 - 1;
        let span = (last - t0) as f64;
        let mut stop: Option<u64> = None;
        let mut note = |tick: u64| stop = Some(stop.map_or(tick, |t| t.min(tick)));
        // Four table bases cover every sample the span checks: exec at
        // t0/last, end-of-tick queue bytes at t0/last − 1/last (bases
        // t + 1).
        let tab_t0 = self.rates_at(t0 as i64);
        let tab_last = self.rates_at(last as i64);
        let tab_qb0 = self.rates_at(t0 as i64 + 1);
        let tab_qb_last = self.rates_at(last as i64 + 1);
        for i in 0..self.n {
            // Saturation: executed_i is linear across the span's ticks.
            let v0 = self.exec_from(i, &tab_t0);
            let v1 = self.exec_from(i, &tab_last);
            let limit = self.sat_limit[i] * (1.0 - MARGIN);
            if v0 > limit {
                note(t0);
            } else if v1 > limit {
                let slope = (v1 - v0) / span;
                let cross = t0 + (((limit - v0) / slope).floor() as u64 + 1).min(last - t0);
                note(cross);
            }
            if self.is_spout[i] {
                continue;
            }
            // Watermark: end-of-tick queue bytes are linear on
            // [t0, t1 − 2]; the final tick's end may start a new segment
            // and is checked pointwise.
            let b0 = self.qb_from(i, &tab_qb0);
            if b0 > self.margin_wm.high_bytes {
                note(t0);
            } else if last > t0 {
                let b_pen = self.qb_from(i, &tab_last);
                let slope = (b_pen - b0) / (span - 1.0).max(1.0);
                if let Some(secs) = self.margin_wm.secs_to_high(b0, slope) {
                    let cross = t0 + (secs.floor() as u64 + 1).min(last - t0);
                    if cross < last || b_pen > self.margin_wm.high_bytes {
                        note(cross);
                    }
                }
                if self.qb_from(i, &tab_qb_last) > self.margin_wm.high_bytes {
                    note(last);
                }
            } else if self.qb_from(i, &tab_qb_last) > self.margin_wm.high_bytes {
                note(last);
            }
        }
        match stop {
            None => SpanPlan::Full,
            Some(tick) => SpanPlan::Stop { tick },
        }
    }

    /// Advances `[t0, t1)` in closed form: adds every accumulator's
    /// span total (arithmetic series per flow term, clamp-split CPU) and
    /// writes the model's exit state into the live queues.
    pub fn apply(&self, t0: u64, t1: u64, tgt: &mut FluidTargets<'_>) {
        debug_assert!(t1 > t0);
        let n_ticks = t1 - t0;
        let sums = self.sums_over(t0 as i64, t1 as i64);
        let tab_t0 = self.rates_at(t0 as i64);
        let tab_last = self.rates_at((t1 - 1) as i64);
        let tab_exit = self.rates_at(t1 as i64);
        for i in 0..self.n {
            let exec_sum = self.exec_from(i, &sums);
            tgt.executed[i] += exec_sum;
            tgt.emitted[i] += self.emit_coeff[i] * exec_sum;
            tgt.failed[i] += self.fail_rate[i] * exec_sum;
            if self.is_spout[i] {
                tgt.offered[i] += exec_sum;
                tgt.queue_tuples[i] = 0.0;
                tgt.queue_bytes[i] = 0.0;
                tgt.backlog[i] = 0.0;
            } else {
                let (qt, qb) = self.queue_from(i, &tab_exit);
                tgt.queue_tuples[i] = qt;
                tgt.queue_bytes[i] = qb;
            }
            // CPU: min(base + executed/cap_per_core, cores), summed with
            // an analytic split at the clamp crossing.
            let v0 = self.exec_from(i, &tab_t0);
            let slope = if n_ticks > 1 {
                (self.exec_from(i, &tab_last) - v0) / (n_ticks - 1) as f64
            } else {
                0.0
            };
            tgt.cpu_core_seconds[i] += clamped_linear_sum(
                BASE_CPU_OVERHEAD + v0 / self.cap_per_core[i],
                slope / self.cap_per_core[i],
                n_ticks,
                self.cpu_cores[i],
            );
            for &(container, coeff) in &self.cc[self.cc_start[i]..self.cc_start[i + 1]] {
                tgt.stmgr_tuples[container as usize] += coeff * exec_sum;
            }
        }
    }

    /// Plans a throttled-drain span from the live state at the start of
    /// tick `t0` (backpressure active, so every spout is stopped), ending
    /// no later than `t1`. `None` when the state is not a steady drain:
    /// a queue within the margin of one tick of work, a pass-through
    /// queue that does not yet hold exactly its steady inflow, or a
    /// saturated queue fed at a different bytes-per-tuple ratio than it
    /// holds (its byte drain would not be linear).
    ///
    /// Otherwise the plan's `ticks` is the largest count for which, after
    /// every tick of the span, each triggering queue stays at or above
    /// the low watermark, each other queue at or below the high one, and
    /// each saturated queue still starts its tick above one tick of work
    /// — all with the `1e-6` margin, so the tracker's state provably
    /// does not change inside the span.
    pub fn plan_drain(
        &self,
        t0: u64,
        t1: u64,
        queue_tuples: &[f64],
        queue_bytes: &[f64],
        triggering: impl Fn(usize) -> bool,
    ) -> Option<Drain> {
        debug_assert!(t1 > t0);
        let mut processed = vec![0.0; self.n];
        let mut saturated = vec![false; self.n];
        let mut inflow = vec![0.0; self.n];
        let mut inflow_bytes = vec![0.0; self.n];
        for i in 0..self.n {
            if self.is_spout[i] {
                continue;
            }
            let queue = queue_tuples[i];
            let limit = self.sat_limit[i];
            if queue >= limit * (1.0 + MARGIN) {
                saturated[i] = true;
                processed[i] = limit;
            } else if queue <= limit * (1.0 - MARGIN) {
                processed[i] = queue;
            } else {
                return None;
            }
            for &(dst, w, wb) in &self.routes[self.route_start[i]..self.route_start[i + 1]] {
                inflow[dst as usize] += w * processed[i];
                inflow_bytes[dst as usize] += wb * processed[i];
            }
        }

        let mut ticks = t1 - t0;
        let mut bound = |limit: f64| ticks = ticks.min(limit.floor().max(0.0) as u64);
        for i in 0..self.n {
            if self.is_spout[i] {
                continue;
            }
            // End-of-tick queue bytes after `m ≥ 1` ticks: `b0 + m·slope`.
            let (b0, slope) = if saturated[i] {
                let (queue, bytes) = (queue_tuples[i], queue_bytes[i]);
                let net_drain = processed[i] - inflow[i];
                if net_drain > 0.0 {
                    let floor = self.sat_limit[i] * (1.0 + MARGIN);
                    bound((queue - floor) / net_drain + 1.0);
                }
                let ratio = bytes / queue;
                if inflow[i] > 0.0 && !close(inflow_bytes[i], inflow[i] * ratio) {
                    return None;
                }
                (bytes, inflow_bytes[i] - processed[i] * ratio)
            } else {
                if !close(queue_tuples[i], inflow[i])
                    || !close(queue_bytes[i], inflow_bytes[i])
                    || inflow[i] > self.sat_limit[i] * (1.0 - MARGIN)
                {
                    return None;
                }
                (inflow_bytes[i], 0.0)
            };
            let crossing = if triggering(i) {
                self.margin_wm.secs_to_low(b0, -slope)
            } else {
                self.margin_wm.secs_to_high(b0, slope)
            };
            if let Some(secs) = crossing {
                bound(secs);
            }
        }
        Some(Drain {
            ticks,
            processed,
            inflow,
            inflow_bytes,
            saturated,
        })
    }

    /// Advances a planned drain span `[t0, t0 + drain.ticks)` in closed
    /// form: `ticks ×` every bolt's per-tick executed, emitted, failed,
    /// CPU and stream-manager mass, linear queue movement, and each
    /// spout's offered load (the profile's integer-second sums) into its
    /// source backlog with idle CPU. Backpressure time is the caller's:
    /// it knows the triggering set.
    pub fn apply_drain(&self, t0: u64, drain: &Drain, tgt: &mut FluidTargets<'_>) {
        debug_assert!(drain.ticks > 0);
        let k = drain.ticks as f64;
        let sums = self.sums_over(t0 as i64, (t0 + drain.ticks) as i64);
        for i in 0..self.n {
            if self.is_spout[i] {
                let offered = self.exec_from(i, &sums);
                tgt.offered[i] += offered;
                tgt.backlog[i] += offered;
                tgt.cpu_core_seconds[i] += k * BASE_CPU_OVERHEAD.min(self.cpu_cores[i]);
                continue;
            }
            let per_tick = drain.processed[i];
            let exec = k * per_tick;
            tgt.executed[i] += exec;
            tgt.emitted[i] += self.emit_coeff[i] * exec;
            tgt.failed[i] += self.fail_rate[i] * exec;
            tgt.cpu_core_seconds[i] +=
                k * (BASE_CPU_OVERHEAD + per_tick / self.cap_per_core[i]).min(self.cpu_cores[i]);
            for &(container, coeff) in &self.cc[self.cc_start[i]..self.cc_start[i + 1]] {
                tgt.stmgr_tuples[container as usize] += coeff * exec;
            }
            if drain.saturated[i] {
                let ratio = tgt.queue_bytes[i] / tgt.queue_tuples[i];
                tgt.queue_tuples[i] += k * (drain.inflow[i] - per_tick);
                tgt.queue_bytes[i] += k * (drain.inflow_bytes[i] - per_tick * ratio);
            } else {
                tgt.queue_tuples[i] = drain.inflow[i];
                tgt.queue_bytes[i] = drain.inflow_bytes[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::grouping::Grouping;
    use crate::packing::PackingAlgorithm;
    use crate::profiles::RateProfile;
    use crate::topology::{TopologyBuilder, WorkProfile};

    /// The fluid model of `topo` packed round-robin on two containers,
    /// built from a simulation's tables.
    fn engine_for(topo: &Topology) -> FluidEngine {
        let config = SimConfig {
            packing: Some(PackingAlgorithm::RoundRobin { num_containers: 2 }),
            ..SimConfig::default()
        };
        Simulation::new(topo.clone(), config)
            .unwrap()
            .fluid_engine()
            .expect("fits the term budget")
    }

    fn brute_clamped(u0: f64, slope: f64, n: u64, cap: f64) -> f64 {
        (0..n).map(|j| (u0 + slope * j as f64).min(cap)).sum()
    }

    #[test]
    fn clamped_linear_sum_matches_brute_force() {
        let cases = [
            (0.1, 0.01, 100, 0.5),  // crosses the cap mid-span
            (0.1, 0.01, 100, 10.0), // never clamps
            (0.9, 0.01, 100, 0.5),  // clamped from the start
            (0.9, -0.01, 100, 0.5), // decreasing out of the clamp
            (0.2, -0.01, 100, 0.5), // decreasing, never clamped
            (0.3, 0.0, 50, 0.4),    // flat below
            (0.5, 0.0, 50, 0.4),    // flat clamped
            (0.1, 0.004, 100, 0.5), // lands exactly on the cap
        ];
        for (u0, slope, n, cap) in cases {
            let got = clamped_linear_sum(u0, slope, n, cap);
            let want = brute_clamped(u0, slope, n, cap);
            assert!(
                (got - want).abs() < 1e-9,
                "u0={u0} slope={slope} n={n} cap={cap}: got {got}, want {want}"
            );
        }
        assert_eq!(clamped_linear_sum(1.0, 1.0, 0, 2.0), 0.0);
    }

    /// spout → mid → sink chain with a ramping spout.
    fn chain() -> Topology {
        TopologyBuilder::new("chain")
            .spout(
                "spout",
                2,
                RateProfile::Ramp {
                    from: 100.0,
                    to: 700.0,
                    duration_secs: 300,
                },
                60,
            )
            .bolt(
                "mid",
                3,
                WorkProfile::new(1000.0, 2.0, 8).with_fail_rate(0.1),
            )
            .bolt("sink", 2, WorkProfile::new(10_000.0, 1.0, 16))
            .edge("spout", "mid", Grouping::shuffle())
            .edge("mid", "sink", Grouping::shuffle())
            .build()
            .unwrap()
    }

    #[test]
    fn terms_model_pipeline_delay_and_weights() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        assert!(engine.refresh_profiles(&topo));
        assert_eq!(engine.max_delay, 2);
        // Spout instance: one zero-delay unit term; rate ramps at
        // (700-100)/300 = 2 tuples/s² over both instances.
        let r0 = engine.exec_at(0, 0);
        let r100 = engine.exec_at(0, 100);
        assert!((r0 - 50.0).abs() < 1e-9, "per-instance spout rate {r0}");
        assert!((r100 - 150.0).abs() < 1e-9);
        // Mid instance (flat ids 2..5): executed(t) = spout rate at t-1
        // split 3 ways × selectivity-free input (weight 1/3 per spout
        // instance × 2 instances).
        let mid = engine.exec_at(2, 101);
        assert!((mid - 2.0 * 150.0 / 3.0).abs() < 1e-9, "mid executed {mid}");
        // Sink (flat ids 5..7): two hops behind, scaled by the mid
        // layer's selectivity 2.0 and fail rate 0.1.
        let sink = engine.exec_at(5, 102);
        assert!(
            (sink - 2.0 * 150.0 * 2.0 * 0.9 / 2.0).abs() < 1e-9,
            "sink executed {sink}"
        );
        // Before the epoch nothing has arrived.
        assert_eq!(engine.exec_at(5, 1), 0.0);
    }

    #[test]
    fn entry_accepts_cold_start_and_model_state_only() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        assert!(engine.refresh_profiles(&topo));
        let n = 7;
        let zeros = vec![0.0; n];
        // Cold start: the model also predicts empty queues at t = 0.
        assert!(engine.entry_matches(0, &zeros, &zeros, &zeros));
        // Mid-run, empty queues contradict the model (pipeline carries
        // mass).
        assert!(!engine.entry_matches(100, &zeros, &zeros, &zeros));
        // The model's own state is accepted.
        let mut qt = vec![0.0; n];
        let mut qb = vec![0.0; n];
        for i in 2..n {
            // Bolts only — spout queues stay exactly zero.
            let (t, b) = engine.queue_at(i, 100);
            qt[i] = t;
            qb[i] = b;
        }
        assert!(engine.entry_matches(100, &qt, &qb, &zeros));
        // A throttled spout's backlog blocks entry.
        let mut backlog = zeros.clone();
        backlog[0] = 5.0;
        assert!(!engine.entry_matches(100, &qt, &qb, &backlog));
    }

    #[test]
    fn plan_span_stops_at_analytic_saturation_crossing() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        engine.configure(WatermarkConfig::default());
        assert!(engine.refresh_profiles(&topo));
        // Per-instance mid input: 2·r(t-1)/3 where r ramps 100→700 over
        // 300 s. Effective capacity 1000·(1-gateway). It never reaches
        // 1000·… with these rates, so shrink the relevant span instead:
        // spout per-instance rate crosses its own capacity never (cap
        // 1e9 default spout work) — so a full relaxed span plans Full.
        assert_eq!(engine.plan_span(10, 50), SpanPlan::Full);
        // Against a tiny watermark the mid queue's end-of-tick bytes
        // cross analytically: plan must stop no later than the true
        // crossing tick.
        let tiny = WatermarkConfig {
            high_bytes: 4000.0,
            low_bytes: 2000.0,
        };
        engine.configure(tiny);
        let SpanPlan::Stop { tick } = engine.plan_span(10, 290) else {
            panic!("tiny watermark must truncate the span");
        };
        // True crossing: mid end-of-tick bytes = (2·r(t)/3)·60 > 4000
        // ⇒ r(t) > 100 ⇒ t > 0 … rates already exceed it quickly; the
        // stop must be in-range and conservative.
        assert!(tick >= 10 && tick < 290);
        let qb_before = engine.queue_bytes_end(2, tick.saturating_sub(1));
        assert!(
            qb_before <= tiny.high_bytes,
            "stop tick must not be after the crossing: qb {qb_before}"
        );
    }

    /// Configures `engine` for a drain test, with the live queues of the
    /// chain's three mid instances set to `mid_tuples` (spout tuples are
    /// 60 bytes) and its two sinks holding exactly their steady inflow:
    /// three saturated mids processing 990/tick at selectivity 2 × 0.9,
    /// split over two sinks, 8-byte tuples.
    fn chain_drain_state(mid_tuples: f64) -> (Vec<f64>, Vec<f64>) {
        let sink_inflow = 3.0 * 990.0 * 1.8 / 2.0;
        let mut qt = vec![0.0; 7];
        let mut qb = vec![0.0; 7];
        for i in 2..5 {
            qt[i] = mid_tuples;
            qb[i] = mid_tuples * 60.0;
        }
        for i in 5..7 {
            qt[i] = sink_inflow;
            qb[i] = sink_inflow * 8.0;
        }
        (qt, qb)
    }

    #[test]
    fn drain_plan_stops_before_the_release() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        engine.configure(WatermarkConfig {
            high_bytes: 500_000.0,
            low_bytes: 300_000.0,
        });
        assert!(engine.refresh_profiles(&topo));
        // Mid queues hold 600 kB and drain 990 × 60 B a tick: after 5
        // ticks 303 kB, after 6 ticks 243.6 kB — under the low mark.
        let (mut qt, mut qb) = chain_drain_state(10_000.0);
        let mids = |i: usize| (2..5).contains(&i);
        let drain = engine.plan_drain(100, 160, &qt, &qb, mids).unwrap();
        assert_eq!(drain.ticks, 5);
        // A span bounded by the minute end stops there instead.
        assert_eq!(
            engine.plan_drain(100, 103, &qt, &qb, mids).unwrap().ticks,
            3
        );

        let mut executed = vec![0.0; 7];
        let mut emitted = vec![0.0; 7];
        let mut offered = vec![0.0; 7];
        let mut failed = vec![0.0; 7];
        let mut cpu = vec![0.0; 7];
        let mut stmgr = vec![0.0; 64];
        let mut backlog = vec![0.0; 7];
        engine.apply_drain(
            100,
            &drain,
            &mut FluidTargets {
                executed: &mut executed,
                emitted: &mut emitted,
                offered: &mut offered,
                failed: &mut failed,
                cpu_core_seconds: &mut cpu,
                stmgr_tuples: &mut stmgr,
                queue_tuples: &mut qt,
                queue_bytes: &mut qb,
                backlog: &mut backlog,
            },
        );
        assert_eq!(qb[2], 303_000.0);
        assert_eq!(qt[2], 10_000.0 - 5.0 * 990.0);
        assert!((executed[2] - 5.0 * 990.0).abs() < 1e-9);
        assert!((failed[2] - 0.1 * 5.0 * 990.0).abs() < 1e-9);
        // Stopped spouts execute nothing and bank the offered load.
        let want: f64 = (100..105).map(|t| (100.0 + 2.0 * t as f64) / 2.0).sum();
        assert_eq!(executed[0], 0.0);
        assert!((backlog[0] - want).abs() < 1e-9 && (offered[0] - want).abs() < 1e-9);
        assert!((cpu[0] - 5.0 * 0.05).abs() < 1e-12);
        // The next tick is the release: it must run exactly.
        assert_eq!(
            engine.plan_drain(105, 160, &qt, &qb, mids).unwrap().ticks,
            0
        );
    }

    #[test]
    fn drain_plan_stops_before_a_saturated_bolt_empties() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        engine.configure(WatermarkConfig {
            high_bytes: 1.0e9,
            low_bytes: 1_000.0,
        });
        assert!(engine.refresh_profiles(&topo));
        // 3000 queued tuples start ticks at 3000, 2010, 1020 — all over
        // one tick of work (990) — and then 30, which is not.
        let (qt, qb) = chain_drain_state(3_000.0);
        let drain = engine
            .plan_drain(0, 60, &qt, &qb, |i| (2..5).contains(&i))
            .unwrap();
        assert_eq!(drain.ticks, 3);
        // Within the margin of one tick of work the state is no drain.
        let (qt, qb) = chain_drain_state(990.0);
        assert!(engine.plan_drain(0, 60, &qt, &qb, |_| true).is_none());
        // Nor is a pass-through queue that does not hold its inflow.
        let (mut qt, qb) = chain_drain_state(3_000.0);
        qt[5] *= 0.5;
        assert!(engine.plan_drain(0, 60, &qt, &qb, |_| true).is_none());
    }

    #[test]
    fn drain_plan_stops_before_a_non_triggering_queue_crosses_high() {
        // spout → a (990/tick after gateway) → b (495/tick): while `a`
        // drains, `b` receives 990 and processes 495 a tick, so its
        // 10-byte tuples pile up 4950 B a tick.
        let topo = TopologyBuilder::new("two")
            .spout("spout", 1, RateProfile::constant(100.0), 60)
            .bolt("a", 1, WorkProfile::new(1000.0, 1.0, 10))
            .bolt("b", 1, WorkProfile::new(500.0, 1.0, 16))
            .edge("spout", "a", Grouping::shuffle())
            .edge("a", "b", Grouping::shuffle())
            .build()
            .unwrap();
        let mut engine = engine_for(&topo);
        engine.configure(WatermarkConfig {
            high_bytes: 50_000.0,
            low_bytes: 1_000.0,
        });
        assert!(engine.refresh_profiles(&topo));
        let qt = [0.0, 100_000.0, 1_000.0];
        let qb = [0.0, 6_000_000.0, 10_000.0];
        // b's end-of-tick bytes: 10 000 + 4950·m — 49 600 after 8 ticks,
        // 54 550 after 9.
        let drain = engine.plan_drain(0, 60, &qt, &qb, |i| i == 1).unwrap();
        assert_eq!(drain.ticks, 8);
        // Fed at a different bytes-per-tuple ratio than it holds, b's
        // byte drain is not linear: no drain.
        let skewed = [0.0, 6_000_000.0, 20_000.0];
        assert!(engine.plan_drain(0, 60, &qt, &skewed, |i| i == 1).is_none());
    }

    #[test]
    fn breakpoint_events_cover_every_shifted_delay() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        assert!(engine.refresh_profiles(&topo));
        // Single profile breakpoint at t = 300 (ramp → flat), pipeline
        // delays 0..2 plus the −1 lookahead: events at 299..=302. The
        // epoch (t = 0) is a breakpoint too — flow terms switch on at
        // ticks 1..=2 as the cold-start discontinuity echoes through
        // the pipeline delays.
        let mut fired = Vec::new();
        engine.for_each_breakpoint_event(0, 600, |t| fired.push(t));
        fired.sort_unstable();
        fired.dedup();
        assert_eq!(fired, vec![1, 2, 299, 300, 301, 302]);
        // Bounds are exclusive.
        let mut clipped = Vec::new();
        engine.for_each_breakpoint_event(300, 302, |t| clipped.push(t));
        assert_eq!(clipped, vec![301]);
    }

    #[test]
    fn apply_accumulates_the_arithmetic_series() {
        let topo = chain();
        let mut engine = engine_for(&topo);
        engine.configure(WatermarkConfig::default());
        assert!(engine.refresh_profiles(&topo));
        let n = 7;
        let mut executed = vec![0.0; n];
        let mut emitted = vec![0.0; n];
        let mut offered = vec![0.0; n];
        let mut failed = vec![0.0; n];
        let mut cpu = vec![0.0; n];
        let mut stmgr = vec![0.0; 64];
        let mut qt = vec![0.0; n];
        let mut qb = vec![0.0; n];
        let mut backlog = vec![0.0; n];
        engine.apply(
            0,
            100,
            &mut FluidTargets {
                executed: &mut executed,
                emitted: &mut emitted,
                offered: &mut offered,
                failed: &mut failed,
                cpu_core_seconds: &mut cpu,
                stmgr_tuples: &mut stmgr,
                queue_tuples: &mut qt,
                queue_bytes: &mut qb,
                backlog: &mut backlog,
            },
        );
        // Spout executed = Σ_{t=0..99} r(t)/2 per instance.
        let want: f64 = (0..100).map(|t| (100.0 + 2.0 * t as f64) / 2.0).sum();
        assert!(
            (executed[0] - want).abs() < 1e-6,
            "{} vs {want}",
            executed[0]
        );
        assert!((offered[0] - want).abs() < 1e-6);
        // Mid executed = pointwise sum of its delayed terms.
        let want_mid: f64 = (0..100).map(|t| engine.exec_at(2, t)).sum();
        assert!((executed[2] - want_mid).abs() < 1e-6);
        // Failed = 10 % of mid executed; emitted = 2.0 × 0.9 × executed
        // (selectivity × (1 − fail) × route sum 1).
        assert!((failed[2] - 0.1 * want_mid).abs() < 1e-6);
        assert!((emitted[2] - 2.0 * 0.9 * want_mid).abs() < 1e-6);
        // Exit queues are the model state at the span end.
        let (mt, mb) = engine.queue_at(2, 100);
        assert_eq!(qt[2], mt);
        assert_eq!(qb[2], mb);
    }
}
