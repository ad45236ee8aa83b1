//! Joint parallelism search: bottleneck-first greedy ascent plus
//! per-component binary search over the monotone feasibility boundary.
//!
//! The search exploits two monotonicity facts of the Caladrius models
//! (and of any sane capacity model):
//!
//! 1. Raising a component's parallelism weakly raises the topology's
//!    saturation source rate, so "configuration sustains rate R" is a
//!    monotone predicate in every coordinate — binary search applies.
//! 2. A component's total input rate is fixed by the source rate and
//!    the DAG (paper Eq. 12), independent of parallelism, so its
//!    *per-instance* CPU load falls monotonically as its parallelism
//!    grows and is unaffected by other components' parallelism.
//!
//! Given those, the per-window search is: ascend bottleneck-first until
//! feasible, raise components whose per-instance CPU exceeds the
//! headroom budget, then trim every component down to its individual
//! minimum. Coordinate monotonicity makes a single in-order trim pass
//! sufficient for per-component minimality: lowering a later component
//! never re-enables a lower value for an earlier one.

use crate::plan::{
    diff_actions, PlanCost, PlanError, PlanTimeline, PlannerConfig, WindowPlan, WindowSpec,
};
use caladrius_exec::ExecPool;
use std::collections::HashMap;

/// The oracle's verdict on one (configuration, rate) probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Whether the configuration sustains the probed rate with
    /// backpressure risk Low.
    pub feasible: bool,
    /// The limiting component when infeasible (required then), or the
    /// closest-to-saturation component when feasible (optional).
    pub bottleneck: Option<String>,
    /// Saturation source rate of the configuration, tuples/min.
    pub saturation_rate: f64,
    /// Predicted per-instance CPU load (cores) of each component at
    /// the probed rate.
    pub cpu_per_instance: Vec<(String, f64)>,
}

/// A capacity model the planner can drive. Implementations must honour
/// the monotonicity facts in the module docs.
///
/// Oracles must be [`Sync`]: [`plan_horizon`] probes them from several
/// worker threads at once, and `assess` must be a pure function of its
/// arguments (same inputs → same verdict) for the planner's
/// determinism contract to hold. Interior caching is fine as long as
/// it is transparent (see `CachedOracle` in `caladrius-core`).
pub trait CapacityOracle: Sync {
    /// Names of the components whose parallelism the planner may set,
    /// in a stable order.
    fn components(&self) -> Vec<String>;

    /// Assesses a joint parallelism assignment at a source rate.
    fn assess(&self, parallelisms: &[(String, u32)], rate: f64) -> Result<Assessment, PlanError>;
}

/// The minimum-cost assignment for one window, with search telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSolution {
    /// Per-component minimal parallelism assignment.
    pub parallelisms: Vec<(String, u32)>,
    /// Saturation rate of the assignment.
    pub saturation_rate: f64,
    /// Oracle evaluations spent.
    pub evals: u64,
}

/// Binary search for the smallest `p` in `[lo, hi]` satisfying a
/// monotone predicate (false…false, true…true). Returns `None` when
/// even `hi` fails. The predicate is probed O(log(hi−lo)) times.
pub fn min_satisfying(
    lo: u32,
    hi: u32,
    mut pred: impl FnMut(u32) -> Result<bool, PlanError>,
) -> Result<Option<u32>, PlanError> {
    if lo > hi {
        return Ok(None);
    }
    if !pred(hi)? {
        return Ok(None);
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(lo))
}

fn get(ps: &[(String, u32)], name: &str) -> u32 {
    ps.iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| *p)
        .unwrap_or(0)
}

fn set(ps: &mut [(String, u32)], name: &str, p: u32) {
    if let Some(entry) = ps.iter_mut().find(|(n, _)| n == name) {
        entry.1 = p;
    }
}

/// Feasibility + CPU-headroom acceptance of an assessment.
fn accepts(a: &Assessment, cpu_budget: f64) -> bool {
    a.feasible
        && a.cpu_per_instance
            .iter()
            .all(|(_, cpu)| *cpu <= cpu_budget + 1e-9)
}

/// Finds the per-component-minimal assignment sustaining `rate` within
/// the config's CPU headroom. `rate` is the already-headroomed target.
pub fn plan_window(
    oracle: &dyn CapacityOracle,
    rate: f64,
    config: &PlannerConfig,
) -> Result<WindowSolution, PlanError> {
    solve_window(oracle, rate, config, None)
}

/// [`plan_window`] started from a previous solution instead of from
/// all-1s: the warm vector seeds the joint assignment (missing
/// components start at 1, values clamp into `[1, max_parallelism]`),
/// the bottleneck-first ascent and CPU passes repair any shortfall, and
/// a decrement-certificate descent shrinks components the new rate no
/// longer needs.
///
/// For oracles whose acceptance is *separable* — each component's
/// feasibility and CPU verdicts depend only on its own parallelism at
/// the probed rate, which holds for the Caladrius models (module docs:
/// input rates are fixed by the DAG, Eq. 12) — the accepted set is a
/// product of per-component up-sets, the componentwise-minimal accepted
/// point is unique, and this returns exactly [`plan_window`]'s
/// assignment. Only the `evals` telemetry differs: a warm vector equal
/// to the answer certifies itself in `O(components)` probes instead of
/// the cold search's `O(components · log max_parallelism)`.
pub fn plan_window_warm(
    oracle: &dyn CapacityOracle,
    rate: f64,
    config: &PlannerConfig,
    warm: &[(String, u32)],
) -> Result<WindowSolution, PlanError> {
    solve_window(oracle, rate, config, Some(warm))
}

fn solve_window(
    oracle: &dyn CapacityOracle,
    rate: f64,
    config: &PlannerConfig,
    warm: Option<&[(String, u32)]>,
) -> Result<WindowSolution, PlanError> {
    config.validate()?;
    if !(rate.is_finite() && rate >= 0.0) {
        return Err(PlanError::InvalidConfig(format!(
            "window rate must be non-negative, got {rate}"
        )));
    }
    let comps = oracle.components();
    if comps.is_empty() {
        return Err(PlanError::InvalidConfig(
            "oracle lists no scalable components".into(),
        ));
    }
    let max_p = config.limits.max_parallelism;
    let cpu_budget = config.limits.cores_per_instance * config.cpu_utilization_cap;
    let mut ps: Vec<(String, u32)> = match warm {
        None => comps.iter().map(|c| (c.clone(), 1)).collect(),
        Some(w) => comps
            .iter()
            .map(|c| (c.clone(), get(w, c).clamp(1, max_p)))
            .collect(),
    };
    let mut evals = 0u64;

    let infeasible = |component: Option<String>| PlanError::Infeasible {
        window: 0,
        rate,
        component,
    };

    // Phase 1 — bottleneck-first ascent to throughput feasibility.
    // Every iteration strictly raises the bottleneck's parallelism, so
    // the loop runs at most components × max_parallelism times.
    loop {
        let a = oracle.assess(&ps, rate)?;
        evals += 1;
        if a.feasible {
            break;
        }
        let Some(bottleneck) = a.bottleneck.clone() else {
            return Err(PlanError::Oracle(
                "infeasible assessment reported no bottleneck".into(),
            ));
        };
        let cur = get(&ps, &bottleneck);
        if cur == 0 {
            return Err(PlanError::Oracle(format!(
                "bottleneck {bottleneck:?} is not a planned component"
            )));
        }
        // Smallest raise that makes the topology feasible or moves the
        // bottleneck elsewhere — both monotone in this coordinate.
        let found = min_satisfying(cur + 1, max_p, |p| {
            let mut trial = ps.clone();
            set(&mut trial, &bottleneck, p);
            let a = oracle.assess(&trial, rate)?;
            evals += 1;
            Ok(a.feasible || a.bottleneck.as_deref() != Some(bottleneck.as_str()))
        })?;
        match found {
            Some(p) => set(&mut ps, &bottleneck, p),
            None => return Err(infeasible(Some(bottleneck))),
        }
    }

    // Phase 2 — CPU headroom: raise any component whose per-instance
    // load exceeds the budget. Per-instance CPU depends only on the
    // component's own parallelism, so each fix is independent; raising
    // parallelism never hurts feasibility.
    loop {
        let a = oracle.assess(&ps, rate)?;
        evals += 1;
        let Some((hot, _)) = a
            .cpu_per_instance
            .iter()
            .filter(|(_, cpu)| *cpu > cpu_budget + 1e-9)
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite cpu"))
            .cloned()
        else {
            break;
        };
        let cur = get(&ps, &hot);
        if cur == 0 {
            return Err(PlanError::Oracle(format!(
                "hot component {hot:?} is not a planned component"
            )));
        }
        let found = min_satisfying(cur + 1, max_p, |p| {
            let mut trial = ps.clone();
            set(&mut trial, &hot, p);
            let a = oracle.assess(&trial, rate)?;
            evals += 1;
            Ok(get_cpu(&a, &hot) <= cpu_budget + 1e-9)
        })?;
        match found {
            Some(p) => set(&mut ps, &hot, p),
            None => return Err(infeasible(Some(hot))),
        }
    }

    // Phase 3 — trim every component to its individual minimum. A
    // single in-order pass suffices (module docs). The cold pass binary
    // searches `[1, cur]` outright; the warm pass first probes the
    // decrement certificate `cur - 1` — a warm vector that is already
    // the answer proves each component minimal in one probe instead of
    // a log-width search, which is where warm replans win.
    for comp in &comps {
        let cur = get(&ps, comp);
        if cur <= 1 {
            continue;
        }
        if warm.is_some() {
            let mut trial = ps.clone();
            set(&mut trial, comp, cur - 1);
            let a = oracle.assess(&trial, rate)?;
            evals += 1;
            if !accepts(&a, cpu_budget) {
                continue;
            }
        }
        let found = min_satisfying(1, cur, |p| {
            let mut trial = ps.clone();
            set(&mut trial, comp, p);
            let a = oracle.assess(&trial, rate)?;
            evals += 1;
            Ok(accepts(&a, cpu_budget))
        })?;
        // `cur` itself is accepted, so the search cannot come back
        // empty.
        set(&mut ps, comp, found.unwrap_or(cur));
    }

    let a = oracle.assess(&ps, rate)?;
    evals += 1;
    debug_assert!(accepts(&a, cpu_budget));

    // Container budget: the trimmed assignment is the search's minimum,
    // so a plan that still overflows `max_containers` here has no room
    // left to shrink — the window cannot be served within the budget.
    if PlanCost::of(&ps, &config.limits).containers > config.limits.max_containers {
        return Err(infeasible(None));
    }
    Ok(WindowSolution {
        parallelisms: ps,
        saturation_rate: a.saturation_rate,
        evals,
    })
}

fn get_cpu(a: &Assessment, name: &str) -> f64 {
    a.cpu_per_instance
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| *c)
        .unwrap_or(0.0)
}

/// Componentwise maximum of two assignments (same components, any
/// order).
fn componentwise_max(a: &[(String, u32)], b: &[(String, u32)]) -> Vec<(String, u32)> {
    a.iter()
        .map(|(n, p)| (n.clone(), (*p).max(get(b, n))))
        .collect()
}

/// Plans the whole horizon: per-window minimal assignments, hysteresis
/// smoothing, scale actions, and the horizon-peak configuration.
///
/// `initial` is the currently deployed assignment actions are diffed
/// against for window 0 (pass the topology's current parallelisms, or
/// an empty slice to treat everything as newly provisioned).
///
/// Window searches run on the process-wide `"planner"` exec pool; use
/// [`plan_horizon_with`] to supply an explicit pool. Both produce
/// bit-identical timelines for any pool width.
pub fn plan_horizon(
    oracle: &dyn CapacityOracle,
    initial: &[(String, u32)],
    windows: &[WindowSpec],
    config: &PlannerConfig,
) -> Result<PlanTimeline, PlanError> {
    plan_horizon_with(
        oracle,
        initial,
        windows,
        config,
        caladrius_exec::shared_pool("planner"),
    )
}

/// [`plan_horizon`] on an explicit exec pool.
///
/// Determinism contract: the returned timeline — parallelisms, costs,
/// actions and the `oracle_evals` telemetry — is a pure function of
/// the inputs, independent of the pool's width or scheduling. Windows
/// sharing a planned rate are solved once; `oracle_evals` counts the
/// distinct probes the horizon *needs*, so a repeated rate or a
/// smoothed plan already assessed costs zero extra. On an infeasible
/// horizon the error names the earliest infeasible window, exactly as
/// a sequential left-to-right scan would.
pub fn plan_horizon_with(
    oracle: &dyn CapacityOracle,
    initial: &[(String, u32)],
    windows: &[WindowSpec],
    config: &PlannerConfig,
    pool: &ExecPool,
) -> Result<PlanTimeline, PlanError> {
    plan_horizon_warm_with(oracle, initial, windows, config, pool, None)
}

/// [`plan_horizon`] warm-started from a previous timeline (the shared
/// `"planner"` pool variant of [`plan_horizon_warm_with`]).
pub fn plan_horizon_warm(
    oracle: &dyn CapacityOracle,
    initial: &[(String, u32)],
    windows: &[WindowSpec],
    config: &PlannerConfig,
    warm: Option<&PlanTimeline>,
) -> Result<PlanTimeline, PlanError> {
    plan_horizon_warm_with(
        oracle,
        initial,
        windows,
        config,
        caladrius_exec::shared_pool("planner"),
        warm,
    )
}

/// [`plan_horizon_with`], seeding each window's search from a previous
/// plan timeline: window `i`'s search starts at `warm`'s window-`i`
/// assignment (clamped to the last warm window when the horizon grew).
/// With `None` this *is* the cold search.
///
/// For separable oracles (see [`plan_window_warm`]) the warm and cold
/// searches land on identical per-window assignments, so the returned
/// timeline matches the cold one in everything but the `oracle_evals`
/// telemetry — the warm run certifies unchanged windows in
/// `O(components)` probes each. The determinism contract is unchanged:
/// the timeline is a pure function of the inputs (now including
/// `warm`), whatever the pool width.
pub fn plan_horizon_warm_with(
    oracle: &dyn CapacityOracle,
    initial: &[(String, u32)],
    windows: &[WindowSpec],
    config: &PlannerConfig,
    pool: &ExecPool,
    warm: Option<&PlanTimeline>,
) -> Result<PlanTimeline, PlanError> {
    config.validate()?;
    if windows.is_empty() {
        return Err(PlanError::InvalidConfig(
            "horizon must contain at least one window".into(),
        ));
    }
    // Windows sharing a planned rate (common under diurnal forecasts)
    // need a single search. Unique rates are kept in first-occurrence
    // order, so `parallel_try_map`'s lowest-index error is the error of
    // the earliest infeasible window: a rate that fails anywhere fails
    // at its first occurrence too.
    let mut unique: Vec<(f64, usize)> = Vec::new(); // (rate, first window)
    let mut unique_of_bits: HashMap<u64, usize> = HashMap::new();
    let mut rate_idx: Vec<usize> = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let rate = w.peak_rate * config.headroom;
        let idx = *unique_of_bits.entry(rate.to_bits()).or_insert_with(|| {
            unique.push((rate, i));
            unique.len() - 1
        });
        rate_idx.push(idx);
    }
    let solved: Vec<WindowSolution> =
        pool.parallel_try_map(&unique, |_, (rate, first_window)| {
            // Seed from the previous plan's assignment for this window
            // (clamped to the last warm window when the horizon grew).
            let seed = warm.and_then(|prev| {
                let i = (*first_window).min(prev.windows.len().checked_sub(1)?);
                Some(&prev.windows[i].parallelisms)
            });
            match seed {
                Some(start) => plan_window_warm(oracle, *rate, config, start),
                None => plan_window(oracle, *rate, config),
            }
            .map_err(|e| match e {
                PlanError::Infeasible {
                    rate, component, ..
                } => PlanError::Infeasible {
                    window: *first_window,
                    rate,
                    component,
                },
                other => other,
            })
        })?;
    let mut evals: u64 = solved.iter().map(|s| s.evals).sum();

    // Hysteresis: each window adopts the componentwise max of the next
    // `hysteresis_windows` raw plans, so capacity is raised *before* a
    // spike and short dips never trigger a scale-down/up pair.
    //
    // Smoothed plans are assessed through a memo seeded with the raw
    // solutions: a smoothed plan equal to some window's raw plan at the
    // same rate is free, and consecutive windows smoothing to the same
    // (plan, rate) — the common case inside a lookahead run — pay for
    // one probe instead of one per window.
    let mut memo: HashMap<(Vec<(String, u32)>, u64), f64> = HashMap::new();
    for (idx, (rate, _)) in unique.iter().enumerate() {
        memo.insert(
            (solved[idx].parallelisms.clone(), rate.to_bits()),
            solved[idx].saturation_rate,
        );
    }
    let h = config.hysteresis_windows;
    let mut plans: Vec<WindowPlan> = Vec::with_capacity(windows.len());
    let mut prev: Vec<(String, u32)> = initial.to_vec();
    for (i, w) in windows.iter().enumerate() {
        let mut smoothed = solved[rate_idx[i]].parallelisms.clone();
        for ahead in rate_idx.iter().skip(i + 1).take(h - 1) {
            smoothed = componentwise_max(&smoothed, &solved[*ahead].parallelisms);
        }
        // Hysteresis only ever raises capacity; when the componentwise
        // max of neighbouring plans overflows the container budget the
        // window keeps its raw plan, which `plan_window` already proved
        // feasible within the budget. Smoothing yields to the budget,
        // never the other way around.
        if PlanCost::of(&smoothed, &config.limits).containers > config.limits.max_containers {
            smoothed = solved[rate_idx[i]].parallelisms.clone();
        }
        let rate = w.peak_rate * config.headroom;
        let key = (smoothed.clone(), rate.to_bits());
        let saturation_rate = match memo.get(&key) {
            Some(sat) => *sat,
            None => {
                let a = oracle.assess(&smoothed, rate)?;
                evals += 1;
                memo.insert(key, a.saturation_rate);
                a.saturation_rate
            }
        };
        let actions = diff_actions(&prev, &smoothed);
        plans.push(WindowPlan {
            window: i,
            start_ts: w.start_ts,
            end_ts: w.end_ts,
            peak_rate: w.peak_rate,
            planned_rate: w.peak_rate * config.headroom,
            parallelisms: smoothed.clone(),
            cost: PlanCost::of(&smoothed, &config.limits),
            saturation_rate,
            actions,
        });
        prev = smoothed;
    }

    let mut peak = plans[0].parallelisms.clone();
    for p in &plans[1..] {
        peak = componentwise_max(&peak, &p.parallelisms);
    }
    let peak_cost = PlanCost::of(&peak, &config.limits);
    Ok(PlanTimeline {
        windows: plans,
        peak_parallelisms: peak,
        peak_cost,
        oracle_evals: evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanAction, ResourceLimits};
    use proptest::prelude::*;

    /// Analytic oracle: component `c` receives `ratio_c × source_rate`
    /// tuples/min and each instance serves `service_c` tuples/min, so
    /// saturation is `min_c service_c · p_c / ratio_c`; risk is Low
    /// with a 5 % margin, mirroring the core model's RISK_MARGIN.
    struct AnalyticOracle {
        comps: Vec<(String, f64, f64, f64, f64)>, // name, ratio, service, cpu_base, cpu_per_tuple
    }

    impl AnalyticOracle {
        fn new(comps: &[(&str, f64, f64)]) -> Self {
            Self {
                comps: comps
                    .iter()
                    .map(|(n, ratio, service)| (n.to_string(), *ratio, *service, 0.05, 0.0))
                    .collect(),
            }
        }

        fn with_cpu(mut self, name: &str, base: f64, per_tuple: f64) -> Self {
            for c in &mut self.comps {
                if c.0 == name {
                    c.3 = base;
                    c.4 = per_tuple;
                }
            }
            self
        }
    }

    impl CapacityOracle for AnalyticOracle {
        fn components(&self) -> Vec<String> {
            self.comps.iter().map(|c| c.0.clone()).collect()
        }

        fn assess(
            &self,
            parallelisms: &[(String, u32)],
            rate: f64,
        ) -> Result<Assessment, PlanError> {
            let mut saturation = f64::INFINITY;
            let mut bottleneck = None;
            let mut cpu = Vec::new();
            for (name, ratio, service, base, per_tuple) in &self.comps {
                let p = f64::from(get(parallelisms, name).max(1));
                let sat = service * p / ratio;
                if sat < saturation {
                    saturation = sat;
                    bottleneck = Some(name.clone());
                }
                cpu.push((name.clone(), base + per_tuple * ratio * rate / p));
            }
            Ok(Assessment {
                feasible: rate <= saturation * 0.95,
                bottleneck,
                saturation_rate: saturation,
                cpu_per_instance: cpu,
            })
        }
    }

    fn config(max_p: u32) -> PlannerConfig {
        PlannerConfig {
            headroom: 1.0,
            cpu_utilization_cap: 1.0,
            limits: ResourceLimits {
                max_parallelism: max_p,
                ..ResourceLimits::default()
            },
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn min_satisfying_finds_the_boundary() {
        for boundary in 1..=20u32 {
            let found = min_satisfying(1, 20, |p| Ok(p >= boundary)).unwrap();
            assert_eq!(found, Some(boundary));
        }
        assert_eq!(min_satisfying(1, 20, |_| Ok(false)).unwrap(), None);
        assert_eq!(min_satisfying(5, 4, |_| Ok(true)).unwrap(), None);
    }

    #[test]
    fn plan_window_finds_the_per_component_minimum() {
        // Needs p = ceil(rate·ratio / (service·0.95)) per component:
        // a: 10e6·1/ (2e6·0.95) → 6;  b: 10e6·3 / (11e6·0.95) → 3.
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6), ("b", 3.0, 11.0e6)]);
        let solved = plan_window(&oracle, 10.0e6, &config(64)).unwrap();
        assert_eq!(
            solved.parallelisms,
            vec![("a".to_string(), 6), ("b".to_string(), 3)]
        );
        // Decrementing either component breaks feasibility.
        for i in 0..2 {
            let mut dec = solved.parallelisms.clone();
            dec[i].1 -= 1;
            let a = oracle.assess(&dec, 10.0e6).unwrap();
            assert!(!a.feasible, "decrementing {:?} stayed feasible", dec[i].0);
        }
    }

    /// Exhaustive reference search: scans the full joint grid
    /// `[1, max_per_component]^k` and returns the feasible assignment
    /// with the fewest total instances (`None` when the grid holds no
    /// feasible point) plus the number of oracle evaluations spent.
    /// Exponential in the component count.
    fn grid_min_cost(
        oracle: &dyn CapacityOracle,
        rate: f64,
        config: &PlannerConfig,
        max_per_component: u32,
    ) -> (Option<Vec<(String, u32)>>, u64) {
        let comps = oracle.components();
        let cpu_budget = config.limits.cores_per_instance * config.cpu_utilization_cap;
        let mut odometer: Vec<u32> = vec![1; comps.len()];
        let mut best: Option<(u32, Vec<(String, u32)>)> = None;
        let mut evals = 0u64;
        loop {
            let ps: Vec<(String, u32)> = comps
                .iter()
                .cloned()
                .zip(odometer.iter().copied())
                .collect();
            let total: u32 = odometer.iter().sum();
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                let a = oracle.assess(&ps, rate).unwrap();
                evals += 1;
                if accepts(&a, cpu_budget) {
                    best = Some((total, ps));
                }
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                if i == odometer.len() {
                    return (best.map(|(_, ps)| ps), evals);
                }
                if odometer[i] < max_per_component {
                    odometer[i] += 1;
                    break;
                }
                odometer[i] = 1;
                i += 1;
            }
        }
    }

    #[test]
    fn plan_window_matches_exhaustive_grid() {
        let oracle =
            AnalyticOracle::new(&[("a", 1.0, 3.0e6), ("b", 2.0, 5.0e6), ("c", 0.5, 1.5e6)]);
        let cfg = config(12);
        let solved = plan_window(&oracle, 9.0e6, &cfg).unwrap();
        let (grid, grid_evals) = grid_min_cost(&oracle, 9.0e6, &cfg, 12);
        let grid = grid.expect("grid must find a feasible point");
        let grid_total: u32 = grid.iter().map(|(_, p)| *p).sum();
        let search_total: u32 = solved.parallelisms.iter().map(|(_, p)| *p).sum();
        // Per-component constraints are separable here, so the
        // per-component minimum is the global minimum.
        assert_eq!(search_total, grid_total);
        assert!(
            solved.evals < grid_evals / 5,
            "search used {} evals vs grid {}",
            solved.evals,
            grid_evals
        );
    }

    #[test]
    fn cpu_headroom_forces_extra_instances() {
        // Throughput alone needs p = ceil((6e6/0.95)/4e6) = 2, but the
        // per-instance CPU model 0.05 + 5e-7·6e6/p = 0.05 + 3/p only
        // fits the 0.85-core budget once p ≥ 3.75, so the CPU pass
        // must raise parallelism to 4.
        let oracle = AnalyticOracle::new(&[("a", 1.0, 4.0e6)]).with_cpu("a", 0.05, 5.0e-7);
        let mut cfg = config(64);
        cfg.cpu_utilization_cap = 0.85; // budget = 0.85 cores
        let solved = plan_window(&oracle, 6.0e6, &cfg).unwrap();
        let p = solved.parallelisms[0].1;
        assert_eq!(p, 4, "CPU headroom must bind above the throughput need");
        let a = oracle.assess(&solved.parallelisms, 6.0e6).unwrap();
        assert!(a.feasible);
        assert!(
            a.cpu_per_instance.iter().all(|(_, c)| *c <= 0.85 + 1e-9),
            "cpu over budget: {:?}",
            a.cpu_per_instance
        );
    }

    #[test]
    fn infeasible_rate_reports_the_pinned_component() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 1.0e6)]);
        let err = plan_window(&oracle, 1.0e9, &config(8)).unwrap_err();
        match err {
            PlanError::Infeasible { component, .. } => {
                assert_eq!(component.as_deref(), Some("a"));
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn horizon_hysteresis_scales_up_early_and_down_late() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6)]);
        let mut cfg = config(64);
        cfg.hysteresis_windows = 2;
        let windows: Vec<WindowSpec> = [2.0e6, 8.0e6, 2.0e6]
            .iter()
            .enumerate()
            .map(|(i, r)| WindowSpec {
                start_ts: i as i64 * 900_000,
                end_ts: (i as i64 + 1) * 900_000,
                peak_rate: *r,
            })
            .collect();
        let initial = vec![("a".to_string(), 2)];
        let timeline = plan_horizon(&oracle, &initial, &windows, &cfg).unwrap();
        let ps: Vec<u32> = timeline
            .windows
            .iter()
            .map(|w| w.parallelisms[0].1)
            .collect();
        // Raw plans are [2, 5, 2]; with lookahead 2 the first window
        // already provisions for the spike and only the last scales
        // down.
        assert_eq!(ps, vec![5, 5, 2]);
        assert_eq!(
            timeline.windows[0].actions,
            vec![PlanAction::ScaleUp {
                component: "a".into(),
                from: 2,
                to: 5
            }]
        );
        assert!(timeline.windows[1].actions.is_empty());
        assert_eq!(
            timeline.windows[2].actions,
            vec![PlanAction::ScaleDown {
                component: "a".into(),
                from: 5,
                to: 2
            }]
        );
        assert_eq!(timeline.peak_parallelisms, vec![("a".to_string(), 5)]);
        // Exactly one search per distinct planned rate (2 M and 8 M —
        // the repeated 2 M window is deduplicated) plus one probe for
        // the single smoothed plan ([5] @ 2 M) not already assessed.
        let low = plan_window(&oracle, 2.0e6, &cfg).unwrap();
        let high = plan_window(&oracle, 8.0e6, &cfg).unwrap();
        assert_eq!(timeline.oracle_evals, low.evals + high.evals + 1);
    }

    #[test]
    fn consecutive_identical_smoothed_plans_assess_once() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6)]);
        let mut cfg = config(64);
        cfg.hysteresis_windows = 3;
        let windows: Vec<WindowSpec> = [2.0e6, 2.0e6, 8.0e6, 2.0e6]
            .iter()
            .enumerate()
            .map(|(i, r)| WindowSpec {
                start_ts: i as i64 * 900_000,
                end_ts: (i as i64 + 1) * 900_000,
                peak_rate: *r,
            })
            .collect();
        let timeline = plan_horizon(&oracle, &[], &windows, &cfg).unwrap();
        let ps: Vec<u32> = timeline
            .windows
            .iter()
            .map(|w| w.parallelisms[0].1)
            .collect();
        assert_eq!(ps, vec![5, 5, 5, 2]);
        // Windows 0 and 1 both smooth to [5] @ 2 M: the memo must
        // charge that probe once, on top of one search per distinct
        // rate. (The unmemoized smoothing pass paid for it twice.)
        let low = plan_window(&oracle, 2.0e6, &cfg).unwrap();
        let high = plan_window(&oracle, 8.0e6, &cfg).unwrap();
        assert_eq!(timeline.oracle_evals, low.evals + high.evals + 1);
    }

    #[test]
    fn container_budget_binds_plan_window() {
        // Needs a=6, b=3 (see plan_window_finds_the_per_component_minimum):
        // 9 instances = 3 containers at 4 cores/box. A 2-container budget
        // is infeasible; 3 containers reproduces the unconstrained plan.
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6), ("b", 3.0, 11.0e6)]);
        let mut tight = config(64);
        tight.limits.max_containers = 2;
        match plan_window(&oracle, 10.0e6, &tight).unwrap_err() {
            PlanError::Infeasible { component, .. } => assert_eq!(component, None),
            other => panic!("expected budget infeasibility, got {other:?}"),
        }
        let mut exact = config(64);
        exact.limits.max_containers = 3;
        let solved = plan_window(&oracle, 10.0e6, &exact).unwrap();
        assert_eq!(
            solved.parallelisms,
            plan_window(&oracle, 10.0e6, &config(64))
                .unwrap()
                .parallelisms
        );
    }

    /// Oracle whose per-window component requirements are looked up by
    /// rate, so different windows can bottleneck on *different*
    /// components — the shape where hysteresis smoothing can cost more
    /// containers than either raw plan.
    struct TableOracle {
        rows: Vec<(f64, Vec<(String, u32)>)>, // rate → required parallelisms
    }

    impl CapacityOracle for TableOracle {
        fn components(&self) -> Vec<String> {
            self.rows[0].1.iter().map(|(n, _)| n.clone()).collect()
        }

        fn assess(
            &self,
            parallelisms: &[(String, u32)],
            rate: f64,
        ) -> Result<Assessment, PlanError> {
            let required = &self
                .rows
                .iter()
                .find(|(r, _)| (*r - rate).abs() < 1e-9)
                .ok_or_else(|| PlanError::Oracle(format!("no table row for rate {rate}")))?
                .1;
            let bottleneck = required
                .iter()
                .find(|(name, need)| get(parallelisms, name) < *need)
                .map(|(name, _)| name.clone());
            Ok(Assessment {
                feasible: bottleneck.is_none(),
                bottleneck,
                saturation_rate: rate * 2.0,
                cpu_per_instance: required.iter().map(|(n, _)| (n.clone(), 0.0)).collect(),
            })
        }
    }

    #[test]
    fn smoothing_yields_to_the_container_budget() {
        // Window 0 needs (a=4, b=1), window 1 needs (a=1, b=4): each raw
        // plan is 5 instances = 5 containers at 1 core/box, but their
        // componentwise max is 8. Under a 5-container budget window 0
        // must keep its raw plan instead of the smoothed one.
        let oracle = TableOracle {
            rows: vec![
                (1.0, vec![("a".to_string(), 4), ("b".to_string(), 1)]),
                (2.0, vec![("a".to_string(), 1), ("b".to_string(), 4)]),
            ],
        };
        let mut cfg = config(8);
        cfg.hysteresis_windows = 2;
        cfg.limits.container_cpu = 1.0;
        cfg.limits.container_ram_mb = 1 << 20;
        cfg.limits.max_containers = 5;
        let windows: Vec<WindowSpec> = [1.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, r)| WindowSpec {
                start_ts: i as i64 * 900_000,
                end_ts: (i as i64 + 1) * 900_000,
                peak_rate: *r,
            })
            .collect();
        let timeline = plan_horizon(&oracle, &[], &windows, &cfg).unwrap();
        assert_eq!(
            timeline.windows[0].parallelisms,
            vec![("a".to_string(), 4), ("b".to_string(), 1)]
        );
        assert_eq!(
            timeline.windows[1].parallelisms,
            vec![("a".to_string(), 1), ("b".to_string(), 4)]
        );
        for w in &timeline.windows {
            assert!(w.cost.containers <= 5);
        }

        // With the budget lifted, the same horizon smooths window 0 up
        // to the componentwise max.
        cfg.limits.max_containers = crate::plan::UNLIMITED_CONTAINERS;
        let unbounded = plan_horizon(&oracle, &[], &windows, &cfg).unwrap();
        assert_eq!(
            unbounded.windows[0].parallelisms,
            vec![("a".to_string(), 4), ("b".to_string(), 4)]
        );
    }

    #[test]
    fn horizon_rejects_empty_windows() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6)]);
        assert!(matches!(
            plan_horizon(&oracle, &[], &[], &config(8)),
            Err(PlanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn warm_start_from_the_answer_certifies_cheaply() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 2.0e6), ("b", 3.0, 11.0e6)]);
        let cfg = config(64);
        let cold = plan_window(&oracle, 10.0e6, &cfg).unwrap();
        let warm = plan_window_warm(&oracle, 10.0e6, &cfg, &cold.parallelisms).unwrap();
        assert_eq!(warm.parallelisms, cold.parallelisms);
        assert_eq!(warm.saturation_rate, cold.saturation_rate);
        assert!(
            warm.evals < cold.evals,
            "warm-from-answer spent {} evals vs cold {}",
            warm.evals,
            cold.evals
        );
        // Certification is linear in components: one decrement probe
        // per component plus the shared final assessment.
        assert!(warm.evals <= 2 * cold.parallelisms.len() as u64 + 1);
    }

    #[test]
    fn warm_start_equals_cold_from_arbitrary_seeds() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 3.0e6), ("b", 2.0, 5.0e6)])
            .with_cpu("a", 0.05, 5.0e-8);
        let cfg = config(32);
        for rate in [1.0e6, 4.5e6, 9.0e6, 13.0e6] {
            let cold = plan_window(&oracle, rate, &cfg).unwrap();
            for seed in [
                vec![("a".to_string(), 1), ("b".to_string(), 32)],
                vec![("a".to_string(), 32), ("b".to_string(), 1)],
                vec![("a".to_string(), 32), ("b".to_string(), 32)],
                cold.parallelisms.clone(),
                // Stale / partial seeds: unknown and missing components.
                vec![("zz".to_string(), 7)],
            ] {
                let warm = plan_window_warm(&oracle, rate, &cfg, &seed).unwrap();
                assert_eq!(
                    warm.parallelisms, cold.parallelisms,
                    "rate {rate} seed {seed:?}"
                );
            }
        }
    }

    #[test]
    fn warm_horizon_matches_cold_and_spends_fewer_evals() {
        let oracle =
            AnalyticOracle::new(&[("a", 1.0, 3.0e6), ("b", 2.0, 5.0e6), ("c", 0.5, 1.5e6)]);
        let cfg = config(64);
        let windows: Vec<WindowSpec> = [4.0e6, 7.0e6, 11.0e6, 7.0e6, 5.0e6]
            .iter()
            .enumerate()
            .map(|(i, r)| WindowSpec {
                start_ts: i as i64,
                end_ts: i as i64 + 1,
                peak_rate: *r,
            })
            .collect();
        let cold = plan_horizon(&oracle, &[], &windows, &cfg).unwrap();
        // Unchanged rates: the warm run must reproduce the timeline
        // exactly (modulo eval telemetry) at a fraction of the cost.
        let warm = plan_horizon_warm(&oracle, &[], &windows, &cfg, Some(&cold)).unwrap();
        assert_eq!(warm.windows, cold.windows);
        assert_eq!(warm.peak_parallelisms, cold.peak_parallelisms);
        assert_eq!(warm.peak_cost, cold.peak_cost);
        assert!(
            warm.oracle_evals < cold.oracle_evals,
            "warm horizon spent {} evals vs cold {}",
            warm.oracle_evals,
            cold.oracle_evals
        );
        // A horizon longer than the seed clamps to the last warm window.
        let mut grown = windows.clone();
        grown.push(WindowSpec {
            start_ts: 5,
            end_ts: 6,
            peak_rate: 9.0e6,
        });
        let cold_grown = plan_horizon(&oracle, &[], &grown, &cfg).unwrap();
        let warm_grown = plan_horizon_warm(&oracle, &[], &grown, &cfg, Some(&cold)).unwrap();
        assert_eq!(warm_grown.windows, cold_grown.windows);
    }

    proptest! {
        /// Tentpole (b): for separable oracles the warm-started search
        /// is an *equivalence-preserving* optimisation — over perturbed
        /// rates it lands on exactly the plan the from-scratch search
        /// finds, whatever the previous timeline looked like.
        #[test]
        fn warm_horizon_equals_cold_over_perturbed_rates(
            base in 2.0e6f64..12.0e6,
            factors in prop::collection::vec(0.4f64..1.8, 1..6),
            drift in prop::collection::vec(0.7f64..1.3, 6),
        ) {
            let oracle = AnalyticOracle::new(&[
                ("a", 1.0, 3.0e6),
                ("b", 2.0, 5.0e6),
                ("c", 0.5, 1.5e6),
            ]);
            let cfg = config(64);
            let window = |i: usize, rate: f64| WindowSpec {
                start_ts: i as i64,
                end_ts: i as i64 + 1,
                peak_rate: rate,
            };
            let before: Vec<WindowSpec> = factors
                .iter()
                .enumerate()
                .map(|(i, f)| window(i, base * f))
                .collect();
            let prev = plan_horizon(&oracle, &[], &before, &cfg).unwrap();
            // Drift every window's rate and replan warm vs cold.
            let after: Vec<WindowSpec> = factors
                .iter()
                .zip(&drift)
                .enumerate()
                .map(|(i, (f, d))| window(i, base * f * d))
                .collect();
            let cold = plan_horizon(&oracle, &[], &after, &cfg).unwrap();
            let warm =
                plan_horizon_warm(&oracle, &[], &after, &cfg, Some(&prev)).unwrap();
            prop_assert_eq!(&warm.windows, &cold.windows);
            prop_assert_eq!(&warm.peak_parallelisms, &cold.peak_parallelisms);
        }
    }

    #[test]
    fn infeasible_window_is_indexed_in_the_horizon_error() {
        let oracle = AnalyticOracle::new(&[("a", 1.0, 1.0e6)]);
        let windows = vec![
            WindowSpec {
                start_ts: 0,
                end_ts: 1,
                peak_rate: 1.0e6,
            },
            WindowSpec {
                start_ts: 1,
                end_ts: 2,
                peak_rate: 1.0e9,
            },
        ];
        let mut cfg = config(8);
        cfg.hysteresis_windows = 1;
        match plan_horizon(&oracle, &[], &windows, &cfg) {
            Err(PlanError::Infeasible { window, .. }) => assert_eq!(window, 1),
            other => panic!("expected window-1 infeasibility, got {other:?}"),
        }
    }
}
