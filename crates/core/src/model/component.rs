//! The component-level throughput model (paper §IV-B2, Eq. 6–11).
//!
//! A component's output is the sum of its instances' outputs (Eq. 6/7).
//! How source traffic divides across instances depends on the upstream
//! grouping:
//!
//! * **shuffle** — evenly (Eq. 8), so the component at parallelism `p` is
//!   the instance curve scaled by `p`: `T_c(p, t) = p · T_i(t/p)`
//!   (Eq. 9), and predictions for a new parallelism `p' = γp` are the
//!   observed line scaled by γ.
//! * **fields** — by key-hash shares. With the observed bias held fixed,
//!   traffic scaling follows Eq. 11; *parallelism* changes re-hash the
//!   keys, which is unpredictable for biased key sets (paper §IV-B2b) —
//!   unless the keys are (close to) uniform, or the caller plugs in a
//!   [`CustomGroupingModel`] describing their own partitioner.

use crate::error::{CoreError, Result};
use crate::model::instance::{InstanceFitStats, InstanceModel, InstanceObservation};
use caladrius_forecast::streaming::KahanSum;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Upstream grouping as seen by the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupingKind {
    /// Even round-robin sharing.
    Shuffle,
    /// Key-hash sharing.
    Fields,
    /// Every instance receives the full stream.
    All,
    /// One instance receives everything.
    Global,
    /// Anything else (custom user grouping).
    Other(String),
}

impl GroupingKind {
    /// Maps a simulator grouping name to the model-side kind.
    pub fn from_name(name: &str) -> Self {
        match name {
            "shuffle" => GroupingKind::Shuffle,
            "fields" => GroupingKind::Fields,
            "all" => GroupingKind::All,
            "global" => GroupingKind::Global,
            other => GroupingKind::Other(other.to_string()),
        }
    }
}

/// One observation window of a whole component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentObservation {
    /// Traffic offered to the component (tuples/min).
    pub source_rate: f64,
    /// Total processed rate across instances (tuples/min).
    pub input_rate: f64,
    /// Total emitted rate across instances (tuples/min).
    pub output_rate: f64,
    /// Processed rate per instance, for bias estimation. May be empty if
    /// per-instance data is unavailable.
    pub per_instance_inputs: Vec<f64>,
    /// Whether any instance held backpressure during the window.
    pub backpressured: bool,
}

/// A pluggable description of a custom key partitioner: given a
/// parallelism, the fraction of traffic each instance receives. This is
/// the hook the paper suggests for biased data sets ("a user can
/// implement their own customized key grouping to make the traffic
/// distribution predictable and plug the corresponding model into
/// Caladrius").
pub trait CustomGroupingModel: Send + Sync {
    /// Traffic share per instance at the given parallelism; must sum to 1.
    fn shares(&self, parallelism: u32) -> Vec<f64>;
}

/// Relative share deviation below which a fields-grouped key set is
/// treated as unbiased (uniform enough for Eq. 9 to apply).
pub const UNBIASED_TOLERANCE: f64 = 0.05;

/// A component's prediction for one (parallelism, source rate) query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentPrediction {
    /// Predicted total output rate (tuples/min).
    pub output_rate: f64,
    /// Predicted total processed rate (tuples/min).
    pub input_rate: f64,
    /// Predicted processed rate per instance (tuples/min) — feeds the CPU
    /// model.
    pub per_instance_inputs: Vec<f64>,
    /// Whether any instance is predicted to saturate at this rate.
    pub saturated: bool,
}

/// How a component's source traffic divides over its instances at one
/// parallelism, without a share per instance having to exist.
enum Shares<'a> {
    /// Every instance receives this fraction (shuffle, unbiased fields:
    /// `1/p`; all: the whole stream each).
    Even(f64),
    /// Instance 0 receives everything (global).
    First,
    /// One explicit fraction per instance (fields at the fitted
    /// parallelism, or a [`CustomGroupingModel`]'s answer).
    Each(Cow<'a, [f64]>),
}

impl Shares<'_> {
    /// Calls `f` with each instance's share, instance 0 first.
    fn for_each(&self, parallelism: u32, mut f: impl FnMut(f64)) {
        match self {
            Shares::Even(share) => (0..parallelism).for_each(|_| f(*share)),
            Shares::First => (0..parallelism).for_each(|i| f(if i == 0 { 1.0 } else { 0.0 })),
            Shares::Each(shares) => shares.iter().for_each(|share| f(*share)),
        }
    }
}

/// The fitted component model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentModel {
    /// Component name.
    pub name: String,
    /// Parallelism at which the observations were taken.
    pub fitted_parallelism: u32,
    /// The representative per-instance model (fit on per-instance rates).
    pub instance: InstanceModel,
    /// Observed mean traffic share per instance (sums to 1). Uniform for
    /// shuffle; estimated from per-instance inputs for fields.
    pub shares: Vec<f64>,
    /// Upstream grouping.
    pub grouping: GroupingKind,
}

/// Streaming sufficient statistics for a component fit.
///
/// Holds the per-instance-average regression sums plus the bias (share)
/// sums; both the batch `fit` and the incremental delta path push
/// observation windows through here one at a time, so a model rebuilt
/// after absorbing a delta is bitwise-identical to a full refit.
#[derive(Debug, Clone)]
pub struct ComponentFitStats {
    name: String,
    parallelism: u32,
    grouping: GroupingKind,
    instance: InstanceFitStats,
    share_sums: Vec<KahanSum>,
    share_windows: usize,
    pushed: usize,
}

impl ComponentFitStats {
    /// A zeroed accumulator for a component observed at `parallelism`
    /// under `grouping`.
    pub fn new(name: impl Into<String>, parallelism: u32, grouping: GroupingKind) -> Result<Self> {
        if parallelism == 0 {
            return Err(CoreError::InvalidRequest(
                "component parallelism must be positive".into(),
            ));
        }
        Ok(Self {
            name: name.into(),
            parallelism,
            grouping,
            instance: InstanceFitStats::new(),
            share_sums: vec![KahanSum::new(); parallelism as usize],
            share_windows: 0,
            pushed: 0,
        })
    }

    /// Absorbs one observation window.
    pub fn push(&mut self, o: &ComponentObservation) {
        self.pushed += 1;
        let p = f64::from(self.parallelism);
        // Representative instance model on per-instance-average rates.
        self.instance.push(&InstanceObservation {
            source_rate: o.source_rate / p,
            input_rate: o.input_rate / p,
            output_rate: o.output_rate / p,
            backpressured: o.backpressured,
        });
        // Bias estimation: average each instance's share of the total
        // input over non-saturated windows (saturated windows flatten the
        // shares and would hide the bias).
        if o.backpressured
            || o.per_instance_inputs.len() != self.parallelism as usize
            || o.input_rate <= 0.0
        {
            return;
        }
        for (s, v) in self.share_sums.iter_mut().zip(&o.per_instance_inputs) {
            s.add(v / o.input_rate);
        }
        self.share_windows += 1;
    }

    /// Total observation windows pushed (usable or not).
    pub fn windows(&self) -> usize {
        self.pushed
    }

    /// The parallelism the statistics were accumulated at.
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// Solves the accumulated sums into a fitted model.
    pub fn solve(&self) -> Result<ComponentModel> {
        let instance = self.instance.solve().map_err(|e| match e {
            CoreError::NotEnoughObservations { needed, got, .. } => {
                CoreError::NotEnoughObservations {
                    what: format!("component model for {:?}", self.name),
                    needed,
                    got,
                }
            }
            other => other,
        })?;
        let p = f64::from(self.parallelism);
        let shares = if self.share_windows > 0 {
            self.share_sums
                .iter()
                .map(|s| s.value() / self.share_windows as f64)
                .collect()
        } else {
            vec![1.0 / p; self.parallelism as usize]
        };
        Ok(ComponentModel {
            name: self.name.clone(),
            fitted_parallelism: self.parallelism,
            instance,
            shares,
            grouping: self.grouping.clone(),
        })
    }
}

impl ComponentModel {
    /// Fits a component model from observation windows taken at
    /// `parallelism` instances under `grouping`.
    pub fn fit(
        name: impl Into<String>,
        parallelism: u32,
        grouping: GroupingKind,
        observations: &[ComponentObservation],
    ) -> Result<Self> {
        let mut stats = ComponentFitStats::new(name, parallelism, grouping)?;
        for o in observations {
            stats.push(o);
        }
        stats.solve()
    }

    /// Maximum relative deviation of the observed shares from uniform:
    /// `max_i |share_i · p − 1|`. Zero means perfectly even.
    pub fn bias(&self) -> f64 {
        let p = self.shares.len() as f64;
        self.shares
            .iter()
            .map(|s| (s * p - 1.0).abs())
            .fold(0.0, f64::max)
    }

    /// True when the observed key distribution is uniform enough for
    /// parallelism scaling (paper: "in some cases the data set
    /// distribution is uniform or load-balanced").
    pub fn is_unbiased(&self) -> bool {
        self.bias() <= UNBIASED_TOLERANCE
    }

    /// The grouping → shares rule: how source traffic divides over the
    /// instances at a queried parallelism, or an error when that is
    /// unknowable (biased fields keys at a new parallelism without a
    /// custom model).
    fn share_rule(
        &self,
        parallelism: u32,
        custom: Option<&dyn CustomGroupingModel>,
    ) -> Result<Shares<'_>> {
        let even = Shares::Even(1.0 / f64::from(parallelism));
        match &self.grouping {
            GroupingKind::Shuffle => Ok(even),
            GroupingKind::All => Ok(Shares::Even(1.0)),
            GroupingKind::Global => Ok(Shares::First),
            GroupingKind::Fields | GroupingKind::Other(_) => {
                if let Some(model) = custom {
                    let shares = model.shares(parallelism);
                    if shares.len() != parallelism as usize {
                        return Err(CoreError::InvalidRequest(format!(
                            "custom grouping model returned {} shares for parallelism {parallelism}",
                            shares.len()
                        )));
                    }
                    return Ok(Shares::Each(Cow::Owned(shares)));
                }
                if parallelism == self.fitted_parallelism {
                    // Fixed parallelism: the observed bias is assumed to
                    // persist (paper: "the source traffic bias remains
                    // unchanged over time").
                    Ok(Shares::Each(Cow::Borrowed(&self.shares)))
                } else if self.is_unbiased() {
                    Ok(even)
                } else {
                    Err(CoreError::Unpredictable(format!(
                        "component {:?} uses fields grouping over biased keys \
                         (bias {:.1}%); routing at parallelism {parallelism} cannot \
                         be derived from observations at parallelism {} — plug in a \
                         CustomGroupingModel",
                        self.name,
                        self.bias() * 100.0,
                        self.fitted_parallelism
                    )))
                }
            }
        }
    }

    /// [`ComponentModel::share_rule`] as one share per instance.
    fn shares_at(
        &self,
        parallelism: u32,
        custom: Option<&dyn CustomGroupingModel>,
    ) -> Result<Vec<f64>> {
        let mut shares = Vec::with_capacity(parallelism as usize);
        self.share_rule(parallelism, custom)?
            .for_each(parallelism, |share| shares.push(share));
        Ok(shares)
    }

    /// Validates a `(parallelism, source rate)` query and resolves its
    /// shares — the checks, in the order, every prediction makes.
    fn checked_shares(
        &self,
        parallelism: u32,
        source_rate: f64,
        custom: Option<&dyn CustomGroupingModel>,
    ) -> Result<Shares<'_>> {
        if parallelism == 0 {
            return Err(CoreError::InvalidRequest(
                "parallelism must be positive".into(),
            ));
        }
        if !(source_rate.is_finite() && source_rate >= 0.0) {
            return Err(CoreError::InvalidRequest(format!(
                "source rate must be a non-negative number, got {source_rate}"
            )));
        }
        self.share_rule(parallelism, custom)
    }

    /// Eq. 7 over the instances, instance 0 first: the summed output and
    /// whether any instance saturates. `each` sees every instance's
    /// source rate `source · share` before it is added.
    fn sum_instances(
        &self,
        shares: &Shares<'_>,
        parallelism: u32,
        source_rate: f64,
        mut each: impl FnMut(f64),
    ) -> (f64, bool) {
        let mut output = 0.0;
        let mut saturated = false;
        shares.for_each(parallelism, |share| {
            let t_i = source_rate * share;
            each(t_i);
            output += self.instance.output_for_source(t_i);
            saturated |= self.instance.saturates_at(t_i);
        });
        (output, saturated)
    }

    /// Predicts component throughput at `parallelism` under component
    /// source rate `source_rate` (Eq. 9 / Eq. 11 depending on grouping).
    pub fn predict(&self, parallelism: u32, source_rate: f64) -> Result<ComponentPrediction> {
        self.predict_with(parallelism, source_rate, None)
    }

    /// [`ComponentModel::predict`] with an optional custom partitioner.
    pub fn predict_with(
        &self,
        parallelism: u32,
        source_rate: f64,
        custom: Option<&dyn CustomGroupingModel>,
    ) -> Result<ComponentPrediction> {
        let shares = self.checked_shares(parallelism, source_rate, custom)?;
        let mut input = 0.0;
        let mut per_instance = Vec::with_capacity(parallelism as usize);
        let (output, saturated) = self.sum_instances(&shares, parallelism, source_rate, |t_i| {
            let in_i = self.instance.input_for_source(t_i);
            input += in_i;
            per_instance.push(in_i);
        });
        Ok(ComponentPrediction {
            output_rate: output,
            input_rate: input,
            per_instance_inputs: per_instance,
            saturated,
        })
    }

    /// [`ComponentModel::predict`]'s `(output_rate, saturated)` — the
    /// same checks and the same sums in the same order, so the same
    /// bits — without building the prediction: what the topology's
    /// saturation search asks of every component at every probe.
    pub(crate) fn output_and_saturation(
        &self,
        parallelism: u32,
        source_rate: f64,
    ) -> Result<(f64, bool)> {
        let shares = self.checked_shares(parallelism, source_rate, None)?;
        Ok(self.sum_instances(&shares, parallelism, source_rate, |_| {}))
    }

    /// The component source rate at which backpressure first triggers —
    /// the rate at which the *most loaded* instance hits its knee.
    /// `None` when the instance model never observed saturation.
    pub fn saturation_source_rate(&self, parallelism: u32) -> Result<Option<f64>> {
        self.saturation_source_rate_with(parallelism, None)
    }

    /// [`ComponentModel::saturation_source_rate`] with a custom
    /// partitioner.
    pub fn saturation_source_rate_with(
        &self,
        parallelism: u32,
        custom: Option<&dyn CustomGroupingModel>,
    ) -> Result<Option<f64>> {
        let Some(sat) = self.instance.saturation else {
            return Ok(None);
        };
        let shares = self.shares_at(parallelism, custom)?;
        let max_share = shares.iter().copied().fold(0.0, f64::max);
        if max_share <= 0.0 {
            return Ok(None);
        }
        Ok(Some(sat.input_sp / max_share))
    }

    /// Inverse prediction: the smallest component source rate that yields
    /// component output `y` at `parallelism` (used by Eq. 13). Assumes
    /// the shares at that parallelism are resolvable.
    pub fn source_for_output(&self, parallelism: u32, y: f64) -> Result<f64> {
        let shares = self.shares_at(parallelism, None)?;
        // With shares s_i, output(t) = Σ min(α s_i t, ST) is piecewise
        // linear and non-decreasing in t; invert by bisection over a
        // bracket.
        let y = y.max(0.0);
        if y == 0.0 {
            return Ok(0.0);
        }
        let max_output: f64 = match self.instance.saturation {
            Some(s) => s.output_st * shares.len() as f64,
            None => f64::INFINITY,
        };
        if y >= max_output {
            // Saturated: return the onset of full saturation (every
            // instance at its knee), mirroring the instance inverse.
            let min_share = shares
                .iter()
                .copied()
                .filter(|s| *s > 0.0)
                .fold(f64::INFINITY, f64::min);
            let sat = self
                .instance
                .saturation
                .expect("max_output finite implies saturation");
            return Ok(sat.input_sp / min_share);
        }
        let eval = |t: f64| {
            shares
                .iter()
                .map(|s| self.instance.output_for_source(t * s))
                .sum::<f64>()
        };
        let mut lo = 0.0;
        let mut hi = 1.0;
        while eval(hi) < y {
            hi *= 2.0;
            if hi > 1e18 {
                return Err(CoreError::Unpredictable(format!(
                    "output {y} unreachable for component {:?}",
                    self.name
                )));
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if eval(mid) < y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// A hand-built component for this module's and the topology walk's
/// proptests: `10^log_alpha` for α, `10^log_knee` for the knee, and
/// `grouping` 0 shuffle, 1 fields over biased keys, 2 fields over uniform
/// keys, 3 all, 4 global.
#[cfg(test)]
pub(crate) fn arbitrary_component(
    name: &str,
    fitted_p: u32,
    log_alpha: f64,
    log_knee: Option<f64>,
    grouping: u32,
) -> ComponentModel {
    let alpha = 10f64.powf(log_alpha);
    let p = f64::from(fitted_p);
    let shares = if grouping == 1 {
        // Instance i carries a share proportional to i + 1.
        (1..=fitted_p)
            .map(|i| f64::from(i) / (p * (p + 1.0) / 2.0))
            .collect()
    } else {
        vec![1.0 / p; fitted_p as usize]
    };
    ComponentModel {
        name: name.to_string(),
        fitted_parallelism: fitted_p,
        instance: InstanceModel::from_params(
            alpha,
            log_knee
                .map(|k| 10f64.powf(k))
                .map(|knee| crate::model::instance::Saturation {
                    input_sp: knee,
                    output_st: alpha * knee,
                }),
        ),
        shares,
        grouping: match grouping {
            0 => GroupingKind::Shuffle,
            1 | 2 => GroupingKind::Fields,
            3 => GroupingKind::All,
            _ => GroupingKind::Global,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::instance::Saturation;

    /// Observations of a 3-instance shuffle component whose instances
    /// saturate at 11 input units with alpha 7.63 (component knee at 33).
    fn shuffle_obs(p: u32) -> Vec<ComponentObservation> {
        let pf = f64::from(p);
        (1..=60)
            .map(|i| {
                let t = i as f64; // component source
                let per = (t / pf).min(11.0);
                let input = per * pf;
                ComponentObservation {
                    source_rate: t,
                    input_rate: input,
                    output_rate: input * 7.63,
                    per_instance_inputs: vec![per; p as usize],
                    backpressured: t / pf > 11.0,
                }
            })
            .collect()
    }

    fn fitted_shuffle(p: u32) -> ComponentModel {
        ComponentModel::fit("splitter", p, GroupingKind::Shuffle, &shuffle_obs(p)).unwrap()
    }

    #[test]
    fn fit_recovers_instance_scale() {
        let m = fitted_shuffle(3);
        assert!((m.instance.alpha - 7.63).abs() < 1e-9);
        let s = m.instance.saturation.unwrap();
        assert!((s.input_sp - 11.0).abs() < 1e-9);
        assert!(m.is_unbiased());
        assert_eq!(m.shares.len(), 3);
    }

    #[test]
    fn split_accumulation_matches_batch_exactly() {
        let observations = fields_obs(&[0.5, 0.3, 0.2]);
        for split_at in [1, 20, observations.len() - 1] {
            let mut stats = ComponentFitStats::new("counter", 3, GroupingKind::Fields).unwrap();
            for o in &observations[..split_at] {
                stats.push(o);
            }
            for o in &observations[split_at..] {
                stats.push(o);
            }
            let incremental = stats.solve().unwrap();
            let batch =
                ComponentModel::fit("counter", 3, GroupingKind::Fields, &observations).unwrap();
            assert_eq!(
                incremental.instance.alpha.to_bits(),
                batch.instance.alpha.to_bits()
            );
            assert_eq!(incremental.instance.saturation, batch.instance.saturation);
            for (a, b) in incremental.shares.iter().zip(&batch.shares) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn eq9_scaling_to_new_parallelism() {
        // Paper §V-C: observe at p=3, predict p=2 and p=4.
        let m = fitted_shuffle(3);
        // p=2: knee at 22, ST at 22*7.63.
        let sat2 = m.saturation_source_rate(2).unwrap().unwrap();
        assert!((sat2 - 22.0).abs() < 1e-6);
        let pred = m.predict(2, 30.0).unwrap();
        assert!((pred.output_rate - 22.0 * 7.63).abs() < 1e-6);
        assert!(pred.saturated);
        // p=4: knee at 44; below it the response is linear.
        let sat4 = m.saturation_source_rate(4).unwrap().unwrap();
        assert!((sat4 - 44.0).abs() < 1e-6);
        let pred = m.predict(4, 40.0).unwrap();
        assert!((pred.output_rate - 40.0 * 7.63).abs() < 1e-6);
        assert!(!pred.saturated);
    }

    #[test]
    fn eq9_identity_at_p1() {
        let m = fitted_shuffle(1);
        let pred = m.predict(1, 5.0).unwrap();
        assert!((pred.output_rate - m.instance.output_for_source(5.0)).abs() < 1e-9);
    }

    #[test]
    fn per_instance_inputs_feed_cpu_model() {
        let m = fitted_shuffle(3);
        let pred = m.predict(3, 15.0).unwrap();
        assert_eq!(pred.per_instance_inputs.len(), 3);
        for v in &pred.per_instance_inputs {
            assert!((v - 5.0).abs() < 1e-9);
        }
        assert!((pred.input_rate - 15.0).abs() < 1e-9);
    }

    /// Fields observations with a fixed biased share vector.
    fn fields_obs(shares: &[f64]) -> Vec<ComponentObservation> {
        (1..=80)
            .map(|i| {
                let t = i as f64;
                let per: Vec<f64> = shares.iter().map(|s| (t * s).min(11.0)).collect();
                let input: f64 = per.iter().sum();
                let bp = shares.iter().any(|s| t * s > 11.0);
                ComponentObservation {
                    source_rate: t,
                    input_rate: input,
                    output_rate: input * 7.63,
                    per_instance_inputs: per,
                    backpressured: bp,
                }
            })
            .take_while(|o| !o.backpressured) // bias estimated pre-saturation
            .collect::<Vec<_>>()
            .into_iter()
            .chain((81..=100).map(|i| {
                let t = i as f64;
                let per: Vec<f64> = shares.iter().map(|s| (t * s).min(11.0)).collect();
                let input: f64 = per.iter().sum();
                ComponentObservation {
                    source_rate: t,
                    input_rate: input,
                    output_rate: input * 7.63,
                    per_instance_inputs: per,
                    backpressured: true,
                }
            }))
            .collect()
    }

    #[test]
    fn fields_bias_estimated_from_observations() {
        let shares = [0.5, 0.3, 0.2];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        for (est, actual) in m.shares.iter().zip(&shares) {
            assert!((est - actual).abs() < 0.01, "share {est} vs {actual}");
        }
        assert!(!m.is_unbiased());
        assert!((m.bias() - 0.5).abs() < 0.05); // 0.5*3-1 = 0.5
    }

    #[test]
    fn eq11_traffic_scaling_with_fixed_bias() {
        let shares = [0.5, 0.3, 0.2];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        // Below any instance's knee: linear in total rate.
        let pred = m.predict(3, 10.0).unwrap();
        assert!((pred.output_rate - 10.0 * 7.63).abs() < 0.2);
        // The hot instance (50%) saturates first: at t=30 it is over its
        // knee (15 > 11) while the others are not.
        let pred = m.predict(3, 30.0).unwrap();
        assert!(pred.saturated);
        let expected = 11.0 * 7.63 + 9.0 * 7.63 + 6.0 * 7.63;
        assert!((pred.output_rate - expected).abs() / expected < 0.02);
    }

    #[test]
    fn fields_saturation_onset_set_by_hottest_instance() {
        let shares = [0.5, 0.3, 0.2];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        let sat = m.saturation_source_rate(3).unwrap().unwrap();
        assert!((sat - 22.0).abs() < 0.5, "11 / 0.5 = 22, got {sat}");
    }

    #[test]
    fn biased_fields_parallelism_change_is_unpredictable() {
        let shares = [0.5, 0.3, 0.2];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        let err = m.predict(4, 10.0).unwrap_err();
        assert!(matches!(err, CoreError::Unpredictable(_)));
        assert_eq!(m.output_and_saturation(4, 10.0).unwrap_err(), err);
    }

    #[test]
    fn unbiased_fields_scales_like_shuffle() {
        let shares = [1.0 / 3.0; 3];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        assert!(m.is_unbiased());
        let pred = m.predict(4, 40.0).unwrap();
        assert!((pred.output_rate - 40.0 * 7.63).abs() / (40.0 * 7.63) < 0.01);
    }

    struct FixedShares(Vec<f64>);
    impl CustomGroupingModel for FixedShares {
        fn shares(&self, _parallelism: u32) -> Vec<f64> {
            self.0.clone()
        }
    }

    #[test]
    fn custom_grouping_model_unlocks_biased_scaling() {
        let shares = [0.5, 0.3, 0.2];
        let m =
            ComponentModel::fit("counter", 3, GroupingKind::Fields, &fields_obs(&shares)).unwrap();
        let custom = FixedShares(vec![0.4, 0.3, 0.2, 0.1]);
        let pred = m.predict_with(4, 20.0, Some(&custom)).unwrap();
        // Hot instance gets 8 < 11: all linear.
        assert!((pred.output_rate - 20.0 * 7.63).abs() < 0.2);
        // Wrong-length custom shares rejected.
        let bad = FixedShares(vec![0.5, 0.5]);
        assert!(m.predict_with(4, 20.0, Some(&bad)).is_err());
    }

    #[test]
    fn all_and_global_groupings() {
        let m = ComponentModel {
            name: "sink".into(),
            fitted_parallelism: 2,
            instance: InstanceModel::from_params(
                1.0,
                Some(Saturation {
                    input_sp: 10.0,
                    output_st: 10.0,
                }),
            ),
            shares: vec![0.5, 0.5],
            grouping: GroupingKind::All,
        };
        // All: each of 2 instances sees the full 4 → output 8.
        let pred = m.predict(2, 4.0).unwrap();
        assert_eq!(pred.output_rate, 8.0);
        let m = ComponentModel {
            grouping: GroupingKind::Global,
            ..m
        };
        // Global: only instance 0 does work.
        let pred = m.predict(3, 4.0).unwrap();
        assert_eq!(pred.output_rate, 4.0);
        assert_eq!(pred.per_instance_inputs, vec![4.0, 0.0, 0.0]);
    }

    #[test]
    fn inverse_source_for_output() {
        let m = fitted_shuffle(3);
        // Linear region round-trip.
        let y = m.predict(3, 20.0).unwrap().output_rate;
        let t = m.source_for_output(3, y).unwrap();
        assert!((t - 20.0).abs() < 1e-6, "got {t}");
        // Saturated outputs invert to the all-knees onset (33 for p=3).
        let t = m.source_for_output(3, 1e9).unwrap();
        assert!((t - 33.0).abs() < 1e-6, "got {t}");
        assert_eq!(m.source_for_output(3, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn invalid_requests_rejected() {
        let m = fitted_shuffle(3);
        for (p, rate) in [(0, 10.0), (3, -5.0), (3, f64::NAN), (0, f64::NAN)] {
            let err = m.predict(p, rate).unwrap_err();
            assert!(matches!(err, CoreError::InvalidRequest(_)));
            assert_eq!(m.output_and_saturation(p, rate).unwrap_err(), err);
        }
        assert!(ComponentModel::fit("x", 0, GroupingKind::Shuffle, &shuffle_obs(1)).is_err());
    }

    proptest::proptest! {
        /// The search's evaluation is `predict` minus the report: the
        /// same output bits, the same saturation flag, the same error.
        #[test]
        fn output_and_saturation_is_predict_without_the_report(
            fitted_p in 1u32..65,
            log_alpha in -8.0f64..8.0,
            knee in (proptest::bool::ANY, -8.0f64..8.0),
            grouping in 0u32..5,
            query in (proptest::bool::ANY, 0u32..65),
            rate in (0u32..12, 0.0f64..80.0),
        ) {
            let model = arbitrary_component("c", fitted_p, log_alpha, knee.0.then_some(knee.1), grouping);
            let p = if query.0 { query.1 } else { fitted_p };
            let rate = match rate.0 {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => -1.0,
                3 => f64::NAN,
                _ => rate.1.exp2(),
            };
            let fast = model.output_and_saturation(p, rate);
            let full = model.predict(p, rate);
            match (fast, full) {
                (Ok((output, saturated)), Ok(full)) => {
                    assert_eq!(output.to_bits(), full.output_rate.to_bits());
                    assert_eq!(saturated, full.saturated);
                }
                (fast, full) => assert_eq!(fast.unwrap_err(), full.unwrap_err()),
            }
        }
    }

    #[test]
    fn fit_with_missing_per_instance_data_defaults_to_uniform() {
        let mut obs = shuffle_obs(3);
        for o in &mut obs {
            o.per_instance_inputs.clear();
        }
        let m = ComponentModel::fit("splitter", 3, GroupingKind::Shuffle, &obs).unwrap();
        assert!(m.is_unbiased());
    }
}
