//! The single-instance throughput model (paper §IV-B1, Eq. 1–5).
//!
//! An instance's output rate against its source rate is piecewise linear
//! (paper Fig. 3): proportional with slope α (the I/O coefficient) until
//! the saturation point (SP), then flat at the saturation throughput
//! (ST = α·SP) once backpressure pins the instance at its maximum
//! processing rate:
//!
//! ```text
//! T(t) = min(α·t, ST)            (Eq. 2)
//! ```

use crate::error::{CoreError, Result};
use caladrius_forecast::streaming::KahanSum;
use serde::{Deserialize, Serialize};

/// One observation window (typically one minute) of a single instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceObservation {
    /// Rate offered to the instance by its upstream(s), tuples/min.
    pub source_rate: f64,
    /// Rate the instance actually processed, tuples/min.
    pub input_rate: f64,
    /// Rate the instance emitted, tuples/min.
    pub output_rate: f64,
    /// Whether the instance was in backpressure during the window.
    pub backpressured: bool,
}

/// Fitted saturation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Saturation {
    /// Input rate at the knee (SP), tuples/min.
    pub input_sp: f64,
    /// Output rate on the plateau (ST), tuples/min. `ST = α·SP`.
    pub output_st: f64,
}

/// The fitted piecewise-linear instance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceModel {
    /// I/O coefficient α — output tuples per input tuple.
    pub alpha: f64,
    /// Saturation knee, if the training data contained a saturated
    /// window. `None` means the instance was never observed saturated and
    /// predictions beyond the observed range extrapolate linearly (the
    /// paper needs "at least two data points: one in the non-saturation
    /// interval and one in the saturation interval" to place the knee).
    pub saturation: Option<Saturation>,
}

/// Relative slack below the source rate at which an input is considered
/// saturated even without an explicit backpressure flag.
const SATURATION_SLACK: f64 = 0.03;

impl InstanceModel {
    /// Builds a model directly from parameters (useful for what-if
    /// analyses and tests).
    pub fn from_params(alpha: f64, saturation: Option<Saturation>) -> Self {
        Self { alpha, saturation }
    }

    /// Fits α and (if observable) the saturation knee from observation
    /// windows.
    ///
    /// * α is the least-squares slope through the origin of output vs
    ///   input over every usable window (the ratio holds on both sides of
    ///   the knee).
    /// * A window is *saturated* when it was flagged backpressured or its
    ///   input fell measurably below its source rate; ST is the median
    ///   output and SP the median input over saturated windows.
    ///
    /// α's sums are compensated ([`KahanSum`]) and added in the order the
    /// observations come, so the same observations in the same order give
    /// the same bits.
    pub fn fit<'a>(
        observations: impl IntoIterator<Item = &'a InstanceObservation>,
    ) -> Result<Self> {
        let (mut sxy, mut sxx, mut usable) = (KahanSum::new(), KahanSum::new(), 0usize);
        let (mut sat_inputs, mut sat_outputs) = (Vec::new(), Vec::new());
        for o in observations {
            if !(o.input_rate.is_finite()
                && o.output_rate.is_finite()
                && o.source_rate.is_finite()
                && o.input_rate > 0.0)
            {
                continue;
            }
            sxy.add(o.input_rate * o.output_rate);
            sxx.add(o.input_rate * o.input_rate);
            usable += 1;
            let starved =
                o.source_rate > 0.0 && o.input_rate < o.source_rate * (1.0 - SATURATION_SLACK);
            if o.backpressured || starved {
                sat_inputs.push(o.input_rate);
                sat_outputs.push(o.output_rate);
            }
        }
        if usable == 0 {
            return Err(CoreError::NotEnoughObservations {
                what: "instance model".into(),
                needed: 1,
                got: 0,
            });
        }
        let den = sxx.value();
        if den <= 0.0 {
            return Err(CoreError::NotEnoughObservations {
                what: "instance model alpha".into(),
                needed: 1,
                got: 0,
            });
        }
        let saturation = (!sat_inputs.is_empty()).then(|| Saturation {
            input_sp: median(sat_inputs),
            output_st: median(sat_outputs),
        });
        Ok(Self {
            alpha: sxy.value() / den,
            saturation,
        })
    }

    /// Eq. 2: output rate for a single-stream source rate `t`.
    pub fn output_for_source(&self, t: f64) -> f64 {
        let linear = self.alpha * t.max(0.0);
        match self.saturation {
            Some(s) => linear.min(s.output_st),
            None => linear,
        }
    }

    /// Input (processing) rate for a source rate `t`: `min(t, SP)`.
    pub fn input_for_source(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        match self.saturation {
            Some(s) => t.min(s.input_sp),
            None => t,
        }
    }

    /// Eq. 3: output rate with `m` input streams, as written in the paper
    /// (each stream's contribution independently capped at ST).
    pub fn output_for_sources(&self, sources: &[f64]) -> f64 {
        sources.iter().map(|t| self.output_for_source(*t)).sum()
    }

    /// Physical multi-input variant: saturation applies to the *total*
    /// input, `min(α·Σt, ST)`. Coincides with Eq. 3 for a single stream
    /// and lower-bounds it otherwise.
    pub fn output_for_total_source(&self, sources: &[f64]) -> f64 {
        self.output_for_source(sources.iter().sum())
    }

    /// Inverse of Eq. 2 (used by Eq. 13): the smallest source rate
    /// producing output `y`; saturated outputs map to the knee SP.
    pub fn source_for_output(&self, y: f64) -> f64 {
        let y = y.max(0.0);
        if self.alpha <= 0.0 {
            return 0.0;
        }
        match self.saturation {
            Some(s) if y >= s.output_st => s.output_st / self.alpha,
            _ => y / self.alpha,
        }
    }

    /// True when a source rate `t` would saturate the instance.
    pub fn saturates_at(&self, t: f64) -> bool {
        match self.saturation {
            Some(s) => self.alpha * t >= s.output_st * (1.0 - 1e-9),
            None => false,
        }
    }
}

/// Eq. 4/5: total output of an instance with `n` output streams, each
/// with its own I/O coefficient and saturation throughput, under `m`
/// source streams.
pub fn multi_output_total(streams: &[InstanceModel], sources: &[f64]) -> f64 {
    streams.iter().map(|s| s.output_for_sources(sources)).sum()
}

/// Median of finite `values`, given in the order they were observed.
/// Values that compare equal sort newest first (a stable sort of the
/// reversed list), so which of `-0.0` and `0.0` lands in the middle
/// depends on the observations' order alone.
fn median(mut values: Vec<f64>) -> f64 {
    values.reverse();
    values.sort_by(|a, b| a.partial_cmp(b).expect("saturated windows are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(source: f64, input: f64, output: f64, bp: bool) -> InstanceObservation {
        InstanceObservation {
            source_rate: source,
            input_rate: input,
            output_rate: output,
            backpressured: bp,
        }
    }

    /// Synthetic paper-like sweep: capacity 11 (SP), alpha 7.63.
    fn sweep() -> Vec<InstanceObservation> {
        (1..=20)
            .map(|i| {
                let t = i as f64;
                let input = t.min(11.0);
                obs(t, input, input * 7.63, t > 11.0)
            })
            .collect()
    }

    #[test]
    fn fit_recovers_alpha_and_knee() {
        let m = InstanceModel::fit(&sweep()).unwrap();
        assert!((m.alpha - 7.63).abs() < 1e-9);
        let s = m.saturation.expect("sweep contains saturated windows");
        assert!((s.input_sp - 11.0).abs() < 1e-9);
        assert!((s.output_st - 11.0 * 7.63).abs() < 1e-9);
    }

    #[test]
    fn eq2_min_form() {
        let m = InstanceModel::from_params(
            7.63,
            Some(Saturation {
                input_sp: 11.0,
                output_st: 83.93,
            }),
        );
        // Below the knee: linear.
        assert!((m.output_for_source(5.0) - 38.15).abs() < 1e-9);
        // Above: flat at ST.
        assert_eq!(m.output_for_source(15.0), 83.93);
        assert_eq!(m.output_for_source(1e9), 83.93);
        // Negative clamps to zero.
        assert_eq!(m.output_for_source(-3.0), 0.0);
    }

    #[test]
    fn input_caps_at_sp() {
        let m = InstanceModel::from_params(
            2.0,
            Some(Saturation {
                input_sp: 10.0,
                output_st: 20.0,
            }),
        );
        assert_eq!(m.input_for_source(4.0), 4.0);
        assert_eq!(m.input_for_source(25.0), 10.0);
    }

    #[test]
    fn unsaturated_model_extrapolates_linearly() {
        let m =
            InstanceModel::fit(&[obs(1.0, 1.0, 7.63, false), obs(2.0, 2.0, 15.26, false)]).unwrap();
        assert!(m.saturation.is_none());
        assert!((m.output_for_source(100.0) - 763.0).abs() < 1e-9);
        assert!(!m.saturates_at(1e12));
    }

    #[test]
    fn eq3_multi_input_reduces_to_eq2_for_single_stream() {
        let m = InstanceModel::from_params(
            3.0,
            Some(Saturation {
                input_sp: 10.0,
                output_st: 30.0,
            }),
        );
        for t in [0.0, 5.0, 10.0, 50.0] {
            assert_eq!(m.output_for_sources(&[t]), m.output_for_source(t));
        }
    }

    #[test]
    fn eq3_caps_each_stream_and_total_caps_sum() {
        let m = InstanceModel::from_params(
            1.0,
            Some(Saturation {
                input_sp: 10.0,
                output_st: 10.0,
            }),
        );
        // Paper Eq. 3: each stream capped separately.
        assert_eq!(m.output_for_sources(&[8.0, 8.0]), 16.0);
        assert_eq!(m.output_for_sources(&[15.0, 15.0]), 20.0);
        // Physical: the total is capped.
        assert_eq!(m.output_for_total_source(&[8.0, 8.0]), 10.0);
        assert!(m.output_for_total_source(&[8.0, 8.0]) <= m.output_for_sources(&[8.0, 8.0]));
    }

    #[test]
    fn eq4_multi_output_sums_streams() {
        let a = InstanceModel::from_params(
            2.0,
            Some(Saturation {
                input_sp: 10.0,
                output_st: 20.0,
            }),
        );
        let b = InstanceModel::from_params(
            0.5,
            Some(Saturation {
                input_sp: 10.0,
                output_st: 5.0,
            }),
        );
        // Below saturation: 2t + 0.5t.
        assert_eq!(multi_output_total(&[a, b], &[4.0]), 10.0);
        // Above: both streams cap.
        assert_eq!(multi_output_total(&[a, b], &[100.0]), 25.0);
    }

    #[test]
    fn inverse_maps_outputs_back() {
        let m = InstanceModel::from_params(
            7.63,
            Some(Saturation {
                input_sp: 11.0,
                output_st: 83.93,
            }),
        );
        assert!((m.source_for_output(38.15) - 5.0).abs() < 1e-9);
        // Saturated outputs invert to the knee.
        assert!((m.source_for_output(83.93) - 11.0).abs() < 1e-9);
        assert!((m.source_for_output(1e6) - 11.0).abs() < 1e-9);
        assert_eq!(m.source_for_output(-1.0), 0.0);
    }

    #[test]
    fn inverse_roundtrips_below_saturation() {
        let m = InstanceModel::fit(&sweep()).unwrap();
        for t in [1.0, 4.0, 9.5] {
            let y = m.output_for_source(t);
            assert!((m.source_for_output(y) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn saturates_at_detects_knee() {
        let m = InstanceModel::fit(&sweep()).unwrap();
        assert!(!m.saturates_at(5.0));
        assert!(m.saturates_at(11.0));
        assert!(m.saturates_at(20.0));
    }

    #[test]
    fn starved_windows_detected_without_bp_flag() {
        // input well below source but flag unset — still saturated.
        let observations = vec![obs(5.0, 5.0, 10.0, false), obs(20.0, 10.0, 20.0, false)];
        let m = InstanceModel::fit(&observations).unwrap();
        let s = m.saturation.expect("starvation implies saturation");
        assert_eq!(s.input_sp, 10.0);
        assert_eq!(s.output_st, 20.0);
    }

    #[test]
    fn fit_rejects_empty_and_degenerate() {
        assert!(matches!(
            InstanceModel::fit(&[]),
            Err(CoreError::NotEnoughObservations { .. })
        ));
        // Only zero-input windows.
        assert!(InstanceModel::fit(&[obs(0.0, 0.0, 0.0, false)]).is_err());
        // NaNs skipped.
        assert!(InstanceModel::fit(&[obs(f64::NAN, f64::NAN, f64::NAN, false)]).is_err());
    }

    #[test]
    fn median_sorts_equal_values_newest_first() {
        // What inserting each value before its equals gives, -0.0 and 0.0
        // included: the median is the same function of the order.
        let insertion_sorted = |values: &[f64]| {
            let mut sorted: Vec<f64> = Vec::new();
            for v in values {
                sorted.insert(sorted.partition_point(|x| x < v), *v);
            }
            sorted
        };
        let cases: [&[f64]; 4] = [
            &[0.0, -0.0, 3.0],
            &[-0.0, 0.0, 3.0],
            &[2.0, 0.0, -0.0, 1.0, -0.0, 0.0, 2.0],
            &[5.0, 1.5, 1.5, -0.0, 9.0, 0.0],
        ];
        for values in cases {
            let sorted = insertion_sorted(values);
            let n = sorted.len();
            let expected = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            assert_eq!(
                median(values.to_vec()).to_bits(),
                expected.to_bits(),
                "{values:?}"
            );
        }
    }

    #[test]
    fn fit_is_robust_to_noise() {
        let noisy: Vec<InstanceObservation> = (1..=40)
            .map(|i| {
                let t = i as f64 / 2.0;
                let input = t.min(11.0);
                let jitter = 1.0 + 0.01 * ((i * 37 % 7) as f64 - 3.0) / 3.0;
                obs(t, input, input * 7.63 * jitter, t > 11.0)
            })
            .collect();
        let m = InstanceModel::fit(&noisy).unwrap();
        assert!((m.alpha - 7.63).abs() < 0.08, "alpha {}", m.alpha);
        let s = m.saturation.unwrap();
        assert!((s.input_sp - 11.0).abs() < 0.2);
    }
}
