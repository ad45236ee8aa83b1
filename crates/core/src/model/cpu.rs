//! The CPU-load prediction use case (paper §V-E).
//!
//! Per-instance CPU load is (approximately) linear in the instance's
//! input rate: `cpu ≈ base + ψ · input_rate`. Given the throughput model
//! (which predicts per-instance input rates for a proposed parallelism)
//! the CPU prediction is the chained composition — and, as the paper
//! notes, its error is larger than the throughput error because "error
//! has accumulated for the chained prediction steps".

use crate::error::{CoreError, Result};
use crate::model::component::ComponentModel;
use caladrius_forecast::streaming::KahanSum;
use serde::{Deserialize, Serialize};

/// One CPU observation window of a single instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuObservation {
    /// Processed rate (tuples/min).
    pub input_rate: f64,
    /// CPU load (cores).
    pub cpu_load: f64,
}

/// Fitted per-instance CPU model: `cpu = base + ψ·input_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Idle CPU load in cores (intercept).
    pub base: f64,
    /// Cores per (tuple/min) of input (slope ψ).
    pub psi: f64,
}

impl CpuModel {
    /// Fits the linear ratio from observations. Needs at least two
    /// windows at distinct input rates.
    ///
    /// The least-squares line comes from the raw sums (n, Σx, Σy, Σxx,
    /// Σxy), compensated ([`KahanSum`]) and added in the order the
    /// observations come, so the same observations in the same order
    /// give the same bits.
    pub fn fit<'a>(observations: impl IntoIterator<Item = &'a CpuObservation>) -> Result<Self> {
        let mut n = 0usize;
        let [mut sx, mut sy, mut sxx, mut sxy] = [KahanSum::new(); 4];
        for o in observations {
            if !(o.input_rate.is_finite() && o.cpu_load.is_finite()) {
                continue;
            }
            n += 1;
            sx.add(o.input_rate);
            sy.add(o.cpu_load);
            sxx.add(o.input_rate * o.input_rate);
            sxy.add(o.input_rate * o.cpu_load);
        }
        let degenerate = || CoreError::NotEnoughObservations {
            what: "cpu model".into(),
            needed: 2,
            got: n,
        };
        if n < 2 {
            return Err(degenerate());
        }
        let nf = n as f64;
        let mx = sx.value() / nf;
        let my = sy.value() / nf;
        // Centred moments recovered from the raw sums.
        let sxx_c = sxx.value() - nf * mx * mx;
        let sxy_c = sxy.value() - nf * mx * my;
        // Relative degeneracy guard: after cancellation the centred Σx²
        // may carry noise proportional to the raw Σx² magnitude.
        if sxx_c <= f64::EPSILON * sxx.value().abs().max(nf) {
            return Err(degenerate());
        }
        let psi = sxy_c / sxx_c;
        let base = my - psi * mx;
        Ok(CpuModel { base, psi })
    }

    /// Predicted CPU load (cores) of one instance processing
    /// `input_rate` tuples/min.
    pub fn predict_instance(&self, input_rate: f64) -> f64 {
        (self.base + self.psi * input_rate.max(0.0)).max(0.0)
    }

    /// Predicted total component CPU load (cores) for a proposed
    /// parallelism and component source rate, chained through the
    /// throughput model exactly as §V-E prescribes: the throughput model
    /// maps (source rate, parallelism) to per-instance input rates, and ψ
    /// amplifies those into CPU cores.
    pub fn predict_component(
        &self,
        throughput: &ComponentModel,
        parallelism: u32,
        source_rate: f64,
    ) -> Result<f64> {
        let pred = throughput.predict(parallelism, source_rate)?;
        Ok(pred
            .per_instance_inputs
            .iter()
            .map(|input| self.predict_instance(*input))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::GroupingKind;
    use crate::model::instance::{InstanceModel, Saturation};

    fn obs(input: f64, cpu: f64) -> CpuObservation {
        CpuObservation {
            input_rate: input,
            cpu_load: cpu,
        }
    }

    #[test]
    fn fit_recovers_base_and_psi() {
        // cpu = 0.05 + 1e-7 * input
        let observations: Vec<CpuObservation> = (1..=20)
            .map(|i| obs(i as f64 * 1e6, 0.05 + i as f64 * 0.1))
            .collect();
        let m = CpuModel::fit(&observations).unwrap();
        assert!((m.base - 0.05).abs() < 1e-9);
        assert!((m.psi - 1e-7).abs() < 1e-15);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(CpuModel::fit(&[]).is_err());
        assert!(CpuModel::fit(&[obs(1.0, 1.0)]).is_err());
        assert!(CpuModel::fit(&[obs(1.0, 1.0), obs(1.0, 2.0)]).is_err());
        assert!(CpuModel::fit(&[obs(f64::NAN, 1.0), obs(1.0, f64::NAN)]).is_err());
    }

    #[test]
    fn instance_prediction_is_linear_and_clamped() {
        let m = CpuModel {
            base: 0.05,
            psi: 1e-7,
        };
        assert!((m.predict_instance(1e6) - 0.15).abs() < 1e-12);
        assert!((m.predict_instance(2e6) - 0.25).abs() < 1e-12);
        assert_eq!(m.predict_instance(-5.0), 0.05);
        let negative = CpuModel {
            base: -1.0,
            psi: 0.0,
        };
        assert_eq!(negative.predict_instance(0.0), 0.0);
    }

    fn splitter(p: u32) -> ComponentModel {
        ComponentModel {
            name: "splitter".into(),
            fitted_parallelism: p,
            instance: InstanceModel::from_params(
                7.63,
                Some(Saturation {
                    input_sp: 11.0e6,
                    output_st: 7.63 * 11.0e6,
                }),
            ),
            shares: vec![1.0 / f64::from(p); p as usize],
            grouping: GroupingKind::Shuffle,
        }
    }

    #[test]
    fn component_cpu_chains_through_throughput_model() {
        let cpu = CpuModel {
            base: 0.05,
            psi: 1.0 / 11.0e6 * 0.95,
        };
        // p=3, source 15 M/min → 5 M per instance → cpu each ≈ 0.05+0.4318
        let total = cpu.predict_component(&splitter(3), 3, 15.0e6).unwrap();
        let each = 0.05 + 5.0e6 * 0.95 / 11.0e6;
        assert!((total - 3.0 * each).abs() < 1e-9);
    }

    #[test]
    fn component_cpu_flattens_at_saturation() {
        let cpu = CpuModel {
            base: 0.05,
            psi: 0.95 / 11.0e6,
        };
        // Above the knee the per-instance input pins at SP, so CPU stops
        // growing — exactly the saturation-state consideration of §V-E.
        let at_knee = cpu.predict_component(&splitter(2), 2, 22.0e6).unwrap();
        let beyond = cpu.predict_component(&splitter(2), 2, 60.0e6).unwrap();
        assert!((at_knee - beyond).abs() < 1e-9);
        assert!((at_knee - 2.0 * (0.05 + 0.95)).abs() < 1e-9);
    }

    #[test]
    fn scaling_parallelism_scales_cpu_in_linear_regime() {
        let cpu = CpuModel {
            base: 0.05,
            psi: 0.95 / 11.0e6,
        };
        // Fixed source rate, more instances: same total dynamic CPU plus
        // extra per-instance base overhead.
        let p2 = cpu.predict_component(&splitter(2), 2, 10.0e6).unwrap();
        let p4 = cpu.predict_component(&splitter(2), 4, 10.0e6).unwrap();
        let dynamic = 10.0e6 * 0.95 / 11.0e6;
        assert!((p2 - (2.0 * 0.05 + dynamic)).abs() < 1e-9);
        assert!((p4 - (4.0 * 0.05 + dynamic)).abs() < 1e-9);
    }
}
