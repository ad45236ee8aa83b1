//! Source-traffic series generators.
//!
//! The paper motivates its Prophet-based forecast with the observation
//! that "a large percentage of topologies in the field show strong
//! seasonality" (§IV-A). These builders produce per-minute traffic series
//! with diurnal and weekly structure, plus the pathologies Prophet must
//! tolerate: trend shifts, outliers and missing data.

use heron_sim::profiles::{hash64, RateProfile};
use std::f64::consts::TAU;

/// One observation of a traffic series: timestamp (ms) and tuples/minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficPoint {
    /// Milliseconds since series start.
    pub ts: i64,
    /// Traffic level in tuples per minute.
    pub tuples_per_min: f64,
}

/// Parameters for the seasonal generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalTraffic {
    /// Mean level in tuples/minute.
    pub base: f64,
    /// Relative daily-cycle amplitude (0.4 = ±40 %).
    pub daily_amplitude: f64,
    /// Relative weekend level shift (−0.3 = 30 % lower Sat/Sun).
    pub weekend_delta: f64,
    /// Linear growth per day, relative to base (0.01 = +1 %/day).
    pub growth_per_day: f64,
    /// Relative white-noise amplitude per observation.
    pub noise: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for SeasonalTraffic {
    fn default() -> Self {
        Self {
            base: 6.0e6,
            daily_amplitude: 0.35,
            weekend_delta: -0.25,
            growth_per_day: 0.0,
            noise: 0.02,
            seed: 0x7AFF1C,
        }
    }
}

impl SeasonalTraffic {
    /// Generates `days` days of traffic at `step_minutes` resolution.
    pub fn generate(&self, days: u32, step_minutes: u32) -> Vec<TrafficPoint> {
        assert!(step_minutes > 0, "step must be positive");
        let total_minutes = u64::from(days) * 1440;
        let mut out = Vec::with_capacity((total_minutes / u64::from(step_minutes)) as usize);
        let mut minute = 0u64;
        while minute < total_minutes {
            let day_frac = minute as f64 / 1440.0;
            let daily = self.daily_amplitude * (TAU * day_frac).sin();
            let weekday = (minute / 1440) % 7;
            let weekend = if weekday >= 5 {
                self.weekend_delta
            } else {
                0.0
            };
            let growth = self.growth_per_day * day_frac;
            let h = hash64(minute ^ self.seed.rotate_left(11));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let level = self.base * (1.0 + daily + weekend + growth + self.noise * 2.0 * unit);
            out.push(TrafficPoint {
                ts: (minute * 60_000) as i64,
                tuples_per_min: level.max(0.0),
            });
            minute += u64::from(step_minutes);
        }
        out
    }
}

/// Replaces a fraction of points with large spikes (outliers).
pub fn with_outliers(
    mut series: Vec<TrafficPoint>,
    fraction: f64,
    magnitude: f64,
    seed: u64,
) -> Vec<TrafficPoint> {
    let threshold = (fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    for (i, p) in series.iter_mut().enumerate() {
        if hash64(i as u64 ^ seed) < threshold {
            p.tuples_per_min *= magnitude;
        }
    }
    series
}

/// Drops a fraction of points (missing metrics windows).
pub fn with_gaps(series: Vec<TrafficPoint>, fraction: f64, seed: u64) -> Vec<TrafficPoint> {
    let threshold = (fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    series
        .into_iter()
        .enumerate()
        .filter(|(i, _)| hash64(*i as u64 ^ seed.rotate_left(5)) >= threshold)
        .map(|(_, p)| p)
        .collect()
}

/// Converts a traffic series into a simulator [`RateProfile`] stepping at
/// each observation (rates converted from tuples/min to tuples/sec).
pub fn to_rate_profile(series: &[TrafficPoint]) -> RateProfile {
    let steps = series
        .iter()
        .map(|p| ((p.ts / 1000) as u64, p.tuples_per_min / 60.0))
        .collect();
    RateProfile::Steps {
        initial: 0.0,
        steps,
    }
}

/// Parameters for the piecewise-linear diurnal generator — the first
/// cell of the workload matrix (ROADMAP item 5), and the canonical
/// event-scheduler workload: unlike [`SeasonalTraffic`] (whose sinusoid
/// has no linear decomposition), it approximates the daily cycle with
/// straight ramps between evenly spaced knots, so the simulator's
/// event-driven core advances it in closed form between breakpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalTraffic {
    /// Mean offered rate in tuples/second.
    pub base_rate: f64,
    /// Relative cycle amplitude (0.4 = peak 40 % above / trough 40 %
    /// below `base_rate`).
    pub amplitude: f64,
    /// Cycle period in seconds (86 400 = one day).
    pub period_secs: u64,
    /// Phase shift in seconds: where in the cycle `t = 0` falls.
    pub phase_secs: u64,
    /// Knots per period of the piecewise-linear approximation (≥ 4; 24
    /// ≈ hourly knots on a daily cycle, sinusoid error < 1 %).
    pub knots_per_period: u32,
}

impl Default for DiurnalTraffic {
    fn default() -> Self {
        Self {
            base_rate: 2000.0,
            amplitude: 0.4,
            period_secs: 86_400,
            phase_secs: 0,
            knots_per_period: 24,
        }
    }
}

impl DiurnalTraffic {
    /// Builds the piecewise-linear profile covering `[0, horizon_secs]`:
    /// knots every `period / knots_per_period` seconds sampling
    /// `base · (1 + amplitude · sin(2π (t + phase) / period))`, flat
    /// after the horizon.
    pub fn to_profile(&self, horizon_secs: u64) -> RateProfile {
        assert!(
            self.knots_per_period >= 4,
            "need at least 4 knots per period"
        );
        assert!(self.period_secs > 0, "period must be positive");
        let step = (self.period_secs / u64::from(self.knots_per_period)).max(1);
        let mut points = Vec::with_capacity((horizon_secs / step + 2) as usize);
        let mut t = 0u64;
        loop {
            let cycle = (t + self.phase_secs) as f64 / self.period_secs as f64;
            let rate = self.base_rate * (1.0 + self.amplitude * (TAU * cycle).sin());
            points.push((t, rate.max(0.0)));
            if t >= horizon_secs {
                break;
            }
            t = (t + step).min(horizon_secs);
        }
        RateProfile::PiecewiseLinear { points }
    }
}

/// Builds a flash-crowd profile: steady `base_rate` until `onset_secs`,
/// a linear surge to `peak_rate` over `ramp_secs` (a news event hitting
/// the timeline), a dwell at the peak for `hold_secs`, then a symmetric
/// linear decay back to `base_rate`.
pub fn flash_crowd(
    base_rate: f64,
    peak_rate: f64,
    onset_secs: u64,
    ramp_secs: u64,
    hold_secs: u64,
) -> RateProfile {
    assert!(ramp_secs > 0, "ramp must take time");
    RateProfile::PiecewiseLinear {
        points: vec![
            (0, base_rate),
            (onset_secs, base_rate),
            (onset_secs + ramp_secs, peak_rate),
            (onset_secs + ramp_secs + hold_secs, peak_rate),
            (onset_secs + 2 * ramp_secs + hold_secs, base_rate),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_length() {
        let series = SeasonalTraffic::default().generate(7, 10);
        assert_eq!(series.len(), 7 * 1440 / 10);
        assert_eq!(series[0].ts, 0);
        assert_eq!(series[1].ts, 600_000);
    }

    #[test]
    fn daily_cycle_visible() {
        let cfg = SeasonalTraffic {
            noise: 0.0,
            weekend_delta: 0.0,
            ..Default::default()
        };
        let series = cfg.generate(1, 1);
        let peak = series[360].tuples_per_min; // 6h = quarter day
        let trough = series[1080].tuples_per_min; // 18h
        assert!(peak > cfg.base * 1.3);
        assert!(trough < cfg.base * 0.7);
    }

    #[test]
    fn weekend_shift_applies() {
        let cfg = SeasonalTraffic {
            noise: 0.0,
            daily_amplitude: 0.0,
            weekend_delta: -0.5,
            ..Default::default()
        };
        let series = cfg.generate(7, 60);
        let monday = series[0].tuples_per_min;
        let saturday = series[5 * 24].tuples_per_min;
        assert!((saturday / monday - 0.5).abs() < 1e-9);
    }

    #[test]
    fn growth_trend_applies() {
        let cfg = SeasonalTraffic {
            noise: 0.0,
            daily_amplitude: 0.0,
            weekend_delta: 0.0,
            growth_per_day: 0.1,
            ..Default::default()
        };
        let series = cfg.generate(10, 1440);
        assert!(series[9].tuples_per_min > series[0].tuples_per_min * 1.8);
    }

    #[test]
    fn outliers_inflate_some_points() {
        let base = SeasonalTraffic {
            noise: 0.0,
            ..Default::default()
        }
        .generate(1, 1);
        let spiked = with_outliers(base.clone(), 0.05, 10.0, 3);
        let changed = base
            .iter()
            .zip(&spiked)
            .filter(|(a, b)| a.tuples_per_min != b.tuples_per_min)
            .count();
        assert!(
            changed > 20 && changed < 200,
            "~5% outliers, got {changed}/1440"
        );
        assert!(with_outliers(base.clone(), 0.0, 10.0, 3) == base);
    }

    #[test]
    fn gaps_drop_some_points() {
        let base = SeasonalTraffic::default().generate(1, 1);
        let gappy = with_gaps(base.clone(), 0.3, 9);
        let kept = gappy.len() as f64 / base.len() as f64;
        assert!((kept - 0.7).abs() < 0.05, "kept fraction {kept}");
        assert_eq!(with_gaps(base.clone(), 0.0, 9).len(), base.len());
    }

    #[test]
    fn rate_profile_roundtrip() {
        let series = vec![
            TrafficPoint {
                ts: 0,
                tuples_per_min: 6000.0,
            },
            TrafficPoint {
                ts: 60_000,
                tuples_per_min: 12_000.0,
            },
        ];
        let profile = to_rate_profile(&series);
        assert!((profile.rate_at(0) - 100.0).abs() < 1e-9);
        assert!((profile.rate_at(59) - 100.0).abs() < 1e-9);
        assert!((profile.rate_at(60) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SeasonalTraffic::default().generate(2, 5);
        let b = SeasonalTraffic::default().generate(2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn diurnal_profile_tracks_the_sinusoid() {
        let cfg = DiurnalTraffic {
            base_rate: 1000.0,
            amplitude: 0.4,
            period_secs: 86_400,
            phase_secs: 0,
            knots_per_period: 24,
        };
        let profile = cfg.to_profile(86_400);
        // Knot samples are exact; between knots the linear interpolation
        // stays within ~1 % of the sinusoid at hourly resolution.
        for t in (0..86_400).step_by(600) {
            let want = 1000.0 * (1.0 + 0.4 * (TAU * t as f64 / 86_400.0).sin());
            let got = profile.rate_at(t);
            assert!(
                (got - want).abs() <= 0.01 * 1000.0,
                "t={t}: got {got}, want {want}"
            );
        }
        // Peak near quarter period, trough near three quarters.
        assert!(profile.rate_at(21_600) > 1390.0);
        assert!(profile.rate_at(64_800) < 610.0);
    }

    #[test]
    fn diurnal_profile_is_event_scheduler_eligible() {
        let profile = DiurnalTraffic::default().to_profile(3600);
        let segs = profile.segments().expect("piecewise-linear decomposition");
        assert!(segs.as_slice().len() >= 2);
        // Flat after the horizon.
        let tail = segs.at(3600);
        assert!(tail.slope == 0.0 && tail.end_secs.is_none());
    }

    #[test]
    fn diurnal_phase_shifts_the_peak() {
        let base = DiurnalTraffic {
            phase_secs: 0,
            ..Default::default()
        };
        let shifted = DiurnalTraffic {
            phase_secs: 21_600,
            ..Default::default()
        };
        let horizon = 86_400;
        // A quarter-period phase advance turns the peak into the start.
        let a = base.to_profile(horizon).rate_at(21_600);
        let b = shifted.to_profile(horizon).rate_at(0);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn flash_crowd_ramps_and_recovers() {
        let profile = flash_crowd(1000.0, 5000.0, 300, 60, 120);
        assert_eq!(profile.rate_at(0), 1000.0);
        assert_eq!(profile.rate_at(299), 1000.0);
        assert!((profile.rate_at(330) - 3000.0).abs() < 1e-9, "mid-ramp");
        assert_eq!(profile.rate_at(360), 5000.0);
        assert_eq!(profile.rate_at(480), 5000.0);
        assert!((profile.rate_at(510) - 3000.0).abs() < 1e-9, "mid-decay");
        assert_eq!(profile.rate_at(540), 1000.0);
        assert_eq!(profile.rate_at(10_000), 1000.0, "flat after recovery");
        assert!(profile.segments().is_some());
    }
}
