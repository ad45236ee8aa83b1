//! Spout rate profiles.
//!
//! The paper's evaluation uses "a special kind of spout whose output rate
//! matches the configured throughput if there is no backpressure" (§V-A);
//! [`RateProfile::Constant`] models it. The richer profiles generate the
//! seasonal production-like traffic that motivates the Prophet-based
//! traffic forecast (§IV-A).

use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Offered source load (tuples/second) as a function of simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateProfile {
    /// Fixed offered rate.
    Constant {
        /// Offered rate in tuples/second.
        rate: f64,
    },
    /// Rate steps at given times: `(from_second, rate)` entries, sorted.
    /// Before the first entry the rate is `initial`.
    Steps {
        /// Rate before the first step.
        initial: f64,
        /// `(second, rate)` change points in ascending time order.
        steps: Vec<(u64, f64)>,
    },
    /// Diurnal + weekly seasonal profile:
    /// `base * (1 + daily·sin(2πt/day) + weekly_boost(weekday))`.
    Seasonal {
        /// Mean offered rate in tuples/second.
        base: f64,
        /// Relative amplitude of the daily cycle (e.g. `0.4`).
        daily_amplitude: f64,
        /// Relative weekend level change (e.g. `-0.3` = 30 % lower on
        /// Saturday/Sunday).
        weekend_delta: f64,
        /// Relative white-noise amplitude applied per minute (e.g. `0.05`).
        noise: f64,
        /// Seed for the deterministic noise stream.
        seed: u64,
    },
    /// Linear ramp from `from` to `to` over `duration_secs`, then flat.
    Ramp {
        /// Starting rate (tuples/second).
        from: f64,
        /// Final rate (tuples/second).
        to: f64,
        /// Ramp duration in seconds.
        duration_secs: u64,
    },
    /// Piecewise-linear profile: linear interpolation between
    /// `(second, rate)` knots, flat before the first knot and after the
    /// last. Knots must be in strictly ascending time order. This is the
    /// canonical event-mode-friendly shape: the diurnal and
    /// flash-crowd generators in `caladrius-workload` produce it, and the
    /// engine's event-driven core advances it in closed form between
    /// breakpoints.
    PiecewiseLinear {
        /// `(second, rate)` knots in ascending time order.
        points: Vec<(u64, f64)>,
    },
}

/// One maximal linear piece of a [`RateProfile`], as produced by
/// [`RateProfile::segments`]: over `[start_secs, end_secs)` the offered
/// rate is `rate + slope * (t - start_secs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// First second the segment covers.
    pub start_secs: u64,
    /// Exclusive end second; `None` extends to infinity.
    pub end_secs: Option<u64>,
    /// Offered rate at `start_secs` (tuples/second).
    pub rate: f64,
    /// Rate change per second within the segment.
    pub slope: f64,
}

impl RateSegment {
    /// Offered rate at `t_secs` (must lie within the segment).
    pub fn rate_at(&self, t_secs: u64) -> f64 {
        debug_assert!(t_secs >= self.start_secs);
        self.rate + self.slope * (t_secs - self.start_secs) as f64
    }

    /// Σ of `rate_at(s)` over the integer seconds `s ∈ [a, b)` in closed
    /// form (arithmetic series) — the exact mass a per-second sampling
    /// tick loop would offer over the range. Both bounds must lie inside
    /// the segment (`b` may equal its exclusive end).
    pub fn sum_over(&self, a: u64, b: u64) -> f64 {
        debug_assert!(a >= self.start_secs && self.end_secs.is_none_or(|end| b <= end));
        if b <= a {
            return 0.0;
        }
        let n = (b - a) as f64;
        n * self.rate_at(a) + self.slope * n * (n - 1.0) * 0.5
    }
}

/// The full piecewise-linear decomposition of a profile: contiguous
/// [`RateSegment`]s covering `[0, ∞)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Segments(Vec<RateSegment>);

impl Segments {
    fn new(segments: Vec<RateSegment>) -> Self {
        debug_assert!(!segments.is_empty());
        debug_assert!(segments[0].start_secs == 0);
        debug_assert!(segments[segments.len() - 1].end_secs.is_none());
        Segments(segments)
    }

    /// The segments in ascending time order.
    pub fn as_slice(&self) -> &[RateSegment] {
        &self.0
    }

    /// Iterates the segments in ascending time order.
    pub fn iter(&self) -> impl Iterator<Item = &RateSegment> {
        self.0.iter()
    }

    /// The segment containing `t_secs`.
    pub fn at(&self, t_secs: u64) -> &RateSegment {
        let idx = self
            .0
            .partition_point(|seg| seg.start_secs <= t_secs)
            .saturating_sub(1);
        &self.0[idx]
    }

    /// Offered rate at `t_secs` via the segment decomposition.
    pub fn rate_at(&self, t_secs: u64) -> f64 {
        self.at(t_secs).rate_at(t_secs)
    }

    /// Σ of `rate_at(s)` over integer seconds `s ∈ [a, b)`, closed form
    /// per overlapped segment.
    pub fn sum_over(&self, a: u64, b: u64) -> f64 {
        let mut total = 0.0;
        let mut lo = a;
        while lo < b {
            let seg = self.at(lo);
            let hi = seg.end_secs.map_or(b, |end| end.min(b));
            total += seg.sum_over(lo, hi);
            lo = hi;
        }
        total
    }

    /// Breakpoint times (segment starts) strictly inside `(a, b)`.
    pub fn breakpoints_in(&self, a: u64, b: u64) -> impl Iterator<Item = u64> + '_ {
        self.0
            .iter()
            .map(|seg| seg.start_secs)
            .filter(move |&t| t > a && t < b)
    }
}

impl RateProfile {
    /// A constant profile expressed in tuples/minute (the unit the paper
    /// plots).
    pub fn constant_per_min(tuples_per_minute: f64) -> Self {
        RateProfile::Constant {
            rate: tuples_per_minute / 60.0,
        }
    }

    /// A constant profile in tuples/second.
    pub fn constant(rate: f64) -> Self {
        RateProfile::Constant { rate }
    }

    /// Checks that the profile can drive a simulation: every rate finite
    /// and non-negative, every other parameter finite, and `Steps` /
    /// `PiecewiseLinear` times in ascending order (equal times are
    /// allowed; the later entry wins).
    pub fn validate(&self) -> Result<(), String> {
        let rate = |what: &str, r: f64| {
            if r.is_finite() && r >= 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be finite and non-negative, got {r}"))
            }
        };
        let knots = |what: &str, points: &[(u64, f64)]| {
            for (i, &(at, r)) in points.iter().enumerate() {
                rate(what, r)?;
                if i > 0 && at < points[i - 1].0 {
                    return Err(format!(
                        "{what} times must ascend, got {} before {at}",
                        points[i - 1].0
                    ));
                }
            }
            Ok(())
        };
        match self {
            RateProfile::Constant { rate: r } => rate("constant rate", *r),
            RateProfile::Steps { initial, steps } => {
                rate("initial step rate", *initial)?;
                knots("step", steps)
            }
            RateProfile::Seasonal {
                base,
                daily_amplitude,
                weekend_delta,
                noise,
                ..
            } => {
                rate("seasonal base rate", *base)?;
                if [daily_amplitude, weekend_delta, noise]
                    .iter()
                    .all(|x| x.is_finite())
                {
                    Ok(())
                } else {
                    Err("seasonal amplitude, weekend delta and noise must be finite".into())
                }
            }
            RateProfile::Ramp { from, to, .. } => {
                rate("ramp start rate", *from)?;
                rate("ramp end rate", *to)
            }
            RateProfile::PiecewiseLinear { points } => knots("knot", points),
        }
    }

    /// The piecewise-linear decomposition of this profile, or `None` for
    /// profiles that are not piecewise-linear in time (`Seasonal`, whose
    /// per-minute noise makes every minute its own breakpoint). Degenerate
    /// zero-length pieces (two change points at the same second) collapse
    /// into the later piece, matching `rate_at`'s last-wins sampling.
    pub fn segments(&self) -> Option<Segments> {
        let flat = |start: u64, rate: f64| RateSegment {
            start_secs: start,
            end_secs: None,
            rate,
            slope: 0.0,
        };
        let segs = match self {
            RateProfile::Constant { rate } => vec![flat(0, *rate)],
            RateProfile::Steps { initial, steps } => {
                let mut knots: Vec<(u64, f64)> = vec![(0, *initial)];
                for (at, rate) in steps {
                    if knots.last().is_some_and(|(t, _)| t == at) {
                        // Zero-length piece: the later step wins outright.
                        knots.last_mut().unwrap().1 = *rate;
                    } else {
                        knots.push((*at, *rate));
                    }
                }
                let mut segs: Vec<RateSegment> = knots
                    .iter()
                    .zip(knots.iter().skip(1))
                    .map(|(&(at, rate), &(next, _))| RateSegment {
                        start_secs: at,
                        end_secs: Some(next),
                        rate,
                        slope: 0.0,
                    })
                    .collect();
                let &(last_at, last_rate) = knots.last().unwrap();
                segs.push(flat(last_at, last_rate));
                segs
            }
            RateProfile::Seasonal { .. } => return None,
            RateProfile::Ramp {
                from,
                to,
                duration_secs,
            } => {
                if *duration_secs == 0 {
                    vec![flat(0, *to)]
                } else {
                    vec![
                        RateSegment {
                            start_secs: 0,
                            end_secs: Some(*duration_secs),
                            rate: *from,
                            slope: (to - from) / *duration_secs as f64,
                        },
                        flat(*duration_secs, *to),
                    ]
                }
            }
            RateProfile::PiecewiseLinear { points } => {
                let mut knots: Vec<(u64, f64)> = Vec::with_capacity(points.len());
                for &(at, rate) in points {
                    if knots.last().is_some_and(|&(t, _)| t == at) {
                        knots.last_mut().unwrap().1 = rate;
                    } else {
                        knots.push((at, rate));
                    }
                }
                if knots.is_empty() {
                    vec![flat(0, 0.0)]
                } else {
                    let mut segs = Vec::with_capacity(knots.len() + 1);
                    // Flat lead-in before the first knot.
                    if knots[0].0 > 0 {
                        segs.push(RateSegment {
                            start_secs: 0,
                            end_secs: Some(knots[0].0),
                            rate: knots[0].1,
                            slope: 0.0,
                        });
                    }
                    for (&(at, rate), &(next, next_rate)) in knots.iter().zip(knots.iter().skip(1))
                    {
                        segs.push(RateSegment {
                            start_secs: at,
                            end_secs: Some(next),
                            rate,
                            slope: (next_rate - rate) / (next - at) as f64,
                        });
                    }
                    let &(last_at, last_rate) = knots.last().unwrap();
                    segs.push(flat(last_at, last_rate));
                    segs
                }
            }
        };
        Some(Segments::new(segs))
    }

    /// Offered rate (tuples/second) at simulation time `t_secs`.
    pub fn rate_at(&self, t_secs: u64) -> f64 {
        match self {
            RateProfile::Constant { rate } => *rate,
            RateProfile::Steps { initial, steps } => {
                let mut rate = *initial;
                for (at, r) in steps {
                    if t_secs >= *at {
                        rate = *r;
                    } else {
                        break;
                    }
                }
                rate
            }
            RateProfile::Seasonal {
                base,
                daily_amplitude,
                weekend_delta,
                noise,
                seed,
            } => {
                const DAY: f64 = 86_400.0;
                let t = t_secs as f64;
                let daily = daily_amplitude * (TAU * t / DAY).sin();
                let weekday = (t_secs / 86_400) % 7;
                let weekend = if weekday >= 5 { *weekend_delta } else { 0.0 };
                // Deterministic per-minute noise from a hash of the minute.
                let minute = t_secs / 60;
                let h = hash64(minute ^ seed.rotate_left(17));
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let n = noise * 2.0 * unit;
                (base * (1.0 + daily + weekend + n)).max(0.0)
            }
            RateProfile::Ramp {
                from,
                to,
                duration_secs,
            } => {
                if *duration_secs == 0 || t_secs >= *duration_secs {
                    *to
                } else {
                    from + (to - from) * t_secs as f64 / *duration_secs as f64
                }
            }
            RateProfile::PiecewiseLinear { points } => {
                if points.is_empty() {
                    return 0.0;
                }
                // Last knot at or before `t_secs` (last wins on duplicate
                // times, matching `segments`' degenerate-piece collapse).
                let idx = points.partition_point(|&(at, _)| at <= t_secs);
                if idx == 0 {
                    return points[0].1; // flat before the first knot
                }
                let (t0, r0) = points[idx - 1];
                match points.get(idx) {
                    None => r0, // flat after the last knot
                    Some(&(t1, r1)) => {
                        let slope = (r1 - r0) / (t1 - t0) as f64;
                        r0 + slope * (t_secs - t0) as f64
                    }
                }
            }
        }
    }
}

/// SplitMix64 — a cheap, well-distributed 64-bit hash used for
/// deterministic noise and fields-grouping key routing.
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_units() {
        let p = RateProfile::constant_per_min(6.0e6);
        assert!((p.rate_at(0) - 100_000.0).abs() < 1e-9);
        assert_eq!(p.rate_at(0), p.rate_at(1_000_000));
    }

    #[test]
    fn steps_change_at_boundaries() {
        let p = RateProfile::Steps {
            initial: 10.0,
            steps: vec![(100, 20.0), (200, 5.0)],
        };
        assert_eq!(p.rate_at(0), 10.0);
        assert_eq!(p.rate_at(99), 10.0);
        assert_eq!(p.rate_at(100), 20.0);
        assert_eq!(p.rate_at(199), 20.0);
        assert_eq!(p.rate_at(200), 5.0);
        assert_eq!(p.rate_at(10_000), 5.0);
    }

    #[test]
    fn seasonal_has_daily_cycle() {
        let p = RateProfile::Seasonal {
            base: 1000.0,
            daily_amplitude: 0.5,
            weekend_delta: 0.0,
            noise: 0.0,
            seed: 1,
        };
        // Quarter day = peak of the sine.
        let peak = p.rate_at(86_400 / 4);
        let trough = p.rate_at(3 * 86_400 / 4);
        assert!((peak - 1500.0).abs() < 1.0);
        assert!((trough - 500.0).abs() < 1.0);
    }

    #[test]
    fn seasonal_weekend_dip() {
        let p = RateProfile::Seasonal {
            base: 1000.0,
            daily_amplitude: 0.0,
            weekend_delta: -0.3,
            noise: 0.0,
            seed: 1,
        };
        // Day 0-4 weekdays, day 5-6 weekend.
        assert_eq!(p.rate_at(0), 1000.0);
        assert_eq!(p.rate_at(5 * 86_400), 700.0);
        assert_eq!(p.rate_at(7 * 86_400), 1000.0);
    }

    #[test]
    fn seasonal_noise_is_deterministic_and_non_negative() {
        let p = RateProfile::Seasonal {
            base: 10.0,
            daily_amplitude: 0.0,
            weekend_delta: 0.0,
            noise: 5.0, // huge noise to exercise the clamp
            seed: 7,
        };
        for t in (0..86_400).step_by(600) {
            assert!(p.rate_at(t) >= 0.0);
            assert_eq!(p.rate_at(t), p.rate_at(t));
        }
        let q = RateProfile::Seasonal {
            base: 10.0,
            daily_amplitude: 0.0,
            weekend_delta: 0.0,
            noise: 5.0,
            seed: 8,
        };
        // Different seeds give different streams (statistically certain).
        let diffs = (0..100)
            .filter(|i| (p.rate_at(i * 60) - q.rate_at(i * 60)).abs() > 1e-9)
            .count();
        assert!(diffs > 50);
    }

    #[test]
    fn ramp_interpolates() {
        let p = RateProfile::Ramp {
            from: 0.0,
            to: 100.0,
            duration_secs: 100,
        };
        assert_eq!(p.rate_at(0), 0.0);
        assert_eq!(p.rate_at(50), 50.0);
        assert_eq!(p.rate_at(100), 100.0);
        assert_eq!(p.rate_at(500), 100.0);
        let z = RateProfile::Ramp {
            from: 1.0,
            to: 2.0,
            duration_secs: 0,
        };
        assert_eq!(z.rate_at(0), 2.0);
    }

    #[test]
    fn piecewise_linear_interpolates_and_extends_flat() {
        let p = RateProfile::PiecewiseLinear {
            points: vec![(60, 100.0), (120, 400.0), (180, 100.0)],
        };
        assert_eq!(p.rate_at(0), 100.0); // flat before the first knot
        assert_eq!(p.rate_at(59), 100.0);
        assert_eq!(p.rate_at(60), 100.0);
        assert_eq!(p.rate_at(90), 250.0);
        assert_eq!(p.rate_at(120), 400.0);
        assert_eq!(p.rate_at(150), 250.0);
        assert_eq!(p.rate_at(180), 100.0);
        assert_eq!(p.rate_at(10_000), 100.0); // flat after the last knot
        assert_eq!(
            RateProfile::PiecewiseLinear { points: vec![] }.rate_at(5),
            0.0
        );
    }

    #[test]
    fn segments_cover_time_with_exact_boundaries() {
        let p = RateProfile::Steps {
            initial: 10.0,
            steps: vec![(100, 20.0), (200, 5.0)],
        };
        let segs = p.segments().unwrap();
        let pieces = segs.as_slice();
        assert_eq!(pieces.len(), 3);
        assert_eq!((pieces[0].start_secs, pieces[0].end_secs), (0, Some(100)));
        assert_eq!((pieces[1].start_secs, pieces[1].end_secs), (100, Some(200)));
        assert_eq!((pieces[2].start_secs, pieces[2].end_secs), (200, None));
        // Lookups at the boundaries land in the later piece.
        assert_eq!(segs.at(99).rate, 10.0);
        assert_eq!(segs.at(100).rate, 20.0);
        assert_eq!(segs.at(200).rate, 5.0);
        assert!(pieces.iter().all(|s| s.slope == 0.0));
        // Ramp decomposes into a sloped piece plus a flat tail.
        let ramp = RateProfile::Ramp {
            from: 0.0,
            to: 100.0,
            duration_secs: 100,
        };
        let segs = ramp.segments().unwrap();
        assert_eq!(segs.as_slice().len(), 2);
        assert_eq!(segs.as_slice()[0].slope, 1.0);
        assert_eq!(segs.as_slice()[1].slope, 0.0);
        assert!(
            RateProfile::Seasonal {
                base: 1.0,
                daily_amplitude: 0.1,
                weekend_delta: 0.0,
                noise: 0.0,
                seed: 1,
            }
            .segments()
            .is_none(),
            "seasonal has no piecewise-linear decomposition"
        );
    }

    #[test]
    fn degenerate_zero_length_segments_collapse() {
        // Two steps at the same second: the later one wins, no
        // zero-length piece survives.
        let p = RateProfile::Steps {
            initial: 1.0,
            steps: vec![(50, 2.0), (50, 3.0)],
        };
        let segs = p.segments().unwrap();
        assert_eq!(segs.as_slice().len(), 2);
        assert_eq!(segs.rate_at(50), 3.0);
        assert_eq!(p.rate_at(50), 3.0);
        // Same for duplicate piecewise-linear knots.
        let pw = RateProfile::PiecewiseLinear {
            points: vec![(0, 1.0), (10, 5.0), (10, 9.0), (20, 9.0)],
        };
        let segs = pw.segments().unwrap();
        assert!(segs
            .as_slice()
            .iter()
            .all(|s| s.end_secs.is_none_or(|end| end > s.start_secs)));
        assert_eq!(segs.rate_at(10), 9.0);
        assert_eq!(pw.rate_at(10), 9.0);
        // Zero-duration ramp is just the target rate.
        let z = RateProfile::Ramp {
            from: 1.0,
            to: 2.0,
            duration_secs: 0,
        };
        assert_eq!(z.segments().unwrap().as_slice().len(), 1);
        assert_eq!(z.segments().unwrap().rate_at(0), 2.0);
    }

    #[test]
    fn segments_agree_with_pointwise_sampling() {
        let profiles = [
            RateProfile::constant(42.0),
            RateProfile::Steps {
                initial: 3.0,
                steps: vec![(7, 1.0), (100, 9.0), (101, 2.0)],
            },
            RateProfile::Ramp {
                from: 5.0,
                to: 500.0,
                duration_secs: 333,
            },
            RateProfile::PiecewiseLinear {
                points: vec![(30, 10.0), (90, 70.0), (91, 5.0), (400, 5.0)],
            },
        ];
        for p in &profiles {
            let segs = p.segments().unwrap();
            let mut sampled_sum = 0.0;
            for t in 0..600u64 {
                let (s, d) = (segs.rate_at(t), p.rate_at(t));
                // Ramp associates its interpolation differently, so allow
                // an ulp-scale slack; the others are bitwise equal.
                assert!(
                    (s - d).abs() <= 1e-12 * d.abs().max(1.0),
                    "segment lookup diverged from rate_at at t={t} for {p:?}: {s} vs {d}"
                );
                sampled_sum += s;
            }
            let closed = segs.sum_over(0, 600);
            assert!(
                (closed - sampled_sum).abs() <= 1e-9 * sampled_sum.abs().max(1.0),
                "closed-form sum {closed} vs sampled {sampled_sum} for {p:?}"
            );
        }
    }

    #[test]
    fn segment_sum_over_is_arithmetic_series() {
        let seg = RateSegment {
            start_secs: 10,
            end_secs: Some(20),
            rate: 2.0,
            slope: 3.0,
        };
        // Σ_{s=12..15} 2 + 3(s-10) = 8 + 11 + 14 = 33.
        assert_eq!(seg.sum_over(12, 15), 33.0);
        assert_eq!(seg.sum_over(12, 12), 0.0);
    }

    #[test]
    fn breakpoints_in_window() {
        let p = RateProfile::Steps {
            initial: 1.0,
            steps: vec![(100, 2.0), (200, 3.0), (300, 4.0)],
        };
        let segs = p.segments().unwrap();
        let inside: Vec<u64> = segs.breakpoints_in(100, 300).collect();
        assert_eq!(inside, vec![200], "bounds are exclusive on both sides");
    }

    #[test]
    fn hash64_spreads_bits() {
        // Adjacent inputs should land far apart.
        let a = hash64(1);
        let b = hash64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }
}
