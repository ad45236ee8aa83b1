//! How fast the box is right now, and round times corrected for it.
//!
//! The machines this benchmark runs on are a few cores of a shared host.
//! Their speed moves between regimes that last from seconds to minutes:
//! the same `minute_round` round takes 115 ms in one and 210 ms in the
//! next, with nothing else running in the guest and no steal time
//! reported. Dependent-multiply chains, streaming sums and pointer
//! chases do not slow down with it; branchy, high-IPC code (sorting,
//! tree and hash maps, number formatting and parsing) does, as the
//! program does. No order statistic of a pass survives a regime that
//! outlasts the pass, so the gated times are *normalised*: a fixed
//! reference kernel of that kind of code runs between the rounds, and
//! the CPU-busy part of each measured interval is scaled by
//! `NOMINAL_MS / (what the kernel took just then)`. The part of an
//! interval the process spent waiting (a poll sleep, a socket) is left
//! as measured — waiting does not get slower when the box does.
//!
//! Over twenty 20–30 s passes of `minute_round` in a bad hour the raw
//! round median ranged 152–208 ms and its 10th percentile 113–175 ms;
//! the normalised round time stayed within ±8 %.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::time::Instant;

/// What [`Reference::run`] takes on the box this benchmark was sized on
/// when nothing disturbs it. Normalised times read as "milliseconds on
/// that box, undisturbed". Changing it rescales every gated time, so it
/// is fixed with the benchmark.
pub const NOMINAL_MS: f64 = 3.0;

/// CPU time this process (all its threads) has consumed, in ms.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness runs on).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// The reference kernel: the same work on the same inputs every call.
pub struct Reference {
    unsorted: Vec<f64>,
    keys: Vec<u64>,
    numbers: Vec<f64>,
    text: String,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Reference {
            unsorted: (0..30_000).map(|_| (next() >> 11) as f64).collect(),
            keys: (0..5_000).map(|_| next() % 4096).collect(),
            numbers: (0..6_000).map(|_| (next() >> 20) as f64 / 1024.0).collect(),
            text: String::new(),
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        // Branchy compares and moves.
        let mut sorted = self.unsorted.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        // Pointer-heavy: an ordered map with string keys, a hashed one.
        let mut ordered: BTreeMap<String, u64> = BTreeMap::new();
        let mut hashed: HashMap<u64, u64> = HashMap::new();
        for (i, key) in self.keys.iter().enumerate() {
            *ordered.entry(format!("series-{key}")).or_insert(0) += i as u64;
            *hashed.entry(*key).or_insert(0) += i as u64;
        }
        // Text: render numbers and parse them back.
        self.text.clear();
        for n in &self.numbers {
            let _ = write!(self.text, "{n},");
        }
        let parsed: f64 = self
            .text
            .split(',')
            .filter_map(|t| t.parse::<f64>().ok())
            .sum();
        std::hint::black_box((
            sorted[sorted.len() / 2],
            ordered.len(),
            hashed.len(),
            parsed,
        ));
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// One measured interval: its wall time and the CPU time the process
/// spent inside it, both ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Interval {
    /// Times `f`.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (Interval, T) {
        let cpu = process_cpu_ms();
        let started = Instant::now();
        let out = f();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - cpu;
        (Interval { wall_ms, cpu_ms }, out)
    }

    /// The interval as it would have read with the reference kernel at
    /// [`NOMINAL_MS`] instead of `reference_ms`: the busy part scaled,
    /// the waiting part kept. Two threads busy at once can make the CPU
    /// time exceed the wall time; the busy part is capped at the wall
    /// time.
    pub fn normalised_ms(self, reference_ms: f64) -> f64 {
        let busy = self.cpu_ms.clamp(0.0, self.wall_ms);
        (self.wall_ms - busy) + busy * NOMINAL_MS / reference_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_interval_scales_with_the_reference_and_a_waiting_one_does_not() {
        let busy = Interval {
            wall_ms: 200.0,
            cpu_ms: 200.0,
        };
        assert_eq!(busy.normalised_ms(NOMINAL_MS), 200.0);
        assert_eq!(busy.normalised_ms(2.0 * NOMINAL_MS), 100.0);
        let waiting = Interval {
            wall_ms: 5.0,
            cpu_ms: 0.0,
        };
        assert_eq!(waiting.normalised_ms(2.0 * NOMINAL_MS), 5.0);
        let mixed = Interval {
            wall_ms: 5.0,
            cpu_ms: 1.0,
        };
        assert_eq!(mixed.normalised_ms(2.0 * NOMINAL_MS), 4.5);
        // Overlapping threads: never a negative waiting part.
        let overlapped = Interval {
            wall_ms: 10.0,
            cpu_ms: 15.0,
        };
        assert_eq!(overlapped.normalised_ms(2.0 * NOMINAL_MS), 5.0);
    }

    #[test]
    fn the_reference_kernel_repeats_its_work_and_the_cpu_clock_advances() {
        let mut reference = Reference::new();
        let cpu = process_cpu_ms();
        let first = reference.run();
        let text = reference.text.clone();
        let second = reference.run();
        assert!(first > 0.0 && second > 0.0);
        assert_eq!(text, reference.text);
        assert!(process_cpu_ms() > cpu);
    }
}
