//! Property test for the bulk append: `Series::extend_from_slice` must
//! leave exactly what a loop of `Series::push` leaves — the same number
//! of chunks, each with the same range and the same compressed bytes,
//! and the same head, bit for bit. Covered: heads pre-filled to any
//! length (sealed chunks included), runs of zero to three chunks and a
//! remainder, small chunk sizes, duplicate timestamps, and the fallback
//! inputs: out of order, or starting behind the head's last sample.

use caladrius_tsdb::{Sample, Series};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        any::<f64>(),
    ]
}

/// The gap to the next sample: often none (a duplicate timestamp) or one
/// minute, sometimes anything.
fn arb_step() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0), Just(60_000), 1i64..5, 0i64..1_000_000]
}

/// Samples from `start` on, ascending by `steps`.
fn ascending(start: i64, steps: Vec<(i64, f64)>) -> Vec<Sample> {
    let mut ts = start;
    steps
        .into_iter()
        .map(|(step, value)| {
            ts += step;
            Sample::new(ts, value)
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Case {
    chunk_size: usize,
    prefill: Vec<Sample>,
    input: Vec<Sample>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..10,
        prop::collection::vec((arb_step(), arb_value()), 0..40),
        prop::collection::vec((arb_step(), arb_value()), 0..40),
        // Where the input starts against the prefill's last sample (ahead
        // of it, level with it, or behind it), how it is disordered, and
        // a free index.
        (-100_000i64..100_000, 0u8..6, any::<usize>()),
    )
        .prop_map(
            |(chunk_size, mut prefill, mut input, (offset, disorder, k))| {
                // Up to four chunks' worth on either side.
                prefill.truncate(k % (4 * chunk_size));
                input.truncate((k / 7) % (4 * chunk_size + 1));
                let prefill = ascending(0, prefill);
                let last = prefill.last().map_or(0, |s| s.ts);
                let mut input = ascending(last + offset.max(0), input);
                let n = input.len();
                match disorder {
                    // 0 and 1: ascending, from the head's end on.
                    2 if n > 1 => input.swap(k % (n - 1), k % (n - 1) + 1),
                    3 => input.reverse(),
                    4 if n > 0 => input[k % n].ts -= 1 + (k % 7) as i64,
                    5 => input.iter_mut().for_each(|s| s.ts += offset.min(0)),
                    _ => {}
                }
                Case {
                    chunk_size,
                    prefill,
                    input,
                }
            },
        )
}

fn series_of(chunk_size: usize, prefill: &[Sample]) -> Series {
    let mut series = Series::with_chunk_size(chunk_size);
    for &sample in prefill {
        series.push(sample);
    }
    series
}

fn bits(samples: &[Sample]) -> Vec<(i64, u64)> {
    samples.iter().map(|s| (s.ts, s.value.to_bits())).collect()
}

proptest! {
    #[test]
    fn extend_from_slice_equals_a_push_loop(case in arb_case()) {
        let mut bulk = series_of(case.chunk_size, &case.prefill);
        let mut pushed = series_of(case.chunk_size, &case.prefill);
        bulk.extend_from_slice(&case.input);
        for &sample in &case.input {
            pushed.push(sample);
        }
        let (a, b): (Vec<_>, Vec<_>) = (bulk.chunks().collect(), pushed.chunks().collect());
        prop_assert_eq!(a.len(), b.len(), "chunk count");
        for (i, ((a_start, a_end, a_block), (b_start, b_end, b_block))) in
            a.iter().zip(&b).enumerate()
        {
            prop_assert_eq!((a_start, a_end), (b_start, b_end), "chunk {} range", i);
            prop_assert!(a_block == b_block, "chunk {} bytes differ", i);
        }
        prop_assert_eq!(bits(bulk.head()), bits(pushed.head()), "head");
        prop_assert_eq!(bulk.len(), case.prefill.len() + case.input.len());
    }
}
