//! Property tests for the storage layer: compression round-trips and
//! series/query invariants over arbitrary inputs.

use bytes::Bytes;
use caladrius_tsdb::encoding::{compress, decompress, CompressedBlock};
use caladrius_tsdb::query::{bucketed, Aggregation};
use caladrius_tsdb::{Error, Sample, Series};
use proptest::prelude::*;

/// Any `i64` timestamp, with the neighbours of `i64::MIN` and `i64::MAX`
/// (whose deltas wrap) drawn often.
fn arb_ts() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        (0i64..4).prop_map(|k| i64::MIN + k),
        (0i64..4).prop_map(|k| i64::MAX - k),
    ]
}

fn arb_samples() -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(
        (arb_ts(), any::<f64>()).prop_map(|(ts, value)| Sample::new(ts, value)),
        1..300,
    )
}

/// Realistic metric streams: mostly-regular minute cadence, bounded values.
fn arb_metric_stream() -> impl Strategy<Value = Vec<Sample>> {
    (
        0i64..1_000_000_000,
        prop::collection::vec((0i64..5_000, -1e12f64..1e12), 1..400),
    )
        .prop_map(|(start, deltas)| {
            let mut ts = start;
            deltas
                .into_iter()
                .map(|(jitter, value)| {
                    ts += 60_000 + jitter - 2_500;
                    Sample::new(ts, value)
                })
                .collect()
        })
}

proptest! {
    /// Gorilla compression is lossless for arbitrary (even hostile) data,
    /// timestamps included.
    #[test]
    fn gorilla_roundtrip_arbitrary(samples in arb_samples()) {
        let block = compress(&samples);
        let back = decompress(&block).unwrap();
        prop_assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// ... and for realistic metric cadences it also compresses.
    #[test]
    fn gorilla_roundtrip_metric_stream(samples in arb_metric_stream()) {
        let block = compress(&samples);
        let back = decompress(&block).unwrap();
        prop_assert_eq!(&back, &samples);
        if samples.len() > 50 {
            prop_assert!(block.payload_len() < samples.len() * 16);
        }
    }

    /// `decompress` is total: a block with any count and any bytes (its
    /// fields are public) decodes or fails as `CorruptChunk`, never
    /// panics. Short counts, huge counts, and streams that start like a
    /// real chunk are all drawn.
    #[test]
    fn decompress_is_total(
        count in prop_oneof![0u32..64, any::<u32>()],
        real_start in any::<bool>(),
        samples in arb_metric_stream(),
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut stream = Vec::new();
        if real_start {
            stream.extend_from_slice(&compress(&samples).bits);
        }
        stream.extend_from_slice(&bytes);
        let block = CompressedBlock { count, bits: Bytes::from(stream) };
        match decompress(&block) {
            Ok(samples) => prop_assert_eq!(samples.len(), count as usize),
            Err(Error::CorruptChunk(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    /// Series storage returns exactly what was written, in time order,
    /// regardless of chunk sealing and insertion order.
    #[test]
    fn series_returns_everything_sorted(
        samples in arb_metric_stream(),
        chunk_size in 2usize..64,
    ) {
        let mut series = Series::with_chunk_size(chunk_size);
        for s in &samples {
            series.push(*s);
        }
        let all = series.all().unwrap();
        prop_assert_eq!(all.len(), samples.len());
        prop_assert!(all.windows(2).all(|w| w[0].ts <= w[1].ts));
        let mut expected = samples.clone();
        expected.sort_by_key(|s| s.ts);
        for (a, b) in expected.iter().zip(&all) {
            prop_assert_eq!(a.ts, b.ts);
        }
    }

    /// Range queries agree with a naive filter.
    #[test]
    fn range_query_matches_naive(
        samples in arb_metric_stream(),
        from_frac in 0.0f64..1.0,
        width_frac in 0.0f64..1.0,
    ) {
        let lo = samples.iter().map(|s| s.ts).min().unwrap();
        let hi = samples.iter().map(|s| s.ts).max().unwrap();
        let from = lo + ((hi - lo) as f64 * from_frac) as i64;
        let to = from + ((hi - from) as f64 * width_frac) as i64;
        let mut series = Series::with_chunk_size(16);
        for s in &samples {
            series.push(*s);
        }
        let got = series.samples(from, to).unwrap();
        let naive = samples.iter().filter(|s| s.ts >= from && s.ts <= to).count();
        prop_assert_eq!(got.len(), naive);
    }

    /// Bucketed sums preserve total mass.
    #[test]
    fn bucketing_conserves_sum(samples in arb_metric_stream(), width in 1i64..1_000_000) {
        let finite: Vec<Sample> =
            samples.into_iter().filter(|s| s.value.is_finite()).collect();
        prop_assume!(!finite.is_empty());
        let total: f64 = finite.iter().map(|s| s.value).sum();
        let bucket_total: f64 =
            bucketed(&finite, width, Aggregation::Sum).iter().map(|s| s.value).sum();
        let scale = finite.iter().map(|s| s.value.abs()).sum::<f64>().max(1.0);
        prop_assert!((total - bucket_total).abs() <= 1e-9 * scale);
    }

    /// truncate_before removes exactly the samples before the cutoff.
    #[test]
    fn truncation_is_exact(samples in arb_metric_stream(), cut_frac in 0.0f64..1.0) {
        let lo = samples.iter().map(|s| s.ts).min().unwrap();
        let hi = samples.iter().map(|s| s.ts).max().unwrap();
        let cutoff = lo + ((hi - lo) as f64 * cut_frac) as i64;
        let mut series = Series::with_chunk_size(8);
        for s in &samples {
            series.push(*s);
        }
        let dropped = series.truncate_before(cutoff).unwrap();
        let expected_dropped = samples.iter().filter(|s| s.ts < cutoff).count();
        prop_assert_eq!(dropped, expected_dropped);
        prop_assert!(series.all().unwrap().iter().all(|s| s.ts >= cutoff));
    }
}
