//! Series storage: keys, samples and the chunked in-memory layout.

use crate::encoding::{self, CompressedBlock};
use crate::error::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single observation: a millisecond timestamp and a value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Milliseconds since the epoch (or since simulation start).
    pub ts: i64,
    /// Observed value.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(ts: i64, value: f64) -> Self {
        Self { ts, value }
    }
}

/// Identity of a series: a metric name plus a canonical tag set.
///
/// Tags are kept in a [`BTreeMap`] so two keys with the same tags in a
/// different insertion order compare (and hash) identically — the property
/// Twitter-style metric stores rely on to deduplicate series.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Metric name, e.g. `emit-count`.
    pub name: String,
    /// Canonicalised tag set, e.g. `{topology: wc, component: splitter}`.
    pub tags: BTreeMap<String, String>,
}

impl SeriesKey {
    /// Creates a key with no tags.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tags: BTreeMap::new(),
        }
    }

    /// Builder-style tag insertion.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Returns the value of `tag`, if present.
    pub fn tag(&self, tag: &str) -> Option<&str> {
        self.tags.get(tag).map(String::as_str)
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.name)?;
        for (i, (k, v)) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A sealed, compressed run of samples with its covered time range.
#[derive(Debug, Clone)]
struct Chunk {
    start: i64,
    end: i64,
    block: CompressedBlock,
}

impl Chunk {
    /// Seals a non-empty, ascending run.
    fn of(run: &[Sample]) -> Self {
        Self {
            start: run[0].ts,
            end: run[run.len() - 1].ts,
            block: encoding::compress(run),
        }
    }
}

/// Default number of samples buffered in the mutable head before sealing.
pub const DEFAULT_CHUNK_SIZE: usize = 240;

/// One time series: sealed compressed chunks plus a mutable, sorted head.
///
/// Appends are O(1) amortised when timestamps arrive in order (the common
/// case for per-minute metrics); out-of-order samples within the head are
/// insertion-sorted, and samples older than the newest sealed chunk are
/// accepted into the head (queries merge, so results stay sorted overall per
/// region; see [`Series::samples`]).
#[derive(Debug, Clone)]
pub struct Series {
    chunks: Vec<Chunk>,
    head: Vec<Sample>,
    chunk_size: usize,
}

impl Default for Series {
    fn default() -> Self {
        Self::new()
    }
}

impl Series {
    /// Creates an empty series with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    /// Creates an empty series sealing chunks every `chunk_size` samples.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Self {
            chunks: Vec::new(),
            head: Vec::new(),
            chunk_size: chunk_size.max(2),
        }
    }

    /// Total number of stored samples.
    pub fn len(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.block.count as usize)
            .sum::<usize>()
            + self.head.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.head.is_empty()
    }

    /// Approximate storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.block.payload_len() + 24)
            .sum::<usize>()
            + self.head.len() * std::mem::size_of::<Sample>()
    }

    /// Appends one sample, keeping the head sorted by timestamp.
    pub fn push(&mut self, sample: Sample) {
        match self.head.last() {
            Some(last) if sample.ts < last.ts => {
                let idx = self.head.partition_point(|s| s.ts <= sample.ts);
                self.head.insert(idx, sample);
            }
            _ => self.head.push(sample),
        }
        if self.head.len() >= self.chunk_size {
            self.seal_head();
        }
    }

    /// Appends `samples` in slice order, leaving exactly the chunks
    /// (ranges and bytes) and head a loop of [`Series::push`] leaves.
    ///
    /// Input that is ascending and does not start behind the head's last
    /// sample tops a non-empty head up to the chunk size and seals it,
    /// seals every further whole chunk-size run straight from the input
    /// (no copy through the head), and keeps the rest as the head. Any
    /// other input takes the per-sample `push` loop.
    pub fn extend_from_slice(&mut self, samples: &[Sample]) {
        let behind_head = matches!(
            (self.head.last(), samples.first()),
            (Some(last), Some(first)) if first.ts < last.ts
        );
        if behind_head || samples.windows(2).any(|w| w[1].ts < w[0].ts) {
            for &sample in samples {
                self.push(sample);
            }
            return;
        }
        let mut rest = samples;
        if !self.head.is_empty() {
            let room = self.chunk_size - self.head.len();
            let (fill, tail) = samples.split_at(room.min(samples.len()));
            self.head.extend_from_slice(fill);
            if self.head.len() < self.chunk_size {
                return;
            }
            self.seal_head();
            rest = tail;
        }
        let mut runs = rest.chunks_exact(self.chunk_size);
        for run in &mut runs {
            self.chunks.push(Chunk::of(run));
        }
        self.head.extend_from_slice(runs.remainder());
    }

    /// Seals the current head into a compressed chunk.
    pub fn seal_head(&mut self) {
        if self.head.is_empty() {
            return;
        }
        self.chunks.push(Chunk::of(&self.head));
        self.head.clear();
    }

    /// The sealed chunks as `(start, end, block)`, in seal order.
    pub fn chunks(&self) -> impl Iterator<Item = (i64, i64, &CompressedBlock)> {
        self.chunks.iter().map(|c| (c.start, c.end, &c.block))
    }

    /// The unsealed head, sorted by timestamp.
    pub fn head(&self) -> &[Sample] {
        &self.head
    }

    /// Returns all samples whose timestamp lies in `[from, to]`, in time
    /// order.
    ///
    /// The output is allocated once, for the samples of every chunk that
    /// overlaps the range plus the head's samples in it, and chunks decode
    /// straight into it. Chunks are sealed in arrival order, so the output
    /// is already in time order unless a late sample made two ranges
    /// overlap; only then is it sorted (stably, so equal timestamps keep
    /// their stored order).
    pub fn samples(&self, from: i64, to: i64) -> Result<Vec<Sample>> {
        let overlaps = |chunk: &&Chunk| chunk.end >= from && chunk.start <= to;
        let below = self.head.partition_point(|s| s.ts < from);
        let head = &self.head[below..self.head.partition_point(|s| s.ts <= to).max(below)];
        let chunked: usize = self
            .chunks
            .iter()
            .filter(overlaps)
            .map(|c| c.block.count as usize)
            .sum();
        let mut out = Vec::with_capacity(chunked + head.len());
        let mut in_order = true;
        let mut newest = i64::MIN;
        for chunk in self.chunks.iter().filter(overlaps) {
            in_order &= chunk.start >= newest;
            newest = newest.max(chunk.end);
            let decoded = out.len();
            encoding::decompress_into(&chunk.block, &mut out)?;
            // A sealed chunk is sorted: keep its part in range.
            let chunk_samples = &out[decoded..];
            let below = chunk_samples.partition_point(|s| s.ts < from);
            let kept = chunk_samples.partition_point(|s| s.ts <= to).max(below);
            out.truncate(decoded + kept);
            out.drain(decoded..decoded + below);
        }
        if let Some(first) = head.first() {
            in_order &= first.ts >= newest;
            out.extend_from_slice(head);
        }
        if !in_order {
            out.sort_by_key(|s| s.ts);
        }
        Ok(out)
    }

    /// Returns every stored sample in time order.
    pub fn all(&self) -> Result<Vec<Sample>> {
        self.samples(i64::MIN, i64::MAX)
    }

    /// Timestamp of the most recent sample, if any.
    pub fn latest_ts(&self) -> Option<i64> {
        let head = self.head.last().map(|s| s.ts);
        let chunk = self.chunks.iter().map(|c| c.end).max();
        head.into_iter().chain(chunk).max()
    }

    /// Drops every sample with `ts < cutoff`. Chunks straddling the cutoff
    /// are decoded, filtered and re-sealed. Returns the number of dropped
    /// samples.
    pub fn truncate_before(&mut self, cutoff: i64) -> Result<usize> {
        let before = self.len();
        let mut kept = Vec::new();
        for chunk in self.chunks.drain(..) {
            if chunk.start >= cutoff {
                kept.push(chunk);
            } else if chunk.end >= cutoff {
                let remaining: Vec<Sample> = encoding::decompress(&chunk.block)?
                    .into_iter()
                    .filter(|s| s.ts >= cutoff)
                    .collect();
                if !remaining.is_empty() {
                    kept.push(Chunk::of(&remaining));
                }
            }
        }
        self.chunks = kept;
        self.head.retain(|s| s.ts >= cutoff);
        Ok(before - self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: i64) -> Series {
        let mut s = Series::with_chunk_size(16);
        for i in 0..n {
            s.push(Sample::new(i * 60_000, i as f64));
        }
        s
    }

    #[test]
    fn key_tag_order_is_canonical() {
        let a = SeriesKey::new("m").with_tag("b", "2").with_tag("a", "1");
        let b = SeriesKey::new("m").with_tag("a", "1").with_tag("b", "2");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "m{a=1,b=2}");
    }

    #[test]
    fn push_and_range_query() {
        let s = filled(100);
        assert_eq!(s.len(), 100);
        let window = s.samples(10 * 60_000, 19 * 60_000).unwrap();
        assert_eq!(window.len(), 10);
        assert_eq!(window[0].value, 10.0);
        assert_eq!(window[9].value, 19.0);
    }

    #[test]
    fn sealing_preserves_all_samples() {
        let s = filled(100); // chunk size 16 -> 6 sealed chunks + head
        let all = s.all().unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn out_of_order_head_inserts_sorted() {
        let mut s = Series::with_chunk_size(64);
        s.push(Sample::new(3_000, 3.0));
        s.push(Sample::new(1_000, 1.0));
        s.push(Sample::new(2_000, 2.0));
        let all = s.all().unwrap();
        assert_eq!(
            all.iter().map(|x| x.ts).collect::<Vec<_>>(),
            vec![1_000, 2_000, 3_000]
        );
    }

    #[test]
    fn late_sample_behind_sealed_chunk_is_still_returned_sorted() {
        let mut s = Series::with_chunk_size(4);
        for i in 0..8i64 {
            s.push(Sample::new(i * 1_000, i as f64));
        }
        // Both chunks sealed; now a very late arrival.
        s.push(Sample::new(500, 99.0));
        let all = s.all().unwrap();
        assert_eq!(all.len(), 9);
        assert!(all.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(all[1].value, 99.0);
    }

    #[test]
    fn latest_ts_spans_chunks_and_head() {
        let s = filled(20);
        assert_eq!(s.latest_ts(), Some(19 * 60_000));
        assert_eq!(Series::new().latest_ts(), None);
    }

    #[test]
    fn truncate_before_drops_and_resplits() {
        let mut s = filled(100);
        let dropped = s.truncate_before(50 * 60_000).unwrap();
        assert_eq!(dropped, 50);
        let all = s.all().unwrap();
        assert_eq!(all.len(), 50);
        assert_eq!(all[0].ts, 50 * 60_000);
    }

    #[test]
    fn truncate_mid_chunk_keeps_partial_chunk() {
        let mut s = filled(32); // exactly two sealed 16-sample chunks
        let dropped = s.truncate_before(8 * 60_000).unwrap();
        assert_eq!(dropped, 8);
        assert_eq!(s.all().unwrap().len(), 24);
    }

    #[test]
    fn storage_is_smaller_than_raw() {
        let mut s = Series::with_chunk_size(120);
        for i in 0..1200i64 {
            s.push(Sample::new(i * 60_000, 42.0));
        }
        assert!(s.storage_bytes() < 1200 * 16 / 4);
    }

    #[test]
    fn range_reads_match_a_filter_of_every_sample() {
        // Sealed chunks, a head, a late sample overlapping two chunks,
        // duplicate timestamps, and ranges that are empty, inverted or
        // fall between samples.
        let mut s = Series::with_chunk_size(4);
        for i in 0..10i64 {
            s.push(Sample::new(i * 1_000, i as f64));
        }
        s.push(Sample::new(6_000, 60.0));
        s.seal_head();
        s.push(Sample::new(2_500, 25.0));
        s.push(Sample::new(12_000, 12.0));
        let mut all: Vec<Sample> = Vec::new();
        for chunk in &s.chunks {
            all.extend(encoding::decompress(&chunk.block).unwrap());
        }
        all.extend(&s.head);
        all.sort_by_key(|x| x.ts);
        let bounds = [
            i64::MIN,
            -1,
            0,
            999,
            2_500,
            3_000,
            6_000,
            9_000,
            12_000,
            i64::MAX,
        ];
        for from in bounds {
            for to in bounds {
                let expected: Vec<Sample> = all
                    .iter()
                    .copied()
                    .filter(|x| x.ts >= from && x.ts <= to)
                    .collect();
                assert_eq!(s.samples(from, to).unwrap(), expected, "[{from}, {to}]");
            }
        }
        // Without the late sample the chunks do not overlap.
        let s = filled(40);
        assert_eq!(s.samples(7 * 60_000, 3 * 60_000).unwrap(), vec![]);
        assert_eq!(s.samples(17 * 60_000, 17 * 60_000).unwrap().len(), 1);
    }

    #[test]
    fn empty_series_queries() {
        let s = Series::new();
        assert!(s.is_empty());
        assert!(s.all().unwrap().is_empty());
        assert_eq!(s.samples(0, 100).unwrap().len(), 0);
    }
}
