//! Gorilla-style compression for sealed series chunks.
//!
//! Sealed chunks are stored using the scheme from Facebook's Gorilla paper
//! ("Gorilla: A Fast, Scalable, In-Memory Time Series Database", VLDB 2015),
//! which Twitter-scale metrics stores such as Cuckoo also build on:
//!
//! * **Timestamps** are stored as a delta-of-delta: the first timestamp is a
//!   full 64-bit value, the first delta is a zig-zag encoded 64-bit varint,
//!   and every following delta-of-delta picks the smallest of five bit
//!   windows (`0`, 7, 9, 12 or 64 bits). Deltas are taken modulo 2⁶⁴, so
//!   any two `i64` timestamps round-trip.
//! * **Values** are XORed with their predecessor. A zero XOR costs one bit;
//!   otherwise the meaningful bits are stored, reusing the previous
//!   leading/length window when it still fits.
//!
//! Per-minute Heron metrics have near-constant timestamp deltas and slowly
//! varying values, so this encoding typically compresses chunks by an order
//! of magnitude versus raw `(i64, f64)` pairs.
//!
//! The bit stream is a stored format: fields are packed most significant
//! bit first, the last byte is zero-padded, and the buffer is exactly
//! `ceil(bits / 8)` bytes long. The codec's bit cursors move up to 64 bits
//! per call but produce and accept exactly the stream a cursor moving one
//! bit at a time does; the tests hold them to such a cursor byte for byte.

use crate::error::{Error, Result};
use crate::series::Sample;
use bytes::Bytes;

/// What [`encode`] writes its fields to.
trait BitSink {
    /// Appends the low `count` (≤ 64) bits of `value`, most significant
    /// first.
    fn write_bits(&mut self, value: u64, count: u8);

    /// Appends one bit.
    fn write_bit(&mut self, bit: bool);

    /// The stream, its last byte zero-padded.
    fn finish(self) -> Bytes;
}

/// What [`decode`] reads its fields from.
trait BitSource {
    /// Reads one bit.
    fn read_bit(&mut self) -> Result<bool>;

    /// Reads `count` (≤ 64) bits, most significant first. Errs when fewer
    /// than `count` bits remain.
    fn read_bits(&mut self, count: u8) -> Result<u64>;
}

fn exhausted() -> Error {
    Error::CorruptChunk("bit stream exhausted".into())
}

/// Append-only bit cursor that gathers bits in a 64-bit word and appends
/// each full word big-endian, so the bytes come out in stream order.
#[derive(Debug, Default)]
struct BitWriter {
    buf: Vec<u8>,
    /// The first `pending` bits (from the top) are written but not yet
    /// appended to `buf`; the rest are zero.
    word: u64,
    /// Bits held in `word` (0..64).
    pending: u32,
}

impl BitSink for BitWriter {
    fn write_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 64);
        if count == 0 {
            return;
        }
        let count = u32::from(count);
        let value = value & (u64::MAX >> (64 - count));
        let free = 64 - self.pending;
        if count < free {
            self.word |= value << (free - count);
            self.pending += count;
        } else {
            let spill = count - free;
            self.word |= value >> spill;
            self.buf.extend_from_slice(&self.word.to_be_bytes());
            self.word = if spill == 0 { 0 } else { value << (64 - spill) };
            self.pending = spill;
        }
    }

    fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    fn finish(mut self) -> Bytes {
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.word.to_be_bytes()[..tail]);
        Bytes::from(self.buf)
    }
}

/// Bit cursor for reading back what [`BitWriter`] produced. A field that
/// fits in the 8 bytes starting at its first byte is one big-endian word
/// load; a wider field, or one in the last 8 bytes, is gathered a byte at
/// a time.
#[derive(Debug)]
struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit position from the start of the buffer.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
}

impl BitSource for BitReader<'_> {
    fn read_bit(&mut self) -> Result<bool> {
        let byte = *self.buf.get(self.pos / 8).ok_or_else(exhausted)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    fn read_bits(&mut self, count: u8) -> Result<u64> {
        debug_assert!(count <= 64);
        let count = usize::from(count);
        if count == 0 {
            return Ok(0);
        }
        let end = self.pos + count;
        if end > self.buf.len() * 8 {
            return Err(exhausted());
        }
        let (byte, offset) = (self.pos / 8, self.pos % 8);
        let out = match self.buf.get(byte..byte + 8) {
            Some(window) if offset + count <= 64 => {
                let word = u64::from_be_bytes(window.try_into().expect("an 8-byte window"));
                (word << offset) >> (64 - count)
            }
            _ => {
                let mut out = 0u64;
                let mut pos = self.pos;
                while pos < end {
                    let left_in_byte = 8 - pos % 8;
                    let take = left_in_byte.min(end - pos);
                    let bits = u64::from(self.buf[pos / 8]) >> (left_in_byte - take);
                    out = (out << take) | (bits & ((1 << take) - 1));
                    pos += take;
                }
                out
            }
        };
        self.pos = end;
        Ok(out)
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Compressed representation of a run of samples.
///
/// The sample count is stored alongside the bit stream so decoding does not
/// need a terminator symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    /// Number of samples encoded in `bits`.
    pub count: u32,
    /// Gorilla bit stream.
    pub bits: Bytes,
}

impl CompressedBlock {
    /// Size of the encoded payload in bytes (excluding the count field).
    pub fn payload_len(&self) -> usize {
        self.bits.len()
    }
}

/// Encodes `samples` (which must be non-empty) into a Gorilla bit stream.
pub fn compress(samples: &[Sample]) -> CompressedBlock {
    encode(samples, BitWriter::default())
}

fn encode(samples: &[Sample], mut w: impl BitSink) -> CompressedBlock {
    let mut prev_ts = 0i64;
    let mut prev_delta = 0i64;
    let mut prev_bits = 0u64;
    let mut prev_leading = 255u8; // 255 => no previous window
    let mut prev_len = 0u8;

    for (i, s) in samples.iter().enumerate() {
        // --- timestamp ---
        match i {
            0 => {
                w.write_bits(s.ts as u64, 64);
                prev_ts = s.ts;
            }
            1 => {
                let delta = s.ts.wrapping_sub(prev_ts);
                write_varint(&mut w, zigzag_encode(delta));
                prev_delta = delta;
                prev_ts = s.ts;
            }
            _ => {
                let delta = s.ts.wrapping_sub(prev_ts);
                let dod = delta.wrapping_sub(prev_delta);
                match dod {
                    0 => w.write_bit(false),
                    -63..=64 => {
                        w.write_bits(0b10, 2);
                        w.write_bits((dod + 63) as u64, 7);
                    }
                    -255..=256 => {
                        w.write_bits(0b110, 3);
                        w.write_bits((dod + 255) as u64, 9);
                    }
                    -2047..=2048 => {
                        w.write_bits(0b1110, 4);
                        w.write_bits((dod + 2047) as u64, 12);
                    }
                    _ => {
                        w.write_bits(0b1111, 4);
                        w.write_bits(dod as u64, 64);
                    }
                }
                prev_delta = delta;
                prev_ts = s.ts;
            }
        }

        // --- value ---
        let bits = s.value.to_bits();
        if i == 0 {
            w.write_bits(bits, 64);
        } else {
            let xor = bits ^ prev_bits;
            if xor == 0 {
                w.write_bit(false);
            } else {
                w.write_bit(true);
                let leading = (xor.leading_zeros() as u8).min(31);
                let trailing = xor.trailing_zeros() as u8;
                let len = 64 - leading - trailing;
                // Reuse is only sound if the new meaningful bits fit entirely
                // inside the previous [prev_leading, prev_leading + prev_len)
                // window, i.e. both the leading AND trailing margins cover it.
                if prev_leading != 255
                    && leading >= prev_leading
                    && trailing >= 64 - prev_leading - prev_len
                {
                    // Reuse the previous window.
                    w.write_bit(false);
                    w.write_bits(xor >> (64 - prev_leading - prev_len), prev_len);
                } else {
                    w.write_bit(true);
                    w.write_bits(u64::from(leading), 5);
                    // Store len - 1 in 6 bits so a full 64-bit window fits.
                    w.write_bits(u64::from(len - 1), 6);
                    w.write_bits(xor >> trailing, len);
                    prev_leading = leading;
                    prev_len = len;
                }
            }
        }
        prev_bits = bits;
    }

    CompressedBlock {
        count: samples.len() as u32,
        bits: w.finish(),
    }
}

/// Decodes a block produced by [`compress`].
pub fn decompress(block: &CompressedBlock) -> Result<Vec<Sample>> {
    let mut out = Vec::new();
    decompress_into(block, &mut out)?;
    Ok(out)
}

/// [`decompress`], appending to `out` instead of allocating. On error
/// `out` may hold part of the block.
pub fn decompress_into(block: &CompressedBlock, out: &mut Vec<Sample>) -> Result<()> {
    decode(block.count, BitReader::new(&block.bits), out)
}

fn decode(count: u32, mut r: impl BitSource, out: &mut Vec<Sample>) -> Result<()> {
    out.reserve(count as usize);
    let mut prev_ts = 0i64;
    let mut prev_delta = 0i64;
    let mut prev_bits = 0u64;
    let mut prev_leading = 0u8;
    let mut prev_len = 0u8;

    for i in 0..count {
        let ts = match i {
            0 => {
                prev_ts = r.read_bits(64)? as i64;
                prev_ts
            }
            1 => {
                prev_delta = zigzag_decode(read_varint(&mut r)?);
                prev_ts = prev_ts.wrapping_add(prev_delta);
                prev_ts
            }
            _ => {
                let dod = if !r.read_bit()? {
                    0
                } else if !r.read_bit()? {
                    r.read_bits(7)? as i64 - 63
                } else if !r.read_bit()? {
                    r.read_bits(9)? as i64 - 255
                } else if !r.read_bit()? {
                    r.read_bits(12)? as i64 - 2047
                } else {
                    r.read_bits(64)? as i64
                };
                prev_delta = prev_delta.wrapping_add(dod);
                prev_ts = prev_ts.wrapping_add(prev_delta);
                prev_ts
            }
        };

        let bits = if i == 0 {
            r.read_bits(64)?
        } else if !r.read_bit()? {
            prev_bits
        } else if !r.read_bit()? {
            let meaningful = r.read_bits(prev_len)?;
            prev_bits ^ (meaningful << (64 - prev_leading - prev_len))
        } else {
            let leading = r.read_bits(5)? as u8;
            let len = r.read_bits(6)? as u8 + 1;
            let meaningful = r.read_bits(len)?;
            prev_leading = leading;
            prev_len = len;
            let trailing = 64 - leading - len;
            prev_bits ^ (meaningful << trailing)
        };
        prev_bits = bits;
        out.push(Sample {
            ts,
            value: f64::from_bits(bits),
        });
    }
    Ok(())
}

/// LEB128-flavoured varint over the bit stream (7 data bits per group).
fn write_varint(w: &mut impl BitSink, mut v: u64) {
    loop {
        let group = v & 0x7f;
        v >>= 7;
        w.write_bit(v != 0);
        w.write_bits(group, 7);
        if v == 0 {
            break;
        }
    }
}

fn read_varint(r: &mut impl BitSource) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let more = r.read_bit()?;
        let group = r.read_bits(7)?;
        out |= group
            .checked_shl(shift)
            .ok_or_else(|| Error::CorruptChunk("varint overflow".into()))?;
        if !more {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::CorruptChunk("varint too long".into()));
        }
    }
}

/// The bit cursors as first written, one bit per call: the stream the
/// word-at-a-time pair must produce and accept, byte for byte.
#[cfg(test)]
mod reference {
    use super::{exhausted, BitSink, BitSource, Bytes, Result};

    #[derive(Debug, Default)]
    pub(super) struct BitWriter {
        buf: Vec<u8>,
        /// Bits already used in the final byte (0..=7). 0 means the last
        /// byte is full (or the buffer is empty).
        used: u8,
    }

    impl BitSink for BitWriter {
        fn write_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.buf.push(0);
                self.used = 8;
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << (self.used - 1);
            }
            self.used -= 1;
        }

        fn write_bits(&mut self, value: u64, count: u8) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn finish(self) -> Bytes {
            Bytes::from(self.buf)
        }
    }

    #[derive(Debug)]
    pub(super) struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub(super) fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }
    }

    impl BitSource for BitReader<'_> {
        fn read_bit(&mut self) -> Result<bool> {
            let byte = self.pos / 8;
            if byte >= self.buf.len() {
                return Err(exhausted());
            }
            let offset = 7 - (self.pos % 8) as u8;
            self.pos += 1;
            Ok((self.buf[byte] >> offset) & 1 == 1)
        }

        fn read_bits(&mut self, count: u8) -> Result<u64> {
            let mut out = 0u64;
            for _ in 0..count {
                out = (out << 1) | u64::from(self.read_bit()?);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn roundtrip(samples: &[Sample]) {
        let block = compress(samples);
        let back = decompress(&block).expect("decode");
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.ts, b.ts);
            assert!(
                (a.value == b.value) || (a.value.is_nan() && b.value.is_nan()),
                "value mismatch: {} vs {}",
                a.value,
                b.value
            );
        }
    }

    fn reference_compress(samples: &[Sample]) -> CompressedBlock {
        encode(samples, reference::BitWriter::default())
    }

    fn reference_decompress(block: &CompressedBlock) -> Result<Vec<Sample>> {
        let mut out = Vec::new();
        decode(
            block.count,
            reference::BitReader::new(&block.bits),
            &mut out,
        )?;
        Ok(out)
    }

    fn bits_of(samples: &[Sample]) -> Vec<(i64, u64)> {
        samples.iter().map(|s| (s.ts, s.value.to_bits())).collect()
    }

    const SPECIAL_VALUES: [f64; 6] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
    ];

    /// A chunk of `1..=max_len` samples mixing the timestamp cadences and
    /// value entropies the store sees (and some it should never see).
    fn arb_chunk(max_len: usize) -> BoxedStrategy<Vec<Sample>> {
        BoxedStrategy::from_fn(move |rng: &mut TestRng| {
            let len = 1 + rng.below(max_len);
            let mut ts = match rng.below(4) {
                0 => 1_700_000_000_000,
                1 => i64::MIN + rng.below(1_000_000) as i64,
                2 => i64::MAX - rng.below(1_000_000) as i64,
                _ => rng.next_u64() as i64,
            };
            let cadence = rng.below(4);
            let entropy = rng.below(3);
            let specials = rng.below(2) == 0;
            (0..len)
                .map(|i| {
                    if i > 0 {
                        let delta = match cadence {
                            0 => 60_000,
                            1 => 60_000 + rng.below(5_000) as i64 - 2_500,
                            2 => rng.below(200_001) as i64 - 100_000,
                            _ => rng.next_u64() as i64,
                        };
                        ts = ts.wrapping_add(delta);
                    }
                    let value = if specials && rng.below(10) == 0 {
                        match rng.below(SPECIAL_VALUES.len() + 1) {
                            // A NaN with a random payload and sign.
                            0 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64()),
                            k => SPECIAL_VALUES[k - 1],
                        }
                    } else {
                        match entropy {
                            0 => 1e6 + (i % 13) as f64,
                            1 => 4_000.0 * (1.0 + 0.05 * rng.unit_f64()),
                            _ => f64::from_bits(rng.next_u64()),
                        }
                    };
                    Sample { ts, value }
                })
                .collect()
        })
    }

    proptest! {
        /// Word-at-a-time writes lay down the same bytes as bit-at-a-time
        /// ones, and read back (word or byte path) to the same fields.
        #[test]
        fn bit_cursors_match_the_reference(
            fields in prop::collection::vec((0u8..65, any::<u64>()), 0..200),
        ) {
            let mut w = BitWriter::default();
            let mut oracle = reference::BitWriter::default();
            for &(count, value) in &fields {
                w.write_bits(value, count);
                oracle.write_bits(value, count);
            }
            let bytes = w.finish();
            prop_assert_eq!(&bytes[..], &oracle.finish()[..]);
            let mut r = BitReader::new(&bytes);
            let mut oracle = reference::BitReader::new(&bytes);
            for &(count, value) in &fields {
                let want = if count == 0 { 0 } else { value & (u64::MAX >> (64 - count)) };
                prop_assert_eq!(r.read_bits(count).unwrap(), want);
                prop_assert_eq!(oracle.read_bits(count).unwrap(), want);
            }
            prop_assert!(r.read_bits(8).is_err());
        }

        /// `compress` writes the reference's bytes, and both decoders give
        /// back every timestamp and value bit.
        #[test]
        fn compress_matches_the_reference(samples in arb_chunk(600)) {
            let block = compress(&samples);
            prop_assert_eq!(&block, &reference_compress(&samples));
            prop_assert_eq!(bits_of(&decompress(&block).unwrap()), bits_of(&samples));
            prop_assert_eq!(bits_of(&reference_decompress(&block).unwrap()), bits_of(&samples));
        }

        /// Every truncation of a stream fails exactly when the reference's
        /// decode of it fails.
        #[test]
        fn truncations_fail_like_the_reference(samples in arb_chunk(60)) {
            let block = compress(&samples);
            for cut in 0..=block.bits.len() {
                for count in [block.count, block.count + 1] {
                    let truncated = CompressedBlock {
                        count,
                        bits: block.bits.slice(0..cut),
                    };
                    let got = decompress(&truncated);
                    let want = reference_decompress(&truncated);
                    prop_assert_eq!(got.is_err(), want.is_err(), "cut {} count {}", cut, count);
                    if let (Ok(got), Ok(want)) = (got, want) {
                        prop_assert_eq!(bits_of(&got), bits_of(&want));
                    }
                }
            }
        }
    }

    /// Pins the stream layout without the reference: every timestamp
    /// window (varint, 0, 7, 9, 12 and 64 bits) and every value case
    /// (first, repeat, new window, reused window).
    #[test]
    fn golden_stream() {
        let samples = [
            (1_700_000_000_000, 100.0),
            (1_700_000_060_000, 100.0),
            (1_700_000_120_000, 101.5),
            (1_700_000_180_010, 101.25),
            (1_700_000_240_210, 99.0),
            (1_700_000_301_410, 99.0),
            (-5, -0.0),
            (i64::MAX, f64::NAN),
        ]
        .map(|(ts, value)| Sample { ts, value });
        let block = compress(&samples);
        let hex: String = block.bits.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
        assert_eq!(bits_of(&decompress(&block).unwrap()), bits_of(&samples));
    }

    const GOLDEN_HEX: &str = "0000018bcfe568004059000000000000c0a9073883d27903\
                              edeef133d7ceffffffe7430150f89c08e02c7f000003179fd402d77ffc00";

    #[test]
    fn roundtrip_single_sample() {
        roundtrip(&[Sample {
            ts: 1_700_000_000_000,
            value: 42.5,
        }]);
    }

    #[test]
    fn roundtrip_two_samples() {
        roundtrip(&[
            Sample {
                ts: 1_700_000_000_000,
                value: 42.5,
            },
            Sample {
                ts: 1_700_000_060_000,
                value: 42.5,
            },
        ]);
    }

    #[test]
    fn roundtrip_regular_minute_cadence() {
        let samples: Vec<Sample> = (0..500)
            .map(|i| Sample {
                ts: 1_700_000_000_000 + i * 60_000,
                value: 1000.0 + (i % 17) as f64,
            })
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn roundtrip_irregular_timestamps() {
        let mut ts = 0i64;
        let samples: Vec<Sample> = (0..300)
            .map(|i: i64| {
                ts += 60_000 + (i * i * 37) % 5_000 - 2_500;
                Sample {
                    ts,
                    value: (i as f64).sin() * 1e6,
                }
            })
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn roundtrip_extreme_values() {
        roundtrip(&[
            Sample { ts: 0, value: 0.0 },
            Sample {
                ts: 1,
                value: f64::MAX,
            },
            Sample {
                ts: 2,
                value: f64::MIN,
            },
            Sample {
                ts: 3,
                value: f64::MIN_POSITIVE,
            },
            Sample { ts: 4, value: -0.0 },
            Sample {
                ts: 5,
                value: f64::INFINITY,
            },
            Sample {
                ts: 6,
                value: f64::NEG_INFINITY,
            },
            Sample {
                ts: 7,
                value: f64::NAN,
            },
        ]);
    }

    #[test]
    fn roundtrip_negative_and_backward_timestamps() {
        // The format does not require monotonic timestamps.
        roundtrip(&[
            Sample {
                ts: -5_000,
                value: 1.0,
            },
            Sample {
                ts: 1_000,
                value: 2.0,
            },
            Sample {
                ts: 500,
                value: 3.0,
            },
            Sample {
                ts: i64::MAX / 2,
                value: 4.0,
            },
        ]);
    }

    #[test]
    fn constant_series_compresses_well() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| Sample {
                ts: i * 60_000,
                value: 7.63,
            })
            .collect();
        let block = compress(&samples);
        let raw = samples.len() * 16;
        assert!(
            block.payload_len() * 8 < raw,
            "expected >8x compression, got {} of {raw}",
            block.payload_len()
        );
    }

    #[test]
    fn truncated_block_is_an_error() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                ts: i * 60_000,
                value: i as f64 * 3.7,
            })
            .collect();
        let block = compress(&samples);
        let cut = CompressedBlock {
            count: block.count,
            bits: block.bits.slice(0..block.bits.len() / 2),
        };
        assert!(matches!(decompress(&cut), Err(Error::CorruptChunk(_))));
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -63, i64::MAX, i64::MIN, 60_000] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::default();
        w.write_bits(0b1011, 4);
        w.write_bit(true);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 7);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(7).unwrap(), 0);
    }
}
