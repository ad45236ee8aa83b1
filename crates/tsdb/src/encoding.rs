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
//! `ceil(bits / 8)` bytes long. The codec moves several fields per cursor
//! call — the common sample (delta-of-delta zero, value in the previous
//! or a short new window) is one write and one 64-bit peek — yet writes
//! and accepts exactly the stream of a codec that moves one field at a
//! time over a cursor that moves one bit at a time; the tests hold it to
//! such a reference byte for byte, and to its outcome on any stream.

use crate::error::{Error, Result};
use crate::series::Sample;
use bytes::Bytes;

fn exhausted() -> Error {
    Error::CorruptChunk("bit stream exhausted".into())
}

fn window_reused_before_set() -> Error {
    Error::CorruptChunk("value window reused before one was set".into())
}

fn window_too_wide() -> Error {
    Error::CorruptChunk("value window wider than 64 bits".into())
}

fn varint_overflow() -> Error {
    Error::CorruptChunk("varint overflow".into())
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

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Appends the low `count` (≤ 64) bits of `value`, most significant
    /// first.
    fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64);
        if count == 0 {
            return;
        }
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

    /// The stream, its last byte zero-padded, in an exactly sized copy.
    /// Handing `buf` itself over, shrunk in place, was no faster and left
    /// each sealed chunk's cut-off tail as a hole in the heap.
    fn finish(mut self) -> Bytes {
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.word.to_be_bytes()[..tail]);
        Bytes::copy_from_slice(&self.buf)
    }
}

/// Stream bits a [`BitReader::peek`] always holds: a 64-bit load starts
/// at most 7 bits before the cursor.
const PEEK_BITS: u32 = 57;

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

    /// The bits from the cursor on, the next one at the top, without
    /// moving; `None` when fewer than 8 bytes start at the cursor's byte.
    /// The top [`PEEK_BITS`] bits are stream bits.
    fn peek(&self) -> Option<u64> {
        let byte = self.pos / 8;
        let window = self.buf.get(byte..byte + 8)?;
        let word = u64::from_be_bytes(window.try_into().expect("an 8-byte window"));
        Some(word << (self.pos % 8))
    }

    /// Moves past `count` bits a [`BitReader::peek`] returned.
    fn skip(&mut self, count: u32) {
        debug_assert!(count <= PEEK_BITS);
        self.pos += count as usize;
    }

    fn read_bit(&mut self) -> Result<bool> {
        let byte = *self.buf.get(self.pos / 8).ok_or_else(exhausted)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `count` (≤ 64) bits, most significant first. Errs when fewer
    /// than `count` bits remain.
    fn read_bits(&mut self, count: u32) -> Result<u64> {
        debug_assert!(count <= 64);
        let count = count as usize;
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

/// Bytes a stream of `count` samples can take at most: 64 + 64 bits for
/// the first sample, 80 + 77 for the second, 68 + 77 for each later one.
/// The encoder's buffer never grows past it.
fn max_stream_bytes(count: usize) -> usize {
    count * 19 + 16
}

/// Encodes `samples` (which must be non-empty) into a Gorilla bit stream.
///
/// A short timestamp field is held back and written together with the
/// value's control bits, and with its payload when all of it fits in 64
/// bits: the common sample is one write.
pub fn compress(samples: &[Sample]) -> CompressedBlock {
    let mut w = BitWriter::with_capacity(max_stream_bytes(samples.len()));
    let mut prev_ts = 0i64;
    let mut prev_delta = 0i64;
    let mut prev_bits = 0u64;
    // The last stored (leading zeros, length) value window, if any.
    let mut window: Option<(u32, u32)> = None;

    for (i, s) in samples.iter().enumerate() {
        let bits = s.value.to_bits();
        if i == 0 {
            w.write_bits(s.ts as u64, 64);
            w.write_bits(bits, 64);
            prev_ts = s.ts;
            prev_bits = bits;
            continue;
        }

        // --- timestamp: `(head, head_len)` is what is still to write ---
        let delta = s.ts.wrapping_sub(prev_ts);
        let (mut head, mut head_len) = if i == 1 {
            write_varint(&mut w, zigzag_encode(delta));
            (0, 0)
        } else {
            let dod = delta.wrapping_sub(prev_delta);
            match dod {
                0 => (0, 1),
                -63..=64 => (0b10 << 7 | (dod + 63) as u64, 9),
                -255..=256 => (0b110 << 9 | (dod + 255) as u64, 12),
                -2047..=2048 => (0b1110 << 12 | (dod + 2047) as u64, 16),
                _ => {
                    w.write_bits(0b1111, 4);
                    w.write_bits(dod as u64, 64);
                    (0, 0)
                }
            }
        };
        prev_delta = delta;
        prev_ts = s.ts;

        // --- value: control bits onto the head, then the payload ---
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        let (payload, payload_len) = if xor == 0 {
            head <<= 1;
            head_len += 1;
            (0, 0)
        } else {
            let leading = xor.leading_zeros().min(31);
            let trailing = xor.trailing_zeros();
            match window {
                // Reuse is only sound if the new meaningful bits fit
                // entirely inside the previous window, i.e. both the
                // leading AND trailing margins cover it.
                Some((w_leading, w_len))
                    if leading >= w_leading && trailing >= 64 - w_leading - w_len =>
                {
                    head = head << 2 | 0b10;
                    head_len += 2;
                    (xor >> (64 - w_leading - w_len), w_len)
                }
                _ => {
                    let len = 64 - leading - trailing;
                    // Store len - 1 in 6 bits so a full 64-bit window fits.
                    head = head << 13 | 0b11 << 11 | u64::from(leading) << 6 | u64::from(len - 1);
                    head_len += 13;
                    window = Some((leading, len));
                    (xor >> trailing, len)
                }
            }
        };
        // The head holds at least one control bit, so a payload sharing
        // its write is under 64 bits.
        if head_len + payload_len <= 64 {
            w.write_bits(head << payload_len | payload, head_len + payload_len);
        } else {
            w.write_bits(head, head_len);
            w.write_bits(payload, payload_len);
        }
    }

    CompressedBlock {
        count: samples.len() as u32,
        bits: w.finish(),
    }
}

/// Decodes a block produced by [`compress`]. Any other block decodes or
/// fails with [`Error::CorruptChunk`]; it never panics.
pub fn decompress(block: &CompressedBlock) -> Result<Vec<Sample>> {
    let mut out = Vec::new();
    decompress_into(block, &mut out)?;
    Ok(out)
}

/// [`decompress`], appending to `out` instead of allocating. On error
/// `out` may hold part of the block.
///
/// A sample whose delta-of-delta is zero and whose fields fit in
/// `PEEK_BITS` decodes from one peek; any other is read field by field.
pub fn decompress_into(block: &CompressedBlock, out: &mut Vec<Sample>) -> Result<()> {
    // Every sample after the first takes at least two bits, so a crafted
    // count reserves no more than the stream could hold.
    out.reserve((block.count as usize).min(block.bits.len() * 4 + 1));
    let mut r = BitReader::new(&block.bits);
    let mut d = Decoder::default();
    for i in 0..block.count {
        let peeked = if i >= 2 {
            r.peek().and_then(|p| d.common_sample(p))
        } else {
            None
        };
        let sample = match peeked {
            Some((sample, used)) => {
                r.skip(used);
                sample
            }
            None => d.sample(&mut r, i)?,
        };
        out.push(sample);
    }
    Ok(())
}

/// What decoding carries from one sample to the next.
#[derive(Debug, Default)]
struct Decoder {
    ts: i64,
    delta: i64,
    bits: u64,
    /// The last stored (leading zeros, length) value window, if any.
    window: Option<(u32, u32)>,
}

impl Decoder {
    /// Decodes a sample (not the first two) from the stream's next bits,
    /// `peek`, when its delta-of-delta is zero and it takes at most
    /// [`PEEK_BITS`]: the sample and the bits it took. `None` leaves the
    /// decoder as it was, for [`Decoder::sample`] to read the sample.
    fn common_sample(&mut self, peek: u64) -> Option<(Sample, u32)> {
        if peek >> 63 != 0 {
            return None;
        }
        let v = peek << 1;
        let (bits, used) = if v >> 63 == 0 {
            (self.bits, 2)
        } else if (v >> 62) & 1 == 0 {
            let (leading, len) = self.window?;
            let used = 3 + len;
            if used > PEEK_BITS {
                return None;
            }
            let meaningful = (v << 2) >> (64 - len);
            (self.bits ^ (meaningful << (64 - leading - len)), used)
        } else {
            let leading = ((v >> 57) & 0x1f) as u32;
            let len = ((v >> 51) & 0x3f) as u32 + 1;
            let used = 14 + len;
            if used > PEEK_BITS || leading + len > 64 {
                return None;
            }
            let meaningful = (v << 13) >> (64 - len);
            self.window = Some((leading, len));
            (self.bits ^ (meaningful << (64 - leading - len)), used)
        };
        self.ts = self.ts.wrapping_add(self.delta);
        self.bits = bits;
        Some((Sample::new(self.ts, f64::from_bits(bits)), used))
    }

    /// Reads sample `i` field by field.
    fn sample(&mut self, r: &mut BitReader, i: u32) -> Result<Sample> {
        self.ts = match i {
            0 => r.read_bits(64)? as i64,
            1 => {
                self.delta = zigzag_decode(read_varint(r)?);
                self.ts.wrapping_add(self.delta)
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
                self.delta = self.delta.wrapping_add(dod);
                self.ts.wrapping_add(self.delta)
            }
        };
        self.bits = if i == 0 {
            r.read_bits(64)?
        } else if !r.read_bit()? {
            self.bits
        } else if !r.read_bit()? {
            let (leading, len) = self.window.ok_or_else(window_reused_before_set)?;
            self.bits ^ (r.read_bits(len)? << (64 - leading - len))
        } else {
            let leading = r.read_bits(5)? as u32;
            let len = r.read_bits(6)? as u32 + 1;
            if leading + len > 64 {
                return Err(window_too_wide());
            }
            let meaningful = r.read_bits(len)?;
            self.window = Some((leading, len));
            self.bits ^ (meaningful << (64 - leading - len))
        };
        Ok(Sample::new(self.ts, f64::from_bits(self.bits)))
    }
}

/// LEB128-flavoured varint over the bit stream: per group of 7 data bits,
/// a continuation bit and the group, as one 8-bit field.
fn write_varint(w: &mut BitWriter, mut v: u64) {
    loop {
        let group = v & 0x7f;
        v >>= 7;
        w.write_bits(u64::from(v != 0) << 7 | group, 8);
        if v == 0 {
            break;
        }
    }
}

fn read_varint(r: &mut BitReader) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let field = r.read_bits(8)?;
        let group = field & 0x7f;
        // The tenth group lands at bit 63 and may carry that bit alone.
        if shift == 63 && group > 1 {
            return Err(varint_overflow());
        }
        out |= group << shift;
        if field >> 7 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::CorruptChunk("varint too long".into()));
        }
    }
}

/// The codec as first written — one field per call over cursors that
/// move one bit at a time — with the corrupt-window checks the fused
/// codec makes. The stream [`compress`] must write byte for byte, and
/// the samples or failure [`decompress`] must give on any stream.
#[cfg(test)]
mod reference {
    use super::{
        exhausted, varint_overflow, window_reused_before_set, window_too_wide, zigzag_decode,
        zigzag_encode, Bytes, CompressedBlock, Error, Result, Sample,
    };

    #[derive(Debug, Default)]
    pub(super) struct BitWriter {
        buf: Vec<u8>,
        /// Bits already used in the final byte (0..=7). 0 means the last
        /// byte is full (or the buffer is empty).
        used: u8,
    }

    impl BitWriter {
        pub(super) fn write_bit(&mut self, bit: bool) {
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

        pub(super) fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        pub(super) fn finish(self) -> Bytes {
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

        pub(super) fn read_bit(&mut self) -> Result<bool> {
            let byte = self.pos / 8;
            if byte >= self.buf.len() {
                return Err(exhausted());
            }
            let offset = 7 - (self.pos % 8) as u8;
            self.pos += 1;
            Ok((self.buf[byte] >> offset) & 1 == 1)
        }

        pub(super) fn read_bits(&mut self, count: u32) -> Result<u64> {
            let mut out = 0u64;
            for _ in 0..count {
                out = (out << 1) | u64::from(self.read_bit()?);
            }
            Ok(out)
        }
    }

    pub(super) fn encode(samples: &[Sample]) -> CompressedBlock {
        let mut w = BitWriter::default();
        let mut prev_ts = 0i64;
        let mut prev_delta = 0i64;
        let mut prev_bits = 0u64;
        let mut prev_leading = 255u32; // 255 => no previous window
        let mut prev_len = 0u32;

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
                    let leading = xor.leading_zeros().min(31);
                    let trailing = xor.trailing_zeros();
                    let len = 64 - leading - trailing;
                    if prev_leading != 255
                        && leading >= prev_leading
                        && trailing >= 64 - prev_leading - prev_len
                    {
                        w.write_bit(false);
                        w.write_bits(xor >> (64 - prev_leading - prev_len), prev_len);
                    } else {
                        w.write_bit(true);
                        w.write_bits(u64::from(leading), 5);
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

    pub(super) fn decode(block: &CompressedBlock) -> Result<Vec<Sample>> {
        let mut r = BitReader::new(&block.bits);
        let mut out = Vec::new();
        let mut prev_ts = 0i64;
        let mut prev_delta = 0i64;
        let mut prev_bits = 0u64;
        let mut prev_leading = 0u32;
        let mut prev_len = 0u32; // 0 => no previous window

        for i in 0..block.count {
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
                if prev_len == 0 {
                    return Err(window_reused_before_set());
                }
                let meaningful = r.read_bits(prev_len)?;
                prev_bits ^ (meaningful << (64 - prev_leading - prev_len))
            } else {
                let leading = r.read_bits(5)? as u32;
                let len = r.read_bits(6)? as u32 + 1;
                if leading + len > 64 {
                    return Err(window_too_wide());
                }
                let meaningful = r.read_bits(len)?;
                prev_leading = leading;
                prev_len = len;
                prev_bits ^ (meaningful << (64 - leading - len))
            };
            prev_bits = bits;
            out.push(Sample {
                ts,
                value: f64::from_bits(bits),
            });
        }
        Ok(out)
    }

    fn write_varint(w: &mut BitWriter, mut v: u64) {
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

    fn read_varint(r: &mut BitReader) -> Result<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let more = r.read_bit()?;
            let group = r.read_bits(7)?;
            if shift == 63 && group > 1 {
                return Err(varint_overflow());
            }
            out |= group << shift;
            if !more {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(Error::CorruptChunk("varint too long".into()));
            }
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
            fields in prop::collection::vec((0u32..65, any::<u64>()), 0..200),
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
            prop_assert_eq!(&block, &reference::encode(&samples));
            prop_assert_eq!(bits_of(&decompress(&block).unwrap()), bits_of(&samples));
            prop_assert_eq!(bits_of(&reference::decode(&block).unwrap()), bits_of(&samples));
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
                    let want = reference::decode(&truncated);
                    prop_assert_eq!(got.is_err(), want.is_err(), "cut {} count {}", cut, count);
                    if let (Ok(got), Ok(want)) = (got, want) {
                        prop_assert_eq!(bits_of(&got), bits_of(&want));
                    }
                }
            }
        }

        /// Any stream, however crafted, decodes to the reference's samples
        /// or fails where it fails, as `CorruptChunk` — never a panic.
        #[test]
        fn any_stream_decodes_like_the_reference(
            count in prop_oneof![0u32..300, any::<u32>()],
            bytes in prop::collection::vec(any::<u8>(), 0..160),
        ) {
            let block = CompressedBlock { count, bits: Bytes::from(bytes) };
            match (decompress(&block), reference::decode(&block)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(bits_of(&got), bits_of(&want)),
                (Err(Error::CorruptChunk(_)), Err(Error::CorruptChunk(_))) => {}
                (got, want) => prop_assert!(false, "got {:?}, want {:?}", got, want),
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

    /// Values whose XOR windows are wider than one peek holds, and a
    /// timestamp jitter that puts a non-zero delta-of-delta between every
    /// few samples: the fused codec writes the reference's bytes and
    /// reads them back as it does, across the peek/field-read boundary.
    #[test]
    fn wide_windows_and_jittered_timestamps_match_the_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<Sample> = (0..600i64)
            .map(|i| {
                let jitter = if i % 3 == 0 {
                    (next() % 5_000) as i64
                } else {
                    0
                };
                let value = match i % 4 {
                    0 => f64::from_bits(next()),
                    1 => 1e6 + (i % 7) as f64,
                    2 => f64::from_bits(next() | 1),
                    _ => 1e6,
                };
                Sample::new(1_700_000_000_000 + i * 60_000 + jitter, value)
            })
            .collect();
        let block = compress(&samples);
        assert_eq!(block, reference::encode(&samples));
        assert_eq!(bits_of(&decompress(&block).unwrap()), bits_of(&samples));
        assert_eq!(
            bits_of(&reference::decode(&block).unwrap()),
            bits_of(&samples)
        );
    }

    #[test]
    fn decompress_into_appends() {
        let samples: Vec<Sample> = (0..50).map(|i| Sample::new(i * 60_000, i as f64)).collect();
        let first = Sample::new(-1, 42.0);
        let mut out = vec![first];
        decompress_into(&compress(&samples), &mut out).unwrap();
        assert_eq!(out.len(), 51);
        assert_eq!(bits_of(&out[..1]), bits_of(&[first]));
        assert_eq!(bits_of(&out[1..]), bits_of(&samples));
    }

    /// A zero first sample, then `value` as the value field of the second
    /// sample (read field by field) or of a third (whose delta-of-delta
    /// is zero, so the decoder peeks it first).
    fn crafted_blocks(value: &[(u64, u32)]) -> [CompressedBlock; 2] {
        [2, 3].map(|count| {
            let mut w = BitWriter::default();
            w.write_bits(0, 64);
            w.write_bits(0, 64);
            w.write_bits(0, 8);
            if count == 3 {
                // The second value repeats; the third delta-of-delta is 0.
                w.write_bits(0b00, 2);
            }
            for &(bits, count) in value {
                w.write_bits(bits, count);
            }
            CompressedBlock {
                count,
                bits: w.finish(),
            }
        })
    }

    #[test]
    fn a_window_reused_before_one_is_set_is_corrupt() {
        for block in crafted_blocks(&[(0b10, 2), (u64::MAX, 64)]) {
            assert!(matches!(decompress(&block), Err(Error::CorruptChunk(_))));
            assert!(matches!(
                reference::decode(&block),
                Err(Error::CorruptChunk(_))
            ));
        }
    }

    #[test]
    fn a_window_wider_than_64_bits_is_corrupt() {
        // 31 leading zeros and a 64-bit length.
        for block in crafted_blocks(&[(0b11, 2), (31, 5), (63, 6), (u64::MAX, 64)]) {
            assert!(matches!(decompress(&block), Err(Error::CorruptChunk(_))));
            assert!(matches!(
                reference::decode(&block),
                Err(Error::CorruptChunk(_))
            ));
        }
        // 31 leading zeros and 34 bits fit a peek but not a word.
        for block in crafted_blocks(&[(0b11, 2), (31, 5), (33, 6), (u64::MAX, 64)]) {
            assert!(matches!(decompress(&block), Err(Error::CorruptChunk(_))));
        }
    }

    #[test]
    fn a_first_delta_wider_than_64_bits_is_corrupt() {
        // Nine full varint groups put the tenth at bit 63, which holds
        // one bit: a tenth group of 1 is the widest delta, 2 overflows.
        let block = |tenth: u64| {
            let mut w = BitWriter::default();
            w.write_bits(0, 64);
            w.write_bits(0, 64);
            for _ in 0..9 {
                w.write_bits(0xff, 8);
            }
            w.write_bits(tenth, 8);
            w.write_bits(0, 1);
            CompressedBlock {
                count: 2,
                bits: w.finish(),
            }
        };
        let widest = decompress(&block(1)).unwrap();
        assert_eq!(widest[1].ts, zigzag_decode(u64::MAX));
        assert_eq!(
            bits_of(&reference::decode(&block(1)).unwrap()),
            bits_of(&widest)
        );
        assert!(matches!(decompress(&block(2)), Err(Error::CorruptChunk(_))));
        assert!(matches!(
            reference::decode(&block(2)),
            Err(Error::CorruptChunk(_))
        ));
    }

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
        w.write_bits(1, 1);
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
