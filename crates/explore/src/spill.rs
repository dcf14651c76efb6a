//! Delta-compressed sorted key runs: the on-disk (and in-memory) format of
//! the cold tier of the visited store.
//!
//! A *run* is a strictly ascending sequence of dedup [`Key`]s encoded in
//! blocks of [`KEYS_PER_BLOCK`]. Each block opens with its first key in
//! absolute form and continues with per-key deltas: the 128-bit fingerprint
//! lead is varint-encoded as the difference from the previous key (sorted
//! runs make these small), and the three trailing words (sleep set, bound
//! word, oracle context) are varint-encoded XORed against their
//! predecessors (they repeat heavily across neighboring states, so the XOR
//! is usually a one-byte zero). Blocks decode independently, so a membership
//! probe touches exactly one block.
//!
//! Probing is a three-stage funnel:
//!
//! 1. a [`Prefilter`] (three-probe Bloom-style bitset over the whole key)
//!    rejects most absent keys without touching the fences or the backing
//!    bytes at all — including keys that share a stored key's fingerprint
//!    under another sleep set, bound word or context;
//! 2. in-memory *fence pointers* ([`Fence`]: first key + byte extent per
//!    block) binary-search to the single candidate block;
//! 3. the block is decoded (from an in-memory slice or one positioned file
//!    read) and scanned with early exit on the sorted order. The 128-bit
//!    fingerprint varints decode a word at a time: three 8-byte
//!    little-endian loads, with the 7-bit groups packed by mask and shift.
//!
//! The encoding is exact — membership answers have no false positives or
//! negatives — so the visited-set *semantics* are identical with or without
//! spilling; only the byte location of the keys changes. That is the whole
//! determinism argument: tiering moves keys, never answers.
//!
//! Every decoder is total: a buffer that ends inside a varint, a varint
//! longer than its type, or a fingerprint delta that overflows is reported
//! as [`Corrupt`], never an out-of-bounds index or a panic.

use std::fmt;

/// A dedup key: the 128-bit state fingerprint followed by the sleep set,
/// the preemption-bound word, and the oracle order-witness context (see
/// `explorer.rs` for the semantics of each word). Ordered
/// fingerprint-first, which keeps deltas small in sorted runs.
pub type Key = (u128, u64, u64, u64);

/// Logical size of a key in bytes (16 + 3 × 8).
pub const KEY_BYTES: usize = 40;

/// Keys per encoded block. Each block decodes independently from its fence.
pub const KEYS_PER_BLOCK: usize = 256;

/// Spill bytes that do not decode: the buffer ends inside a varint, a
/// varint is longer than its type (10 bytes for `u64`, 19 for `u128`) or
/// sets bits past its width, a fingerprint delta overflows, or a block's
/// keys do not fill its extent exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corrupt;

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("corrupt spill data: truncated buffer or malformed varint")
    }
}

impl std::error::Error for Corrupt {}

impl From<Corrupt> for std::io::Error {
    fn from(e: Corrupt) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn push_varint128(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Byte-at-a-time LEB128 decode of a value of `width` bits (64 or 128):
/// every index is checked, and a varint that runs off the end of `buf`,
/// has more than `ceil(width / 7)` bytes, or sets a bit at or past `width`
/// is [`Corrupt`].
fn read_varint_bytes(buf: &[u8], pos: &mut usize, width: u32) -> Result<u128, Corrupt> {
    let rest = buf.get(*pos..).unwrap_or_default();
    let mut v = 0u128;
    for (i, &b) in rest.iter().take(width.div_ceil(7) as usize).enumerate() {
        let shift = 7 * i as u32;
        let bits = u128::from(b & 0x7f);
        // Only the last byte can hold bits past the width.
        if bits >> (width - shift).min(7) != 0 {
            return Err(Corrupt);
        }
        v |= bits << shift;
        if b < 0x80 {
            *pos += i + 1;
            return Ok(v);
        }
    }
    Err(Corrupt)
}

pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, Corrupt> {
    // The tail words of a key are almost always one-byte XOR deltas.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    read_varint_bytes(buf, pos, 64).map(|v| v as u64)
}

/// The continuation bit of every byte of a little-endian word.
const CONT: u64 = 0x8080_8080_8080_8080;

/// Packs the 7-bit groups of up to eight varint bytes, loaded as one
/// little-endian word with the continuation bits cleared, into the low 56
/// bits: byte `i`'s group lands at bit `7 * i`.
#[inline(always)]
fn pack7(x: u64) -> u64 {
    let x = (x & 0x007f_007f_007f_007f) | (x & 0x7f00_7f00_7f00_7f00) >> 1;
    let x = (x & 0x0000_3fff_0000_3fff) | (x & 0x3fff_0000_3fff_0000) >> 2;
    (x & 0x0000_0000_0fff_ffff) | (x & 0x0fff_ffff_0000_0000) >> 4
}

/// The bytes of `w` up to and including its first terminator byte, with
/// the continuation bits cleared; `stop` is `!w & CONT` (non-zero).
#[inline(always)]
fn groups_to_stop(w: u64, stop: u64) -> u64 {
    w & (stop ^ (stop - 1)) & !CONT
}

/// Decodes one 128-bit varint. With 24 bytes left in `buf` this takes
/// three 8-byte loads and finds the terminator with a mask per word; the
/// last 24 bytes of a buffer go through the checked byte loop. Both paths
/// accept and reject exactly the same inputs.
fn read_varint128(buf: &[u8], pos: &mut usize) -> Result<u128, Corrupt> {
    let p = *pos;
    let Some(bytes) = buf.get(p..).and_then(<[u8]>::first_chunk::<24>) else {
        return read_varint_bytes(buf, pos, 128);
    };
    let word = |i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    let w0 = word(0);
    let stop = !w0 & CONT;
    if stop != 0 {
        *pos = p + (stop.trailing_zeros() / 8 + 1) as usize;
        return Ok(u128::from(pack7(groups_to_stop(w0, stop))));
    }
    let lo = u128::from(pack7(w0 & !CONT));
    let w1 = word(1);
    let stop = !w1 & CONT;
    if stop != 0 {
        *pos = p + 8 + (stop.trailing_zeros() / 8 + 1) as usize;
        return Ok(lo | u128::from(pack7(groups_to_stop(w1, stop))) << 56);
    }
    // A u128 takes at most 19 bytes, so the terminator must be among the
    // third word's first three bytes, whose groups hold bits 112..128.
    let w2 = word(2);
    let stop = !w2 & 0x0080_8080;
    if stop == 0 {
        return Err(Corrupt);
    }
    let hi = pack7(groups_to_stop(w2, stop));
    if hi >> 16 != 0 {
        return Err(Corrupt);
    }
    *pos = p + 16 + (stop.trailing_zeros() / 8 + 1) as usize;
    Ok(lo | u128::from(pack7(w1 & !CONT)) << 56 | u128::from(hi) << 112)
}

/// In-memory index entry for one encoded block: its first key (absolute)
/// and the block's byte extent within the run.
#[derive(Clone, Debug)]
pub struct Fence {
    /// First key of the block (also the block's decode seed).
    pub first: Key,
    /// Byte offset of the block within the run stream.
    pub offset: u64,
    /// Encoded length of the block in bytes.
    pub len: u32,
    /// Number of keys in the block (≤ [`KEYS_PER_BLOCK`]).
    pub count: u32,
}

/// Streaming encoder: push strictly ascending keys, drain encoded bytes at
/// any point (the fences carry absolute offsets, so a run can be written to
/// a file incrementally without buffering the whole stream).
pub struct RunEncoder {
    buf: Vec<u8>,
    drained: u64,
    fences: Vec<Fence>,
    count: u64,
    in_block: u32,
    block_offset: u64,
    prev: Key,
    last: Option<Key>,
}

impl Default for RunEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunEncoder {
    /// A fresh encoder with no keys.
    #[must_use]
    pub fn new() -> Self {
        RunEncoder {
            buf: Vec::new(),
            drained: 0,
            fences: Vec::new(),
            count: 0,
            in_block: 0,
            block_offset: 0,
            prev: (0, 0, 0, 0),
            last: None,
        }
    }

    fn abs_offset(&self) -> u64 {
        self.drained + self.buf.len() as u64
    }

    fn end_block(&mut self) {
        if self.in_block == 0 {
            return;
        }
        let len = (self.abs_offset() - self.block_offset) as u32;
        let f = self.fences.last_mut().expect("open block has a fence");
        f.len = len;
        f.count = self.in_block;
        self.in_block = 0;
    }

    /// Appends `key`, which must be strictly greater than every key pushed
    /// so far.
    pub fn push(&mut self, key: Key) {
        assert!(
            self.last.is_none_or(|l| l < key),
            "run keys must be strictly ascending"
        );
        if self.in_block as usize == KEYS_PER_BLOCK {
            self.end_block();
        }
        if self.in_block == 0 {
            self.block_offset = self.abs_offset();
            self.fences.push(Fence {
                first: key,
                offset: self.block_offset,
                len: 0,
                count: 0,
            });
            push_varint128(&mut self.buf, key.0);
            push_varint(&mut self.buf, key.1);
            push_varint(&mut self.buf, key.2);
            push_varint(&mut self.buf, key.3);
        } else {
            push_varint128(&mut self.buf, key.0 - self.prev.0);
            push_varint(&mut self.buf, key.1 ^ self.prev.1);
            push_varint(&mut self.buf, key.2 ^ self.prev.2);
            push_varint(&mut self.buf, key.3 ^ self.prev.3);
        }
        self.prev = key;
        self.last = Some(key);
        self.in_block += 1;
        self.count += 1;
    }

    /// Takes the encoded bytes accumulated since the last drain (for
    /// incremental file writes). Fence offsets remain valid: they are
    /// absolute within the concatenation of every drained chunk.
    pub fn drain(&mut self) -> Vec<u8> {
        self.drained += self.buf.len() as u64;
        std::mem::take(&mut self.buf)
    }

    /// Bytes currently buffered (not yet drained).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Closes the final block and returns `(remaining bytes, fences, key
    /// count, total encoded bytes)`.
    #[must_use]
    pub fn finish(mut self) -> (Vec<u8>, Vec<Fence>, u64, u64) {
        self.end_block();
        let total = self.abs_offset();
        (self.buf, self.fences, self.count, total)
    }
}

/// Decodes the next key of a block. A block's first key is stored in
/// absolute form, which is its delta from the all-zero key.
#[inline(always)]
fn next_key(block: &[u8], pos: &mut usize, prev: &Key) -> Result<Key, Corrupt> {
    Ok((
        prev.0
            .checked_add(read_varint128(block, pos)?)
            .ok_or(Corrupt)?,
        prev.1 ^ read_varint(block, pos)?,
        prev.2 ^ read_varint(block, pos)?,
        prev.3 ^ read_varint(block, pos)?,
    ))
}

/// Decodes the block `block` (its fence said it holds `count` keys) and
/// appends the keys to `out`. On [`Corrupt`] the keys decoded before the
/// damage stay appended.
pub fn try_decode_block_into(block: &[u8], count: u32, out: &mut Vec<Key>) -> Result<(), Corrupt> {
    let mut pos = 0usize;
    let mut prev: Key = (0, 0, 0, 0);
    for _ in 0..count {
        prev = next_key(block, &mut pos, &prev)?;
        out.push(prev);
    }
    if pos == block.len() {
        Ok(())
    } else {
        Err(Corrupt)
    }
}

/// [`try_decode_block_into`] for a block this process encoded and still
/// holds in memory.
///
/// # Panics
///
/// If the block is [`Corrupt`]; bytes read back from a file go through
/// [`try_decode_block_into`].
pub fn decode_block_into(block: &[u8], count: u32, out: &mut Vec<Key>) {
    try_decode_block_into(block, count, out).expect("an in-memory block decodes");
}

/// Whether `key` occurs in the encoded block. Scans in sorted order with
/// early exit (keys ascend strictly within a block), so a damaged block
/// is [`Corrupt`] only if the scan reaches the damage; any answer it
/// gives comes from keys it decoded whole.
pub fn block_contains(block: &[u8], count: u32, key: &Key) -> Result<bool, Corrupt> {
    let mut pos = 0usize;
    let mut prev: Key = (0, 0, 0, 0);
    for _ in 0..count {
        prev = next_key(block, &mut pos, &prev)?;
        if prev >= *key {
            return Ok(prev == *key);
        }
    }
    Ok(false)
}

/// Index of the fence whose block could contain `key` (the last fence with
/// `first <= key`), or `None` when `key` sorts before the whole run.
#[must_use]
pub fn fence_for(fences: &[Fence], key: &Key) -> Option<usize> {
    let idx = fences.partition_point(|f| f.first <= *key);
    idx.checked_sub(1)
}

// ------------------------------------------------------------ prefilter ----

/// Three-probe Bloom-style membership prefilter over the whole key. No
/// false negatives: a clear probe proves absence, so most absent-key
/// lookups never touch the fences or the backing bytes. False positives
/// only cost a (still exact) block probe. Hashing all five words, not just
/// the fingerprint, is what rejects the keys DPOR makes most often: one
/// state reached under another sleep set, bound word or context.
#[derive(Clone, Debug)]
pub struct Prefilter {
    bits: Vec<u64>,
    /// `64 - log2(bit count)`: a probe is the top bits of a 64-bit mix.
    shift: u32,
}

impl Prefilter {
    /// A filter sized for about `n` keys: `8 n` bits rounded up to a power
    /// of two (so 8–16 bits per key), at least 512 bits.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let bits = (n.max(64) * 8).next_power_of_two();
        Prefilter {
            bits: vec![0u64; bits / 64],
            shift: 64 - bits.trailing_zeros(),
        }
    }

    fn probes(&self, key: &Key) -> [usize; 3] {
        // Fold the five words into one: the fingerprint halves are already
        // hash output, the tail words are small integers that the
        // multiply spreads. The three probes are the top bits of three
        // independent multiplicative mixes of the fold.
        let mut h = 0u64;
        for w in [key.0 as u64, (key.0 >> 64) as u64, key.1, key.2, key.3] {
            h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 32;
        }
        [
            0xC2B2_AE3D_27D4_EB4F_u64,
            0x1656_67B1_9E37_79F9,
            0xFF51_AFD7_ED55_8CCD,
        ]
        .map(|m| (h.wrapping_mul(m) >> self.shift) as usize)
    }

    /// Marks `key` present.
    pub fn insert(&mut self, key: &Key) {
        for b in self.probes(key) {
            self.bits[b / 64] |= 1 << (b % 64);
        }
    }

    /// `false` proves `key` was never inserted; `true` means "probe the
    /// run".
    #[must_use]
    pub fn maybe_contains(&self, key: &Key) -> bool {
        self.probes(key)
            .iter()
            .all(|&b| self.bits[b / 64] >> (b % 64) & 1 == 1)
    }

    /// Resident size of the bit array in bytes.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

// ------------------------------------------------- in-memory key set ----

/// An immutable, delta-compressed sorted key set held in memory: the same
/// block encoding as a disk run, fronted by the same fences and prefilter.
/// Used as the shared cross-bound *base* tier of [`crate::store::CarryBase`]
/// (many workers probe one `Arc`'d set concurrently).
pub struct CompressedKeySet {
    bytes: Vec<u8>,
    fences: Vec<Fence>,
    filter: Prefilter,
    count: u64,
}

impl CompressedKeySet {
    /// Builds the set from strictly ascending `keys`.
    #[must_use]
    pub fn from_sorted(keys: &[Key]) -> Self {
        let mut enc = RunEncoder::new();
        let mut filter = Prefilter::with_capacity(keys.len());
        for &k in keys {
            enc.push(k);
            filter.insert(&k);
        }
        let (bytes, fences, count, total) = enc.finish();
        debug_assert_eq!(bytes.len() as u64, total, "nothing drained");
        CompressedKeySet {
            bytes,
            fences,
            filter,
            count,
        }
    }

    /// Number of keys in the set.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact membership.
    #[must_use]
    pub fn contains(&self, key: &Key) -> bool {
        if !self.filter.maybe_contains(key) {
            return false;
        }
        let Some(fi) = fence_for(&self.fences, key) else {
            return false;
        };
        let f = &self.fences[fi];
        let start = f.offset as usize;
        block_contains(&self.bytes[start..start + f.len as usize], f.count, key)
            .expect("an in-memory block decodes")
    }

    /// Decodes every key, in ascending order, into `out`.
    pub fn decode_into(&self, out: &mut Vec<Key>) {
        for f in &self.fences {
            let start = f.offset as usize;
            decode_block_into(&self.bytes[start..start + f.len as usize], f.count, out);
        }
    }

    /// Resident size in bytes (encoded stream + fences + prefilter).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len()
            + self.fences.len() * std::mem::size_of::<Fence>()
            + self.filter.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64, stride: u128) -> Vec<Key> {
        (0..n)
            .map(|i| {
                (
                    u128::from(i) * stride + 7,
                    i % 5,
                    (i / 3) % 4,
                    i.wrapping_mul(0x9E37),
                )
            })
            .collect()
    }

    #[test]
    fn varints_round_trip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0u128, 127, 128, u128::from(u64::MAX) + 1, u128::MAX] {
            buf.clear();
            push_varint128(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint128(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encode_decode_round_trips_across_block_boundaries() {
        for n in [0u64, 1, 2, 255, 256, 257, 1000] {
            let ks = keys(n, 1 << 64);
            let set = CompressedKeySet::from_sorted(&ks);
            let mut out = Vec::new();
            set.decode_into(&mut out);
            assert_eq!(out, ks, "n={n}");
        }
    }

    #[test]
    fn membership_is_exact() {
        let ks = keys(700, 3);
        let set = CompressedKeySet::from_sorted(&ks);
        for k in &ks {
            assert!(set.contains(k));
        }
        for k in &ks {
            let absent = (k.0, k.1, k.2, k.3 ^ 1);
            assert!(!set.contains(&absent));
            let absent = (k.0 + 1, k.1, k.2, k.3);
            if ks.binary_search(&absent).is_err() {
                assert!(!set.contains(&absent));
            }
        }
        assert!(!set.contains(&(0, 0, 0, 0)), "before-the-run probe");
    }

    /// A splitmix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(1);
            shm_sim::rng::mix64(x)
        }
    }

    /// Byte-wise reference for `read_varint128`: one group at a time, every
    /// index checked, and any group bit shifted past 128 rejected.
    fn reference_varint128(buf: &[u8], pos: usize) -> Option<(u128, usize)> {
        let mut v = 0u128;
        for i in 0..19 {
            let b = *buf.get(pos + i)?;
            let group = u128::from(b & 0x7f);
            let shift = 7 * i as u32;
            if (group << shift) >> shift != group {
                return None;
            }
            v |= group << shift;
            if b < 0x80 {
                return Some((v, pos + i + 1));
            }
        }
        None
    }

    fn fast_varint128(buf: &[u8], pos: usize) -> Option<(u128, usize)> {
        let mut p = pos;
        read_varint128(buf, &mut p).ok().map(|v| (v, p))
    }

    #[test]
    fn word_at_a_time_varint128_matches_bytewise_reference() {
        const LEN: usize = 64;
        let mut rand = stream(0x7A21);
        for len in 1..=19usize {
            for end in LEN - 24..=LEN {
                let start = end - len;
                let mut buf: Vec<u8> = (0..LEN).map(|_| rand() as u8).collect();
                // A value whose encoding is exactly `len` bytes long.
                let bits = (7 * len).min(128);
                let r = u128::from(rand()) << 64 | u128::from(rand());
                let v = (r & (u128::MAX >> (128 - bits))) | 1 << (7 * (len - 1));
                let mut enc = Vec::new();
                push_varint128(&mut enc, v);
                assert_eq!(enc.len(), len);
                buf[start..end].copy_from_slice(&enc);
                let fast_path = start + 24 <= LEN;
                assert_eq!(
                    fast_varint128(&buf, start),
                    Some((v, end)),
                    "len {len} end {end} fast path {fast_path}"
                );
                assert_eq!(reference_varint128(&buf, start), Some((v, end)));
                // Clearing the terminator runs the varint into the filler
                // or off the end: both decoders must agree on the outcome.
                buf[end - 1] |= 0x80;
                assert_eq!(
                    fast_varint128(&buf, start),
                    reference_varint128(&buf, start),
                    "unterminated: len {len} end {end}"
                );
            }
        }
        // Random bytes at every start, 7 in 8 of them continuation bytes:
        // over-long runs, values past 128 bits, and truncations, on both
        // paths.
        for _ in 0..200 {
            let groups = [0x7f, 0x0f, 0x03][(rand() % 3) as usize];
            let buf: Vec<u8> = (0..LEN)
                .map(|_| {
                    let r = rand();
                    let cont = if r % 8 == 0 { 0 } else { 0x80 };
                    cont | (r >> 8) as u8 & groups
                })
                .collect();
            for start in 0..=LEN {
                assert_eq!(
                    fast_varint128(&buf, start),
                    reference_varint128(&buf, start),
                    "{buf:?} at {start}"
                );
            }
        }
    }

    #[test]
    fn varints_reject_overlong_and_overflowing_encodings() {
        let max128 = [&[0xff; 18][..], &[0x03]].concat();
        for (bytes, ok) in [
            (max128, true),
            ([&[0xff; 18][..], &[0x04]].concat(), false),
            ([&[0xff; 19][..], &[0x01]].concat(), false),
            (vec![0xff; 5], false),
            (Vec::new(), false),
        ] {
            // Unpadded input takes the byte loop, padded the word path.
            // Padding with continuation bytes keeps each outcome.
            for pad in [0, 24] {
                let buf = [&bytes[..], &vec![0xff; pad]].concat();
                let got = fast_varint128(&buf, 0);
                assert_eq!(got, reference_varint128(&buf, 0), "{buf:?}");
                assert_eq!(got, ok.then_some((u128::MAX, 19)), "{buf:?}");
            }
        }
        let mut max64 = vec![0xff; 9];
        max64.push(0x01);
        let mut pos = 0;
        assert_eq!(read_varint(&max64, &mut pos), Ok(u64::MAX));
        assert_eq!(pos, 10);
        for bad in [
            [&[0xff; 9][..], &[0x02]].concat(),
            [&[0xff; 10][..], &[0x00]].concat(),
            vec![0x80],
            Vec::new(),
        ] {
            assert_eq!(read_varint(&bad, &mut 0), Err(Corrupt), "{bad:?}");
        }
    }

    #[test]
    fn block_contains_matches_decode_and_linear_search() {
        let mut rand = stream(0xB10C);
        for case in 0..60 {
            // A few fingerprints shared by many keys, as DPOR produces:
            // one state under several sleep sets, bounds and contexts.
            let fps: Vec<u128> = (0..1 + rand() % 6)
                .map(|_| u128::from(rand()) << 64 | u128::from(rand()))
                .collect();
            let n = 1 + rand() as usize % KEYS_PER_BLOCK;
            let mut ks: Vec<Key> = (0..n)
                .map(|_| {
                    (
                        fps[rand() as usize % fps.len()],
                        rand() % 4,
                        rand() % 3,
                        rand() % 5,
                    )
                })
                .collect();
            ks.sort_unstable();
            ks.dedup();
            let mut enc = RunEncoder::new();
            for &k in &ks {
                enc.push(k);
            }
            let (bytes, fences, count, _) = enc.finish();
            assert_eq!((fences.len(), count), (1, ks.len() as u64), "case {case}");
            let mut decoded = Vec::new();
            try_decode_block_into(&bytes, fences[0].count, &mut decoded).expect("decodes");
            assert_eq!(decoded, ks, "case {case}");
            for &fp in &fps {
                for tail in 0..60 {
                    let probe = (fp, tail % 4, (tail / 4) % 3, tail / 12);
                    assert_eq!(
                        block_contains(&bytes, fences[0].count, &probe),
                        Ok(decoded.contains(&probe)),
                        "case {case}: {probe:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefilter_separates_tail_word_variants_of_one_fingerprint() {
        // Four stored variants per fingerprint; the absent variants share
        // the fingerprint, so a fingerprint-only filter says "maybe" for
        // every one of them.
        const FPS: u64 = 4096;
        let mut rand = stream(0xF117);
        let fps: Vec<u128> = (0..FPS)
            .map(|_| u128::from(rand()) << 64 | u128::from(rand()))
            .collect();
        let variant = |fp: u128, v: u64| (fp, v % 4, v / 4, v % 3);
        let mut filter = Prefilter::with_capacity(4 * FPS as usize);
        for &fp in &fps {
            for v in 0..4 {
                filter.insert(&variant(fp, v));
            }
        }
        let mut maybe = 0;
        for &fp in &fps {
            for v in 0..4 {
                assert!(filter.maybe_contains(&variant(fp, v)), "false negative");
            }
            maybe += (4..8)
                .filter(|&v| filter.maybe_contains(&variant(fp, v)))
                .count();
        }
        let rate = maybe as f64 / (4 * FPS) as f64;
        assert!(rate < 0.05, "false-positive rate {rate}");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn encoder_rejects_unsorted_input() {
        let mut enc = RunEncoder::new();
        enc.push((5, 0, 0, 0));
        enc.push((4, 0, 0, 0));
    }
}
