//! A fast, non-cryptographic hasher (FxHash) and hash-collection aliases.
//!
//! The engine hashes small integer keys (term ids, packed join keys) billions
//! of times during rank joins; SipHash's HashDoS resistance buys nothing on an
//! in-process analytical workload and costs real time. This is the same
//! multiply-xor scheme used by `rustc` (the `rustc-hash` crate), implemented
//! here to keep the workspace dependency-free.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash streaming hasher: `state = (state.rotl(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Convenience: hash one value with FxHash.
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over little-endian u64 *words* in eight interleaved lanes,
/// folded into one digest — the checksum the KG snapshot trailer uses,
/// where the hash runs over megabytes on the serve-restart path.
///
/// Unlike [`FxHasher`] (whose chunking strategy is an implementation detail
/// of the in-process hash maps), this is a fixed, portable function — the
/// right choice for an on-disk integrity check, whose value must be stable
/// across builds and platforms.
///
/// A single FNV chain is latency-bound: every word waits on the previous
/// multiply, capping throughput near one word per multiply *latency*. Eight
/// independent lanes (lane `i` consumes words `i`, `i+8`, `i+16`, …) keep
/// the multiplier pipeline full and run close to one word per *cycle* —
/// roughly the multiplier's latency/throughput ratio faster on large
/// buffers, which is what the snapshot trailer hashes on every load.
/// Trailing words past the last full 8-word group feed lanes round-robin
/// from lane 0, the final partial word is zero-padded, the eight lane
/// digests are folded through one more FNV chain and the total byte length
/// is mixed in last (so inputs differing only by trailing zero bytes still
/// hash apart). Every step is fixed little-endian arithmetic, so it does
/// not agree with the byte-wise FNV-1a chain.
pub fn fnv1a_64_lanes(bytes: &[u8]) -> u64 {
    const LANES: usize = 8;
    let mut lanes = [FNV64_OFFSET; LANES];
    let mut groups = bytes.chunks_exact(8 * LANES);
    for group in &mut groups {
        for (lane, c) in group.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(c.try_into().unwrap());
            lanes[lane] = (lanes[lane] ^ w).wrapping_mul(FNV64_PRIME);
        }
    }
    let rem = groups.remainder();
    let mut words = rem.chunks_exact(8);
    let mut lane = 0;
    for c in &mut words {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        lanes[lane] = (lanes[lane] ^ w).wrapping_mul(FNV64_PRIME);
        lane += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut t = [0u8; 8];
        t[..tail.len()].copy_from_slice(tail);
        lanes[lane] = (lanes[lane] ^ u64::from_le_bytes(t)).wrapping_mul(FNV64_PRIME);
    }
    let mut h = FNV64_OFFSET;
    for l in lanes {
        h = (h ^ l).wrapping_mul(FNV64_PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(FNV64_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_ne!(fx_hash_one(&42u64), fx_hash_one(&43u64));
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn set_dedup() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
    }

    #[test]
    fn byte_stream_matches_chunked_writes() {
        // write() must consume 8-byte, 4-byte then single-byte chunks; verify
        // different split points of the same logical stream do not collide for
        // a few samples (sanity, not a cryptographic claim).
        let a = fx_hash_one(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]);
        let b = fx_hash_one(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10][..]);
        assert_ne!(a, b);
    }

    #[test]
    fn fnv1a_64_lanes_is_stable_and_sensitive() {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // Hand-computed empty digest: eight untouched lanes folded, then the
        // zero length mixed in — pins the fold order and the length mix.
        let mut h = OFFSET;
        for _ in 0..8 {
            h = (h ^ OFFSET).wrapping_mul(PRIME);
        }
        assert_eq!(fnv1a_64_lanes(b""), h.wrapping_mul(PRIME));
        // One word lands entirely in lane 0.
        let w = u64::from_le_bytes(*b"abcdefgh");
        let mut h = OFFSET;
        h = (h ^ (OFFSET ^ w).wrapping_mul(PRIME)).wrapping_mul(PRIME);
        for _ in 0..7 {
            h = (h ^ OFFSET).wrapping_mul(PRIME);
        }
        assert_eq!(fnv1a_64_lanes(b"abcdefgh"), (h ^ 8).wrapping_mul(PRIME));
    }

    #[test]
    fn fnv1a_64_lanes_every_position_matters() {
        // Flip one byte at every offset of a buffer spanning full groups,
        // a round-robin tail and a padded partial word (8*16 + 13 bytes) —
        // each flip must change the digest, and trailing-zero extension must
        // hash apart (the length mix).
        let base: Vec<u8> = (0..(8 * 16 + 13)).map(|i| (i * 37 + 11) as u8).collect();
        let digest = fnv1a_64_lanes(&base);
        for i in 0..base.len() {
            let mut tweaked = base.clone();
            tweaked[i] ^= 0x40;
            assert_ne!(fnv1a_64_lanes(&tweaked), digest, "byte {i} ignored");
        }
        let mut extended = base.clone();
        extended.push(0);
        assert_ne!(fnv1a_64_lanes(&extended), digest);
    }

    #[test]
    fn distribution_smoke() {
        // Consecutive integers should not collapse to few buckets mod 1024.
        let mut buckets = [0u32; 1024];
        for i in 0..100_000u64 {
            buckets[(fx_hash_one(&i) % 1024) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        // Perfectly uniform would be ~97.6 per bucket; allow generous slack.
        assert!(max < 200, "max bucket {max}");
        assert!(min > 20, "min bucket {min}");
    }
}
