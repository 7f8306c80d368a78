//! The workspace's hasher for maps keyed by simulation ids.
//!
//! The engine's per-delivery bookkeeping — identity lookups, link
//! statistics, the reception dedup sets, per-receiver defense state — is
//! keyed by integers the simulation assigns itself: [`NodeId`]s,
//! principal ids, vehicle indices, frame slots and payload allocation
//! addresses. std's default SipHash is built to resist hash flooding by
//! chosen keys, which none of these are, and it dominated the lookups of a
//! corridor tick's ~8300 deliveries. [`IntHasher`] replaces it there with
//! one folded 64×64→128-bit multiply per word.
//!
//! Maps keyed by content that an outside party shapes — payload bytes,
//! request strings, cache keys — keep std's `RandomState`.
//!
//! [`NodeId`]: crate::message::NodeId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for integer keys: one folded 64×64→128-bit multiply per word
/// instead of SipHash. Not keyed, so only for keys no outside party
/// chooses.
#[derive(Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        let full = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
}

/// `HashMap` over integer keys with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// `HashSet` over integer keys with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::NodeId;
    use platoon_crypto::cert::PrincipalId;
    use std::hash::{BuildHasher, Hash};

    const KEYS: u64 = 1 << 16;

    /// (share of distinct low-16-bit buckets, distinct top-7-bit tags)
    /// over `KEYS` keys. A uniformly random hash fills 1 - 1/e ≈ 63% of
    /// the buckets and all 128 tags.
    fn spread<K: Hash>(key: impl Fn(u64) -> K) -> (f64, usize) {
        let build = BuildHasherDefault::<IntHasher>::default();
        let mut buckets = vec![false; 1 << 16];
        let mut tags = [false; 128];
        for i in 0..KEYS {
            let h = build.hash_one(key(i));
            buckets[(h & 0xFFFF) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        let distinct = buckets.iter().filter(|&&b| b).count();
        let tags = tags.iter().filter(|&&t| t).count();
        (distinct as f64 / KEYS as f64, tags)
    }

    #[test]
    fn sequential_keys_spread_like_a_random_hash() {
        // Sequential ids, and id pairs on a 256 × 256 grid, the way the
        // simulation assigns them. hashbrown picks the bucket from the low
        // bits and the control tag from the top 7.
        let shapes: [(&str, (f64, usize)); 4] = [
            ("NodeId", spread(NodeId)),
            (
                "(NodeId, NodeId)",
                spread(|i| (NodeId(i >> 8), NodeId(i & 0xFF))),
            ),
            (
                "(usize, u32)",
                spread(|i| ((i >> 8) as usize, (i & 0xFF) as u32)),
            ),
            ("PrincipalId", spread(PrincipalId)),
        ];
        for (shape, (buckets, tags)) in shapes {
            assert!(
                buckets >= 0.55,
                "{shape}: {buckets:.3} of low-16-bit buckets distinct"
            );
            assert!(tags >= 120, "{shape}: {tags} of 128 top-7-bit tags used");
        }
    }

    #[test]
    fn int_maps_and_sets_behave_like_std() {
        let mut set: IntSet<(usize, u32)> = IntSet::default();
        assert!(set.insert((3, 7)));
        assert!(!set.insert((3, 7)));
        assert!(set.insert((7, 3)));
        assert_eq!(set.len(), 2);
        let mut map: IntMap<NodeId, u64> = IntMap::default();
        *map.entry(NodeId(5)).or_insert(0) += 2;
        *map.entry(NodeId(5)).or_insert(0) += 1;
        assert_eq!(map.get(&NodeId(5)), Some(&3));
        assert_eq!(map.get(&NodeId(6)), None);
    }
}
