//! A fast, allocation-free hasher for the small fixed-size protocol keys
//! (transaction keys `(ClientId, u64)`, sequence numbers) that dominate the
//! replication hot path.
//!
//! Every committed transaction passes through several hash-set operations
//! per replica (proposal dedup, double-assign cross-checks, committed-key
//! bookkeeping). With the standard library's SipHash those operations cost
//! more than the consensus arithmetic around them; this FxHash-style
//! multiply-rotate mix is 4–6× cheaper on 8-byte writes and exists for
//! exactly these word-sized keys.
//!
//! **Trade-off, stated plainly:** the mix is not DoS-resistant — a client
//! crafting transaction timestamps could manufacture collisions and degrade
//! a set to linear probing. That is a liveness nuisance bounded by the
//! per-client proposal rate (and by `batch_size` per scan), not a safety
//! issue: all *cryptographic* commitments (digests, signatures, QCs) use
//! SHA-256 throughout. A deployment fronting truly adversarial clients
//! should fold a boot-time random seed into [`KeyHasher::default`]. In
//! [`TxKeySet`] the hashed part is per client, so colliding timestamps
//! degrade only the crafting client's own sparse set.

use crate::ids::ClientId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (same constant FxHash and many mixers use).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher state: one 64-bit accumulator, mixed word-at-a-time.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher {
    hash: u64,
}

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so low-entropy keys spread across buckets.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for compound keys: consume 8-byte words, then the
        // zero-padded tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("sized")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`KeyHasher`].
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// A `HashSet` keyed by small protocol keys, using the fast mixer.
pub type KeySet<K> = HashSet<K, BuildKeyHasher>;

/// A `HashMap` keyed by small protocol keys, using the fast mixer.
pub type KeyMap<K, V> = HashMap<K, V, BuildKeyHasher>;

/// An exact set of transaction keys `(ClientId, timestamp)`, stored per
/// client as a contiguous watermark plus the sparse members beyond it.
///
/// Clients number their transactions densely from 1, so almost every key
/// lands on its client's watermark and costs one map lookup and a compare;
/// only the reorder window (pipelined bundles overtaking each other) is
/// held individually. Memory is O(clients + reorder window) instead of one
/// entry per transaction ever seen. Nothing is forgotten: the set answers
/// exactly as a `HashSet<(ClientId, u64)>` holding the same inserts would.
///
/// The residual cost sits with keys that never become contiguous — a
/// client with sparse timestamps, or a replica that only saw keys above a
/// checkpoint it was restored from — which stay in the sparse part at one
/// hashed `u64` each.
#[derive(Debug, Default, Clone)]
pub struct TxKeySet {
    clients: KeyMap<ClientId, ClientSeen>,
}

/// One client's share of a [`TxKeySet`].
#[derive(Debug, Default, Clone)]
struct ClientSeen {
    /// Every timestamp in `1..=low` is a member.
    low: u64,
    /// The members `low` does not cover: timestamps above it, and `0`.
    sparse: KeySet<u64>,
}

impl TxKeySet {
    /// Adds `key`; returns whether it was new.
    pub fn insert(&mut self, (client, ts): (ClientId, u64)) -> bool {
        let seen = self.clients.entry(client).or_default();
        if ts == 0 || ts > seen.low.saturating_add(1) {
            return seen.sparse.insert(ts);
        }
        if ts <= seen.low {
            return false;
        }
        seen.low = ts;
        // Drain the members the advance made contiguous.
        while !seen.sparse.is_empty() {
            match seen.low.checked_add(1) {
                Some(next) if seen.sparse.remove(&next) => seen.low = next,
                _ => break,
            }
        }
        true
    }

    /// Whether `key` was ever inserted.
    pub fn contains(&self, &(client, ts): &(ClientId, u64)) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|seen| (ts != 0 && ts <= seen.low) || seen.sparse.contains(&ts))
    }

    /// How many members are held individually rather than under a
    /// watermark: the set's memory beyond one entry per client.
    pub fn sparse_len(&self) -> usize {
        self.clients.values().map(|seen| seen.sparse.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<K: std::hash::Hash>(key: &K) -> u64 {
        use std::hash::BuildHasher;
        BuildKeyHasher::default().hash_one(key)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = (ClientId(1), 42u64);
        let b = (ClientId(1), 43u64);
        let c = (ClientId(2), 42u64);
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));
    }

    #[test]
    fn sequential_keys_spread() {
        // Transaction timestamps are sequential per client; the avalanche
        // must spread them across the full bucket range, or every set
        // degenerates into a handful of chains.
        let mut low_bits = KeySet::<u64>::default();
        for ts in 0..1024u64 {
            low_bits.insert(hash_of(&(ClientId(7), ts)) & 0x3FF);
        }
        assert!(
            low_bits.len() > 600,
            "only {} distinct low-10-bit values over 1024 sequential keys",
            low_bits.len()
        );
    }

    #[test]
    fn generic_write_matches_wordwise_padding() {
        let mut a = KeyHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = KeyHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn set_and_map_aliases_work() {
        let mut set: KeySet<(ClientId, u64)> = KeySet::default();
        assert!(set.insert((ClientId(1), 1)));
        assert!(!set.insert((ClientId(1), 1)));
        let mut map: KeyMap<u64, u32> = KeyMap::default();
        map.insert(9, 3);
        assert_eq!(map.get(&9), Some(&3));
    }

    /// splitmix64: a seeded stream for the randomized tests below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(SEED);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    #[test]
    fn tx_key_set_agrees_with_a_hash_set() {
        for seed in 0..200u64 {
            let mut rng = Mix(seed);
            // Each client's dense run 1..=n, plus keys that never become
            // contiguous: 0, the top of the range, and a few sparse values.
            let mut stream = Vec::new();
            for c in 0..1 + rng.below(4) {
                let client = ClientId(c);
                let n = rng.below(300);
                stream.extend((1..=n).map(|ts| (client, ts)));
                stream.push((client, 0));
                stream.push((client, u64::MAX));
                stream.push((client, u64::MAX - 1));
                for _ in 0..rng.below(4) {
                    stream.push((client, n + 2 + rng.below(1_000)));
                }
            }
            // Deliver in shuffled reorder windows of random width.
            let mut at = 0;
            while at < stream.len() {
                let width = 1 + rng.below(64) as usize;
                let end = (at + width).min(stream.len());
                rng.shuffle(&mut stream[at..end]);
                at = end;
            }
            let mut set = TxKeySet::default();
            let mut reference: HashSet<(ClientId, u64)> = HashSet::new();
            for (i, &key) in stream.iter().enumerate() {
                assert_eq!(
                    set.insert(key),
                    reference.insert(key),
                    "seed {seed}: {key:?}"
                );
                // Duplicates of earlier keys.
                if rng.below(4) == 0 {
                    let dup = stream[rng.below(i as u64 + 1) as usize];
                    assert_eq!(
                        set.insert(dup),
                        reference.insert(dup),
                        "seed {seed}: {dup:?}"
                    );
                }
                // Membership of keys inserted or not, near and far.
                let probe = stream[rng.below(stream.len() as u64) as usize];
                let near = (ClientId(rng.below(5)), key.1.wrapping_add(rng.below(3)));
                for q in [key, probe, near] {
                    assert_eq!(
                        set.contains(&q),
                        reference.contains(&q),
                        "seed {seed}: {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tx_key_set_watermark_reaches_the_top_of_the_range() {
        let mut set = TxKeySet::default();
        let client = ClientId(3);
        set.insert((client, 1));
        set.clients.get_mut(&client).unwrap().low = u64::MAX - 3;
        assert!(set.insert((client, u64::MAX)));
        assert!(set.insert((client, u64::MAX - 1)));
        assert!(set.insert((client, u64::MAX - 2)));
        assert_eq!(set.clients[&client].low, u64::MAX);
        assert_eq!(set.sparse_len(), 0);
        assert!(!set.insert((client, u64::MAX)));
        assert!(set.contains(&(client, u64::MAX)));
        assert!(!set.contains(&(client, 0)));
    }

    #[test]
    fn tx_key_set_holds_at_most_one_reorder_window() {
        const KEYS: u64 = 1_000_000;
        const WINDOW: u64 = 2_000;
        let mut rng = Mix(11);
        let client = ClientId(9);
        let mut set = TxKeySet::default();
        let mut window: Vec<u64> = Vec::with_capacity(WINDOW as usize);
        for start in (1..=KEYS).step_by(WINDOW as usize) {
            window.clear();
            window.extend(start..(start + WINDOW).min(KEYS + 1));
            rng.shuffle(&mut window);
            for &ts in &window {
                assert!(set.insert((client, ts)));
                assert!(set.sparse_len() < WINDOW as usize);
            }
            // A completed window always folds into the watermark.
            assert_eq!(set.sparse_len(), 0);
        }
        assert!(set.contains(&(client, KEYS)));
        assert!(!set.contains(&(client, KEYS + 1)));
    }
}
