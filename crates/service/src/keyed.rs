//! Key-multiplexing for [`Sequential`] objects: one shard's universal
//! log hosts many independent object instances, addressed by key.
//!
//! Every operation carries its key in the high bits of the `u64` payload
//! — [`encode_op`] / [`decode_op`] — and [`Keyed`] demultiplexes on
//! apply, lazily materialising a fresh instance per key. Because distinct
//! keys never share state, a keyed object is linearizable **per key**
//! (P-compositionality), which is exactly the granularity the under-load
//! sampler checks at.
//!
//! The state is a [`HashMap`], not a B-tree: every worker replays every
//! committed op through [`Keyed::apply`] (§1.4), and one hash is cheaper
//! than a tree walk. [`KeyHash`] is SplitMix64 over `key ^ seed`, which
//! spreads strided keys over the low bits; the seed, drawn per [`Keyed`]
//! from [`RandomState`], keeps clients from aiming keys at one bucket,
//! and is not the router's, whose per-shard residues it would carry.
//! Iteration order is never observed: `apply` touches one key, and
//! [`snapshot`](crate::ObjectService::snapshot) returns a key-ordered map.

use crate::router::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use tfr_core::universal::Sequential;

/// Keys occupy the top bits of an op payload…
pub const KEY_BITS: u32 = 24;
/// …and the per-instance operation the low bits. One bit is left at the
/// very top so `op + 1` (the register encoding of an announced op) never
/// wraps.
pub const INNER_BITS: u32 = 39;

/// Largest addressable key (exclusive).
pub const MAX_KEYS: u64 = 1 << KEY_BITS;

/// Packs `(key, inner)` into one op payload.
///
/// # Panics
///
/// Panics if `key >= 2^24` or `inner >= 2^39`.
pub fn encode_op(key: u64, inner: u64) -> u64 {
    assert!(key < MAX_KEYS, "key out of range");
    assert!(inner < 1 << INNER_BITS, "inner op out of range");
    (key << INNER_BITS) | inner
}

/// Splits an op payload back into `(key, inner)`.
pub fn decode_op(op: u64) -> (u64, u64) {
    (op >> INNER_BITS, op & ((1 << INNER_BITS) - 1))
}

/// A [`Sequential`] object hosting one independent `T` instance per key.
#[derive(Debug, Clone)]
pub struct Keyed<T> {
    inner: T,
    hash: KeyHash,
}

impl<T> Keyed<T> {
    /// Hosts per-key instances of `inner` (`inner` is the prototype each
    /// key's fresh instance is initialised from), hashed with a fresh seed.
    pub fn new(inner: T) -> Keyed<T> {
        let hash = KeyHash(RandomState::new().build_hasher().finish());
        Keyed { inner, hash }
    }
}

impl<T: Sequential> Sequential for Keyed<T> {
    type State = HashMap<u64, T::State, KeyHash>;

    fn initial(&self) -> Self::State {
        HashMap::with_hasher(self.hash)
    }

    fn apply(&self, state: &mut Self::State, op: u64) -> u64 {
        let (key, inner_op) = decode_op(op);
        let instance = state.entry(key).or_insert_with(|| self.inner.initial());
        self.inner.apply(instance, inner_op)
    }
}

/// A [`Keyed`] state's hasher and its builder: the seed, then a key's hash.
#[derive(Debug, Clone, Copy)]
pub struct KeyHash(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHash;

    fn build_hasher(&self) -> KeyHash {
        *self
    }
}

impl Hasher for KeyHash {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = splitmix64(key ^ self.0);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::universal::Counter;

    #[test]
    fn op_encoding_roundtrips() {
        for &(key, inner) in &[(0, 0), (7, 123), (MAX_KEYS - 1, (1 << INNER_BITS) - 1)] {
            assert_eq!(decode_op(encode_op(key, inner)), (key, inner));
        }
        assert!(encode_op(MAX_KEYS - 1, (1 << INNER_BITS) - 1) < u64::MAX);
    }

    #[test]
    fn keys_are_independent_instances() {
        let obj = Keyed::new(Counter);
        let mut state = obj.initial();
        assert_eq!(obj.apply(&mut state, encode_op(3, 10)), 10);
        assert_eq!(obj.apply(&mut state, encode_op(4, 1)), 1);
        assert_eq!(obj.apply(&mut state, encode_op(3, 5)), 15);
        assert_eq!(state.get(&3), Some(&15));
        assert_eq!(state.get(&4), Some(&1));
    }
}
