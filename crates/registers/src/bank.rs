//! Register files that the specification form of an algorithm executes
//! against.
//!
//! Both banks model the paper's shared memory: an unbounded collection of
//! atomic `u64` registers, all zero-initialized. Both compare
//! extensionally: two banks are `==` exactly when every register holds the
//! same value, whatever the write history. [`ArrayBank`] is the dense,
//! fast bank the simulator's engine runs on; [`MapBank`] is the sparse,
//! *canonical* bank used by the model checker, which also hashes by
//! contents.

use crate::RegId;
use std::collections::BTreeMap;

/// A file of atomic registers addressed by [`RegId`].
///
/// Every register conceptually exists and holds `0` until written.
pub trait RegisterBank {
    /// Atomically reads register `reg` (zero if never written).
    fn read(&self, reg: RegId) -> u64;
    /// Atomically writes `value` to register `reg`.
    fn write(&mut self, reg: RegId, value: u64);
}

/// Dense register file backed by a growable `Vec`.
///
/// Reads beyond the written range return 0 without allocating; writes grow
/// the vector. Suitable when register ids are reasonably dense (every
/// algorithm in this workspace packs its registers densely from 0).
/// Equality ignores trailing zero registers, so how far a bank happened to
/// grow never affects `==`.
#[derive(Debug, Clone, Default)]
pub struct ArrayBank {
    regs: Vec<u64>,
}

impl ArrayBank {
    /// Creates an empty (all-zero) register file.
    pub fn new() -> ArrayBank {
        ArrayBank::default()
    }

    /// Number of registers that have been materialized (written at least
    /// once, directly or by growth). Used by tests and accounting.
    pub fn materialized(&self) -> usize {
        self.regs.len()
    }
}

impl RegisterBank for ArrayBank {
    fn read(&self, reg: RegId) -> u64 {
        self.regs.get(reg.0 as usize).copied().unwrap_or(0)
    }

    fn write(&mut self, reg: RegId, value: u64) {
        let idx = reg.0 as usize;
        if idx >= self.regs.len() {
            if value == 0 {
                return; // writing the default value needs no storage
            }
            self.regs.resize(idx + 1, 0);
        }
        self.regs[idx] = value;
    }
}

impl PartialEq for ArrayBank {
    fn eq(&self, other: &ArrayBank) -> bool {
        let (short, long) = if self.regs.len() <= other.regs.len() {
            (&self.regs, &other.regs)
        } else {
            (&other.regs, &self.regs)
        };
        let (head, tail) = long.split_at(short.len());
        head == &short[..] && tail.iter().all(|&v| v == 0)
    }
}

impl Eq for ArrayBank {}

/// Sparse, canonical register file backed by a `BTreeMap`.
///
/// Registers holding 0 are absent from the map, so two `MapBank`s are `==`
/// (and hash identically) exactly when every register holds the same value.
/// The model checker relies on this for state deduplication.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MapBank {
    regs: BTreeMap<u64, u64>,
}

impl MapBank {
    /// Creates an empty (all-zero) register file.
    pub fn new() -> MapBank {
        MapBank::default()
    }

    /// Iterates over `(RegId, value)` pairs with nonzero values, in id
    /// order. Useful for printing counterexample states.
    pub fn iter(&self) -> impl Iterator<Item = (RegId, u64)> + '_ {
        self.regs.iter().map(|(&k, &v)| (RegId(k), v))
    }
}

impl RegisterBank for MapBank {
    fn read(&self, reg: RegId) -> u64 {
        self.regs.get(&reg.0).copied().unwrap_or(0)
    }

    fn write(&mut self, reg: RegId, value: u64) {
        if value == 0 {
            self.regs.remove(&reg.0);
        } else {
            self.regs.insert(reg.0, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn array_bank_default_zero() {
        let bank = ArrayBank::new();
        assert_eq!(bank.read(RegId(0)), 0);
        assert_eq!(bank.read(RegId(1 << 20)), 0);
        assert_eq!(bank.materialized(), 0);
    }

    #[test]
    fn array_bank_read_back() {
        let mut bank = ArrayBank::new();
        bank.write(RegId(7), 99);
        assert_eq!(bank.read(RegId(7)), 99);
        assert_eq!(bank.read(RegId(6)), 0);
        assert_eq!(bank.materialized(), 8);
    }

    #[test]
    fn array_bank_zero_write_to_fresh_register_is_free() {
        let mut bank = ArrayBank::new();
        bank.write(RegId(1 << 30), 0);
        assert_eq!(bank.materialized(), 0);
        assert_eq!(bank.read(RegId(1 << 30)), 0);
    }

    /// Different write histories, same contents: equal, whichever bank
    /// grew further.
    #[test]
    fn array_bank_extensional_equality() {
        let mut a = ArrayBank::new();
        let mut b = ArrayBank::new();
        a.write(RegId(7), 99);
        assert_eq!(a.read(RegId(7)), 99);
        assert_ne!(a, b);
        b.write(RegId(9000), 1);
        b.write(RegId(9000), 0);
        b.write(RegId(7), 99);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write(RegId(8999), 3);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn map_bank_canonical_on_zero() {
        let mut a = MapBank::new();
        let b = MapBank::new();
        a.write(RegId(3), 5);
        assert_ne!(a, b);
        a.write(RegId(3), 0);
        assert_eq!(a, b, "writing 0 must restore the canonical empty state");
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn map_bank_iter_in_id_order() {
        let mut bank = MapBank::new();
        bank.write(RegId(9), 1);
        bank.write(RegId(2), 2);
        let pairs: Vec<_> = bank.iter().collect();
        assert_eq!(pairs, vec![(RegId(2), 2), (RegId(9), 1)]);
    }

    /// Both banks implement the same register semantics: after an
    /// arbitrary sequence of writes, every register reads back the last
    /// value written to it (or zero). Randomized over a fixed seed so
    /// failures replay exactly.
    #[test]
    fn banks_agree() {
        let mut rng = SplitMix64::new(0x7f4b_0001);
        for _case in 0..64 {
            let mut array = ArrayBank::new();
            let mut map = MapBank::new();
            let ops = rng.random_range(0..=199);
            for _ in 0..ops {
                let reg = rng.random_range(0..=63);
                let val = rng.next_u64();
                array.write(RegId(reg), val);
                map.write(RegId(reg), val);
            }
            for reg in 0..64 {
                assert_eq!(array.read(RegId(reg)), map.read(RegId(reg)));
            }
        }
    }

    /// MapBank equality is extensional: two different write histories
    /// ending in the same contents compare equal.
    #[test]
    fn map_bank_extensional() {
        let mut rng = SplitMix64::new(0x7f4b_0002);
        for _case in 0..64 {
            let mut direct = MapBank::new();
            let mut indirect = MapBank::new();
            let len = rng.random_range(1..=19);
            for i in 0..len {
                let v = rng.next_u64();
                direct.write(RegId(i), v);
                // Indirect: write garbage first, then overwrite.
                indirect.write(RegId(i), v.wrapping_add(1));
                indirect.write(RegId(i), v);
            }
            assert_eq!(direct, indirect);
        }
    }
}
