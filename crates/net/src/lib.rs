//! The third execution stack: a deterministic, seedable in-process
//! message-passing network hosting ABD majority-quorum registers.
//!
//! The workspace already runs the paper's Δ-tuned algorithms on two
//! stacks — native threads over shared atomics and the virtual-time
//! simulator. This crate adds a stack where *there is no shared memory
//! at all*: every register is replicated across `R` replica servers and
//! accessed through two-phase majority-quorum rounds (the ABD emulation
//! of an atomic register on an asynchronous message-passing system).
//! Because [`QuorumSpace`] implements
//! [`tfr_registers::space::RegisterSpace`], the mutual-exclusion and
//! consensus algorithms run on it **unchanged** — the same
//! `ResilientMutex` that spins on an `AtomicU64` spins on a replicated
//! quorum register, and its timing-failure story composes with network
//! faults (drops, delay spikes, partitions) injected by [`NetControl`].
//!
//! Layers:
//!
//! * [`msg`] — the typed message vocabulary: `(ts, wid)` [`Version`]s
//!   with a derived lexicographic total order, versioned values, the four
//!   payloads — each about a [`Run`] or a set of registers, never only
//!   one — and node ids.
//! * [`net`] — the [`Network`]: a passive, lock-protected event queue
//!   holding the replica tables and the ack mailboxes of the rounds in
//!   progress, per-link [`tfr_registers::rng::SplitMix64`] streams (every
//!   message consumes exactly two draws — delay, then drop — so a run is
//!   a pure function of the seed), and the [`NetControl`] nemesis. It
//!   runs no thread: delivery is a function of `(state, now)`.
//! * [`abd`] — the [`QuorumSpace`] client: quorum rounds with
//!   retransmission, reads with write-back (skipped when the maximum is
//!   already committed on a majority), writes with unique `(ts, wid)`
//!   reservation. Every call serves a group of accesses
//!   (`RegisterSpace::access_all`: runs of reads and writes, conditional
//!   writes) and costs one message per replica per phase, so a run of 64
//!   cells, or a read run beside two writes, costs the round trips of
//!   one access. A group's owned and agreed writes travel as one ordered
//!   group, kept whole by the replicas and repaired whole by readers, so
//!   no reader sees a later one of them without the earlier. The thread
//!   waiting on a round delivers the network's due messages itself — its
//!   own and everybody else's — so a solo read costs one link round trip
//!   on the clock as well as in the protocol.
//!
//! Telemetry rides along on the workspace tracer: message sends,
//! receives, drops, and quorum round trips become events on the Perfetto
//! timeline, and [`tfr_telemetry::heal_convergence_from_events`] turns a
//! partition-heal trace into the §1.3-style convergence number.
//!
//! # Example
//!
//! Mutual exclusion over the network, unchanged:
//!
//! ```
//! use std::sync::Arc;
//! use tfr_net::{NetConfig, Network};
//! use tfr_registers::space::RegisterSpace;
//!
//! let net = Arc::new(Network::new(NetConfig::new(2, 3, 7)));
//! let space = net.space();
//! space.write(0, 1); // every cell is a replicated atomic register
//! assert_eq!(space.read(0), 1);
//! ```

pub mod abd;
pub mod msg;
pub mod net;

pub use abd::QuorumSpace;
pub use msg::{
    Issuer, Message, NodeId, Ordered, Payload, Run, Stored, Version, Versioned, WriteKind,
};
pub use net::{NetConfig, NetControl, Network};

#[cfg(test)]
mod quorum_math {
    //! Property tests for the arithmetic the protocol's safety rests on.

    use crate::msg::{Version, Versioned};
    use std::collections::HashMap;
    use tfr_registers::rng::SplitMix64;

    /// Any two majorities of `R ≤ 9` replicas intersect — enumerated
    /// exhaustively over subsets as bitmasks. This is the fact that lets
    /// a read's query phase always meet a replica that saw the last
    /// committed write.
    #[test]
    fn majorities_always_intersect() {
        for r in 1..=9u32 {
            let majority = r / 2 + 1;
            let masks: Vec<u32> = (0u32..1 << r)
                .filter(|m| m.count_ones() >= majority)
                .collect();
            for &a in &masks {
                for &b in &masks {
                    assert!(
                        a & b != 0,
                        "disjoint majorities {a:b} and {b:b} for R = {r}"
                    );
                }
            }
        }
    }

    /// A sub-majority set does *not* always intersect a majority — the
    /// quorum size is tight, not conservative.
    #[test]
    fn sub_majority_quorums_are_unsafe() {
        for r in [3u32, 5, 7, 9] {
            let sub = r / 2; // one less than a majority
            let a = (1u32 << sub) - 1; // lowest `sub` replicas
            let b = ((1u32 << r) - 1) & !a; // everyone else: r − sub ≥ majority
            assert!(b.count_ones() > r / 2);
            assert_eq!(a & b, 0, "R = {r}: sub-majority dodged a majority");
        }
    }

    /// `(ts, wid)` ordering is total on distinct versions and timestamp
    /// ties break by writer id, exhaustively over a small grid.
    #[test]
    fn version_order_is_total_with_writer_tiebreak() {
        let grid: Vec<Version> = (0..6u64)
            .flat_map(|ts| (0..6u64).map(move |wid| Version { ts, wid }))
            .collect();
        for &a in &grid {
            for &b in &grid {
                let cmp = a.cmp(&b);
                assert_eq!(cmp.reverse(), b.cmp(&a), "antisymmetry");
                if a != b {
                    assert_ne!(cmp, std::cmp::Ordering::Equal, "distinct versions compare");
                }
                if a.ts == b.ts {
                    assert_eq!(cmp, a.wid.cmp(&b.wid), "ties break by wid");
                }
            }
        }
    }

    /// Read-repair monotonicity: a replica applying any seeded
    /// reordering (with duplication) of the same set of versioned writes
    /// always converges to the maximum version — delivery order never
    /// matters, which is why retransmission is safe.
    #[test]
    fn replica_state_is_order_insensitive() {
        let writes: Vec<Versioned> = (1..=8u64)
            .map(|i| Versioned {
                version: Version {
                    ts: i / 2 + 1,
                    wid: i % 3,
                },
                value: i * 10,
            })
            .collect();
        let expected = *writes.iter().max_by_key(|w| w.version).unwrap();

        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            // A seeded shuffle with duplicated deliveries mixed in.
            let mut order: Vec<Versioned> = writes.clone();
            for _ in 0..4 {
                order.push(writes[rng.index(writes.len())]);
            }
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }

            let mut table: HashMap<u64, Versioned> = HashMap::new();
            for w in order {
                let cur = table.entry(0).or_insert(Versioned::ZERO);
                if w.version > cur.version {
                    *cur = w;
                }
            }
            assert_eq!(
                table[&0], expected,
                "seed {seed}: reordered delivery changed the outcome"
            );
        }
    }
}
