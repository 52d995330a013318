//! The typed message vocabulary of the quorum protocol.
//!
//! Four message kinds suffice for multi-writer ABD, and every one of them
//! is about a **run** of registers rather than a single one: a query
//! ([`Payload::ReadReq`]) names a [`Run`] (`base + i·stride`) and its
//! answer ([`Payload::ReadAck`]) carries one versioned value per cell; a
//! store ([`Payload::WriteReq`]) carries any set of `(register, versioned
//! value)` cells — with the [`StoreKind`] of the write that sent it — and
//! its acknowledgement ([`Payload::WriteAck`]) confirms them all. A
//! single-register operation is a run of one. Replicas apply a message
//! cell by cell with the same per-register `version >` rule, so a run is
//! a batch of independent registers that share one message, never a
//! multi-register transaction. Every phase of every operation — the two
//! of a read or a queried write, the one store of an owned or an agreed
//! write — is one of the same two round trips; the client side decides
//! what the answers mean.

use std::fmt;
use std::sync::Arc;

/// A register version: a logical timestamp plus the writer's identity.
///
/// Versions are **totally ordered** — lexicographically by `(ts, wid)` —
/// which is what makes the replicated register converge: two concurrent
/// writes with distinct versions have a definite winner at every replica,
/// and equal versions are impossible because each writer handle issues
/// strictly increasing timestamps under its own unique `wid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Logical timestamp (Lamport-style: one past the highest observed).
    pub ts: u64,
    /// Unique id of the writing [`crate::QuorumSpace`] handle.
    pub wid: u64,
}

impl Version {
    /// The version of the never-written register (ts 0, writer 0 — below
    /// every real version, since real writes use `ts ≥ 1`).
    pub const ZERO: Version = Version { ts: 0, wid: 0 };
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.ts, self.wid)
    }
}

/// A register value stamped with the version that wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Versioned {
    /// The write's version.
    pub version: Version,
    /// The written value.
    pub value: u64,
}

impl Versioned {
    /// The zero-initialized register: value 0 at [`Version::ZERO`].
    pub const ZERO: Versioned = Versioned {
        version: Version::ZERO,
        value: 0,
    };
}

/// The registers `base + i·stride` for `i < len`: what a query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    base: u64,
    stride: u64,
    len: usize,
}

impl Run {
    /// The run `base + i·stride` for `i < len`.
    ///
    /// # Panics
    ///
    /// Panics if the run has several cells and a zero stride (they would
    /// all be one register).
    pub fn new(base: u64, stride: u64, len: usize) -> Run {
        assert!(
            stride > 0 || len <= 1,
            "a run of several cells needs a nonzero stride"
        );
        Run { base, stride, len }
    }

    /// The `i`-th register of the run.
    pub fn reg(&self, i: usize) -> u64 {
        self.base + i as u64 * self.stride
    }

    /// Every register of the run, in order.
    pub fn regs(self) -> impl Iterator<Item = u64> {
        (0..self.len).map(move |i| self.reg(i))
    }
}

/// Which write sent a [`Payload::WriteReq`]: what its writer promised
/// about the cells, and so which phase it could skip. Replicas apply every
/// kind alike; debug builds check the promise (see `net`'s
/// `check_store`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A queried write's store, or a read's write-back: no promise.
    Queried,
    /// An owned write's store: every cell is owned by the writer's
    /// handle, so no other writer id may ever store to it.
    Owned,
    /// An agreed write's store: every write the cell ever receives
    /// carries this value, so a replica holding a nonzero value holds
    /// this one.
    Agreed,
}

/// What a message says.
///
/// Requests are shared by every replica they are sent to (and by their
/// retransmissions), so their cell lists sit behind an [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Client → replica: report your current `(version, value)` of every
    /// register of `run`.
    ReadReq {
        /// The queried registers.
        run: Run,
    },
    /// Replica → client: the answer to a [`Payload::ReadReq`].
    ReadAck {
        /// The queried registers.
        run: Run,
        /// The replica's current copy of each, `data[i]` for `run.reg(i)`.
        data: Vec<Versioned>,
    },
    /// Client → replica: for every `(reg, data)`, store `data` if its
    /// version exceeds your copy's (idempotent — retransmits and
    /// reorderings are harmless). Never empty.
    WriteReq {
        /// The written registers and their versioned values.
        cells: Arc<[(u64, Versioned)]>,
        /// The write that sent the store: queried (or a write-back),
        /// owned or agreed. Replicas apply every kind alike; debug builds
        /// check an owned or agreed writer's promise.
        kind: StoreKind,
    },
    /// Replica → client: a [`Payload::WriteReq`] was applied (each cell
    /// stored or superseded by a newer version, which is just as good).
    WriteAck {
        /// The first register the request carried.
        reg: u64,
    },
}

impl Payload {
    /// The first register this message is about — the one its telemetry
    /// names.
    pub fn reg(&self) -> u64 {
        match self {
            Payload::ReadReq { run } | Payload::ReadAck { run, .. } => run.reg(0),
            Payload::WriteReq { cells, .. } => cells.first().map_or(0, |&(reg, _)| reg),
            Payload::WriteAck { reg } => *reg,
        }
    }
}

/// A node of the emulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A client — one of the algorithm processes driving quorum ops.
    Client(usize),
    /// A replica server holding a full copy of every register.
    Replica(usize),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client(i) => write!(f, "c{i}"),
            NodeId::Replica(i) => write!(f, "s{i}"),
        }
    }
}

/// One message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sending node.
    pub from: NodeId,
    /// The destination node.
    pub to: NodeId,
    /// The round id: acks carry their request's `rid`, which is how the
    /// client matches late, duplicated, or reordered answers to the
    /// quorum round that asked.
    pub rid: u64,
    /// The causal span this message belongs to (0 = untraced). Requests
    /// carry the sending client's current span id and replies echo it, so
    /// the exporter can draw flow links from a quorum-phase span to every
    /// replica it touched.
    pub span: u64,
    /// The content.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_order_lexicographically() {
        let a = Version { ts: 1, wid: 9 };
        let b = Version { ts: 2, wid: 0 };
        let c = Version { ts: 2, wid: 1 };
        assert!(a < b, "timestamp dominates");
        assert!(b < c, "writer id breaks timestamp ties");
        assert!(Version::ZERO < a);
        assert_eq!(a.to_string(), "1.9");
    }

    #[test]
    fn payload_names_its_first_register() {
        let run = Run::new(7, 3, 4);
        assert_eq!(run.regs().collect::<Vec<_>>(), vec![7, 10, 13, 16]);
        assert_eq!(Payload::ReadReq { run }.reg(), 7);
        let cells: Arc<[(u64, Versioned)]> = Arc::new([(9, Versioned::ZERO), (2, Versioned::ZERO)]);
        let store = Payload::WriteReq {
            cells,
            kind: StoreKind::Queried,
        };
        assert_eq!(store.reg(), 9);
        assert_eq!(Payload::WriteAck { reg: 3 }.reg(), 3);
    }

    #[test]
    #[should_panic(expected = "nonzero stride")]
    fn a_zero_stride_run_of_several_cells_is_rejected() {
        let _ = Run::new(0, 0, 2);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::Client(2).to_string(), "c2");
        assert_eq!(NodeId::Replica(0).to_string(), "s0");
    }
}
