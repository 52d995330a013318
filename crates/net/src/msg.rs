//! The typed message vocabulary of the quorum protocol.
//!
//! Two message kinds suffice for multi-writer ABD: a client's request
//! ([`Payload::Request`]) and a replica's answer ([`Payload::Ack`]). A
//! request is one **phase** of a whole group of register operations: it
//! queries any number of [`Run`]s (`base + i·stride`) and stores any
//! number of `(register, versioned value)` cells, each [`Stored`] cell
//! tagged with the [`WriteKind`] of the write that sent it; the ack
//! carries one versioned value per queried cell. A single-register
//! operation is a group of one run of one. Replicas answer the queries
//! and apply the stores cell by cell with the same per-register
//! `version >` rule, so a group is a batch of independent registers that
//! share one message, never a multi-register transaction. Every phase of
//! every operation — a read's query and write-back, a queried write's
//! query and store, an owned or agreed write's one store — is a request
//! of the same shape; the client side decides what the answers mean.
//!
//! A request's phase-1 stores travel as an [`Ordered`] group: one
//! [`Issuer`]'s cells, all stamped with one version, the group's tag. A
//! replica keeps each issuer's newest group whole, an ack carries the
//! kept group of every queried cell that holds its tag, and a reader
//! that writes such a cell back writes back the whole group (see
//! [`crate::abd`]'s module docs).

use std::fmt;
use std::sync::Arc;
pub use tfr_registers::space::WriteKind;

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

    /// The number of registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run names no register.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One cell a [`Payload::Request`] stores, with the kind of the write
/// that sent it: what its writer promised about the cell, and so which
/// phase it could skip. Replicas apply every kind alike; debug builds
/// check an owned or agreed writer's promise (see `net`'s `check_store`).
/// A read's write-back is [`WriteKind::Queried`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stored {
    /// The register.
    pub reg: u64,
    /// Its new versioned value.
    pub data: Versioned,
    /// The write that sent it.
    pub kind: WriteKind,
}

/// A sequential sender of requests: one writer handle (its `wid`) as
/// used from one thread. A thread's quorum round blocks until a majority
/// has acked, so an issuer sends its next request only once its last one
/// is stored on a majority. A process is not such an issuer: a recovered
/// incarnation of it may send while its predecessor's request is still
/// stranded on a minority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Issuer {
    /// The writer handle's id.
    pub wid: u64,
    /// The issuing thread's id, unique in the process's lifetime.
    pub thread: u64,
}

/// An ordered group: the phase-1 stores of one request, every cell
/// stamped with one version, the group's **tag**. A replica stores the
/// group's cells and keeps the group whole, the newest one per
/// [`Issuer`]; a reader that writes back a cell holding the tag writes
/// back the group, so that no cell of it is seen without the others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordered {
    /// Who sent the group.
    pub issuer: Issuer,
    /// The cells, never empty, all at one version.
    pub cells: Arc<[Stored]>,
}

impl Ordered {
    /// The version every cell of the group carries.
    pub fn tag(&self) -> Version {
        self.cells[0].data.version
    }
}

/// What a message says.
///
/// Requests are shared by every replica they are sent to (and by their
/// retransmissions), so their run, cell and group lists sit behind an
/// [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Client → replica: one phase of a group. Report your current
    /// `(version, value)` of every register of every run of `query`, and
    /// the kept group of every one that holds a kept group's tag; then
    /// store every cell of `store` and of `groups` whose version exceeds
    /// your copy's (idempotent — retransmits and reorderings are
    /// harmless), and keep each of `groups` that is its issuer's newest.
    /// Never all empty.
    Request {
        /// The queried runs.
        query: Arc<[Run]>,
        /// The cells stored alone.
        store: Arc<[Stored]>,
        /// The ordered groups stored whole: the sender's own phase-1
        /// stores, or the groups a reader writes back.
        groups: Arc<[Ordered]>,
    },
    /// Replica → client: the answer to a [`Payload::Request`], sent once
    /// its stores are applied (each cell stored or superseded by a newer
    /// version, which is just as good).
    Ack {
        /// The first register the request named.
        reg: u64,
        /// The replica's copy of every queried register, run after run,
        /// as it was before the request's stores: empty if the request
        /// queried nothing.
        data: Vec<Versioned>,
        /// The kept groups whose tag a queried register held, once each,
        /// as they were before the request's stores.
        groups: Vec<Ordered>,
    },
}

impl Payload {
    /// A request that queries `query` and stores `store`.
    pub fn request(query: impl Into<Arc<[Run]>>, store: impl Into<Arc<[Stored]>>) -> Payload {
        Payload::grouped(query, store, [])
    }

    /// A request that queries `query`, stores `store` and stores and
    /// keeps `groups`.
    pub fn grouped(
        query: impl Into<Arc<[Run]>>,
        store: impl Into<Arc<[Stored]>>,
        groups: impl Into<Arc<[Ordered]>>,
    ) -> Payload {
        Payload::Request {
            query: query.into(),
            store: store.into(),
            groups: groups.into(),
        }
    }

    /// The first register this message is about — the one its telemetry
    /// names.
    pub fn reg(&self) -> u64 {
        match self {
            Payload::Request {
                query,
                store,
                groups,
            } => query
                .first()
                .map(|run| run.reg(0))
                .or_else(|| store.first().map(|cell| cell.reg))
                .or_else(|| groups.first().map(|group| group.cells[0].reg))
                .unwrap_or(0),
            Payload::Ack { reg, .. } => *reg,
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
        let stored = |reg| Stored {
            reg,
            data: Versioned::ZERO,
            kind: WriteKind::Queried,
        };
        let query = Payload::request([run], [stored(2)]);
        assert_eq!(query.reg(), 7, "a query's first run names the request");
        assert_eq!(Payload::request([], [stored(9), stored(2)]).reg(), 9);
        let group = Ordered {
            issuer: Issuer { wid: 1, thread: 1 },
            cells: Arc::from([stored(4)]),
        };
        assert_eq!(Payload::grouped([], [], [group]).reg(), 4);
        let ack = Payload::Ack {
            reg: 3,
            data: Vec::new(),
            groups: Vec::new(),
        };
        assert_eq!(ack.reg(), 3);
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
