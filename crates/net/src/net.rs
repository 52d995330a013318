//! The deterministic in-process message-passing network.
//!
//! A [`Network`] is **passive**: one lock-protected event queue, the `R`
//! replica register tables and the ack mailboxes of the quorum rounds in
//! progress. It owns no thread. A message carries a whole run of
//! registers (see [`crate::msg`]), so the network's unit of work is the
//! message and the quorum round, not the register;
//! [`NetControl::quorum_rounds`] counts the rounds.
//!
//! Each link `(from, to)` owns a
//! [`SplitMix64`] stream forked deterministically from the master seed,
//! and every message consumes exactly two draws from its link — one for
//! the delivery delay, one for the drop decision. The fate of the n-th
//! message on a link is therefore a pure function of `(seed, link, n)`
//! and the fault settings in force: printing the seed *is* printing the
//! timing model, the same replay story the chaos layer tells for
//! shared-memory faults.
//!
//! **Who delivers.** The thread that is waiting on a quorum round does.
//! A round sends its requests, then loops *pump → collect its own acks →
//! wait*. A pump, under the one network lock, pops every due message in
//! `(deliver_at, seq)` order — *everybody's*, not only the caller's —
//! applies replica requests to the replica tables, routes their acks at
//! once, and drops client acks into the mailbox of their round (acks for
//! a round that already closed on a majority are redundant and
//! discarded). A request still in flight when its round completed is
//! applied by whichever pump comes next, possibly another client's and
//! possibly much later: that is a slow link, which ABD tolerates.
//! Dropping a `Network` with messages in flight just frees them.
//!
//! **Who waits how.** After its pump the round reads the earliest
//! undelivered `deliver_at` and waits until the earlier of that instant
//! and its retransmit deadline (`wait_until`: short waits spin, long ones
//! sleep the bulk and spin the rest; no chaos point is fired, so waiting
//! on the network never shifts a fault schedule). Nobody is ever woken
//! by anybody else, and nobody needs to be, by the **sleep invariant**: a
//! round sends before it looks, and an ack for it can only be routed when
//! one of *its own* requests is delivered, which is never before that
//! request's `deliver_at`. Every message the round still depends on — a
//! request of its own, or an ack routed when one was delivered — is
//! therefore due no earlier than the head of the queue as the round last
//! saw it, so a thread that sleeps until `min(head as last seen,
//! retransmit deadline)` cannot sleep past anything addressed to it,
//! whoever pumps meanwhile. A client stranded by a partition soon has
//! nothing in flight and sleeps out its retransmit timer.
//!
//! **Time is an argument.** `pump` and `route` take `now` from the
//! caller and never read a clock: the queue is a pure function of
//! `(state, now)`, which is what lets the unit tests step a whole
//! operation by hand with synthetic instants.
//!
//! Faults are evaluated at **send time** by the [`NetControl`] handle:
//! per-message drop probability, a flat delay spike added to every link,
//! and partitions (messages never cross group boundaries). A partitioned
//! or dropped message is gone — reliability is the *client's* job
//! (quorum rounds retransmit), which is exactly how ABD survives a lossy
//! asynchronous network.
//!
//! Telemetry: senders stamp [`EventKind::MsgSend`] / `MsgDropped`,
//! receivers stamp `MsgRecv`, and [`NetControl`] marks fault transitions
//! with the [`tfr_telemetry::event::net_marks`] names. The **lane rule**:
//! a replica lane is written only while holding the network lock — the
//! pumper *is* the thread acting as that replica for as long as it holds
//! it — and client-side events go through `emit_current` on the calling
//! worker's own lane, so the single-writer ring contract holds without
//! any extra locking.

use crate::msg::{Issuer, Message, NodeId, Ordered, Payload, Version, Versioned};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tfr_registers::rng::SplitMix64;
use tfr_registers::ProcId;
use tfr_telemetry::event::net_marks;
use tfr_telemetry::{EventKind, Trace};

/// Shape of an emulated cluster.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of client nodes (the algorithm processes; worker pids map
    /// onto clients by `pid mod clients`).
    pub clients: usize,
    /// Number of replica servers (`R`); a quorum is `R/2 + 1`.
    pub replicas: usize,
    /// Master seed for every per-link delay/drop stream.
    pub seed: u64,
    /// Minimum one-way link delay.
    pub min_delay: Duration,
    /// Maximum one-way link delay (uniform in `[min, max]`).
    pub max_delay: Duration,
    /// How long a quorum round waits for acknowledgements before
    /// retransmitting to the replicas that have not answered.
    pub retransmit: Duration,
}

impl NetConfig {
    /// A cluster of `clients` clients and `replicas` replicas with
    /// workspace-default link delays (10–80 µs) and a 1 ms retransmit
    /// timer.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or `replicas == 0`.
    pub fn new(clients: usize, replicas: usize, seed: u64) -> NetConfig {
        assert!(clients > 0, "at least one client is required");
        assert!(replicas > 0, "at least one replica is required");
        NetConfig {
            clients,
            replicas,
            seed,
            min_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(80),
            retransmit: Duration::from_millis(1),
        }
    }

    /// Size of a majority quorum: `R/2 + 1`.
    pub fn majority(&self) -> usize {
        self.replicas / 2 + 1
    }

    /// Total node count (clients + replicas).
    pub fn nodes(&self) -> usize {
        self.clients + self.replicas
    }

    /// The telemetry pid of a node: clients keep their own index (they
    /// *are* the worker processes), replicas follow at
    /// `clients + replica_index`.
    pub fn node_pid(&self, node: NodeId) -> ProcId {
        match node {
            NodeId::Client(i) => ProcId(i % self.clients),
            NodeId::Replica(i) => ProcId(self.clients + i),
        }
    }

    /// The telemetry pid the [`NetControl`] nemesis stamps marks on (one
    /// past the last replica).
    pub fn control_pid(&self) -> ProcId {
        ProcId(self.nodes())
    }

    /// How many processes a [`tfr_telemetry::Tracer`] needs to hold every
    /// lane of this cluster: clients, replicas, and the control lane.
    pub fn tracer_processes(&self) -> usize {
        self.nodes() + 1
    }

    /// Dense key of a node for link/partition tables.
    fn key(&self, node: NodeId) -> usize {
        match node {
            NodeId::Client(i) => i % self.clients,
            NodeId::Replica(i) => self.clients + i,
        }
    }
}

/// One replica's register table. A B-tree grows node by node on
/// whichever client thread delivers the write that needs the node. A hash
/// table grows by reallocating the whole table on that thread, and with
/// several delivering threads (one worker's overlapped shards) each
/// thread's heap would come to keep room for a whole table.
type Table = BTreeMap<u64, Versioned>;

/// One replica's kept [`Ordered`] groups: the newest of each issuer,
/// found by its tag. An issuer sends a group only once its last one is
/// stored on a majority, so only its newest can be partial, and holding
/// one group per issuer is enough: the groups an older tag named are
/// whole on a majority already. Memory is one `Arc` per issuer.
#[derive(Default)]
struct Kept {
    /// Each issuer's newest tag.
    newest: HashMap<Issuer, Version>,
    /// The kept groups, by tag.
    by_tag: HashMap<Version, Ordered>,
}

impl Kept {
    /// Keeps `group` if it is its issuer's newest; an older one, a late
    /// retransmit or a write-back of a group since replaced, is not kept.
    fn keep(&mut self, group: &Ordered) {
        let tag = group.tag();
        let newest = self.newest.entry(group.issuer).or_insert(Version::ZERO);
        if *newest >= tag {
            return;
        }
        let replaced = std::mem::replace(newest, tag);
        self.by_tag.remove(&replaced);
        self.by_tag.insert(tag, group.clone());
    }
}

/// One scheduled delivery, ordered by time then submission sequence.
struct InFlight {
    deliver_at: Instant,
    seq: u64,
    msg: Message,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// Everything mutable about the cluster, guarded by the one network
/// lock: whoever holds it is the network.
struct RouterState {
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Per-link delay/drop streams, indexed `from·nodes + to`, each
    /// forked from `(seed, link)` when its first message is sent.
    links: Vec<Option<SplitMix64>>,
    /// One register table per replica.
    tables: Vec<Table>,
    /// One set of kept groups per replica.
    kept: Vec<Kept>,
    /// Debug builds, per replica: the writer id each owned cell is pinned
    /// to (see [`check_store`]).
    #[cfg(debug_assertions)]
    owners: Vec<HashMap<u64, u64>>,
    /// Ack mailbox `(replica, ack)` of every open quorum round, by `rid`.
    mailboxes: HashMap<u64, Vec<(usize, Payload)>>,
    /// The last `rid` handed out, i.e. the quorum rounds opened so far.
    next_rid: u64,
    /// The most ack mailboxes ever open at once.
    max_open: usize,
    drop_prob: f64,
    extra_delay: Duration,
    /// `Some(groups)` = partitioned: `groups[key]` is the node's side,
    /// and messages never cross sides. `None` = fully connected.
    groups: Option<Vec<u8>>,
    seq: u64,
    /// Requests clients have sent so far, retransmissions and lost ones
    /// included.
    requests: u64,
    /// Messages delivered so far.
    delivered: u64,
    /// Pumps that delivered at least one message.
    delivery_batches: u64,
    /// Every pump, empty ones included (a hot re-pump loop shows here).
    pumps: u64,
}

pub(crate) struct Shared {
    pub(crate) cfg: NetConfig,
    state: Mutex<RouterState>,
    pub(crate) next_wid: AtomicU64,
    pub(crate) trace: Trace,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Evaluates link faults and either schedules `msg` for delivery
    /// after `now` or drops it. Client-side telemetry uses `emit_current`
    /// (the calling worker thread owns its lane); a replica's sends are
    /// stamped on the replica's lane, which the network lock — `st` —
    /// makes the caller the only writer of.
    fn route(&self, st: &mut RouterState, msg: Message, now: Instant) {
        let reg = msg.payload.reg();
        let to_pid = self.cfg.node_pid(msg.to);
        let from_key = self.cfg.key(msg.from);
        let to_key = self.cfg.key(msg.to);
        let cut = match &st.groups {
            Some(g) => g[from_key] != g[to_key],
            None => false,
        };
        let seed = self.cfg.seed;
        let rng = st.links[from_key * self.cfg.nodes() + to_key].get_or_insert_with(|| {
            // Distinct stream per (seed, link): golden-ratio mixing keeps
            // nearby link keys far apart in seed space.
            let link = (from_key as u64) << 32 | to_key as u64;
            SplitMix64::new(seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        // Every message consumes exactly two draws — delay, then drop —
        // so the n-th message on a link has a seed-determined fate
        // regardless of what happened to earlier messages.
        let span_ns = self
            .cfg
            .max_delay
            .saturating_sub(self.cfg.min_delay)
            .as_nanos() as u64;
        let jitter = Duration::from_nanos(rng.random_range(0..=span_ns));
        let lost = rng.random_bool(st.drop_prob);
        let kind = if cut || lost {
            EventKind::MsgDropped {
                to: to_pid,
                reg,
                span: msg.span,
            }
        } else {
            EventKind::MsgSend {
                to: to_pid,
                reg,
                span: msg.span,
            }
        };
        match msg.from {
            NodeId::Client(_) => self.trace.emit_current(kind),
            NodeId::Replica(_) => self.trace.emit(self.cfg.node_pid(msg.from), kind),
        }
        if cut || lost {
            return;
        }
        st.seq += 1;
        st.queue.push(Reverse(InFlight {
            deliver_at: now + self.cfg.min_delay + jitter + st.extra_delay,
            seq: st.seq,
            msg,
        }));
    }

    /// Delivers every message due at `now`, in `(deliver_at, seq)` order:
    /// a replica request is applied and its ack routed at once, a client
    /// ack lands in the mailbox of its round — or nowhere, if that round
    /// already closed on a majority.
    fn pump(&self, st: &mut RouterState, now: Instant) {
        st.pumps += 1;
        let mut delivered = 0;
        while matches!(st.queue.peek(), Some(Reverse(f)) if f.deliver_at <= now) {
            let msg = st.queue.pop().expect("peeked").0.msg;
            delivered += 1;
            match (msg.from, msg.to) {
                (_, NodeId::Replica(r)) => {
                    self.trace.emit(
                        self.cfg.node_pid(msg.to),
                        EventKind::MsgRecv {
                            from: self.cfg.node_pid(msg.from),
                            reg: msg.payload.reg(),
                            span: msg.span,
                        },
                    );
                    #[cfg(debug_assertions)]
                    check_store(&mut st.owners[r], &st.tables[r], &msg.payload);
                    let RouterState { tables, kept, .. } = &mut *st;
                    let ack = replica_apply(&mut tables[r], &mut kept[r], msg.payload);
                    let reply = Message {
                        from: msg.to,
                        to: msg.from,
                        rid: msg.rid,
                        span: msg.span,
                        payload: ack,
                    };
                    self.route(st, reply, now);
                }
                // The client thread stamps its own MsgRecv when it
                // consumes the ack.
                (NodeId::Replica(r), NodeId::Client(_)) => {
                    if let Some(mailbox) = st.mailboxes.get_mut(&msg.rid) {
                        mailbox.push((r, msg.payload));
                    }
                }
                (NodeId::Client(_), NodeId::Client(_)) => {
                    unreachable!("clients only receive replica acks")
                }
            }
        }
        if delivered > 0 {
            st.delivered += delivered;
            st.delivery_batches += 1;
        }
    }

    /// Opens the ack mailbox of a new quorum round and returns its `rid`.
    pub(crate) fn open_round(&self) -> u64 {
        let mut st = lock(&self.state);
        st.next_rid += 1;
        let rid = st.next_rid;
        st.mailboxes.insert(rid, Vec::new());
        st.max_open = st.max_open.max(st.mailboxes.len());
        rid
    }

    /// Closes round `rid`: acks still in flight for it will be discarded.
    pub(crate) fn close_round(&self, rid: u64) {
        lock(&self.state).mailboxes.remove(&rid);
    }

    /// Hands `msgs` to the link layer at `now`, from a client thread.
    pub(crate) fn send(&self, msgs: impl Iterator<Item = Message>, now: Instant) {
        let mut st = lock(&self.state);
        for msg in msgs {
            st.requests += 1;
            self.route(&mut st, msg, now);
        }
    }

    /// One turn of a waiting round, in one lock hold: delivers everything
    /// due at `now`, moves the acks of round `rid` into `acks`, and
    /// returns when the earliest undelivered message falls due.
    pub(crate) fn poll(
        &self,
        rid: u64,
        now: Instant,
        acks: &mut Vec<(usize, Payload)>,
    ) -> Option<Instant> {
        let mut st = lock(&self.state);
        self.pump(&mut st, now);
        acks.append(st.mailboxes.get_mut(&rid).expect("the round is open"));
        st.queue.peek().map(|Reverse(f)| f.deliver_at)
    }
}

/// Blocks the calling thread until `until`. Waits shorter than the spin
/// margin — every link delay — spin, yielding now and then so that
/// waiting rounds may outnumber CPUs; longer ones sleep the bulk (a timed
/// sleep overshoots by tens of microseconds) and spin the rest. This is
/// not the paper's `delay(d)` statement: it fires no chaos point, so a
/// wait on the network neither shifts an nth-visit fault schedule nor
/// counts as an algorithm delay.
pub(crate) fn wait_until(until: Instant) {
    const SPIN_MARGIN: Duration = Duration::from_micros(100);
    const SPINS_PER_YIELD: u32 = 64;
    let mut spins = 0u32;
    loop {
        let now = Instant::now();
        if now >= until {
            return;
        }
        let left = until - now;
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else if spins < SPINS_PER_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            spins = 0;
            std::thread::yield_now();
        }
    }
}

/// The emulated cluster: event queue, replica state, fault switches.
///
/// A `Network` runs no thread of its own — quorum operations deliver the
/// traffic while they wait — so building one is cheap and dropping one,
/// even with messages in flight, just frees it. Heal partitions before
/// joining workers, though: a client stranded by an eternal partition
/// retransmits forever by design.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_net::{NetConfig, Network};
/// use tfr_registers::space::RegisterSpace;
///
/// let net = Arc::new(Network::new(NetConfig::new(1, 3, 42)));
/// let space = net.space();
/// assert_eq!(space.read(7), 0); // zero-initialized, like every backend
/// space.write(7, 99);
/// assert_eq!(space.read(7), 99);
/// ```
pub struct Network {
    shared: Arc<Shared>,
}

impl Network {
    /// Builds a cluster with telemetry disabled.
    pub fn new(cfg: NetConfig) -> Network {
        Network::with_trace(cfg, Trace::disabled())
    }

    /// Builds a cluster stamping message/quorum events into `trace`
    /// (size the tracer with [`NetConfig::tracer_processes`]).
    pub fn with_trace(cfg: NetConfig, trace: Trace) -> Network {
        assert!(cfg.clients > 0 && cfg.replicas > 0, "empty cluster");
        assert!(cfg.min_delay <= cfg.max_delay, "delay range is inverted");
        let state = RouterState {
            queue: BinaryHeap::new(),
            links: vec![None; cfg.nodes() * cfg.nodes()],
            tables: vec![Table::new(); cfg.replicas],
            kept: (0..cfg.replicas).map(|_| Kept::default()).collect(),
            #[cfg(debug_assertions)]
            owners: vec![HashMap::new(); cfg.replicas],
            mailboxes: HashMap::new(),
            next_rid: 0,
            max_open: 0,
            drop_prob: 0.0,
            extra_delay: Duration::ZERO,
            groups: None,
            seq: 0,
            requests: 0,
            delivered: 0,
            delivery_batches: 0,
            pumps: 0,
        };
        Network {
            shared: Arc::new(Shared {
                cfg,
                state: Mutex::new(state),
                next_wid: AtomicU64::new(0),
                trace,
            }),
        }
    }

    /// The cluster shape.
    pub fn config(&self) -> &NetConfig {
        &self.shared.cfg
    }

    /// A fault-injection handle (cloneable, sendable to a nemesis thread).
    pub fn control(&self) -> NetControl {
        NetControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A fresh [`crate::QuorumSpace`] over this cluster, with its own
    /// unique writer id.
    pub fn space(self: &Arc<Network>) -> crate::QuorumSpace {
        crate::QuorumSpace::new(Arc::clone(self))
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("clients", &self.shared.cfg.clients)
            .field("replicas", &self.shared.cfg.replicas)
            .field("seed", &self.shared.cfg.seed)
            .finish()
    }
}

/// Applies one request to a replica's register table and kept groups
/// and builds the ack: the queried registers first, with the kept group
/// of each that holds a kept tag, then the stores, cell by cell, lone
/// cells and then the groups', keeping each group that is its issuer's
/// newest. Idempotent by construction: a retransmitted or reordered
/// store only ever moves each register's version *up* (read-repair
/// monotonicity), and a kept group only ever gives way to a newer one of
/// its issuer, whatever else the message carries.
fn replica_apply(table: &mut Table, kept: &mut Kept, payload: Payload) -> Payload {
    let reg = payload.reg();
    let Payload::Request {
        query,
        store,
        groups,
    } = payload
    else {
        unreachable!("acks are never addressed to replicas")
    };
    let mut carried: Vec<Ordered> = Vec::new();
    let data = query
        .iter()
        .flat_map(|run| run.regs())
        .map(|reg| {
            let held = *table.get(&reg).unwrap_or(&Versioned::ZERO);
            if let Some(group) = kept.by_tag.get(&held.version) {
                if !carried.iter().any(|c| c.tag() == held.version) {
                    carried.push(group.clone());
                }
            }
            held
        })
        .collect();
    let cells = groups.iter().flat_map(|group| group.cells.iter());
    for cell in store.iter().chain(cells) {
        let cur = table.entry(cell.reg).or_insert(Versioned::ZERO);
        if cell.data.version > cur.version {
            *cur = cell.data;
        }
    }
    for group in groups.iter() {
        debug_assert!(
            group
                .cells
                .iter()
                .all(|cell| cell.data.version == group.tag()),
            "an ordered group's cells carry one version"
        );
        kept.keep(group);
    }
    Payload::Ack {
        reg,
        data,
        groups: carried,
    }
}

/// The debug check of the owned- and agreed-write contracts, at one
/// replica, before it applies a request's stores. These are the two
/// misuses under which skipping the query phase is unsafe.
///
/// * **Owned.** An owned store pins its cell to its writer id the first
///   time the replica sees the cell owned. Any later store to a pinned
///   cell — owned, queried or a read's write-back — must carry that
///   writer id. Another id means a second handle wrote a cell the first
///   declared its own.
/// * **Agreed.** An agreed store's value must equal the nonzero value
///   the replica holds for the cell, if it holds one. Another value means
///   two writers of an agreed cell disagreed.
///
/// # Panics
///
/// Panics on either misuse.
#[cfg(debug_assertions)]
fn check_store(owners: &mut HashMap<u64, u64>, table: &Table, payload: &Payload) {
    use crate::msg::WriteKind;
    let Payload::Request { store, groups, .. } = payload else {
        return;
    };
    let grouped = groups.iter().flat_map(|group| group.cells.iter());
    for cell in store.iter().chain(grouped) {
        let reg = cell.reg;
        if cell.kind == WriteKind::Agreed {
            let held = table.get(&reg).map_or(0, |cur| cur.value);
            assert!(
                held == 0 || held == cell.data.value,
                "register {reg} holds {held}, but an agreed store carries {}: \
                 every write to an agreed cell must carry one value",
                cell.data.value
            );
        }
        let wid = cell.data.version.wid;
        let owner = if cell.kind == WriteKind::Owned {
            *owners.entry(reg).or_insert(wid)
        } else {
            match owners.get(&reg) {
                Some(&owner) => owner,
                None => continue,
            }
        };
        assert_eq!(
            owner, wid,
            "register {reg} is owned by writer {owner}, but writer {wid} stored to it: \
             every write to an owned cell must come through its one handle"
        );
    }
}

/// The network nemesis handle: flips fault switches on a live cluster.
///
/// Cloneable and `Send`; drive it from one nemesis thread at a time (its
/// telemetry marks share the single control lane).
#[derive(Clone)]
pub struct NetControl {
    shared: Arc<Shared>,
}

impl NetControl {
    fn mark(&self, name: &'static str, value: u64) {
        self.shared.trace.emit(
            self.shared.cfg.control_pid(),
            EventKind::Mark { name, value },
        );
    }

    /// Sets the per-message drop probability on every link.
    pub fn set_drop(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        lock(&self.shared.state).drop_prob = p;
        self.mark(net_marks::DROP, (p * 100.0) as u64);
    }

    /// Adds a flat `extra` to every link delay (a delay spike; the
    /// network-world timing failure that is slow rather than lossy).
    pub fn delay_spike(&self, extra: Duration) {
        lock(&self.shared.state).extra_delay = extra;
        self.mark(net_marks::DELAY_SPIKE, extra.as_nanos() as u64);
    }

    /// Installs a partition: nodes in different groups cannot exchange
    /// messages. Every node must appear in exactly one group.
    ///
    /// # Panics
    ///
    /// Panics if a node is missing, duplicated, or more than 255 groups
    /// are given.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        assert!(groups.len() <= u8::MAX as usize, "too many groups");
        let cfg = &self.shared.cfg;
        let mut table: Vec<Option<u8>> = vec![None; cfg.nodes()];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                let k = cfg.key(m);
                assert!(table[k].is_none(), "node {m} appears in two groups");
                table[k] = Some(g as u8);
            }
        }
        let table: Vec<u8> = table
            .into_iter()
            .enumerate()
            .map(|(k, g)| g.unwrap_or_else(|| panic!("node key {k} missing from the partition")))
            .collect();
        lock(&self.shared.state).groups = Some(table);
        self.mark(net_marks::PARTITION, groups.len() as u64);
    }

    /// Cuts replicas `0..k` off from everyone else; all clients stay with
    /// the remaining `R − k` replicas. With `k < R/2 + 1` the clients
    /// keep a majority and operations proceed (reads may repair).
    pub fn partition_minority(&self, k: usize) {
        let cfg = &self.shared.cfg;
        assert!(k <= cfg.replicas, "k exceeds the replica count");
        let minority: Vec<NodeId> = (0..k).map(NodeId::Replica).collect();
        let rest: Vec<NodeId> = (0..cfg.clients)
            .map(NodeId::Client)
            .chain((k..cfg.replicas).map(NodeId::Replica))
            .collect();
        self.partition(&[rest, minority]);
    }

    /// Strands every client with only replicas `0..k`. With `k` below a
    /// majority, every quorum operation **stalls** (retransmitting,
    /// changing nothing) until [`NetControl::heal`] — the "writes stall
    /// but never regress" scenario.
    pub fn isolate_clients_with(&self, k: usize) {
        let cfg = &self.shared.cfg;
        assert!(k <= cfg.replicas, "k exceeds the replica count");
        let client_side: Vec<NodeId> = (0..cfg.clients)
            .map(NodeId::Client)
            .chain((0..k).map(NodeId::Replica))
            .collect();
        let far_side: Vec<NodeId> = (k..cfg.replicas).map(NodeId::Replica).collect();
        self.partition(&[client_side, far_side]);
    }

    /// Requests sent by every client so far: one per replica per quorum
    /// round, plus each retransmission, delivered or lost. However many
    /// registers a phase carries, it is one request per replica.
    pub fn requests_sent(&self) -> u64 {
        lock(&self.shared.state).requests
    }

    /// Messages delivered so far.
    pub fn delivered_messages(&self) -> u64 {
        lock(&self.shared.state).delivered
    }

    /// Quorum rounds opened so far, by every client: one per ABD phase,
    /// however many registers the phase carries (retransmissions reuse
    /// their round). The protocol-level cost of a workload, independent
    /// of link delays and of how the rounds' waits overlap.
    pub fn quorum_rounds(&self) -> u64 {
        lock(&self.shared.state).next_rid
    }

    /// The most quorum rounds ever open at the same time, by every client:
    /// the high-water mark of the open ack mailboxes. One thread has at
    /// most one round open, so a value above 1 shows several clients'
    /// rounds in flight together.
    pub fn max_open_rounds(&self) -> usize {
        lock(&self.shared.state).max_open
    }

    /// Pumps that delivered at least one message. A waiting round pumps
    /// when its next message falls due, so the ratio `delivered_messages
    /// / delivery_batches` sits near 1.0 unless several messages fall due
    /// within one wake-up.
    pub fn delivery_batches(&self) -> u64 {
        lock(&self.shared.state).delivery_batches
    }

    /// Lifts every fault: full connectivity, no drops, no delay spike.
    pub fn heal(&self) {
        {
            let mut st = lock(&self.shared.state);
            st.groups = None;
            st.drop_prob = 0.0;
            st.extra_delay = Duration::ZERO;
        }
        self.mark(net_marks::HEAL, 0);
    }
}

impl std::fmt::Debug for NetControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NetControl")
    }
}

#[cfg(test)]
mod tests;
