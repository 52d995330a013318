//! The pure height state machine: all pipelining decisions, no substrate.
//!
//! Following the height/round architecture of Malachite-style consensus
//! engines, every decision about *what to do next* — publish a batch at
//! which height, apply which committed entry, wait on the pipeline
//! window, take over another proposer's height — lives in a
//! deterministic, I/O-free state machine. The impure driver
//! ([`crate::LogWorker`]) merely executes the returned [`Effect`]s
//! against the register space and feeds observations back, the time
//! included. That separation is what makes the pipelining logic
//! unit-testable: the tests below exercise window bounding, ownership,
//! the reserve rule, takeover, in-order application, and lost-batch
//! requeueing without a single register or thread.
//!
//! # The pipeline
//!
//! Height `h` has an **owner**, pid `h mod n` (Mencius's round-robin
//! assignment of instances to proposers). A proposer proposes its front
//! batch at the lowest height it may propose at inside the window
//! `[frontier, floor + window)`: one of its own, or one it has taken
//! over. It does not wait for lower heights to decide, so the owners of
//! adjacent heights decide them in parallel, each on Algorithm 1's
//! uncontended path. Decisions are therefore observed in any order, but
//! *application* stays strictly in height order: the machine applies
//! height `h` only once every height below it is known decided, and the
//! decision frontier may run at most `window` heights past the slowest
//! applier in the cluster. With `window = 1` the machine is the
//! sequential-heights baseline — every replica must apply height `h`
//! before anyone proposes at `h + 1`.
//!
//! Two rules keep the result complete:
//!
//! * **Takeover.** A proposer proposes at a height it does not own only
//!   when that height is its frontier (everything below is decided) and
//!   either the owner has nothing pending or the height has stayed
//!   undecided for the takeover bound (the log's Δ) since the proposer
//!   first waited on it. A timely owner therefore never loses its
//!   height; a takeover is the timing-failure path.
//! * **Reserve.** A proposer proposes at `h` only if it holds at least
//!   one batch in reserve for every height below `h` it does not know
//!   decided. Until its queue is empty it can still fill each of them
//!   itself, so no run ends with a hole below a decided height.

use std::collections::VecDeque;
use std::time::Duration;

/// An opaque handle to a batch the driver holds the payload for.
pub type BatchId = u64;

/// What the driver must do next, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Publish the payload of `batch` into this proposer's arena at
    /// `height` and propose this proposer at that height's consensus
    /// instance. The driver reports the outcome via
    /// [`HeightStateMachine::observe_decided`], `won` meaning `batch`
    /// won.
    Publish {
        /// The height to propose at.
        height: u64,
        /// Which pending batch rides the proposal.
        batch: BatchId,
    },
    /// Propose this proposer at `height` without publishing: a
    /// predecessor incarnation already published a block there (see
    /// [`HeightStateMachine::observe_published`]), and an arena block is
    /// never written twice. Winning commits the predecessor's batch, so
    /// the driver reports the outcome with `won = false`.
    Propose {
        /// The height to propose at.
        height: u64,
    },
    /// Read the decision register at `height` and report a decision, if
    /// any, via [`HeightStateMachine::observe_decided`]. Emitted when
    /// the machine has nothing to propose but the frontier may have
    /// been advanced by other proposers.
    Poll {
        /// The frontier height to poll.
        height: u64,
    },
    /// The machine would propose at `height`, its frontier, but another
    /// proposer owns it. Read the decision and report it as for
    /// [`Effect::Poll`]; if there is none, read whether the owner has
    /// batches pending and report via [`HeightStateMachine::observe_waiting`].
    Await {
        /// The frontier height to wait on.
        height: u64,
        /// Its owner.
        owner: usize,
    },
    /// Apply the committed entry at `height` to the local state machine
    /// and report completion via [`HeightStateMachine::observe_applied`].
    Apply {
        /// The next unapplied height (always sequential).
        height: u64,
    },
    /// The pipeline window holds this machine back: re-read the
    /// cluster-wide applied floor (min over all ack registers) and
    /// report it via [`HeightStateMachine::observe_floor`].
    RefreshFloor,
}

/// The pure replicated-log proposer/applier state machine.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_log::machine::{Effect, HeightStateMachine};
///
/// // Pid 0 of two proposers, pipeline window 4, takeover bound 1 ms.
/// let mut m = HeightStateMachine::new(0, 2, 4, Duration::from_millis(1));
/// for batch in 0..3 {
///     m.enqueue(batch);
/// }
/// assert_eq!(m.next_effects(), vec![Effect::Publish { height: 0, batch: 0 }]);
/// m.observe_decided(0, true); // our batch won height 0
/// assert_eq!(m.next_effects(), vec![Effect::Apply { height: 0 }]);
/// m.observe_applied(0);
/// // Height 1 is pid 1's: batch 1 goes to our next height, 2, without
/// // waiting for 1, and batch 2 stays in reserve for height 1.
/// assert_eq!(m.next_effects(), vec![Effect::Publish { height: 2, batch: 1 }]);
/// m.observe_decided(2, true);
/// // Height 4 would need a reserve for both 1 and 3: wait on pid 1.
/// assert_eq!(m.next_effects(), vec![Effect::Await { height: 1, owner: 1 }]);
/// ```
#[derive(Debug, Clone)]
pub struct HeightStateMachine {
    /// This proposer's pid; it owns the heights `h` with `h mod n = pid`.
    pid: usize,
    /// Proposers sharing the log.
    n: usize,
    /// Lowest height not known decided (the proposal frontier).
    frontier: u64,
    /// `ahead[i]`: height `frontier + 1 + i` is known decided.
    ahead: VecDeque<bool>,
    /// Next height to apply locally (applied prefix = `0..next_apply`).
    next_apply: u64,
    /// Last observed cluster-wide applied floor (min over ack registers).
    floor: u64,
    /// Max heights the frontier may run ahead of the floor (≥ 1).
    window: u64,
    /// How long a frontier owned by a busy proposer may stay undecided
    /// before this proposer takes it over.
    takeover_after: Duration,
    /// The frontier height this machine is waiting on, and when it first
    /// waited there.
    waiting: Option<(u64, Duration)>,
    /// The frontier height this machine may take over.
    takeover: Option<u64>,
    /// Unapplied heights where a predecessor incarnation published.
    published: Vec<u64>,
    /// Batches announced by the client, not yet committed. The front
    /// batch rides every proposal until it wins a height.
    pending: VecDeque<BatchId>,
}

impl HeightStateMachine {
    /// The machine of proposer `pid` among `n`, with the given pipeline
    /// window and takeover bound.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (window 1 is the sequential baseline)
    /// or `pid` is not below `n`.
    pub fn new(pid: usize, n: usize, window: u64, takeover_after: Duration) -> HeightStateMachine {
        assert!(window > 0, "a zero window can never commit anything");
        assert!(pid < n, "proposer pid out of range");
        HeightStateMachine {
            pid,
            n,
            frontier: 0,
            ahead: VecDeque::new(),
            next_apply: 0,
            floor: 0,
            window,
            takeover_after,
            waiting: None,
            takeover: None,
            published: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    /// This machine, resumed from a recovered register scan: `frontier`
    /// heights are known decided and `applied` of them already applied
    /// locally (a fresh incarnation replays the registers, then resumes
    /// here with an empty pending queue).
    pub fn resumed(mut self, frontier: u64, applied: u64) -> HeightStateMachine {
        assert!(
            applied <= frontier,
            "cannot have applied an undecided height"
        );
        self.frontier = frontier;
        self.next_apply = applied;
        self
    }

    /// The owner of `height`: pid `height mod n`.
    fn owner(&self, height: u64) -> usize {
        (height % self.n as u64) as usize
    }

    /// The client handed the driver a new batch to commit.
    pub fn enqueue(&mut self, batch: BatchId) {
        self.pending.push_back(batch);
    }

    /// Number of batches announced but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The proposal frontier: lowest height not known decided.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// The local applied prefix length.
    pub fn applied(&self) -> u64 {
        self.next_apply
    }

    /// Heights decided but not yet applied by the slowest applier — the
    /// pipeline depth currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.frontier.saturating_sub(self.floor)
    }

    /// Whether `height` is known decided.
    fn decided(&self, height: u64) -> bool {
        height < self.frontier
            || (height > self.frontier
                && self.ahead.get((height - self.frontier - 1) as usize) == Some(&true))
    }

    /// Whether a predecessor incarnation published at the unapplied
    /// `height` (see [`HeightStateMachine::observe_published`]). If this
    /// proposer wins there, the batch is the predecessor's.
    pub fn predecessor_published(&self, height: u64) -> bool {
        self.published.contains(&height)
    }

    /// The driver found, on recovery, a block this proposer's
    /// predecessor incarnation published at the undecided `height`.
    /// The machine proposes there without publishing ([`Effect::Propose`]).
    pub fn observe_published(&mut self, height: u64) {
        if !self.decided(height) && !self.predecessor_published(height) {
            self.published.push(height);
        }
    }

    /// The driver observed the cluster-wide applied floor (min over all
    /// appliers' ack registers, including this one).
    pub fn observe_floor(&mut self, floor: u64) {
        // The floor is monotone; a stale read can only lower it, and
        // lowering would re-tighten the window for no reason.
        self.floor = self.floor.max(floor);
    }

    /// The driver observed that `height` is decided; `won` says whether
    /// this proposer's front batch is the winner. Heights may be observed
    /// in any order, each once.
    ///
    /// # Panics
    ///
    /// Panics if `height` is already known decided — the driver polls and
    /// proposes only at heights the machine does not know decided.
    pub fn observe_decided(&mut self, height: u64, won: bool) {
        assert!(
            !self.decided(height),
            "height {height} observed decided twice"
        );
        if height == self.frontier {
            self.frontier += 1;
            while self.ahead.pop_front() == Some(true) {
                self.frontier += 1;
            }
            // A `false` popped above is the new frontier itself.
            self.waiting = None;
            self.takeover = None;
        } else {
            let i = (height - self.frontier - 1) as usize;
            if self.ahead.len() <= i {
                self.ahead.resize(i + 1, false);
            }
            self.ahead[i] = true;
        }
        if won {
            self.pending
                .pop_front()
                .expect("won a height with no batch in flight");
        }
        // A lost front batch stays queued and rides the next proposal.
    }

    /// The driver found the frontier `height`, owned by another
    /// proposer, undecided at time `now` (any clock that only moves
    /// forward); `owner_idle` says the owner had nothing pending. The
    /// height may be taken over if the owner is idle, or if it has stayed
    /// undecided for the takeover bound since this machine first waited
    /// on it.
    pub fn observe_waiting(&mut self, height: u64, owner_idle: bool, now: Duration) {
        if height != self.frontier {
            return;
        }
        match self.waiting {
            Some((h, since)) if h == height => {
                if owner_idle || now.saturating_sub(since) >= self.takeover_after {
                    self.takeover = Some(height);
                }
            }
            _ if owner_idle => self.takeover = Some(height),
            _ => self.waiting = Some((height, now)),
        }
    }

    /// The driver finished applying `height` locally.
    ///
    /// # Panics
    ///
    /// Panics if `height` is out of order — application is strictly
    /// sequential, that is the safety argument for pipelining.
    pub fn observe_applied(&mut self, height: u64) {
        assert_eq!(height, self.next_apply, "entries apply in height order");
        assert!(height < self.frontier, "applying an undecided height");
        self.next_apply += 1;
        self.published.retain(|&h| h > height);
    }

    /// What the driver should do now, in order. Pure: no observation, no
    /// I/O — call again after feeding observations back.
    pub fn next_effects(&self) -> Vec<Effect> {
        // Apply anything decided-but-unapplied first: application keeps
        // the cluster floor moving and never blocks on the window.
        if self.next_apply < self.frontier {
            return vec![Effect::Apply {
                height: self.next_apply,
            }];
        }
        // Nothing to propose: watch the frontier for other proposers'
        // decisions so this applier keeps replicating.
        if self.pending.is_empty() {
            return vec![Effect::Poll {
                height: self.frontier,
            }];
        }
        // Propose only inside the pipeline window. The frontier may run
        // at most `window` heights past the slowest applier: with
        // window 1, every replica must finish h before h+1 starts
        // (sequential heights); larger windows overlap consensus on
        // h+1 with the propagation of h.
        let limit = self.floor + self.window;
        if self.frontier >= limit {
            return vec![Effect::RefreshFloor];
        }
        // The lowest height this proposer may take, if the reserve
        // allows it: every undecided height below it is one the
        // proposer may yet have to fill.
        let mut holes = 0;
        let mut reserve_short = false;
        for height in self.frontier..limit {
            if self.decided(height) {
                continue;
            }
            if self.owner(height) == self.pid || self.takeover == Some(height) {
                let own_batch = !self.predecessor_published(height);
                if self.pending.len() < holes + usize::from(own_batch) {
                    reserve_short = true;
                    break;
                }
                return vec![if own_batch {
                    Effect::Publish {
                        height,
                        batch: self.pending[0],
                    }
                } else {
                    Effect::Propose { height }
                }];
            }
            holes += 1;
        }
        // Held back: the frontier is another proposer's (this one's own
        // frontier is always proposable). Wait on it, and if the reserve
        // would cover this proposer's next height past the window,
        // counting every height up to it as a hole, refresh the floor
        // that holds the window back.
        let wait = Effect::Await {
            height: self.frontier,
            owner: self.owner(self.frontier),
        };
        let (n, pid) = (self.n as u64, self.pid as u64);
        let next_own = limit + (pid + n - limit % n) % n;
        let holes_below_next = holes + (next_own - limit) as usize;
        if !reserve_short && holes_below_next < self.pending.len() && self.floor < self.frontier {
            vec![Effect::RefreshFloor, wait]
        } else {
            vec![wait]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: Duration = Duration::from_millis(1);

    fn solo(window: u64) -> HeightStateMachine {
        HeightStateMachine::new(0, 1, window, BOUND)
    }

    /// Drives the machine with an in-memory "cluster" where decisions
    /// always go to us and `lag` tracks how far the slowest applier is
    /// behind; returns the max in-flight depth ever reached.
    fn drive_to_completion(mut m: HeightStateMachine, batches: u64, applier_lag: u64) -> u64 {
        for b in 0..batches {
            m.enqueue(b);
        }
        let mut max_depth = 0;
        let mut cluster_applied: u64;
        let mut guard = 0;
        while m.pending_len() > 0 || m.applied() < m.frontier() {
            guard += 1;
            assert!(guard < 10_000, "machine livelocked");
            for e in m.next_effects() {
                match e {
                    Effect::Publish { height, .. } => {
                        m.observe_decided(height, true);
                        max_depth = max_depth.max(m.in_flight());
                    }
                    Effect::Apply { height } => {
                        m.observe_applied(height);
                        // The slowest *other* applier trails by up to
                        // `applier_lag` heights.
                        cluster_applied = (height + 1).saturating_sub(applier_lag);
                        m.observe_floor(cluster_applied.min(m.applied()));
                    }
                    Effect::RefreshFloor => {
                        // Simulate the laggard eventually catching up.
                        cluster_applied = m.applied();
                        m.observe_floor(cluster_applied);
                    }
                    e => panic!("a solo proposer never needs {e:?}"),
                }
            }
        }
        max_depth
    }

    #[test]
    fn window_bounds_in_flight_depth() {
        for window in 1..=4u64 {
            let depth = drive_to_completion(solo(window), 12, 2);
            assert!(
                depth <= window,
                "window {window} exceeded: depth {depth} in flight"
            );
        }
    }

    #[test]
    fn sequential_window_never_overlaps() {
        // Window 1: the frontier never gets more than one height past
        // the slowest applier — the sequential-heights baseline.
        assert_eq!(drive_to_completion(solo(1), 8, 0), 1);
    }

    #[test]
    fn pipelined_window_actually_pipelines() {
        // With a laggy applier and window 3, the machine must drive the
        // frontier ahead of the floor — that is the whole point.
        let depth = drive_to_completion(solo(3), 12, 2);
        assert!(depth >= 2, "pipelining never engaged (depth {depth})");
    }

    #[test]
    fn applies_are_strictly_sequential() {
        let mut m = solo(4);
        m.enqueue(0);
        m.enqueue(1);
        // Decide two heights without applying.
        m.observe_decided(0, true);
        m.observe_decided(1, true);
        assert_eq!(m.next_effects(), vec![Effect::Apply { height: 0 }]);
        m.observe_applied(0);
        assert_eq!(m.next_effects(), vec![Effect::Apply { height: 1 }]);
    }

    #[test]
    #[should_panic(expected = "height order")]
    fn out_of_order_apply_is_rejected() {
        let mut m = solo(4);
        m.enqueue(0);
        m.observe_decided(0, true);
        m.observe_applied(1); // skips height 0
    }

    #[test]
    #[should_panic(expected = "decided twice")]
    fn a_height_is_observed_decided_once() {
        let mut m = HeightStateMachine::new(0, 2, 4, BOUND);
        m.observe_decided(1, false);
        m.observe_decided(1, false);
    }

    #[test]
    fn lost_batch_rides_the_next_proposal() {
        let mut m = solo(8);
        m.enqueue(7);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 0,
                batch: 7
            }]
        );
        // Another proposer won height 0: our batch is still pending and
        // must be re-proposed at the new frontier.
        m.observe_decided(0, false);
        m.observe_applied(0);
        m.observe_floor(1);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 1,
                batch: 7
            }]
        );
        assert_eq!(m.pending_len(), 1);
        m.observe_decided(1, true);
        assert_eq!(m.frontier(), 2);
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn window_stall_asks_for_a_floor_refresh() {
        let mut m = solo(1);
        m.enqueue(0);
        m.enqueue(1);
        m.observe_decided(0, true);
        m.observe_applied(0);
        // Locally applied, but the cluster floor is still 0: with
        // window 1 the machine must wait for the floor, not propose.
        assert_eq!(m.next_effects(), vec![Effect::RefreshFloor]);
        m.observe_floor(1);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 1,
                batch: 1
            }]
        );
    }

    #[test]
    fn idle_machine_polls_the_frontier() {
        assert_eq!(solo(2).next_effects(), vec![Effect::Poll { height: 0 }]);
    }

    #[test]
    fn resumed_machine_starts_at_the_recovered_prefix() {
        let m = solo(2).resumed(5, 5);
        assert_eq!(m.frontier(), 5);
        assert_eq!(m.applied(), 5);
        assert_eq!(m.next_effects(), vec![Effect::Poll { height: 5 }]);
    }

    #[test]
    fn floor_is_monotone_under_stale_reads() {
        let mut m = solo(2);
        m.observe_floor(4);
        m.observe_floor(2); // a stale ack-register scan
        m.enqueue(0);
        // Frontier 0 < floor 4 + window: still proposable, the stale
        // read did not re-tighten the window.
        assert!(matches!(m.next_effects()[0], Effect::Publish { .. }));
    }

    #[test]
    fn each_proposer_proposes_at_its_own_heights_ahead_of_the_frontier() {
        // Pid 1 of 3, window 6: heights 1 and 4 are its own. It proposes
        // at 1 without waiting for 0, then at 4 without waiting for 0,
        // 2 or 3, keeping a batch in reserve for each of them.
        let mut m = HeightStateMachine::new(1, 3, 6, BOUND);
        for b in 0..5 {
            m.enqueue(b);
        }
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 1,
                batch: 0
            }]
        );
        m.observe_decided(1, true);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 4,
                batch: 1
            }]
        );
        m.observe_decided(4, true);
        // Height 7 lies past the window, whose floor cannot pass the
        // frontier: wait on the frontier.
        assert_eq!(m.frontier(), 0);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Await {
                height: 0,
                owner: 0
            }]
        );
        // Decisions arrive out of order; the frontier absorbs them.
        m.observe_decided(2, false);
        m.observe_decided(0, false);
        assert_eq!(m.frontier(), 3);
        assert!(m.decided(4) && !m.decided(3));
    }

    #[test]
    fn a_proposer_runs_no_further_ahead_than_its_reserve() {
        let mut m = HeightStateMachine::new(0, 2, 8, BOUND);
        m.enqueue(0);
        m.enqueue(1);
        m.enqueue(2);
        m.observe_decided(0, false);
        m.observe_applied(0);
        m.observe_floor(1);
        // Frontier 1 is pid 1's. Three batches: height 2 needs two
        // (one for the hole at 1), height 4 would need three.
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 2,
                batch: 0
            }]
        );
        m.observe_decided(2, true);
        // Two batches left, holes at 1 and 3: height 4 needs three.
        assert_eq!(
            m.next_effects(),
            vec![Effect::Await {
                height: 1,
                owner: 1
            }]
        );
        // With one batch only, even height 2 would leave no reserve.
        let mut lone = HeightStateMachine::new(0, 2, 8, BOUND);
        lone.enqueue(0);
        lone.observe_decided(0, false);
        lone.observe_applied(0);
        assert_eq!(
            lone.next_effects(),
            vec![Effect::Await {
                height: 1,
                owner: 1
            }]
        );
    }

    #[test]
    fn an_idle_owners_height_is_taken_over_at_once() {
        let mut m = HeightStateMachine::new(0, 2, 8, BOUND);
        m.enqueue(0);
        m.observe_decided(0, false);
        m.observe_applied(0);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Await {
                height: 1,
                owner: 1
            }]
        );
        m.observe_waiting(1, true, Duration::ZERO);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 1,
                batch: 0
            }]
        );
    }

    #[test]
    fn a_busy_owners_height_is_taken_over_only_after_the_bound() {
        let mut m = HeightStateMachine::new(0, 2, 8, BOUND);
        m.enqueue(0);
        m.observe_decided(0, false);
        m.observe_applied(0);
        let wait = vec![Effect::Await {
            height: 1,
            owner: 1,
        }];
        let t0 = Duration::from_secs(5);
        m.observe_waiting(1, false, t0);
        assert_eq!(m.next_effects(), wait);
        m.observe_waiting(1, false, t0 + BOUND / 2);
        assert_eq!(m.next_effects(), wait, "a timely owner keeps its height");
        // Waiting on another height does not restart height 1's clock.
        m.observe_waiting(5, false, t0 + BOUND / 2);
        m.observe_waiting(1, false, t0 + BOUND);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 1,
                batch: 0
            }]
        );
        // The owner won after all: the next wait starts a fresh clock.
        m.observe_decided(1, false);
        m.observe_applied(1);
        m.observe_decided(2, false);
        m.observe_applied(2);
        m.observe_waiting(3, false, t0 + 2 * BOUND);
        m.observe_waiting(3, false, t0 + 2 * BOUND + BOUND / 2);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Await {
                height: 3,
                owner: 1
            }]
        );
    }

    #[test]
    fn a_predecessors_block_is_proposed_without_publishing() {
        let mut m = HeightStateMachine::new(0, 2, 4, BOUND).resumed(2, 2);
        m.observe_published(2);
        m.observe_published(1); // decided already: ignored
        assert!(m.predecessor_published(2) && !m.predecessor_published(1));
        m.enqueue(9);
        assert_eq!(m.next_effects(), vec![Effect::Propose { height: 2 }]);
        // Winning there commits the predecessor's batch, not batch 9.
        m.observe_decided(2, false);
        assert!(
            m.predecessor_published(2),
            "the entry is not ours to answer"
        );
        m.observe_applied(2);
        assert!(!m.predecessor_published(2));
        assert_eq!(m.pending_len(), 1);
        m.observe_waiting(3, true, Duration::ZERO);
        assert_eq!(
            m.next_effects(),
            vec![Effect::Publish {
                height: 3,
                batch: 9
            }]
        );
    }
}
