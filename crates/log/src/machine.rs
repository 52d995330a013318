//! The pure height state machine: all pipelining decisions, no substrate.
//!
//! Following the height/round architecture of Malachite-style consensus
//! engines, every decision about *what to do next* — publish a batch at
//! which height, apply which committed entry, stall on the pipeline
//! window — lives in a deterministic, I/O-free state machine. The
//! impure driver ([`crate::LogWorker`]) merely executes the returned
//! [`Effect`]s against the register space and feeds observations back.
//! That separation is what makes the pipelining logic unit-testable:
//! the tests below exercise window bounding, in-order application, and
//! lost-batch requeueing without a single register or thread.
//!
//! # The pipeline
//!
//! Heights are decided in order (a proposer only ever proposes at the
//! lowest height it has not seen decided), but *application lags
//! decision*: the machine allows the decision frontier to run up to
//! `window` heights ahead of the slowest applier in the cluster. With
//! `window = 1` the machine is the sequential-heights baseline — every
//! replica must apply height `h` before anyone proposes at `h + 1`.
//! With `window = w > 1`, consensus on `h + 1` overlaps the propagation
//! (replica application) of `h` — commit pipelining.

use std::collections::VecDeque;

/// An opaque handle to a batch the driver holds the payload for.
pub type BatchId = u64;

/// What the driver must do next, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Publish the payload of `batch` into this proposer's arena at
    /// `height` and propose this proposer at that height's consensus
    /// instance. The driver reports the outcome via
    /// [`HeightStateMachine::observe_decided`].
    Publish {
        /// The height to propose at (the machine's decision frontier).
        height: u64,
        /// Which pending batch rides the proposal.
        batch: BatchId,
    },
    /// Read the decision register at `height` and report a decision, if
    /// any, via [`HeightStateMachine::observe_decided`]. Emitted when
    /// the machine cannot (or need not) propose but the frontier may
    /// have been advanced by other proposers.
    Poll {
        /// The frontier height to poll.
        height: u64,
    },
    /// Apply the committed entry at `height` to the local state machine
    /// and report completion via [`HeightStateMachine::observe_applied`].
    Apply {
        /// The next unapplied height (always sequential).
        height: u64,
    },
    /// The pipeline window is full: re-read the cluster-wide applied
    /// floor (min over all ack registers) and report it via
    /// [`HeightStateMachine::observe_floor`].
    RefreshFloor,
}

/// The pure replicated-log proposer/applier state machine.
///
/// # Example
///
/// ```
/// use tfr_log::machine::{Effect, HeightStateMachine};
///
/// let mut m = HeightStateMachine::new(2); // pipeline window 2
/// m.enqueue(0);
/// m.enqueue(1);
/// // Nothing applied anywhere yet, but the window lets height 0 fly.
/// assert_eq!(m.next_effects()[0], Effect::Publish { height: 0, batch: 0 });
/// m.observe_decided(0, true); // our batch won height 0
/// assert_eq!(m.next_effects()[0], Effect::Apply { height: 0 });
/// m.observe_applied(0);
/// // The cluster floor is still 0 — no *other* applier has applied
/// // height 0 — yet the window lets height 1 fly: commit pipelining.
/// assert!(m
///     .next_effects()
///     .contains(&Effect::Publish { height: 1, batch: 1 }));
/// ```
#[derive(Debug, Clone)]
pub struct HeightStateMachine {
    /// Lowest height not known decided (the proposal frontier).
    frontier: u64,
    /// Next height to apply locally (applied prefix = `0..next_apply`).
    next_apply: u64,
    /// Last observed cluster-wide applied floor (min over ack registers).
    floor: u64,
    /// Max heights the frontier may run ahead of the floor (≥ 1).
    window: u64,
    /// Batches announced by the client, not yet committed. The front
    /// batch rides every proposal until it wins a height.
    pending: VecDeque<BatchId>,
}

impl HeightStateMachine {
    /// A machine with the given pipeline window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (window 1 is the sequential baseline).
    pub fn new(window: u64) -> HeightStateMachine {
        assert!(window > 0, "a zero window can never commit anything");
        HeightStateMachine {
            frontier: 0,
            next_apply: 0,
            floor: 0,
            window,
            pending: VecDeque::new(),
        }
    }

    /// Resumes a machine from a recovered register scan: `frontier`
    /// heights are known decided and `applied` of them already applied
    /// locally (a fresh incarnation replays the registers, then resumes
    /// here with an empty pending queue).
    pub fn resumed(window: u64, frontier: u64, applied: u64) -> HeightStateMachine {
        assert!(
            applied <= frontier,
            "cannot have applied an undecided height"
        );
        let mut m = HeightStateMachine::new(window);
        m.frontier = frontier;
        m.next_apply = applied;
        m
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

    /// The driver observed the cluster-wide applied floor (min over all
    /// appliers' ack registers, including this one).
    pub fn observe_floor(&mut self, floor: u64) {
        // The floor is monotone; a stale read can only lower it, and
        // lowering would re-tighten the window for no reason.
        self.floor = self.floor.max(floor);
    }

    /// The driver observed that `height` is decided; `won` says whether
    /// this proposer's front batch is the winner. Heights are observed
    /// in order (the driver polls/proposes only at the frontier).
    ///
    /// # Panics
    ///
    /// Panics if `height` is not the frontier — the driver must never
    /// skip a height, that is the prefix-order contract.
    pub fn observe_decided(&mut self, height: u64, won: bool) {
        assert_eq!(
            height, self.frontier,
            "decisions must be observed in height order"
        );
        self.frontier += 1;
        if won {
            self.pending
                .pop_front()
                .expect("won a height with no batch in flight");
        }
        // A lost front batch stays queued and rides the next proposal.
    }

    /// The driver finished applying `height` locally.
    ///
    /// # Panics
    ///
    /// Panics if `height` is out of order — application is strictly
    /// sequential, that is the safety argument for pipelining.
    pub fn observe_applied(&mut self, height: u64) {
        assert_eq!(height, self.next_apply, "entries apply in height order");
        self.next_apply += 1;
    }

    /// What the driver should do now, in order. Pure: no observation, no
    /// I/O — call again after feeding observations back.
    pub fn next_effects(&self) -> Vec<Effect> {
        let mut effects = Vec::new();
        // Apply anything decided-but-unapplied first: application keeps
        // the cluster floor moving and never blocks on the window.
        if self.next_apply < self.frontier {
            effects.push(Effect::Apply {
                height: self.next_apply,
            });
            return effects;
        }
        // Propose only inside the pipeline window. The frontier may run
        // at most `window` heights past the slowest applier: with
        // window 1, every replica must finish h before h+1 starts
        // (sequential heights); larger windows overlap consensus on
        // h+1 with the propagation of h.
        if !self.pending.is_empty() {
            if self.frontier < self.floor + self.window {
                effects.push(Effect::Publish {
                    height: self.frontier,
                    batch: *self.pending.front().expect("checked nonempty"),
                });
            } else {
                effects.push(Effect::RefreshFloor);
            }
            return effects;
        }
        // Nothing to propose: watch the frontier for other proposers'
        // decisions so this applier keeps replicating.
        effects.push(Effect::Poll {
            height: self.frontier,
        });
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    Effect::Poll { .. } => {}
                }
            }
        }
        max_depth
    }

    #[test]
    fn window_bounds_in_flight_depth() {
        for window in 1..=4u64 {
            let m = HeightStateMachine::new(window);
            let depth = drive_to_completion(m, 12, 2);
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
        let m = HeightStateMachine::new(1);
        assert_eq!(drive_to_completion(m, 8, 0), 1);
    }

    #[test]
    fn pipelined_window_actually_pipelines() {
        // With a laggy applier and window 3, the machine must drive the
        // frontier ahead of the floor — that is the whole point.
        let m = HeightStateMachine::new(3);
        let depth = drive_to_completion(m, 12, 2);
        assert!(depth >= 2, "pipelining never engaged (depth {depth})");
    }

    #[test]
    fn applies_are_strictly_sequential() {
        let mut m = HeightStateMachine::new(4);
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
        let mut m = HeightStateMachine::new(4);
        m.enqueue(0);
        m.observe_decided(0, true);
        m.observe_applied(1); // skips height 0
    }

    #[test]
    fn lost_batch_rides_the_next_proposal() {
        let mut m = HeightStateMachine::new(8);
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
        let mut m = HeightStateMachine::new(1);
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
        let m = HeightStateMachine::new(2);
        assert_eq!(m.next_effects(), vec![Effect::Poll { height: 0 }]);
    }

    #[test]
    fn resumed_machine_starts_at_the_recovered_prefix() {
        let m = HeightStateMachine::resumed(2, 5, 5);
        assert_eq!(m.frontier(), 5);
        assert_eq!(m.applied(), 5);
        assert_eq!(m.next_effects(), vec![Effect::Poll { height: 5 }]);
    }

    #[test]
    fn floor_is_monotone_under_stale_reads() {
        let mut m = HeightStateMachine::new(2);
        m.observe_floor(4);
        m.observe_floor(2); // a stale ack-register scan
        m.enqueue(0);
        // Frontier 0 < floor 4 + window: still proposable, the stale
        // read did not re-tighten the window.
        assert!(matches!(m.next_effects()[0], Effect::Publish { .. }));
    }
}
