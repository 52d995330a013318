//! Seeded combiner bugs — the teeth check for under-load sampling.
//!
//! A verification layer is only trustworthy if it *rejects* broken
//! implementations, so the load harness can run the real service with
//! one of two deliberately buggy hand-backs and feed the same windowed
//! sampler. Both bugs are faults in how a worker answers its clients
//! after [`ServiceWorker::drive`](crate::ServiceWorker::drive) committed
//! a real burst through consensus; the service itself is untouched.
//!
//! * [`CombinerKind::Reordering`] — per key, hands the burst's real
//!   responses back in reverse order, the classic combiner bug of
//!   walking the announce array in one order and the response array in
//!   another. The service applied the ops in announce order, so the
//!   final state is perfectly correct — a state audit sees nothing — but
//!   two same-key operations with distinct amounts get each other's
//!   running totals, which no linearization order can explain.
//! * [`CombinerKind::LostOp`] — announces one operation (the first
//!   sampled one on a worker-exclusive key in round 0, once across all
//!   workers) with its amount withheld, then *answers as if it
//!   applied*. Locally the made-up response is plausible; the lie only
//!   surfaces because every later response on that key is short by the
//!   lost amount — the lost-update anomaly the sampler exists to catch.
//!
//! Both bugs are deterministic under a fixed [`crate::load::LoadConfig`]
//! and both are invisible to per-operation spot checks: they need
//! *histories* checked against a sequential model, which is exactly what
//! the windowed sampler does. The tests in [`crate::load`] prove the
//! sampler accepts the real batcher and rejects both mutants.

use crate::service::OpResponse;
use std::collections::BTreeMap;

/// Which batching implementation the load harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinerKind {
    /// The real path: announce bursts into the shard's universal log and
    /// let one consensus decision commit the whole batch.
    FlatCombining,
    /// The baseline: batching off (`max_batch = 1`, burst of 1) — one
    /// consensus decision per operation. The denominator of the
    /// flat-combining speedup claim.
    PerOp,
    /// Mutant: the real batch commits, but same-key responses are
    /// handed back crossed (reverse order per key).
    Reordering,
    /// Mutant: one operation is announced with its amount withheld but
    /// answered as if it applied.
    LostOp,
}

impl CombinerKind {
    /// Stable display name (used in reports and bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            CombinerKind::FlatCombining => "flat-combining",
            CombinerKind::PerOp => "per-op",
            CombinerKind::Reordering => "reordering",
            CombinerKind::LostOp => "lost-op",
        }
    }
}

/// The reordering bug: within each key, hands the burst's responses
/// back in reverse order. `done` is one burst's responses in enqueue
/// order.
pub(crate) fn reverse_responses_per_key(done: &mut [OpResponse]) {
    let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, op) in done.iter().enumerate() {
        by_key.entry(op.key).or_default().push(i);
    }
    for idxs in by_key.values() {
        let resps: Vec<u64> = idxs.iter().map(|&i| done[i].resp).collect();
        for (&i, resp) in idxs.iter().zip(resps.into_iter().rev()) {
            done[i].resp = resp;
        }
    }
}

/// The lost-op bug's announce half: zeroes the amount of the first op
/// whose key is `eligible` and returns its burst index and the withheld
/// amount.
pub(crate) fn withhold_first(
    batch: &mut [(u64, u64)],
    eligible: impl Fn(u64) -> bool,
) -> Option<(usize, u64)> {
    let i = batch.iter().position(|&(key, _)| eligible(key))?;
    Some((i, std::mem::take(&mut batch[i].1)))
}

/// The lost-op bug's hand-back half: answers the withheld op as if its
/// amount had applied on top of the real response.
pub(crate) fn answer_withheld(done: &mut [OpResponse], (i, amount): (usize, u64)) {
    done[i].resp += amount;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(ops: &[(u64, u64)]) -> Vec<OpResponse> {
        ops.iter()
            .enumerate()
            .map(|(pos, &(key, resp))| OpResponse {
                pos: pos as u64,
                key,
                shard: 0,
                resp,
            })
            .collect()
    }

    fn resps(done: &[OpResponse]) -> Vec<u64> {
        done.iter().map(|op| op.resp).collect()
    }

    #[test]
    fn reordering_crosses_same_key_responses_only() {
        // Key 7 applied +2 then +3 (responses 2, 5); key 9 applied +1.
        let mut done = burst(&[(7, 2), (9, 1), (7, 5)]);
        reverse_responses_per_key(&mut done);
        // The +2 op now reports 5 and the +3 op 2 — impossible under any
        // order of {+2, +3} — while the lone key-9 op is untouched.
        assert_eq!(resps(&done), [5, 1, 2]);
        assert_eq!(
            done.iter().map(|op| op.key).collect::<Vec<_>>(),
            [7, 9, 7],
            "only responses move"
        );
    }

    #[test]
    fn lost_op_withholds_one_amount_and_answers_plausibly() {
        let mut batch = [(0, 4), (4, 2), (4, 3)];
        let withheld = withhold_first(&mut batch, |key| key != 0).expect("key 4 is eligible");
        assert_eq!(withheld, (1, 2), "the first eligible op, amount 2");
        assert_eq!(batch, [(0, 4), (4, 0), (4, 3)], "announced as a no-op");
        // The service answers the no-op with the running total (0) and
        // the next op with 0 + 3; the victim is told 0 + 2.
        let mut done = burst(&[(0, 4), (4, 0), (4, 3)]);
        answer_withheld(&mut done, withheld);
        assert_eq!(resps(&done), [4, 2, 3], "the later op is short by 2");
    }

    #[test]
    fn no_eligible_op_withholds_nothing() {
        let mut batch = [(0, 4), (1, 2)];
        assert_eq!(withhold_first(&mut batch, |key| key > 1), None);
        assert_eq!(batch, [(0, 4), (1, 2)]);
    }
}
