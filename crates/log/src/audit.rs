//! Applied-prefix auditing: the quiescent ground truth that every
//! replica of the log converged to the same applied prefix.
//!
//! The registers are the ground truth: replaying `decision(h)` and the
//! winning arenas from height 0 reconstructs the one canonical entry
//! sequence ([`crate::ReplicatedLog::truth`]). Every applier — worker,
//! replica, or mutant — records the [`AppliedEntry`] trail of what it
//! *actually* applied, and [`LogAudit`] checks each trail is an
//! in-order prefix of the canonical sequence. The chained digest makes
//! the check O(1) per entry and order-sensitive: applying the right
//! entries in the wrong order produces the wrong digest.

/// One entry as applied by some log applier, with the applier's chained
/// prefix digest *after* the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedEntry {
    /// The log height this entry occupies.
    pub height: u64,
    /// The proposer whose batch won the height.
    pub winner: usize,
    /// Chained applied-prefix digest after this entry: equal across
    /// appliers iff they applied identical entries in identical order.
    pub digest: u64,
}

/// SplitMix64's finalizer — a cheap, well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Extends the chained applied-prefix digest by one committed entry.
///
/// The chain makes order matter: `chain(chain(0, a), b)` and
/// `chain(chain(0, b), a)` differ, so an out-of-order applier's digest
/// diverges from every correct applier's at the first swapped entry.
pub fn chain_digest(prev: u64, height: u64, winner: u64, ops: &[u64]) -> u64 {
    let mut d = mix(prev ^ mix(height.wrapping_add(1)) ^ mix(winner.wrapping_add(0x77)));
    for &op in ops {
        d = mix(d ^ mix(op.wrapping_add(1)));
    }
    d
}

/// The audit verdict: every applier trail compared against the
/// register-reconstructed canonical sequence.
#[derive(Debug, Clone)]
pub struct LogAudit {
    /// Heights decided, from height 0 up to the first undecided height.
    pub heights_decided: u64,
    /// The canonical entry sequence replayed from the registers.
    pub truth: Vec<AppliedEntry>,
    /// Applied prefix length of each audited lane.
    pub prefixes: Vec<u64>,
    /// Every lane applied heights `0, 1, 2, …` with no skip or swap.
    pub in_order: bool,
    /// First mismatch between some lane and the canonical sequence
    /// (`None` = all lanes are exact prefixes of the truth).
    pub divergence: Option<String>,
    /// Total operations committed across all decided heights.
    pub total_ops: u64,
}

impl LogAudit {
    /// The convergence verdict: every audited applier's trail is an
    /// in-order prefix of the canonical applied sequence.
    pub fn converged(&self) -> bool {
        self.in_order && self.divergence.is_none()
    }

    /// Checks `lanes` against the canonical sequence `truth`.
    pub fn check(truth: Vec<AppliedEntry>, total_ops: u64, lanes: &[&[AppliedEntry]]) -> LogAudit {
        let mut in_order = true;
        let mut divergence = None;
        let mut prefixes = Vec::with_capacity(lanes.len());
        for (lane, applied) in lanes.iter().enumerate() {
            prefixes.push(applied.len() as u64);
            for (i, entry) in applied.iter().enumerate() {
                if entry.height != i as u64 {
                    in_order = false;
                    divergence.get_or_insert_with(|| {
                        format!(
                            "lane {lane} applied height {} at position {i} (expected height {i})",
                            entry.height
                        )
                    });
                    break;
                }
                match truth.get(i) {
                    Some(t) if t == entry => {}
                    Some(t) => {
                        divergence.get_or_insert_with(|| {
                            format!(
                                "lane {lane} diverges at height {i}: applied \
                                 (winner p{}, digest {:#x}) but the log committed \
                                 (winner p{}, digest {:#x})",
                                entry.winner, entry.digest, t.winner, t.digest
                            )
                        });
                        break;
                    }
                    None => {
                        divergence.get_or_insert_with(|| {
                            format!("lane {lane} applied undecided height {i}")
                        });
                        break;
                    }
                }
            }
        }
        LogAudit {
            heights_decided: truth.len() as u64,
            truth,
            prefixes,
            in_order,
            divergence,
            total_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(n: u64) -> Vec<AppliedEntry> {
        let mut d = 0;
        (0..n)
            .map(|h| {
                d = chain_digest(d, h, h % 3, &[h + 1, h + 2]);
                AppliedEntry {
                    height: h,
                    winner: (h % 3) as usize,
                    digest: d,
                }
            })
            .collect()
    }

    #[test]
    fn identical_prefixes_converge() {
        let t = truth(5);
        let short = &t[..3];
        let audit = LogAudit::check(t.clone(), 10, &[&t, short]);
        assert!(audit.converged());
        assert_eq!(audit.prefixes, vec![5, 3]);
        assert_eq!(audit.heights_decided, 5);
    }

    #[test]
    fn swapped_entries_are_flagged_as_out_of_order() {
        let t = truth(4);
        let mut bad = t.clone();
        bad.swap(1, 2);
        let audit = LogAudit::check(t, 8, &[&bad]);
        assert!(!audit.converged());
        assert!(!audit.in_order);
    }

    #[test]
    fn wrong_digest_at_a_height_is_divergence() {
        let t = truth(4);
        let mut bad = t.clone();
        bad[2].digest ^= 1;
        let audit = LogAudit::check(t, 8, &[&bad]);
        assert!(audit.in_order, "heights are still sequential");
        assert!(audit.divergence.is_some());
        assert!(!audit.converged());
    }

    #[test]
    fn chain_digest_is_order_sensitive() {
        let a = chain_digest(chain_digest(0, 0, 1, &[5]), 1, 2, &[6]);
        let b = chain_digest(chain_digest(0, 1, 2, &[6]), 0, 1, &[5]);
        assert_ne!(a, b, "swapping entry order must change the digest");
        assert_ne!(
            chain_digest(0, 0, 1, &[5, 6]),
            chain_digest(0, 0, 1, &[6, 5]),
            "swapping op order within a batch must change the digest"
        );
    }
}
