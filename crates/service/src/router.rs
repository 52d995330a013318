//! The deterministic key → shard router.
//!
//! The service tiles one register space into shard regions; the router
//! is the *only* thing deciding which region a key's operations land in,
//! so it must be **total** (every key routes) and **stable** (the same
//! key always routes to the same shard — otherwise two operations on one
//! key could run through different consensus logs and lose their order).
//! A seeded SplitMix64 finalizer gives both plus a uniform spread without
//! any shared state: the router is a pure function, cheap enough to call
//! on every operation from every worker.

/// SplitMix64's output finalizer: a bijective avalanche over `u64`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pure, seeded key → shard map. `Copy`, no state: every worker holds
/// the same router by value and always agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Router {
    shards: u64,
    seed: u64,
}

impl Router {
    /// A router over `shards` shards, mixed with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(shards: usize, seed: u64) -> Router {
        assert!(shards > 0, "route to at least one shard");
        Router {
            shards: shards as u64,
            seed,
        }
    }

    /// Number of shards routed to.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `key` — total and stable by construction.
    pub fn route(&self, key: u64) -> usize {
        (splitmix64(key ^ self.seed) % self.shards) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_stable_and_in_range() {
        let r = Router::new(5, 42);
        for key in 0..10_000u64 {
            let s = r.route(key);
            assert!(s < 5);
            assert_eq!(s, r.route(key), "routing must be stable");
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let r = Router::new(4, 7);
        let mut counts = [0u64; 4];
        for key in 0..40_000u64 {
            counts[r.route(key)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn seed_changes_the_map() {
        let a = Router::new(8, 1);
        let b = Router::new(8, 2);
        let moved = (0..1_000u64).filter(|&k| a.route(k) != b.route(k)).count();
        assert!(moved > 500, "seeds should reshuffle most keys");
    }
}
