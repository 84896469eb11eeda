//! # mssp-testkit
//!
//! Zero-dependency deterministic randomness and a tiny case-runner for
//! the workspace's property tests. The container this repository builds
//! in has no network access and no vendored crate registry, so the test
//! suites cannot depend on `proptest`/`rand`; this crate provides the
//! small slice of that functionality the suites actually use, with
//! fully reproducible seeding (a failing case prints its seed, and
//! re-running with that seed reproduces it exactly).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// SplitMix64 passes BigCrush, needs only one `u64` of state, and is
/// trivially seedable — exactly what seeded property tests want. It is
/// **not** cryptographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        let span = hi - lo;
        // Rejection sampling over the widest multiple of `span` to avoid
        // modulo bias; one iteration almost always suffices.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Returns a value uniformly distributed in `lo..hi` as `usize`.
    pub fn gen_index(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.gen_range(lo as u64, hi as u64)).expect("range fits usize")
    }

    /// Returns `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn gen_bool(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0, "gen_bool: zero denominator");
        self.gen_range(0, den) < num
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.gen_index(0, items.len())]
    }
}

/// Runs `body` for `cases` seeded cases derived from `base_seed`.
///
/// Each case gets its own [`Rng`] whose seed is printed on panic, so a
/// failure message like `seed 0xDEAD...` can be replayed by running `body`
/// on `Rng::new(0xDEAD...)`.
pub fn check<F: FnMut(&mut Rng)>(base_seed: u64, cases: u32, mut body: F) {
    let mut root = Rng::new(base_seed);
    for case in 0..cases {
        let seed = root.next_u64();
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("testkit: case {case} failed; replay with seed {seed:#018x}");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10, 17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_index(0, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn check_replays_by_seed() {
        let mut first = Vec::new();
        check(1234, 5, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        check(1234, 5, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }
}
