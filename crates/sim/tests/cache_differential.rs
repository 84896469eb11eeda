//! `Cache` against a reference LRU cache written the plain way: a
//! `Vec` of sets of `(tag, valid, lru)` lines, set and tag by `/` and
//! `%`, invalidation by clearing every valid bit. Both see the same
//! seeded address streams (sequential runs, repeats of one line, strided
//! conflicts within a set, random addresses) with `invalidate_all`
//! interleaved, and must agree on every access and on the final counters.

use mssp_sim::{Cache, CacheConfig, CacheStats};
use mssp_testkit::{check, Rng};

/// The reference: set-associative LRU, allocate on miss.
struct Reference {
    line_bytes: u64,
    sets: Vec<Vec<(u64, bool, u64)>>,
    tick: u64,
    stats: CacheStats,
}

impl Reference {
    fn new(config: CacheConfig) -> Reference {
        let sets = (config.size_bytes / config.line_bytes / config.ways).max(1);
        Reference {
            line_bytes: config.line_bytes as u64,
            sets: vec![vec![(0, false, 0); config.ways]; sets],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line_addr = addr / self.line_bytes;
        let set_idx = (line_addr % self.sets.len() as u64) as usize;
        let tag = line_addr / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.1 && l.0 == tag) {
            line.2 = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.1 { l.2 } else { 0 })
            .expect("ways > 0");
        *victim = (tag, true, self.tick);
        false
    }

    fn invalidate_all(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            line.1 = false;
        }
    }
}

/// Drives `Cache` and `Reference` with one seeded stream of `accesses`
/// accesses and compares them.
fn differential(config: CacheConfig, seed: u64, cases: u32, accesses: usize) {
    let sets = (config.size_bytes / config.line_bytes / config.ways).max(1) as u64;
    let line = config.line_bytes as u64;
    // Addresses mostly fall in a window four times the cache, at a
    // random base, so streams both hit and overflow it.
    let window = 4 * config.size_bytes as u64;
    check(seed, cases, |rng: &mut Rng| {
        let mut cache = Cache::new(config);
        let mut reference = Reference::new(config);
        let base = rng.next_u64();
        let mut recent = base;
        let mut done = 0;
        while done < accesses {
            let burst: Vec<u64> = match rng.gen_range(0, 6) {
                // A sequential run, instruction-fetch or array style.
                0 => {
                    let start = base.wrapping_add(rng.gen_range(0, window));
                    let stride = *rng.choose(&[1, 4, 8, 16]);
                    let len = rng.gen_range(1, 128);
                    (0..len).map(|i| start.wrapping_add(i * stride)).collect()
                }
                // The same line again, at any offset within it.
                1 => (0..rng.gen_range(1, 16))
                    .map(|_| (recent & !(line - 1)) | rng.gen_range(0, line))
                    .collect(),
                // As many distinct lines as ways, or up to two more, all
                // in one set.
                2 => {
                    let start = base.wrapping_add(rng.gen_range(0, window));
                    let lines = config.ways as u64 + rng.gen_range(0, 3);
                    let rounds = rng.gen_range(1, 4);
                    (0..lines * rounds)
                        .map(|i| start.wrapping_add((i % lines) * sets * line))
                        .collect()
                }
                // Random addresses in the window.
                3 => (0..rng.gen_range(1, 64))
                    .map(|_| base.wrapping_add(rng.gen_range(0, window)))
                    .collect(),
                // Anywhere at all, the top of the address space included.
                4 => vec![rng.next_u64(), u64::MAX - rng.gen_range(0, 4 * line)],
                _ => {
                    if rng.gen_bool(1, 3) {
                        cache.invalidate_all();
                        reference.invalidate_all();
                    }
                    Vec::new()
                }
            };
            for &addr in &burst {
                assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "{config:?}: access {addr:#x}"
                );
            }
            done += burst.len();
            recent = burst.last().copied().unwrap_or(recent);
        }
        assert_eq!(cache.stats(), reference.stats, "{config:?}");
    });
}

#[test]
fn l1_default_matches_reference() {
    differential(CacheConfig::l1_default(), 0x11, 24, 20_000);
}

#[test]
fn l2_default_matches_reference() {
    differential(CacheConfig::l2_default(), 0x12, 8, 60_000);
}

#[test]
fn fully_associative_matches_reference() {
    // One set of 8 ways.
    let config = CacheConfig {
        size_bytes: 8 * 64,
        ways: 8,
        line_bytes: 64,
    };
    differential(config, 0x13, 24, 20_000);
}

#[test]
fn two_sets_of_two_ways_match_reference() {
    let config = CacheConfig {
        size_bytes: 2 * 2 * 64,
        ways: 2,
        line_bytes: 64,
    };
    differential(config, 0x14, 24, 20_000);
}

#[test]
fn three_ways_match_reference() {
    // The set count must be a power of two; the way count need not be.
    let config = CacheConfig {
        size_bytes: 4 * 3 * 32,
        ways: 3,
        line_bytes: 32,
    };
    differential(config, 0x15, 24, 20_000);
}
