//! Set-associative caches with LRU replacement.
//!
//! The timing model gives each core a private L1 (instruction and data)
//! backed by a shared L2 — the paper's CMP memory system, where the L2
//! holds architected state and L1s hold speculative per-core data (which
//! is why a squash invalidates the squashed core's L1).
//!
//! # Representation
//!
//! A line is a `(tag, stamp)` pair. Lines sit in flat, zero-initialised
//! blocks of `BLOCK_SETS` sets, `ways` lines per set: set `s` is
//! `blocks[s / BLOCK_SETS][(s % BLOCK_SETS) * ways..][..ways]`. The tag
//! is the whole line address (`addr >> log2(line_bytes)`); the set index
//! is its low bits (`line & (sets - 1)`), so the set count must be a
//! power of two and nothing on the access path divides.
//!
//! The stamp is the access tick that last touched the line, and it also
//! carries validity: a line is valid iff its stamp is later than the
//! *epoch*, the tick of the last [`Cache::invalidate_all`]. Invalidating
//! therefore moves the epoch up to the current tick and touches no line,
//! and a line that was never filled (stamp 0) is never valid.
//!
//! # Replacement
//!
//! * A hit makes its line most-recently-used: it is stamped with the
//!   current tick.
//! * A miss fills the first invalid way in way order, else the
//!   least-recently-used way (the smallest stamp).
//!
//! The cache also remembers the line of the previous access. Until the
//! next access to another line, or the next invalidation, that line is
//! resident and the most recently used of its set, so a repeat access is
//! a hit without a set lookup. It is not re-stamped either: no other line
//! is touched meanwhile, so the LRU order a new stamp would give is the
//! order the set already has.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// A 16 KiB, 2-way, 64 B-line L1 (the reference configuration).
    #[must_use]
    pub fn l1_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 << 10,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// A 1 MiB, 8-way, 64 B-line shared L2.
    #[must_use]
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 1 << 20,
            ways: 8,
            line_bytes: 64,
        }
    }

    fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Sets per block of lines. An L1 is one block; the default L2 is eight
/// blocks of 32 KiB. Blocks, not one array: a 256 KiB allocation does not
/// fit the free heap the rest of a run leaves behind, and measured about
/// 0.1 MB more peak resident memory in the benchmark.
const BLOCK_SETS: usize = 256;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// Line address (`addr >> line_shift`).
    tag: u64,
    /// Tick of the last access to this line; valid iff after the epoch.
    stamp: u64,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (zero if never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, allocate-on-miss cache model.
///
/// Only hit/miss behaviour is modelled (no data storage — the machine
/// state lives elsewhere); this is a latency model, exactly what the
/// timing simulation needs. The module docs describe the representation
/// and the replacement rule.
///
/// # Examples
///
/// ```
/// use mssp_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1_default());
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1008));  // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `BLOCK_SETS` sets of `ways` lines each (fewer if the cache is
    /// smaller).
    blocks: Vec<Box<[Line]>>,
    line_shift: u32,
    set_mask: u64,
    /// Incremented by every access that looks up a set.
    tick: u64,
    /// `tick` at the last `invalidate_all`; stamps up to it are invalid.
    epoch: u64,
    /// Line address of the previous access, while it is still resident.
    last_line: Option<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, the geometry is
    /// degenerate, or the set count (`size_bytes / line_bytes / ways`) is
    /// not a power of two.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0 && config.size_bytes >= config.line_bytes * config.ways);
        let sets = config.num_sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, not {sets}"
        );
        let block_sets = sets.min(BLOCK_SETS);
        Cache {
            config,
            blocks: (0..sets / block_sets)
                .map(|_| vec![Line::default(); block_sets * config.ways].into_boxed_slice())
                .collect(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            tick: 0,
            epoch: 0,
            last_line: None,
            stats: CacheStats::default(),
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit. A miss
    /// allocates the line (evicting LRU).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = Some(line);
        self.lookup(line)
    }

    #[inline]
    fn lookup(&mut self, line: u64) -> bool {
        self.tick += 1;
        let ways = self.config.ways;
        let set = (line & self.set_mask) as usize;
        let first = set % BLOCK_SETS * ways;
        let lines = &mut self.blocks[set / BLOCK_SETS][first..first + ways];
        // Recency past the epoch: 0 for an invalid line, else ordered as
        // the stamps are. The victim is the first way of least recency.
        let mut victim = 0;
        let mut victim_recency = u64::MAX;
        for (way, l) in lines.iter_mut().enumerate() {
            let recency = l.stamp.saturating_sub(self.epoch);
            if recency != 0 && l.tag == line {
                l.stamp = self.tick;
                self.stats.hits += 1;
                return true;
            }
            if recency < victim_recency {
                victim = way;
                victim_recency = recency;
            }
        }
        self.stats.misses += 1;
        lines[victim] = Line {
            tag: line,
            stamp: self.tick,
        };
        false
    }

    /// Invalidates every line (used when a core's speculative state is
    /// squashed). O(1): it moves the epoch, not the lines.
    pub fn invalidate_all(&mut self) {
        self.epoch = self.tick;
        self.last_line = None;
    }

    /// Access counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        for off in 1..64 {
            assert!(c.access(0x100 + off));
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 63);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line indices 0, 2, 4 (2 sets).
        assert!(!c.access(0));
        assert!(!c.access(2 * 64));
        assert!(c.access(0)); // touch 0: now 2 is LRU
        assert!(!c.access(4 * 64)); // evicts 2
        assert!(c.access(0)); // 0 still resident
        assert!(!c.access(2 * 64)); // 2 was evicted
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        assert!(!c.access(0)); // set 0
        assert!(!c.access(64)); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn invalidate_all_forces_misses() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.access(0x40));
        c.invalidate_all();
        assert!(!c.access(0x40));
    }

    #[test]
    fn invalidated_lines_neither_hit_nor_occupy_ways() {
        let mut c = tiny();
        // Fill both ways of set 0, then invalidate: two new lines fit
        // without evicting each other, and the old ones are gone.
        assert!(!c.access(0));
        assert!(!c.access(2 * 64));
        c.invalidate_all();
        assert!(!c.access(4 * 64));
        assert!(!c.access(6 * 64));
        assert!(c.access(4 * 64));
        assert!(c.access(6 * 64));
        assert!(!c.access(0));
        assert_eq!(c.stats().misses, 5);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn three_sets_are_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2,
            line_bytes: 64,
        });
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(64 * 1024);
        let s = c.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_configs_are_sane() {
        let l1 = Cache::new(CacheConfig::l1_default());
        let l2 = Cache::new(CacheConfig::l2_default());
        assert!(l1.config().size_bytes < l2.config().size_bytes);
    }
}
