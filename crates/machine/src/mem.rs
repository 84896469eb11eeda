//! Sparse word-addressed memory.
//!
//! Memory is stored as 4 KiB pages (512 × 64-bit words) allocated on first
//! write. Unwritten memory reads as zero, which keeps the sequential
//! reference machine total and deterministic even when a mis-steered MSSP
//! slave wanders into unmapped addresses.
//!
//! # Layout for multi-threaded readers
//!
//! The threaded executor shares one base snapshot across every worker
//! while the coordinator keeps mutating its own architected copy, so two
//! properties matter beyond the single-threaded case:
//!
//! * **Pages are cache-line aligned.** [`Page`] is `#[repr(align(64))]`,
//!   which (a) keeps page data from straddling a line boundary shared
//!   with unrelated heap objects and (b) pushes the `Arc` refcount
//!   header onto its *own* line — a coordinator bumping refcounts while
//!   cloning a snapshot never write-shares a line with workers streaming
//!   page data.
//! * **The page table is striped.** Pages are spread across
//!   [`STRIPES`] independent, line-padded hash maps keyed by the low
//!   bits of the page index, so concurrent readers of *different* pages
//!   walk different map allocations instead of contending on one table's
//!   buckets.
//!
//! # The lookup
//!
//! Every load and store of every machine in the workspace — the
//! sequential reference, the master's private state, a slave's
//! fall-through to architected state, each live-in compare and each
//! committed write — finds its page here, so the stripes hash a page
//! index with one multiply and a fold ([`PageHasher`]) instead of the
//! standard library's keyed SipHash. The keys are page indices of a
//! simulated program, not input an attacker shapes, and a degenerate
//! distribution costs probe length, never correctness. The hasher decides
//! only the bucket *within* a stripe's map — the stripe still comes from
//! the low bits of the page index and a page is still one aligned `Arc`
//! allocation — so the two layout properties above do not depend on it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Words per page (4 KiB pages).
const PAGE_WORDS: u64 = 512;

/// Number of independent page-table stripes (power of two).
const STRIPES: usize = 8;

/// One 4 KiB page, aligned to a cache line so the page data — and the
/// `Arc` header in front of it — never share a line with neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(align(64))]
struct Page {
    words: [u64; PAGE_WORDS as usize],
}

impl Page {
    fn zeroed() -> Page {
        Page {
            words: [0; PAGE_WORDS as usize],
        }
    }
}

/// Hashes one page index: a multiply spreads it over the high bits (which
/// pick the map's control byte), and folding the high half onto the low
/// one carries that to the bits that pick the bucket — within a stripe
/// the low bits of every key are the same.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a page index is hashed as one u64");
    }

    #[inline]
    fn write_u64(&mut self, page_idx: u64) {
        let spread = page_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = spread ^ (spread >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One page-table stripe, padded to a cache line so adjacent stripes can
/// be touched by different threads without false sharing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[repr(align(64))]
struct Stripe {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

/// Sparse 64-bit-word-addressed memory with zero-fill semantics.
///
/// Addresses used with this type are *word indices* (byte address / 8); the
/// byte-granular view lives in [`crate::Storage`]'s helper methods.
///
/// Pages are reference-counted and copied on write, so cloning a
/// `SparseMem` (the MSSP master snapshots architected state at every
/// restart) costs one refcount bump per resident page.
///
/// # Examples
///
/// ```
/// use mssp_machine::SparseMem;
///
/// let mut m = SparseMem::new();
/// assert_eq!(m.load(123), 0);
/// m.store(123, 0xABCD);
/// assert_eq!(m.load(123), 0xABCD);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMem {
    stripes: [Stripe; STRIPES],
}

impl Default for SparseMem {
    fn default() -> SparseMem {
        SparseMem {
            stripes: std::array::from_fn(|_| Stripe::default()),
        }
    }
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    #[inline]
    fn stripe_of(page_idx: u64) -> usize {
        (page_idx as usize) & (STRIPES - 1)
    }

    /// Loads the word at word index `widx` (zero if never written).
    #[must_use]
    #[inline]
    pub fn load(&self, widx: u64) -> u64 {
        let page_idx = widx / PAGE_WORDS;
        match self.stripes[Self::stripe_of(page_idx)].pages.get(&page_idx) {
            Some(page) => page.words[(widx % PAGE_WORDS) as usize],
            None => 0,
        }
    }

    /// Stores `value` at word index `widx`.
    #[inline]
    pub fn store(&mut self, widx: u64, value: u64) {
        let page_idx = widx / PAGE_WORDS;
        let page = self.stripes[Self::stripe_of(page_idx)]
            .pages
            .entry(page_idx)
            .or_insert_with(|| Arc::new(Page::zeroed()));
        Arc::make_mut(page).words[(widx % PAGE_WORDS) as usize] = value;
    }

    /// Copies a byte image into memory starting at byte address `base`.
    ///
    /// Used to load a program's data segment. Bytes are placed
    /// little-endian within each word, matching the ISA's byte order.
    pub fn write_image(&mut self, base: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let addr = base + i as u64;
            let widx = addr >> 3;
            let shift = (addr & 7) * 8;
            let old = self.load(widx);
            let cleared = old & !(0xFFu64 << shift);
            self.store(widx, cleared | ((b as u64) << shift));
        }
    }

    /// Reads one byte at byte address `addr`.
    #[must_use]
    pub fn read_byte(&self, addr: u64) -> u8 {
        let word = self.load(addr >> 3);
        (word >> ((addr & 7) * 8)) as u8
    }

    /// Reads `len` bytes starting at byte address `base`.
    #[must_use]
    pub fn read_bytes(&self, base: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.read_byte(base + i)).collect()
    }

    /// Number of resident (allocated) pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.stripes.iter().map(|s| s.pages.len()).sum()
    }

    /// Number of pages physically shared (same allocation) with `other`.
    ///
    /// This is the observable form of the copy-on-write guarantee that
    /// makes snapshot publication cheap: cloning a `SparseMem` shares
    /// every resident page, and a store after the clone unshares only the
    /// page it touches — so publishing a fresh snapshot per commit costs
    /// O(pages written since the last snapshot), not O(total state).
    #[must_use]
    pub fn shared_pages_with(&self, other: &SparseMem) -> usize {
        self.stripes
            .iter()
            .zip(other.stripes.iter())
            .map(|(a, b)| {
                a.pages
                    .iter()
                    .filter(|(k, p)| b.pages.get(k).is_some_and(|q| Arc::ptr_eq(p, q)))
                    .count()
            })
            .sum()
    }

    /// Iterates over all words ever written (including those re-written to
    /// zero), as `(word_index, value)` pairs in unspecified order.
    pub fn iter_words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.stripes.iter().flat_map(|s| {
            s.pages.iter().flat_map(|(p, page)| {
                let base = p * PAGE_WORDS;
                page.words
                    .iter()
                    .enumerate()
                    .map(move |(i, &v)| (base + i as u64, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMem::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(u64::MAX / 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn store_load_round_trip_across_pages() {
        let mut m = SparseMem::new();
        for i in 0..2000u64 {
            m.store(i * 37, i);
        }
        for i in 0..2000u64 {
            assert_eq!(m.load(i * 37), i);
        }
        assert!(m.resident_pages() > 1);
    }

    #[test]
    fn write_image_is_little_endian() {
        let mut m = SparseMem::new();
        m.write_image(0x100, &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        assert_eq!(m.load(0x100 >> 3), 0x8877_6655_4433_2211);
    }

    #[test]
    fn write_image_handles_unaligned_base() {
        let mut m = SparseMem::new();
        m.store(0x20, u64::MAX);
        m.write_image(0x103, &[0xAB]);
        assert_eq!(m.read_byte(0x103), 0xAB);
        // Neighbouring bytes of the pre-existing word are preserved.
        assert_eq!(m.read_byte(0x102), 0xFF);
        assert_eq!(m.read_byte(0x104), 0xFF);
    }

    #[test]
    fn clone_shares_every_page() {
        let mut m = SparseMem::new();
        for i in 0..10u64 {
            m.store(i * PAGE_WORDS, i + 1);
        }
        let snap = m.clone();
        assert_eq!(snap.shared_pages_with(&m), m.resident_pages());
    }

    #[test]
    fn store_after_clone_unshares_only_the_touched_page() {
        let mut m = SparseMem::new();
        for i in 0..10u64 {
            m.store(i * PAGE_WORDS, i + 1);
        }
        let snap = m.clone();
        m.store(3 * PAGE_WORDS + 5, 99);
        // Exactly one page diverged; the snapshot still reads old data.
        assert_eq!(snap.shared_pages_with(&m), m.resident_pages() - 1);
        assert_eq!(snap.load(3 * PAGE_WORDS + 5), 0);
        assert_eq!(m.load(3 * PAGE_WORDS + 5), 99);
    }

    #[test]
    fn read_bytes_spans_words() {
        let mut m = SparseMem::new();
        m.write_image(0, b"abcdefghij");
        assert_eq!(m.read_bytes(2, 6), b"cdefgh");
    }

    #[test]
    fn pages_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Page>(), 64);
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
        // The Arc payload itself lands on a line boundary, which forces
        // the refcount header onto the preceding (separate) line.
        let mut m = SparseMem::new();
        m.store(0, 1);
        let page = m.stripes[0].pages.get(&0).unwrap();
        assert_eq!(Arc::as_ptr(page) as usize % 64, 0);
    }

    #[test]
    fn random_stores_loads_and_clones_follow_a_map_model() {
        use std::collections::{BTreeMap, BTreeSet};
        // Pages that share a stripe, pages that differ only above bit 32
        // of the page index, neighbours, and the ends of the range.
        let mut pages: Vec<u64> = (0..6).collect();
        pages.extend((1..6).map(|i| i * STRIPES as u64));
        pages.extend((1..6).map(|i| i << 32));
        pages.extend((1..4).map(|i| (i << 32) + STRIPES as u64));
        pages.extend([
            u64::MAX / PAGE_WORDS,
            u64::MAX / PAGE_WORDS - STRIPES as u64,
        ]);
        mssp_testkit::check(0x5AA5_E001, 20, |rng| {
            let mut mem = SparseMem::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            // An older clone, what it held, and the pages stored to since.
            let mut snapshot: Option<(SparseMem, BTreeMap<u64, u64>)> = None;
            let mut dirtied: BTreeSet<u64> = BTreeSet::new();
            let arb_word = |rng: &mut mssp_testkit::Rng| {
                rng.choose(&pages) * PAGE_WORDS + rng.gen_range(0, 4) * (PAGE_WORDS / 4)
            };
            for _ in 0..400 {
                match rng.gen_range(0, 8) {
                    0..=3 => {
                        let (w, v) = (arb_word(rng), rng.next_u64());
                        mem.store(w, v);
                        model.insert(w, v);
                        dirtied.insert(w / PAGE_WORDS);
                    }
                    4..=6 => {
                        let w = arb_word(rng);
                        assert_eq!(mem.load(w), model.get(&w).copied().unwrap_or(0));
                    }
                    _ => {
                        let clone = mem.clone();
                        assert_eq!(clone, mem);
                        assert_eq!(clone.shared_pages_with(&mem), mem.resident_pages());
                        snapshot = Some((clone, model.clone()));
                        dirtied.clear();
                    }
                }
                let resident: BTreeSet<u64> = model.keys().map(|w| w / PAGE_WORDS).collect();
                assert_eq!(mem.resident_pages(), resident.len());
                if let Some((old, old_model)) = &snapshot {
                    // Copy-on-write: the clone reads what it read when it
                    // was taken and still shares every page not stored to.
                    let w = arb_word(rng);
                    assert_eq!(old.load(w), old_model.get(&w).copied().unwrap_or(0));
                    let held = |page: &&u64| old_model.keys().any(|w| w / PAGE_WORDS == **page);
                    let untouched = old.resident_pages() - dirtied.iter().filter(held).count();
                    assert_eq!(old.shared_pages_with(&mem), untouched);
                    assert_eq!(mem.shared_pages_with(old), untouched);
                }
            }
            let mut words: Vec<(u64, u64)> = mem.iter_words().filter(|&(_, v)| v != 0).collect();
            words.sort_unstable();
            let want: Vec<(u64, u64)> = model.into_iter().filter(|&(_, v)| v != 0).collect();
            assert_eq!(words, want);
        });
    }

    #[test]
    fn striping_spreads_consecutive_pages() {
        let mut m = SparseMem::new();
        for p in 0..STRIPES as u64 {
            m.store(p * PAGE_WORDS, 1);
        }
        for s in &m.stripes {
            assert_eq!(
                s.pages.len(),
                1,
                "consecutive pages land on distinct stripes"
            );
        }
    }
}
