//! Sparse word-addressed memory.
//!
//! Memory is stored as 4 KiB pages (512 × 64-bit words) allocated on first
//! write. Unwritten memory reads as zero, which keeps the sequential
//! reference machine total and deterministic even when a mis-steered MSSP
//! slave wanders into unmapped addresses.
//!
//! # Snapshots
//!
//! The master restarts from a clone of architected state after every
//! squash, and the threaded coordinator publishes a fresh base snapshot
//! for its workers every few commits, so a clone must be cheap. A
//! `SparseMem` is one page table of reference-counted pages: a clone
//! copies the table (one allocation) and bumps one refcount per resident
//! page, and a store after it copies only the page it touches. Each
//! snapshot owns its table, and no thread writes a table another thread
//! reads, so the table needs no layout for concurrent readers. A [`Page`]
//! is `#[repr(align(64))]`, which keeps its data off lines shared with
//! unrelated heap objects and puts the `Arc` refcount in front of it on a
//! line of its own: a coordinator bumping refcounts while it clones a
//! snapshot never write-shares a line with workers streaming page data.
//!
//! # The lookup
//!
//! Every load and store of every machine in the workspace — the
//! sequential reference, the master's private state, a slave's
//! fall-through to architected state, each live-in compare and each
//! committed write — finds its page here, so the table hashes a page
//! index with one multiply and a fold ([`PageHasher`]) instead of the
//! standard library's keyed SipHash. The keys are page indices of a
//! simulated program, not input an attacker shapes, and a degenerate
//! distribution costs probe length, never correctness.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Words per page (4 KiB pages).
const PAGE_WORDS: u64 = 512;

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
/// one carries that to the bits that pick the bucket. Without the fold
/// the low bits of the product would depend only on the low bits of the
/// index, so regions whose page indices agree there (a stack and a heap
/// a power of two apart) would share buckets.
///
/// It hashes `u64` keys only (any other key panics), for maps keyed by a
/// page index such as the profiler's footprint pages.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
/// use mssp_machine::PageHasher;
///
/// let mut pages: HashMap<u64, u8, BuildHasherDefault<PageHasher>> = HashMap::default();
/// pages.insert(7, 1);
/// assert_eq!(pages.get(&7), Some(&1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        // why: the documented contract: `u64` keys hash through
        // `write_u64`, and the type takes no other key.
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

/// Sparse 64-bit-word-addressed memory with zero-fill semantics.
///
/// Addresses used with this type are *word indices* (byte address / 8); the
/// byte-granular view lives in [`crate::Storage`]'s helper methods.
///
/// Pages are reference-counted and copied on write, so cloning a
/// `SparseMem` (the MSSP master snapshots architected state at every
/// restart) costs one table copy and one refcount bump per resident page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMem {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

impl SparseMem {
    /// Loads the word at word index `widx` (zero if never written).
    #[must_use]
    #[inline]
    pub(crate) fn load(&self, widx: u64) -> u64 {
        let page_idx = widx / PAGE_WORDS;
        match self.pages.get(&page_idx) {
            Some(page) => page.words[(widx % PAGE_WORDS) as usize],
            None => 0,
        }
    }

    /// Stores `value` at word index `widx`.
    #[inline]
    pub(crate) fn store(&mut self, widx: u64, value: u64) {
        let page_idx = widx / PAGE_WORDS;
        let page = self
            .pages
            .entry(page_idx)
            .or_insert_with(|| Arc::new(Page::zeroed()));
        Arc::make_mut(page).words[(widx % PAGE_WORDS) as usize] = value;
    }

    /// Copies a byte image into memory starting at byte address `base`.
    ///
    /// Used to load a program's data segment. Bytes are placed
    /// little-endian within each word, matching the ISA's byte order.
    pub(crate) fn write_image(&mut self, base: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let addr = base + i as u64;
            let widx = addr >> 3;
            let shift = (addr & 7) * 8;
            let old = self.load(widx);
            let cleared = old & !(0xFFu64 << shift);
            self.store(widx, cleared | ((b as u64) << shift));
        }
    }

    /// Iterates over all words ever written (including those re-written to
    /// zero), as `(word_index, value)` pairs in unspecified order.
    pub fn iter_words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(p, page)| {
            let base = p * PAGE_WORDS;
            page.words
                .iter()
                .enumerate()
                .map(move |(i, &v)| (base + i as u64, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte at byte address `addr`.
    fn read_byte(m: &SparseMem, addr: u64) -> u8 {
        (m.load(addr >> 3) >> ((addr & 7) * 8)) as u8
    }

    /// Number of resident (allocated) pages.
    fn resident_pages(m: &SparseMem) -> usize {
        m.pages.len()
    }

    /// Number of pages `a` and `b` share physically (the same allocation):
    /// the observable form of the copy-on-write guarantee that makes
    /// snapshot publication cheap. Cloning shares every resident page, and
    /// a store after the clone unshares only the page it touches, so
    /// publishing a snapshot per commit costs O(pages written since the
    /// last snapshot), not O(total state).
    fn shared_pages(a: &SparseMem, b: &SparseMem) -> usize {
        a.pages
            .iter()
            .filter(|(k, p)| b.pages.get(k).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMem::default();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(u64::MAX / 8), 0);
        assert_eq!(resident_pages(&m), 0);
    }

    #[test]
    fn store_load_round_trip_across_pages() {
        let mut m = SparseMem::default();
        for i in 0..2000u64 {
            m.store(i * 37, i);
        }
        for i in 0..2000u64 {
            assert_eq!(m.load(i * 37), i);
        }
        assert!(resident_pages(&m) > 1);
    }

    #[test]
    fn write_image_is_little_endian() {
        let mut m = SparseMem::default();
        m.write_image(0x100, &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        assert_eq!(m.load(0x100 >> 3), 0x8877_6655_4433_2211);
    }

    #[test]
    fn write_image_handles_unaligned_base() {
        let mut m = SparseMem::default();
        m.store(0x20, u64::MAX);
        m.write_image(0x103, &[0xAB]);
        assert_eq!(read_byte(&m, 0x103), 0xAB);
        // Neighbouring bytes of the pre-existing word are preserved.
        assert_eq!(read_byte(&m, 0x102), 0xFF);
        assert_eq!(read_byte(&m, 0x104), 0xFF);
    }

    #[test]
    fn clone_shares_every_page() {
        let mut m = SparseMem::default();
        for i in 0..10u64 {
            m.store(i * PAGE_WORDS, i + 1);
        }
        let snap = m.clone();
        assert_eq!(shared_pages(&snap, &m), resident_pages(&m));
    }

    #[test]
    fn store_after_clone_unshares_only_the_touched_page() {
        let mut m = SparseMem::default();
        for i in 0..10u64 {
            m.store(i * PAGE_WORDS, i + 1);
        }
        let snap = m.clone();
        m.store(3 * PAGE_WORDS + 5, 99);
        // Exactly one page diverged; the snapshot still reads old data.
        assert_eq!(shared_pages(&snap, &m), resident_pages(&m) - 1);
        assert_eq!(snap.load(3 * PAGE_WORDS + 5), 0);
        assert_eq!(m.load(3 * PAGE_WORDS + 5), 99);
    }

    #[test]
    fn write_image_spans_words() {
        let mut m = SparseMem::default();
        m.write_image(0, b"abcdefghij");
        let bytes: Vec<u8> = (2..8).map(|a| read_byte(&m, a)).collect();
        assert_eq!(bytes, b"cdefgh");
    }

    #[test]
    fn pages_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Page>(), 64);
        // The Arc payload itself lands on a line boundary, which forces
        // the refcount header onto the preceding (separate) line.
        let mut m = SparseMem::default();
        m.store(0, 1);
        let page = m.pages.get(&0).unwrap();
        assert_eq!(Arc::as_ptr(page) as usize % 64, 0);
    }

    #[test]
    fn random_stores_loads_and_clones_follow_a_map_model() {
        use std::collections::{BTreeMap, BTreeSet};
        // Pages whose low index bits agree, pages that differ only above
        // bit 32 of the page index, neighbours, and the ends of the range.
        let mut pages: Vec<u64> = (0..6).collect();
        pages.extend((1..6).map(|i| i * 8));
        pages.extend((1..6).map(|i| i << 32));
        pages.extend((1..4).map(|i| (i << 32) + 8));
        pages.extend([u64::MAX / PAGE_WORDS, u64::MAX / PAGE_WORDS - 8]);
        mssp_testkit::check(0x5AA5_E001, 20, |rng| {
            let mut mem = SparseMem::default();
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
                        assert_eq!(shared_pages(&clone, &mem), resident_pages(&mem));
                        snapshot = Some((clone, model.clone()));
                        dirtied.clear();
                    }
                }
                let resident: BTreeSet<u64> = model.keys().map(|w| w / PAGE_WORDS).collect();
                assert_eq!(resident_pages(&mem), resident.len());
                if let Some((old, old_model)) = &snapshot {
                    // Copy-on-write: the clone reads what it read when it
                    // was taken and still shares every page not stored to.
                    let w = arb_word(rng);
                    assert_eq!(old.load(w), old_model.get(&w).copied().unwrap_or(0));
                    let held = |page: &&u64| old_model.keys().any(|w| w / PAGE_WORDS == **page);
                    let untouched = resident_pages(old) - dirtied.iter().filter(held).count();
                    assert_eq!(shared_pages(old, &mem), untouched);
                    assert_eq!(shared_pages(&mem, old), untouched);
                }
            }
            let mut words: Vec<(u64, u64)> = mem.iter_words().filter(|&(_, v)| v != 0).collect();
            words.sort_unstable();
            let want: Vec<(u64, u64)> = model.into_iter().filter(|&(_, v)| v != 0).collect();
            assert_eq!(words, want);
        });
    }
}
