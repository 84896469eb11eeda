//! Model-based test of `Delta`'s two-part representation (dense bank for
//! registers and `Pc` + memory cells in first-touch order behind an
//! index): random operation sequences over register, `Pc` and memory
//! cells are mirrored into a `BTreeMap<Cell, MaskedVal>`, and after every
//! operation everything observable about the delta must be what the map
//! says.
//!
//! The bank keeps unbound entries' old values (across `remove`, `clear`
//! and arena recycling) and the memory cells sit in whatever order they
//! were first touched, so the properties that matter most are the ones
//! about *history*: two deltas with equal bindings are equal, iterate
//! alike (in cell order) and clone alike whatever was bound in them
//! before, in whatever order. The property runs twice: over a small
//! universe, where operations collide and memory cells are found by
//! scanning, and over a wide one, where deltas outgrow the scan and their
//! index grows, shrinks on `remove` and is recycled across `clear`.
//!
//! Seeded with `mssp-testkit`; a failing case prints its seed for replay.

use std::collections::BTreeMap;

use mssp_isa::Reg;
use mssp_machine::{expand_mask, Cell, Delta, DeltaArena, MaskedVal};
use mssp_testkit::{check, Rng};

type Model = BTreeMap<Cell, MaskedVal>;

/// A small cell universe, so operations collide: every register (the
/// zero register is a cell like any other to a `Delta`), the PC, and a
/// few memory words at both ends of the address space.
fn universe() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Reg::all().map(Cell::Reg).collect();
    cells.push(Cell::Pc);
    cells.extend((0..10).map(Cell::Mem));
    cells.extend([Cell::Mem(1 << 40), Cell::Mem(u64::MAX)]);
    cells
}

/// [`universe`] plus 150 more memory words (strided, so neighbours differ
/// in high bits too): enough for a delta to outgrow the scan and for its
/// index to grow three times.
fn wide_universe() -> Vec<Cell> {
    let mut cells = universe();
    cells.extend((1..=150).map(|i| Cell::Mem(i * 0x1_0000_0801)));
    cells
}

fn arb_cell(rng: &mut Rng, cells: &[Cell]) -> Cell {
    // Registers are 32 of 45 cells; even the odds between the two parts.
    if rng.gen_bool(1, 2) {
        Cell::Reg(Reg::new(rng.gen_range(0, 32) as u8))
    } else {
        *rng.choose(cells)
    }
}

fn arb_mask(rng: &mut Rng) -> u8 {
    match rng.gen_range(0, 4) {
        0 => 0xFF,
        1 => 0,
        _ => rng.next_u64() as u8,
    }
}

fn model_set_bytes(model: &mut Model, cell: Cell, value: u64, mask: u8) {
    if mask == 0 {
        return;
    }
    let new = MaskedVal::partial(value, mask);
    let merged = model.get(&cell).map_or(new, |old| old.overwrite_with(new));
    model.insert(cell, merged);
}

fn model_record_bytes(model: &mut Model, cell: Cell, value: u64, mask: u8) {
    if mask == 0 {
        return;
    }
    let new = MaskedVal::partial(value, mask);
    let merged = model.get(&cell).map_or(new, |old| old.backfill_with(new));
    model.insert(cell, merged);
}

/// A delta holding exactly `model`'s bindings, built in random order in
/// a buffer with a random past.
fn rebuilt(rng: &mut Rng, model: &Model, cells: &[Cell]) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..rng.gen_range(0, 20) {
        delta.set_bytes(arb_cell(rng, cells), rng.next_u64(), arb_mask(rng));
    }
    if rng.gen_bool(1, 2) {
        delta.clear();
    } else {
        for cell in cells {
            delta.remove(*cell);
        }
    }
    let mut bindings: Vec<(Cell, MaskedVal)> = model.iter().map(|(&c, &m)| (c, m)).collect();
    for i in (1..bindings.len()).rev() {
        bindings.swap(i, rng.gen_index(0, i + 1));
    }
    for (cell, m) in bindings {
        delta.set_bytes(cell, m.value, m.mask);
    }
    delta
}

/// Everything observable about `delta` agrees with `model`.
fn assert_matches(delta: &Delta, model: &Model, cells: &[Cell]) {
    for &cell in cells {
        let want = model.get(&cell).copied();
        assert_eq!(delta.get_masked(cell), want, "get_masked {cell}");
        assert_eq!(
            delta.get(cell),
            want.and_then(|m| m.is_full().then_some(m.value)),
            "get {cell}"
        );
        assert_eq!(delta.contains(cell), want.is_some(), "contains {cell}");
        if let Cell::Reg(r) = cell {
            assert_eq!(delta.get_reg(r), want, "get_reg {r}");
        }
    }
    assert_eq!(delta.len(), model.len());
    assert_eq!(delta.is_empty(), model.is_empty());
    assert_eq!(
        delta.reg_cells(),
        model.keys().filter(|c| c.is_reg()).count()
    );
    assert_eq!(
        delta.mem_cells(),
        model.keys().filter(|c| c.is_mem()).count()
    );
    // Iteration is the map's: cell order (Reg < Pc < Mem), bound cells only.
    let want: Vec<(Cell, MaskedVal)> = model.iter().map(|(&c, &m)| (c, m)).collect();
    assert_eq!(delta.iter_masked().collect::<Vec<_>>(), want);
    let values: Vec<(Cell, u64)> = want.iter().map(|&(c, m)| (c, m.value)).collect();
    assert_eq!(delta.iter().collect::<Vec<_>>(), values);
}

/// The binary operators of `a` against `b` agree with the two models.
fn assert_relations(a: &Delta, ma: &Model, b: &Delta, mb: &Model) {
    let consistent = ma.iter().all(|(c, m)| {
        mb.get(c)
            .is_some_and(|o| o.mask & m.mask == m.mask && o.value & expand_mask(m.mask) == m.value)
    });
    assert_eq!(a.consistent_with(b), consistent);
    assert_eq!(a == b, ma == mb);
}

#[test]
fn delta_behaves_like_an_ordered_map_whatever_its_history() {
    ordered_map_property(0xDE17_A001, 300, &universe(), 80);
}

#[test]
fn delta_behaves_like_an_ordered_map_past_the_scan_threshold() {
    ordered_map_property(0xDE17_A008, 40, &wide_universe(), 400);
}

/// `cases` random histories of up to `max_ops` operations over `cells`.
fn ordered_map_property(seed: u64, cases: u32, cells: &[Cell], max_ops: u64) {
    check(seed, cases, |rng| {
        let mut arena = DeltaArena::new();
        let (mut a, mut ma) = (Delta::new(), Model::new());
        let (mut b, mut mb) = (Delta::new(), Model::new());
        for _ in 0..rng.gen_range(1, max_ops) {
            // Work on either delta; the other is the operand of the
            // binary operations.
            if rng.gen_bool(1, 3) {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut ma, &mut mb);
            }
            let cell = arb_cell(rng, cells);
            let (value, mask) = (rng.next_u64(), arb_mask(rng));
            match rng.gen_range(0, 15) {
                0 | 1 => {
                    let previous = ma.insert(cell, MaskedVal::full(value));
                    let want = previous.and_then(|m| m.is_full().then_some(m.value));
                    assert_eq!(a.set(cell, value), want, "set {cell}");
                }
                14 => {
                    // The storages' operand path: same binding as `set`
                    // on the register's cell.
                    let r = Reg::new(rng.gen_range(0, 32) as u8);
                    a.set_reg(r, value);
                    ma.insert(Cell::Reg(r), MaskedVal::full(value));
                }
                2 | 3 => {
                    a.set_bytes(cell, value, mask);
                    model_set_bytes(&mut ma, cell, value, mask);
                }
                4 | 5 => {
                    a.record_bytes(cell, value, mask);
                    model_record_bytes(&mut ma, cell, value, mask);
                }
                6 => {
                    let bound = ma.get(&cell).map_or(0, |m| m.mask);
                    let mut asked = None;
                    let got = a.read_or_record(cell, mask, |unbound| {
                        asked = Some(unbound);
                        value
                    });
                    let unbound = mask & !bound;
                    assert_eq!(asked, (unbound != 0).then_some(unbound), "fetch {cell}");
                    model_record_bytes(&mut ma, cell, value, unbound);
                    let want = ma.get(&cell).map_or(0, |m| m.value) & expand_mask(mask);
                    assert_eq!(got, want, "read_or_record {cell}");
                }
                7 => {
                    let want = ma.remove(&cell).map(|m| m.value);
                    assert_eq!(a.remove(cell), want, "remove {cell}");
                }
                8 => {
                    a.clear();
                    ma.clear();
                }
                9 => {
                    // Through an arena: the buffer comes back with its
                    // bank (and whatever the bank held) but no bindings.
                    arena.put(std::mem::take(&mut a));
                    a = arena.take();
                    ma.clear();
                }
                10 => a = a.clone(),
                11 => {
                    a.clone_from(&b);
                    ma.clone_from(&mb);
                }
                12 => {
                    a.superimpose_in_place(&b);
                    for (&c, m) in &mb {
                        model_set_bytes(&mut ma, c, m.value, m.mask);
                    }
                    assert_eq!(a, rebuilt(rng, &ma, cells));
                }
                _ => {
                    let pairs: Vec<(Cell, u64)> = (0..rng.gen_range(0, max_ops / 3))
                        .map(|_| (arb_cell(rng, cells), rng.next_u64()))
                        .collect();
                    a = pairs.iter().copied().collect();
                    ma = pairs
                        .into_iter()
                        .map(|(c, v)| (c, MaskedVal::full(v)))
                        .collect();
                }
            }
            assert_matches(&a, &ma, cells);
            assert_relations(&a, &ma, &b, &mb);

            // Equal bindings, different histories: equal, both ways, and
            // so are their clones.
            let twin = rebuilt(rng, &ma, cells);
            assert_matches(&twin, &ma, cells);
            assert_eq!(a, twin);
            assert_eq!(twin, a);
            assert_eq!(a.clone(), twin);
            assert_matches(&a.clone(), &ma, cells);
            assert_eq!(a.superimpose(&Delta::new()), twin);
            assert_eq!(a.to_string(), twin.to_string());
        }
    });
}

#[test]
fn recycled_bank_does_not_leak_into_equality_iteration_or_clones() {
    // The directed form of the property above.
    let mut arena = DeltaArena::new();
    let mut first = arena.take();
    first.set(Cell::Reg(Reg::A0), 0xDEAD);
    first.set_bytes(Cell::Reg(Reg::A1), 0xBEEF, 0x03);
    first.set(Cell::Mem(1), 1);
    arena.put(first);

    let mut recycled = arena.take();
    assert_eq!(arena.recycled(), 1);
    assert_eq!(recycled, Delta::new());
    assert_eq!(recycled.iter_masked().count(), 0);
    assert_eq!(recycled.clone(), Delta::new());
    assert_eq!(recycled.get_masked(Cell::Reg(Reg::A0)), None);
    assert_eq!(recycled.get_reg(Reg::A0), None);
    assert_eq!(recycled.get_reg(Reg::A1), None);

    recycled.set_reg(Reg::A2, 7);
    assert_eq!(recycled.get_reg(Reg::A2), Some(MaskedVal::full(7)));
    let mut fresh = Delta::new();
    fresh.set(Cell::Reg(Reg::A2), 7);
    assert_eq!(recycled, fresh);
    assert_eq!(fresh, recycled);
    assert_eq!(recycled.clone(), fresh);
    assert_eq!(recycled.len(), 1);
    assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
    // A partial rebinding starts from nothing, not from the stale value.
    recycled.set_bytes(Cell::Reg(Reg::A0), 0x11, 0x01);
    assert_eq!(
        recycled.get_masked(Cell::Reg(Reg::A0)),
        Some(MaskedVal::partial(0x11, 0x01))
    );
    recycled.record_bytes(Cell::Reg(Reg::A1), 0x2200, 0x02);
    assert_eq!(
        recycled.get_masked(Cell::Reg(Reg::A1)),
        Some(MaskedVal::partial(0x2200, 0x02))
    );

    let mut target = Delta::new();
    target.set(Cell::Reg(Reg::S0), 99);
    target.clone_from(&fresh);
    assert_eq!(target, fresh);
    assert_eq!(target.get(Cell::Reg(Reg::S0)), None);
}
