//! `Distilled::boundary_at_dist` — the master's per-instruction spawn
//! test — answers from a dense table over the distilled text. It must
//! answer exactly what the boundary → distilled-PC map says, on every
//! address the master can hold and on the ones it cannot: a statistic of
//! a run under a hand-built master depends on it.

use std::collections::{BTreeMap, BTreeSet};

use mssp::prelude::*;

/// The map the lookup is specified by: each boundary's distilled image,
/// if it has one, back to the boundary (the larger boundary on a shared
/// image, as a map insert in boundary order leaves it).
fn reference(d: &Distilled) -> BTreeMap<u64, u64> {
    let image = |&b: &u64| d.to_dist(b).map(|dist| (dist, b));
    d.boundaries().iter().filter_map(image).collect()
}

/// Every PC worth asking about: each instruction address, the addresses
/// just outside the text, misaligned ones, every image in the map
/// (wherever it lies) and the ends of the address space.
fn probes(d: &Distilled, map: &BTreeMap<u64, u64>) -> Vec<u64> {
    let text = d.program();
    let mut pcs: Vec<u64> = text.iter_pcs().map(|(pc, _)| pc).collect();
    pcs.extend([
        text.text_base().wrapping_sub(4),
        text.text_end(),
        text.text_end() + 4,
        text.text_base() + 1,
        text.text_base() + 2,
        text.text_end().wrapping_sub(1),
        0,
        u64::MAX,
    ]);
    pcs.extend(map.keys().flat_map(|&dist| [dist, dist + 1, dist + 4]));
    pcs
}

fn assert_lookup_is_the_map(d: &Distilled, what: &str) {
    let map = reference(d);
    for pc in probes(d, &map) {
        assert_eq!(
            d.boundary_at_dist(pc),
            map.get(&pc).copied(),
            "{what}: {pc:#x}"
        );
    }
}

#[test]
fn every_workloads_lookup_is_its_map() {
    for w in workloads() {
        let program = w.program(400);
        let profile = Profile::collect(&program, u64::MAX).unwrap();
        for level in DistillLevel::all() {
            let d = distill(&program, &profile, &DistillConfig::at_level(level)).unwrap();
            assert!(!reference(&d).is_empty(), "{}", w.name);
            assert_lookup_is_the_map(&d, w.name);
        }
    }
}

#[test]
fn a_hand_built_masters_lookup_is_its_map() {
    let original = assemble(
        "main: addi s0, zero, 9
         loop: addi s0, s0, -1
               bnez s0, loop
         done: halt",
    )
    .unwrap();
    let master = assemble("main: addi s0, zero, 9\n spin: j spin\n nop").unwrap();
    let (entry, lp, done) = (
        original.entry(),
        original.symbol("loop").unwrap(),
        original.symbol("done").unwrap(),
    );
    let spin = master.symbol("spin").unwrap();
    // `done` is a boundary with no distilled image; `loop` and the entry
    // share one; and three images lie where no instruction does: below
    // the text, past its end and between two instructions.
    let boundaries = BTreeSet::from([entry, lp, done, 0x40, 0x44, 0x48]);
    let map = BTreeMap::from([
        (entry, spin),
        (lp, spin),
        (0x40, master.text_base() - 4),
        (0x44, master.text_end()),
        (0x48, master.entry() + 2),
        // An image without a boundary is no spawn point.
        (0x4c, master.entry()),
    ]);
    let d = Distilled::from_parts(master.clone(), boundaries, map);
    assert_lookup_is_the_map(&d, "hand-built");
    assert_eq!(d.boundary_at_dist(spin), Some(lp));
    assert_eq!(d.boundary_at_dist(master.entry()), None);
    assert_eq!(d.boundary_at_dist(master.text_end()), Some(0x44));
    assert_eq!(d.boundary_at_dist(master.entry() + 2), Some(0x48));
    // Builder methods and clones carry the table along.
    let d = d.with_crossings_per_task(3).with_slices(BTreeMap::new());
    assert_lookup_is_the_map(&d.clone(), "hand-built, rebuilt");
}
