//! The distiller's output, pinned.
//!
//! For every bundled workload at its default scale, profiled to
//! completion, this file folds the whole distilled image — each
//! instruction's text, the entry, the original → distilled block map, the
//! task boundaries and the crossings-per-task grouping — into one hash per
//! configuration, and compares it against values recorded before the
//! pass pipeline's IR was rebuilt around typed block exits. A refactor of
//! the distiller that changes any emitted instruction, any retained block
//! or any boundary moves at least one of them.

use mssp::prelude::*;

/// Folds `words` into `hash` (FNV-1a over 64-bit words, then a mix), as
/// `tests/engine_schedule.rs` does.
fn fold(hash: &mut u64, words: &[u64]) {
    for &w in words {
        *hash = (*hash ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        *hash ^= *hash >> 29;
    }
}

fn image_hash(d: &Distilled) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for instr in d.program().text() {
        fold(&mut hash, &[0x1A5]);
        let words: Vec<u64> = instr.to_string().bytes().map(u64::from).collect();
        fold(&mut hash, &words);
    }
    fold(&mut hash, &[0xE7, d.program().entry()]);
    for (orig, dist) in d.iter_pc_map() {
        fold(&mut hash, &[0x3A9, orig, dist]);
    }
    for &b in d.boundaries() {
        fold(&mut hash, &[0xB0, b]);
    }
    fold(&mut hash, &[0xC7, d.crossings_per_task()]);
    hash
}

/// The four configurations pinned, in `GOLDEN`'s column order: the three
/// levels and the adaptive loop's fast tier over the default
/// configuration.
fn configs() -> [DistillConfig; 4] {
    [
        DistillConfig::at_level(DistillLevel::None),
        DistillConfig::at_level(DistillLevel::Conservative),
        DistillConfig::at_level(DistillLevel::Aggressive),
        Tier::Fast.apply(&DistillConfig::default()),
    ]
}

/// `(workload, [none, conservative, aggressive, fast])`.
const GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "gzip_like",
        [
            0xea8f43ecab4454c4,
            0xcf132241797b634e,
            0xea377dcfd0af5398,
            0x58410329085b0822,
        ],
    ),
    (
        "vpr_like",
        [
            0x4095e9eae8d106f0,
            0xaabbcca0946061a7,
            0xb23d6c1ce002df9d,
            0x1b4c687e17fb036f,
        ],
    ),
    (
        "gcc_like",
        [
            0x5900fe84c93edfd8,
            0xd4add3778526534c,
            0xc51c7c5203ad17e4,
            0x9c0202e3f0600bf2,
        ],
    ),
    (
        "mcf_like",
        [
            0x19bbed805a217e83,
            0x938e1f92891fbe3b,
            0x4514fa7a8c265da6,
            0x359e29db253513cc,
        ],
    ),
    (
        "crafty_like",
        [
            0x4513b8a2d79d49df,
            0xedd5576b5d9f2854,
            0x8cd8d22b83efa512,
            0xa41460a6bdd2152b,
        ],
    ),
    (
        "parser_like",
        [
            0x0d8c5b4f168b62ca,
            0xdb365eb6370352ee,
            0x1ebf7db5e29d1bac,
            0x8924cb4885bc23f8,
        ],
    ),
    (
        "eon_like",
        [
            0x431815b7437994bc,
            0xe3da9750e3e993c6,
            0x3b4ea68ff58eeb3d,
            0x6b41146fa618c46c,
        ],
    ),
    (
        "perlbmk_like",
        [
            0x6341b615b954fe6f,
            0x52af715476be48a0,
            0x24157a21a74f63f1,
            0x82727bbb9651932b,
        ],
    ),
    (
        "gap_like",
        [
            0x29d44bd13176316e,
            0xb4b2593834b6306f,
            0xa7c597e0d39b2dbb,
            0x576dad442cfc1cbb,
        ],
    ),
    (
        "vortex_like",
        [
            0x69b8cd65e15fbea0,
            0x129ed48cf82c6353,
            0x9621e707e9adadf4,
            0x07838fb73193db4c,
        ],
    ),
    (
        "bzip2_like",
        [
            0xb7870b5fcf5648d7,
            0xb65d38b8bb59fd37,
            0x39fc05321e29b2b3,
            0x2195c4163269b82c,
        ],
    ),
    (
        "twolf_like",
        [
            0x6fcbb8294ef198ec,
            0x80d7cd1b5d4605ce,
            0x728e6e7cd579e7cf,
            0x38ded7760a5149be,
        ],
    ),
];

#[test]
fn distilled_images_match_the_recorded_goldens() {
    let mut got = Vec::new();
    for w in workloads() {
        let program = w.default_program();
        let profile = Profile::collect(&program, Profile::UNBOUNDED).expect("workload halts");
        let mut hashes = [0u64; 4];
        for (slot, config) in hashes.iter_mut().zip(configs()) {
            let d = distill(&program, &profile, &config).expect("workload distills");
            *slot = image_hash(&d);
        }
        got.push((w.name, hashes));
    }
    assert_eq!(got.as_slice(), GOLDEN);
}
