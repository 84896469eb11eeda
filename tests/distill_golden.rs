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
            0xc7cd064f35e1e972,
            0x86625031bbe06f28,
            0xc524b57a00143eb6,
            0x964997ba99ab371b,
        ],
    ),
    (
        "vpr_like",
        [
            0xca1163240a12d90c,
            0x7c637977e34d4686,
            0x90c616256665b16c,
            0x441bd86765b04d73,
        ],
    ),
    (
        "gcc_like",
        [
            0x0b2c03adf7bb84c5,
            0xb58e779e90afe80e,
            0x9de95d6a2b724dd2,
            0x3626576d6ae43270,
        ],
    ),
    (
        "mcf_like",
        [
            0x71478b14de1f4bb1,
            0x2358cbf9c152cdb0,
            0x0b89ee258d3b1f0d,
            0x9ea3028d8036ac9d,
        ],
    ),
    (
        "crafty_like",
        [
            0x8aff762834e3c108,
            0x6356adba2c40a958,
            0xde3bbde87d4d0113,
            0xb574e3ef533fa656,
        ],
    ),
    (
        "parser_like",
        [
            0x69738968f4aa3e8a,
            0xd9741fbb27a84523,
            0xd52407bf5805f990,
            0x4e9f2d96acf4487c,
        ],
    ),
    (
        "eon_like",
        [
            0x17303e5f69e27922,
            0x25ecd561e3a1a963,
            0xc4f15f93857771bc,
            0xd5ac44684ea93ef5,
        ],
    ),
    (
        "perlbmk_like",
        [
            0x433922756568c26f,
            0x2f6904db660b2b49,
            0x7c46bdcce432289a,
            0x9c0c8a072139d073,
        ],
    ),
    (
        "gap_like",
        [
            0x08a00f360a2e4f86,
            0xaf9d6c51d4d0b34c,
            0xada34006b896a751,
            0x2c80fadf174cc366,
        ],
    ),
    (
        "vortex_like",
        [
            0x454e244dcc3d9543,
            0x34f52a1f166d5d20,
            0x18be213de9183646,
            0xe356daa9ea338fd3,
        ],
    ),
    (
        "bzip2_like",
        [
            0xbb66c67354cc832e,
            0xbfc756e453740402,
            0xf69e66bfbd6a18e9,
            0x882581b665227309,
        ],
    ),
    (
        "twolf_like",
        [
            0xd13239a36288e27a,
            0x9d27ea7158f47b6b,
            0x277393d4d56c51e6,
            0x66b035e96e066285,
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
