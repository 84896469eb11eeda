//! Property-based tests for the ISA's `li` expansion.
//!
//! Seeded with `mssp-testkit` (the build environment has no crate
//! registry, so `proptest` is unavailable); a failing case prints its
//! seed for replay.

use mssp_isa::Reg;
use mssp_testkit::check;

#[test]
fn li_sequence_is_bounded() {
    check(0x1541_0004, 1024, |rng| {
        let v = rng.next_u64() as i64;
        let seq = mssp_isa::asm::li_sequence(Reg::A0, v);
        assert!(!seq.is_empty());
        assert!(seq.len() <= 8);
        // The sequence only ever writes the destination register.
        for i in &seq {
            assert_eq!(i.def_reg(), Some(Reg::A0));
        }
    });
}
