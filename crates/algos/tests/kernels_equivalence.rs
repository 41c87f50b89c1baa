//! The reciprocal arithmetic behind the Linial recolouring must agree **exactly** with plain
//! integer division: `ModQ::div_rem` with `/` and `%`, and `ModQ::eval_poly` with an
//! independent `u128` Horner evaluation. Deterministic runs rest on it — a single
//! off-by-one remainder would change a colour and with it every downstream byte.
//!
//! Shapes covered: the empty and single-digit polynomials, long runs of high-order zero
//! digits, the
//! smallest and largest admissible moduli, scan points at the top of the field (up to
//! `q + 7`), odd and even digit counts around the paired-step fold, and proptest-generated
//! arbitrary inputs.

use local_algos::coloring::ModQ;
use proptest::prelude::*;

/// Independent reference: naive Horner over `u128`.
fn naive_eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
    let mut acc: u128 = 0;
    for &c in coeffs.iter().rev() {
        acc = (acc * x as u128 + c as u128) % q as u128;
    }
    acc as u64
}

/// Checks `ModQ::eval_poly` against the `u128` reference at the eight consecutive points
/// `a..a + 8` that stay within its `x < q + 8` contract. Requires digits `< q`.
fn check_poly_block(coeffs: &[u64], a: u64, q: u64) {
    let modq = ModQ::new(q);
    for x in (a..a + 8).filter(|&x| x < q + 8) {
        assert_eq!(modq.eval_poly(coeffs, x), naive_eval(coeffs, x, q), "q={q} x={x}");
    }
}

#[test]
fn empty_inputs() {
    check_poly_block(&[], 0, 2); // zero polynomial: identically 0
    check_poly_block(&[], 0, 65_537);
}

#[test]
fn single_elements() {
    check_poly_block(&[0], 0, 2);
    check_poly_block(&[1], 0, 2);
    check_poly_block(&[3], 5, 11);
    check_poly_block(&[65_536], 3, 65_537);
}

#[test]
fn poly_block_edges() {
    let q_max = ModQ::MAX_Q - 1;
    // All-zero digits trim to the empty polynomial.
    check_poly_block(&[0, 0, 0], 5, 11);
    // Leading (high-power) zeros with a nonzero low digit.
    check_poly_block(&[3, 0, 0], 5, 11);
    // Smallest modulus, largest modulus, and a scan block at the top of the field.
    check_poly_block(&[1, 1], 0, 2);
    check_poly_block(&[123_456, 7, q_max - 1], 0, q_max);
    check_poly_block(&[123_456, 7, q_max - 1], q_max, q_max);
    // Degree above the paired-Horner fold (odd/even digit counts), on both sides of it.
    check_poly_block(&[1, 2, 3, 4, 5], 9, 65_521);
    check_poly_block(&[1, 2, 3, 4, 5, 6], 9, 65_521);
    check_poly_block(&[1, 2, 3, 4, 5], 65_530, ModQ::PAIR_MAX_Q - 1);
    check_poly_block(&[1, 2, 3, 4, 5, 6], 65_530, ModQ::PAIR_MAX_Q + 1);
}

#[test]
fn modq_div_rem_boundaries() {
    for q in [2u64, 3, 65_535, 65_537, ModQ::MAX_Q - 1] {
        let m = ModQ::new(q);
        assert_eq!(m.q(), q);
        for c in [0u64, 1, q - 1, q, q + 1, ModQ::MAX_OPERAND - 1] {
            assert_eq!(m.div_rem(c), (c / q, c % q), "q={q} c={c}");
        }
    }
}

proptest! {
    #[test]
    fn trim_matches_scalar(
        coeffs in prop::collection::vec(prop_oneof![Just(0u64), 1u64..100], 0..40),
        a in 0u64..108,
    ) {
        // Zero-heavy digit strings (the layout under generous guesses): skipping the
        // high-order zeros must not change the value.
        prop_assert_eq!(ModQ::new(101).eval_poly(&coeffs, a), naive_eval(&coeffs, a, 101));
    }

    #[test]
    fn poly_blocks_match_u128_reference(
        (q, coeffs, a) in (2u64..ModQ::MAX_Q).prop_flat_map(|q| (
            Just(q),
            prop::collection::vec(0..q, 0..8),
            0..q,
        )),
    ) {
        // Eight consecutive scan points, as the recolouring walks them.
        check_poly_block(&coeffs, a, q);
    }

    #[test]
    fn modq_div_rem_is_exact(q in 2u64..ModQ::MAX_Q, c in 0..ModQ::MAX_OPERAND) {
        let m = ModQ::new(q);
        prop_assert_eq!(m.div_rem(c), (c / q, c % q));
    }

    #[test]
    fn modq_eval_poly_matches_u128_reference(
        (q, coeffs, a) in (2u64..ModQ::MAX_Q).prop_flat_map(|q| (
            Just(q),
            prop::collection::vec(0..q, 0..12),
            0..q + 8, // out-of-field scan points up to q+7 are part of the contract
        )),
    ) {
        let m = ModQ::new(q);
        prop_assert_eq!(m.eval_poly(&coeffs, a), naive_eval(&coeffs, a, q));
    }
}
