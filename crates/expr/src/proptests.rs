//! Property-based tests for the expression algebra.
//!
//! The central invariant: structural operations on expressions commute with
//! evaluation — `eval(a op b) == eval(a) op eval(b)` at every point of the
//! positive orthant.

use crate::{Assignment, Monomial, Posynomial, Signomial, Var};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Reference evaluator over the plain representation: terms as
/// `(coeff, BTreeMap<Var, f64>)`, evaluated with a `powf` per variable. The
/// differential properties below pin the sorted-run monomials and
/// signomials to this one.
fn naive_eval(terms: &[(f64, BTreeMap<Var, f64>)], point: &Assignment) -> f64 {
    terms
        .iter()
        .map(|(c, exps)| {
            let mut acc = *c;
            for (&v, &a) in exps {
                acc *= point.get(v).powf(a);
            }
            acc
        })
        .sum()
}

fn naive_terms(s: &Signomial) -> Vec<(f64, BTreeMap<Var, f64>)> {
    s.terms()
        .map(|(c, m)| (c, m.powers().collect::<BTreeMap<_, _>>()))
        .collect()
}

const NVARS: usize = 4;

fn arb_point() -> impl Strategy<Value = Assignment> {
    proptest::collection::vec(0.1f64..10.0, NVARS).prop_map(Assignment::from_values)
}

fn arb_monomial() -> impl Strategy<Value = Monomial> {
    (
        0.1f64..10.0,
        proptest::collection::vec((-2i8..=2).prop_map(f64::from), NVARS),
    )
        .prop_map(|(c, exps)| {
            Monomial::new(
                c,
                exps.into_iter()
                    .enumerate()
                    .map(|(i, a)| (Var::from_index(i), a)),
            )
        })
}

fn arb_signomial() -> impl Strategy<Value = Signomial> {
    proptest::collection::vec((arb_monomial(), -5.0f64..5.0), 1..5).prop_map(|terms| {
        let mut s = Signomial::zero();
        for (m, c) in terms {
            s = s + Signomial::from(m).scale(c);
        }
        s
    })
}

fn arb_posynomial() -> impl Strategy<Value = Posynomial> {
    proptest::collection::vec(arb_monomial(), 1..5).prop_map(Posynomial::sum)
}

proptest! {
    #[test]
    fn monomial_mul_commutes_with_eval(a in arb_monomial(), b in arb_monomial(), p in arb_point()) {
        let lhs = (&a * &b).eval(&p);
        let rhs = a.eval(&p) * b.eval(&p);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn monomial_powf_commutes_with_eval(a in arb_monomial(), e in -2.0f64..2.0, p in arb_point()) {
        let lhs = a.powf(e).eval(&p);
        let rhs = a.eval(&p).powf(e);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn signomial_add_commutes_with_eval(a in arb_signomial(), b in arb_signomial(), p in arb_point()) {
        let lhs = (&a + &b).eval(&p);
        let rhs = a.eval(&p) + b.eval(&p);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn signomial_mul_commutes_with_eval(a in arb_signomial(), b in arb_signomial(), p in arb_point()) {
        let lhs = (&a * &b).eval(&p);
        let rhs = a.eval(&p) * b.eval(&p);
        prop_assert!((lhs - rhs).abs() <= 1e-7 * (1.0 + rhs.abs()));
    }

    #[test]
    fn substitution_commutes_with_eval(
        s in arb_signomial(),
        m in arb_monomial(),
        p in arb_point(),
    ) {
        // Substitute v0 := m, then evaluate — must equal evaluating s at the
        // point where v0 is replaced by m's value.
        let v = Var::from_index(0);
        // Strip v0 from the replacement: self-referential substitution would
        // make the comparison point ill-defined.
        let m = Monomial::new(
            m.coeff(),
            m.powers().filter(|&(var, _)| var != v),
        );
        let substituted = s.substitute(v, &m).eval(&p);
        let mut p2 = p.clone();
        p2.set(v, m.eval(&p));
        let direct = s.eval(&p2);
        prop_assert!((substituted - direct).abs() <= 1e-6 * (1.0 + direct.abs()));
    }

    #[test]
    fn posynomials_are_positive(f in arb_posynomial(), p in arb_point()) {
        prop_assert!(f.eval(&p) > 0.0);
    }

    #[test]
    fn upper_bound_dominates_everywhere(s in arb_signomial(), p in arb_point()) {
        if let Some(ub) = s.posynomial_upper_bound() {
            prop_assert!(ub.eval(&p) + 1e-9 >= s.eval(&p));
        } else {
            // No positive terms: the signomial is non-positive everywhere.
            prop_assert!(s.eval(&p) <= 1e-9);
        }
    }

    #[test]
    fn canonical_form_is_stable_under_reordering(
        a in arb_signomial(),
        b in arb_signomial(),
        p in arb_point(),
    ) {
        // Structural canonical forms agree up to floating-point accumulation
        // order, so compare term structure and evaluation.
        let ab = &a + &b;
        let ba = &b + &a;
        let keys = |s: &Signomial| s.terms().map(|(_, m)| m.term_key()).collect::<Vec<_>>();
        prop_assert_eq!(keys(&ab), keys(&ba));
        let (l, r) = (ab.eval(&p), ba.eval(&p));
        prop_assert!((l - r).abs() <= 1e-9 * (1.0 + r.abs()));
    }

    #[test]
    fn sub_then_add_roundtrips(a in arb_signomial(), b in arb_signomial(), p in arb_point()) {
        let roundtrip = &(&a - &b) + &b;
        let lhs = roundtrip.eval(&p);
        let rhs = a.eval(&p);
        prop_assert!((lhs - rhs).abs() <= 1e-7 * (1.0 + rhs.abs()));
    }

    // --- differential properties: monomials and signomials agree with the
    // --- BTreeMap reference evaluator to 1e-12 relative.

    #[test]
    fn monomial_eval_matches_btreemap_reference(m in arb_monomial(), p in arb_point()) {
        let reference = naive_eval(&naive_terms(&Signomial::from(m.clone())), &p);
        let got = m.eval(&p);
        prop_assert!((got - reference).abs() <= 1e-12 * (1.0 + reference.abs()));
    }

    #[test]
    fn signomial_eval_matches_btreemap_reference(s in arb_signomial(), p in arb_point()) {
        let reference = naive_eval(&naive_terms(&s), &p);
        let direct = s.eval(&p);
        prop_assert!((direct - reference).abs() <= 1e-12 * (1.0 + reference.abs()));
    }
}
