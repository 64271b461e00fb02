//! **Algorithm A3**: `E[p U q]` for `p` conjunctive and `q` linear
//! (Fig. 5 of the paper), and `A[p U q]` for disjunctive `p, q` via the
//! §7 identity.
//!
//! Theorem 7 reduces `E[p U q]` to a *single* target: it suffices to find
//! a path from the initial cut to `I_q` (the least cut satisfying `q`)
//! along which `p` holds — no other `q`-cut needs to be considered.
//! Operationally (Fig. 5):
//!
//! 1. compute `I_q` with the Chase–Garg advancement algorithm;
//! 2. for each maximal event `e` of `I_q`, check `EG(p)` on the
//!    sub-computation `I_q − {e}` with Algorithm A1; if any check passes,
//!    appending `I_q` to A1's witness yields the `E[p U q]` witness.
//!
//! A1's backward walk starts at `I_q − {e}` on the computation itself:
//! below that cut the sub-computation has the same clocks and states, so
//! no copy is made.
//!
//! `A[p U q]` for disjunctive `p, q` uses
//! `A[p U q] ⟺ ¬(EG(¬q) ∨ E[¬q U (¬p ∧ ¬q)])`: `¬q` is conjunctive, so
//! `EG(¬q)` is Algorithm A1 and `E[¬q U (¬p ∧ ¬q)]` is Algorithm A3 with
//! a conjunctive (hence linear) target.

use crate::ef::ef_linear;
use crate::eg::{eg_conjunctive, eg_conjunctive_below};
use hb_computation::{Computation, Cut};
use hb_predicates::{Conjunctive, Disjunctive, LinearPredicate};

/// Outcome of an `E[p U q]` detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EuReport {
    /// Whether `E[p U q]` holds at the initial cut.
    pub holds: bool,
    /// When `holds`: a path `∅ ▷ … ▷ I_q` with `p` before the end and `q`
    /// at the end.
    pub witness: Option<Vec<Cut>>,
    /// The least cut satisfying `q`, when it exists.
    pub i_q: Option<Cut>,
}

/// Outcome of an `A[p U q]` detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuReport {
    /// Whether `A[p U q]` holds at the initial cut.
    pub holds: bool,
    /// When `!holds`: a maximal-path prefix demonstrating the violation —
    /// either a full path on which `q` never holds, or a path reaching a
    /// cut where `p ∧ q` both fail with `q` false throughout.
    pub counterexample: Option<Vec<Cut>>,
}

/// Algorithm A3: detects `E[p U q]` for conjunctive `p`, linear `q`.
pub fn eu_conjunctive_linear<Q: LinearPredicate + ?Sized>(
    comp: &Computation,
    p: &Conjunctive,
    q: &Q,
) -> EuReport {
    // Step 1: the least cut satisfying q.
    let ef = ef_linear(comp, q);
    let Some(i_q) = ef.witness else {
        return EuReport {
            holds: false,
            witness: None,
            i_q: None,
        };
    };

    // k = 0 case: q already holds initially.
    if i_q.rank() == 0 {
        return EuReport {
            holds: true,
            witness: Some(vec![i_q.clone()]),
            i_q: Some(i_q),
        };
    }

    // Step 2: EG(p) on the sub-computation I_q − {e} for each maximal
    // event e of I_q, walked in place on `comp`.
    for e in comp.maximal_events(&i_q) {
        let r = eg_conjunctive_below(comp, p, i_q.retreated(e.process));
        if r.holds {
            let mut path = r.witness.expect("EG holds implies witness");
            path.push(i_q.clone());
            return EuReport {
                holds: true,
                witness: Some(path),
                i_q: Some(i_q),
            };
        }
    }
    EuReport {
        holds: false,
        witness: None,
        i_q: Some(i_q),
    }
}

/// Conjunction of two conjunctive predicates (clause concatenation).
fn conj_and(a: &Conjunctive, b: &Conjunctive) -> Conjunctive {
    let mut clauses: Vec<(usize, hb_predicates::LocalExpr)> = Vec::new();
    for c in a.clauses().iter().chain(b.clauses()) {
        clauses.push((c.process, c.expr.clone()));
    }
    Conjunctive::new(clauses)
}

/// §7 identity: detects `A[p U q]` for disjunctive `p`, `q`.
pub fn au_disjunctive(comp: &Computation, p: &Disjunctive, q: &Disjunctive) -> AuReport {
    let not_q = q.negated();

    // Case 1: some maximal path avoids q entirely.
    let eg = eg_conjunctive(comp, &not_q);
    if eg.holds {
        return AuReport {
            holds: false,
            counterexample: eg.witness,
        };
    }

    // Case 2: some path stays ¬q until a cut where both p and q fail.
    let not_p_and_not_q = conj_and(&p.negated(), &not_q);
    let eu = eu_conjunctive_linear(comp, &not_q, &not_p_and_not_q);
    if eu.holds {
        return AuReport {
            holds: false,
            counterexample: eu.witness,
        };
    }

    AuReport {
        holds: true,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::verify_eu_witness;
    use crate::ModelChecker;
    use hb_computation::ComputationBuilder;
    use hb_predicates::{ChannelsEmpty, LocalExpr, Predicate, TrueP};

    /// A mutual-exclusion-shaped computation: both processes try, then
    /// enter their critical sections at different times.
    fn try_crit() -> (Computation, hb_computation::VarId, hb_computation::VarId) {
        let mut b = ComputationBuilder::new(2);
        let try_ = b.var("try");
        let crit = b.var("crit");
        b.internal(0).set(try_, 1).done();
        let m = b.send(0).done_send();
        b.internal(0).set(crit, 1).done();
        b.internal(1).set(try_, 1).done();
        b.receive(1, m).done();
        b.internal(1).set(crit, 1).done();
        (b.finish().unwrap(), try_, crit)
    }

    #[test]
    fn eu_holds_with_valid_witness() {
        let (comp, try_, crit) = try_crit();
        // E["P0 trying" U "P0 critical"]: p after its first event, q at
        // its third.
        let p = Conjunctive::new(vec![(
            0,
            LocalExpr::eq(try_, 1).and(LocalExpr::eq(crit, 0)),
        )]);
        let q = Conjunctive::new(vec![(0, LocalExpr::eq(crit, 1))]);
        let r = eu_conjunctive_linear(&comp, &p, &q);
        // p fails at the initial cut (try=0), so EU should fail!
        assert!(!r.holds);

        // With p = "P0 not critical" the prefix is fine.
        let p2 = Conjunctive::new(vec![(0, LocalExpr::eq(crit, 0))]);
        let r2 = eu_conjunctive_linear(&comp, &p2, &q);
        assert!(r2.holds);
        verify_eu_witness(&comp, &p2, &q, r2.witness.as_deref().unwrap()).unwrap();
        assert_eq!(r2.i_q.unwrap(), Cut::from_counters(vec![3, 0]));
    }

    #[test]
    fn eu_matches_model_checker() {
        let (comp, try_, crit) = try_crit();
        let mc = ModelChecker::new(&comp);
        let cases: Vec<(Conjunctive, Conjunctive)> = vec![
            (
                Conjunctive::new(vec![(0, LocalExpr::eq(crit, 0))]),
                Conjunctive::new(vec![(0, LocalExpr::eq(crit, 1))]),
            ),
            (
                Conjunctive::new(vec![(1, LocalExpr::eq(try_, 0))]),
                Conjunctive::new(vec![(0, LocalExpr::eq(crit, 1))]),
            ),
            (
                Conjunctive::top(),
                Conjunctive::new(vec![
                    (0, LocalExpr::eq(crit, 1)),
                    (1, LocalExpr::eq(crit, 1)),
                ]),
            ),
            (
                Conjunctive::new(vec![(0, LocalExpr::eq(crit, 7))]),
                Conjunctive::new(vec![(1, LocalExpr::eq(crit, 1))]),
            ),
        ];
        for (p, q) in &cases {
            let ours = eu_conjunctive_linear(&comp, p, q);
            assert_eq!(
                ours.holds,
                mc.eu(p, q),
                "E[{} U {}]",
                p.describe(),
                q.describe()
            );
            if let Some(w) = ours.witness.as_deref() {
                verify_eu_witness(&comp, p, q, w).unwrap();
            }
        }
    }

    #[test]
    fn eu_with_channel_predicate_target() {
        // Fig. 4 flavor: q = channels empty ∧ trying; here just channels.
        let (comp, _, _) = try_crit();
        let r = eu_conjunctive_linear(&comp, &Conjunctive::top(), &ChannelsEmpty);
        assert!(r.holds);
        // Channels start empty: I_q is the initial cut.
        assert_eq!(r.i_q.unwrap().rank(), 0);
        assert_eq!(r.witness.unwrap().len(), 1);
    }

    #[test]
    fn eu_q_never_holds() {
        let (comp, _, crit) = try_crit();
        let q = Conjunctive::new(vec![(0, LocalExpr::eq(crit, 9))]);
        let r = eu_conjunctive_linear(&comp, &Conjunctive::top(), &q);
        assert!(!r.holds);
        assert_eq!(r.i_q, None);
    }

    #[test]
    fn au_matches_model_checker() {
        let (comp, try_, crit) = try_crit();
        let mc = ModelChecker::new(&comp);
        let cases: Vec<(Disjunctive, Disjunctive)> = vec![
            // A[(try0 | try1) U (crit0 | crit1)]: every path must reach a
            // critical section with someone trying beforehand — fails at
            // the initial cut where nobody tries yet… unless a crit is
            // first. Model checker decides; we just must agree.
            (
                Disjunctive::new(vec![
                    (0, LocalExpr::eq(try_, 1)),
                    (1, LocalExpr::eq(try_, 1)),
                ]),
                Disjunctive::new(vec![
                    (0, LocalExpr::eq(crit, 1)),
                    (1, LocalExpr::eq(crit, 1)),
                ]),
            ),
            // A[true-ish U crit0]: crit0 is inevitable.
            (
                Disjunctive::new(vec![(0, LocalExpr::ge(try_, 0))]),
                Disjunctive::new(vec![(0, LocalExpr::eq(crit, 1))]),
            ),
            // Target never holds.
            (
                Disjunctive::new(vec![(0, LocalExpr::ge(try_, 0))]),
                Disjunctive::new(vec![(1, LocalExpr::eq(crit, 5))]),
            ),
        ];
        for (p, q) in &cases {
            let ours = au_disjunctive(&comp, p, q);
            assert_eq!(
                ours.holds,
                mc.au(p, q),
                "A[{} U {}]",
                p.describe(),
                q.describe()
            );
        }
    }

    #[test]
    fn au_true_until_inevitable() {
        let (comp, _, crit) = try_crit();
        let mc = ModelChecker::new(&comp);
        // AF(crit0 ∧ crit1) as A[true U ·] through the disjunctive API:
        // use tautological disjuncts for p.
        let p = Disjunctive::new(vec![
            (0, LocalExpr::ge(crit, 0)),
            (1, LocalExpr::ge(crit, 0)),
        ]);
        let q = Disjunctive::new(vec![(1, LocalExpr::eq(crit, 1))]);
        let ours = au_disjunctive(&comp, &p, &q);
        assert_eq!(ours.holds, mc.au(&TrueP, &q));
        assert!(ours.holds);
    }

    #[test]
    fn au_counterexample_is_meaningful() {
        let (comp, try_, crit) = try_crit();
        let p = Disjunctive::new(vec![(0, LocalExpr::eq(try_, 1))]);
        let q = Disjunctive::new(vec![(0, LocalExpr::eq(crit, 5))]); // never
        let r = au_disjunctive(&comp, &p, &q);
        assert!(!r.holds);
        let cex = r.counterexample.unwrap();
        // The counterexample avoids q everywhere.
        for g in &cex {
            assert!(!q.eval(&comp, g));
        }
    }
}
