//! Equivalence tests for Algorithms A1, A2 and A3: every report equals,
//! field for field, the report of the straightforward implementations
//! kept below in `reference` (A1 with an `O(n)` maximality test per
//! candidate, A2 with one binary search per process and event, A3 on a
//! restricted copy of the computation).

use hb_computation::{Computation, ComputationBuilder, VarId};
use hb_ctl::{compile_state_formula, evaluate, parse, CompiledPredicate, Engine, Evaluation};
use hb_ctl::{Evidence, Formula};
use hb_detect::{ag_linear, ef_linear, eg_conjunctive, eg_linear, eu_conjunctive_linear, AuReport};
use hb_predicates::{AndLinear, ChannelsEmpty, Conjunctive, Disjunctive, LocalExpr, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference implementations: `hb-detect`'s A1, A2 and A3 as they
/// were before the blocker counts, the forward-only sweep and the
/// in-place A3 walk, kept verbatim.
mod reference {
    use hb_computation::{Computation, Cut};
    use hb_detect::{ef_linear, AgReport, EgReport, EuReport};
    use hb_predicates::{Conjunctive, LinearPredicate, Predicate};

    /// Algorithm A1: detects `EG(p)` for a linear predicate `p`.
    pub fn eg_linear<P: LinearPredicate + ?Sized>(comp: &Computation, p: &P) -> EgReport {
        eg_backward_walk(comp, |g| p.eval(comp, g))
    }

    /// Algorithm A1 with the incremental conjunctive check: when `W` satisfies
    /// the conjunction, the predecessor `W − e_j` satisfies it iff `j`'s
    /// clause holds in `j`'s previous state.
    pub fn eg_conjunctive(comp: &Computation, p: &Conjunctive) -> EgReport {
        let final_cut = comp.final_cut();
        if !p.eval(comp, &final_cut) {
            return EgReport {
                holds: false,
                witness: None,
                steps: 1,
            };
        }
        let mut w = final_cut;
        let mut path = vec![w.clone()];
        let mut steps = 1usize;
        while w.rank() > 0 {
            steps += 1;
            // Invariant: w satisfies p, so only the retreating process's
            // clause needs re-checking.
            let chosen = (0..w.width()).find(|&j| {
                w.get(j) > 0 && p.clause_holds_at(comp, j, w.get(j) - 1) && comp.can_retreat(&w, j)
            });
            match chosen {
                Some(j) => {
                    w = w.retreated(j);
                    path.push(w.clone());
                }
                None => {
                    return EgReport {
                        holds: false,
                        witness: None,
                        steps,
                    }
                }
            }
        }
        path.reverse();
        EgReport {
            holds: true,
            witness: Some(path),
            steps,
        }
    }

    /// Shared backward walk used by [`eg_linear`].
    fn eg_backward_walk(comp: &Computation, sat: impl Fn(&Cut) -> bool) -> EgReport {
        let final_cut = comp.final_cut();
        if !sat(&final_cut) {
            return EgReport {
                holds: false,
                witness: None,
                steps: 1,
            };
        }
        let mut w = final_cut;
        let mut path = vec![w.clone()];
        let mut steps = 1usize;
        while w.rank() > 0 {
            steps += 1;
            let mut next = None;
            for j in 0..w.width() {
                if w.get(j) > 0 && comp.can_retreat(&w, j) {
                    let g = w.retreated(j);
                    if sat(&g) {
                        next = Some(g);
                        break;
                    }
                }
            }
            match next {
                Some(g) => {
                    w = g;
                    path.push(w.clone());
                }
                None => {
                    return EgReport {
                        holds: false,
                        witness: None,
                        steps,
                    }
                }
            }
        }
        path.reverse();
        EgReport {
            holds: true,
            witness: Some(path),
            steps,
        }
    }

    /// Algorithm A2: detects `AG(p)` for a linear predicate `p`.
    pub fn ag_linear<P: LinearPredicate + ?Sized>(comp: &Computation, p: &P) -> AgReport {
        let mut checked = 0usize;

        let final_cut = comp.final_cut();
        checked += 1;
        if !p.eval(comp, &final_cut) {
            return AgReport {
                holds: false,
                counterexample: Some(final_cut),
                checked,
            };
        }

        for e in comp.event_ids() {
            let v = comp.excluding_cut(e);
            checked += 1;
            if !p.eval(comp, &v) {
                return AgReport {
                    holds: false,
                    counterexample: Some(v),
                    checked,
                };
            }
        }
        AgReport {
            holds: true,
            counterexample: None,
            checked,
        }
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

        // Step 2: EG(p) on I_q − {e} for each maximal event e of I_q.
        for e in comp.maximal_events(&i_q) {
            let e_prime = i_q.retreated(e.process);
            let sub = comp.restricted_to(&e_prime);
            let r = eg_conjunctive(&sub, p);
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
}

/// The `A[p U q]` identity over the reference A1 and A3, composed as
/// `au_disjunctive` composes the library's.
fn reference_au(comp: &Computation, p: &Disjunctive, q: &Disjunctive) -> AuReport {
    let not_q = q.negated();
    let eg = reference::eg_conjunctive(comp, &not_q);
    if eg.holds {
        return AuReport {
            holds: false,
            counterexample: eg.witness,
        };
    }
    let not_p = p.negated();
    let clauses = not_p.clauses().iter().chain(not_q.clauses());
    let not_p_and_not_q = Conjunctive::new(clauses.map(|c| (c.process, c.expr.clone())).collect());
    let eu = reference::eu_conjunctive_linear(comp, &not_q, &not_p_and_not_q);
    AuReport {
        holds: !eu.holds,
        counterexample: eu.witness,
    }
}

/// A computation of the `offline-detect` shape: `n` processes with
/// `events` planned events each, `send_percent` of them sends, `x` drawn
/// from `0..4`, `phase` = 1 and 2 on each process's first two events,
/// and a closing event per process that sets `fin` = 1.
fn trace(n: usize, events: usize, send_percent: u32, seed: u64) -> Computation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ComputationBuilder::new(n);
    let (x, fin, phase) = (b.var("x"), b.var("fin"), b.var("phase"));
    let mut pending = std::collections::VecDeque::new();
    let mut remaining = vec![events; n];
    let mut seen = vec![0i64; n];
    for _ in 0..n * events {
        let alive: Vec<usize> = (0..n).filter(|&i| remaining[i] > 0).collect();
        let p = alive[rng.gen_range(0..alive.len())];
        remaining[p] -= 1;
        seen[p] += 1;
        let value = rng.gen_range(0..4i64);
        let receive = match pending.iter().position(|&(_, dest)| dest == p) {
            Some(idx) if rng.gen_bool(0.5) => pending.remove(idx).map(|(tok, _)| tok),
            _ => None,
        };
        let send = receive.is_none() && rng.gen_range(0..100u32) < send_percent;
        let mut draft = match receive {
            Some(tok) => b.receive(p, tok),
            None if send => b.send(p),
            None => b.internal(p),
        };
        draft = draft.set(x, value);
        if seen[p] <= 2 {
            draft = draft.set(phase, seen[p]);
        }
        if send {
            let dest = (p + rng.gen_range(1..n)) % n;
            pending.push_back((draft.done_send(), dest));
        } else {
            draft.done();
        }
    }
    while let Some((tok, dest)) = pending.pop_front() {
        b.receive(dest, tok).done();
    }
    for p in 0..n {
        b.internal(p).set(fin, 1).done();
    }
    b.finish().expect("trace builds")
}

struct Vars {
    x: VarId,
    fin: VarId,
    phase: VarId,
}

fn vars(comp: &Computation) -> Vars {
    let v = |name| comp.vars().lookup(name).expect("declared");
    Vars {
        x: v("x"),
        fin: v("fin"),
        phase: v("phase"),
    }
}

/// A conjunctive predicate of one of four shapes:
/// 0. `x ≤ 3` everywhere — holds on every cut, so every walk is full;
/// 1. `fin = 0` on one process — fails at the final cut;
/// 2. `phase ≠ 1` everywhere — the walk fails two events short of `∅`;
/// 3. `x ≠ v` on a few processes — usually fails mid-walk.
fn conj(comp: &Computation, kind: u8, salt: u64) -> Conjunctive {
    let n = comp.num_processes();
    let v = vars(comp);
    let clauses = match kind % 4 {
        0 => (0..n).map(|i| (i, LocalExpr::le(v.x, 3))).collect(),
        1 => vec![((salt as usize) % n, LocalExpr::eq(v.fin, 0))],
        2 => (0..n).map(|i| (i, LocalExpr::ne(v.phase, 1))).collect(),
        _ => (0..1 + (salt % 3) as usize)
            .map(|k| {
                let s = salt >> (8 * k);
                ((s as usize >> 2) % n, LocalExpr::ne(v.x, (s % 4) as i64))
            })
            .collect(),
    };
    Conjunctive::new(clauses)
}

/// A target for `E[p U q]`: `fin` everywhere (`I_q` = the final cut),
/// `phase = 2` on one process, or `x = v` on two processes.
fn target(comp: &Computation, kind: u8, salt: u64) -> Conjunctive {
    let n = comp.num_processes();
    let v = vars(comp);
    let i = (salt as usize) % n;
    Conjunctive::new(match kind % 3 {
        0 => (0..n).map(|i| (i, LocalExpr::eq(v.fin, 1))).collect(),
        1 => vec![(i, LocalExpr::eq(v.phase, 2))],
        _ => vec![
            (i, LocalExpr::eq(v.x, (salt >> 8) as i64 % 4)),
            ((i + 1) % n, LocalExpr::eq(v.x, (salt >> 16) as i64 % 4)),
        ],
    })
}

fn shape() -> impl Strategy<Value = (usize, usize, u32, u64)> {
    (2usize..=40, 1usize..=12, 0u32..=50, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a1_reports_equal_reference(
        (n, m, sends, seed) in shape(),
        kind in 0u8..4,
        salt in any::<u64>(),
    ) {
        let comp = trace(n, m, sends, seed);
        let p = conj(&comp, kind, salt);
        prop_assert_eq!(eg_conjunctive(&comp, &p), reference::eg_conjunctive(&comp, &p));
        prop_assert_eq!(eg_linear(&comp, &p), reference::eg_linear(&comp, &p));
        let with_channels = AndLinear(p, ChannelsEmpty);
        prop_assert_eq!(
            eg_linear(&comp, &with_channels),
            reference::eg_linear(&comp, &with_channels)
        );
    }

    #[test]
    fn a2_reports_equal_reference(
        (n, m, sends, seed) in shape(),
        kind in 0u8..4,
        salt in any::<u64>(),
    ) {
        let comp = trace(n, m, sends, seed);
        let p = conj(&comp, kind, salt);
        prop_assert_eq!(ag_linear(&comp, &p), reference::ag_linear(&comp, &p));
        let with_channels = AndLinear(p, ChannelsEmpty);
        prop_assert_eq!(
            ag_linear(&comp, &with_channels),
            reference::ag_linear(&comp, &with_channels)
        );
    }

    #[test]
    fn a3_reports_equal_reference(
        (n, m, sends, seed) in shape(),
        (p_kind, q_kind) in (0u8..4, 0u8..3),
        salt in any::<u64>(),
    ) {
        let comp = trace(n, m, sends, seed);
        let p = conj(&comp, p_kind, salt);
        let q = target(&comp, q_kind, salt.rotate_left(17));
        prop_assert_eq!(
            eu_conjunctive_linear(&comp, &p, &q),
            reference::eu_conjunctive_linear(&comp, &p, &q)
        );
        let q = AndLinear(q, ChannelsEmpty);
        prop_assert_eq!(
            eu_conjunctive_linear(&comp, &p, &q),
            reference::eu_conjunctive_linear(&comp, &p, &q)
        );
    }
}

fn conjunctive(p: CompiledPredicate) -> Conjunctive {
    match p {
        CompiledPredicate::Conjunctive(c) => c,
        other => panic!("expected a conjunctive predicate, got {other:?}"),
    }
}

fn disjunctive(p: CompiledPredicate) -> Disjunctive {
    match p {
        CompiledPredicate::Disjunctive(d) => d,
        other => panic!("expected a disjunctive predicate, got {other:?}"),
    }
}

/// The six `offline-detect` formulas at n = 128, 250 events per process:
/// `hb_ctl::evaluate` gives the verdict, engine and evidence of the
/// reference algorithms.
#[test]
fn offline_detect_shape_evaluates_like_reference() {
    const N: usize = 128;
    let comp = trace(N, 250, 30, 20020415);
    let upto = |n: usize, f: &dyn Fn(usize) -> String, sep: &str| -> String {
        (0..n).map(f).collect::<Vec<_>>().join(sep)
    };
    let all = |f: &dyn Fn(usize) -> String, sep: &str| upto(N, f, sep);
    let ef = format!(
        "{} & x@{} = 9",
        upto(N - 1, &|i| format!("x@{i} = 3"), " & "),
        N - 1
    );
    let le3 = all(&|i| format!("x@{i} <= 3"), " & ");
    let ge0 = all(&|i| format!("x@{i} >= 0"), " & ");
    let fin_all = all(&|i| format!("fin@{i} = 1"), " & ");
    let idle_any = all(&|i| format!("phase@{i} = 0"), " | ");
    let started_any = all(&|i| format!("phase@{i} = 1"), " | ");

    let cases = [
        format!("EF({ef})"),
        format!("AG({le3})"),
        format!("EG({le3})"),
        format!("E[{ge0} U {fin_all}]"),
        format!("A[{idle_any} U {started_any}]"),
        format!("AF({started_any})"),
    ];
    let mut verdicts = Vec::new();
    for text in &cases {
        let f = parse(text).expect("parses");
        let compile = |a: &Formula| compile_state_formula(&comp, a).expect("compiles");
        let expected = match &f {
            Formula::Ef(a) => {
                let r = ef_linear(&comp, &conjunctive(compile(a)));
                Evaluation {
                    verdict: r.holds,
                    engine: Engine::ChaseGargEf,
                    evidence: r.witness.map(Evidence::Cut),
                }
            }
            Formula::Ag(a) => {
                let r = reference::ag_linear(&comp, &conjunctive(compile(a)));
                Evaluation {
                    verdict: r.holds,
                    engine: Engine::A2,
                    evidence: r.counterexample.map(Evidence::Cut),
                }
            }
            Formula::Eg(a) => {
                let r = reference::eg_conjunctive(&comp, &conjunctive(compile(a)));
                Evaluation {
                    verdict: r.holds,
                    engine: Engine::A1Incremental,
                    evidence: r.witness.map(Evidence::Path),
                }
            }
            Formula::Eu(a, b) => {
                let (p, q) = (conjunctive(compile(a)), conjunctive(compile(b)));
                let r = reference::eu_conjunctive_linear(&comp, &p, &q);
                Evaluation {
                    verdict: r.holds,
                    engine: Engine::A3,
                    evidence: r.witness.map(Evidence::Path),
                }
            }
            Formula::Au(a, b) => {
                let r = reference_au(&comp, &disjunctive(compile(a)), &disjunctive(compile(b)));
                Evaluation {
                    verdict: r.holds,
                    engine: Engine::AuIdentity,
                    evidence: r.counterexample.map(Evidence::Path),
                }
            }
            Formula::Af(a) => {
                let r = reference::eg_conjunctive(&comp, &disjunctive(compile(a)).negated());
                Evaluation {
                    verdict: !r.holds,
                    engine: Engine::A1Incremental,
                    evidence: r.witness.map(Evidence::Path),
                }
            }
            other => panic!("unexpected formula {other:?}"),
        };
        let got = evaluate(&comp, &f).expect("evaluates");
        assert_eq!(got, expected, "{}", &text[..text.len().min(60)]);
        verdicts.push(got.verdict);
    }
    // The shape makes each walk long: EF never holds, the rest all hold.
    assert_eq!(verdicts, [false, true, true, true, true, true]);
}

#[test]
fn conjunctive_shapes_cover_holding_and_failing_walks() {
    let comp = trace(6, 8, 30, 3);
    let final_cut = comp.final_cut();
    let eg = |kind| eg_conjunctive(&comp, &conj(&comp, kind, 5));
    assert!(eg(0).holds);
    assert_eq!(eg(1).steps, 1, "fails at the final cut");
    let mid = eg(2);
    assert!(!mid.holds);
    assert!(
        mid.steps > 1 && mid.steps <= final_cut.rank() as usize,
        "fails mid-walk"
    );
    assert!(conj(&comp, 1, 5).eval(&comp, &comp.initial_cut()));
}
