//! Oracle property tests: every structural detection algorithm must agree
//! with the explicit-lattice CTL model checker on random computations and
//! random predicates of the appropriate class, and every positive answer
//! must carry a witness that validates against raw semantics.

use hb_computation::{Computation, ComputationBuilder};
use hb_detect::witness::{verify_af_counterexample, verify_eg_witness, verify_eu_witness};
use hb_detect::{
    af_conjunctive, af_disjunctive, ag_disjunctive, ag_linear, au_disjunctive, ef_disjunctive,
    ef_linear, ef_observer_independent, eg_conjunctive, eg_disjunctive, eg_linear,
    eu_conjunctive_linear, ModelChecker,
};
use hb_predicates::classify;
use hb_predicates::{ChannelsEmpty, Conjunctive, Disjunctive, LocalExpr, Predicate};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Internal(usize),
    Send(usize),
    Receive(usize),
}

fn plan(n_procs: usize, max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0..n_procs, 0u8..4), 1..max_ops).prop_map(|raw| {
        raw.into_iter()
            .map(|(p, k)| match k {
                0 | 1 => Op::Internal(p),
                2 => Op::Send(p),
                _ => Op::Receive(p),
            })
            .collect()
    })
}

/// Builds a computation where variable `x` cycles through small values, so
/// random comparisons carve interesting satisfying sets.
fn build(n_procs: usize, ops: &[Op]) -> Computation {
    let mut b = ComputationBuilder::new(n_procs);
    let x = b.var("x");
    let mut pending = std::collections::VecDeque::new();
    let mut v = 0i64;
    for op in ops {
        v = (v + 1) % 3;
        match *op {
            Op::Internal(p) => {
                b.internal(p).set(x, v).done();
            }
            Op::Send(p) => pending.push_back(b.send(p).set(x, v).done_send()),
            Op::Receive(p) => match pending.pop_front() {
                Some(tok) => {
                    b.receive(p, tok).set(x, v).done();
                }
                None => {
                    b.internal(p).set(x, v).done();
                }
            },
        }
    }
    let mut p = 0usize;
    while let Some(tok) = pending.pop_front() {
        b.receive(p % n_procs, tok).done();
        p += 1;
    }
    b.finish().expect("plan builds")
}

fn x_of(comp: &Computation) -> hb_computation::VarId {
    comp.vars().lookup("x").expect("x declared")
}

/// A random local expression over x with values in 0..3.
fn local_expr(comp: &Computation, sel: u8, lit: i64) -> LocalExpr {
    let x = x_of(comp);
    match sel % 6 {
        0 => LocalExpr::eq(x, lit),
        1 => LocalExpr::ne(x, lit),
        2 => LocalExpr::lt(x, lit),
        3 => LocalExpr::le(x, lit),
        4 => LocalExpr::gt(x, lit),
        _ => LocalExpr::ge(x, lit),
    }
}

fn conjunctive(comp: &Computation, spec: &[(u8, i64)]) -> Conjunctive {
    Conjunctive::new(
        spec.iter()
            .enumerate()
            .map(|(i, &(sel, lit))| (i % comp.num_processes(), local_expr(comp, sel, lit)))
            .collect(),
    )
}

fn disjunctive(comp: &Computation, spec: &[(u8, i64)]) -> Disjunctive {
    Disjunctive::new(
        spec.iter()
            .enumerate()
            .map(|(i, &(sel, lit))| (i % comp.num_processes(), local_expr(comp, sel, lit)))
            .collect(),
    )
}

fn pred_spec() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..6, 0i64..3), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ef_linear_matches_oracle(ops in plan(3, 10), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = ef_linear(&comp, &p);
        prop_assert_eq!(r.holds, mc.ef(&p), "{}", p.describe());
        if let Some(w) = r.witness {
            prop_assert!(comp.is_consistent(&w));
            prop_assert!(p.eval(&comp, &w));
        }
    }

    #[test]
    fn eg_linear_and_conjunctive_match_oracle(ops in plan(3, 10), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let expected = mc.eg(&p);
        let naive = eg_linear(&comp, &p);
        let inc = eg_conjunctive(&comp, &p);
        prop_assert_eq!(naive.holds, expected, "naive {}", p.describe());
        prop_assert_eq!(inc.holds, expected, "incremental {}", p.describe());
        if let Some(w) = naive.witness.as_deref() {
            prop_assert!(verify_eg_witness(&comp, &p, w).is_ok());
        }
        if let Some(w) = inc.witness.as_deref() {
            prop_assert!(verify_eg_witness(&comp, &p, w).is_ok());
        }
    }

    #[test]
    fn ag_linear_matches_oracle(ops in plan(3, 10), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = ag_linear(&comp, &p);
        prop_assert_eq!(r.holds, mc.ag(&p), "{}", p.describe());
        if let Some(cex) = r.counterexample {
            prop_assert!(comp.is_consistent(&cex));
            prop_assert!(!p.eval(&comp, &cex));
        }
    }

    #[test]
    fn eg_disjunctive_matches_oracle(ops in plan(3, 9), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = disjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = eg_disjunctive(&comp, &p);
        prop_assert_eq!(r.holds, mc.eg(&p), "{}", p.describe());
        if let Some(w) = r.witness.as_deref() {
            prop_assert!(verify_eg_witness(&comp, &p, w).is_ok());
        }
    }

    #[test]
    fn af_conjunctive_matches_oracle(ops in plan(3, 9), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = af_conjunctive(&comp, &p);
        prop_assert_eq!(r.holds, mc.af(&p), "{}", p.describe());
        if let Some(cex) = r.counterexample.as_deref() {
            prop_assert!(verify_af_counterexample(&comp, &p, cex).is_ok());
        }
    }

    #[test]
    fn af_ef_ag_disjunctive_match_oracle(ops in plan(3, 9), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = disjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        prop_assert_eq!(af_disjunctive(&comp, &p).holds, mc.af(&p), "AF {}", p.describe());
        prop_assert_eq!(ef_disjunctive(&comp, &p).holds, mc.ef(&p), "EF {}", p.describe());
        prop_assert_eq!(ag_disjunctive(&comp, &p).holds, mc.ag(&p), "AG {}", p.describe());
    }

    #[test]
    fn oi_sampling_matches_oracle_for_disjunctive(ops in plan(3, 9), spec in pred_spec()) {
        // Disjunctive predicates are observer-independent, so one sampled
        // observation decides EF and AF.
        let comp = build(3, &ops);
        let p = disjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = ef_observer_independent(&comp, &p);
        prop_assert_eq!(r.holds, mc.ef(&p));
        prop_assert_eq!(r.holds, mc.af(&p));
    }

    #[test]
    fn eu_matches_oracle(ops in plan(3, 8), pspec in pred_spec(), qspec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &pspec);
        let q = conjunctive(&comp, &qspec);
        let mc = ModelChecker::new(&comp);
        let r = eu_conjunctive_linear(&comp, &p, &q);
        prop_assert_eq!(
            r.holds, mc.eu(&p, &q),
            "E[{} U {}]", p.describe(), q.describe()
        );
        if let Some(w) = r.witness.as_deref() {
            prop_assert!(verify_eu_witness(&comp, &p, &q, w).is_ok());
        }
    }

    #[test]
    fn eu_with_channel_target_matches_oracle(ops in plan(3, 8), pspec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &pspec);
        let mc = ModelChecker::new(&comp);
        let r = eu_conjunctive_linear(&comp, &p, &ChannelsEmpty);
        prop_assert_eq!(r.holds, mc.eu(&p, &ChannelsEmpty));
        if let Some(w) = r.witness.as_deref() {
            prop_assert!(verify_eu_witness(&comp, &p, &ChannelsEmpty, w).is_ok());
        }
    }

    #[test]
    fn au_matches_oracle(ops in plan(3, 8), pspec in pred_spec(), qspec in pred_spec()) {
        let comp = build(3, &ops);
        let p = disjunctive(&comp, &pspec);
        let q = disjunctive(&comp, &qspec);
        let mc = ModelChecker::new(&comp);
        let r = au_disjunctive(&comp, &p, &q);
        prop_assert_eq!(
            r.holds, mc.au(&p, &q),
            "A[{} U {}]", p.describe(), q.describe()
        );
    }

    #[test]
    fn class_declarations_audited(ops in plan(3, 8), spec in pred_spec()) {
        // The structural foundation: conjunctive predicates really are
        // regular with a sound advancement oracle; disjunctive predicates
        // really are observer-independent; channel-emptiness is regular.
        let comp = build(3, &ops);
        let lat = mc_lattice(&comp);
        let c = conjunctive(&comp, &spec);
        prop_assert!(classify::is_regular_on(&lat, &comp, &c));
        prop_assert!(classify::verify_linear_oracle(&lat, &comp, &c));
        let d = disjunctive(&comp, &spec);
        prop_assert!(classify::is_observer_independent_on(&lat, &comp, &d));
        prop_assert!(classify::is_regular_on(&lat, &comp, &ChannelsEmpty));
        prop_assert!(classify::verify_linear_oracle(&lat, &comp, &ChannelsEmpty));
    }
}

fn mc_lattice(comp: &Computation) -> hb_lattice::CutLattice {
    hb_lattice::CutLattice::build(comp)
}

/// A fresh on-line conjunctive monitor for `p` at `comp`'s initial cut.
fn fresh_online(comp: &Computation, p: &Conjunctive) -> hb_detect::online::OnlineEfConjunctive {
    let n = comp.num_processes();
    let participating: Vec<bool> = (0..n)
        .map(|i| p.clauses().iter().any(|c| c.process == i))
        .collect();
    let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(comp, i, 0)).collect();
    hb_detect::online::OnlineEfConjunctive::new(n, participating, initially)
}

/// Streams a computation into the on-line conjunctive monitor in the
/// lowest-index topological order.
fn stream_online(comp: &Computation, p: &Conjunctive) -> hb_detect::online::OnlineVerdict {
    let n = comp.num_processes();
    let mut m = fresh_online(comp, p);
    let mut cut = comp.initial_cut();
    let final_cut = comp.final_cut();
    while cut != final_cut {
        let i = (0..cut.width())
            .find(|&i| comp.can_advance(&cut, i))
            .expect("enabled process");
        let e = hb_computation::EventId::new(i, cut.get(i) as usize);
        let holds = p.clause_holds_at(comp, i, cut.get(i) + 1);
        m.observe(i, holds, comp.clock(e));
        cut = cut.advanced(i);
    }
    for i in 0..n {
        m.finish_process(i);
    }
    m.verdict().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn online_ef_matches_offline(ops in plan(3, 10), spec in pred_spec()) {
        use hb_detect::online::OnlineVerdict;
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let offline = ef_linear(&comp, &p);
        match stream_online(&comp, &p) {
            OnlineVerdict::Detected(cut) => {
                prop_assert!(offline.holds, "{}", p.describe());
                prop_assert_eq!(Some(cut), offline.witness, "{}", p.describe());
            }
            OnlineVerdict::Impossible => prop_assert!(!offline.holds, "{}", p.describe()),
            OnlineVerdict::Pending => prop_assert!(false, "finished stream left Pending"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The wide shape (16–21 processes, clauses on most of them, a
    /// random linearization): a detector that is exported and rebuilt
    /// by `restore_monitor` after *every* observation tracks the
    /// uninterrupted one export for export, and settles to the offline
    /// least cut.
    #[test]
    fn online_ef_restored_at_every_boundary_matches_offline_wide(
        n in 16usize..22,
        ops in plan(22, 64),
        spec in prop::collection::vec((0u8..6, 0i64..3), 1..22),
        picks in prop::collection::vec(0usize..64, 1..16),
    ) {
        use hb_detect::online::{restore_monitor, OnlineMonitor, OnlineVerdict};
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Internal(p) => Op::Internal(p % n),
                Op::Send(p) => Op::Send(p % n),
                Op::Receive(p) => Op::Receive(p % n),
            })
            .collect();
        let comp = build(n, &ops);
        let p = conjunctive(&comp, &spec);
        let mut whole = fresh_online(&comp, &p);
        let mut hopping: Box<dyn OnlineMonitor + Send> = Box::new(fresh_online(&comp, &p));
        let mut cut = comp.initial_cut();
        let final_cut = comp.final_cut();
        for step in 0.. {
            if cut == final_cut {
                break;
            }
            let enabled: Vec<usize> = (0..n).filter(|&i| comp.can_advance(&cut, i)).collect();
            let i = enabled[picks[step % picks.len()] % enabled.len()];
            let e = hb_computation::EventId::new(i, cut.get(i) as usize);
            let holds = p.clause_holds_at(&comp, i, cut.get(i) + 1);
            whole.observe(i, holds, comp.clock(e));
            hopping.observe(i, holds, comp.clock(e));
            let exported = hopping.export_state();
            prop_assert_eq!(&exported, &OnlineMonitor::export_state(&whole), "after {}", e);
            hopping = restore_monitor(&exported);
            cut = cut.advanced(i);
        }
        for i in 0..n {
            whole.finish_process(i);
            hopping.finish_process(i);
        }
        prop_assert_eq!(hopping.export_state(), OnlineMonitor::export_state(&whole));
        let offline = ef_linear(&comp, &p);
        match hopping.verdict() {
            OnlineVerdict::Detected(cut) => {
                prop_assert_eq!(Some(cut), offline.witness.as_ref(), "{}", p.describe())
            }
            OnlineVerdict::Impossible => prop_assert!(!offline.holds, "{}", p.describe()),
            OnlineVerdict::Pending => prop_assert!(false, "finished stream left Pending"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ef_post_linear_finds_greatest_cut(ops in plan(3, 10), spec in pred_spec()) {
        // Conjunctive predicates are regular, hence post-linear: the dual
        // walk must find the *greatest* satisfying cut.
        use hb_detect::ef_post_linear;
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let r = ef_post_linear(&comp, &p);
        prop_assert_eq!(r.holds, mc.ef(&p), "{}", p.describe());
        if let Some(w) = r.witness {
            prop_assert!(p.eval(&comp, &w));
            // Greatest: every satisfying cut lies below it.
            for i in 0..mc.lattice().len() {
                let g = mc.lattice().cut(i);
                if p.eval(&comp, g) {
                    prop_assert!(g.leq(&w), "{} not below {}", g, w);
                }
            }
        }
    }

    #[test]
    fn eg_post_linear_matches_oracle_for_channels(ops in plan(3, 9)) {
        use hb_detect::eg_post_linear;
        let comp = build(3, &ops);
        let mc = ModelChecker::new(&comp);
        let r = eg_post_linear(&comp, &ChannelsEmpty);
        prop_assert_eq!(r.holds, mc.eg(&ChannelsEmpty));
        if let Some(w) = r.witness.as_deref() {
            prop_assert!(verify_eg_witness(&comp, &ChannelsEmpty, w).is_ok());
        }
    }

    #[test]
    fn slicer_membership_matches_predicate(ops in plan(3, 9), spec in pred_spec()) {
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let slice = hb_slicer::Slice::compute(&comp, &p);
        for i in 0..mc.lattice().len() {
            let g = mc.lattice().cut(i);
            prop_assert_eq!(slice.contains(g), p.eval(&comp, g), "{} at {}", p.describe(), g);
        }
        // Slice-based EG agrees with A1.
        let via_slice = hb_slicer::eg_regular_via_slice(&comp, &p);
        prop_assert_eq!(via_slice.holds, mc.eg(&p), "{}", p.describe());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn four_process_cross_check(ops in plan(4, 12), spec in pred_spec()) {
        // Wider computations: every core algorithm against the oracle.
        let comp = build(4, &ops);
        let mc = match ModelChecker::with_limit(&comp, 60_000) {
            Ok(mc) => mc,
            Err(_) => return Ok(()), // lattice too large for the oracle
        };
        let c = conjunctive(&comp, &spec);
        let d = disjunctive(&comp, &spec);
        prop_assert_eq!(ef_linear(&comp, &c).holds, mc.ef(&c));
        prop_assert_eq!(eg_conjunctive(&comp, &c).holds, mc.eg(&c));
        prop_assert_eq!(ag_linear(&comp, &c).holds, mc.ag(&c));
        prop_assert_eq!(af_conjunctive(&comp, &c).holds, mc.af(&c));
        prop_assert_eq!(eg_disjunctive(&comp, &d).holds, mc.eg(&d));
        prop_assert_eq!(af_disjunctive(&comp, &d).holds, mc.af(&d));
        prop_assert_eq!(
            eu_conjunctive_linear(&comp, &c, &ChannelsEmpty).holds,
            mc.eu(&c, &ChannelsEmpty)
        );
        prop_assert_eq!(
            au_disjunctive(&comp, &d, &d).holds,
            mc.au(&d, &d)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eg_holds_iff_some_path_survives_counting(ops in plan(3, 9), spec in pred_spec()) {
        // Quantified controllability: A1 answers true iff the number of
        // all-satisfying observations is nonzero.
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let mc = ModelChecker::new(&comp);
        let sat = mc.label(&p);
        let count = mc.lattice().count_paths_through(|i| sat[i]);
        prop_assert_eq!(eg_conjunctive(&comp, &p).holds, count > 0, "{}", p.describe());
        // And the unfiltered count matches total path statistics.
        prop_assert_eq!(
            mc.lattice().count_paths_through(|_| true),
            mc.lattice().path_counts().total_paths
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn control_schedules_enforce_invariance(ops in plan(3, 9), spec in pred_spec()) {
        // Predicate control soundness (Tarafdar–Garg): whenever EG(p)
        // holds, the synchronization schedule extracted from the witness
        // makes p invariant on the controlled computation.
        use hb_detect::control::{control_edges, ControlledComputation};
        let comp = build(3, &ops);
        let p = conjunctive(&comp, &spec);
        let r = eg_conjunctive(&comp, &p);
        if let Some(path) = r.witness.as_deref() {
            let edges = control_edges(&comp, path).expect("valid witness");
            let controlled = ControlledComputation::new(&comp, edges);
            prop_assert_eq!(controlled.ag_exhaustive(&p, 100_000), Some(true));
        }
    }
}
