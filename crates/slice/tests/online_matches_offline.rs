//! Differential proptests for the membership filter: its decisions
//! against ground-truth clause satisfaction and the offline
//! `hb_slicer::Slice` on random computations delivered in random
//! causal orders, and a lattice-oracle audit that the structurally
//! "sliceable" predicates really are regular.

use hb_computation::{EventId, VarId};
use hb_predicates::{classify, Conjunctive, LocalExpr};
use hb_sim::{random_computation, random_linearization, RandomSpec};
use hb_slice::{SkipReason, SliceFilter};
use hb_slicer::Slice;
use proptest::prelude::*;

/// `(process, op, threshold)` triples instantiated against `x`.
#[derive(Debug, Clone)]
struct ClauseSpec(Vec<(usize, u8, i64)>);

fn clause_specs(n: usize, value_range: i64) -> impl Strategy<Value = ClauseSpec> {
    prop::collection::vec((0..n, 0u8..3, 0..value_range), 1..=n.max(1)).prop_map(ClauseSpec)
}

fn build_clauses(spec: &ClauseSpec, x: VarId) -> Vec<(usize, LocalExpr)> {
    spec.0
        .iter()
        .map(|&(p, op, v)| {
            let expr = match op {
                0 => LocalExpr::ge(x, v),
                1 => LocalExpr::le(x, v),
                _ => LocalExpr::eq(x, v),
            };
            (p, expr)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ingest filter's verdict-level membership decisions are
    /// exactly "participating process and clause true on the
    /// post-state", and every `ClauseFalse`/`Untouched` skip really
    /// collapses onto the process's next admitted event (equal
    /// offline `J_p` cuts), so dropping it loses no slice node.
    #[test]
    fn filter_decisions_match_ground_truth(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        n in 2usize..5,
        epp in 1usize..9,
        send_percent in 0u8..80,
        spec_raw in clause_specs(4, 4),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: epp,
            send_percent,
            value_range: 4,
            seed,
        });
        let x = comp.vars().lookup("x").unwrap();
        let spec = ClauseSpec(spec_raw.0.iter().map(|&(p, op, v)| (p % n, op, v)).collect());
        let conj = Conjunctive::new(build_clauses(&spec, x));
        let offline = Slice::compute(&comp, &conj);

        // Fold per-process clauses the way a session does.
        let mut folded: Vec<Option<LocalExpr>> = vec![None; n];
        for (p, expr) in build_clauses(&spec, x) {
            folded[p] = Some(match folded[p].take() {
                Some(prev) => prev.and(expr),
                None => expr,
            });
        }
        let mut filter = SliceFilter::from_clauses(&folded, comp.initial_states());

        let truth = |p: usize, state: u32| {
            folded[p].as_ref().is_none_or(|c| c.eval(comp.local_state(p, state)))
        };
        // Next clause-true state of `p` strictly after event `k`, if any.
        let next_member = |p: usize, k: usize| {
            ((k + 1)..comp.num_events_of(p)).find(|&k2| truth(p, k2 as u32 + 1))
        };

        let mut filtered = 0u64;
        let order = random_linearization(&comp, shuffle_seed);
        for &id in &order {
            let delta = filter.advance(id.process, [x], || truth(id.process, id.index as u32 + 1));
            let expect_member =
                folded[id.process].is_some() && truth(id.process, id.index as u32 + 1);
            prop_assert_eq!(delta.is_member(), expect_member, "membership at {}", id);
            if !expect_member {
                filtered += 1;
            }
            if let hb_slice::SliceDelta::Skip { reason } = delta {
                prop_assert_eq!(reason, if folded[id.process].is_none() {
                    SkipReason::NonParticipating
                } else {
                    SkipReason::ClauseFalse
                });
                if reason == SkipReason::ClauseFalse {
                    // The skip collapses forward: same least satisfying
                    // cut as the next admitted event on the process.
                    let j_skip = offline.j_cut(id).cloned();
                    match next_member(id.process, id.index) {
                        Some(k2) => prop_assert_eq!(
                            j_skip,
                            offline.j_cut(EventId::new(id.process, k2)).cloned(),
                            "collapse mismatch at {}", id
                        ),
                        // No later true state: no satisfying cut can
                        // contain the event.
                        None => prop_assert_eq!(j_skip, None),
                    }
                }
            }
        }
        prop_assert_eq!(filter.events_in(), order.len() as u64);
        prop_assert_eq!(filter.events_filtered(), filtered);
    }

    /// Lattice-oracle audit for the structural classification the
    /// monitor uses: conjunctions of local clauses are regular on
    /// random computations (`hb_predicates::classify::is_regular_on`),
    /// justifying `hb_slice::sliceable(WireMode::Conjunctive)`.
    #[test]
    fn conjunctive_predicates_audit_as_regular(
        seed in any::<u64>(),
        n in 2usize..4,
        epp in 1usize..5,
        send_percent in 0u8..80,
        spec_raw in clause_specs(3, 3),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: epp,
            send_percent,
            value_range: 3,
            seed,
        });
        let x = comp.vars().lookup("x").unwrap();
        let spec = ClauseSpec(spec_raw.0.iter().map(|&(p, op, v)| (p % n, op, v)).collect());
        let conj = Conjunctive::new(build_clauses(&spec, x));
        let lat = hb_lattice::CutLattice::build(&comp);
        prop_assert!(classify::is_regular_on(&lat, &comp, &conj));
    }
}
