//! Differential proptests: the online matcher against the
//! chain-enumeration oracle on random small traces, and the
//! chain-enumeration oracle against true linearization enumeration
//! (which never uses the pairwise lemma — so this layer *checks the
//! lemma*, not just the implementation).

use hb_detect::online::{OnlineMonitor, OnlineVerdict};
use hb_pattern::{chain_oracle, linearization_oracle, PatternEvent, PredictiveMatcher};
use hb_vclock::VectorClock;
use proptest::prelude::*;

/// Builds a random computation's event list from generator choices:
/// each step advances one process and optionally joins the clock of a
/// random earlier event (a message receive). Events come out in a
/// causally-consistent global order with valid vector clocks.
fn build_trace(n: usize, steps: &[(usize, Option<usize>, u64)]) -> Vec<PatternEvent> {
    let mut current: Vec<Vec<u32>> = vec![vec![0; n]; n];
    let mut events: Vec<PatternEvent> = Vec::new();
    for &(proc_pick, recv_from, mask) in steps {
        let p = proc_pick % n;
        let mut clock = current[p].clone();
        if let Some(pick) = recv_from {
            if !events.is_empty() {
                let src = &events[pick % events.len()];
                for (c, s) in clock.iter_mut().zip(&src.clock) {
                    *c = (*c).max(*s);
                }
            }
        }
        clock[p] += 1;
        current[p] = clock.clone();
        events.push(PatternEvent {
            process: p,
            clock,
            mask,
        });
    }
    events
}

/// Streams a trace through a fresh matcher in the given order,
/// returning the settled verdict.
fn run_matcher(n: usize, causal: &[bool], events: &[PatternEvent]) -> OnlineVerdict {
    let mut m = PredictiveMatcher::new(n, causal.to_vec());
    for e in events {
        m.observe_atoms(
            e.process,
            e.mask,
            &VectorClock::from_components(e.clock.clone()),
        );
    }
    for i in 0..n {
        m.finish_process(i);
    }
    OnlineMonitor::verdict(&m).clone()
}

/// A generator-choice strategy: (process, optional receive source,
/// atom mask) per event, masks restricted to the first `d` atoms.
fn steps(max_events: usize, d: u32) -> impl Strategy<Value = Vec<(usize, Option<usize>, u64)>> {
    steps_over(6, max_events, d)
}

/// [`steps`] with process picks spread over `procs` processes.
fn steps_over(
    procs: usize,
    max_events: usize,
    d: u32,
) -> impl Strategy<Value = Vec<(usize, Option<usize>, u64)>> {
    prop::collection::vec(
        (0..procs, prop::option::of(0usize..64), 0u64..(1 << d)),
        1..=max_events,
    )
}

/// Causal-edge flags for a `d`-atom pattern (first always plain).
fn edges(d: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), d).prop_map(|mut v| {
        v[0] = false;
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole property: the online frontier matcher agrees with
    /// chain enumeration on every random trace (≤6 processes, ≤12
    /// events, patterns up to 4 atoms with mixed -> / ~> edges).
    #[test]
    fn matcher_matches_the_chain_oracle(
        n in 1usize..=6,
        causal in edges(4).prop_map(|mut v| { v.truncate(4); v }),
        d in 1usize..=4,
        steps in steps(12, 4),
    ) {
        let causal = &causal[..d.min(causal.len())];
        // Truncate masks to the pattern length actually used.
        let events: Vec<PatternEvent> = build_trace(n, &steps)
            .into_iter()
            .map(|mut e| { e.mask &= (1 << causal.len()) - 1; e })
            .collect();
        let expected = chain_oracle(causal, &events);
        let verdict = run_matcher(n, causal, &events);
        match verdict {
            OnlineVerdict::Detected(_) => prop_assert!(expected, "matcher over-detects"),
            OnlineVerdict::Impossible => prop_assert!(!expected, "matcher under-detects"),
            OnlineVerdict::Pending => prop_assert!(false, "finished stream left Pending"),
        }
    }

    /// The same agreement on the wide shape (16–21 processes, so one
    /// frontier insert scans many candidate lists, most of them for
    /// concurrent events) — against chain enumeration always, and
    /// against true linearization enumeration wherever its budget
    /// suffices.
    #[test]
    fn matcher_matches_both_oracles_on_wide_sessions(
        n in 16usize..=21,
        causal in edges(3),
        steps in steps_over(21, 14, 3),
    ) {
        let events = build_trace(n, &steps);
        let expected = chain_oracle(&causal, &events);
        if let Some(by_linearizations) = linearization_oracle(&causal, &events, 200_000) {
            prop_assert_eq!(expected, by_linearizations);
        }
        match run_matcher(n, &causal, &events) {
            OnlineVerdict::Detected(_) => prop_assert!(expected, "matcher over-detects"),
            OnlineVerdict::Impossible => prop_assert!(!expected, "matcher under-detects"),
            OnlineVerdict::Pending => prop_assert!(false, "finished stream left Pending"),
        }
    }

    /// The matcher's verdict does not depend on delivery order beyond
    /// per-process order: a process-major redelivery (which breaks
    /// cross-process causal order) settles the same way.
    #[test]
    fn delivery_order_does_not_change_the_verdict(
        n in 1usize..=5,
        causal in edges(3),
        steps in steps(10, 3),
    ) {
        let events = build_trace(n, &steps);
        let causal_order = run_matcher(n, &causal, &events);
        let mut by_process = events.clone();
        by_process.sort_by_key(|e| std::cmp::Reverse(e.process));
        let process_major = run_matcher(n, &causal, &by_process);
        prop_assert_eq!(
            matches!(causal_order, OnlineVerdict::Detected(_)),
            matches!(process_major, OnlineVerdict::Detected(_))
        );
    }

    /// Export/restore mid-stream is invisible: resuming from exported
    /// state settles exactly like the uninterrupted run (the property
    /// SIGKILL crash recovery depends on).
    #[test]
    fn restart_from_exported_state_is_invisible(
        n in 1usize..=5,
        causal in edges(3),
        steps in steps(10, 3),
        cut_seed in 0usize..10_000,
    ) {
        let events = build_trace(n, &steps);
        let cut = cut_seed % (events.len() + 1);
        let mut whole = PredictiveMatcher::new(n, causal.clone());
        let mut first = PredictiveMatcher::new(n, causal.clone());
        for e in &events[..cut] {
            let c = VectorClock::from_components(e.clock.clone());
            whole.observe_atoms(e.process, e.mask, &c);
            first.observe_atoms(e.process, e.mask, &c);
        }
        let exported = first.export_state();
        let mut resumed = hb_pattern::restore_any(&exported);
        prop_assert_eq!(resumed.export_state(), exported.clone(), "export is stable");
        for e in &events[cut..] {
            let c = VectorClock::from_components(e.clock.clone());
            whole.observe_atoms(e.process, e.mask, &c);
            resumed.observe_atoms(e.process, e.mask, &c);
        }
        for i in 0..n {
            whole.finish_process(i);
            resumed.finish_process(i);
        }
        prop_assert_eq!(
            OnlineMonitor::verdict(&whole),
            OnlineMonitor::verdict(resumed.as_ref())
        );
    }

    /// The lemma check: chain enumeration agrees with true
    /// linearization enumeration wherever the budget suffices.
    #[test]
    fn chain_oracle_matches_linearization_enumeration(
        n in 1usize..=4,
        causal in edges(3),
        steps in steps(8, 3),
    ) {
        let events = build_trace(n, &steps);
        let by_chains = chain_oracle(&causal, &events);
        if let Some(by_linearizations) = linearization_oracle(&causal, &events, 200_000) {
            prop_assert_eq!(by_chains, by_linearizations);
        }
    }
}
