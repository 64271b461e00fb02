//! The conjunctive on-line detector's prune: when a participating
//! process with an empty queue is observed at clock `V`, every other
//! queue drops its front candidates with `state < V[i]`.
//!
//! * Fed any causal-order interleaving of an `hb-sim` computation, the
//!   pruned detector reports a `Detected` verdict at the same
//!   observation and with the same cut as `reference` — the detector as
//!   it was before the prune, kept below — and an `Impossible` verdict
//!   at the same observation or sooner; its final verdict equals both
//!   the reference's and `ef_linear`'s.
//! * Its queues stay bounded when every process keeps hearing from the
//!   others, however long the run.
//! * They still grow when the process whose clause never holds never
//!   hears from the others: nothing tells the detector those candidates
//!   are dead.

use hb_computation::{Computation, EventId};
use hb_detect::ef_linear;
use hb_detect::online::{DetectorState, OnlineEfConjunctive, OnlineMonitor, OnlineVerdict};
use hb_predicates::{Conjunctive, LocalExpr};
use hb_sim::{random_computation, random_linearization, RandomSpec};
use hb_vclock::VectorClock;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The on-line conjunctive detector without the prune, kept verbatim
/// apart from its name: it pops a candidate only once every
/// participating queue is non-empty, and keeps queueing after an
/// `Impossible` verdict.
mod reference {
    use hb_computation::Cut;
    use hb_detect::online::OnlineVerdict;
    use hb_vclock::VectorClock;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    struct Candidate {
        state: u32,
        clock: VectorClock,
    }

    pub struct Unpruned {
        n: usize,
        queues: Vec<VecDeque<Candidate>>,
        participating: Vec<bool>,
        seen: Vec<u32>,
        finished: Vec<bool>,
        verdict: OnlineVerdict,
    }

    impl Unpruned {
        pub fn new(n: usize, participating: Vec<bool>, initially: Vec<bool>) -> Self {
            let mut m = Unpruned {
                n,
                queues: vec![VecDeque::new(); n],
                participating,
                seen: vec![0; n],
                finished: vec![false; n],
                verdict: OnlineVerdict::Pending,
            };
            for (i, &init) in initially.iter().enumerate() {
                if m.participating[i] && init {
                    m.queues[i].push_back(Candidate {
                        state: 0,
                        clock: VectorClock::new(n),
                    });
                }
            }
            m.recheck();
            m
        }

        pub fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) {
            assert!(!self.finished[i], "process {i} already finished");
            self.seen[i] += 1;
            if !self.participating[i] || !holds {
                return;
            }
            if matches!(self.verdict, OnlineVerdict::Detected(_)) {
                return;
            }
            self.queues[i].push_back(Candidate {
                state: self.seen[i],
                clock: clock.clone(),
            });
            self.recheck();
        }

        pub fn finish_process(&mut self, i: usize) {
            self.finished[i] = true;
            self.recheck();
        }

        pub fn verdict(&self) -> &OnlineVerdict {
            &self.verdict
        }

        fn recheck(&mut self) {
            if !matches!(self.verdict, OnlineVerdict::Pending) {
                return;
            }
            loop {
                for i in 0..self.n {
                    if self.participating[i] && self.queues[i].is_empty() {
                        if self.finished[i] {
                            self.verdict = OnlineVerdict::Impossible;
                        }
                        return;
                    }
                }
                let mut popped = false;
                'pairs: for i in 0..self.n {
                    if !self.participating[i] {
                        continue;
                    }
                    let ci = self.queues[i].front().expect("checked nonempty").clone();
                    for j in 0..self.n {
                        if i == j || !self.participating[j] {
                            continue;
                        }
                        let cj = self.queues[j].front().expect("checked nonempty");
                        if ci.clock.get(j) > cj.state {
                            self.queues[j].pop_front();
                            popped = true;
                            break 'pairs;
                        }
                    }
                }
                if !popped {
                    let mut counters = vec![0u32; self.n];
                    for i in 0..self.n {
                        if !self.participating[i] {
                            continue;
                        }
                        let c = self.queues[i].front().expect("nonempty");
                        counters[i] = counters[i].max(c.state);
                        for (j, slot) in counters.iter_mut().enumerate() {
                            *slot = (*slot).max(c.clock.get(j));
                        }
                    }
                    self.verdict = OnlineVerdict::Detected(Cut::from_counters(counters));
                    return;
                }
            }
        }
    }
}

/// A conjunctive predicate over `x` on a random non-empty set of
/// processes: `x = v` or `x ≠ v`, and sometimes `x = -1`, which never
/// holds, so its process keeps an empty queue and prunes the others.
fn conj(comp: &Computation, values: i64, salt: u64) -> Conjunctive {
    let n = comp.num_processes();
    let x = comp.vars().lookup("x").expect("declared");
    let mut rng = StdRng::seed_from_u64(salt);
    let mut clauses = Vec::new();
    for i in 0..n {
        if clauses.is_empty() && i + 1 == n || rng.gen_bool(0.6) {
            let v = rng.gen_range(0..values);
            clauses.push(match rng.gen_range(0..5u32) {
                0 => (i, LocalExpr::eq(x, -1)),
                1 => (i, LocalExpr::ne(x, v)),
                _ => (i, LocalExpr::eq(x, v)),
            });
        }
    }
    Conjunctive::new(clauses)
}

/// One input to a detector.
enum Step {
    Observe(EventId),
    Finish(usize),
}

/// Every event in `order`, each process finishing right after its last
/// event: the arrival sequence a session sees when processes end at
/// different times.
fn steps(comp: &Computation, order: &[EventId]) -> Vec<Step> {
    let mut out = Vec::with_capacity(order.len() + comp.num_processes());
    for i in 0..comp.num_processes() {
        if comp.num_events_of(i) == 0 {
            out.push(Step::Finish(i));
        }
    }
    for &e in order {
        out.push(Step::Observe(e));
        if e.index + 1 == comp.num_events_of(e.process) {
            out.push(Step::Finish(e.process));
        }
    }
    out
}

fn shape() -> impl Strategy<Value = (usize, usize, u8, i64, u64)> {
    (2usize..=6, 1usize..=14, 0u8..=70, 2i64..=4, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruned_detector_matches_unpruned_and_offline(
        (n, m, sends, values, seed) in shape(),
        salt in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: m,
            send_percent: sends,
            value_range: values,
            seed,
        });
        let p = conj(&comp, values, salt);
        let participating: Vec<bool> = (0..n)
            .map(|i| p.clauses().iter().any(|c| c.process == i))
            .collect();
        let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(&comp, i, 0)).collect();
        let mut pruned = OnlineEfConjunctive::new(n, participating.clone(), initially.clone());
        let mut unpruned = reference::Unpruned::new(n, participating, initially);
        prop_assert_eq!(pruned.verdict(), unpruned.verdict());

        let order = random_linearization(&comp, order_seed);
        for (at, step) in steps(&comp, &order).into_iter().enumerate() {
            match step {
                Step::Observe(e) => {
                    let holds = p.clause_holds_at(&comp, e.process, e.index as u32 + 1);
                    pruned.observe(e.process, holds, comp.clock(e));
                    unpruned.observe(e.process, holds, comp.clock(e));
                }
                Step::Finish(i) => {
                    pruned.finish_process(i);
                    unpruned.finish_process(i);
                }
            }
            // A detection happens at the same observation, at the same
            // cut. An `Impossible` may settle sooner, never later.
            let detected = |v: &OnlineVerdict| matches!(v, OnlineVerdict::Detected(_));
            if detected(pruned.verdict()) || detected(unpruned.verdict()) {
                prop_assert_eq!(pruned.verdict(), unpruned.verdict(), "step {}", at);
            }
            if matches!(unpruned.verdict(), OnlineVerdict::Impossible) {
                prop_assert_eq!(pruned.verdict(), &OnlineVerdict::Impossible, "step {}", at);
            }
        }
        prop_assert_eq!(pruned.verdict(), unpruned.verdict());
        let offline = ef_linear(&comp, &p);
        match pruned.verdict() {
            OnlineVerdict::Detected(cut) => prop_assert_eq!(Some(cut), offline.witness.as_ref()),
            OnlineVerdict::Impossible => prop_assert!(!offline.holds),
            OnlineVerdict::Pending => prop_assert!(false, "finished stream left Pending"),
        }
    }
}

/// A generated run of `n` processes, one event at a time, causally
/// ordered as generated. Every process emits at least once per `w`
/// events of the run; at each of its events a process hears from each
/// other process — merges that process's current clock — with
/// probability 1/8, and at the latest `w` of its own events after it
/// last heard from it. When `deaf_zero` is set, process 0 never hears
/// from anyone.
struct Run {
    n: usize,
    w: usize,
    deaf_zero: bool,
    rng: StdRng,
    clocks: Vec<VectorClock>,
    /// Events of the run since each process last emitted.
    idle: Vec<usize>,
    /// Own events of `p` since it last heard from `q`, at `[p][q]`.
    unheard: Vec<Vec<usize>>,
}

impl Run {
    fn new(n: usize, w: usize, deaf_zero: bool, seed: u64) -> Run {
        assert!(w >= 2 * n, "the schedule needs w ≥ 2n");
        Run {
            n,
            w,
            deaf_zero,
            rng: StdRng::seed_from_u64(seed),
            clocks: vec![VectorClock::new(n); n],
            idle: vec![0; n],
            unheard: vec![vec![0; n]; n],
        }
    }

    /// The next event: its process and clock.
    fn next(&mut self) -> (usize, VectorClock) {
        // A process idle for w − n events goes next; at most n − 1 others
        // are ahead of it, so none waits w events.
        let starved = (0..self.n)
            .filter(|&q| self.idle[q] >= self.w - self.n)
            .max_by_key(|&q| self.idle[q]);
        let p = starved.unwrap_or_else(|| self.rng.gen_range(0..self.n));
        for (q, idle) in self.idle.iter_mut().enumerate() {
            *idle = if q == p { 0 } else { *idle + 1 };
        }
        for q in 0..self.n {
            if q == p || (p == 0 && self.deaf_zero) {
                continue;
            }
            self.unheard[p][q] += 1;
            if self.unheard[p][q] >= self.w || self.rng.gen_range(0..8u32) == 0 {
                self.unheard[p][q] = 0;
                let heard = self.clocks[q].clone();
                self.clocks[p].merge(&heard);
            }
        }
        self.clocks[p].tick(p);
        (p, self.clocks[p].clone())
    }
}

/// Feeds `events` events of a [`Run`] to a detector whose process-0
/// clause never holds and whose other clauses hold with probability
/// 3/4. Returns the longest queue seen and the queue lengths at the end.
fn longest_queue(n: usize, w: usize, deaf_zero: bool, events: usize) -> (usize, Vec<usize>) {
    let mut run = Run::new(n, w, deaf_zero, 4803);
    let mut m = OnlineEfConjunctive::new(n, vec![true; n], vec![false; n]);
    let lengths = |m: &OnlineEfConjunctive| match OnlineMonitor::export_state(m) {
        DetectorState::Conjunctive(s) => s.queues.iter().map(Vec::len).collect::<Vec<_>>(),
        other => panic!("a conjunctive state, got {other:?}"),
    };
    let mut longest = 0;
    for _ in 0..events {
        let (p, clock) = run.next();
        // Only process 0's observations prune here, so every queue is
        // at its longest just before one.
        if p == 0 {
            longest = longest.max(lengths(&m).into_iter().max().unwrap_or(0));
        }
        let holds = p != 0 && run.rng.gen_range(0..4u32) != 0;
        m.observe(p, holds, &clock);
        assert_eq!(m.verdict(), &OnlineVerdict::Pending);
    }
    let end = lengths(&m);
    (longest.max(end.iter().copied().max().unwrap_or(0)), end)
}

/// The bound when every process emits at least once per `w` events and
/// hears from every other within `w` of its own events. Process 0 last
/// heard from `i` at most `w` of its own events ago, and consecutive
/// process-0 events are at most `w` events apart, so `i` has made at
/// most `w²` events since the state process 0 knows; only those
/// candidates, and the known one, survive the prune at process 0's last
/// observation. `n` enters through `w ≥ 2n`; the run's length does not
/// enter at all.
fn queue_bound(w: usize, n: usize) -> usize {
    assert!(w >= 2 * n);
    w * w + 1
}

#[test]
fn queues_stay_bounded_when_every_process_hears_from_the_others() {
    let (n, w) = (4, 8);
    let events = 1_000_000;
    let (longest, _) = longest_queue(n, w, false, events);
    assert!(
        longest <= queue_bound(w, n),
        "a queue reached {longest} candidates, above the bound {}",
        queue_bound(w, n)
    );
    // Independent of run length: a hundredth of the run already
    // reaches the same order of magnitude.
    let (short, _) = longest_queue(n, w, false, events / 100);
    assert!(longest <= 2 * short.max(1), "{short} → {longest}");
}

/// The case the prune cannot bound: process 0, whose clause never
/// holds, never hears from the others, so its clock never passes their
/// candidates and their queues grow with the run. Bounding this needs a
/// per-session memory budget that refuses or sheds the session loudly
/// (ROADMAP item 11), not a detector rule.
#[test]
fn queues_still_grow_when_the_empty_process_never_hears_from_the_others() {
    let (n, w) = (4, 8);
    let (_, short) = longest_queue(n, w, true, 10_000);
    let (_, long) = longest_queue(n, w, true, 20_000);
    assert_eq!(short[0], 0);
    for i in 1..n {
        assert!(short[i] > queue_bound(w, n), "queue {i}: {short:?}");
        assert!(
            long[i] > short[i] * 3 / 2,
            "queue {i}: {short:?} → {long:?}"
        );
    }
}
