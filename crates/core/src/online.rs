//! On-line detection — the paper's closing future-work item ("another
//! area of future work will be to develop efficient on-line versions of
//! our algorithms").
//!
//! An on-line monitor consumes a computation **as it executes**: local
//! states arrive one at a time, each tagged with the vector clock of the
//! event that produced it, in any order consistent with causality. The
//! monitor answers after every observation:
//!
//! * [`OnlineEfConjunctive`] — on-line `EF(p)` for conjunctive `p`
//!   (equivalently, on-line violation detection for the invariant
//!   `AG(¬p)` with disjunctive `¬p`): the Garg–Waldecker queue
//!   algorithm. Each process queues the states satisfying its clause;
//!   whenever every queue has a candidate, pairwise vector-clock
//!   compatibility is enforced by popping candidates that some other
//!   candidate's causal past has already overtaken. The first compatible
//!   set *is* the least satisfying cut `I_p`, identical to what the
//!   off-line Chase–Garg walk returns.
//! * [`OnlineEfDisjunctive`] — on-line `EF(p)` for disjunctive `p`:
//!   report the first arriving state satisfying any clause.
//!
//! Amortized cost: each queued state is pushed and popped at most once,
//! and every pop is justified by one `O(n)` clock comparison — `O(n|E|)`
//! over the whole run, matching the off-line bound.

use hb_computation::Cut;
use hb_vclock::VectorClock;
use std::collections::VecDeque;

/// Verdict of an on-line monitor after some prefix of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineVerdict {
    /// The predicate was detected; the cut is the least satisfying cut
    /// over the observed prefix (for the conjunctive monitor, `I_p`).
    Detected(Cut),
    /// The predicate can no longer hold, whatever happens next.
    Impossible,
    /// Undetermined: keep observing.
    Pending,
}

/// The common surface of on-line detectors, object-safe so a monitoring
/// service can hold a heterogeneous bag of `Box<dyn OnlineMonitor>`s and
/// feed them the same delivered stream.
///
/// The caller evaluates each process's local clause itself (monitors
/// never see variable values — exactly the information a distributed
/// checker would ship) and streams `(process, holds, clock)` triples in
/// any order consistent with causality, with per-process order
/// preserved.
pub trait OnlineMonitor {
    /// Observes the next local state of process `i`: `holds` is the
    /// local clause's value in that state, `clock` the vector clock of
    /// the event that produced it. Returns the verdict after the
    /// observation.
    fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) -> OnlineVerdict;

    /// Observes the next event of process `i` as a **labeled** event:
    /// bit `k` of `mask` is set when the event matches atom `k` of the
    /// monitor's pattern. State-predicate monitors have one implicit
    /// atom — the local clause — so the default folds the mask down to
    /// [`OnlineMonitor::observe`]'s boolean; pattern monitors override
    /// this with the real per-atom dispatch.
    fn observe_atoms(&mut self, i: usize, mask: u64, clock: &VectorClock) -> OnlineVerdict {
        self.observe(i, mask != 0, clock)
    }

    /// Declares that process `i` will produce no further states; returns
    /// the (possibly newly settled) verdict.
    fn finish_process(&mut self, i: usize) -> OnlineVerdict;

    /// The current verdict.
    fn verdict(&self) -> &OnlineVerdict;

    /// Whether the verdict can still change with more input.
    fn is_settled(&self) -> bool {
        !matches!(self.verdict(), OnlineVerdict::Pending)
    }

    /// Exports the monitor's full state as plain data, so a monitoring
    /// service can persist it and later rebuild an equivalent monitor
    /// with [`restore_monitor`].
    fn export_state(&self) -> DetectorState;
}

/// A verdict as plain data (the cut flattened to its counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictState {
    /// Detected, with the least satisfying cut's counters.
    Detected(Vec<u32>),
    /// Settled negative.
    Impossible,
    /// Still observing.
    Pending,
}

impl VerdictState {
    /// Flattens a live verdict.
    pub fn from_verdict(v: &OnlineVerdict) -> VerdictState {
        match v {
            OnlineVerdict::Detected(cut) => VerdictState::Detected(cut.counters().to_vec()),
            OnlineVerdict::Impossible => VerdictState::Impossible,
            OnlineVerdict::Pending => VerdictState::Pending,
        }
    }

    /// Rebuilds the live verdict.
    pub fn to_verdict(&self) -> OnlineVerdict {
        match self {
            VerdictState::Detected(counters) => {
                OnlineVerdict::Detected(Cut::from_counters(counters.clone()))
            }
            VerdictState::Impossible => OnlineVerdict::Impossible,
            VerdictState::Pending => OnlineVerdict::Pending,
        }
    }
}

/// One queued candidate as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateState {
    /// Local state index (0 is the initial state).
    pub state: u32,
    /// Components of the producing event's vector clock.
    pub clock: Vec<u32>,
}

/// Exported state of an [`OnlineEfConjunctive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveState {
    /// Process count.
    pub n: usize,
    /// Per-process candidate queues, front first.
    pub queues: Vec<Vec<CandidateState>>,
    /// Which processes carry a clause.
    pub participating: Vec<bool>,
    /// States observed per process.
    pub seen: Vec<u32>,
    /// Which processes have finished.
    pub finished: Vec<bool>,
    /// The verdict so far.
    pub verdict: VerdictState,
}

/// Exported state of an [`OnlineEfDisjunctive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctiveState {
    /// States observed per process.
    pub seen: Vec<u32>,
    /// Processes not yet finished.
    pub live: usize,
    /// The verdict so far.
    pub verdict: VerdictState,
}

/// One Pareto-frontier entry of a predictive pattern matcher, as plain
/// data: the witness chain's clock join and the clock of its last event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternChainState {
    /// Componentwise join of the chain's event clocks.
    pub join: Vec<u32>,
    /// Clock of the chain's last (highest-atom) event.
    pub last: Vec<u32>,
}

/// Exported state of a predictive pattern matcher (`hb-pattern`'s
/// `PredictiveMatcher`). Defined here so [`DetectorState`] can carry it
/// through the same persistence path as the state-predicate detectors;
/// the matcher itself lives in the `hb-pattern` crate, which depends on
/// this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternState {
    /// Process count.
    pub n: usize,
    /// Per-atom causal-edge flags (`causal[k]` links atom `k-1` → `k`;
    /// `causal[0]` is always `false`). Length is the pattern length `d`.
    pub causal: Vec<bool>,
    /// `frontiers[k]` holds the minimal `k`-chains, `0 ≤ k ≤ d`.
    pub frontiers: Vec<Vec<PatternChainState>>,
    /// `candidates[k][p]`: clocks of process-`p` events matching atom
    /// `k`, in arrival (= causal, per process) order.
    pub candidates: Vec<Vec<Vec<Vec<u32>>>>,
    /// Which processes have finished.
    pub finished: Vec<bool>,
    /// Events observed per process.
    pub seen: Vec<u32>,
    /// The verdict so far.
    pub verdict: VerdictState,
}

/// The full state of any on-line detector, as plain data: everything a
/// service needs to persist a monitor and rebuild it after a crash.
/// Contains no [`VectorClock`] or [`Cut`] values, only integers and
/// booleans, so serialization lives entirely with the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorState {
    /// An [`OnlineEfConjunctive`].
    Conjunctive(ConjunctiveState),
    /// An [`OnlineEfDisjunctive`].
    Disjunctive(DisjunctiveState),
    /// An `hb-pattern` `PredictiveMatcher`.
    Pattern(PatternState),
}

/// Rebuilds a boxed monitor from exported state; the round trip
/// `restore_monitor(m.export_state())` yields a monitor observationally
/// identical to `m`.
///
/// # Panics
///
/// On [`DetectorState::Pattern`]: the matcher type lives in the
/// `hb-pattern` crate (which depends on this one), so callers holding
/// pattern state must dispatch to `hb_pattern::restore_any` instead.
pub fn restore_monitor(state: &DetectorState) -> Box<dyn OnlineMonitor + Send> {
    match state {
        DetectorState::Conjunctive(s) => Box::new(OnlineEfConjunctive::from_state(s)),
        DetectorState::Disjunctive(s) => Box::new(OnlineEfDisjunctive::from_state(s)),
        DetectorState::Pattern(_) => {
            panic!("pattern detectors are restored by hb_pattern::restore_any")
        }
    }
}

impl OnlineMonitor for OnlineEfConjunctive {
    fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) -> OnlineVerdict {
        OnlineEfConjunctive::observe(self, i, holds, clock);
        self.verdict.clone()
    }

    fn finish_process(&mut self, i: usize) -> OnlineVerdict {
        OnlineEfConjunctive::finish_process(self, i);
        self.verdict.clone()
    }

    fn verdict(&self) -> &OnlineVerdict {
        OnlineEfConjunctive::verdict(self)
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Conjunctive(ConjunctiveState {
            n: self.n,
            queues: self
                .queues
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|c| CandidateState {
                            state: c.state,
                            clock: c.clock.components().to_vec(),
                        })
                        .collect()
                })
                .collect(),
            participating: self.participating.clone(),
            seen: self.seen.clone(),
            finished: self.finished.clone(),
            verdict: VerdictState::from_verdict(&self.verdict),
        })
    }
}

impl OnlineMonitor for OnlineEfDisjunctive {
    fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) -> OnlineVerdict {
        OnlineEfDisjunctive::observe(self, i, holds, clock);
        self.verdict.clone()
    }

    fn finish_process(&mut self, i: usize) -> OnlineVerdict {
        OnlineEfDisjunctive::finish_process(self, i);
        self.verdict.clone()
    }

    fn verdict(&self) -> &OnlineVerdict {
        OnlineEfDisjunctive::verdict(self)
    }

    fn export_state(&self) -> DetectorState {
        DetectorState::Disjunctive(DisjunctiveState {
            seen: self.seen.clone(),
            live: self.live,
            verdict: VerdictState::from_verdict(&self.verdict),
        })
    }
}

/// A queued candidate: a local state index and the clock of the event
/// that produced it (`state 0` carries the zero clock).
#[derive(Debug, Clone)]
struct Candidate {
    state: u32,
    clock: VectorClock,
}

/// On-line `EF(conjunctive)` monitor.
///
/// The caller evaluates each process's clause locally (the monitor never
/// sees variable values — exactly the information a distributed checker
/// would ship): call [`OnlineEfConjunctive::observe`] for every new local
/// state of a *participating* process, and
/// [`OnlineEfConjunctive::finish_process`] when a process's stream ends.
#[derive(Debug)]
pub struct OnlineEfConjunctive {
    n: usize,
    /// Queue of satisfying states per participating process.
    queues: Vec<VecDeque<Candidate>>,
    /// Which processes carry a clause.
    participating: Vec<bool>,
    /// Number of states observed per process (so callers stream states,
    /// not indices).
    seen: Vec<u32>,
    finished: Vec<bool>,
    verdict: OnlineVerdict,
}

impl OnlineEfConjunctive {
    /// A monitor over `n` processes; `participating[i]` marks the
    /// processes whose local clause exists (a conjunct on `P_i`).
    ///
    /// `initially[i]` tells the monitor whether `P_i`'s clause holds in
    /// its initial state (state 0, zero clock).
    pub fn new(n: usize, participating: Vec<bool>, initially: Vec<bool>) -> Self {
        assert_eq!(participating.len(), n);
        assert_eq!(initially.len(), n);
        let mut m = OnlineEfConjunctive {
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

    /// Rebuilds a monitor from exported state.
    pub fn from_state(s: &ConjunctiveState) -> Self {
        OnlineEfConjunctive {
            n: s.n,
            queues: s
                .queues
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|c| Candidate {
                            state: c.state,
                            clock: VectorClock::from_components(c.clock.clone()),
                        })
                        .collect()
                })
                .collect(),
            participating: s.participating.clone(),
            seen: s.seen.clone(),
            finished: s.finished.clone(),
            verdict: s.verdict.to_verdict(),
        }
    }

    /// Observes the next local state of process `i`: `holds` is the local
    /// clause's value in that state and `clock` is the vector clock of
    /// the event that produced it.
    ///
    /// States must arrive in per-process order; cross-process order is
    /// free.
    pub fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) {
        assert!(!self.finished[i], "process {i} already finished");
        self.seen[i] += 1;
        if !self.participating[i] || !holds {
            return;
        }
        if matches!(self.verdict, OnlineVerdict::Detected(_)) {
            return; // already answered; ignore further input
        }
        self.queues[i].push_back(Candidate {
            state: self.seen[i],
            clock: clock.clone(),
        });
        self.recheck();
    }

    /// Declares that process `i` will produce no further states.
    pub fn finish_process(&mut self, i: usize) {
        self.finished[i] = true;
        self.recheck();
    }

    /// The monitor's current verdict.
    pub fn verdict(&self) -> &OnlineVerdict {
        &self.verdict
    }

    /// The popping fixpoint: drop candidates provably not part of any
    /// compatible set; detect when every participating queue's front is
    /// pairwise compatible.
    fn recheck(&mut self) {
        if !matches!(self.verdict, OnlineVerdict::Pending) {
            return;
        }
        loop {
            // A process with an empty queue: wait unless it is finished
            // (then the conjunction can never hold again).
            for i in 0..self.n {
                if self.participating[i] && self.queues[i].is_empty() {
                    if self.finished[i] {
                        self.verdict = OnlineVerdict::Impossible;
                    }
                    return;
                }
            }
            // All fronts available: enforce pairwise compatibility.
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
                    // i's candidate prefix requires more events of j than
                    // j's candidate provides: j's candidate is too early
                    // for i's and for every later i-candidate (clocks
                    // only grow), so it is dead.
                    if ci.clock.get(j) > cj.state {
                        self.queues[j].pop_front();
                        popped = true;
                        break 'pairs;
                    }
                }
            }
            if !popped {
                // Compatible: the least satisfying cut is the join of the
                // candidates' prefixes.
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

/// On-line `EF(disjunctive)` monitor: fires on the first satisfying
/// state.
#[derive(Debug)]
pub struct OnlineEfDisjunctive {
    seen: Vec<u32>,
    live: usize,
    verdict: OnlineVerdict,
}

impl OnlineEfDisjunctive {
    /// A monitor over `n` processes. `initially[i]` is `P_i`'s clause in
    /// its initial state (a clauseless process passes `false`).
    pub fn new(n: usize, initially: Vec<bool>) -> Self {
        let mut m = OnlineEfDisjunctive {
            seen: vec![0; n],
            live: n,
            verdict: OnlineVerdict::Pending,
        };
        if initially.iter().any(|&b| b) {
            m.verdict = OnlineVerdict::Detected(Cut::initial(n));
        }
        m
    }

    /// Rebuilds a monitor from exported state.
    pub fn from_state(s: &DisjunctiveState) -> Self {
        OnlineEfDisjunctive {
            seen: s.seen.clone(),
            live: s.live,
            verdict: s.verdict.to_verdict(),
        }
    }

    /// Observes the next local state of process `i`.
    pub fn observe(&mut self, i: usize, holds: bool, clock: &VectorClock) {
        self.seen[i] += 1;
        if !matches!(self.verdict, OnlineVerdict::Pending) {
            return;
        }
        if holds {
            // The causal past of the producing event is a consistent cut
            // where the state is current.
            self.verdict = OnlineVerdict::Detected(Cut::from_counters(clock.components().to_vec()));
        }
    }

    /// Declares a process finished; when all are, a pending monitor
    /// becomes impossible.
    pub fn finish_process(&mut self, _i: usize) {
        self.live = self.live.saturating_sub(1);
        if self.live == 0 && matches!(self.verdict, OnlineVerdict::Pending) {
            self.verdict = OnlineVerdict::Impossible;
        }
    }

    /// The monitor's current verdict.
    pub fn verdict(&self) -> &OnlineVerdict {
        &self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ef::ef_linear;
    use crate::tokens::ef_disjunctive;
    use hb_computation::{Computation, ComputationBuilder, EventId};
    use hb_predicates::{Conjunctive, Disjunctive, LocalExpr, Predicate};

    /// Streams a recorded computation into a conjunctive monitor using
    /// the given interleaving (a topological order of events).
    fn stream_conj(comp: &Computation, p: &Conjunctive, order: &[EventId]) -> OnlineVerdict {
        let n = comp.num_processes();
        let participating: Vec<bool> = (0..n)
            .map(|i| p.clauses().iter().any(|c| c.process == i))
            .collect();
        let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(comp, i, 0)).collect();
        let mut m = OnlineEfConjunctive::new(n, participating, initially);
        for &e in order {
            let holds = p.clause_holds_at(comp, e.process, e.index as u32 + 1);
            m.observe(e.process, holds, comp.clock(e));
        }
        for i in 0..n {
            m.finish_process(i);
        }
        m.verdict().clone()
    }

    fn topo_order(comp: &Computation) -> Vec<EventId> {
        let mut cut = comp.initial_cut();
        let final_cut = comp.final_cut();
        let mut order = Vec::new();
        while cut != final_cut {
            let i = (0..cut.width())
                .find(|&i| comp.can_advance(&cut, i))
                .expect("enabled process");
            order.push(EventId::new(i, cut.get(i) as usize));
            cut = cut.advanced(i);
        }
        order
    }

    fn mutexish() -> (Computation, hb_computation::VarId) {
        let mut b = ComputationBuilder::new(3);
        let x = b.var("x");
        b.internal(0).set(x, 1).done();
        let m = b.send(0).set(x, 2).done_send();
        b.internal(1).set(x, 1).done();
        b.receive(2, m).set(x, 1).done();
        b.internal(2).set(x, 0).done();
        (b.finish().unwrap(), x)
    }

    #[test]
    fn online_matches_offline_and_finds_i_p() {
        let (comp, x) = mutexish();
        let preds = [
            Conjunctive::new(vec![(0, LocalExpr::eq(x, 1)), (1, LocalExpr::eq(x, 1))]),
            Conjunctive::new(vec![
                (0, LocalExpr::eq(x, 2)),
                (1, LocalExpr::eq(x, 1)),
                (2, LocalExpr::eq(x, 1)),
            ]),
            Conjunctive::new(vec![(2, LocalExpr::eq(x, 9))]),
        ];
        for p in &preds {
            let offline = ef_linear(&comp, p);
            let online = stream_conj(&comp, p, &topo_order(&comp));
            match online {
                OnlineVerdict::Detected(cut) => {
                    assert!(offline.holds, "{}", p.describe());
                    assert_eq!(Some(cut.clone()), offline.witness, "{}", p.describe());
                    assert!(comp.is_consistent(&cut));
                    assert!(p.eval(&comp, &cut));
                }
                OnlineVerdict::Impossible => {
                    assert!(!offline.holds, "{}", p.describe())
                }
                OnlineVerdict::Pending => panic!("finished stream left Pending"),
            }
        }
    }

    #[test]
    fn interleaving_does_not_change_the_verdict() {
        let (comp, x) = mutexish();
        let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 2)), (2, LocalExpr::eq(x, 1))]);
        // Two different topological orders: the default one and the one
        // preferring the highest process index.
        let order_a = topo_order(&comp);
        let mut order_b = Vec::new();
        {
            let mut cut = comp.initial_cut();
            let final_cut = comp.final_cut();
            while cut != final_cut {
                let i = (0..cut.width())
                    .rev()
                    .find(|&i| comp.can_advance(&cut, i))
                    .unwrap();
                order_b.push(EventId::new(i, cut.get(i) as usize));
                cut = cut.advanced(i);
            }
        }
        let va = stream_conj(&comp, &p, &order_a);
        let vb = stream_conj(&comp, &p, &order_b);
        assert_eq!(va, vb);
        assert!(matches!(va, OnlineVerdict::Detected(_)));
    }

    #[test]
    fn detection_can_fire_before_the_run_ends() {
        let (comp, x) = mutexish();
        let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 1))]);
        let n = comp.num_processes();
        let mut m = OnlineEfConjunctive::new(n, vec![true, false, false], vec![false, true, true]);
        // First event of P0 sets x=1: detection fires immediately.
        let e = EventId::new(0, 0);
        m.observe(0, p.clause_holds_at(&comp, 0, 1), comp.clock(e));
        assert!(matches!(m.verdict(), OnlineVerdict::Detected(_)));
    }

    #[test]
    fn impossible_after_all_processes_finish() {
        let (comp, x) = mutexish();
        let p = Conjunctive::new(vec![(1, LocalExpr::eq(x, 42))]);
        let v = stream_conj(&comp, &p, &topo_order(&comp));
        assert_eq!(v, OnlineVerdict::Impossible);
    }

    #[test]
    fn disjunctive_monitor_matches_offline() {
        let (comp, x) = mutexish();
        for p in [
            Disjunctive::new(vec![(0, LocalExpr::eq(x, 2)), (1, LocalExpr::eq(x, 5))]),
            Disjunctive::new(vec![(2, LocalExpr::eq(x, 5))]),
        ] {
            let n = comp.num_processes();
            let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(&comp, i, 0)).collect();
            let mut m = OnlineEfDisjunctive::new(n, initially);
            for e in topo_order(&comp) {
                let holds = p.clause_holds_at(&comp, e.process, e.index as u32 + 1);
                m.observe(e.process, holds, comp.clock(e));
            }
            for i in 0..n {
                m.finish_process(i);
            }
            let offline = ef_disjunctive(&comp, &p);
            match m.verdict() {
                OnlineVerdict::Detected(cut) => {
                    assert!(offline.holds);
                    assert!(comp.is_consistent(cut));
                    assert!(p.eval(&comp, cut));
                }
                OnlineVerdict::Impossible => assert!(!offline.holds),
                OnlineVerdict::Pending => panic!("finished stream left Pending"),
            }
        }
    }

    #[test]
    fn monitor_with_initially_true_conjunction_detects_empty_cut() {
        let m = OnlineEfConjunctive::new(2, vec![true, true], vec![true, true]);
        assert_eq!(m.verdict(), &OnlineVerdict::Detected(Cut::initial(2)));
    }

    #[test]
    fn export_restore_round_trip_preserves_behavior() {
        let (comp, x) = mutexish();
        let n = comp.num_processes();
        let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 2)), (2, LocalExpr::eq(x, 1))]);
        let participating: Vec<bool> = (0..n)
            .map(|i| p.clauses().iter().any(|c| c.process == i))
            .collect();
        let initially: Vec<bool> = (0..n).map(|i| p.clause_holds_at(&comp, i, 0)).collect();
        let order = topo_order(&comp);
        // Stream the first half, export, restore, stream the rest; the
        // verdict must match an uninterrupted run.
        let mut whole = OnlineEfConjunctive::new(n, participating.clone(), initially.clone());
        let mut first = OnlineEfConjunctive::new(n, participating, initially);
        let mid = order.len() / 2;
        for &e in &order[..mid] {
            let holds = p.clause_holds_at(&comp, e.process, e.index as u32 + 1);
            whole.observe(e.process, holds, comp.clock(e));
            first.observe(e.process, holds, comp.clock(e));
        }
        let exported = OnlineMonitor::export_state(&first);
        drop(first);
        let mut resumed = restore_monitor(&exported);
        assert_eq!(resumed.export_state(), exported, "export is stable");
        for &e in &order[mid..] {
            let holds = p.clause_holds_at(&comp, e.process, e.index as u32 + 1);
            whole.observe(e.process, holds, comp.clock(e));
            resumed.observe(e.process, holds, comp.clock(e));
        }
        for i in 0..n {
            whole.finish_process(i);
            resumed.finish_process(i);
        }
        assert_eq!(whole.verdict(), OnlineMonitor::verdict(resumed.as_ref()));
        assert!(matches!(whole.verdict(), OnlineVerdict::Detected(_)));
    }

    #[test]
    fn disjunctive_export_restore_round_trip() {
        let mut m = OnlineEfDisjunctive::new(3, vec![false, false, false]);
        m.observe(1, false, &VectorClock::from_components(vec![0, 1, 0]));
        let exported = OnlineMonitor::export_state(&m);
        let mut resumed = restore_monitor(&exported);
        assert_eq!(resumed.export_state(), exported);
        // Fire on the restored copy; the cut comes from the clock.
        let v = resumed.observe(2, true, &VectorClock::from_components(vec![0, 1, 1]));
        assert_eq!(
            v,
            OnlineVerdict::Detected(Cut::from_counters(vec![0, 1, 1]))
        );
        // A settled verdict survives the round trip too.
        let again = restore_monitor(&resumed.export_state());
        assert!(again.is_settled());
        assert_eq!(OnlineMonitor::verdict(again.as_ref()), &v);
    }

    #[test]
    #[should_panic(expected = "hb_pattern::restore_any")]
    fn restore_monitor_rejects_pattern_state() {
        // The matcher type lives above this crate; restoring its state
        // here must fail loudly, not silently mis-detect.
        let state = DetectorState::Pattern(PatternState {
            n: 2,
            causal: vec![false, false],
            frontiers: vec![
                vec![PatternChainState {
                    join: vec![0, 0],
                    last: vec![0, 0],
                }],
                Vec::new(),
                Vec::new(),
            ],
            candidates: vec![vec![Vec::new(); 2]; 2],
            finished: vec![false; 2],
            seen: vec![0; 2],
            verdict: VerdictState::Pending,
        });
        let _ = restore_monitor(&state);
    }

    /// Every restorable [`DetectorState`] variant, snapshotted at
    /// *every* observation boundary: export → restore → finish the
    /// stream must produce the same verdict and the same final export
    /// as a detector that was never snapshotted.
    #[test]
    fn restore_round_trip_at_every_boundary_matches_unsnapshotted_run() {
        let (comp, x) = mutexish();
        let n = comp.num_processes();
        let order = topo_order(&comp);
        let conj = Conjunctive::new(vec![(0, LocalExpr::eq(x, 2)), (2, LocalExpr::eq(x, 1))]);
        let disj = Disjunctive::new(vec![(1, LocalExpr::eq(x, 1)), (2, LocalExpr::eq(x, 9))]);
        let participating: Vec<bool> = (0..n)
            .map(|i| conj.clauses().iter().any(|c| c.process == i))
            .collect();
        let conj_init: Vec<bool> = (0..n).map(|i| conj.clause_holds_at(&comp, i, 0)).collect();
        let disj_init: Vec<bool> = (0..n).map(|i| disj.clause_holds_at(&comp, i, 0)).collect();
        let conj_holds = |i: usize, s: u32| conj.clause_holds_at(&comp, i, s);
        let disj_holds = |i: usize, s: u32| disj.clause_holds_at(&comp, i, s);
        type Fresh<'a> = Box<dyn Fn() -> Box<dyn OnlineMonitor> + 'a>;
        type HoldsAt<'a> = Box<dyn Fn(usize, u32) -> bool + 'a>;
        let variants: Vec<(Fresh, HoldsAt)> = vec![
            (
                Box::new(|| {
                    Box::new(OnlineEfConjunctive::new(
                        n,
                        participating.clone(),
                        conj_init.clone(),
                    ))
                }),
                Box::new(conj_holds),
            ),
            (
                Box::new(|| Box::new(OnlineEfDisjunctive::new(n, disj_init.clone()))),
                Box::new(disj_holds),
            ),
        ];
        for (fresh, holds_at) in &variants {
            // The reference: never snapshotted.
            let mut whole = fresh();
            for &e in &order {
                whole.observe(
                    e.process,
                    holds_at(e.process, e.index as u32 + 1),
                    comp.clock(e),
                );
            }
            for i in 0..n {
                whole.finish_process(i);
            }
            for cut_at in 0..=order.len() {
                let mut first = fresh();
                for &e in &order[..cut_at] {
                    first.observe(
                        e.process,
                        holds_at(e.process, e.index as u32 + 1),
                        comp.clock(e),
                    );
                }
                let exported = first.export_state();
                let mut resumed = restore_monitor(&exported);
                assert_eq!(
                    resumed.export_state(),
                    exported,
                    "export stable at {cut_at}"
                );
                for &e in &order[cut_at..] {
                    resumed.observe(
                        e.process,
                        holds_at(e.process, e.index as u32 + 1),
                        comp.clock(e),
                    );
                }
                for i in 0..n {
                    resumed.finish_process(i);
                }
                assert_eq!(
                    resumed.export_state(),
                    whole.export_state(),
                    "final state diverged for snapshot at {cut_at}"
                );
                assert_eq!(whole.verdict(), resumed.verdict());
            }
        }
    }

    #[test]
    fn trait_objects_dispatch_to_both_monitors() {
        let (comp, x) = mutexish();
        let n = comp.num_processes();
        let conj = Conjunctive::new(vec![(0, LocalExpr::eq(x, 2)), (2, LocalExpr::eq(x, 1))]);
        let disj = Disjunctive::new(vec![(1, LocalExpr::eq(x, 1))]);
        let participating: Vec<bool> = (0..n)
            .map(|i| conj.clauses().iter().any(|c| c.process == i))
            .collect();
        let conj_init: Vec<bool> = (0..n).map(|i| conj.clause_holds_at(&comp, i, 0)).collect();
        let disj_init: Vec<bool> = (0..n).map(|i| disj.clause_holds_at(&comp, i, 0)).collect();
        let conj_holds = |i, s| conj.clause_holds_at(&comp, i, s);
        let disj_holds = |i, s| disj.clause_holds_at(&comp, i, s);
        type HoldsFn<'a> = &'a dyn Fn(usize, u32) -> bool;
        let mut monitors: Vec<(Box<dyn OnlineMonitor>, HoldsFn)> = vec![
            (
                Box::new(OnlineEfConjunctive::new(n, participating, conj_init)),
                &conj_holds,
            ),
            (
                Box::new(OnlineEfDisjunctive::new(n, disj_init)),
                &disj_holds,
            ),
        ];
        for e in topo_order(&comp) {
            for (m, holds_at) in monitors.iter_mut() {
                m.observe(
                    e.process,
                    holds_at(e.process, e.index as u32 + 1),
                    comp.clock(e),
                );
            }
        }
        for (m, _) in monitors.iter_mut() {
            for i in 0..n {
                m.finish_process(i);
            }
            assert!(m.is_settled());
            assert!(matches!(m.verdict(), OnlineVerdict::Detected(_)));
        }
    }
}
