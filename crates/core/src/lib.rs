//! Predicate detection algorithms on the happened-before model — the core
//! contribution of Sen & Garg, *Detecting Temporal Logic Predicates on the
//! Happened-Before Model* (IPDPS 2002).
//!
//! Every entry point answers a question of the form "does this CTL formula
//! hold at the initial cut of this computation's lattice of consistent
//! cuts?", and returns a machine-checkable **witness** (a cut or a path of
//! cuts) alongside the boolean verdict.
//!
//! # The algorithms
//!
//! | paper artifact | function | class | complexity |
//! |---|---|---|---|
//! | Chase–Garg \[4\] | [`ef_linear`] | linear | `O(n·|E|)` |
//! | dual of \[4\] | [`ef_post_linear`] | post-linear | `O(n·|E|)` |
//! | **Algorithm A1** | [`eg_linear`], [`eg_conjunctive`] | linear | `O(n·|E|)` walk; [`eg_linear`] adds `≤ n` evaluations per step |
//! | **Algorithm A2** | [`ag_linear`] | linear | `O(n·|E|)` sweep + `|E|+1` evaluations |
//! | **Algorithm A3** | [`eu_conjunctive_linear`] | `E[conj U linear]` | one A1 walk per maximal event of `I_q`: `O(n²·|E|)` worst case |
//! | §7 identity | [`au_disjunctive`] | `A[disj U disj]` | A1 + A3 |
//! | Garg–Waldecker \[11\] cell | [`eg_disjunctive`], [`af_conjunctive`] | disjunctive / conjunctive | polynomial (token-interval reconstruction, see module docs) |
//! | trivial cells | [`stable`] module | stable | `O(eval)` |
//! | Charron-Bost \[3\] | [`ef_observer_independent`] | observer-independent | `O(|E|·eval)` |
//! | baseline | [`ModelChecker`] | arbitrary | `O(|C(E)|·n)` — exponential |
//! | future work (on-line) | [`online`] module | conjunctive / disjunctive | `O(n|E|)` amortized |
//!
//! The paper states A1 as `O(n|E|)` assuming an `O(n)` per-step
//! predecessor enumeration and an `O(1)` per-predecessor predicate check.
//! Both A1 entry points share a walker that enumerates maximal events from
//! per-process blocker counts in `O(n)` per step; [`eg_linear`] then
//! re-evaluates the predicate on each candidate while [`eg_conjunctive`]
//! checks only the retreating process's clause. The ablation benchmark
//! (experiment S1 in `DESIGN.md`) measures the difference.
//!
//! # Example: Algorithm A1
//!
//! ```
//! use hb_computation::ComputationBuilder;
//! use hb_detect::eg_linear;
//! use hb_predicates::{Conjunctive, LocalExpr};
//!
//! let mut b = ComputationBuilder::new(2);
//! let x = b.var("x");
//! b.init(0, x, 1);
//! b.init(1, x, 1);
//! b.internal(0).set(x, 2).done();
//! b.internal(1).set(x, 3).done();
//! let comp = b.finish().unwrap();
//!
//! // "x ≥ 1 on both processes" holds on every cut of every path.
//! let p = Conjunctive::new(vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::ge(x, 1))]);
//! let r = eg_linear(&comp, &p);
//! assert!(r.holds);
//! let path = r.witness.unwrap();
//! assert_eq!(path.len(), comp.num_events() + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ag;
mod baseline;
pub mod control;
mod ef;
mod eg;
mod oi;
pub mod online;
mod result;
pub mod stable;
mod tokens;
mod until;
pub mod witness;

pub use ag::{ag_linear, AgReport};
pub use baseline::ModelChecker;
pub use ef::{ef_linear, ef_post_linear, EfReport};
pub use eg::{eg_conjunctive, eg_linear, eg_post_linear, EgReport};
pub use oi::{af_observer_independent, ef_observer_independent, sample_observation};
pub use tokens::{
    af_conjunctive, af_disjunctive, ag_disjunctive, ef_disjunctive, eg_disjunctive, AfReport,
};
pub use until::{au_disjunctive, eu_conjunctive_linear, AuReport, EuReport};
