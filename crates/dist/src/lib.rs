//! # hb-dist
//!
//! What every member of a monitored session — plain, worker partition,
//! aggregator — and the gateway that routes them share and nothing
//! else: the [`CausalBuffer`] that restores causal delivery order, and
//! the partition map of a distributed session ([`owner`],
//! [`worker_session`]).
//!
//! A distributed session partitions the computation's processes across
//! `k` *workers* — process `p` belongs to worker [`owner`]`(p, k)` —
//! plus one *aggregator*. The engines themselves live in `hb-monitor`,
//! next to the single-backend session they are front-ends of: a worker
//! is the session's slicing ingest filter without a buffer or a
//! detector, the aggregator is the session's delivery pipeline fed
//! membership bits instead of assignments. See `DESIGN.md` §15 for the
//! protocol and the failover semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;

pub use buffer::{CausalBuffer, Delivered, IngestError, OverflowPolicy};

/// The worker owning process `p` in a `k`-way partition.
///
/// Round-robin by process id: cheap, deterministic, and independent of
/// event content, so the gateway can route without any session state
/// beyond `k`. (Chauhan–Garg shard by slice responsibility instead;
/// see DESIGN.md §15 for why we diverge.)
pub fn owner(p: usize, k: usize) -> usize {
    p % k
}

/// The decorated session name a worker opens on its backend.
///
/// Worker sessions live in the same per-backend namespace as plain
/// sessions; the `#w<i>` suffix keeps them from colliding with the
/// origin session (which names the aggregator's session) while staying
/// readable in stats output.
pub fn worker_session(origin: &str, worker: usize) -> String {
    format!("{origin}#w{worker}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_partitions_round_robin() {
        assert_eq!(owner(0, 3), 0);
        assert_eq!(owner(4, 3), 1);
        assert_eq!(owner(5, 1), 0);
    }

    #[test]
    fn worker_sessions_are_decorated() {
        assert_eq!(worker_session("app", 2), "app#w2");
    }
}
