//! Collision-resolved reception, factored out of the engine.
//!
//! These free functions turn one round's transmit decisions into the
//! per-listener reception state the collision rule dictates: after a
//! call, `tx_neighbors[u]` counts `u`'s transmitting neighbors in the
//! round topology (reliable edges plus the scheduler's selection of
//! extra edges) and `last_sender[u]` names the unique sender whenever
//! that count is exactly 1. A listener `u` then receives iff
//! `tx_neighbors[u] == 1` — the Section 2 rule with no collision
//! detection.
//!
//! The simulator's channel ([`SimChannel`](crate::channel::SimChannel))
//! calls these once per round; they stay free functions so a round's
//! resolution can be timed or checked in isolation.
//!
//! `last_sender` needs no reset between rounds: it is only read where
//! `tx_neighbors` is nonzero, which implies a write in the same call.

use crate::graph::{DualGraph, NodeId};
use crate::scheduler::EdgeSelection;

/// The scatter-form resolution: walk each transmitter's neighborhood,
/// accumulating into `tx_neighbors`/`last_sender`.
/// O(Σ deg(transmitter)); allocation-free — the zero-alloc steady-state
/// path of the serial engine.
///
/// `tx_list` must list exactly the vertices `v` with `transmitting[v]`,
/// in ascending order (the engine builds it that way); `tx_neighbors`
/// and `last_sender` must have one slot per vertex.
pub fn resolve_receptions_serial(
    graph: &DualGraph,
    selection: &EdgeSelection,
    transmitting: &[bool],
    tx_list: &[usize],
    tx_neighbors: &mut [u32],
    last_sender: &mut [NodeId],
) {
    tx_neighbors.fill(0);
    for &v in tx_list {
        for &u in graph.reliable_neighbors(NodeId(v)) {
            tx_neighbors[u.0] += 1;
            last_sender[u.0] = NodeId(v);
        }
    }
    let mut apply_edge = |a: NodeId, b: NodeId| {
        if transmitting[a.0] {
            tx_neighbors[b.0] += 1;
            last_sender[b.0] = a;
        }
        if transmitting[b.0] {
            tx_neighbors[a.0] += 1;
            last_sender[a.0] = b;
        }
    };
    match selection {
        EdgeSelection::All => {
            for e in graph.extra_edges() {
                apply_edge(e.a, e.b);
            }
        }
        EdgeSelection::None => {}
        EdgeSelection::Subset(edges) => {
            for e in edges {
                debug_assert!(
                    graph.extra_edges().binary_search(e).is_ok(),
                    "scheduler returned edge {e:?} outside E' \\ E"
                );
                apply_edge(e.a, e.b);
            }
        }
    }
}

/// The gather-form resolution, fanned out over `shards` disjoint vertex
/// ranges: each shard counts the transmitting neighbors of its own
/// vertices against the read-only CSR adjacency and writes only its own
/// slice of `tx_neighbors`/`last_sender`, so the result is
/// byte-identical to the serial scatter by construction — when exactly
/// one neighbor transmits, both forms record that unique sender, and
/// `last_sender` is never read otherwise. Per-round `Subset` selections
/// are applied serially on top (they are sparse; the O(n + m) gather is
/// the scalable part).
///
/// `shard_busy` (when telemetry is on) receives each worker chunk's
/// busy nanoseconds, one pre-allocated slot per shard — timing is
/// taken inside the worker, so the slots measure compute skew, not
/// spawn/join overhead.
pub fn resolve_receptions_sharded(
    graph: &DualGraph,
    selection: &EdgeSelection,
    transmitting: &[bool],
    shards: usize,
    tx_neighbors: &mut [u32],
    last_sender: &mut [NodeId],
    shard_busy: Option<&mut [u64]>,
) {
    let n = graph.len();
    let shards = shards.min(n.max(1));
    let chunk = n.div_ceil(shards);
    let gather_extra = matches!(selection, EdgeSelection::All);
    crossbeam::scope(|s| {
        let mut tx_rest: &mut [u32] = tx_neighbors;
        let mut ls_rest: &mut [NodeId] = last_sender;
        let mut busy_rest: &mut [u64] = shard_busy.unwrap_or(&mut []);
        let mut base = 0usize;
        while !tx_rest.is_empty() {
            let take = chunk.min(tx_rest.len());
            let (tx_chunk, tx_tail) = tx_rest.split_at_mut(take);
            let (ls_chunk, ls_tail) = ls_rest.split_at_mut(take);
            tx_rest = tx_tail;
            ls_rest = ls_tail;
            let busy_slot = if busy_rest.is_empty() {
                None
            } else {
                let (head, tail) = std::mem::take(&mut busy_rest).split_at_mut(1);
                busy_rest = tail;
                Some(&mut head[0])
            };
            let lo = base;
            base += take;
            s.spawn(move |_| {
                let span = telemetry::Stopwatch::armed(busy_slot.is_some());
                for (i, (count, sender)) in
                    tx_chunk.iter_mut().zip(ls_chunk.iter_mut()).enumerate()
                {
                    let u = NodeId(lo + i);
                    let mut c = 0u32;
                    let mut from = NodeId(0);
                    for &v in graph.reliable_neighbors(u) {
                        if transmitting[v.0] {
                            c += 1;
                            from = v;
                        }
                    }
                    if gather_extra {
                        for &v in graph.extra_neighbors(u) {
                            if transmitting[v.0] {
                                c += 1;
                                from = v;
                            }
                        }
                    }
                    *count = c;
                    *sender = from;
                }
                if let Some(slot) = busy_slot {
                    *slot += span.peek();
                }
            });
        }
    })
    .expect("reception shard panicked");
    if let EdgeSelection::Subset(edges) = selection {
        for e in edges {
            debug_assert!(
                graph.extra_edges().binary_search(e).is_ok(),
                "scheduler returned edge {e:?} outside E' \\ E"
            );
            if transmitting[e.a.0] {
                tx_neighbors[e.b.0] += 1;
                last_sender[e.b.0] = e.a;
            }
            if transmitting[e.b.0] {
                tx_neighbors[e.a.0] += 1;
                last_sender[e.a.0] = e.b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> (DualGraph, Vec<bool>, Vec<usize>) {
        // Path 0-1-2-3 with extra edges (0,2) and (1,3); 0 and 2 transmit.
        let g = DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap();
        let transmitting = vec![true, false, true, false];
        let tx_list = vec![0, 2];
        (g, transmitting, tx_list)
    }

    #[test]
    fn serial_counts_follow_the_collision_rule() {
        let (g, transmitting, tx_list) = arena();
        let mut counts = vec![0u32; 4];
        let mut senders = vec![NodeId(0); 4];
        resolve_receptions_serial(
            &g,
            &EdgeSelection::None,
            &transmitting,
            &tx_list,
            &mut counts,
            &mut senders,
        );
        // 1 hears both 0 and 2 (collision); 3 hears only 2 (delivery).
        assert_eq!(counts, vec![0, 2, 0, 1]);
        assert_eq!(senders[3], NodeId(2));

        resolve_receptions_serial(
            &g,
            &EdgeSelection::All,
            &transmitting,
            &tx_list,
            &mut counts,
            &mut senders,
        );
        // Extra edge (0,2) adds nothing for listeners (both transmit);
        // extra edge (1,3) is listener-listener. But 1 also hears 0 and 2
        // reliably, and 0 hears 2 over the extra edge — though 0 is a
        // transmitter, the count is still maintained.
        assert_eq!(counts[1], 2);
        assert_eq!(counts[3], 1);
    }

    #[test]
    fn sharded_matches_serial_for_every_shard_count() {
        let (g, transmitting, tx_list) = arena();
        for selection in [
            EdgeSelection::None,
            EdgeSelection::All,
            EdgeSelection::subset(g.extra_edges().to_vec()),
        ] {
            let mut counts = vec![0u32; 4];
            let mut senders = vec![NodeId(0); 4];
            resolve_receptions_serial(
                &g,
                &selection,
                &transmitting,
                &tx_list,
                &mut counts,
                &mut senders,
            );
            for shards in [1, 2, 3, 7] {
                let mut c2 = vec![0u32; 4];
                let mut s2 = vec![NodeId(0); 4];
                resolve_receptions_sharded(
                    &g,
                    &selection,
                    &transmitting,
                    shards,
                    &mut c2,
                    &mut s2,
                    None,
                );
                assert_eq!(counts, c2, "shards = {shards}");
                // Senders only need to agree where the count is 1.
                for u in 0..4 {
                    if counts[u] == 1 {
                        assert_eq!(senders[u], s2[u], "u = {u}, shards = {shards}");
                    }
                }
            }
        }
    }
}
