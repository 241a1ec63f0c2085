//! Collision-resolved reception, factored out of the engine.
//!
//! [`resolve_receptions_serial`] is the repository's one reception
//! resolver. It turns one round's transmit decisions into the
//! per-listener reception state the collision rule dictates: after a
//! call, `tx_neighbors[u]` counts `u`'s transmitting neighbors in the
//! round topology (reliable edges plus the scheduler's selection of
//! extra edges) and `last_sender[u]` names the unique sender whenever
//! that count is exactly 1. A listener `u` then receives iff
//! `tx_neighbors[u] == 1` — the Section 2 rule with no collision
//! detection.
//!
//! The simulator's channel ([`SimChannel`](crate::channel::SimChannel))
//! calls it once per round; it stays a free function so a round's
//! resolution can be timed or checked in isolation.
//!
//! `last_sender` needs no reset between rounds: it is only read where
//! `tx_neighbors` is nonzero, which implies a write in the same call.

use crate::graph::{DualGraph, Edge, NodeId};
use crate::scheduler::EdgeSelection;

/// The scatter-form resolution: walk each transmitter's neighborhood,
/// accumulating into `tx_neighbors`/`last_sender`.
/// O(Σ deg(transmitter)) plus the selected extra edges; allocation-free
/// — the engine's zero-alloc steady-state path.
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
    // One loop over the round's present extra edges, with the update
    // written inline: a per-edge closure shared by two loops stayed out
    // of line, and its code alignment swung all-edges trials by 10–15%
    // between builds that compiled this loop to the same instructions.
    let present: &[Edge] = match selection {
        EdgeSelection::All => graph.extra_edges(),
        EdgeSelection::None => &[],
        EdgeSelection::Subset(edges) => {
            debug_assert!(
                edges
                    .iter()
                    .all(|e| graph.extra_edges().binary_search(e).is_ok()),
                "scheduler returned an edge outside E' \\ E"
            );
            edges
        }
    };
    for e in present {
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
}
