//! Property-based tests for the model substrate: geometry invariants,
//! dual graph structure (checked against a `BTreeSet` reference
//! construction), topology generators, and engine determinism.

use proptest::prelude::*;
use radio_sim::geometry::{Point, RegionPartition};
use radio_sim::graph::{DualGraph, Edge, GraphError, NodeId};
use radio_sim::topology::{self, RggParams};
use std::collections::BTreeSet;

fn point_strategy() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_is_symmetric_and_nonnegative(a in point_strategy(), b in point_strategy()) {
        let d1 = a.distance(&b);
        let d2 = b.distance(&a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
        prop_assert!((a.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality(a in point_strategy(), b in point_strategy(), c in point_strategy()) {
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    #[test]
    fn every_point_has_exactly_one_region(p in point_strategy(), r in 1.0f64..4.0) {
        let part = RegionPartition::new(r);
        let region = part.region_of(p);
        // The region's square actually contains the point.
        let side = radio_sim::geometry::REGION_SIDE;
        let x0 = region.ix as f64 * side;
        let y0 = region.iy as f64 * side;
        prop_assert!(p.x >= x0 - 1e-9 && p.x < x0 + side + 1e-9);
        prop_assert!(p.y >= y0 - 1e-9 && p.y < y0 + side + 1e-9);
    }

    #[test]
    fn same_region_implies_distance_at_most_one(
        p in point_strategy(),
        dx in 0.0f64..0.4999,
        dy in 0.0f64..0.4999,
        r in 1.0f64..4.0,
    ) {
        // q is in the same grid square as the square-aligned base of p.
        let part = RegionPartition::new(r);
        let side = radio_sim::geometry::REGION_SIDE;
        let base = part.region_of(p);
        let q = Point::new(base.ix as f64 * side + dx, base.iy as f64 * side + dy);
        prop_assert_eq!(part.region_of(q), base);
        // Region diameter property (Lemma A.1 condition 1).
        let corner = Point::new(base.ix as f64 * side, base.iy as f64 * side);
        prop_assert!(q.distance(&corner) <= 1.0);
    }

    #[test]
    fn region_distance_symmetric(
        ax in -20i64..20, ay in -20i64..20,
        bx in -20i64..20, by in -20i64..20,
        r in 1.0f64..4.0,
    ) {
        use radio_sim::geometry::RegionId;
        let part = RegionPartition::new(r);
        let a = RegionId { ix: ax, iy: ay };
        let b = RegionId { ix: bx, iy: by };
        let d1 = part.region_distance(a, b);
        let d2 = part.region_distance(b, a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert_eq!(part.adjacent(a, b), part.adjacent(b, a));
    }

    #[test]
    fn edge_normalization_orders_endpoints(u in 0usize..100, v in 0usize..100) {
        prop_assume!(u != v);
        let e = Edge::new(NodeId(u), NodeId(v));
        prop_assert!(e.a.0 <= e.b.0);
        prop_assert_eq!(e.try_other(e.a), Some(e.b));
        prop_assert_eq!(e.try_other(e.b), Some(e.a));
        prop_assert_eq!(e.try_other(NodeId(u + v + 1)), None);
    }

    #[test]
    fn dual_graph_adjacency_is_symmetric(
        n in 2usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let reliable: Vec<(usize, usize)> = edges
            .iter()
            .filter(|(u, v)| u != v && *u < n && *v < n)
            .take(15)
            .copied()
            .collect();
        let g = DualGraph::reliable_only(n, reliable).unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(g.is_reliable_edge(u, v), g.is_reliable_edge(v, u));
                prop_assert_eq!(g.is_any_edge(u, v), g.is_any_edge(v, u));
            }
            // Δ covers every node's closed reliable neighborhood.
            prop_assert!(g.reliable_neighbors(u).len() < g.delta());
        }
        prop_assert!(g.delta_prime() >= g.delta());
    }

    #[test]
    fn rgg_generator_is_geographic(
        n in 5usize..40,
        seed in 0u64..1000,
        r in 1.0f64..3.0,
        grey_rel in 0.0f64..0.5,
        grey_unrel in 0.0f64..1.0,
    ) {
        let topo = topology::random_geometric(RggParams {
            n,
            side: 4.0,
            r,
            grey_reliable_p: grey_rel,
            grey_unreliable_p: grey_unrel,
            seed,
        });
        prop_assert!(topo.check_geographic().is_ok());
        // Lemma A.3 on the concrete instance.
        let part = RegionPartition::new(r);
        prop_assert!((topo.graph.delta_prime() as f64) <= part.cr() * topo.graph.delta() as f64);
    }

    #[test]
    fn bucketed_rgg_is_byte_identical_to_reference(
        n in 1usize..60,
        side in 0.5f64..12.0,
        seed in 0u64..1000,
        r in 1.0f64..3.5,
        grey_rel in 0.0f64..1.0,
        grey_unrel in 0.0f64..1.0,
    ) {
        let params = RggParams {
            n,
            side,
            r,
            grey_reliable_p: grey_rel,
            grey_unreliable_p: grey_unrel,
            seed,
        };
        // The bucketed construction must consume the wiring RNG in the
        // same (u, v) lexicographic order as the all-pairs reference, so
        // graph and embedding come out identical — not merely isomorphic.
        let fast = topology::random_geometric(params);
        let slow = topology::random_geometric_reference(params);
        prop_assert_eq!(fast.graph, slow.graph);
        prop_assert_eq!(fast.embedding, slow.embedding);
    }

    #[test]
    fn line_topology_reliable_edges_match_spacing(
        n in 2usize..15,
        spacing in 0.3f64..1.4,
    ) {
        let topo = topology::line(n, spacing, 2.0);
        for i in 0..n.saturating_sub(1) {
            let adjacent_reliable = topo
                .graph
                .is_reliable_edge(NodeId(i), NodeId(i + 1));
            prop_assert_eq!(adjacent_reliable, spacing <= 1.0);
        }
    }

    #[test]
    fn grouped_vertices_cover_everything(
        n in 1usize..30,
        seed in 0u64..100,
    ) {
        let topo = topology::random_geometric(RggParams {
            n,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.0,
            grey_unreliable_p: 1.0,
            seed,
        });
        let part = RegionPartition::new(topo.r);
        let groups = part.group_vertices(&topo.embedding);
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        prop_assert_eq!(total, n);
        // No vertex appears twice.
        let mut seen = std::collections::HashSet::new();
        for (_, members) in &groups {
            for &v in members {
                prop_assert!(seen.insert(v));
            }
        }
    }
}

/// The reference construction of a dual graph: both edge classes
/// inserted one edge at a time, in input order, into `BTreeSet`s, with
/// each extra edge looked up in the reliable set as it arrives.
fn reference_edges(
    n: usize,
    reliable: &[(usize, usize)],
    extra: &[(usize, usize)],
) -> Result<(BTreeSet<Edge>, BTreeSet<Edge>), GraphError> {
    let mut rel = BTreeSet::new();
    for &(u, v) in reliable {
        if let Some(vertex) = [u, v].into_iter().find(|&x| x >= n) {
            return Err(GraphError::VertexOutOfRange { vertex, n });
        }
        rel.insert(Edge::new(NodeId(u), NodeId(v)));
    }
    let mut ext = BTreeSet::new();
    for &(u, v) in extra {
        if let Some(vertex) = [u, v].into_iter().find(|&x| x >= n) {
            return Err(GraphError::VertexOutOfRange { vertex, n });
        }
        let e = Edge::new(NodeId(u), NodeId(v));
        if rel.contains(&e) {
            return Err(GraphError::DuplicateEdge(e));
        }
        ext.insert(e);
    }
    Ok((rel, ext))
}

/// `u`'s neighbors through `edges`, sorted.
fn reference_neighbors<'a>(edges: impl IntoIterator<Item = &'a Edge>, u: NodeId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = edges.into_iter().filter_map(|e| e.try_other(u)).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dual_graph_construction_matches_the_btreeset_reference(
        n in 2usize..64,
        pool in collection::vec((0usize..1000, 0usize..1000, 0u8..64), 0..48),
        bad in 0usize..200,
    ) {
        // Each pool entry is an edge over `0..n` in random order; its tag
        // lists it as reliable, as extra with reversed endpoints, twice
        // in one class, or (rarely) in both classes. `bad` plants one
        // out-of-range endpoint in about an eighth of the cases.
        let (mut reliable, mut extra) = (Vec::new(), Vec::new());
        for (i, &(a, b, tag)) in pool.iter().enumerate() {
            let (u, mut v) = (a % n, b % n);
            if u == v {
                continue;
            }
            if i == bad {
                v = n + a % 3;
            }
            match tag {
                0..=29 => reliable.push((u, v)),
                30..=59 => extra.push((v, u)),
                60 | 61 => reliable.extend([(u, v), (v, u)]),
                62 => extra.extend([(u, v), (u, v)]),
                _ => {
                    reliable.push((u, v));
                    extra.push((v, u));
                }
            }
        }
        let got = DualGraph::new(n, reliable.iter().copied(), extra.iter().copied());
        match (got, reference_edges(n, &reliable, &extra)) {
            (Ok(g), Ok((rel, ext))) => {
                prop_assert_eq!(g.reliable_edges(), rel.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(g.extra_edges(), ext.iter().copied().collect::<Vec<_>>());
                let (mut delta, mut delta_prime) = (1, 1);
                for u in g.vertices() {
                    let r = reference_neighbors(&rel, u);
                    let all = reference_neighbors(rel.iter().chain(&ext), u);
                    prop_assert_eq!(g.reliable_neighbors(u), r.as_slice());
                    prop_assert_eq!(g.extra_neighbors(u), reference_neighbors(&ext, u));
                    prop_assert_eq!(g.all_neighbors(u), all.as_slice());
                    delta = delta.max(r.len() + 1);
                    delta_prime = delta_prime.max(all.len() + 1);
                }
                prop_assert_eq!(g.delta(), delta);
                prop_assert_eq!(g.delta_prime(), delta_prime);
                // Sorted input (the generators' case) builds the same graph.
                let pairs = |es: &[Edge]| es.iter().map(|e| (e.a.0, e.b.0)).collect::<Vec<_>>();
                let again = DualGraph::new(n, pairs(g.reliable_edges()), pairs(g.extra_edges()));
                prop_assert_eq!(again.as_ref(), Ok(&g));
            }
            (Err(GraphError::DuplicateEdge(e)), Err(GraphError::DuplicateEdge(_))) => {
                // The reported edge may differ (smallest shared edge vs
                // first in input order), but it must be listed in both.
                let listed = |es: &[(usize, usize)]| {
                    es.iter().any(|&(u, v)| u < n && v < n && Edge::new(NodeId(u), NodeId(v)) == e)
                };
                prop_assert!(listed(&reliable) && listed(&extra), "{:?} is not shared", e);
            }
            (got, want) => prop_assert_eq!(got.map(|_| ()), want.map(|_| ())),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Section 2 fixes the link scheduler as a sequence `G₁, G₂, …` at the
    /// start of the execution. So for every oblivious scheduler in the
    /// family, round `t`'s selection over a graph equals a fresh
    /// scheduler's, whatever rounds were queried before and in whatever
    /// order — including across swaps between two graphs and between
    /// equal graphs built apart (a cache keyed by storage identity must
    /// not confuse them).
    #[test]
    fn oblivious_selections_ignore_the_query_history(
        seed in 0u64..1000,
        topo_seed in 0u64..1000,
        queries in collection::vec((1u64..96, 0usize..3), 1..48),
    ) {
        let rgg = |seed| topology::random_geometric(RggParams {
            n: 24,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.2,
            grey_unreliable_p: 0.7,
            seed,
        }).graph;
        let graphs = [rgg(topo_seed), rgg(topo_seed + 1), rgg(topo_seed)];
        let mut used = radio_sim::scheduler::oblivious_family(seed);
        for (round, which) in queries {
            let graph = &graphs[which];
            let fresh = radio_sim::scheduler::oblivious_family(seed);
            for (s, mut f) in used.iter_mut().zip(fresh) {
                prop_assert_eq!(
                    s.extra_edges(round, graph),
                    f.extra_edges(round, graph),
                    "{} at round {}", s.name(), round
                );
            }
        }
    }
}
