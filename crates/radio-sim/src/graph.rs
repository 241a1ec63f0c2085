//! The dual graph `(G, G')`: reliable links plus an unreliable fringe.
//!
//! Following Section 2 of the paper, the network topology is described by a
//! pair of graphs over the same vertices, `G = (V, E)` (reliable links) and
//! `G' = (V, E')` with `E ⊆ E'`; the edges `E' \ E` are *unreliable* and
//! their per-round presence is decided by a link scheduler.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of a graph vertex. The engine assigns process ids separately (the
/// paper's `id()` mapping); `NodeId` is the *vertex*, not the process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An undirected edge, stored with endpoints ordered so `a <= b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a normalized undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, which the model forbids.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed in the dual graph");
        if u.0 <= v.0 {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// The endpoint opposite to `x`, or `None` when `x` is not an
    /// endpoint of this edge.
    pub fn try_other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.a {
            Some(self.b)
        } else if x == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// The endpoint opposite to `x`.
    ///
    /// Prefer [`Edge::try_other`] when `x` is not statically known to be
    /// an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    pub fn other(&self, x: NodeId) -> NodeId {
        self.try_other(x)
            .unwrap_or_else(|| panic!("{x} is not an endpoint of {self:?}"))
    }
}

/// Errors arising when constructing a [`DualGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex index `>= n`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// The same edge appeared in both the reliable set and the extra
    /// (unreliable) set, violating `E' \ E` disjointness.
    DuplicateEdge(Edge),
    /// An edge joined a vertex to itself, which the model forbids.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "edge references vertex {vertex} but graph has {n} vertices")
            }
            GraphError::DuplicateEdge(e) => {
                write!(f, "edge {e:?} listed as both reliable and unreliable")
            }
            GraphError::SelfLoop(v) => write!(f, "edge joins {v} to itself"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Flat compressed-sparse-row adjacency: neighbor lists of all vertices
/// concatenated into one contiguous array, with per-vertex offsets.
/// Neighbor scans are cache-linear and return borrowed slices; each
/// per-vertex segment is sorted, so membership tests binary-search.
#[derive(Debug, PartialEq, Eq)]
struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s segment of `targets`.
    offsets: Vec<usize>,
    /// All neighbor lists, concatenated in vertex order.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds the CSR from a sorted edge list over `n` vertices. Each edge
    /// contributes both directions. Segments come out sorted with no
    /// sorting pass: `u`'s segment receives the `a` endpoints of edges
    /// `(a, u)` (all below `u`, ascending) before the `b` endpoints of
    /// edges `(u, b)` (all above `u`, ascending).
    fn build(n: usize, edges: &[Edge]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted"
        );
        let mut offsets = vec![0usize; n + 1];
        for e in edges {
            offsets[e.a.0 + 1] += 1;
            offsets[e.b.0 + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut targets = vec![NodeId(0); edges.len() * 2];
        let mut cursor = offsets.clone();
        for e in edges {
            targets[cursor[e.a.0]] = e.b;
            cursor[e.a.0] += 1;
            targets[cursor[e.b.0]] = e.a;
            cursor[e.b.0] += 1;
        }
        Csr { offsets, targets }
    }

    /// Merges two CSRs with disjoint, sorted segments into one whose
    /// segments are the sorted unions (the precomputed `G'` adjacency).
    fn merge(n: usize, a: &Csr, b: &Csr) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(a.targets.len() + b.targets.len());
        offsets.push(0);
        for u in 0..n {
            let (mut i, mut j) = (0, 0);
            let (sa, sb) = (a.neighbors(u), b.neighbors(u));
            while i < sa.len() && j < sb.len() {
                if sa[i] < sb[j] {
                    targets.push(sa[i]);
                    i += 1;
                } else {
                    targets.push(sb[j]);
                    j += 1;
                }
            }
            targets.extend_from_slice(&sa[i..]);
            targets.extend_from_slice(&sb[j..]);
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }

    fn neighbors(&self, u: usize) -> &[NodeId] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// `max_u |neighbors(u)| + 1`, the degree bound the model hands to
    /// processes.
    fn degree_bound(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0] + 1)
            .max()
            .unwrap_or(1)
    }
}

/// Normalizes one edge class into a sorted, deduplicated list, stopping
/// at the first edge with an endpoint `>= n` or a self-loop: its error
/// is returned beside the edges listed before it. Sorting is
/// O(E log E), and linear when the input is already in `(a, b)` order,
/// as every generator's is.
fn sorted_class(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> (Vec<Edge>, Option<GraphError>) {
    let edges = edges.into_iter();
    let mut out = Vec::with_capacity(edges.size_hint().0);
    let mut bad = None;
    for (u, v) in edges {
        if let Some(vertex) = [u, v].into_iter().find(|&x| x >= n) {
            bad = Some(GraphError::VertexOutOfRange { vertex, n });
            break;
        }
        if u == v {
            bad = Some(GraphError::SelfLoop(NodeId(u)));
            break;
        }
        out.push(Edge::new(NodeId(u), NodeId(v)));
    }
    out.sort_unstable();
    out.dedup();
    (out, bad)
}

/// The smallest edge in both sorted lists, found by one merge walk.
fn first_shared(a: &[Edge], b: &[Edge]) -> Option<Edge> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(a[i]),
        }
    }
    None
}

/// The dual graph `(G, G')` of Section 2.
///
/// Stored as the reliable edge set `E` and the *extra* edge set `E' \ E`,
/// with flat CSR adjacency (per edge class plus the precomputed merged
/// `G'` adjacency) and precomputed degree bounds `Δ`/`Δ'` — the engine's
/// hot path scans neighbors cache-linearly and never recomputes bounds.
/// Construction validates that the two sets are disjoint and in range, so a
/// `DualGraph` value always satisfies the model's structural invariants.
///
/// The value is immutable and its storage sits behind one `Arc`: a clone
/// is O(1) and shares the edge lists and adjacency with the original.
#[derive(Debug, Clone, PartialEq)]
pub struct DualGraph {
    storage: Arc<Storage>,
}

/// What a [`DualGraph`] shares between its clones.
#[derive(Debug, PartialEq, Eq)]
struct Storage {
    n: usize,
    reliable_csr: Csr,
    extra_csr: Csr,
    all_csr: Csr,
    reliable_edges: Vec<Edge>,
    extra_edges: Vec<Edge>,
    delta: usize,
    delta_prime: usize,
}

/// The serialized shape of a [`DualGraph`]: the logical edge lists only.
/// Adjacency and degree bounds are derived data, rebuilt on deserialize,
/// so the wire format is independent of the in-memory layout.
#[derive(Serialize, Deserialize)]
struct DualGraphWire {
    n: usize,
    reliable_edges: Vec<Edge>,
    extra_edges: Vec<Edge>,
}

impl Serialize for DualGraph {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        DualGraphWire {
            n: self.storage.n,
            reliable_edges: self.storage.reliable_edges.clone(),
            extra_edges: self.storage.extra_edges.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for DualGraph {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = DualGraphWire::deserialize(deserializer)?;
        DualGraph::new(
            wire.n,
            wire.reliable_edges.iter().map(|e| (e.a.0, e.b.0)),
            wire.extra_edges.iter().map(|e| (e.a.0, e.b.0)),
        )
        .map_err(serde::de::Error::custom)
    }
}

impl DualGraph {
    /// Whether `self` and `other` are clones of one graph value, sharing
    /// its storage (an O(1) identity check; equal graphs built apart
    /// do not share).
    pub(crate) fn shares_storage(&self, other: &DualGraph) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Builds a dual graph from `n` vertices, reliable edges `E`, and extra
    /// unreliable edges `E' \ E`.
    ///
    /// Duplicate edges within one list are deduplicated. Each list is
    /// sorted once (linear when it is already in `(a, b)` order), and
    /// one merge walk checks that the lists are disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or
    /// [`GraphError::SelfLoop`] for the first such edge in input order
    /// (reliable list first), and [`GraphError::DuplicateEdge`] with the
    /// smallest edge listed in both. An edge shared before the first bad
    /// extra edge is reported ahead of it, as an input-order scan would.
    pub fn new(
        n: usize,
        reliable: impl IntoIterator<Item = (usize, usize)>,
        extra: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        let (reliable_edges, bad) = sorted_class(n, reliable);
        if let Some(e) = bad {
            return Err(e);
        }
        let (extra_edges, bad) = sorted_class(n, extra);
        if let Some(e) = first_shared(&reliable_edges, &extra_edges) {
            return Err(GraphError::DuplicateEdge(e));
        }
        if let Some(e) = bad {
            return Err(e);
        }
        let reliable_csr = Csr::build(n, &reliable_edges);
        let extra_csr = Csr::build(n, &extra_edges);
        let all_csr = Csr::merge(n, &reliable_csr, &extra_csr);
        let delta = reliable_csr.degree_bound();
        let delta_prime = all_csr.degree_bound();
        Ok(DualGraph {
            storage: Arc::new(Storage {
                n,
                reliable_csr,
                extra_csr,
                all_csr,
                reliable_edges,
                extra_edges,
                delta,
                delta_prime,
            }),
        })
    }

    /// A graph with only reliable edges (`E' = E`), i.e. the classical
    /// reliable radio network model as a special case.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range.
    pub fn reliable_only(
        n: usize,
        reliable: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        Self::new(n, reliable, std::iter::empty())
    }

    /// Number of vertices `|V|`. The paper calls this `n`; crucially, the
    /// *algorithms* never read it — only analysis code does.
    pub fn len(&self) -> usize {
        self.storage.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.storage.n == 0
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        (0..self.storage.n).map(NodeId)
    }

    /// `N_G(u)`: reliable neighbors of `u`, excluding `u` itself.
    pub fn reliable_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.storage.reliable_csr.neighbors(u.0)
    }

    /// Neighbors of `u` through *extra* (unreliable-only) edges.
    pub fn extra_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.storage.extra_csr.neighbors(u.0)
    }

    /// `N_{G'}(u)`: all neighbors of `u` in `G'`, excluding `u` — a
    /// borrowed, sorted slice of the precomputed merged adjacency.
    pub fn all_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.storage.all_csr.neighbors(u.0)
    }

    /// Whether `{u, v} ∈ E`.
    pub fn is_reliable_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.reliable_neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether `{u, v} ∈ E'` (reliable or unreliable).
    pub fn is_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.all_neighbors(u).binary_search(&v).is_ok()
    }

    /// The reliable edge list `E`.
    pub fn reliable_edges(&self) -> &[Edge] {
        &self.storage.reliable_edges
    }

    /// The extra edge list `E' \ E`.
    pub fn extra_edges(&self) -> &[Edge] {
        &self.storage.extra_edges
    }

    /// `Δ`: the maximum over `u` of `|N_G(u) ∪ {u}|`.
    ///
    /// Processes are assumed to *know* this bound (Section 2), so the
    /// engine passes it to every process at start. Precomputed at
    /// construction; this accessor is free.
    pub fn delta(&self) -> usize {
        self.storage.delta
    }

    /// `Δ'`: the maximum over `u` of `|N_{G'}(u) ∪ {u}|`. Precomputed at
    /// construction; this accessor is free.
    pub fn delta_prime(&self) -> usize {
        self.storage.delta_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn triangle() -> DualGraph {
        // 0-1 reliable, 1-2 reliable, 0-2 unreliable.
        DualGraph::new(3, [(0, 1), (1, 2)], [(0, 2)]).unwrap()
    }

    #[test]
    fn adjacency_queries() {
        let g = triangle();
        assert!(g.is_reliable_edge(NodeId(0), NodeId(1)));
        assert!(!g.is_reliable_edge(NodeId(0), NodeId(2)));
        assert!(g.is_any_edge(NodeId(0), NodeId(2)));
        assert!(!g.is_any_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.reliable_neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.extra_neighbors(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.all_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    /// Brute-force recomputation of `Δ`, `Δ'`, and the merged adjacency
    /// from the edge lists alone — the CSR precomputation must match it
    /// on every graph shape.
    fn brute_force_check(g: &DualGraph) {
        let mut delta = 1;
        let mut delta_prime = 1;
        for u in g.vertices() {
            let rel: BTreeSet<NodeId> = g
                .reliable_edges()
                .iter()
                .filter_map(|e| e.try_other(u))
                .collect();
            let mut all = rel.clone();
            all.extend(g.extra_edges().iter().filter_map(|e| e.try_other(u)));
            delta = delta.max(rel.len() + 1);
            delta_prime = delta_prime.max(all.len() + 1);
            assert_eq!(
                g.reliable_neighbors(u),
                rel.iter().copied().collect::<Vec<_>>(),
                "reliable adjacency of {u} diverged from the edge list"
            );
            assert_eq!(
                g.all_neighbors(u),
                all.iter().copied().collect::<Vec<_>>(),
                "merged G' adjacency of {u} diverged from the edge list"
            );
        }
        assert_eq!(g.delta(), delta, "precomputed delta diverged");
        assert_eq!(g.delta_prime(), delta_prime, "precomputed delta' diverged");
    }

    #[test]
    fn precomputed_bounds_match_brute_force() {
        brute_force_check(&triangle());
        brute_force_check(&DualGraph::new(0, [], []).unwrap());
        brute_force_check(&DualGraph::new(1, [], []).unwrap());
        // A star plus a fringe ring: uneven degrees in both classes.
        brute_force_check(
            &DualGraph::new(
                7,
                (1..7).map(|v| (0, v)),
                (1..7).map(|v| (v, v % 6 + 1)).filter(|(a, b)| a != b),
            )
            .unwrap(),
        );
        // Isolated vertices at both ends of the index range.
        brute_force_check(&DualGraph::new(6, [(2, 3)], [(3, 4)]).unwrap());
    }

    #[test]
    fn serde_roundtrip_preserves_graph_and_derived_data() {
        let g = DualGraph::new(5, [(0, 1), (1, 2), (3, 4)], [(0, 2), (2, 4)]).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        // The wire format carries only the logical edge lists.
        assert!(json.contains("reliable_edges"));
        assert!(!json.contains("csr") && !json.contains("offsets"));
        let back: DualGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        assert_eq!(back.delta(), g.delta());
        assert_eq!(back.delta_prime(), g.delta_prime());
    }

    #[test]
    fn serde_rejects_structurally_invalid_wire_data() {
        // An edge in both sets must fail deserialization, not produce a
        // graph that violates the `E' \ E` invariant.
        let bad = r#"{"n":2,
            "reliable_edges":[{"a":0,"b":1}],
            "extra_edges":[{"a":0,"b":1}]}"#;
        assert!(serde_json::from_str::<DualGraph>(bad).is_err());
        // A self-loop is an error too, not a panic in `Edge::new`.
        let looped = r#"{"n":3,"reliable_edges":[{"a":1,"b":1}],"extra_edges":[]}"#;
        let err = serde_json::from_str::<DualGraph>(looped).unwrap_err();
        assert!(err.to_string().contains("joins v1 to itself"), "{err}");
        assert_eq!(
            DualGraph::new(3, [(0, 1)], [(2, 2)]).unwrap_err(),
            GraphError::SelfLoop(NodeId(2))
        );
    }

    #[test]
    fn degree_bounds() {
        let g = triangle();
        // Node 1 has two reliable neighbors: delta = 3.
        assert_eq!(g.delta(), 3);
        // Every node sees both others in G': delta' = 3.
        assert_eq!(g.delta_prime(), 3);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = DualGraph::new(2, [(0, 5)], []).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 5, n: 2 }));
    }

    #[test]
    fn rejects_edge_in_both_sets() {
        let err = DualGraph::new(2, [(0, 1)], [(1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge(_)));
    }

    #[test]
    fn deduplicates_repeated_edges() {
        let g = DualGraph::new(2, [(0, 1), (1, 0)], []).unwrap();
        assert_eq!(g.reliable_edges().len(), 1);
    }

    #[test]
    fn edge_normalization_and_other() {
        let e = Edge::new(NodeId(5), NodeId(2));
        assert_eq!(e.a, NodeId(2));
        assert_eq!(e.try_other(NodeId(2)), Some(NodeId(5)));
        assert_eq!(e.try_other(NodeId(5)), Some(NodeId(2)));
        assert_eq!(e.try_other(NodeId(7)), None);
        // The panicking wrapper still works for known endpoints.
        assert_eq!(e.other(NodeId(2)), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn empty_graph() {
        let g = DualGraph::new(0, [], []).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.delta(), 1);
    }
}
