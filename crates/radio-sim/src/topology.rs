//! Topology generators: the network families used across experiments.
//!
//! Every generator returns a [`Topology`]: a dual graph together with the
//! Euclidean embedding witnessing its `r`-geographic property (Section 2).
//! The grey zone — pairs at distance in `(1, r]` — is where the model's
//! adversarial flexibility lives: such pairs may be reliable neighbors,
//! unreliable neighbors, or non-neighbors, and the generators expose
//! parameters controlling that choice.

use crate::engine::Configuration;
use crate::geometry::{check_r_geographic, Embedding, Point};
use crate::graph::DualGraph;
use crate::rng::{derive_stream, StreamKind};
use crate::scheduler::LinkScheduler;
use rand::Rng;
use std::sync::Arc;

/// A generated network: dual graph plus its witnessing embedding.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The dual graph `(G, G')`.
    pub graph: DualGraph,
    /// The embedding witnessing `r`-geography.
    pub embedding: Embedding,
    /// The geographic parameter.
    pub r: f64,
}

impl Topology {
    /// Wraps this topology and a scheduler into an engine
    /// [`Configuration`], propagating `r`.
    pub fn configuration(&self, scheduler: Box<dyn LinkScheduler>) -> Configuration {
        Configuration::new(self.graph.clone(), scheduler).with_r(self.r)
    }

    /// Verifies the two r-geographic conditions against the embedding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violating pair.
    pub fn check_geographic(&self) -> Result<(), String> {
        let g = &self.graph;
        check_r_geographic(
            &self.embedding,
            self.r,
            |u, v| g.is_reliable_edge(crate::graph::NodeId(u), crate::graph::NodeId(v)),
            |u, v| g.is_any_edge(crate::graph::NodeId(u), crate::graph::NodeId(v)),
        )
    }
}

/// The O(n²) all-pairs construction, retained as the byte-identity oracle
/// for the cell-grid path: it defines the canonical `(u, v)`
/// lexicographic order in which `grey_decision` (and hence any wiring
/// RNG behind it) is consumed.
fn build_from_embedding_reference(
    emb: Embedding,
    r: f64,
    mut grey_decision: impl FnMut(usize, usize, f64) -> GreyKind,
) -> Topology {
    let n = emb.len();
    let mut reliable = Vec::new();
    let mut extra = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let d = emb.distance(u, v);
            if d <= 1.0 {
                reliable.push((u, v));
            } else if d <= r {
                match grey_decision(u, v, d) {
                    GreyKind::Reliable => reliable.push((u, v)),
                    GreyKind::Unreliable => extra.push((u, v)),
                    GreyKind::Absent => {}
                }
            }
        }
    }
    let graph = DualGraph::new(n, reliable, extra)
        .expect("generator produced structurally valid edges");
    Topology {
        graph,
        embedding: emb,
        r,
    }
}

/// Vertices counting-sorted into a dense row-major grid of square cells
/// spanning the embedding's bounding box, for the candidate scan of
/// [`build_from_embedding`]. Cells are at least `reach` wide, so any
/// pair at distance ≤ `reach` lies in the same or adjacent cells.
struct CellGrid {
    cols: usize,
    rows: usize,
    /// The cell of each vertex, `row · cols + col`.
    cell: Vec<usize>,
    /// `start[c]..start[c + 1]` indexes cell `c`'s slice of `members`.
    start: Vec<usize>,
    /// Vertices grouped by cell, ascending within each cell.
    members: Vec<usize>,
}

impl CellGrid {
    /// Grids a nonempty embedding of finite points into at most `2n`
    /// cells. A sparse layout gets cells wider than `reach` instead of
    /// more cells; wider cells only add candidates, never lose a pair.
    /// Everything is computed from halved coordinates, whose spans stay
    /// finite for any finite input, and indexed from the bounding-box
    /// minimum, so negative coordinates need no offset.
    fn new(emb: &Embedding, reach: f64) -> Self {
        let n = emb.len();
        debug_assert!(n > 0, "the grid needs a vertex to span");
        let (mut lo_x, mut lo_y) = (f64::INFINITY, f64::INFINITY);
        let (mut hi_x, mut hi_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in emb.iter() {
            lo_x = lo_x.min(p.x * 0.5);
            hi_x = hi_x.max(p.x * 0.5);
            lo_y = lo_y.min(p.y * 0.5);
            hi_y = hi_y.max(p.y * 0.5);
        }
        let (span_x, span_y) = (hi_x - lo_x, hi_y - lo_y);
        let cap = 2.0 * n as f64;
        let dims = |half: f64| ((span_x / half).floor() + 1.0, (span_y / half).floor() + 1.0);
        // Half the cell side. The relative slack of 2⁻²⁰ keeps a pair at
        // distance exactly `reach` in adjacent cells despite rounding.
        let mut half =
            (0.5 * reach * (1.0 + 1.0 / f64::from(1u32 << 20))).max(span_x.max(span_y) / cap);
        let (cols, rows) = loop {
            let (cols, rows) = dims(half);
            if cols * rows <= cap {
                break (cols as usize, rows as usize);
            }
            half *= 2.0;
        };
        // `as usize` floors these non-negative quotients; rounding is
        // monotone, so the largest is `cols - 1` (`rows - 1`).
        let cell: Vec<usize> = emb
            .iter()
            .map(|p| {
                let x = ((p.x * 0.5 - lo_x) / half) as usize;
                let y = ((p.y * 0.5 - lo_y) / half) as usize;
                y * cols + x
            })
            .collect();
        // Counting sort: `start[c]` first counts cell `c`, then (prefix
        // sums) marks its end, and the reverse fill moves it down to the
        // cell's beginning while keeping members ascending.
        let mut start = vec![0usize; cols * rows + 1];
        for &c in &cell {
            start[c] += 1;
        }
        for c in 1..cols * rows {
            start[c] += start[c - 1];
        }
        start[cols * rows] = n;
        let mut members = vec![0usize; n];
        for u in (0..n).rev() {
            start[cell[u]] -= 1;
            members[start[cell[u]]] = u;
        }
        CellGrid {
            cols,
            rows,
            cell,
            start,
            members,
        }
    }

    /// Appends to `out` every vertex above `u` in `u`'s cell and the
    /// (up to 8) cells around it, as up to 9 ascending runs.
    fn candidates(&self, u: usize, out: &mut Vec<usize>) {
        let (x, y) = (self.cell[u] % self.cols, self.cell[u] / self.cols);
        let (x0, x1) = (x.saturating_sub(1), (x + 1).min(self.cols - 1));
        for row in y.saturating_sub(1)..=(y + 1).min(self.rows - 1) {
            // A row's three cells are adjacent in `members`: one slice.
            let (first, last) = (row * self.cols + x0, row * self.cols + x1);
            let run = &self.members[self.start[first]..self.start[last + 1]];
            out.extend(run.iter().copied().filter(|&v| v > u));
        }
    }
}

/// Cell-grid construction: sorts the embedding into a [`CellGrid`]
/// of cells at least `max(1, r)` wide and examines only candidate pairs
/// from the same or neighboring cells — any pair at distance ≤
/// `max(1, r)` lands there, and pairs further apart get no edge and
/// consume no randomness in the reference either. Per node, candidates
/// are visited in ascending vertex order, so `grey_decision` is called in
/// the exact `(u, v)` lexicographic order of
/// [`build_from_embedding_reference`]: output and RNG consumption are
/// byte-identical while construction drops from O(n²) to
/// O(n · neighborhood), with at most `2n` cells for any finite input.
fn build_from_embedding(
    emb: Embedding,
    r: f64,
    mut grey_decision: impl FnMut(usize, usize, f64) -> GreyKind,
) -> Topology {
    let n = emb.len();
    // Non-finite coordinates make floor-based cell indexing ill-defined;
    // such pairs compare false against every threshold, and the reference
    // handles them uniformly (as it does the empty embedding).
    let finite = emb.iter().all(|p| p.x.is_finite() && p.y.is_finite());
    if n == 0 || !finite || !r.is_finite() {
        return build_from_embedding_reference(emb, r, grey_decision);
    }
    let grid = CellGrid::new(&emb, r.max(1.0));
    let mut reliable = Vec::new();
    let mut extra = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    for u in 0..n {
        candidates.clear();
        grid.candidates(u, &mut candidates);
        // Restore global ascending order across the up-to-9 sorted runs.
        candidates.sort_unstable();
        for &v in &candidates {
            let d = emb.distance(u, v);
            if d <= 1.0 {
                reliable.push((u, v));
            } else if d <= r {
                match grey_decision(u, v, d) {
                    GreyKind::Reliable => reliable.push((u, v)),
                    GreyKind::Unreliable => extra.push((u, v)),
                    GreyKind::Absent => {}
                }
            }
        }
    }
    let graph = DualGraph::new(n, reliable, extra)
        .expect("generator produced structurally valid edges");
    Topology {
        graph,
        embedding: emb,
        r,
    }
}

/// How a grey-zone pair (distance in `(1, r]`) is wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreyKind {
    /// The pair gets a reliable edge (allowed by the model).
    Reliable,
    /// The pair gets an unreliable edge (scheduler-controlled).
    Unreliable,
    /// The pair gets no edge.
    Absent,
}

/// Builds a topology from an explicit embedding, wiring every grey-zone
/// pair (distance in `(1, r]`) the same way. Experiments use this to
/// construct bespoke adversarial arenas.
pub fn from_embedding(emb: Embedding, r: f64, grey: GreyKind) -> Topology {
    build_from_embedding(emb, r, |_, _, _| grey)
}

/// Errors from invalid [`RggParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RggError {
    /// `n` was zero: the deployment would be an empty (degenerate) graph.
    NoNodes,
    /// `side` was non-finite or non-positive.
    BadSide(f64),
    /// `r` was non-finite or below 1 (the model requires `r ≥ 1`).
    BadRadius(f64),
    /// A grey wiring probability fell outside `[0, 1]` (named field,
    /// offending value). Out-of-range values panic deep inside the RNG's
    /// `gen_bool`; NaN is rejected here too.
    BadProbability(&'static str, f64),
}

impl std::fmt::Display for RggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RggError::NoNodes => write!(f, "rgg: n must be >= 1"),
            RggError::BadSide(s) => write!(f, "rgg: side must be finite and > 0, got {s}"),
            RggError::BadRadius(r) => write!(f, "rgg: r must be finite and >= 1, got {r}"),
            RggError::BadProbability(name, p) => {
                write!(f, "rgg: {name} must be in [0, 1], got {p}")
            }
        }
    }
}

impl std::error::Error for RggError {}

/// Parameters for [`random_geometric`].
#[derive(Debug, Clone, Copy)]
pub struct RggParams {
    /// Number of nodes.
    pub n: usize,
    /// Side length of the square deployment area.
    pub side: f64,
    /// Geographic parameter `r ≥ 1`.
    pub r: f64,
    /// Probability a grey-zone pair becomes a *reliable* edge.
    pub grey_reliable_p: f64,
    /// Probability a grey-zone pair (not made reliable) becomes an
    /// *unreliable* edge.
    pub grey_unreliable_p: f64,
    /// Seed for placement and grey-zone wiring.
    pub seed: u64,
}

impl Default for RggParams {
    fn default() -> Self {
        RggParams {
            n: 50,
            side: 4.0,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 0,
        }
    }
}

impl RggParams {
    /// The deployment [`constant_density`] builds: every grey-zone pair
    /// unreliable, in a square of [`constant_density_side`].
    pub fn constant_density(n: usize, density: f64, r: f64, seed: u64) -> Self {
        RggParams {
            n,
            side: constant_density_side(n, density),
            r,
            grey_reliable_p: 0.0,
            grey_unreliable_p: 1.0,
            seed,
        }
    }

    /// Checks the parameters up front, instead of panicking deep inside
    /// placement/wiring (`gen_bool` aborts on probabilities outside
    /// `[0, 1]`) or silently producing a degenerate graph (`n = 0`,
    /// non-positive `side`).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as an [`RggError`].
    pub fn validate(&self) -> Result<(), RggError> {
        if self.n == 0 {
            return Err(RggError::NoNodes);
        }
        if !self.side.is_finite() || self.side <= 0.0 {
            return Err(RggError::BadSide(self.side));
        }
        if !self.r.is_finite() || self.r < 1.0 {
            return Err(RggError::BadRadius(self.r));
        }
        for (name, p) in [
            ("grey_reliable_p", self.grey_reliable_p),
            ("grey_unreliable_p", self.grey_unreliable_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(RggError::BadProbability(name, p));
            }
        }
        Ok(())
    }
}

fn rgg_wiring(
    params: RggParams,
    build: impl FnOnce(Embedding, f64, &mut dyn FnMut(usize, usize, f64) -> GreyKind) -> Topology,
) -> Topology {
    let mut rng = derive_stream(params.seed, StreamKind::Topology, 0);
    let points = (0..params.n)
        .map(|_| Point::new(rng.gen::<f64>() * params.side, rng.gen::<f64>() * params.side))
        .collect();
    let mut wiring_rng = derive_stream(params.seed, StreamKind::Topology, 1);
    build(Embedding::new(points), params.r, &mut |_, _, _| {
        if wiring_rng.gen_bool(params.grey_reliable_p) {
            GreyKind::Reliable
        } else if wiring_rng.gen_bool(params.grey_unreliable_p) {
            GreyKind::Unreliable
        } else {
            GreyKind::Absent
        }
    })
}

/// A random geometric dual graph: nodes placed uniformly in a
/// `side × side` square; pairs within distance 1 are reliable; grey-zone
/// pairs are wired per the probabilities in `params`. Construction scans
/// a cell grid (O(n · neighborhood), not O(n²)), byte-identical to
/// [`random_geometric_reference`].
///
/// # Panics
///
/// Panics when `params` fail [`RggParams::validate`]; use
/// [`try_random_geometric`] for a `Result`.
pub fn random_geometric(params: RggParams) -> Topology {
    match try_random_geometric(params) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`random_geometric`].
///
/// # Errors
///
/// Returns an [`RggError`] when `params` fail [`RggParams::validate`].
pub fn try_random_geometric(params: RggParams) -> Result<Topology, RggError> {
    params.validate()?;
    Ok(rgg_wiring(params, |emb, r, grey| build_from_embedding(emb, r, grey)))
}

/// The O(n²) all-pairs reference construction of [`random_geometric`],
/// retained as the byte-identity test oracle for the cell-grid path.
///
/// # Panics
///
/// Panics when `params` fail [`RggParams::validate`].
pub fn random_geometric_reference(params: RggParams) -> Topology {
    if let Err(e) = params.validate() {
        panic!("{e}");
    }
    rgg_wiring(params, |emb, r, grey| {
        build_from_embedding_reference(emb, r, grey)
    })
}

/// `n` nodes on a line with the given spacing; grey-zone pairs become
/// unreliable edges.
pub fn line(n: usize, spacing: f64, r: f64) -> Topology {
    let points = (0..n)
        .map(|i| Point::new(i as f64 * spacing, 0.0))
        .collect();
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// A `rows × cols` grid with the given spacing; grey-zone pairs become
/// unreliable edges.
pub fn grid(rows: usize, cols: usize, spacing: f64, r: f64) -> Topology {
    let mut points = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            points.push(Point::new(j as f64 * spacing, i as f64 * spacing));
        }
    }
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// `n` nodes packed in a disc of diameter ≤ 1: a reliable clique. This is
/// the worst case for acknowledgment (a receiver neighboring `Δ − 1`
/// broadcasters, the `t_ack ≥ Δ` argument of Section 1).
pub fn clique(n: usize, r: f64) -> Topology {
    // Place nodes on a circle of radius 0.49 so every pairwise distance is
    // < 1.
    let points = (0..n)
        .map(|i| {
            let angle = 2.0 * std::f64::consts::PI * (i as f64) / (n.max(1) as f64);
            Point::new(0.49 * angle.cos(), 0.49 * angle.sin())
        })
        .collect();
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// The grey-zone sandwich used by baseline-thwarting experiments (E7):
/// a receiver at the origin, `reliable_senders` nodes within distance 1
/// (its `G`-neighbors), and `grey_senders` nodes in the annulus
/// `(1, r]` connected to the receiver and to each other's range only by
/// *unreliable* edges.
///
/// Under a contention-pumping scheduler the unreliable senders flood the
/// receiver exactly when a fixed-probability baseline transmits
/// aggressively.
pub fn grey_sandwich(reliable_senders: usize, grey_senders: usize, r: f64) -> Topology {
    assert!(r > 1.0, "grey sandwich needs r > 1 to host grey senders");
    let mut points = vec![Point::new(0.0, 0.0)];
    // Reliable senders: tight arc near the receiver.
    for i in 0..reliable_senders {
        let angle = 0.4 * (i as f64) / (reliable_senders.max(1) as f64);
        points.push(Point::new(0.8 * angle.cos(), 0.8 * angle.sin()));
    }
    // Grey senders: ring at radius (1 + r) / 2.
    let ring = (1.0 + r) / 2.0;
    for i in 0..grey_senders {
        let angle = 2.0 * std::f64::consts::PI * (i as f64) / (grey_senders.max(1) as f64);
        points.push(Point::new(ring * angle.cos(), ring * angle.sin()));
    }
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// The E7 arena: a listening receiver at the origin with `reliable`
/// nearby senders; `grey` senders in the annulus connected only by
/// unreliable edges; and a remote clique of `grey.max(4)` nodes that
/// inflates the *global* degree bound Δ, stretching Decay's probability
/// ladder down to `≈ 1/grey` where a contention pump's starvation bites.
/// `r = 2`.
///
/// Layout: receiver `NodeId(0)`; reliable senders `1..=reliable`;
/// grey senders next; remote clique last.
pub fn pump_arena(reliable: usize, grey: usize) -> Topology {
    let mut points = vec![Point::new(0.0, 0.0)];
    for i in 0..reliable {
        let angle = 0.5 * (i as f64) / (reliable.max(1) as f64);
        points.push(Point::new(0.8 * angle.cos(), 0.8 * angle.sin()));
    }
    let ring = 1.5;
    for i in 0..grey {
        let angle = 2.0 * std::f64::consts::PI * (i as f64) / (grey.max(1) as f64);
        points.push(Point::new(ring * angle.cos(), ring * angle.sin()));
    }
    let clique = grey.max(4);
    for i in 0..clique {
        let angle = 2.0 * std::f64::consts::PI * (i as f64) / (clique as f64);
        points.push(Point::new(100.0 + 0.49 * angle.cos(), 0.49 * angle.sin()));
    }
    from_embedding(Embedding::new(points), 2.0, GreyKind::Unreliable)
}

/// Parameters for [`clustered`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterParams {
    /// Number of clusters.
    pub clusters: usize,
    /// Nodes per cluster.
    pub cluster_size: usize,
    /// Distance between adjacent cluster centers.
    pub spacing: f64,
    /// Radius of each cluster (≤ 0.5 keeps clusters internally reliable).
    pub spread: f64,
    /// Geographic parameter.
    pub r: f64,
    /// Placement seed.
    pub seed: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            clusters: 4,
            cluster_size: 8,
            spacing: 1.5,
            spread: 0.4,
            r: 2.0,
            seed: 0,
        }
    }
}

/// Clusters of tightly packed nodes with grey-zone links between adjacent
/// clusters: internally reliable, externally unreliable.
pub fn clustered(params: ClusterParams) -> Topology {
    let mut rng = derive_stream(params.seed, StreamKind::Topology, 2);
    let mut points = Vec::new();
    for c in 0..params.clusters {
        let cx = c as f64 * params.spacing;
        for _ in 0..params.cluster_size {
            let dx = (rng.gen::<f64>() - 0.5) * 2.0 * params.spread;
            let dy = (rng.gen::<f64>() - 0.5) * 2.0 * params.spread;
            points.push(Point::new(cx + dx, dy));
        }
    }
    build_from_embedding(Embedding::new(points), params.r, |_, _, _| {
        GreyKind::Unreliable
    })
}

/// `n` nodes on a circle of circumference `n · spacing`: a ring network.
/// With `spacing ≤ 1` adjacent nodes are reliable neighbors; grey-zone
/// chords become unreliable edges.
///
/// # Panics
///
/// Panics when `n < 3` (smaller rings degenerate to lines).
pub fn ring(n: usize, spacing: f64, r: f64) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let radius = (n as f64 * spacing) / (2.0 * std::f64::consts::PI);
    let points = (0..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect();
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// A two-tier deployment: a dense core clique (diameter < 1) surrounded
/// by `periphery` sparse nodes on a ring at distance `ring_radius ∈
/// (1, r]` from the center — core↔periphery links are grey-zone
/// (unreliable). Models an access-point cluster with marginal clients.
///
/// # Panics
///
/// Panics unless `1 < ring_radius ≤ r`.
pub fn two_tier(core: usize, periphery: usize, ring_radius: f64, r: f64) -> Topology {
    assert!(
        ring_radius > 1.0 && ring_radius <= r,
        "periphery must sit in the grey zone (1, r]"
    );
    let mut points = Vec::with_capacity(core + periphery);
    for i in 0..core {
        let a = 2.0 * std::f64::consts::PI * (i as f64) / core.max(1) as f64;
        points.push(Point::new(0.45 * a.cos(), 0.45 * a.sin()));
    }
    for i in 0..periphery {
        let a = 2.0 * std::f64::consts::PI * (i as f64) / periphery.max(1) as f64;
        points.push(Point::new(
            (ring_radius + 0.45) * a.cos(),
            (ring_radius + 0.45) * a.sin(),
        ));
    }
    build_from_embedding(Embedding::new(points), r, |_, _, _| GreyKind::Unreliable)
}

/// A constant-density deployment for the locality experiment (E9): `n`
/// nodes at fixed `density` (expected nodes per unit disc), in a square
/// whose area grows with `n`. Local quantities (Δ, per-neighborhood
/// behavior) stay flat as `n` grows.
pub fn constant_density(n: usize, density: f64, r: f64, seed: u64) -> Topology {
    random_geometric(RggParams::constant_density(n, density, r, seed))
}

/// The arena side length [`constant_density`] deploys `n` nodes into at
/// the given density (expected nodes per unit disc). Exposed so mobility
/// timelines over constant-density deployments confine their waypoints
/// to the same arena the static builder used.
pub fn constant_density_side(n: usize, density: f64) -> f64 {
    (n as f64 * std::f64::consts::PI / density).sqrt()
}

// ---------------------------------------------------------------------------
// Mobility: random-waypoint timelines
// ---------------------------------------------------------------------------

/// One epoch of a random-waypoint mobility timeline: the round it takes
/// effect, the rebuilt snapshot, and what the rebuild cost.
#[derive(Debug, Clone)]
pub struct MobilityEpoch {
    /// First round this snapshot is in force (epoch `e` starts at
    /// `1 + e · epoch_rounds`).
    pub start_round: u64,
    /// The dual graph rebuilt against this epoch's node positions.
    pub graph: Arc<DualGraph>,
    /// The embedding witnessing the snapshot; fault regions given as
    /// discs resolve against this, per epoch.
    pub embedding: Arc<Embedding>,
    /// Wall-clock nanoseconds spent placing nodes and rebuilding
    /// adjacency for this epoch (0 for epochs that share a snapshot).
    pub build_ns: u64,
}

/// Errors from invalid mobility-timeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityError {
    /// The underlying deployment parameters were invalid.
    Rgg(RggError),
    /// `speed` was non-finite or negative.
    BadSpeed(f64),
    /// `epoch_rounds` was zero.
    ZeroEpochRounds,
    /// `epochs` was zero (a timeline needs at least one epoch).
    NoEpochs,
}

impl std::fmt::Display for MobilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MobilityError::Rgg(e) => write!(f, "mobility: {e}"),
            MobilityError::BadSpeed(s) => {
                write!(f, "mobility: speed must be finite and >= 0, got {s}")
            }
            MobilityError::ZeroEpochRounds => write!(f, "mobility: epoch_rounds must be >= 1"),
            MobilityError::NoEpochs => write!(f, "mobility: need at least one epoch"),
        }
    }
}

impl std::error::Error for MobilityError {}

/// One node's random-waypoint state: current position, current target,
/// and the private stream its waypoints come from.
struct Walker {
    pos: Point,
    target: Point,
    rng: rand_chacha::ChaCha8Rng,
}

impl Walker {
    /// Moves `budget` distance units along the waypoint path: walk
    /// toward the target, and on arrival draw the next target uniformly
    /// in the `side × side` arena.
    fn advance(&mut self, mut budget: f64, side: f64) {
        while budget > 0.0 {
            let dx = self.target.x - self.pos.x;
            let dy = self.target.y - self.pos.y;
            let d = (dx * dx + dy * dy).sqrt();
            if d > budget {
                let f = budget / d;
                self.pos = Point::new(self.pos.x + dx * f, self.pos.y + dy * f);
                return;
            }
            budget -= d;
            self.pos = self.target;
            self.target = Point::new(self.rng.gen::<f64>() * side, self.rng.gen::<f64>() * side);
        }
    }
}

/// Builds a random-waypoint mobility timeline over a random geometric
/// deployment: epoch 0 is exactly [`random_geometric`]`(params)` (same
/// placement, same grey wiring, same RNG consumption), and each later
/// epoch advances every node `epoch_rounds · speed` distance units along
/// its waypoint path, then rebuilds adjacency with the cell-grid
/// constructor.
///
/// Randomness discipline (`StreamKind::Mobility`):
///
/// * waypoint draws for vertex `v` come from stream index `v`;
/// * epoch `e`'s grey-zone wiring comes from stream index `2³² + e`
///   (disjoint from the per-node indices for every supported `n`);
/// * `speed = 0` or a single epoch consumes **no** mobility randomness —
///   frozen nodes share the epoch-0 snapshot `Arc`, so such timelines
///   are trace-identical to static geometry.
///
/// # Errors
///
/// Returns a [`MobilityError`] for invalid deployment parameters,
/// negative/non-finite speed, zero `epoch_rounds`, or zero `epochs`.
pub fn random_geometric_timeline(
    params: RggParams,
    speed: f64,
    epoch_rounds: u64,
    epochs: usize,
) -> Result<Vec<MobilityEpoch>, MobilityError> {
    params.validate().map_err(MobilityError::Rgg)?;
    if !speed.is_finite() || speed < 0.0 {
        return Err(MobilityError::BadSpeed(speed));
    }
    if epoch_rounds == 0 {
        return Err(MobilityError::ZeroEpochRounds);
    }
    if epochs == 0 {
        return Err(MobilityError::NoEpochs);
    }
    debug_assert!((params.n as u64) < (1 << 32), "wiring stream indices overlap waypoints");

    let t0 = std::time::Instant::now();
    let base = try_random_geometric(params).map_err(MobilityError::Rgg)?;
    let base_ns = t0.elapsed().as_nanos() as u64;
    let base_graph = Arc::new(base.graph);
    let base_emb = Arc::new(base.embedding);
    let mut out = vec![MobilityEpoch {
        start_round: 1,
        graph: Arc::clone(&base_graph),
        embedding: Arc::clone(&base_emb),
        build_ns: base_ns,
    }];
    if epochs == 1 {
        return Ok(out);
    }
    if speed == 0.0 {
        for e in 1..epochs {
            out.push(MobilityEpoch {
                start_round: 1 + e as u64 * epoch_rounds,
                graph: Arc::clone(&base_graph),
                embedding: Arc::clone(&base_emb),
                build_ns: 0,
            });
        }
        return Ok(out);
    }

    let mut walkers: Vec<Walker> = (0..params.n)
        .map(|v| {
            let mut rng = derive_stream(params.seed, StreamKind::Mobility, v as u64);
            let target =
                Point::new(rng.gen::<f64>() * params.side, rng.gen::<f64>() * params.side);
            Walker {
                pos: base_emb.position(v),
                target,
                rng,
            }
        })
        .collect();
    for e in 1..epochs {
        let t0 = std::time::Instant::now();
        for w in &mut walkers {
            w.advance(epoch_rounds as f64 * speed, params.side);
        }
        let points: Vec<Point> = walkers.iter().map(|w| w.pos).collect();
        let mut wiring = derive_stream(params.seed, StreamKind::Mobility, (1u64 << 32) + e as u64);
        let topo = build_from_embedding(Embedding::new(points), params.r, |_, _, _| {
            if wiring.gen_bool(params.grey_reliable_p) {
                GreyKind::Reliable
            } else if wiring.gen_bool(params.grey_unreliable_p) {
                GreyKind::Unreliable
            } else {
                GreyKind::Absent
            }
        });
        out.push(MobilityEpoch {
            start_round: 1 + e as u64 * epoch_rounds,
            graph: Arc::new(topo.graph),
            embedding: Arc::new(topo.embedding),
            build_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let t = line(5, 0.9, 2.0);
        assert_eq!(t.graph.len(), 5);
        // Adjacent nodes at 0.9 are reliable; distance-2 nodes at 1.8 <= r
        // are grey (unreliable).
        assert!(t
            .graph
            .is_reliable_edge(crate::graph::NodeId(0), crate::graph::NodeId(1)));
        assert!(t.graph.is_any_edge(crate::graph::NodeId(0), crate::graph::NodeId(2)));
        assert!(!t
            .graph
            .is_reliable_edge(crate::graph::NodeId(0), crate::graph::NodeId(2)));
        t.check_geographic().unwrap();
    }

    #[test]
    fn grid_is_geographic() {
        let t = grid(4, 4, 0.8, 2.0);
        assert_eq!(t.graph.len(), 16);
        t.check_geographic().unwrap();
    }

    #[test]
    fn clique_is_complete_reliable() {
        let t = clique(8, 1.0);
        for u in t.graph.vertices() {
            assert_eq!(t.graph.reliable_neighbors(u).len(), 7);
        }
        assert_eq!(t.graph.delta(), 8);
        t.check_geographic().unwrap();
    }

    #[test]
    fn rgg_is_geographic_and_deterministic() {
        let params = RggParams {
            n: 40,
            side: 3.0,
            seed: 5,
            ..Default::default()
        };
        let a = random_geometric(params);
        let b = random_geometric(params);
        a.check_geographic().unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.embedding, b.embedding);
    }

    #[test]
    fn grey_sandwich_wiring() {
        let t = grey_sandwich(2, 6, 2.0);
        let receiver = crate::graph::NodeId(0);
        // Reliable senders connect reliably.
        assert!(t.graph.is_reliable_edge(receiver, crate::graph::NodeId(1)));
        // Grey senders connect only unreliably.
        let grey = crate::graph::NodeId(3);
        assert!(t.graph.is_any_edge(receiver, grey));
        assert!(!t.graph.is_reliable_edge(receiver, grey));
        t.check_geographic().unwrap();
    }

    #[test]
    fn arena_is_geographic_with_remote_clique() {
        let topo = pump_arena(2, 8);
        topo.check_geographic().unwrap();
        let receiver = crate::graph::NodeId(0);
        // Receiver: 2 reliable neighbors, 8 grey neighbors.
        assert_eq!(topo.graph.reliable_neighbors(receiver).len(), 2);
        assert_eq!(topo.graph.extra_neighbors(receiver).len(), 8);
        // The remote clique dominates Δ.
        assert!(topo.graph.delta() >= 8);
    }

    #[test]
    fn clustered_is_geographic() {
        let t = clustered(ClusterParams::default());
        assert_eq!(t.graph.len(), 32);
        t.check_geographic().unwrap();
    }

    #[test]
    fn ring_structure() {
        let t = ring(8, 0.9, 2.0);
        assert_eq!(t.graph.len(), 8);
        t.check_geographic().unwrap();
        // Adjacent ring nodes are reliable neighbors.
        for i in 0..8 {
            assert!(t
                .graph
                .is_reliable_edge(crate::graph::NodeId(i), crate::graph::NodeId((i + 1) % 8)));
        }
    }

    #[test]
    fn two_tier_wiring() {
        let t = two_tier(4, 6, 1.5, 2.0);
        assert_eq!(t.graph.len(), 10);
        t.check_geographic().unwrap();
        // Core is a reliable clique.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(t
                    .graph
                    .is_reliable_edge(crate::graph::NodeId(i), crate::graph::NodeId(j)));
            }
        }
        // Core-periphery links, where present, are unreliable only.
        let core = crate::graph::NodeId(0);
        for p in 4..10 {
            let p = crate::graph::NodeId(p);
            assert!(!t.graph.is_reliable_edge(core, p));
        }
        // At least one periphery node reaches the core through the grey
        // zone.
        let any_grey = (4..10).any(|p| t.graph.is_any_edge(core, crate::graph::NodeId(p)));
        assert!(any_grey);
    }

    #[test]
    #[should_panic(expected = "grey zone")]
    fn two_tier_rejects_reliable_radius() {
        let _ = two_tier(3, 3, 0.9, 2.0);
    }

    #[test]
    fn bucketed_rgg_matches_reference_oracle() {
        // Several (n, side, r, grey) shapes: dense single-cell, sparse
        // many-cell, r = 1 (no grey zone), skewed grey probabilities, and
        // arenas so wide the grid must coarsen (where cell indexing once
        // overflowed).
        for (n, side, r, gr, gu, seed) in [
            (40, 3.0, 2.0, 0.1, 0.8, 5),
            (1, 1.0, 1.0, 0.5, 0.5, 0),
            (64, 1.5, 2.5, 0.0, 1.0, 11),
            (80, 12.0, 1.0, 0.3, 0.3, 23),
            (120, 9.0, 1.75, 1.0, 0.0, 7),
            (50, 40.0, 3.0, 0.5, 0.5, 99),
            (60, 1e300, 2.0, 0.1, 0.8, 3),
            (20, 1e12, 1.5, 0.5, 0.5, 4),
        ] {
            let params = RggParams {
                n,
                side,
                r,
                grey_reliable_p: gr,
                grey_unreliable_p: gu,
                seed,
            };
            let fast = random_geometric(params);
            let slow = random_geometric_reference(params);
            assert_eq!(fast.graph, slow.graph, "{params:?}");
            assert_eq!(fast.embedding, slow.embedding, "{params:?}");
            fast.check_geographic().unwrap();
        }
    }

    #[test]
    fn bucketed_build_handles_non_finite_coordinates() {
        // Floor-hashing NaN/∞ is ill-defined; the builder must fall back
        // to the reference instead of mis-bucketing.
        let emb = Embedding::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(f64::INFINITY, 2.0),
        ]);
        let t = from_embedding(emb.clone(), 2.0, GreyKind::Unreliable);
        let r = build_from_embedding_reference(emb, 2.0, |_, _, _| GreyKind::Unreliable);
        assert_eq!(t.graph, r.graph);
        assert!(t
            .graph
            .is_reliable_edge(crate::graph::NodeId(0), crate::graph::NodeId(1)));
    }

    #[test]
    fn cell_grid_matches_the_reference_on_mixed_sign_coordinates() {
        // A 9×9 lattice straddling both axes (spacing 0.7, so r = 2
        // gives reliable, grey and absent pairs) on a fine 3×3 grid;
        // then with a close pair far in the negative quadrant, and with
        // points at opposite ends of the f64 range (coarsened grids).
        let lattice: Vec<Point> = (0..81)
            .map(|i| Point::new((i % 9) as f64 * 0.7 - 2.8, (i / 9) as f64 * 0.7 - 2.8))
            .collect();
        let far_pair = [Point::new(-1e6, -1e6), Point::new(-1e6 + 1.5, -1e6)];
        let extremes = [Point::new(-1.7e308, 1.7e308), Point::new(1.7e308, -1.7e308)];
        for extra in [&[][..], &far_pair, &extremes] {
            let emb = Embedding::new(lattice.iter().chain(extra).copied().collect());
            let t = from_embedding(emb.clone(), 2.0, GreyKind::Unreliable);
            let r = build_from_embedding_reference(emb, 2.0, |_, _, _| GreyKind::Unreliable);
            assert_eq!(t.graph, r.graph, "{} extra points", extra.len());
            assert!(!t.graph.extra_edges().is_empty());
        }
    }

    #[test]
    fn cell_grid_never_exceeds_two_cells_per_vertex() {
        let spread = |n: usize, scale: f64| {
            Embedding::new(
                (0..n)
                    .map(|i| Point::new(i as f64 * scale, (i * i % 7) as f64 * scale))
                    .collect(),
            )
        };
        for (emb, reach) in [
            (spread(1, 1.0), 1.0),
            (spread(2, 1e300), 1.0),
            (spread(3, 0.1), 5.0),
            (spread(50, 0.3), 1.5),
            (spread(50, 40.0), 1.0),
            (spread(200, 1e-300), 1.0),
            (spread(60, 1e306), 2.0),
            (
                Embedding::new(vec![
                    Point::new(-f64::MAX, f64::MAX),
                    Point::new(f64::MAX, -f64::MAX),
                ]),
                1.0,
            ),
        ] {
            let n = emb.len();
            let grid = CellGrid::new(&emb, reach);
            assert!(
                grid.cols * grid.rows <= 2 * n,
                "{} cells for {n} vertices",
                grid.cols * grid.rows
            );
            assert_eq!(grid.start.len(), grid.cols * grid.rows + 1);
            assert!(grid.cell.iter().all(|&c| c < grid.cols * grid.rows));
            // Every vertex is a member of its own cell, once.
            let mut seen = grid.members.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
            for (u, &c) in grid.cell.iter().enumerate() {
                assert!(grid.members[grid.start[c]..grid.start[c + 1]].contains(&u));
            }
        }
    }

    #[test]
    fn rgg_params_validate_rejects_bad_inputs() {
        let ok = RggParams::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (RggParams { n: 0, ..ok }, RggError::NoNodes),
            (RggParams { side: 0.0, ..ok }, RggError::BadSide(0.0)),
            (
                RggParams {
                    side: f64::NAN,
                    ..ok
                },
                RggError::BadSide(f64::NAN),
            ),
            (
                RggParams {
                    side: f64::INFINITY,
                    ..ok
                },
                RggError::BadSide(f64::INFINITY),
            ),
            (RggParams { r: 0.5, ..ok }, RggError::BadRadius(0.5)),
            (
                RggParams { r: f64::NAN, ..ok },
                RggError::BadRadius(f64::NAN),
            ),
            (
                RggParams {
                    grey_reliable_p: 1.5,
                    ..ok
                },
                RggError::BadProbability("grey_reliable_p", 1.5),
            ),
            (
                RggParams {
                    grey_unreliable_p: -0.1,
                    ..ok
                },
                RggError::BadProbability("grey_unreliable_p", -0.1),
            ),
            (
                RggParams {
                    grey_unreliable_p: f64::NAN,
                    ..ok
                },
                RggError::BadProbability("grey_unreliable_p", f64::NAN),
            ),
        ];
        for (params, want) in cases {
            let got = try_random_geometric(params).unwrap_err();
            // NaN payloads don't compare equal; match on the rendered
            // message, which is what the panic path surfaces.
            assert_eq!(got.to_string(), want.to_string(), "{params:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn random_geometric_panics_with_typed_message() {
        let _ = random_geometric(RggParams {
            grey_reliable_p: 2.0,
            ..Default::default()
        });
    }

    // -- mobility timelines ------------------------------------------------

    fn mob_params() -> RggParams {
        RggParams {
            n: 30,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 17,
        }
    }

    #[test]
    fn timeline_epoch_zero_is_the_static_deployment() {
        let epochs = random_geometric_timeline(mob_params(), 0.1, 16, 4).unwrap();
        let static_topo = random_geometric(mob_params());
        assert_eq!(epochs.len(), 4);
        assert_eq!(epochs[0].start_round, 1);
        assert_eq!(*epochs[0].graph, static_topo.graph);
        assert_eq!(*epochs[0].embedding, static_topo.embedding);
        for (e, ep) in epochs.iter().enumerate() {
            assert_eq!(ep.start_round, 1 + e as u64 * 16);
        }
    }

    #[test]
    fn zero_speed_timeline_shares_the_base_snapshot() {
        let epochs = random_geometric_timeline(mob_params(), 0.0, 16, 5).unwrap();
        assert_eq!(epochs.len(), 5);
        for ep in &epochs[1..] {
            assert!(Arc::ptr_eq(&ep.graph, &epochs[0].graph));
            assert!(Arc::ptr_eq(&ep.embedding, &epochs[0].embedding));
            assert_eq!(ep.build_ns, 0);
        }
    }

    #[test]
    fn moving_timeline_is_deterministic_and_stays_in_the_arena() {
        let a = random_geometric_timeline(mob_params(), 0.2, 10, 6).unwrap();
        let b = random_geometric_timeline(mob_params(), 0.2, 10, 6).unwrap();
        assert_eq!(a.len(), b.len());
        let mut moved = false;
        for (ea, eb) in a.iter().zip(&b) {
            assert_eq!(*ea.graph, *eb.graph);
            assert_eq!(*ea.embedding, *eb.embedding);
            for p in ea.embedding.iter() {
                assert!((0.0..=3.0).contains(&p.x) && (0.0..=3.0).contains(&p.y), "{p:?}");
            }
            if *ea.embedding != *a[0].embedding {
                moved = true;
            }
        }
        assert!(moved, "nodes moving 2.0 units/epoch must change the embedding");
    }

    #[test]
    fn mobility_does_not_perturb_the_static_placement() {
        // Building a moving timeline and the static topology from the
        // same seed must agree on epoch 0: mobility draws come from
        // their own stream kind, never the Topology streams.
        let moving = random_geometric_timeline(mob_params(), 0.5, 8, 3).unwrap();
        let static_topo = random_geometric(mob_params());
        assert_eq!(*moving[0].graph, static_topo.graph);
    }

    #[test]
    fn timeline_rejects_bad_parameters() {
        let p = mob_params();
        assert!(matches!(
            random_geometric_timeline(p, -0.1, 8, 2),
            Err(MobilityError::BadSpeed(_))
        ));
        assert!(matches!(
            random_geometric_timeline(p, 0.1, 0, 2),
            Err(MobilityError::ZeroEpochRounds)
        ));
        assert!(matches!(
            random_geometric_timeline(p, 0.1, 8, 0),
            Err(MobilityError::NoEpochs)
        ));
        let bad = RggParams { n: 0, ..p };
        assert!(matches!(
            random_geometric_timeline(bad, 0.1, 8, 2),
            Err(MobilityError::Rgg(RggError::NoNodes))
        ));
    }

    #[test]
    fn constant_density_keeps_delta_flat() {
        let d1 = constant_density(100, 6.0, 1.5, 3).graph.delta();
        let d2 = constant_density(400, 6.0, 1.5, 3).graph.delta();
        // Degrees fluctuate, but a 4x larger network at equal density must
        // not have a 4x larger max degree.
        assert!(
            (d2 as f64) < (d1 as f64) * 3.0,
            "delta grew with n: {d1} -> {d2}"
        );
    }
}
