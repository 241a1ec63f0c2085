//! # seed-agreement: the `Seed(δ, ε)` specification and `SeedAlg`
//!
//! Section 3 of Lynch & Newport's local broadcast paper introduces *seed
//! agreement*: a loose coordination primitive in which every node
//! generates a random seed and eventually **commits** to a seed proposed
//! by some nearby node (possibly its own), such that not too many distinct
//! seeds are committed in any neighborhood. Shared seeds later let nodes
//! permute broadcast probability schedules in lockstep, regaining
//! independence from the oblivious link scheduler — the paper's key idea
//! for taming unreliable links.
//!
//! This crate provides:
//!
//! * [`seed`] — the seed domain `S = {0,1}^κ`: bit strings with an
//!   explicit consumption cursor (the paper's "consumes new bits from its
//!   seed").
//! * [`config`] — the algorithm's parameters and the constants ladder of
//!   Appendix B.1, with practical calibrations (the [`config`] module docs
//!   explain why the paper's literal constants are unusable).
//! * [`alg`] — [`SeedProcess`](alg::SeedProcess), the `SeedAlg(ε₁)`
//!   algorithm as a [`radio_sim::process::Process`].
//! * [`spec`] — the four conditions of the `Seed(δ, ε)` specification as
//!   checkable predicates over execution traces: well-formedness and
//!   consistency (deterministic, must hold in *every* execution),
//!   agreement (probabilistic, per-vertex), and independence (statistical
//!   helpers; guaranteed by construction in this implementation).
//! * [`goodness`] — instrumentation for the Appendix B analysis: tracks
//!   per-region cumulative leader-election probability `P_{x,h}` and the
//!   "region of goodness" whose controlled contraction replaces the
//!   union bound the paper's locality goal forbids.
//!
//! ## Example
//!
//! ```
//! use radio_sim::prelude::*;
//! use seed_agreement::{alg::SeedProcess, config::SeedConfig, spec};
//!
//! let topo = topology::line(6, 0.9, 2.0);
//! let cfg = SeedConfig::practical(0.125, 64);
//! let total = cfg.total_rounds(topo.graph.delta());
//! let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
//! let mut engine = Engine::new(
//!     topo.configuration(Box::new(scheduler::AllExtraEdges)),
//!     procs,
//!     Box::new(NullEnvironment),
//!     42,
//! );
//! engine.run(total);
//! let trace = engine.into_trace();
//! spec::check_well_formedness(&trace).unwrap();
//! spec::check_consistency(&trace).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg;
pub mod config;
pub mod goodness;
pub mod seed;
pub mod spec;

pub use alg::{SeedMsg, SeedProcess};
pub use config::SeedConfig;
pub use seed::{Seed, SeedCursor};
pub use spec::Decide;

/// Trace type produced by running `SeedAlg` under the engine.
pub type SeedTrace = radio_sim::trace::Trace<(), spec::Decide, alg::SeedMsg>;
