//! Command-line front ends over the workspace: the `scenario` binary
//! (run, campaign, sweep, search, validate, journal and audit modes), the
//! `perf` harness whose measurement suite and `BENCH.json` schema live in
//! [`perf`], and the `experiments` binary printing the E1–E13 tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
