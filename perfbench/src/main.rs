//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <registry|scale-sweep|search|mocknet-lb> --seed N --seconds S --trace 0|1
//! perfbench gate
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats passes closed-loop for the given seconds; the first
//! pass's outcomes are the reference every later pass must reproduce.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it splits the time between an untraced and a traced loop and reports
//! the per-layer metrics. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `gate` runs the pinned-seed correctness checks (goldens, the
//! `lb-worst` archive) in a process of its own, so they never count
//! towards a workload's peak RSS.

mod metrics;
mod traced;
mod workloads;

use metrics::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use workloads::{Prepared, Workload};

/// Counts allocations while [`COUNTING`] is set (one counted pass of a
/// traced run); otherwise forwards to the system allocator untouched.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are plain atomics that never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <registry|scale-sweep|search|mocknet-lb> \
                     --seed N --seconds S --trace 0|1\n       perfbench gate";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be > 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gate") {
        return run_gate();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_gate() -> ExitCode {
    match workloads::gate() {
        Ok(g) => {
            for l in &g.lines {
                println!("# {l}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
                g.failed == 0,
                g.attempted,
                g.failed
            );
            if g.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up samples, in seconds per set-up. Untimed set-ups run first for
/// at least 0.3 s, so a core that idled before the process started is up
/// to speed when timing begins (cold set-ups measured twice as slow).
/// Each sample is then the mean of a batch of back-to-back set-ups
/// lasting about 20 ms (one, for slow set-ups), so sub-millisecond
/// set-ups are not timed one clock read at a time. At least 5 samples,
/// then more (up to 50) until they add up to 1 s: the host has slow
/// spells of a few hundred milliseconds, which a shorter window let move
/// the median.
fn timed_setups(w: Workload, seed: u64) -> Result<(Prepared, Vec<f64>), String> {
    let warm = Instant::now();
    let mut prepared = Some(workloads::setup(w, seed).map_err(|e| format!("setup: {e}"))?);
    let batch = (0.02 / warm.elapsed().as_secs_f64()).ceil().clamp(1.0, 1000.0) as u32;
    while warm.elapsed().as_secs_f64() < 0.3 {
        drop(prepared.take());
        prepared = Some(workloads::setup(w, seed).map_err(|e| format!("setup: {e}"))?);
    }
    let mut samples: Vec<f64> = Vec::new();
    let mut total = 0.0;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            // Drop the previous set-up first: two alive at once would
            // double the peak RSS of large workloads.
            drop(prepared.take());
            prepared = Some(workloads::setup(w, seed).map_err(|e| format!("setup: {e}"))?);
        }
        let took = t.elapsed().as_secs_f64();
        samples.push(took / f64::from(batch));
        total += took;
        if samples.len() >= 50 || (samples.len() >= 5 && total >= 1.0) {
            return Ok((prepared.expect("at least one set-up ran"), samples));
        }
    }
}

/// Untraced passes, closed-loop, until `seconds` of pass time elapsed.
pub struct Loop {
    pub passes: Vec<workloads::Pass>,
    pub failed: usize,
}

impl Loop {
    pub fn trials(&self) -> usize {
        self.passes.iter().map(|p| p.trials).sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_ns).sum()
    }
}

/// Runs untraced passes until `seconds` have elapsed since the reference
/// pass, just run, began. That pass counts as the first of them: the
/// per-job deciles leave its cold start out.
fn untraced_loop(p: &Prepared, reference: &workloads::Pass, seconds: f64) -> Loop {
    let start = Instant::now();
    let ran = reference.wall_ns as f64 / 1e9;
    let mut l = Loop {
        passes: vec![reference.clone()],
        failed: 0,
    };
    while ran + start.elapsed().as_secs_f64() < seconds {
        let pass = workloads::run_pass(p);
        l.failed += workloads::failed_trials(&pass, reference);
        l.passes.push(pass);
    }
    l
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (prepared, setup_times) = timed_setups(w, args.seed)?;
    let reference = workloads::run_pass(&prepared);
    let mut report = Report::new(w, args.seed);
    report.info(format!(
        "workload {} seed {} workers {} nproc {} seconds {} setup samples {}",
        w.name(),
        args.seed,
        workloads::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seconds,
        setup_times.len()
    ));
    report.info(format!(
        "reference pass: {} trials, {} node-rounds, digest {:016x}",
        reference.trials, reference.node_rounds, reference.digest
    ));
    if reference.panicked || reference.outcomes.iter().any(Option::is_none) {
        return Err("the reference pass panicked".into());
    }
    if args.trace {
        metrics::traced_run(args, &prepared, &reference, &mut report)?;
    } else {
        let l = untraced_loop(&prepared, &reference, args.seconds);
        report.attempted += l.trials();
        report.failed += l.failed;
        let pass_ms: Vec<f64> = l.passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
        report.info(format!(
            "timed: {} passes, {} trials, {} failed; pass ms p10 {:.2} p50 {:.2} p90 {:.2}",
            l.passes.len(),
            l.trials(),
            l.failed,
            metrics::percentile(&pass_ms, 0.1),
            metrics::percentile(&pass_ms, 0.5),
            metrics::percentile(&pass_ms, 0.9),
        ));
        metrics::end_to_end(&l, &setup_times, &mut report);
    }
    report.correct = report.failed == 0 && report.correct;
    Ok(report)
}

/// The traced run's counted pass: allocations of one untraced pass.
pub fn counted_pass(p: &Prepared) -> (u64, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let pass = workloads::run_pass(p);
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
        pass.node_rounds,
    )
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
