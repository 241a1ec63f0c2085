//! Measure hot-path throughput and record the perf trajectory point.
//!
//! ```text
//! perf [--out PATH]      # measure; write BENCH.json (default ./BENCH.json)
//! perf --quick [...]     # tiny budget (CI smoke; numbers are noisy)
//! perf --check PATH      # validate an existing BENCH.json; exit 1 if invalid
//! perf --compare OLD     # measure, then compare against the baseline OLD;
//!                        # exit 1 if any case's median is worse than the
//!                        # baseline's by more than the baseline's IQR
//! ```
//!
//! The measurement suite and the `BENCH.json` schema live in
//! [`bench::perf`]; docs/perf.md describes the methodology and how to
//! compare runs across commits.

use std::process::ExitCode;

fn usage() -> String {
    "usage: perf [--out PATH] [--quick] [--compare OLD.json]\n       \
     perf --check PATH"
        .to_string()
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(usage());
    }

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(i + 1)
            .ok_or_else(|| format!("--check needs a path\n{}", usage()))?;
        if args.len() != 2 {
            return Err(format!("--check takes exactly one path\n{}", usage()));
        }
        let data = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        return match bench::perf::BenchReport::from_json(&data) {
            Ok(report) => {
                eprintln!("{path}: valid BENCH.json (schema v{})", report.schema_version);
                print!("{}", report.summary());
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                Ok(ExitCode::from(1))
            }
        };
    }

    let mut out = "BENCH.json".to_string();
    let mut quick = false;
    let mut baseline: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--out needs a path\n{}", usage()))?
                    .clone();
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--compare" => {
                baseline = Some(
                    args.get(i + 1)
                        .ok_or_else(|| format!("--compare needs a path\n{}", usage()))?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    // Read the baseline before measuring, so a bad path fails fast.
    let baseline = match &baseline {
        Some(path) => {
            let data = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let old = bench::perf::BenchReport::from_json(&data)
                .map_err(|e| format!("baseline {path}: {e}"))?;
            Some((path.clone(), old))
        }
        None => None,
    };

    eprintln!(
        "== perf: {} samples per case ({}) ==",
        bench::perf::SAMPLES,
        if quick { "quick budget" } else { "full budget" }
    );
    let report = bench::perf::run(quick);
    report.validate().map_err(|e| format!("fresh report failed validation: {e}"))?;
    print!("{}", report.summary());
    std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    if let Some((path, old)) = baseline {
        let cmp = bench::perf::compare(&old, &report);
        eprintln!("== perf: comparing against baseline {path} ==");
        print!("{}", cmp.summary());
        if !cmp.regressions().is_empty() {
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
