//! Regenerates every experiment table (the reproduction's counterpart of
//! "every table and figure in the paper").
//!
//! Usage:
//!
//! ```text
//! experiments [--full] [--markdown PATH] [E1 E4 ...]
//! ```
//!
//! With no experiment ids, runs the whole suite. `--full` uses the large
//! sweeps (minutes); the default quick scale finishes in seconds.
//! `--markdown PATH` additionally writes the tables as markdown.

use analysis::experiments::{all, Scale};
use std::io::Write;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let markdown_path = args
        .iter()
        .position(|a| a == "--markdown")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // Experiment ids are positional; skip flags and their values so a
    // path like `--markdown E-tables.md` is never read as an id.
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--markdown" {
            if i + 1 >= args.len() {
                return Err("--markdown needs a path".to_string());
            }
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else if a.starts_with('E') || a.starts_with('e') {
            wanted.push(a.to_uppercase());
            i += 1;
        } else {
            return Err(format!(
                "unexpected argument {a:?}; experiment ids look like E1..E{}",
                all().len()
            ));
        }
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !all().iter().any(|e| &e.id == w))
    {
        return Err(format!(
            "unknown experiment id {unknown}; the suite has E1..E{}",
            all().len()
        ));
    }

    let scale = if full { Scale::Full } else { Scale::Quick };
    let mut markdown = String::new();
    markdown.push_str(&format!(
        "<!-- generated by `cargo run -p bench --bin experiments{}` -->\n\n",
        if full { " -- --full" } else { "" }
    ));

    for exp in all() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == exp.id) {
            continue;
        }
        eprintln!("== {} — {} ==", exp.id, exp.title);
        eprintln!("   claim: {}", exp.claim);
        let start = std::time::Instant::now();
        let tables = (exp.run)(scale);
        eprintln!("   ({} table(s), {:.1?})", tables.len(), start.elapsed());
        for table in tables {
            println!("{table}");
            markdown.push_str(&table.to_markdown());
            markdown.push('\n');
        }
    }

    if let Some(path) = markdown_path {
        let mut f = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        f.write_all(markdown.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
