//! `lobster-bench` — run any subset of the paper's benches, print their
//! tables and write one machine-readable `BENCH_<name>.json` report each.
//!
//! ```text
//! lobster-bench list
//! lobster-bench run fig9 fig5 --out-dir bench-out
//! lobster-bench run all --out-dir bench-out
//! ```
//!
//! Exit codes: 0 success, 2 usage or I/O error.

use lobster_bench::suite;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lobster-bench list\n  lobster-bench run <bench>...|all [--out-dir DIR]\n\n--out-dir DIR writes BENCH_<bench>.json per bench into DIR; without it only the tables print.\nenvironment: LOBSTER_BENCH_SCALE (workload scale, default 1.0)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<24} title", "name");
            for s in suite::all() {
                println!("{:<24} {} [{}]", s.name, s.title, s.paper_ref);
            }
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => match it.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                return usage();
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        return usage();
    }
    if names.iter().any(|n| n == "all") {
        names = suite::all().iter().map(|s| s.name.to_string()).collect();
    }
    let mut specs = Vec::new();
    for n in &names {
        match suite::find(n) {
            Some(s) => specs.push(s),
            None => {
                eprintln!("unknown bench '{n}' (see `lobster-bench list`)");
                return ExitCode::from(2);
            }
        }
    }

    for spec in specs {
        let report = suite::run_spec(spec);
        if let Some(dir) = &out_dir {
            let path = dir.join(report.file_name());
            if let Err(e) = report.write_to(&path) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("\nwrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
