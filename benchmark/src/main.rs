use lobster_benchmark::run::{Report, Shape};
use lobster_benchmark::workload::{self, Spec, CLIENTS, WORKLOADS};
use lobster_benchmark::{compare, json, probes, run, DEFAULT_SECONDS, WARMUP_SECONDS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  lobster-benchmark --workload NAME --seed N --seconds S --trace 0|1   (one run; last line is the result as JSON)
  lobster-benchmark list
  lobster-benchmark run NAME|all [--seed N] [--seconds S] [--trace] [--quick] [--json FILE]
  lobster-benchmark probes [--json FILE]
  lobster-benchmark compare BASE.json[,MORE.json] NEW.json[,MORE.json] [--spec BENCHMARK.json]";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    json: Option<String>,
    spec: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        json: None,
        spec: "BENCHMARK.json".into(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare flag.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--json" => a.json = Some(value("--json")?),
            "--spec" => a.spec = value("--spec")?,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn print_report(r: &Report) {
    for m in &r.metrics {
        println!("{} {} {} {} n={}", r.workload, m.name, m.value, m.unit, m.n);
    }
    for note in &r.notes {
        println!("# {}: {note}", r.workload);
    }
    println!(
        "# {}: seed={} trace={} attempted={} failed={} (refused after retries: {}) commit_errors={} correct={}",
        r.workload,
        r.seed,
        r.trace,
        r.attempted,
        r.failed,
        r.refused,
        r.commit_errors,
        r.correct()
    );
}

fn metrics_json(r: &Report, with_n: bool) -> String {
    let fields: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let n = if with_n {
                format!(", \"n\": {}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json::quote(&m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(r, false)
    )
}

fn runs_json(reports: &[Report]) -> String {
    let runs: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                json::quote(r.workload),
                r.seed,
                r.trace,
                r.correct(),
                r.attempted,
                r.failed,
                metrics_json(r, true)
            )
        })
        .collect();
    format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"))
}

fn run_one(spec: Spec, a: &Args) -> Result<Report, String> {
    let shape = Shape {
        seconds: a.seconds,
        warmup: if a.quick { 0.3 } else { WARMUP_SECONDS },
        trace: a.trace,
        quick: a.quick,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {}: closed loop, {CLIENTS} clients / {CLIENTS} connections (fixed), nproc={nproc}, window={}s, seed={}, trace={}",
        spec.name, a.seconds, a.seed, a.trace
    );
    let report = run::run(spec, a.seed, shape).map_err(|e| format!("{}: {e}", spec.name))?;
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        return Err(format!("{}: a metric is not finite", spec.name));
    }
    print_report(&report);
    Ok(report)
}

fn write_json(path: &Option<String>, text: String) -> Result<(), String> {
    match path {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("{p}: {e}")),
        None => Ok(()),
    }
}

fn real_main() -> Result<ExitCode, String> {
    let a = parse_args()?;
    if let Some(name) = &a.workload {
        // The driver's form: one run, result object on the last line.
        let spec = workload::find(name).ok_or(format!("unknown workload {name}"))?;
        let report = run_one(spec, &a)?;
        println!("{}", result_line(&report));
        return Ok(ExitCode::SUCCESS);
    }
    match a.positional.first().map(String::as_str) {
        Some("list") => {
            for w in WORKLOADS {
                println!("{:<14} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let which = a
                .positional
                .get(1)
                .ok_or("run needs a workload name or `all`")?;
            let specs: Vec<Spec> = match which.as_str() {
                "all" => WORKLOADS.to_vec(),
                name => vec![workload::find(name).ok_or(format!("unknown workload {name}"))?],
            };
            let mut reports = Vec::new();
            for spec in specs {
                reports.push(run_one(spec, &a)?);
            }
            write_json(&a.json, runs_json(&reports))?;
            // Non-zero on any content mismatch, lost acknowledged write or
            // dirty quiesce.
            Ok(match reports.iter().all(Report::correct) {
                true => ExitCode::SUCCESS,
                false => ExitCode::FAILURE,
            })
        }
        Some("probes") => {
            let report = Report {
                workload: "probes",
                seed: 0,
                trace: true,
                metrics: probes::run(a.quick).map_err(|e| e.to_string())?,
                attempted: 1,
                failed: 0,
                refused: 0,
                notes: Vec::new(),
                commit_errors: 0,
            };
            print_report(&report);
            write_json(&a.json, runs_json(&[report]))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let (Some(base), Some(new)) = (a.positional.get(1), a.positional.get(2)) else {
                return Err("compare needs two (comma-separated lists of) result files".into());
            };
            let spec = std::fs::read_to_string(&a.spec).map_err(|e| format!("{}: {e}", a.spec))?;
            let bounds = compare::bounds(&json::parse(&spec)?)?;
            let base = compare::load(&base.split(',').collect::<Vec<_>>())?;
            let new = compare::load(&new.split(',').collect::<Vec<_>>())?;
            let (worse, unresolved) = compare::report(&base, &new, &bounds);
            println!("# {worse} worse, {unresolved} unresolved");
            Ok(if worse > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lobster-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
