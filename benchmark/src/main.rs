//! `gist-benchmark`: the repository benchmark's command line.
//!
//! ```text
//! gist-benchmark --workload W --seed S [--seconds N] [--trace 0|1] [--out FILE]
//! gist-benchmark --seed S [--seconds N] [--out FILE]
//! gist-benchmark compare A.json... -- B.json...
//! ```
//!
//! With `--workload`, runs that one workload in this process and prints
//! one `metric workload value unit` line per metric, a digest line, and
//! last a one-line JSON result (`correct`, `attempted`, `failed`,
//! `metrics`: end-to-end metrics, or per-layer metrics with `--trace 1`).
//! Without it, runs every workload traced, each in its own child process,
//! one at a time, and writes all results to `--out`. Exits 1 when a
//! check fails, 2 on a usage error.

use std::process::{Command, ExitCode};

use gist_benchmark::{compare, json, run, Budget, Workload};
use gist_obs::json::Json;

/// Seconds a workload's timed loop runs unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: gist-benchmark --workload bugbase|synth|fleet|analyze --seed S \
[--seconds N] [--trace 0|1] [--out FILE]\n       gist-benchmark --seed S [--seconds N] [--out FILE]\n       \
gist-benchmark compare A.json... -- B.json...";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn write(path: &str, value: &Json) -> Result<(), String> {
    std::fs::write(path, json::render(value) + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload here and prints its lines and result.
fn run_one(workload: Workload, opts: &Options) -> Result<bool, String> {
    let outcome = run(
        workload,
        opts.seed,
        Budget::Seconds(opts.seconds),
        opts.trace,
    );
    for line in outcome.lines() {
        println!("{line}");
    }
    println!("{}", outcome.digest_line());
    for v in &outcome.violations {
        eprintln!("check failed: {}: {v}", workload.name());
    }
    if let Some(path) = &opts.out {
        write(path, &outcome.detail())?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Runs every workload traced, each in a child process of this binary,
/// and collects their records into `--out`.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let part = opts.out.as_ref().map(|o| format!("{o}.part"));
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "1"]);
        if let Some(part) = &part {
            cmd.args(["--out", part]);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: cannot start: {e}", workload.name()))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| Json::parse(l).ok());
        for line in lines {
            println!("{line}");
        }
        let correct = result
            .as_ref()
            .and_then(|r| json::get(r, "correct"))
            .is_some_and(|c| *c == Json::Bool(true));
        if !correct || !output.status.success() {
            eprintln!("{}: failed ({})", workload.name(), output.status);
            all_correct = false;
        }
        if let Some(part) = &part {
            let text = std::fs::read_to_string(part).map_err(|e| format!("{part}: {e}"))?;
            std::fs::remove_file(part).map_err(|e| format!("{part}: {e}"))?;
            let record = Json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
            records.push((workload.name().to_owned(), record));
        }
    }
    if let Some(out) = &opts.out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        write(
            out,
            &Json::Obj(vec![
                ("schema".into(), Json::Str("gist-benchmark/v1".into())),
                ("seed".into(), Json::U64(opts.seed)),
                ("seconds".into(), Json::F64(opts.seconds)),
                ("nproc".into(), Json::U64(nproc as u64)),
                (
                    "calibration_reference_ms".into(),
                    Json::F64(gist_benchmark::calibration::REFERENCE_MS),
                ),
                ("workloads".into(), Json::Obj(records)),
            ]),
        )?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        let rest = &args[1..];
        match rest.iter().position(|a| a == "--") {
            Some(split) if split > 0 && split + 1 < rest.len() => {
                compare::compare(&rest[..split], &rest[split + 1..]).map(|(table, regressed)| {
                    print!("{table}");
                    !regressed
                })
            }
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        match parse(&args) {
            Ok(opts) => match opts.workload {
                Some(w) => run_one(w, &opts),
                None => run_all(&opts),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
