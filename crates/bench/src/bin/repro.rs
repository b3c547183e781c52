//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # everything below, in order
//! repro table1              # Table 1: sizes + latency per bug
//! repro fig9                # accuracy per bug
//! repro fig10               # technique contributions
//! repro fig11               # overhead vs tracked slice size
//! repro fig12               # initial σ tradeoff
//! repro fig13               # rr vs Intel PT full tracing
//! repro overhead            # §5.3 per-bug overhead breakdown
//! repro swtrace             # §6 software-only tracing factors
//! repro ablations           # design-decision ablations (DESIGN.md)
//! repro knobs               # each EvalConfig toggle off alone, at fpi 1
//!                           #   and 6, on the bugbase + 1000 synthetic bugs
//! repro races               # static race candidates per bug
//! repro sketch <bug-name>   # render a failure sketch (e.g. pbzip2-1)
//!   ... sketch <bug> --explain   # + provenance chains from the journal
//! repro bugs                # list bug names
//! repro bench [--out PATH]  # full-bugbase deterministic report
//!                           #   -> BENCH_gist.json (or PATH)
//!                           #   + flight recorder -> JOURNAL_gist.bin
//!                           #   (or PATH.journal.bin)
//! repro bench --synthetic N --seed S [--out PATH]
//!                           # N seeded synthetic bugs through the full
//!                           # AsT loop -> SYNTH_bench.json (or PATH) +
//!                           # accuracy table on stdout; exits 1 below
//!                           # the recorded recovery floor
//! ```
//!
//! `table1`, `fig9`, `all`, and `bench` exit non-zero when any bug's sketch
//! accuracy falls below the floors recorded in
//! `gist_bench::expectations::EXPECTATIONS`; `bench` also exits non-zero
//! when the journal ring overwrote events. A failed write to stdout (a
//! pipe whose reader exited, say) exits 2 with one line on stderr.

use gist_bench::bench_report;
use gist_bench::expectations;
use gist_bench::experiments;
use gist_bench::format;
use gist_bench::outln;
use gist_coop::BugEvaluation;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "table1" => table1(),
        "fig9" => fig9(),
        "bench" if args.iter().any(|a| a == "--synthetic") => synth_bench(&args[1..]),
        "bench" => bench(&args[1..]),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "overhead" => overhead(),
        "ablations" => outln!("{}", gist_bench::ablations::ablations_text()),
        "knobs" => knobs(),
        "races" => outln!("{}", gist_bench::races::races_text()),
        "swtrace" => swtrace(),
        "bugs" => bugs(),
        "sketch" => {
            let name = args.get(1).map(String::as_str).unwrap_or("pbzip2-1");
            let explain = args.iter().any(|a| a == "--explain");
            let rendered = if explain {
                experiments::sketch_for_explained(name)
            } else {
                experiments::sketch_for(name)
            };
            match rendered {
                Some(s) => outln!("{s}"),
                None => {
                    eprintln!("unknown bug '{name}'; try `repro bugs`");
                    std::process::exit(1);
                }
            }
        }
        "all" => {
            let evals = experiments::table1();
            outln!("{}", format::table1_text(&evals));
            outln!("{}", format::fig9_text(&evals));
            fig10();
            fig11();
            fig12();
            fig13();
            overhead();
            swtrace();
            for name in ["pbzip2-1", "curl-965", "apache-21287"] {
                outln!("\n=== sketch {name} ===\n");
                if let Some(s) = experiments::sketch_for(name) {
                    outln!("{s}");
                }
            }
            gate_accuracy(&evals);
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!("commands: all table1 fig9 fig10 fig11 fig12 fig13 overhead swtrace ablations knobs races sketch bugs bench");
            std::process::exit(2);
        }
    }
}

/// Exits non-zero, naming each failing bug, when accuracy falls below the
/// recorded per-bug floors (previously `repro` exited 0 on regressions).
fn gate_accuracy(evals: &[BugEvaluation]) {
    let violations = expectations::check(evals);
    if !violations.is_empty() {
        eprintln!("accuracy regression against recorded expectations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

fn table1() {
    let evals = experiments::table1();
    outln!("{}", format::table1_text(&evals));
    gate_accuracy(&evals);
}

fn fig9() {
    let evals = experiments::table1();
    outln!("{}", format::fig9_text(&evals));
    gate_accuracy(&evals);
}

/// `bench [--out PATH]`: the full-bugbase report, written to
/// `BENCH_gist.json` unless `--out` names a path; exits 2 on any other
/// argument.
fn bench(args: &[String]) {
    let path = match args {
        [] => "BENCH_gist.json",
        [flag, path] if flag == "--out" => path.as_str(),
        _ => {
            eprintln!("usage: repro bench [--out PATH]");
            std::process::exit(2);
        }
    };
    let (report, evals) = bench_report::run(None);
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    // The flight-recorder journal rides along next to the report, named
    // after it (`BENCH_gist.json` -> `JOURNAL_gist.bin`); explore it with
    // `gist-trace summary|grep|explain|query|export`.
    let binary_path = if path == "BENCH_gist.json" {
        "JOURNAL_gist.bin".to_owned()
    } else {
        format!("{path}.journal.bin")
    };
    if let Err(e) = std::fs::write(&binary_path, &report.journal_binary) {
        eprintln!("cannot write {binary_path}: {e}");
        std::process::exit(1);
    }
    outln!(
        "wrote {path} ({} bugs) + {binary_path} ({} bytes)",
        evals.len(),
        report.journal_binary.len()
    );
    let overwritten = report.journal_stats.events_overwritten;
    if overwritten != 0 {
        eprintln!("flight-recorder ring overwrote {overwritten} events: the journal has a gap");
        std::process::exit(1);
    }
    gate_accuracy(&evals);
}

/// `bench --synthetic N [--seed S] [--out PATH]`: the synthetic-bugbase
/// accuracy run, written to `SYNTH_bench.json` unless `--out` names a
/// path (never to the committed `BENCH_gist.json`). Deterministic for
/// fixed `(N, S)`; exits 1 when recovery falls below the recorded floor.
fn synth_bench(args: &[String]) {
    let flag_value = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let parse_u64 = |flag: &str, default: u64| -> u64 {
        match flag_value(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants an unsigned integer, got '{v}'");
                std::process::exit(2);
            }),
        }
    };
    let n = parse_u64("--synthetic", 200);
    let seed = parse_u64("--seed", 1);
    let path = flag_value("--out")
        .map(String::as_str)
        .unwrap_or("SYNTH_bench.json");
    let report = gist_bench::synth_report::run_synth(n, seed);
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    outln!("{}", report.table_text());
    outln!("wrote {path} ({n} synthetic bugs)");
    let violations = expectations::check_synth(&report);
    if !violations.is_empty() {
        eprintln!("synthetic bugbase regression against recorded expectations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

fn fig10() {
    outln!("{}", format::fig10_text(&experiments::fig10()));
}

fn fig11() {
    outln!("{}", format::fig11_text(&experiments::fig11(25)));
}

fn fig12() {
    outln!("{}", format::fig12_text(&experiments::fig12()));
}

fn fig13() {
    outln!("{}", format::fig13_text(&experiments::fig13(15)));
}

fn overhead() {
    outln!(
        "{}",
        format::overhead_text(&experiments::overhead_sigma2(30))
    );
}

fn swtrace() {
    outln!("{}", format::swtrace_text(&experiments::swtrace_rows(10)));
}

fn knobs() {
    use gist_bench::ablations::{knob_rows, knobs_text, KNOB_SYNTH_BUGS};
    outln!("{}", knobs_text(&knob_rows(KNOB_SYNTH_BUGS)));
}

fn bugs() {
    for bug in gist_bugbase::all_bugs() {
        outln!(
            "{:<18} {} {} (bug {}) — {:?}",
            bug.name,
            bug.software,
            bug.version,
            bug.bug_id,
            bug.class
        );
    }
}
