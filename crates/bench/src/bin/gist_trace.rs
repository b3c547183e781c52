//! `gist-trace` — explorer for flight-recorder journals.
//!
//! ```text
//! gist-trace summary [journal]              # totals, kinds, traces, gap warning
//! gist-trace grep <event-kind> [journal]    # events of a kind (or layer)
//! gist-trace explain <bug> <step> [journal] # a sketch step's provenance
//! gist-trace query promotions [--in <bug>] [journal]
//! gist-trace query promoted <iid> [--in <bug>] [journal]
//! gist-trace query hits <iid> [--in <bug>] [journal]
//! gist-trace query decode <bug> <step> [journal]
//! gist-trace query chain <seq> [journal]
//! gist-trace follow <bug>                   # live-tail a fresh diagnosis
//! gist-trace export --chrome|--jsonl [journal] [-o out]
//! ```
//!
//! `journal` is a binary journal and defaults to `JOURNAL_gist.bin` (the
//! one `repro -- bench` writes next to `BENCH_gist.json`). JSONL is an
//! export format only: `gist-trace` does not read it back.
//! `explain`, `query decode`, and `--in` accept either a trace label or a
//! bug short name — names like `pbzip2-1` work because the bench titles
//! traces `Failure Sketch for <display>`.
//!
//! `query` answers Lumos-style provenance questions: `promotions` /
//! `promoted` resolve each `ast.promoted` to the watch hit (or slice)
//! that caused it, `decode` walks a sketch step's chain to the PT decode
//! that fed it, `hits` lists watchpoint hits at a statement, and `chain`
//! expands any event's transitive provenance. `follow` runs the named
//! bug's diagnosis on a background thread and streams journal events as
//! the AsT loop produces them (cursored incremental drains: every event
//! exactly once).
//!
//! Exit status: 0 ok, 1 lookup failure (unknown trace/step/kind produced
//! nothing, or a follow missed events), 2 usage or parse error or a failed
//! write to stdout.

use gist_bench::trace_tool::{chrome_json, Journal, LiveTail};
use gist_bench::{out, outln};

fn usage() -> ! {
    eprintln!(
        "usage:\n  gist-trace summary [journal]\n  gist-trace grep <event-kind> [journal]\n  gist-trace explain <bug> <step> [journal]\n  gist-trace query promotions [--in <bug>] [journal]\n  gist-trace query promoted <iid> [--in <bug>] [journal]\n  gist-trace query hits <iid> [--in <bug>] [journal]\n  gist-trace query decode <bug> <step> [journal]\n  gist-trace query chain <seq> [journal]\n  gist-trace follow <bug>\n  gist-trace export --chrome|--jsonl [journal] [-o out]"
    );
    std::process::exit(2);
}

/// The binary journal `repro -- bench` writes.
const DEFAULT_JOURNAL: &str = "JOURNAL_gist.bin";

fn load(path: &str) -> Journal {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read journal {path}: {e} (run `repro -- bench` first?)");
            std::process::exit(2);
        }
    };
    match Journal::load_bytes(&bytes) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Maps a bug short name to the trace label the bench uses; a label (or
/// substring) passes through untouched.
fn explain_label(journal: &Journal, arg: &str) -> String {
    if journal.trace_by_label(arg).is_some() {
        return arg.to_owned();
    }
    match gist_bugbase::bug_by_name(arg) {
        Some(bug) => format!("Failure Sketch for {}", bug.display),
        None => arg.to_owned(),
    }
}

fn print_or_fail(result: Result<Vec<String>, String>) {
    match result {
        Ok(lines) => {
            for l in lines {
                outln!("{l}");
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// `gist-trace query …`: provenance questions over a loaded journal.
fn query(args: &[String]) {
    let Some(sub) = args.first().map(String::as_str) else {
        usage()
    };
    // `--in <bug>` scopes to one diagnosis trace; remaining positionals
    // are the query's own arguments plus an optional journal path.
    let mut scope: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--in" {
            i += 1;
            scope = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
        } else {
            positional.push(&args[i]);
        }
        i += 1;
    }
    let (want, journal_at) = match sub {
        "promotions" => (0, 0),
        "promoted" | "hits" | "chain" => (1, 1),
        "decode" => (2, 2),
        _ => usage(),
    };
    if positional.len() < want || positional.len() > want + 1 {
        usage()
    }
    let path = positional
        .get(journal_at)
        .copied()
        .unwrap_or(DEFAULT_JOURNAL);
    let journal = load(path);
    let trace = scope.map(|s| {
        let label = explain_label(&journal, &s);
        journal.trace_by_label(&label).unwrap_or_else(|| {
            eprintln!("no trace labeled like `{s}` in {path}");
            std::process::exit(1);
        })
    });
    let parse_u64 = |s: &str| {
        s.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("`{s}` is not a number");
            std::process::exit(2);
        })
    };
    match sub {
        "promotions" => {
            let lines = journal.query_promotions(trace);
            if lines.is_empty() {
                eprintln!("no ast.promoted events in {path}");
                std::process::exit(1);
            }
            print_or_fail(Ok(lines));
        }
        "promoted" => print_or_fail(journal.query_promoted(parse_u64(positional[0]), trace)),
        "hits" => {
            let lines = journal.query_hits(parse_u64(positional[0]), trace);
            if lines.is_empty() {
                eprintln!("no watch.hit events for iid={} in {path}", positional[0]);
                std::process::exit(1);
            }
            print_or_fail(Ok(lines));
        }
        "decode" => {
            let label = explain_label(&journal, positional[0]);
            print_or_fail(journal.query_decode(&label, parse_u64(positional[1])));
        }
        "chain" => print_or_fail(journal.query_chain(parse_u64(positional[0]))),
        _ => unreachable!("filtered above"),
    }
}

/// `gist-trace follow <bug>`: runs the bug's diagnosis on a background
/// thread and live-tails the in-process journal ring, printing events as
/// the AsT loop flushes them (per fleet batch and per iteration).
fn follow(bug_name: &str) -> ! {
    let Some(bug) = gist_bugbase::bug_by_name(bug_name) else {
        eprintln!("unknown bug `{bug_name}` (see `repro -- bugs`)");
        std::process::exit(2);
    };
    gist_obs::reset();
    let handle = std::thread::spawn(move || {
        gist_coop::diagnose_bug(&bug, &gist_coop::EvalConfig::default())
    });
    let mut tail = LiveTail::new();
    let print_new = |tail: &mut LiveTail| {
        for e in tail.poll() {
            outln!("{}", Journal::event_line(&e));
        }
    };
    loop {
        // Order matters: sample liveness *before* polling, so events
        // flushed between the poll and the thread finishing are caught by
        // the next loop turn (or the final poll below).
        let finished = handle.is_finished();
        print_new(&mut tail);
        if finished {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = handle.join();
    // The diagnosis thread's exit-time flush can land after is_finished
    // flips; joining above ordered it before this final poll.
    print_new(&mut tail);
    eprintln!(
        "followed {} events in {} chunks ({} missed)",
        tail.events.len(),
        tail.nonempty_polls,
        tail.overwritten
    );
    std::process::exit(if tail.overwritten > 0 { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or_else(|| usage());
    match cmd {
        "summary" => {
            let path = args.get(1).map_or(DEFAULT_JOURNAL, String::as_str);
            out!("{}", load(path).summary_text());
        }
        "grep" => {
            let Some(kind) = args.get(1) else { usage() };
            let path = args.get(2).map_or(DEFAULT_JOURNAL, String::as_str);
            let out = load(path).grep_text(kind);
            if out.is_empty() {
                eprintln!("no `{kind}` events in {path}");
                std::process::exit(1);
            }
            out!("{out}");
        }
        "explain" => {
            let (Some(bug), Some(step)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let Ok(step) = step.parse::<u64>() else {
                usage()
            };
            let path = args.get(3).map_or(DEFAULT_JOURNAL, String::as_str);
            let journal = load(path);
            let label = explain_label(&journal, bug);
            print_or_fail(journal.explain_step(&label, step));
        }
        "query" => query(&args[1..]),
        "follow" | "--follow" => {
            let Some(bug) = args.get(1) else { usage() };
            follow(bug);
        }
        "export" => {
            let rest: Vec<&str> = args[1..].iter().map(String::as_str).collect();
            let mut format: Option<&str> = None;
            let mut out_path: Option<&str> = None;
            let mut journal_path: Option<&str> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--chrome" | "--jsonl" => format = Some(rest[i]),
                    "-o" | "--out" => {
                        i += 1;
                        out_path = rest.get(i).copied().or_else(|| usage());
                    }
                    p => journal_path = Some(p),
                }
                i += 1;
            }
            let Some(format) = format else { usage() };
            let journal = load(journal_path.unwrap_or(DEFAULT_JOURNAL));
            let text = if format == "--chrome" {
                chrome_json(&journal)
            } else {
                gist_obs::journal::to_jsonl(&journal.events)
            };
            match out_path {
                Some(p) => {
                    if let Err(e) = std::fs::write(p, &text) {
                        eprintln!("cannot write {p}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("wrote {p} ({} bytes)", text.len());
                }
                None => out!("{text}"),
            }
        }
        _ => usage(),
    }
}
