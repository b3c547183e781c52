//! Plain-text rendering of experiment results, in the layout of the
//! paper's tables and figures.

use std::io::Write;

use gist_bugbase::all_bugs;
use gist_coop::BugEvaluation;

use crate::experiments::{Fig10Row, Fig11Row, Fig12Row, Fig13Row, OverheadRow};

/// Writes `args` to stdout for the `out!` and `outln!` macros. A stdout
/// that cannot be written (a pipe whose reader exited, say) ends the
/// process with status 2 and one line on stderr, where `print!` would
/// panic.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

/// Renders Table 1 with paper-reported values side by side.
pub fn table1_text(evals: &[BugEvaluation]) -> String {
    let bugs = all_bugs();
    let mut out = String::new();
    out.push_str(
        "Table 1 — per-bug slice/sketch sizes and diagnosis latency\n\
         (ours = this reproduction's miniature programs; paper = reported in SOSP'15)\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:>14} {:>14} {:>14} {:>12} {:>12}\n",
        "bug", "slice src(ir)", "ideal src(ir)", "gist src(ir)", "recurrences", "runs"
    ));
    for e in evals {
        let paper = bugs.iter().find(|b| b.name == e.bug).map(|b| b.paper);
        out.push_str(&format!(
            "{:<18} {:>14} {:>14} {:>14} {:>12} {:>12}\n",
            e.bug,
            format!("{}({})", e.slice_src, e.slice_instrs),
            format!("{}({})", e.ideal_src, e.ideal_instrs),
            format!("{}({})", e.sketch_src, e.sketch_instrs),
            e.recurrences,
            e.total_runs
        ));
        if let Some(p) = paper {
            out.push_str(&format!(
                "{:<18} {:>14} {:>14} {:>14} {:>12}\n",
                "  (paper)",
                format!("{}({})", p.slice_src, p.slice_instrs),
                format!("{}({})", p.ideal_src, p.ideal_instrs),
                format!("{}({})", p.gist_src, p.gist_instrs),
                p.recurrences
            ));
        }
    }
    out
}

/// Renders Fig. 9 (accuracy per bug).
pub fn fig9_text(evals: &[BugEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 9 — sketch accuracy per bug (paper averages: AR 92, AO 100, A 96)\n\n");
    out.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>10} {:>12}\n",
        "bug", "relevance", "ordering", "overall", "root cause"
    ));
    let (mut ar, mut ao, mut a) = (0.0, 0.0, 0.0);
    for e in evals {
        out.push_str(&format!(
            "{:<18} {:>9.1}% {:>9.1}% {:>9.1}% {:>12}\n",
            e.bug,
            e.relevance,
            e.ordering,
            e.overall,
            if e.found_root_cause {
                "found"
            } else {
                "MISSING"
            }
        ));
        ar += e.relevance;
        ao += e.ordering;
        a += e.overall;
    }
    let n = evals.len().max(1) as f64;
    out.push_str(&format!(
        "{:<18} {:>9.1}% {:>9.1}% {:>9.1}%\n",
        "average",
        ar / n,
        ao / n,
        a / n
    ));
    out
}

/// Renders Fig. 10 (technique contributions).
pub fn fig10_text(rows: &[Fig10Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 10 — contribution of each technique to overall accuracy\n\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>16} {:>10}\n",
        "bug", "static only", "+control flow", "+data flow"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>11.1}% {:>15.1}% {:>9.1}%\n",
            r.bug, r.static_only, r.with_control_flow, r.full
        ));
    }
    out
}

/// Renders Fig. 11 (overhead vs tracked slice size).
pub fn fig11_text(rows: &[Fig11Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 11 — average client overhead vs tracked slice size\n\n");
    let max = rows
        .iter()
        .map(|r| r.overhead_pct)
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    for r in rows {
        let bar = "#".repeat(((r.overhead_pct / max) * 40.0).round() as usize);
        out.push_str(&format!(
            "  slice {:>2}: {:>6.2}%  {}\n",
            r.slice_size, r.overhead_pct, bar
        ));
    }
    out
}

/// Renders Fig. 12 (σ₀ tradeoff).
pub fn fig12_text(rows: &[Fig12Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 12 — initial slice size σ₀ vs accuracy and latency\n\n");
    out.push_str(&format!(
        "{:>6} {:>14} {:>18}\n",
        "σ₀", "avg accuracy", "avg recurrences"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>13.1}% {:>18.1}\n",
            r.sigma0, r.avg_accuracy, r.avg_recurrences
        ));
    }
    out
}

/// Renders Fig. 13 (rr vs PT full tracing).
pub fn fig13_text(rows: &[Fig13Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 13 — full-tracing overhead: record/replay vs Intel PT\n\
         (paper averages: rr 984%, PT 11%)\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>14}\n",
        "program", "rr %", "PT %", "rr B/run", "PT B/run", "bits/retired"
    ));
    let (mut rr_sum, mut pt_sum) = (0.0, 0.0);
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>9.0}% {:>9.1}% {:>12.0} {:>12.0} {:>14.2}\n",
            r.program, r.rr_pct, r.pt_pct, r.rr_bytes, r.pt_bytes, r.bits_per_retired
        ));
        rr_sum += r.rr_pct;
        pt_sum += r.pt_pct;
    }
    let n = rows.len().max(1) as f64;
    out.push_str(&format!(
        "{:<18} {:>9.0}% {:>9.1}%\n",
        "average",
        rr_sum / n,
        pt_sum / n
    ));
    out
}

/// Renders the §5.3 overhead breakdown.
pub fn overhead_text(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "§5.3 — client overhead at σ = 2 (paper: 3.74% avg; control flow\n\
         2.01–3.43%, data flow 0.87–1.04%)\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:>8} {:>14} {:>12}\n",
        "bug", "total", "control flow", "data flow"
    ));
    let mut sum = 0.0;
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>7.2}% {:>13.2}% {:>11.2}%\n",
            r.bug, r.total_pct, r.control_flow_pct, r.data_flow_pct
        ));
        sum += r.total_pct;
    }
    out.push_str(&format!(
        "{:<18} {:>7.2}%\n",
        "average",
        sum / rows.len().max(1) as f64
    ));
    out
}

/// Renders the §6 software-tracing overheads.
pub fn swtrace_text(rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("§6 — software-only control-flow tracking (paper: 3×–5,000×)\n\n");
    for (name, pct) in rows {
        out.push_str(&format!(
            "{:<18} {:>8.0}%  ({:.1}×)\n",
            name,
            pct,
            pct / 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_bar_chart_renders() {
        let rows = vec![
            Fig11Row {
                slice_size: 2,
                overhead_pct: 1.0,
            },
            Fig11Row {
                slice_size: 4,
                overhead_pct: 2.0,
            },
        ];
        let t = fig11_text(&rows);
        assert!(t.contains("slice  2"));
        assert!(t.contains("####"));
    }

    #[test]
    fn fig12_table_renders() {
        let rows = vec![Fig12Row {
            sigma0: 2,
            avg_accuracy: 90.0,
            avg_recurrences: 3.5,
        }];
        let t = fig12_text(&rows);
        assert!(t.contains("90.0%"));
        assert!(t.contains("3.5"));
    }

    #[test]
    fn swtrace_shows_factor() {
        let t = swtrace_text(&[("x".into(), 500.0)]);
        assert!(t.contains("5.0×"));
    }
}
