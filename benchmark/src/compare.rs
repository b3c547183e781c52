//! `gist-benchmark compare A.json… -- B.json…`: judges commit B against
//! commit A from result files of repeated full runs.
//!
//! For every end-to-end metric and workload it prints both sides'
//! medians and quartiles, the share of pairs B won (the i-th file of each
//! side form a pair; ties count for neither), and a verdict:
//!
//! * **improved** — over at least ten pairs, B wins at least nine tenths
//!   of them and the medians differ by more than A's own quartile spread;
//! * **unresolved** — A's quartile spread is wider than the metric's
//!   bound, and not every run of B beats every run of A;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **no worse** — otherwise.

use gist_obs::json::Json;

use crate::json::{get, number};
use crate::metrics::{quartiles, Better, END_TO_END};
use crate::Workload;

/// The judgement on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, beyond A's noise.
    Improved,
    /// B is no worse than A by more than the bound.
    NoWorse,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A's own spread exceeds the bound, so nothing can be concluded.
    Unresolved,
}

impl Verdict {
    /// The printed label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs of runs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    }
}

/// Pairs of `(a[i], b[i])` that B won, and the number of pairs.
pub fn wins(better: Better, a: &[f64], b: &[f64]) -> (usize, usize) {
    let pairs = a.len().min(b.len());
    let won = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| beats(better, y, x))
        .count();
    (won, pairs)
}

/// Judges B's runs against A's for a metric with direction `better` and
/// regression bound `bound` (a share of A's median).
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (_, b_med, _) = quartiles(b);
    let spread = a_q3 - a_q1;
    let (won, pairs) = wins(better, a, b);
    if pairs >= MIN_PAIRS
        && won * 10 >= pairs * 9
        && beats(better, b_med, a_med)
        && (b_med - a_med).abs() > spread
    {
        return Verdict::Improved;
    }
    let scale = a_med.abs().max(f64::MIN_POSITIVE);
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| beats(better, y, x)));
    if spread > bound * scale && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Higher => a_med - b_med,
        Better::Lower => b_med - a_med,
    };
    if worse > bound * scale {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The end-to-end value of `metric` on `workload` in each result file
/// that has it.
fn values(files: &[Json], workload: Workload, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            let w = get(f, "workloads").and_then(|ws| get(ws, workload.name()))?;
            get(w, "end_to_end")
                .and_then(|m| get(m, metric))
                .and_then(|m| get(m, "value"))
                .and_then(number)
        })
        .collect()
}

/// Compares result files of commit A (`a`) with those of commit B (`b`)
/// and returns the printed table, plus whether any metric regressed.
pub fn compare(a: &[String], b: &[String]) -> Result<(String, bool), String> {
    let a: Vec<Json> = a.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let b: Vec<Json> = b.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let mut out = format!(
        "{:<8} {:<17} {:>32} {:>32} {:>7}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for m in END_TO_END {
            let (va, vb) = (values(&a, workload, m.name), values(&b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = verdict(m.better, bound, &va, &vb);
            regressed |= v == Verdict::Regressed;
            let side = |vals: &[f64]| {
                let (q1, med, q3) = quartiles(vals);
                format!("{med:.4} [{q1:.4}, {q3:.4}]")
            };
            let (won, pairs) = wins(m.better, &va, &vb);
            out.push_str(&format!(
                "{:<8} {:<17} {:>32} {:>32} {:>7}  {} (bound {:.0}%, {})\n",
                workload.name(),
                m.name,
                side(&va),
                side(&vb),
                format!("{won}/{pairs}"),
                v.label(),
                bound * 100.0,
                m.unit,
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn clear_gain_is_improved() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(Better::Higher, 0.1, &A, &b), Verdict::Improved);
        assert_eq!(verdict(Better::Lower, 0.1, &A, &b), Verdict::Regressed);
    }

    #[test]
    fn too_few_pairs_claim_no_gain() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(Better::Higher, 0.1, &A[..9], &b[..9]),
            Verdict::NoWorse
        );
    }

    #[test]
    fn change_within_bound_is_no_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(Better::Higher, 0.1, &A, &b), Verdict::NoWorse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = [50.0, 150.0, 80.0, 120.0];
        assert_eq!(
            verdict(Better::Lower, 0.1, &a, &[100.0, 100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A, but by less than A's
        // spread: resolved, yet not an improvement.
        assert_eq!(
            verdict(Better::Lower, 0.1, &a, &[40.0, 45.0, 40.0, 45.0]),
            Verdict::NoWorse
        );
    }
}
