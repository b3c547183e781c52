//! The static race detector over the bugbase (`repro races`): per-bug
//! candidate tables of what `gist-analysis` finds *before any run* —
//! ranked racing pairs with access kinds and locksets. Sequential bugs
//! legitimately print an empty table. The race-ranking toggle's effect on
//! diagnosis is one arm of `repro knobs`.

use gist_analysis::{analyze, has_errors, verify, RaceAnalysis};
use gist_bugbase::all_bugs;

/// The race-detector verdict for one bug.
#[derive(Clone, Debug)]
pub struct BugRaces {
    /// Bug name.
    pub bug: String,
    /// Whether the IR verifier accepts the program (it must).
    pub verified: bool,
    /// The ranked candidates.
    pub analysis: RaceAnalysis,
    /// The rendered candidate table.
    pub table: String,
}

/// Runs the verifier and race detector over every bugbase program.
pub fn bug_races() -> Vec<BugRaces> {
    all_bugs()
        .iter()
        .map(|bug| {
            let analysis = analyze(&bug.program);
            BugRaces {
                bug: bug.name.to_owned(),
                verified: !has_errors(&verify(&bug.program)),
                table: analysis.render_table(&bug.program),
                analysis,
            }
        })
        .collect()
}

/// Renders the per-bug candidate tables.
pub fn races_text() -> String {
    let mut out = String::new();
    out.push_str("Static race candidates per bug (gist-analysis, no runs)\n");
    for r in bug_races() {
        out.push_str(&format!(
            "\n{} — verifier: {}\n",
            r.bug,
            if r.verified { "ok" } else { "REJECTED" }
        ));
        out.push_str(&r.table);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bug_gets_a_verified_table() {
        let rows = bug_races();
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(r.verified, "{}: verifier rejected", r.bug);
            assert!(!r.table.is_empty(), "{}: no table", r.bug);
        }
        // The concurrency bugs produce candidates; sequential ones none.
        let with = rows.iter().filter(|r| !r.analysis.is_empty()).count();
        assert!(with >= 6, "only {with} bugs had candidates");
    }
}
