//! Ground-truth conformance helpers for generated programs.
//!
//! The synthetic bugbase (`gist-bugbase::synth`) injects exactly one
//! root-cause pattern per program and records which `GA0xx` code and
//! which source lines the static analyses must recover. This module
//! holds the *analysis-side* half of that contract, generic over any
//! [`Program`] (this crate only dev-depends on the bugbase, so nothing
//! here names generator types): run the full lint battery, bucket the
//! findings by code, and check that a finding actually points at the
//! injected lines rather than merely carrying the right label.

use std::collections::BTreeMap;

use gist_ir::Program;

use crate::deadlock::DeadlockLintPass;
use crate::diag::Diagnostic;
use crate::lint::lint_passes;

/// Runs the full lint battery (value-flow lints plus the deadlock pass)
/// and returns the diagnostics.
pub fn lint_all(program: &Program) -> Vec<Diagnostic> {
    lint_passes().with_pass(DeadlockLintPass).run(program)
}

/// The distinct diagnostic codes reported for `program`, with counts.
pub fn code_histogram(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut h = BTreeMap::new();
    for d in diags {
        *h.entry(d.code).or_insert(0) += 1;
    }
    h
}

/// True if `text` mentions `file:line` with a digit boundary after the
/// line number (so `synth.c:11` does not match inside `synth.c:115`).
fn mentions_site(text: &str, site: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(site) {
        let end = from + pos + site.len();
        let boundary = text[end..]
            .chars()
            .next()
            .map(|c| !c.is_ascii_digit())
            .unwrap_or(true);
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// True if the diagnostic's location, message, or notes reference at
/// least one of `lines` of `file` (rendered as `file:line` through the
/// program's source map, the same way the CLI prints findings).
pub fn diag_references_line(
    program: &Program,
    diag: &Diagnostic,
    file: &str,
    lines: &[u32],
) -> bool {
    let rendered = program.source_map.display(diag.loc);
    lines.iter().any(|&l| {
        let site = format!("{file}:{l}");
        rendered == site
            || mentions_site(&diag.message, &site)
            || diag.notes.iter().any(|n| mentions_site(n, &site))
    })
}

/// The diagnostics of `diags` carrying `code` that reference at least one
/// of `lines` (see [`diag_references_line`]).
pub fn findings_on_lines<'d>(
    program: &Program,
    diags: &'d [Diagnostic],
    code: &str,
    file: &str,
    lines: &[u32],
) -> Vec<&'d Diagnostic> {
    diags
        .iter()
        .filter(|d| d.code == code && diag_references_line(program, d, file, lines))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_mentions_respect_digit_boundaries() {
        assert!(mentions_site("read at synth.c:11", "synth.c:11"));
        assert!(mentions_site("read at synth.c:11, then", "synth.c:11"));
        assert!(!mentions_site("read at synth.c:115", "synth.c:11"));
        assert!(mentions_site("synth.c:115 and synth.c:11", "synth.c:11"));
    }
}
