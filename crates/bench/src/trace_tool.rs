//! Journal exploration shared by the `gist-trace` binary and the
//! `--explain` render mode: load a binary journal, summarize it (warning
//! on overwrite gaps), grep by event kind, resolve sketch-step provenance
//! chains, answer provenance queries (`gist-trace query`), and tail a
//! live in-process diagnosis (`gist-trace follow`). Every query matches
//! on the typed [`EventKind`].

use std::collections::{BTreeMap, BTreeSet};

use gist_obs::json::Json;
use gist_obs::{EventKind, EventRecord, JournalStats};

/// A loaded flight-recorder journal.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Events in seq order.
    pub events: Vec<EventRecord>,
    /// Overwrite accounting from the binary journal's meta frame (zero
    /// for in-process journals with no overwrites).
    pub stats: JournalStats,
}

/// `kind k=v k=v`: an event's kind string and its payload members in
/// their canonical order.
pub fn kind_line(kind: &EventKind) -> String {
    let mut out = kind.kind_str().to_owned();
    if let Json::Obj(members) = kind.data_value() {
        for (k, v) in members {
            out.push(' ');
            out.push_str(&k);
            out.push('=');
            out.push_str(&v.render());
        }
    }
    out
}

impl Journal {
    /// Loads a binary journal from raw file bytes.
    pub fn load_bytes(bytes: &[u8]) -> Result<Journal, String> {
        let (events, stats) = gist_obs::journal::parse_binary(bytes)?;
        Ok(Journal { events, stats })
    }

    /// Wraps already-drained events (the in-process path used by
    /// `repro -- sketch <bug> --explain`).
    pub fn from_events(events: Vec<EventRecord>) -> Journal {
        Journal {
            events,
            stats: JournalStats::default(),
        }
    }

    /// The event with the given seq-no, if journaled.
    pub fn event_by_seq(&self, seq: u64) -> Option<&EventRecord> {
        // Events are sorted by seq (drain sorts; the binary journal
        // preserves the order).
        self.events
            .binary_search_by_key(&seq, |e| e.seq)
            .ok()
            .map(|i| &self.events[i])
    }

    /// One-line human rendering of an event: `#seq tN kind k=v k=v`.
    pub fn event_line(e: &EventRecord) -> String {
        format!("#{} t{} {}", e.seq, e.tid, kind_line(&e.kind))
    }

    /// Per-kind event counts, sorted by kind name.
    pub fn kind_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.kind.kind_str()).or_default() += 1;
        }
        counts
    }

    /// Diagnosis traces in the journal: `(trace_id, label)` from each
    /// `trace.start` event, in seq order.
    pub fn traces(&self) -> Vec<(u64, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TraceStarted { label } => Some((e.trace, label.as_str())),
                _ => None,
            })
            .collect()
    }

    /// The trace id whose `trace.start` label contains `needle` (exact
    /// match wins over substring).
    pub fn trace_by_label(&self, needle: &str) -> Option<u64> {
        let traces = self.traces();
        traces
            .iter()
            .find(|(_, l)| *l == needle)
            .or_else(|| traces.iter().find(|(_, l)| l.contains(needle)))
            .map(|&(id, _)| id)
    }

    /// The *final* sketch of a trace: the sketch is rebuilt (and its steps
    /// re-journaled) every AsT iteration, so per step number keep only the
    /// last `sketch.step` event. Returned in step order, each with its
    /// statement and provenance chain.
    pub fn final_steps(&self, trace: u64) -> Vec<Step<'_>> {
        let mut by_step: BTreeMap<u64, Step> = BTreeMap::new();
        let mut last_first_step = 0u64;
        for e in &self.events {
            let EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            } = &e.kind
            else {
                continue;
            };
            if e.trace != trace {
                continue;
            }
            // A new rebuild starts when the step counter resets; later
            // rebuilds may have *fewer* steps (pruning), so clear stale
            // higher-numbered steps from the previous build.
            if *step <= last_first_step {
                by_step.clear();
            }
            if by_step.is_empty() {
                last_first_step = *step;
            }
            by_step.insert(
                *step,
                Step {
                    event: e,
                    step: *step,
                    iid: *iid,
                    provenance,
                },
            );
        }
        by_step.into_values().collect()
    }

    /// The final `sketch.step` numbered `step` in the trace labeled
    /// `label`; an error when either is missing or the chain is empty.
    fn step(&self, label: &str, step: u64) -> Result<Step<'_>, String> {
        let trace = self
            .trace_by_label(label)
            .ok_or_else(|| format!("no trace labeled like `{label}` in journal"))?;
        let steps = self.final_steps(trace);
        let count = steps.len();
        let found = steps
            .into_iter()
            .find(|s| s.step == step)
            .ok_or_else(|| format!("trace {trace} has no sketch step {step} (has {count})"))?;
        if found.provenance.is_empty() {
            return Err(format!("sketch step {step} has an empty provenance chain"));
        }
        Ok(found)
    }

    /// Resolves one sketch step's provenance chain: the `explain` lines
    /// for step `step` of the trace labeled `label`.
    pub fn explain_step(&self, label: &str, step: u64) -> Result<Vec<String>, String> {
        let found = self.step(label, step)?;
        let mut out = vec![Self::event_line(found.event)];
        out.extend(
            found
                .provenance
                .iter()
                .map(|&seq| self.resolve_line(seq, 2)),
        );
        Ok(out)
    }

    /// A warning when the journal has gaps: the bounded ring overwrote
    /// events (meta-frame accounting), or the seq span is not contiguous
    /// (a journal trimmed by other means). `None` for complete journals.
    pub fn gap_warning(&self) -> Option<String> {
        let (min, max) = match (self.events.first(), self.events.last()) {
            (Some(f), Some(l)) => (f.seq, l.seq),
            _ => {
                return (self.stats.events_overwritten > 0).then(|| {
                    format!(
                        "WARNING: journal has gaps: {} events overwritten, none retained",
                        self.stats.events_overwritten
                    )
                })
            }
        };
        let missing = (max - min + 1).saturating_sub(self.events.len() as u64);
        if self.stats.events_overwritten == 0 && missing == 0 {
            return None;
        }
        Some(format!(
            "WARNING: journal has gaps: {} events overwritten, \
             {missing} seq-nos missing in span {min}..{max} \
             (oldest retained seq {min})",
            self.stats.events_overwritten
        ))
    }

    /// `gist-trace summary`: totals, per-kind counts, and the traces with
    /// their iteration/recurrence outcomes. Warns when the journal has
    /// overwrite gaps.
    pub fn summary_text(&self) -> String {
        let mut out = format!("{} events\n", self.events.len());
        if let Some(warning) = self.gap_warning() {
            out.push_str(&warning);
            out.push('\n');
        }
        out.push_str("\nevents by kind:\n");
        for (kind, n) in self.kind_counts() {
            out.push_str(&format!("  {kind:<18} {n}\n"));
        }
        out.push_str("\ntraces:\n");
        for (id, label) in self.traces() {
            let outcome = self
                .events
                .iter()
                .find_map(|e| match e.kind {
                    EventKind::TraceFinished {
                        iterations,
                        recurrences,
                    } if e.trace == id => {
                        Some(format!("iterations={iterations} recurrences={recurrences}"))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| "(unfinished)".to_owned());
            let steps = self.final_steps(id).len();
            out.push_str(&format!(
                "  trace {id}: {label:?} {outcome} sketch_steps={steps}\n"
            ));
        }
        out
    }

    /// `gist-trace grep <kind>`: event lines whose kind equals `kind` or
    /// starts with `kind.` (so `watch` matches `watch.hit`/`watch.armed`).
    pub fn grep_text(&self, kind: &str) -> String {
        let prefix = format!("{kind}.");
        let mut out = String::new();
        for e in &self.events {
            let k = e.kind.kind_str();
            if k == kind || k.starts_with(&prefix) {
                out.push_str(&Self::event_line(e));
                out.push('\n');
            }
        }
        out
    }

    /// The deterministic digest used for golden-journal snapshots: kind
    /// counts, trace structure, and every final sketch step's provenance
    /// chain *resolved to event kinds* (seq-nos are deterministic too, but
    /// kinds survive unrelated instrumentation churn, keeping the golden
    /// focused on provenance shape).
    pub fn digest(&self) -> String {
        let mut out = String::from("kinds:\n");
        for (kind, n) in self.kind_counts() {
            out.push_str(&format!("  {kind} {n}\n"));
        }
        for (id, label) in self.traces() {
            out.push_str(&format!("trace {id} {label:?}:\n"));
            for s in self.final_steps(id) {
                let chain: Vec<&str> = s
                    .provenance
                    .iter()
                    .map(|&seq| {
                        self.event_by_seq(seq)
                            .map_or("<missing>", |e| e.kind.kind_str())
                    })
                    .collect();
                out.push_str(&format!(
                    "  step {} iid={} via [{}]\n",
                    s.step,
                    s.iid,
                    chain.join(", ")
                ));
            }
        }
        out
    }

    /// The `  <- …` line resolving a referenced seq-no, tolerant of
    /// references into overwritten (gap) regions.
    fn resolve_line(&self, seq: u64, indent: usize) -> String {
        let pad = " ".repeat(indent);
        match self.event_by_seq(seq) {
            Some(e) => format!("{pad}<- {}", Self::event_line(e)),
            None => format!("{pad}<- #{seq} <unresolved>"),
        }
    }

    /// `ast.promoted` events (in the given trace, or journal-wide) whose
    /// statement passes `keep`, each followed by the evidence event that
    /// caused it.
    fn promotions(&self, trace: Option<u64>, keep: impl Fn(u32) -> bool) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.events {
            let EventKind::StmtPromoted { iid, via, .. } = e.kind else {
                continue;
            };
            if !keep(iid) || trace.is_some_and(|t| e.trace != t) {
                continue;
            }
            out.push(Self::event_line(e));
            if via != 0 {
                out.push(self.resolve_line(via, 2));
            }
        }
        out
    }

    /// `gist-trace query promotions`: every `ast.promoted` event (in the
    /// given trace, or journal-wide), each followed by the evidence event
    /// that caused it — the watch hit for `watch-discovery` promotions,
    /// the slice computation for `race-seed` ones. This answers "which
    /// watch hit promoted this statement?" for the whole diagnosis.
    pub fn query_promotions(&self, trace: Option<u64>) -> Vec<String> {
        self.promotions(trace, |_| true)
    }

    /// `gist-trace query promoted <iid>`: which event promoted statement
    /// `iid` into tracking? Errors when the statement was never promoted.
    pub fn query_promoted(&self, iid: u64, trace: Option<u64>) -> Result<Vec<String>, String> {
        let out = self.promotions(trace, |i| u64::from(i) == iid);
        if out.is_empty() {
            return Err(format!("no ast.promoted event for iid={iid} in journal"));
        }
        Ok(out)
    }

    /// `gist-trace query hits <iid>`: every watchpoint hit at statement
    /// `iid`, in seq order.
    pub fn query_hits(&self, iid: u64, trace: Option<u64>) -> Vec<String> {
        self.events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::WatchHit { iid: i, .. } if u64::from(i) == iid)
                    && trace.is_none_or(|t| e.trace == t)
            })
            .map(Self::event_line)
            .collect()
    }

    /// `gist-trace query decode <bug> <step>`: which PT decode fed this
    /// sketch step? Resolves the step's provenance chain to its
    /// `pt.decoded` event, plus the per-core `pt.segment` decodes that
    /// immediately precede it on the same thread.
    pub fn query_decode(&self, label: &str, step: u64) -> Result<Vec<String>, String> {
        let found = self.step(label, step)?;
        let i = found
            .provenance
            .iter()
            .find_map(|&seq| {
                let i = self.events.binary_search_by_key(&seq, |e| e.seq).ok()?;
                matches!(self.events[i].kind, EventKind::TraceDecoded { .. }).then_some(i)
            })
            .ok_or_else(|| {
                format!("sketch step {step} has no pt.decoded event in its provenance chain")
            })?;
        let decode = &self.events[i];
        let mut out = vec![
            Self::event_line(found.event),
            format!("  <- {}", Self::event_line(decode)),
        ];
        let segments = self.events[..i]
            .iter()
            .rev()
            .take_while(|e| {
                matches!(e.kind, EventKind::PtSegmentDecoded { .. }) && e.tid == decode.tid
            })
            .map(|e| format!("    <- {}", Self::event_line(e)))
            .collect::<Vec<_>>();
        out.extend(segments.into_iter().rev());
        Ok(out)
    }

    /// `gist-trace query chain <seq>`: the transitive provenance closure
    /// of one event — its `via` / `provenance` references, their
    /// references, and so on — rendered as an indented tree. Cycles and
    /// repeats are cut by a visited set.
    pub fn query_chain(&self, seq: u64) -> Result<Vec<String>, String> {
        let root = self
            .event_by_seq(seq)
            .ok_or_else(|| format!("no event #{seq} in journal"))?;
        let mut out = vec![Self::event_line(root)];
        let mut visited = BTreeSet::from([seq]);
        self.chain_children(root, 1, &mut visited, &mut out);
        Ok(out)
    }

    /// Seq-nos an event references: `via` for promotions, the
    /// `provenance` array for sketch steps. (`hit_seq` is a *VM* sequence
    /// number, not a journal seq, and is deliberately not followed.)
    fn references(e: &EventRecord) -> Vec<u64> {
        match &e.kind {
            EventKind::StmtPromoted { via, .. } if *via != 0 => vec![*via],
            EventKind::SketchStepEmitted { provenance, .. } => provenance.clone(),
            _ => Vec::new(),
        }
    }

    fn chain_children(
        &self,
        e: &EventRecord,
        depth: usize,
        visited: &mut BTreeSet<u64>,
        out: &mut Vec<String>,
    ) {
        // Provenance chains are short (hit -> decode -> promotion ->
        // slice); the depth bound only guards malformed journals.
        if depth > 8 {
            return;
        }
        for r in Self::references(e) {
            if !visited.insert(r) {
                continue;
            }
            out.push(self.resolve_line(r, 2 * depth));
            if let Some(child) = self.event_by_seq(r) {
                self.chain_children(child, depth + 1, visited, out);
            }
        }
    }
}

/// One final sketch step of a journaled diagnosis: its `sketch.step`
/// event plus the event's typed payload.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// The `sketch.step` event.
    pub event: &'a EventRecord,
    /// 1-based step number.
    pub step: u64,
    /// The step's statement.
    pub iid: u32,
    /// Event seq-nos justifying the step, most specific first.
    pub provenance: &'a [u64],
}

/// Renders journal events as Chrome trace JSON (`gist-trace export
/// --chrome` and the CI artifact).
pub fn chrome_json(journal: &Journal) -> String {
    gist_obs::journal::chrome_trace(&journal.events).pretty()
}

/// Incremental tail over the in-process journal ring: each [`poll`]
/// drains what arrived since the last one via
/// [`gist_obs::journal::drain_since`] cursors, so a consumer thread can
/// watch a diagnosis that is still running — the cursors guarantee every
/// event is delivered exactly once (missed-by-overwrite frames are
/// counted, never silently dropped). Shared by `gist-trace follow` and
/// the streaming-drain integration test.
///
/// [`poll`]: LiveTail::poll
#[derive(Debug, Default)]
pub struct LiveTail {
    cursor: gist_obs::Cursor,
    /// Everything delivered so far, kept sorted by seq.
    pub events: Vec<EventRecord>,
    /// Frames the ring overwrote before a poll reached them.
    pub overwritten: u64,
    /// Polls that delivered at least one event.
    pub nonempty_polls: u64,
}

impl LiveTail {
    /// A tail positioned at the start of the current journal epoch.
    pub fn new() -> LiveTail {
        LiveTail::default()
    }

    /// Drains events recorded since the previous poll, returning the new
    /// batch (seq-sorted) and folding it into [`LiveTail::events`].
    pub fn poll(&mut self) -> Vec<EventRecord> {
        let chunk = gist_obs::journal::drain_since(self.cursor);
        self.cursor = chunk.cursor;
        self.overwritten += chunk.overwritten;
        let new = chunk.events;
        if !new.is_empty() {
            self.nonempty_polls += 1;
            self.events.extend(new.iter().cloned());
            // Chunks arrive in ring order; cross-thread flushes can
            // interleave seq ranges across chunks, so re-sort the whole
            // accumulation.
            self.events.sort_by_key(|e| e.seq);
        }
        new
    }

    /// The accumulated events as a queryable [`Journal`] snapshot.
    pub fn journal(&self) -> Journal {
        Journal::from_events(self.events.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, kind: EventKind) -> EventRecord {
        EventRecord {
            seq,
            trace: 1,
            tid: 0,
            kind,
        }
    }

    fn step(seq: u64, step: u64, iid: u32, provenance: Vec<u64>) -> EventRecord {
        rec(
            seq,
            EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            },
        )
    }

    fn slice(seq: u64, criterion: u32) -> EventRecord {
        rec(
            seq,
            EventKind::SliceComputed {
                criterion,
                len: 4,
                alias: true,
            },
        )
    }

    fn hit(seq: u64, iid: u32) -> EventRecord {
        rec(
            seq,
            EventKind::WatchHit {
                iid,
                addr: 64,
                value: 0,
                hit_seq: seq,
                hit_tid: 1,
                discovered: true,
            },
        )
    }

    fn label(seq: u64, label: &str) -> EventRecord {
        rec(
            seq,
            EventKind::TraceStarted {
                label: label.into(),
            },
        )
    }

    fn sample() -> Journal {
        Journal::from_events(vec![
            label(1, "Sketch for x"),
            slice(2, 7),
            hit(3, 5),
            // First sketch build: two steps.
            step(4, 1, 5, vec![3, 2]),
            step(5, 2, 7, vec![2]),
            // Rebuild: pruned to one step; the final sketch.
            step(6, 1, 7, vec![2]),
            rec(
                7,
                EventKind::TraceFinished {
                    iterations: 2,
                    recurrences: 3,
                },
            ),
        ])
    }

    #[test]
    fn final_steps_keep_only_last_rebuild() {
        let j = sample();
        let steps = j.final_steps(1);
        assert_eq!(steps.len(), 1, "pruned rebuild wins");
        assert_eq!(steps[0].event.seq, 6);
    }

    #[test]
    fn explain_resolves_chain() {
        let j = sample();
        let lines = j.explain_step("Sketch for x", 1).unwrap();
        assert!(lines[0].contains("sketch.step"));
        assert!(lines[1].contains("slice.computed"));
        assert!(j.explain_step("Sketch for x", 9).is_err());
        assert!(j.explain_step("no such trace", 1).is_err());
    }

    #[test]
    fn summary_and_grep_render() {
        let j = sample();
        let s = j.summary_text();
        assert!(s.contains("7 events"));
        assert!(s.contains("sketch.step"));
        assert!(s.contains("iterations=2 recurrences=3"));
        assert!(s.contains("sketch_steps=1"));
        let g = j.grep_text("sketch.step");
        assert_eq!(g.lines().count(), 3);
        // Prefix form matches the whole layer.
        assert_eq!(j.grep_text("sketch").lines().count(), 3);
        assert_eq!(j.grep_text("watch").lines().count(), 1);
    }

    #[test]
    fn digest_resolves_provenance_to_kinds() {
        let j = sample();
        let d = j.digest();
        assert!(d.contains("trace 1 \"Sketch for x\":"));
        assert!(d.contains("step 1 iid=7 via [slice.computed]"));
        // Only the final rebuild's steps appear.
        assert!(!d.contains("iid=5 via"));
    }

    /// A journal with the full provenance shape: hit -> segments ->
    /// decode -> promotion -> sketch step.
    fn provenance_sample() -> Journal {
        let segment = |seq, core, stmts| {
            rec(
                seq,
                EventKind::PtSegmentDecoded {
                    core,
                    segment: u64::from(core),
                    bytes: 8,
                    stmts,
                },
            )
        };
        Journal::from_events(vec![
            label(1, "Sketch for y"),
            slice(2, 9),
            hit(3, 30),
            segment(4, 0, 5),
            segment(5, 1, 6),
            rec(
                6,
                EventKind::TraceDecoded {
                    stmts: 11,
                    branches: 2,
                    bytes: 16,
                },
            ),
            rec(
                7,
                EventKind::StmtPromoted {
                    iid: 30,
                    reason: "watch-discovery",
                    via: 3,
                    sigma: 2,
                },
            ),
            step(8, 1, 30, vec![3, 6, 7, 2]),
        ])
    }

    #[test]
    fn query_promotions_resolve_their_evidence() {
        let j = provenance_sample();
        let lines = j.query_promotions(None);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("ast.promoted"));
        assert!(lines[0].contains("iid=30"));
        assert!(
            lines[1].contains("watch.hit"),
            "the via line answers which hit promoted the statement: {}",
            lines[1]
        );
        assert!(j.query_promotions(Some(99)).is_empty());
        let by_iid = j.query_promoted(30, None).unwrap();
        assert_eq!(by_iid, lines);
        assert!(j.query_promoted(31, None).is_err());
    }

    #[test]
    fn query_decode_finds_the_feeding_decode_and_segments() {
        let j = provenance_sample();
        let lines = j.query_decode("Sketch for y", 1).unwrap();
        assert!(lines[0].contains("sketch.step"));
        assert!(lines[1].contains("pt.decoded"));
        // The decode's same-thread segment runs ride along, in order.
        assert!(lines[2].contains("core=0"));
        assert!(lines[3].contains("core=1"));
        assert!(j.query_decode("Sketch for y", 2).is_err());
        // A step whose chain lacks a decode errors cleanly.
        assert!(sample().query_decode("Sketch for x", 1).is_err());
    }

    #[test]
    fn query_hits_and_chain() {
        let j = provenance_sample();
        let hits = j.query_hits(30, Some(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].contains("watch.hit"));
        assert!(j.query_hits(30, Some(2)).is_empty());
        // The chain from the sketch step expands provenance transitively:
        // the promotion (seq 7) references the hit (seq 3) via `via`, but
        // the hit is already visited, so it appears exactly once.
        let chain = j.query_chain(8).unwrap();
        let hits_in_chain = chain.iter().filter(|l| l.contains("watch.hit")).count();
        assert_eq!(hits_in_chain, 1, "visited set cuts repeats: {chain:?}");
        assert!(chain.iter().any(|l| l.contains("ast.promoted")));
        assert!(chain.iter().any(|l| l.contains("slice.computed")));
        assert!(j.query_chain(999).is_err());
    }

    #[test]
    fn gap_warning_fires_on_overwrites_and_seq_holes() {
        let mut j = provenance_sample();
        assert_eq!(j.gap_warning(), None);
        assert!(!j.summary_text().contains("WARNING"));
        j.stats.events_overwritten = 4;
        j.stats.oldest_seq = 1;
        let w = j.gap_warning().expect("overwrites warn");
        assert!(w.contains("4 events overwritten"));
        assert!(j.summary_text().contains("WARNING"));
        // A seq hole warns even without meta accounting.
        let mut holey = provenance_sample();
        holey.events.remove(3);
        let w = holey.gap_warning().expect("seq hole warns");
        assert!(w.contains("1 seq-nos missing"), "{w}");
    }

    #[test]
    fn load_bytes_reads_binary_and_rejects_jsonl() {
        let records = vec![rec(1, EventKind::RunStarted { run: 1, seed: 7 })];
        let stats = JournalStats {
            events_overwritten: 2,
            oldest_seq: 1,
        };
        let bin = gist_obs::journal::to_binary(&records, &stats);
        let j = Journal::load_bytes(&bin).expect("binary loads");
        assert_eq!(j.events, records);
        assert_eq!(j.stats, stats);
        let jsonl = gist_obs::journal::to_jsonl(&records);
        let err = Journal::load_bytes(jsonl.as_bytes()).expect_err("JSONL is not a journal");
        assert!(err.contains("bad magic"), "{err}");
        assert!(Journal::load_bytes(&[0xff, 0xfe, 0x00]).is_err());
    }
}
