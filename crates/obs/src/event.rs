//! Structured flight-recorder events.
//!
//! Every decision the diagnosis pipeline makes — a slice computed, a
//! statement promoted into tracking, a watchpoint hit, a sketch step
//! emitted — is recorded as one typed [`EventKind`] wrapped in an
//! [`EventRecord`] carrying a globally monotonic sequence number and the
//! current diagnosis trace id. Records are purely *logical*: no wall-clock
//! field exists, so the drained journal is byte-identical across same-seed
//! runs (the same contract counters obey; see the crate docs).
//!
//! Kind strings follow the metric naming scheme, `<layer>.<noun>`:
//! `trace.start`, `slice.computed`, `ast.promoted`, `run.finish`,
//! `watch.hit`, `pt.decoded`, `sketch.step`, `span.begin`, …
//!
//! # The event schema
//!
//! Each kind is declared once, in the `event_schema!` invocation below:
//! its variant name, its wire tag, its kind string and its documented
//! fields. The field order is both the wire order and the JSON member
//! order. The schema expands to the [`EventKind`] enum,
//! [`EventKind::kind_str`], [`EventKind::data_value`] and the frame-body
//! encode and decode that [`crate::wire`] calls, each field going through
//! the wire module's field codec. A new kind is one more entry with the
//! next unused tag (tags are never reused: a reader skips a tag it does
//! not know).

use crate::json::Json;
use crate::wire::{Body, Field};

/// Expands the event schema: each entry is `Variant = tag, "kind.string"
/// { field: Type, … }`, doc comments included.
macro_rules! event_schema {
    ($(
        $(#[$attr:meta])*
        $variant:ident = $tag:literal, $kind:literal {
            $( $(#[$field_attr:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    ),* $(,)?) => {
        /// The typed payload of one flight-recorder event.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $(
                $(#[$attr])*
                $variant { $( $(#[$field_attr])* $field: $ty ),* },
            )*
        }

        impl EventKind {
            /// The stable kind string (`<layer>.<noun>`) used in the
            /// journal and by `gist-trace grep`.
            pub fn kind_str(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $kind, )*
                }
            }

            /// The payload as a JSON object (members in schema order, so
            /// the rendered journal is byte-stable).
            pub fn data_value(&self) -> Json {
                match self {
                    $( EventKind::$variant { $($field),* } => Json::Obj(vec![
                        $( (stringify!($field).into(), $field.json()), )*
                    ]), )*
                }
            }

            /// Appends the wire tag and the fields in schema order.
            pub(crate) fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        out.push($tag);
                        $( $field.put(out); )*
                    } )*
                }
            }

            /// Decodes the fields of tag `tag`; `None` for a tag this
            /// reader does not know (skipped per the versioning rules).
            pub(crate) fn decode(tag: u8, body: &mut Body) -> Result<Option<EventKind>, String> {
                Ok(Some(match tag {
                    $( $tag => EventKind::$variant { $( $field: Field::get(body)? ),* }, )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

event_schema! {
    /// A diagnosis began; `label` is the sketch title (one trace id per
    /// diagnosis, all events until [`crate::journal::end_trace`] nest
    /// under it).
    TraceStarted = 0, "trace.start" {
        /// Human-readable diagnosis label (the sketch title).
        label: String,
    },
    /// The diagnosis finished.
    TraceFinished = 1, "trace.finish" {
        /// AsT iterations performed.
        iterations: u64,
        /// Failure recurrences consumed.
        recurrences: u64,
    },
    /// The static slice backing the diagnosis was computed.
    SliceComputed = 2, "slice.computed" {
        /// Slice criterion (the failing statement's `InstrId`).
        criterion: u32,
        /// Slice size in IR statements.
        len: u64,
        /// Whether alias-aware slicing was enabled.
        alias: bool,
    },
    /// An AsT iteration began.
    IterationStarted = 3, "ast.iteration" {
        /// 1-based iteration number.
        iteration: u64,
        /// Current σ (tracked-portion size).
        sigma: u64,
        /// Statements tracked this iteration (σ-portion + seeds +
        /// discoveries).
        tracked: u64,
    },
    /// A statement joined the tracked set beyond the σ-portion.
    StmtPromoted = 4, "ast.promoted" {
        /// The promoted statement.
        iid: u32,
        /// Why: `"race-seed"` (static race detector) or
        /// `"watch-discovery"` (a watchpoint hit revealed it).
        reason: &'static str,
        /// The event seq that justified the promotion (the discovering
        /// `watch.hit`, or the `slice.computed` event for race seeds).
        via: u64,
        /// σ at promotion time (the AsT input of the decision).
        sigma: u64,
    },
    /// A tracked statement was demoted (refinement proved it never
    /// executes in failing runs).
    StmtDemoted = 5, "ast.demoted" {
        /// The demoted statement.
        iid: u32,
        /// Why the statement left tracking.
        reason: &'static str,
        /// σ at demotion time.
        sigma: u64,
    },
    /// A fleet production run was dispatched.
    RunStarted = 6, "run.start" {
        /// Monotonic run id.
        run: u64,
        /// Workload seed.
        seed: u64,
    },
    /// A fleet production run completed.
    RunFinished = 7, "run.finish" {
        /// Monotonic run id.
        run: u64,
        /// Whether the run failed.
        failing: bool,
        /// Statements the run retired.
        retired: u64,
        /// Watchpoint hits the run collected.
        hits: u64,
    },
    /// The planner produced an instrumentation patch.
    PatchPlanned = 8, "tracking.plan" {
        /// Tracked statements in the patch.
        tracked: u64,
        /// Watchpoint access sites in this cooperative group.
        watch: u64,
        /// Cooperative watch-group index.
        group: u64,
        /// Serialized patch size in bytes.
        bytes: u64,
    },
    /// A hardware watchpoint was armed.
    WatchArmed = 9, "watch.armed" {
        /// Watched address.
        addr: u64,
        /// Debug-register slot used.
        slot: u64,
    },
    /// A watchpoint hit was attributed to a run (hit attribution happens
    /// when the tracker packages the run's trace).
    WatchHit = 10, "watch.hit" {
        /// The accessing statement.
        iid: u32,
        /// Accessed address.
        addr: u64,
        /// Observed value.
        value: i64,
        /// The VM's global access sequence number (total order).
        hit_seq: u64,
        /// The accessing thread.
        hit_tid: u32,
        /// True if the statement was *not* tracked — a discovery that
        /// closes the static alias-analysis gap.
        discovered: bool,
    },
    /// One per-core PT buffer segment was decoded.
    PtSegmentDecoded = 11, "pt.segment" {
        /// Core (trace buffer) id.
        core: u32,
        /// Segment index within the decode (= core index today).
        segment: u64,
        /// Encoded bytes in the segment.
        bytes: u64,
        /// Statements decoded from the segment.
        stmts: u64,
    },
    /// A whole run's PT trace finished decoding.
    TraceDecoded = 12, "pt.decoded" {
        /// Total statements decoded.
        stmts: u64,
        /// Branch outcomes recovered.
        branches: u64,
        /// Total encoded PT bytes.
        bytes: u64,
    },
    /// A failure predictor placed in the per-iteration ranking.
    PredictorRanked = 13, "predictor.ranked" {
        /// Predictor category (`order` / `branch` / `value`).
        category: String,
        /// 1-based rank within the iteration.
        rank: u64,
        /// Fβ measure ×1000 (integer so the journal stays exact).
        f_milli: u64,
        /// The predictor's primary statement.
        iid: u32,
    },
    /// A sketch step was emitted, with its provenance chain: the event
    /// seq-nos (hit → decode → promotion → slice criterion) that explain
    /// why the step is in the sketch.
    SketchStepEmitted = 14, "sketch.step" {
        /// 1-based step number within the sketch.
        step: u64,
        /// The step's statement.
        iid: u32,
        /// Event seq-nos justifying the step, most specific first.
        provenance: Vec<u64>,
    },
    /// A span timer opened (`/`-joined path). Journal counterpart of the
    /// wall-clock span; carries no time — the Chrome export synthesizes
    /// timestamps from seq order.
    SpanBegin = 15, "span.begin" {
        /// Full `/`-joined span path.
        path: String,
    },
    /// A span timer closed.
    SpanEnd = 16, "span.end" {
        /// Full `/`-joined span path.
        path: String,
    },
}

/// One recorded event: a typed payload plus the journal bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Globally monotonic sequence number (1-based; 0 is the "not
    /// journaled" sentinel returned for an event fired while its thread's
    /// journal buffer is being torn down).
    pub seq: u64,
    /// The diagnosis trace id active when the event fired (0 = none).
    pub trace: u64,
    /// Journal-assigned thread index (0 = first recording thread after a
    /// reset; deterministic under sequential execution).
    pub tid: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl EventRecord {
    /// The record as one JSON journal line value.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), Json::U64(self.seq)),
            ("trace".into(), Json::U64(self.trace)),
            ("tid".into(), Json::U64(u64::from(self.tid))),
            ("kind".into(), Json::Str(self.kind.kind_str().to_owned())),
            ("data".into(), self.kind.data_value()),
        ])
    }
}
