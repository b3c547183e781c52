//! Property tests for the flight-recorder wire format: for *arbitrary*
//! [`EventRecord`]s — every kind, max varints, empty payloads, unicode
//! strings — the binary journal must round-trip exactly:
//!
//! 1. `to_binary` → `parse_binary` reproduces the records and the meta
//!    stats bit-for-bit (canonical encoding, lossless decode).
//! 2. The JSONL export rendered from the decoded records is byte-identical
//!    to the JSONL rendered from the originals (the export is lossless).
//! 3. Hostile bytes (arbitrary, or a real journal with one byte changed)
//!    never panic `parse_binary`, and oversized length prefixes are
//!    errors.
//!
//! These tests use only pure encode/decode functions (no process-global
//! journal state), so many `#[test]`s can share this binary safely.

use gist_obs::journal::{parse_binary, to_binary, to_jsonl, JournalStats};
use gist_obs::wire::{put_varint, MAGIC, VERSION};
use gist_obs::{EventKind, EventRecord};
use proptest::prelude::*;

/// u64s biased toward varint boundaries: 0, one-byte max, continuation
/// edges, and `u64::MAX` (10-byte LEB128).
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(127u64),
        Just(128u64),
        Just(16_383u64),
        Just(16_384u64),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        0u64..1_000_000,
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..100_000]
}

/// i64s biased toward zigzag edges (both extremes map to max varints).
fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(-1i64),
        Just(1i64),
        Just(i64::MIN),
        Just(i64::MAX),
        -1_000_000i64..1_000_000,
    ]
}

fn arb_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

/// Strings including empty, plain ASCII, and arbitrary multi-byte UTF-8.
fn arb_str() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("Failure Sketch for pbzip2 0.9.4".to_owned()),
        proptest::collection::vec(1u32..0xD7FF, 0..12)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

/// Promotion/demotion reasons: the interned pool plus a non-interned
/// static (exercises the `Box::leak` fallback on decode).
fn arb_reason() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("race-seed"),
        Just("watch-discovery"),
        Just("never-executed"),
        Just("a reason the decoder has never seen"),
        Just(""),
    ]
}

fn arb_provenance() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(arb_u64(), 0..6)
}

/// Every [`EventKind`], with adversarial field values. Variants with more
/// than four fields nest tuples (the strategy tuples cap at four).
fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        arb_str().prop_map(|label| EventKind::TraceStarted { label }),
        (arb_u64(), arb_u64()).prop_map(|(iterations, recurrences)| EventKind::TraceFinished {
            iterations,
            recurrences
        }),
        (arb_u32(), arb_u64(), arb_bool()).prop_map(|(criterion, len, alias)| {
            EventKind::SliceComputed {
                criterion,
                len,
                alias,
            }
        }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(iteration, sigma, tracked)| {
            EventKind::IterationStarted {
                iteration,
                sigma,
                tracked,
            }
        }),
        (arb_u32(), arb_reason(), arb_u64(), arb_u64()).prop_map(|(iid, reason, via, sigma)| {
            EventKind::StmtPromoted {
                iid,
                reason,
                via,
                sigma,
            }
        }),
        (arb_u32(), arb_reason(), arb_u64())
            .prop_map(|(iid, reason, sigma)| { EventKind::StmtDemoted { iid, reason, sigma } }),
        (arb_u64(), arb_u64()).prop_map(|(run, seed)| EventKind::RunStarted { run, seed }),
        ((arb_u64(), arb_bool()), (arb_u64(), arb_u64())).prop_map(
            |((run, failing), (retired, hits))| EventKind::RunFinished {
                run,
                failing,
                retired,
                hits,
            }
        ),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(|(tracked, watch, group, bytes)| {
            EventKind::PatchPlanned {
                tracked,
                watch,
                group,
                bytes,
            }
        }),
        (arb_u64(), arb_u64()).prop_map(|(addr, slot)| EventKind::WatchArmed { addr, slot }),
        (
            (arb_u32(), arb_u64(), arb_i64()),
            (arb_u64(), arb_u32(), arb_bool())
        )
            .prop_map(|((iid, addr, value), (hit_seq, hit_tid, discovered))| {
                EventKind::WatchHit {
                    iid,
                    addr,
                    value,
                    hit_seq,
                    hit_tid,
                    discovered,
                }
            }),
        (arb_u32(), arb_u64(), arb_u64(), arb_u64()).prop_map(|(core, segment, bytes, stmts)| {
            EventKind::PtSegmentDecoded {
                core,
                segment,
                bytes,
                stmts,
            }
        }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(stmts, branches, bytes)| {
            EventKind::TraceDecoded {
                stmts,
                branches,
                bytes,
            }
        }),
        (arb_str(), arb_u64(), arb_u64(), arb_u32()).prop_map(|(category, rank, f_milli, iid)| {
            EventKind::PredictorRanked {
                category,
                rank,
                f_milli,
                iid,
            }
        }),
        (arb_u64(), arb_u32(), arb_provenance()).prop_map(|(step, iid, provenance)| {
            EventKind::SketchStepEmitted {
                step,
                iid,
                provenance,
            }
        }),
        arb_str().prop_map(|path| EventKind::SpanBegin { path }),
        arb_str().prop_map(|path| EventKind::SpanEnd { path }),
    ]
}

fn arb_record() -> impl Strategy<Value = EventRecord> {
    (arb_u64(), arb_u64(), arb_u32(), arb_kind()).prop_map(|(seq, trace, tid, kind)| EventRecord {
        seq,
        trace,
        tid,
        kind,
    })
}

fn arb_stats() -> impl Strategy<Value = JournalStats> {
    (arb_u64(), arb_u64()).prop_map(|(events_overwritten, oldest_seq)| JournalStats {
        events_overwritten,
        oldest_seq,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_round_trips_records_and_stats(
        events in proptest::collection::vec(arb_record(), 0..40),
        stats in arb_stats(),
    ) {
        let binary = to_binary(&events, &stats);
        prop_assert!(binary.starts_with(&MAGIC), "encoded journal carries the magic");
        let (decoded, decoded_stats) = parse_binary(&binary).expect("binary parses");
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(decoded_stats, stats);
        // Canonical encoding: re-encoding the decode is byte-identical.
        prop_assert_eq!(to_binary(&decoded, &decoded_stats), binary);
    }

    #[test]
    fn jsonl_export_from_binary_is_lossless(
        events in proptest::collection::vec(arb_record(), 0..40),
    ) {
        let stats = JournalStats::default();
        let (decoded, _) = parse_binary(&to_binary(&events, &stats)).expect("binary parses");
        prop_assert_eq!(to_jsonl(&decoded), to_jsonl(&events));
    }
}

/// The adversarial corners, pinned explicitly (the properties above reach
/// them probabilistically): all-max varints and an entirely empty record.
#[test]
fn extreme_records_round_trip() {
    let events = vec![
        EventRecord {
            seq: u64::MAX,
            trace: u64::MAX,
            tid: u32::MAX,
            kind: EventKind::WatchHit {
                iid: u32::MAX,
                addr: u64::MAX,
                value: i64::MIN,
                hit_seq: u64::MAX,
                hit_tid: u32::MAX,
                discovered: true,
            },
        },
        EventRecord {
            seq: 0,
            trace: 0,
            tid: 0,
            kind: EventKind::SketchStepEmitted {
                step: 0,
                iid: 0,
                provenance: Vec::new(),
            },
        },
        EventRecord {
            seq: 1,
            trace: 0,
            tid: 0,
            kind: EventKind::TraceStarted {
                label: String::new(),
            },
        },
    ];
    let stats = JournalStats {
        events_overwritten: u64::MAX,
        oldest_seq: u64::MAX,
    };
    let binary = to_binary(&events, &stats);
    let (decoded, decoded_stats) = parse_binary(&binary).expect("extremes parse");
    assert_eq!(decoded, events);
    assert_eq!(decoded_stats, stats);
    assert_eq!(to_jsonl(&decoded), to_jsonl(&events));
}

/// An empty journal still has a header + meta frame and round-trips.
#[test]
fn empty_journal_round_trips() {
    let stats = JournalStats::default();
    let binary = to_binary(&[], &stats);
    assert!(binary.starts_with(&MAGIC));
    let (decoded, decoded_stats) = parse_binary(&binary).expect("empty journal parses");
    assert!(decoded.is_empty());
    assert_eq!(decoded_stats, stats);
}

/// A journal header followed by `frame` (length prefix included).
fn journal_with_frame(frame: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    put_varint(VERSION, &mut bytes);
    bytes.extend_from_slice(frame);
    bytes
}

/// A frame-length prefix near `u64::MAX` is an error, not an overflowing
/// add.
#[test]
fn oversized_frame_length_is_an_error() {
    let mut frame = Vec::new();
    put_varint(u64::MAX - 1, &mut frame);
    frame.extend_from_slice(&[0, 0, 0, 0]);
    let bytes = journal_with_frame(&frame);
    let err = parse_binary(&bytes).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
}

/// A string field whose length prefix is near `u64::MAX` is an error.
#[test]
fn oversized_string_length_is_an_error() {
    let mut body = vec![1, 0, 0, 0]; // seq 1, trace 0, tid 0, tag 0 (TraceStarted)
    put_varint(u64::MAX - 1, &mut body);
    let mut frame = Vec::new();
    put_varint(body.len() as u64, &mut frame);
    frame.extend_from_slice(&body);
    let bytes = journal_with_frame(&frame);
    let err = parse_binary(&bytes).unwrap_err();
    assert!(err.contains("string field length overflows"), "{err}");
}

/// A field whose bytes decode but break the field's type is an error,
/// not a silently wrapped or replaced value. Each body is seq 1, trace 0,
/// tid 0, then the tag and its fields.
#[test]
fn field_level_decode_errors() {
    let mut u32_of_2_pow_32 = vec![1, 0, 0, 10]; // watch.hit
    put_varint(1 << 32, &mut u32_of_2_pow_32); // iid
    u32_of_2_pow_32.extend_from_slice(&[0, 0, 0, 0, 0]); // addr … discovered
    let cases: [(&str, Vec<u8>, &str); 3] = [
        ("u32 of 2^32", u32_of_2_pow_32, "out of range"),
        // slice.computed: criterion 0, len 0, alias byte 2.
        ("bool byte 2", vec![1, 0, 0, 2, 0, 0, 2], "bool"),
        // trace.start: a one-byte label 0xff.
        ("invalid UTF-8", vec![1, 0, 0, 0, 1, 0xff], "UTF-8"),
    ];
    for (name, body, want) in cases {
        let mut frame = Vec::new();
        put_varint(body.len() as u64, &mut frame);
        frame.extend_from_slice(&body);
        let err = parse_binary(&journal_with_frame(&frame)).expect_err(name);
        assert!(err.contains(want), "{name}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile journal bytes never panic the reader: arbitrary bytes
    /// (with and without a valid header) and every-which-way single-byte
    /// mutations of a real journal all yield `Ok` or `Err`.
    #[test]
    fn hostile_journal_bytes_never_panic(
        events in proptest::collection::vec(arb_record(), 0..12),
        stats in arb_stats(),
        noise in proptest::collection::vec(0u8..=255, 0..64),
        flip in (0usize..1 << 20, 0u8..=255),
    ) {
        let mut mutated = to_binary(&events, &stats);
        let (at, byte) = flip;
        let at = at % mutated.len();
        mutated[at] = byte;
        for bytes in [noise.clone(), journal_with_frame(&noise), mutated] {
            let _ = parse_binary(&bytes);
        }
    }
}
