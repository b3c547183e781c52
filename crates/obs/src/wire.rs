//! The flight-recorder binary wire format.
//!
//! The journal's hot path stores *encoded frames*, not JSON: one compact,
//! schema-versioned binary frame per [`EventRecord`], varint-packed so a
//! typical event costs 10–30 bytes instead of ~110 bytes of JSONL. JSONL
//! is an **export format only** (see [`crate::journal::to_jsonl`]); the
//! binary journal is the canonical on-disk and in-ring representation.
//!
//! # File layout
//!
//! ```text
//! magic   "GSTJ"            4 bytes
//! version varint            currently 1
//! frame*                    event frames, sorted by seq at export time
//! meta                      one accounting frame (tag 255), appended last
//! ```
//!
//! # Frame layout
//!
//! Every frame — event or meta — is length-prefixed and self-contained:
//!
//! ```text
//! body_len varint           bytes in the body that follows
//! seq      varint           0 for the meta frame
//! trace    varint
//! tid      varint
//! tag      1 byte           the event kind's tag, or 255 = meta
//! fields…                   the kind's fields, in schema order
//! ```
//!
//! A kind's tag and field order come from its one entry in the event
//! schema ([`mod@crate::event`]); a new kind is one entry there with the next
//! unused tag. Every field goes through one codec (the `Field` trait):
//! `u64` → LEB128 varint; `u32` → varint, out of range is an error; `i64`
//! → zigzag varint; `bool` → one byte, 0 or 1; string → varint length +
//! UTF-8 bytes; list → varint count + elements. The meta frame body is
//! `events_overwritten, oldest_seq` (both varint) and records the ring's
//! overwrite accounting at drain time.
//!
//! # Versioning rules
//!
//! * The version varint bumps only on *incompatible* layout changes;
//!   readers reject versions newer than [`VERSION`].
//! * New event kinds append new tags. Readers **skip frames with unknown
//!   tags** (the length prefix makes every frame skippable), so old
//!   readers tolerate journals from newer writers of the same version.
//! * Encoding is canonical (minimal-length varints, fields in schema
//!   order), so equal event sequences produce byte-identical journals —
//!   the same-seed determinism contract extends to the binary format.

use crate::event::{EventKind, EventRecord};
use crate::json::Json;

/// File magic: the first four bytes of every binary journal.
pub const MAGIC: [u8; 4] = *b"GSTJ";

/// Current wire-format version.
pub const VERSION: u64 = 1;

/// Frame tag reserved for the journal-accounting meta frame.
pub const META_TAG: u8 = 255;

/// Journal-level overwrite accounting, carried by the meta frame and
/// surfaced by [`crate::journal::drain`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Events overwritten (lost to the bounded ring) this epoch. Non-zero
    /// means the journal has a gap at its oldest end.
    pub events_overwritten: u64,
    /// The oldest sequence number still present (0 when the journal is
    /// empty). `oldest_seq > 1` together with `events_overwritten > 0`
    /// locates the gap.
    pub oldest_seq: u64,
}

/// Appends a LEB128 varint.
pub fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            out.push(byte | 0x80);
        } else {
            out.push(byte);
            break;
        }
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it. An error when the
/// buffer ends mid-varint or the encoding overflows 64 bits.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(format!("varint truncated at byte {}", *pos));
        };
        *pos += 1;
        if shift == 63 && byte > 0x01 {
            return Err(format!("varint overflows u64 at byte {}", *pos - 1));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(format!("varint longer than 10 bytes at byte {}", *pos));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over one frame body; every read errors on truncation.
pub(crate) struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Body<'_> {
    /// The next byte.
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| "frame body truncated".to_owned())?;
        self.pos += 1;
        Ok(b)
    }
}

/// The codec of one event field type: its wire encoding, its checked
/// decoding and its JSON rendering. The event schema
/// ([`mod@crate::event`]) runs every field through it.
pub(crate) trait Field: Sized {
    /// Appends the encoded value.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value, or an error for truncated or out-of-range bytes.
    fn get(b: &mut Body) -> Result<Self, String>;
    /// The value as a JSON journal member.
    fn json(&self) -> Json;
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(*self, out);
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        get_varint(b.buf, &mut b.pos)
    }
    fn json(&self) -> Json {
        Json::U64(*self)
    }
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(u64::from(*self), out);
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        u32::try_from(u64::get(b)?).map_err(|_| "u32 field out of range".to_owned())
    }
    fn json(&self) -> Json {
        Json::U64(u64::from(*self))
    }
}

impl Field for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(zigzag(*self), out);
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        Ok(unzigzag(u64::get(b)?))
    }
    fn json(&self) -> Json {
        Json::I64(*self)
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        match b.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other}")),
        }
    }
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        let len = u64::get(b)?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| b.pos.checked_add(len))
            .ok_or_else(|| "string field length overflows".to_owned())?;
        let bytes = b
            .buf
            .get(b.pos..end)
            .ok_or_else(|| "string field truncated".to_owned())?;
        b.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string field is not UTF-8".to_owned())
    }
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// A promotion or demotion reason, encoded as a string. Decoding
/// re-interns onto the reasons the pipeline records, so round-tripped
/// records compare equal to the originals; any other reason (only a
/// journal from another writer has one) leaks one allocation, which an
/// offline decoder can afford.
impl Field for &'static str {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        let s = String::get(b)?;
        Ok(["race-seed", "watch-discovery", "never-executed"]
            .into_iter()
            .find(|known| *known == s)
            .unwrap_or_else(|| Box::leak(s.into_boxed_str())))
    }
    fn json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

/// A list of seq-nos: varint count, then the varints.
impl Field for Vec<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(self.len() as u64, out);
        for v in self {
            v.put(out);
        }
    }
    fn get(b: &mut Body) -> Result<Self, String> {
        let n = u64::get(b)?;
        // The count is untrusted: reserve no more than a sane list needs.
        let mut v = Vec::with_capacity((n as usize).min(1024));
        for _ in 0..n {
            v.push(u64::get(b)?);
        }
        Ok(v)
    }
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(Field::json).collect())
    }
}

/// Encodes one record as a complete length-prefixed frame.
pub fn encode_event(rec: &EventRecord, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(24);
    encode_event_into(rec, &mut body, out);
}

/// [`encode_event`] with a caller-provided body scratch buffer, so hot
/// flush loops encode thousands of events without per-event allocation.
pub(crate) fn encode_event_into(rec: &EventRecord, body: &mut Vec<u8>, out: &mut Vec<u8>) {
    body.clear();
    put_varint(rec.seq, body);
    put_varint(rec.trace, body);
    put_varint(u64::from(rec.tid), body);
    rec.kind.encode(body);
    put_varint(body.len() as u64, out);
    out.extend_from_slice(body);
}

pub(crate) fn encode_meta(stats: &JournalStats, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(8);
    put_varint(0, &mut body); // seq
    put_varint(0, &mut body); // trace
    put_varint(0, &mut body); // tid
    body.push(META_TAG);
    put_varint(stats.events_overwritten, &mut body);
    put_varint(stats.oldest_seq, &mut body);
    put_varint(body.len() as u64, out);
    out.extend_from_slice(&body);
}

/// One decoded frame.
enum Frame {
    Event(EventRecord),
    /// The meta frame's overwrite accounting.
    Meta(JournalStats),
    /// A frame with an unknown tag, skipped per the versioning rules.
    Unknown,
}

/// Reads the complete frame at `*pos`, advancing past it. A frame that
/// runs past the end of `buf` is an error, as is a length prefix that
/// overflows.
fn read_frame(buf: &[u8], pos: &mut usize) -> Result<Frame, String> {
    let start = *pos;
    let len = get_varint(buf, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .ok_or_else(|| format!("frame length {len} overflows at byte {start}"))?;
    let body = buf.get(*pos..end).ok_or_else(|| {
        format!(
            "journal truncated: the frame at byte {start} needs {len} bytes, {} remain",
            buf.len() - *pos
        )
    })?;
    *pos = end;
    let mut b = Body { buf: body, pos: 0 };
    let seq = u64::get(&mut b)?;
    let trace = u64::get(&mut b)?;
    let tid = u32::try_from(u64::get(&mut b)?).map_err(|_| "tid out of range".to_owned())?;
    let tag = b.byte()?;
    if tag == META_TAG {
        return Ok(Frame::Meta(JournalStats {
            events_overwritten: u64::get(&mut b)?,
            oldest_seq: u64::get(&mut b)?,
        }));
    }
    Ok(match EventKind::decode(tag, &mut b)? {
        Some(kind) => Frame::Event(EventRecord {
            seq,
            trace,
            tid,
            kind,
        }),
        None => Frame::Unknown,
    })
}

/// Decodes exactly one complete frame (as produced by [`encode_event`]).
/// Used by the ring, whose frames are complete by construction.
pub fn decode_event(frame: &[u8]) -> Result<EventRecord, String> {
    match read_frame(frame, &mut 0)? {
        Frame::Event(rec) => Ok(rec),
        _ => Err("expected an event frame".to_owned()),
    }
}

/// Assembles the canonical binary journal: header, one frame per record
/// (in the order given — callers pass the seq-sorted drain output), and a
/// trailing meta frame carrying the overwrite accounting. Deterministic:
/// equal inputs produce byte-identical journals.
pub fn to_binary(events: &[EventRecord], stats: &JournalStats) -> Vec<u8> {
    // Typical frames run 10–30 bytes; 24 is a close fit that avoids
    // re-allocation churn without overshooting.
    let mut out = Vec::with_capacity(8 + events.len() * 24);
    out.extend_from_slice(&MAGIC);
    put_varint(VERSION, &mut out);
    for e in events {
        encode_event(e, &mut out);
    }
    encode_meta(stats, &mut out);
    out
}

/// Parses a complete binary journal into records plus the accounting from
/// its meta frame. Frames with unknown tags are skipped (see the module
/// docs' versioning rules); bad magic, a newer version and a journal that
/// ends mid-frame are errors.
pub fn parse_binary(bytes: &[u8]) -> Result<(Vec<EventRecord>, JournalStats), String> {
    if !bytes.starts_with(&MAGIC) {
        return Err("not a binary journal (bad magic)".to_owned());
    }
    let mut pos = MAGIC.len();
    let version = get_varint(bytes, &mut pos)?;
    if version > VERSION {
        return Err(format!(
            "journal version {version} is newer than supported {VERSION}"
        ));
    }
    let mut events = Vec::new();
    let mut stats = JournalStats::default();
    while pos < bytes.len() {
        match read_frame(bytes, &mut pos)? {
            Frame::Event(rec) => events.push(rec),
            Frame::Meta(meta) => stats = meta,
            Frame::Unknown => {}
        }
    }
    Ok((events, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated varint: error.
        let mut buf = Vec::new();
        put_varint(u64::MAX, &mut buf);
        buf.pop();
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
        // Overflowing 10-byte varint: error.
        let bad = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(get_varint(&bad, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn event_frames_round_trip() {
        let records = [
            EventRecord {
                seq: u64::MAX,
                trace: 7,
                tid: 3,
                kind: EventKind::TraceStarted {
                    label: "Failure Sketch \"quoted\" ünïcode".into(),
                },
            },
            EventRecord {
                seq: 1,
                trace: 0,
                tid: 0,
                kind: EventKind::WatchHit {
                    iid: 30,
                    addr: 0x40_0000,
                    value: i64::MIN,
                    hit_seq: 12345,
                    hit_tid: 2,
                    discovered: true,
                },
            },
            EventRecord {
                seq: 2,
                trace: 1,
                tid: 0,
                kind: EventKind::SketchStepEmitted {
                    step: 9,
                    iid: 4,
                    provenance: vec![],
                },
            },
            EventRecord {
                seq: 3,
                trace: 1,
                tid: 0,
                kind: EventKind::StmtPromoted {
                    iid: 5,
                    reason: "watch-discovery",
                    via: 2,
                    sigma: 4,
                },
            },
        ];
        for rec in &records {
            let mut buf = Vec::new();
            encode_event(rec, &mut buf);
            assert_eq!(&decode_event(&buf).expect("decodes"), rec);
        }
        let stats = JournalStats {
            events_overwritten: 42,
            oldest_seq: 43,
        };
        let bin = to_binary(&records, &stats);
        let (decoded, got) = parse_binary(&bin).expect("parses");
        assert_eq!(decoded, records);
        assert_eq!(got, stats);
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let rec = EventRecord {
            seq: 1,
            trace: 0,
            tid: 0,
            kind: EventKind::RunStarted { run: 1, seed: 2 },
        };
        let mut bin = Vec::new();
        bin.extend_from_slice(&MAGIC);
        put_varint(VERSION, &mut bin);
        // A frame with tag 200 (unknown) and arbitrary body bytes.
        let mut body = Vec::new();
        put_varint(9, &mut body);
        put_varint(0, &mut body);
        put_varint(0, &mut body);
        body.push(200);
        body.extend_from_slice(&[1, 2, 3]);
        put_varint(body.len() as u64, &mut bin);
        bin.extend_from_slice(&body);
        encode_event(&rec, &mut bin);
        let (events, _) = parse_binary(&bin).expect("skips unknown tag");
        assert_eq!(events, vec![rec]);
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut bin = Vec::new();
        bin.extend_from_slice(&MAGIC);
        put_varint(VERSION + 1, &mut bin);
        assert!(parse_binary(&bin).is_err());
        assert!(parse_binary(b"not a journal").is_err());
    }
}
