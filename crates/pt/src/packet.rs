//! PT packet types and their binary encoding.
//!
//! The encoding is a simplified but real byte format: every packet
//! serializes to bytes and parses back, so buffer occupancy and the
//! bits-per-instruction statistic are grounded in actual encoded sizes.
//! Sizes mirror real Intel PT packets: PSB is 16 bytes, a short TNT is one
//! byte carrying up to 6 branch bits, TIP-class packets carry a compressed
//! IP (here: a 4-byte statement id), PIP carries the context (here: tid).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gist_ir::InstrId;

/// One trace packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// Packet stream boundary — synchronization point (16 bytes).
    Psb,
    /// Paging/context packet: identifies the thread now executing on this
    /// core. Real PT emits PIP on CR3 changes; our "address space" marker
    /// is the thread id, which is what the decoder needs to demultiplex
    /// same-core interleavings.
    Pip {
        /// The thread now running on this core.
        tid: u32,
    },
    /// Trace enabled at this statement (TIP.PGE).
    Pge {
        /// First statement executed in the window.
        ip: InstrId,
    },
    /// Trace disabled; `ip` is the last statement executed (TIP.PGD with
    /// target IP payload).
    Pgd {
        /// Last statement executed in the window.
        ip: InstrId,
    },
    /// Taken/Not-taken bits for up to 6 conditional branches, oldest first.
    Tnt {
        /// Branch outcomes, oldest first (1–6 of them).
        bits: Vec<bool>,
    },
    /// Target IP of an indirect transfer (indirect call, or a RET that
    /// could not be compressed).
    Tip {
        /// The transfer target statement.
        ip: InstrId,
    },
    /// Flow update: the current IP at an asynchronous event (here: the
    /// failing statement when a crash ends the trace).
    Fup {
        /// The statement at which flow stopped.
        ip: InstrId,
    },
    /// Buffer overflow: packets were lost after this point.
    Ovf,
}

/// Tag bytes of the binary encoding.
mod tag {
    pub const PSB: u8 = 0x02;
    pub const PIP: u8 = 0x43;
    pub const PGE: u8 = 0x11;
    pub const PGD: u8 = 0x01;
    pub const TNT: u8 = 0x80; // high bit set; low 7 bits encode payload
    pub const TIP: u8 = 0x0d;
    pub const FUP: u8 = 0x1d;
    pub const OVF: u8 = 0x66;
}

/// Maximum branch bits in a short TNT packet.
pub const TNT_CAPACITY: usize = 6;

/// The one-byte encoding of a short TNT packet carrying `bits`.
///
/// # Panics
///
/// Panics if `bits` holds 0 or more than [`TNT_CAPACITY`] bits.
pub(crate) fn tnt_byte(bits: &[bool]) -> u8 {
    assert!(
        !bits.is_empty() && bits.len() <= TNT_CAPACITY,
        "short TNT holds 1..=6 bits, got {}",
        bits.len()
    );
    // Real short-TNT: bits packed below a trailing stop bit, oldest branch
    // in the most significant position. We pack into the low 7 bits: stop
    // bit at position `len`, bits below it, oldest first.
    let mut payload: u8 = 1; // stop bit
    for &b in bits {
        payload = (payload << 1) | b as u8;
    }
    tag::TNT | payload
}

impl Packet {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Packet::Psb => 16,
            Packet::Pip { .. } => 8,
            Packet::Pge { .. } | Packet::Pgd { .. } => 5,
            Packet::Tip { .. } | Packet::Fup { .. } => 5,
            Packet::Tnt { .. } => 1,
            Packet::Ovf => 2,
        }
    }

    /// Appends the binary encoding of this packet to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a TNT packet holds 0 or more than [`TNT_CAPACITY`] bits.
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Packet::Psb => {
                // 16-byte sync pattern, like real PSB's repeating 02 82.
                for _ in 0..8 {
                    out.put_u8(tag::PSB);
                    out.put_u8(0x82);
                }
            }
            Packet::Pip { tid } => {
                out.put_u8(tag::PIP);
                out.put_u8(0x00);
                out.put_u16_le(0);
                out.put_u32_le(*tid);
            }
            Packet::Pge { ip } => {
                out.put_u8(tag::PGE);
                out.put_u32_le(ip.0);
            }
            Packet::Pgd { ip } => {
                out.put_u8(tag::PGD);
                out.put_u32_le(ip.0);
            }
            Packet::Tnt { bits } => out.put_u8(tnt_byte(bits)),
            Packet::Tip { ip } => {
                out.put_u8(tag::TIP);
                out.put_u32_le(ip.0);
            }
            Packet::Fup { ip } => {
                out.put_u8(tag::FUP);
                out.put_u32_le(ip.0);
            }
            Packet::Ovf => {
                out.put_u8(tag::OVF);
                out.put_u8(0x66);
            }
        }
    }

    /// Decodes one packet from the front of `buf`.
    ///
    /// Returns `None` at a clean end of stream; errors on malformed bytes.
    pub fn decode(buf: &mut Bytes) -> Result<Option<Packet>, String> {
        if buf.is_empty() {
            return Ok(None);
        }
        let t = buf[0];
        if t & 0x80 != 0 {
            // TNT packet.
            buf.advance(1);
            let payload = t & 0x7f;
            if payload == 0 {
                return Err("TNT packet without stop bit".to_owned());
            }
            // Highest set bit is the stop bit; bits below, oldest first.
            let stop = 7 - payload.leading_zeros() as usize; // position of stop bit
            let mut bits = Vec::with_capacity(stop);
            for i in (0..stop).rev() {
                bits.push(payload & (1 << i) != 0);
            }
            if bits.is_empty() {
                return Err("empty TNT packet".to_owned());
            }
            return Ok(Some(Packet::Tnt { bits }));
        }
        match t {
            tag::PSB => {
                if buf.len() < 16 {
                    return Err("truncated PSB".to_owned());
                }
                buf.advance(16);
                Ok(Some(Packet::Psb))
            }
            tag::PIP => {
                if buf.len() < 8 {
                    return Err("truncated PIP".to_owned());
                }
                buf.advance(4);
                let tid = buf.get_u32_le();
                Ok(Some(Packet::Pip { tid }))
            }
            tag::PGE => {
                if buf.len() < 5 {
                    return Err("truncated PGE".to_owned());
                }
                buf.advance(1);
                Ok(Some(Packet::Pge {
                    ip: InstrId(buf.get_u32_le()),
                }))
            }
            tag::PGD => {
                if buf.len() < 5 {
                    return Err("truncated PGD".to_owned());
                }
                buf.advance(1);
                Ok(Some(Packet::Pgd {
                    ip: InstrId(buf.get_u32_le()),
                }))
            }
            tag::TIP => {
                if buf.len() < 5 {
                    return Err("truncated TIP".to_owned());
                }
                buf.advance(1);
                Ok(Some(Packet::Tip {
                    ip: InstrId(buf.get_u32_le()),
                }))
            }
            tag::FUP => {
                if buf.len() < 5 {
                    return Err("truncated FUP".to_owned());
                }
                buf.advance(1);
                Ok(Some(Packet::Fup {
                    ip: InstrId(buf.get_u32_le()),
                }))
            }
            tag::OVF => {
                if buf.len() < 2 {
                    return Err("truncated OVF".to_owned());
                }
                buf.advance(2);
                Ok(Some(Packet::Ovf))
            }
            other => Err(format!("unknown packet tag {other:#04x}")),
        }
    }

    /// Decodes a whole byte stream into packets.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<Packet>, String> {
        let mut buf = Bytes::copy_from_slice(bytes);
        let mut out = Vec::new();
        while let Some(p) = Packet::decode(&mut buf)? {
            out.push(p);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.encoded_len(), "size model matches encoding");
        let mut bytes = buf.freeze();
        let q = Packet::decode(&mut bytes).unwrap().unwrap();
        assert_eq!(p, q);
        assert!(bytes.is_empty());
    }

    #[test]
    fn all_packets_roundtrip() {
        roundtrip(Packet::Psb);
        roundtrip(Packet::Pip { tid: 7 });
        roundtrip(Packet::Pge { ip: InstrId(1234) });
        roundtrip(Packet::Pgd { ip: InstrId(0) });
        roundtrip(Packet::Tip {
            ip: InstrId(u32::MAX),
        });
        roundtrip(Packet::Fup { ip: InstrId(55) });
        roundtrip(Packet::Ovf);
    }

    #[test]
    fn tnt_roundtrips_all_lengths() {
        for len in 1..=TNT_CAPACITY {
            for pattern in 0..(1u32 << len) {
                let bits: Vec<bool> = (0..len).map(|i| pattern & (1 << i) != 0).collect();
                roundtrip(Packet::Tnt { bits });
            }
        }
    }

    #[test]
    fn tnt_is_one_byte() {
        let p = Packet::Tnt {
            bits: vec![true; 6],
        };
        assert_eq!(p.encoded_len(), 1, "6 branches in one byte ≈ 0.17 B/branch");
    }

    #[test]
    #[should_panic(expected = "short TNT holds")]
    fn oversized_tnt_panics() {
        let mut buf = BytesMut::new();
        Packet::Tnt {
            bits: vec![true; 7],
        }
        .encode(&mut buf);
    }

    #[test]
    fn decode_stream_of_packets() {
        let packets = vec![
            Packet::Psb,
            Packet::Pip { tid: 1 },
            Packet::Pge { ip: InstrId(10) },
            Packet::Tnt {
                bits: vec![true, false, true],
            },
            Packet::Tip { ip: InstrId(20) },
            Packet::Pgd { ip: InstrId(30) },
        ];
        let mut buf = BytesMut::new();
        for p in &packets {
            p.encode(&mut buf);
        }
        let decoded = Packet::decode_all(&buf).unwrap();
        assert_eq!(decoded, packets);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        assert!(Packet::decode_all(&[0x7e]).is_err());
    }

    #[test]
    fn truncated_packet_is_an_error() {
        let mut buf = BytesMut::new();
        Packet::Tip { ip: InstrId(9) }.encode(&mut buf);
        let cut = &buf[..3];
        assert!(Packet::decode_all(cut).is_err());
    }
}
