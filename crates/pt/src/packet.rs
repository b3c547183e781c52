//! PT packet types and their binary encoding.
//!
//! The encoding is a simplified but real byte format: every packet
//! serializes to bytes and parses back, so buffer occupancy and the
//! bits-per-instruction statistic are grounded in actual encoded sizes.
//! Sizes mirror real Intel PT packets: PSB is 16 bytes, a short TNT is one
//! byte carrying up to 6 branch bits, TIP-class packets carry a compressed
//! IP (here: a 4-byte statement id), PIP carries the context (here: tid).

use bytes::{BufMut, BytesMut};
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

    /// Decodes a whole byte stream into packets.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<Packet>, String> {
        PacketReader::new(bytes)
            .map(|p| {
                p.map(|p| match p {
                    Parsed::Psb => Packet::Psb,
                    Parsed::Pip { tid } => Packet::Pip { tid },
                    Parsed::Pge { ip } => Packet::Pge { ip },
                    Parsed::Pgd { ip } => Packet::Pgd { ip },
                    Parsed::Tnt { payload } => Packet::Tnt {
                        bits: tnt_bits(payload).collect(),
                    },
                    Parsed::Tip { ip } => Packet::Tip { ip },
                    Parsed::Fup { ip } => Packet::Fup { ip },
                    Parsed::Ovf => Packet::Ovf,
                })
            })
            .collect()
    }
}

/// A packet as the decoder reads it: a [`Packet`] whose TNT bits stay in
/// their payload byte, so reading a stream allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Parsed {
    Psb,
    Pip {
        tid: u32,
    },
    Pge {
        ip: InstrId,
    },
    Pgd {
        ip: InstrId,
    },
    /// Branch bits below a stop bit, oldest first; holds 1 to 6 bits.
    Tnt {
        payload: u8,
    },
    Tip {
        ip: InstrId,
    },
    Fup {
        ip: InstrId,
    },
    Ovf,
}

/// The branch outcomes of a TNT payload that [`PacketReader`] accepted,
/// oldest first.
pub(crate) fn tnt_bits(payload: u8) -> impl Iterator<Item = bool> {
    // The highest set bit is the stop bit.
    let stop = u8::BITS - 1 - payload.leading_zeros();
    (0..stop).rev().map(move |i| payload & (1 << i) != 0)
}

/// Reads packets in place from the front of a byte stream. A malformed
/// packet is an error that ends the stream.
pub(crate) struct PacketReader<'a> {
    rest: &'a [u8],
    /// Packets read so far.
    pub(crate) read: u64,
}

impl<'a> PacketReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        PacketReader {
            rest: bytes,
            read: 0,
        }
    }

    fn parse(&mut self, tag: u8) -> Result<Parsed, String> {
        if tag & 0x80 != 0 {
            let payload = tag & 0x7f;
            if payload == 0 {
                return Err("TNT packet without stop bit".to_owned());
            }
            if payload == 1 {
                return Err("empty TNT packet".to_owned());
            }
            self.rest = &self.rest[1..];
            return Ok(Parsed::Tnt { payload });
        }
        let (len, name) = match tag {
            tag::PSB => (16, "PSB"),
            tag::PIP => (8, "PIP"),
            tag::PGE => (5, "PGE"),
            tag::PGD => (5, "PGD"),
            tag::TIP => (5, "TIP"),
            tag::FUP => (5, "FUP"),
            tag::OVF => (2, "OVF"),
            other => return Err(format!("unknown packet tag {other:#04x}")),
        };
        let Some((packet, rest)) = self.rest.split_at_checked(len) else {
            return Err(format!("truncated {name}"));
        };
        self.rest = rest;
        let word =
            |at: usize| u32::from_le_bytes(packet[at..at + 4].try_into().expect("a 4-byte field"));
        Ok(match tag {
            tag::PSB => Parsed::Psb,
            tag::PIP => Parsed::Pip { tid: word(4) },
            tag::PGE => Parsed::Pge {
                ip: InstrId(word(1)),
            },
            tag::PGD => Parsed::Pgd {
                ip: InstrId(word(1)),
            },
            tag::TIP => Parsed::Tip {
                ip: InstrId(word(1)),
            },
            tag::FUP => Parsed::Fup {
                ip: InstrId(word(1)),
            },
            _ => Parsed::Ovf,
        })
    }
}

impl Iterator for PacketReader<'_> {
    type Item = Result<Parsed, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let &tag = self.rest.first()?;
        let parsed = self.parse(tag);
        match parsed {
            Ok(_) => self.read += 1,
            Err(_) => self.rest = &[],
        }
        Some(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.encoded_len(), "size model matches encoding");
        assert_eq!(Packet::decode_all(&buf), Ok(vec![p]));
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
