//! Per-core trace buffers.
//!
//! The paper's kernel driver "uses a memory buffer sized at 2 MB, which is
//! sufficient to hold traces for all the applications we have tested" (§4).
//! We model a fixed-capacity buffer with stop-on-full semantics (Intel
//! ToPA STOP): once full, packets are dropped and a single OVF packet marks
//! the loss.

use bytes::{BufMut, BytesMut};

use crate::packet::{tnt_byte, Packet};

/// Default buffer capacity: 2 MB, as in the paper's driver.
pub const DEFAULT_CAPACITY: usize = 2 * 1024 * 1024;

/// A fixed-capacity packet buffer for one core.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    bytes: BytesMut,
    capacity: usize,
    overflowed: bool,
    dropped_packets: u64,
    total_packets: u64,
}

impl TraceBuffer {
    /// Creates a buffer with the default 2 MB capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a buffer with an explicit capacity in bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            bytes: BytesMut::new(),
            capacity,
            overflowed: false,
            dropped_packets: 0,
            total_packets: 0,
        }
    }

    /// Appends a packet. Returns `false` if the packet was dropped because
    /// the buffer is full (an OVF marker is then written exactly once;
    /// space for it is reserved out of the capacity).
    pub fn push(&mut self, p: &Packet) -> bool {
        if !self.admit(p.encoded_len()) {
            return false;
        }
        p.encode(&mut self.bytes);
        true
    }

    /// Appends a short TNT packet carrying `bits` (1..=6 branch outcomes),
    /// exactly as `push(&Packet::Tnt { bits })` would, without building
    /// the packet.
    pub fn push_tnt(&mut self, bits: &[bool]) -> bool {
        // A short TNT packet encodes to one byte.
        if !self.admit(1) {
            return false;
        }
        self.bytes.put_u8(tnt_byte(bits));
        true
    }

    /// Counts one offered packet of `need` bytes and reports whether it
    /// fits; a packet that does not fit is dropped, and the first drop
    /// writes the OVF marker.
    fn admit(&mut self, need: usize) -> bool {
        self.total_packets += 1;
        let reserve = Packet::Ovf.encoded_len();
        if self.overflowed || self.bytes.len() + need + reserve > self.capacity {
            if !self.overflowed {
                self.overflowed = true;
                Packet::Ovf.encode(&mut self.bytes);
            }
            self.dropped_packets += 1;
            return false;
        }
        true
    }

    /// Bytes currently in the buffer.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The buffer's capacity limit in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// True if packets were lost.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Number of dropped packets.
    pub fn dropped(&self) -> u64 {
        self.dropped_packets
    }

    /// Total packets offered (kept + dropped).
    pub fn offered(&self) -> u64 {
        self.total_packets
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Drains the buffer, returning its bytes and resetting state. This is
    /// the "kernel driver hands the trace to Gist" step. Zero-copy: the
    /// returned `Vec` is the buffer's backing allocation.
    pub fn take(&mut self) -> Vec<u8> {
        let out = self.bytes.split().into_vec();
        self.reset_counts();
        out
    }

    /// Empties the buffer and resets its state, keeping its allocation:
    /// the driver's buffer stays allocated between runs (§4).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.reset_counts();
    }

    fn reset_counts(&mut self) {
        self.overflowed = false;
        self.dropped_packets = 0;
        self.total_packets = 0;
    }
}

impl AsRef<[u8]> for TraceBuffer {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::InstrId;

    #[test]
    fn push_accumulates_bytes() {
        let mut b = TraceBuffer::new();
        assert!(b.is_empty());
        assert!(b.push(&Packet::Psb));
        assert!(b.push(&Packet::Pge { ip: InstrId(1) }));
        assert_eq!(b.len(), 16 + 5);
        assert!(!b.overflowed());
    }

    #[test]
    fn overflow_drops_and_marks_once() {
        let mut b = TraceBuffer::with_capacity(20);
        assert!(b.push(&Packet::Psb)); // 16 bytes
                                       // TIP (5B) does not fit in the remaining 4.
        assert!(!b.push(&Packet::Tip { ip: InstrId(1) }));
        assert!(b.overflowed());
        assert_eq!(b.dropped(), 1);
        // OVF marker (2B) was appended.
        assert_eq!(b.len(), 18);
        // Everything after the overflow is dropped, even if it would fit.
        assert!(!b.push(&Packet::Tnt { bits: vec![true] }));
        assert_eq!(b.dropped(), 2);
        assert_eq!(b.len(), 18);
        // The stream still decodes, ending with OVF.
        let pkts = Packet::decode_all(b.as_bytes()).unwrap();
        assert_eq!(pkts.last(), Some(&Packet::Ovf));
    }

    #[test]
    fn take_resets_buffer() {
        let mut b = TraceBuffer::with_capacity(20);
        b.push(&Packet::Psb);
        b.push(&Packet::Tip { ip: InstrId(1) }); // overflow
        let bytes = b.take();
        assert!(!bytes.is_empty());
        assert!(b.is_empty());
        assert!(!b.overflowed());
        assert_eq!((b.offered(), b.dropped()), (0, 0));
        assert!(b.push(&Packet::Tip { ip: InstrId(2) }));
    }

    #[test]
    fn clear_resets_buffer_like_a_new_one() {
        let mut b = TraceBuffer::with_capacity(20);
        b.push(&Packet::Psb);
        b.push(&Packet::Tip { ip: InstrId(1) }); // overflow
        b.clear();
        assert!(b.is_empty());
        assert!(!b.overflowed());
        assert_eq!((b.offered(), b.dropped()), (0, 0));
        let mut fresh = TraceBuffer::with_capacity(20);
        for p in [Packet::Psb, Packet::Tip { ip: InstrId(2) }] {
            assert_eq!(b.push(&p), fresh.push(&p));
        }
        assert_eq!(b.as_bytes(), fresh.as_bytes());
        assert_eq!(b.as_ref(), fresh.as_bytes());
    }

    #[test]
    fn push_tnt_matches_push_of_a_tnt_packet() {
        for cap in [4, 18, 19, 20, 64] {
            let mut a = TraceBuffer::with_capacity(cap);
            let mut b = TraceBuffer::with_capacity(cap);
            for i in 0..12usize {
                let bits: Vec<bool> = (0..1 + i % 6).map(|j| (i + j) % 3 == 0).collect();
                if i % 5 == 0 {
                    assert_eq!(a.push(&Packet::Psb), b.push(&Packet::Psb));
                }
                assert_eq!(
                    a.push(&Packet::Tnt { bits: bits.clone() }),
                    b.push_tnt(&bits)
                );
            }
            assert_eq!(a.as_bytes(), b.as_bytes(), "capacity {cap}");
            assert_eq!(
                (a.offered(), a.dropped(), a.overflowed()),
                (b.offered(), b.dropped(), b.overflowed())
            );
        }
    }

    #[test]
    fn offered_counts_everything() {
        let mut b = TraceBuffer::with_capacity(4);
        b.push(&Packet::Tnt { bits: vec![true] });
        b.push(&Packet::Psb);
        assert_eq!(b.offered(), 2);
    }
}
