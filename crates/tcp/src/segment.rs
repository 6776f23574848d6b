//! Wire format of the simulated TCP segment.
//!
//! Each segment travels as one `nfsperf-net` datagram payload, so it is
//! subject to the same serialization, propagation, loss and IP-fragmentation
//! model as a UDP datagram of the same size. The header is a fixed 24 bytes,
//! big-endian, chosen so that with the 20-byte IP and 8-byte UDP framing the
//! link layer adds, an MSS of `mtu - 52` keeps every full segment inside a
//! single IP fragment (1448 bytes at MTU 1500, 8948 at MTU 9000).
//!
//! Senders write the header with [`write_header`] and append the payload
//! straight behind it; receivers parse a [`Segment`] view whose payload
//! borrows the datagram, so a segment is never copied whole.

/// Synchronize: connection setup. Consumes sequence number 0.
pub const FLAG_SYN: u8 = 0x01;
/// The `ack` field is valid.
pub const FLAG_ACK: u8 = 0x02;
/// Sender is done sending (best-effort half close).
pub const FLAG_FIN: u8 = 0x04;
/// Abortive close; the receiver drops all connection state.
pub const FLAG_RST: u8 = 0x08;

/// Bytes of simulated TCP header per segment.
pub const HEADER_LEN: usize = 24;

/// One received simulated TCP segment, borrowed from its datagram.
///
/// Sequence numbers are 64-bit and never wrap: the SYN occupies sequence 0
/// in each direction and application data starts at sequence 1. `ack` is the
/// next sequence number the sender of the segment expects to receive
/// (cumulative acknowledgment), valid when [`FLAG_ACK`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Connection this segment belongs to; chosen by the active opener.
    pub conn_id: u32,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment: next expected sequence number.
    pub ack: u64,
    /// Bitwise OR of the `FLAG_*` constants.
    pub flags: u8,
    /// Application bytes carried, at most one MSS.
    pub payload: &'a [u8],
}

impl<'a> Segment<'a> {
    /// Parses a datagram payload into a view of the segment it carries.
    ///
    /// Returns `None` for payloads shorter than the fixed header (which a
    /// conforming peer never produces).
    pub fn decode(bytes: &'a [u8]) -> Option<Segment<'a>> {
        if bytes.len() < HEADER_LEN {
            return None;
        }
        Some(Segment {
            conn_id: u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
            seq: u64::from_be_bytes(bytes[4..12].try_into().unwrap()),
            ack: u64::from_be_bytes(bytes[12..20].try_into().unwrap()),
            flags: bytes[20],
            payload: &bytes[HEADER_LEN..],
        })
    }
}

/// Appends a segment header to `out`; the payload, if any, follows it.
pub fn write_header(out: &mut Vec<u8>, conn_id: u32, seq: u64, ack: u64, flags: u8) {
    out.extend_from_slice(&conn_id.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.extend_from_slice(&[flags, 0, 0, 0]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut wire = Vec::new();
        write_header(&mut wire, 7, 0x1_0000_0001, 42, FLAG_ACK | FLAG_FIN);
        assert_eq!(wire.len(), HEADER_LEN);
        wire.extend_from_slice(&[1, 2, 3, 4, 5]);
        let expect = Segment {
            conn_id: 7,
            seq: 0x1_0000_0001,
            ack: 42,
            flags: FLAG_ACK | FLAG_FIN,
            payload: &[1, 2, 3, 4, 5],
        };
        assert_eq!(Segment::decode(&wire).unwrap(), expect);
    }

    #[test]
    fn short_payload_rejected() {
        assert!(Segment::decode(&[0u8; HEADER_LEN - 1]).is_none());
    }
}
