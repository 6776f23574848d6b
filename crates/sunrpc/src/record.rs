//! RFC 1831 §10 record marking: framing RPC messages on a byte stream.
//!
//! TCP gives the RPC layer a byte stream with no message boundaries, so
//! each RPC message travels as a *record*: a sequence of fragments, each
//! preceded by a 4-byte big-endian header whose low 31 bits are the
//! fragment length and whose top bit marks the record's last fragment.
//!
//! The writer side normally emits one maximal fragment per message. A
//! transport writes the [`record_marker`] and then the message onto the
//! stream (`TcpConn::send_vectored`), which puts the same bytes on the
//! wire as [`encode_record`] without building the framed copy.
//! [`encode_record_frags`] exists to exercise multi-fragment records,
//! which a conforming reader must accept at any fragment boundaries.
//!
//! The reader ([`RecordReader`]) is incremental: feed it stream bytes as
//! they arrive, either pushed or appended in place by the transport
//! ([`RecordReader::stream_mut`]), and pull out complete records as they
//! become available. It keeps a read offset into its buffer. Each record
//! comes out as one copy of its body into a pooled buffer, and consumed
//! bytes are reclaimed lazily, only once they outweigh the unread rest,
//! so taking a record never shifts the bytes behind it.

use nfsperf_net::pool_get;

/// Top bit of the fragment header: this fragment completes the record.
pub const LAST_FRAGMENT: u32 = 0x8000_0000;

/// Largest fragment body expressible in the 31-bit length field.
pub const MAX_FRAGMENT: usize = 0x7fff_ffff;

/// Frames one RPC message as a single-fragment record.
pub fn encode_record(msg: &[u8]) -> Vec<u8> {
    encode_record_frags(msg, MAX_FRAGMENT)
}

/// The fragment header that frames a `len`-byte message as a
/// single-fragment record: write it, then the message.
///
/// # Panics
///
/// Panics if `len` exceeds [`MAX_FRAGMENT`].
pub fn record_marker(len: usize) -> [u8; 4] {
    assert!(
        len <= MAX_FRAGMENT,
        "message of {len} bytes exceeds one fragment"
    );
    (len as u32 | LAST_FRAGMENT).to_be_bytes()
}

/// Splits a fragment header into its body length and last-fragment flag.
fn fragment_header(bytes: &[u8]) -> (usize, bool) {
    let header = u32::from_be_bytes(bytes.try_into().expect("a 4-byte fragment header"));
    (
        (header & !LAST_FRAGMENT) as usize,
        header & LAST_FRAGMENT != 0,
    )
}

/// Frames one RPC message as a record of fragments of at most `max_frag`
/// bytes each. An empty message still produces one (empty) last fragment.
pub fn encode_record_frags(msg: &[u8], max_frag: usize) -> Vec<u8> {
    assert!(
        (1..=MAX_FRAGMENT).contains(&max_frag),
        "fragment size {max_frag} out of range"
    );
    let mut out = Vec::with_capacity(msg.len() + 8);
    let mut off = 0;
    loop {
        let len = (msg.len() - off).min(max_frag);
        let last = off + len == msg.len();
        let header = len as u32 | if last { LAST_FRAGMENT } else { 0 };
        out.extend_from_slice(&header.to_be_bytes());
        out.extend_from_slice(&msg[off..off + len]);
        off += len;
        if last {
            return out;
        }
    }
}

/// Incremental record parser for one direction of a stream connection.
///
/// Bytes go in via [`push`](RecordReader::push) or
/// [`stream_mut`](RecordReader::stream_mut) in whatever chunks the
/// transport delivers; complete records come out of
/// [`next_record`](RecordReader::next_record). Partial headers, partial
/// fragments and records split across many pushes are all handled.
#[derive(Debug, Default)]
pub struct RecordReader {
    stream: Vec<u8>,
    /// Bytes at the front of `stream` already returned as records.
    read: usize,
}

impl RecordReader {
    /// Creates an empty reader.
    pub fn new() -> RecordReader {
        RecordReader::default()
    }

    /// Appends bytes received from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.stream_mut().extend_from_slice(bytes);
    }

    /// The stream buffer, for a transport to append received bytes to in
    /// place (`TcpConn::recv_into`). Callers may only append. Consumed
    /// bytes are reclaimed first, so a reader holding no partial record
    /// hands out an empty buffer, which the transport can swap for its
    /// own.
    pub fn stream_mut(&mut self) -> &mut Vec<u8> {
        let unread = self.stream.len() - self.read;
        if unread == 0 {
            self.stream.clear();
            self.read = 0;
        } else if self.read >= unread {
            // Shifting the unread rest costs no more than the bytes
            // consumed since the last shift.
            self.stream.drain(..self.read);
            self.read = 0;
        }
        &mut self.stream
    }

    /// Extracts the next complete record, if the stream holds one.
    pub fn next_record(&mut self) -> Option<Vec<u8>> {
        // Find the end of the record's last fragment before consuming
        // anything: a partial record stays in the stream as it arrived.
        let unread = &self.stream[self.read..];
        let mut end = 0;
        loop {
            let (len, last) = fragment_header(unread.get(end..end + 4)?);
            if unread.len() < end + 4 + len {
                return None;
            }
            end += 4 + len;
            if last {
                break;
            }
        }
        let mut record = pool_get();
        let mut at = 0;
        while at < end {
            let (len, _) = fragment_header(&unread[at..at + 4]);
            record.extend_from_slice(&unread[at + 4..at + 4 + len]);
            at += 4 + len;
        }
        self.read += end;
        Some(record)
    }

    /// Bytes buffered but not yet returned as a record.
    pub fn buffered(&self) -> usize {
        self.stream.len() - self.read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fragment_round_trip() {
        let msg = b"call body".to_vec();
        let wire = encode_record(&msg);
        assert_eq!(wire.len(), msg.len() + 4);
        assert_eq!(wire[0] & 0x80, 0x80, "last-fragment bit set");
        let mut rd = RecordReader::new();
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), msg);
        assert_eq!(rd.next_record(), None);
        assert_eq!(rd.buffered(), 0);
    }

    #[test]
    fn empty_record_round_trips() {
        let wire = encode_record(&[]);
        assert_eq!(wire, 0x8000_0000u32.to_be_bytes());
        let mut rd = RecordReader::new();
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_fragment_and_byte_at_a_time_delivery() {
        let msg: Vec<u8> = (0..100u8).collect();
        let wire = encode_record_frags(&msg, 7);
        // 100 bytes in 7-byte fragments: 15 headers.
        assert_eq!(wire.len(), msg.len() + 15 * 4);
        let mut rd = RecordReader::new();
        let mut out = Vec::new();
        for b in &wire {
            rd.push(std::slice::from_ref(b));
            if let Some(r) = rd.next_record() {
                out.push(r);
            }
        }
        assert_eq!(out, vec![msg]);
    }

    #[test]
    fn back_to_back_records_stay_separate() {
        let a = vec![1u8; 10];
        let b = vec![2u8; 20];
        let mut rd = RecordReader::new();
        let mut wire = encode_record_frags(&a, 4);
        wire.extend(encode_record(&b));
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), a);
        assert_eq!(rd.next_record().unwrap(), b);
        assert_eq!(rd.next_record(), None);
    }
}
