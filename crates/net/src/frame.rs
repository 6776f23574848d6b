//! Wire-size arithmetic: UDP/IP fragmentation and Ethernet framing.
//!
//! The paper suspects IP fragmentation as a major part of the 50 µs
//! per-RPC network cost and points at jumbo frames as the remedy; getting
//! fragment counts right therefore matters. An `rsize=wsize=8192` NFSv3
//! WRITE over UDP is an ~8.25 KB datagram, which at the standard 1500-byte
//! MTU fragments into six IP fragments; with 9000-byte jumbo frames it
//! fits in one.

use std::cell::RefCell;

/// IPv4 header bytes per fragment.
pub const IP_HEADER: usize = 20;
/// UDP header bytes (first fragment only).
pub const UDP_HEADER: usize = 8;
/// Ethernet overhead per frame: 14 header + 4 FCS + 8 preamble + 12
/// inter-frame gap.
pub const ETHERNET_OVERHEAD: usize = 38;

/// Number of IP fragments needed to carry a UDP payload of `udp_payload`
/// bytes at the given `mtu`.
///
/// Fragment payloads are multiples of 8 bytes except the last (RFC 791).
///
/// # Panics
///
/// Panics if `mtu` cannot carry any payload (≤ [`IP_HEADER`]).
pub fn fragments_for(udp_payload: usize, mtu: usize) -> usize {
    assert!(mtu > IP_HEADER + 8, "mtu {mtu} too small to fragment into");
    let total = udp_payload + UDP_HEADER;
    // Per-fragment IP payload, rounded down to an 8-byte boundary.
    let per_frag = (mtu - IP_HEADER) & !7;
    total.div_ceil(per_frag).max(1)
}

/// Total bytes on the wire (including all framing) for a UDP datagram of
/// `udp_payload` bytes sent at the given `mtu`.
pub fn wire_bytes(udp_payload: usize, mtu: usize) -> usize {
    let frags = fragments_for(udp_payload, mtu);
    udp_payload + UDP_HEADER + frags * (IP_HEADER + ETHERNET_OVERHEAD)
}

/// Capacity of a segment-class pool buffer: the largest datagram one
/// IP fragment carries at the standard 1,500-byte MTU. That is exactly a
/// full TCP data segment there (the simulated 24-byte header plus a
/// 1,448-byte MSS), so a segment in flight pins no more than it sends.
pub const SEGMENT_BYTES: usize = 1500 - IP_HEADER - UDP_HEADER;

/// Free list of wire-payload buffers, filed in two size classes.
///
/// Steady-state WRITE/COMMIT traffic moves one `Vec<u8>` datagram per
/// transmission; without recycling, every RPC allocates (and frees) its
/// payload, its retransmit copies, and its reply. The pool keeps
/// retired buffers (capacity intact, length zeroed) on bounded
/// per-thread free lists so the steady state reuses them instead.
/// Thread-local because each sweep cell runs its whole simulation on
/// one worker thread; pooling never crosses simulations.
///
/// [`pool_put`] files each buffer by capacity: one of at most
/// [`SEGMENT_BYTES`] goes to the *segment* class, anything larger to the
/// *large* class. Most large buffers are WRITE-sized, 8 KiB and up: the
/// CALL messages and the records they arrive in. A TCP data segment is
/// at most [`SEGMENT_BYTES`] at the standard MTU, and a window of them
/// is in flight per connection, so drawing segments from the large
/// class would pin an 8 KiB buffer for every 1.5 KB on the wire.
/// [`pool_get_for`] keeps them apart.
///
/// The contract has two halves. Producers draw from the pool: the RPC
/// encoders write CALL and REPLY messages into [`pool_get`] (large
/// class) buffers, transports copy with [`pool_copy`], reassembled
/// records come from the large class, and TCP segments from
/// [`pool_get_for`]. Every consumer of a datagram or reply body returns
/// it with [`pool_put`] once it is done: the server after decoding a
/// call, the reply sinks after sending, the TCP endpoint after reading a
/// data segment, the client transport after parsing a reply header or
/// dropping an orphan, and the mount after decoding a result body. A
/// buffer dropped instead is only a missed reuse, never a leak, but the
/// 8 KiB WRITE buffers then churn the heap once per RPC.
const POOL_CAP: usize = 64;

/// The two free lists, each bounded at `POOL_CAP`.
struct Pool {
    /// Buffers of capacity at most [`SEGMENT_BYTES`].
    segments: Vec<Vec<u8>>,
    /// Everything larger.
    large: Vec<Vec<u8>>,
}

thread_local! {
    static PAYLOAD_POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            segments: Vec::new(),
            large: Vec::new(),
        })
    };
}

/// Takes an empty large-class buffer from the payload pool (or a fresh,
/// unallocated one when that class is dry). The buffer's capacity is
/// whatever its previous life grew it to.
pub fn pool_get() -> Vec<u8> {
    PAYLOAD_POOL
        .with(|p| p.borrow_mut().large.pop())
        .unwrap_or_default()
}

/// Takes an empty buffer that holds `bytes` without growing. Up to
/// [`SEGMENT_BYTES`] it comes from the segment class and its capacity is
/// exactly [`SEGMENT_BYTES`]: a fresh one is allocated at that size,
/// and a smaller one filed there is grown to it. Larger requests (a
/// segment at a jumbo MTU) come from the large class.
pub fn pool_get_for(bytes: usize) -> Vec<u8> {
    if bytes > SEGMENT_BYTES {
        let mut buf = pool_get();
        buf.reserve(bytes);
        return buf;
    }
    let mut buf = PAYLOAD_POOL
        .with(|p| p.borrow_mut().segments.pop())
        .unwrap_or_default();
    buf.reserve_exact(SEGMENT_BYTES);
    buf
}

/// Copies `bytes` into a pooled buffer — the allocation-free spelling of
/// `bytes.to_vec()` once the pool has warmed up.
pub fn pool_copy(bytes: &[u8]) -> Vec<u8> {
    let mut buf = pool_get();
    buf.extend_from_slice(bytes);
    buf
}

/// Returns a retired buffer to the pool, filed by its capacity. Buffers
/// that never allocated are dropped, and each class is bounded at
/// `POOL_CAP` so a burst cannot pin memory forever.
pub fn pool_put(mut buf: Vec<u8>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    PAYLOAD_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let class = if buf.capacity() <= SEGMENT_BYTES {
            &mut pool.segments
        } else {
            &mut pool.large
        };
        if class.len() < POOL_CAP {
            class.push(buf);
        }
    });
}

/// Buffers currently parked in this thread's pool, both classes (for
/// tests).
pub fn pool_len() -> usize {
    PAYLOAD_POOL.with(|p| {
        let pool = p.borrow();
        pool.segments.len() + pool.large.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empties this thread's pool so a test's counts are its own.
    fn drain_pool() {
        PAYLOAD_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            pool.segments.clear();
            pool.large.clear();
        });
    }

    #[test]
    fn payload_pool_recycles_capacity() {
        drain_pool();
        let mut buf = pool_get();
        buf.extend_from_slice(&[7; 4096]);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        pool_put(buf);
        let reused = pool_copy(&[9, 9]);
        assert_eq!(reused.as_ptr(), ptr, "pooled buffer is reused");
        assert!(reused.capacity() >= cap);
        assert_eq!(reused, vec![9, 9], "cleared before reuse");
        pool_put(reused);
        assert_eq!(pool_len(), 1);
        pool_put(Vec::new());
        assert_eq!(pool_len(), 1, "an unallocated buffer is not kept");
    }

    #[test]
    fn segment_buffers_never_come_from_the_large_class() {
        drain_pool();
        for _ in 0..4 {
            pool_put(Vec::with_capacity(8 << 10));
        }
        let seg = pool_get_for(SEGMENT_BYTES);
        assert_eq!(seg.capacity(), SEGMENT_BYTES, "fresh at segment size");
        assert_eq!(pool_len(), 4, "the WRITE-sized buffers stay put");
        let ptr = seg.as_ptr();
        pool_put(seg);
        let small = pool_get_for(64);
        assert_eq!(small.as_ptr(), ptr, "a retired segment is reused");
        assert_eq!(small.capacity(), SEGMENT_BYTES);
        // A small buffer filed in the segment class is grown to the
        // class size when drawn, so every segment buffer is alike.
        pool_put(Vec::with_capacity(100));
        assert_eq!(pool_get_for(1).capacity(), SEGMENT_BYTES);
        // A request past the class (a jumbo-MTU segment) is large.
        assert!(pool_get_for(SEGMENT_BYTES + 1).capacity() >= 8 << 10);
        assert_eq!(pool_len(), 3);
        drain_pool();
    }

    #[test]
    fn segment_class_is_one_standard_mtu_fragment() {
        assert_eq!(fragments_for(SEGMENT_BYTES, 1500), 1);
        assert_eq!(fragments_for(SEGMENT_BYTES + 1, 1500), 2);
    }

    #[test]
    fn small_datagram_is_one_fragment() {
        assert_eq!(fragments_for(100, 1500), 1);
        assert_eq!(wire_bytes(100, 1500), 100 + 8 + 20 + 38);
    }

    #[test]
    fn write_rpc_fragments_six_ways_at_standard_mtu() {
        // An 8 KiB WRITE3 body plus RPC header is ~8.3 KB.
        let rpc = 8192 + 56 + 120;
        assert_eq!(fragments_for(rpc, 1500), 6);
    }

    #[test]
    fn jumbo_frames_eliminate_fragmentation() {
        let rpc = 8192 + 56 + 120;
        assert_eq!(fragments_for(rpc, 9000), 1);
        assert!(wire_bytes(rpc, 9000) < wire_bytes(rpc, 1500));
    }

    #[test]
    fn fragment_boundary_exact_fit() {
        // 1480 bytes of IP payload fit exactly in one 1500-byte fragment.
        assert_eq!(fragments_for(1480 - UDP_HEADER, 1500), 1);
        assert_eq!(fragments_for(1480 - UDP_HEADER + 1, 1500), 2);
    }

    #[test]
    fn zero_payload_still_one_fragment() {
        assert_eq!(fragments_for(0, 1500), 1);
    }

    #[test]
    fn wire_bytes_monotonic_in_payload() {
        let mut prev = 0;
        for payload in (0..20_000).step_by(997) {
            let w = wire_bytes(payload, 1500);
            assert!(w >= prev);
            assert!(w > payload);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_mtu_panics() {
        fragments_for(100, 20);
    }
}
