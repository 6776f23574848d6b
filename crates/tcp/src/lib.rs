//! # nfsperf-tcp — a deterministic TCP connection model
//!
//! A byte-stream transport layered on `nfsperf-net`'s datagram NICs, built
//! for the UDP-vs-TCP transport experiments: every mechanism that shapes
//! NFS-over-TCP write throughput is modeled (three-way-handshake setup
//! cost, ACK-clocked in-order delivery, slow start + AIMD congestion
//! window, RTO with Jacobson/Karels estimation and Karn's rule, fast
//! retransmit on triple duplicate ACK, reconnection after failure), while
//! everything irrelevant to the reproduction is not (no receive-window flow
//! control, no delayed ACKs, no TIME-WAIT, 64-bit never-wrapping sequence
//! numbers).
//!
//! Segments travel as ordinary `nfsperf-net` datagrams, so they share the
//! UDP stack's serialization, latency, IP-fragmentation and seeded-loss
//! models — a lost datagram costs TCP one segment, where it costs the UDP
//! RPC transport the entire RPC. That asymmetry is the point of the
//! `experiments::transport` loss sweep.
//!
//! Everything is single-threaded and deterministic: same seeds, same wire
//! schedule, bit-for-bit.

mod conn;
mod endpoint;
pub mod segment;

pub use conn::{TcpConfig, TcpConn, TcpError};
pub use endpoint::{TcpEndpoint, TcpStats};

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use nfsperf_net::{Nic, NicSpec, Path};
    use nfsperf_sim::{Sim, SimDuration};

    use crate::{TcpConfig, TcpConn, TcpEndpoint, TcpError, TcpStats};

    /// Builds a client/server endpoint pair. Loss applies to datagrams the
    /// client NIC transmits (requests and the client's ACKs).
    fn world(loss: f64) -> (Sim, Rc<TcpEndpoint>, Rc<TcpEndpoint>) {
        let sim = Sim::new();
        let (client_nic, client_rx) = Nic::with_loss(&sim, "client", NicSpec::gigabit(), loss, 42);
        let (server_nic, server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let c2s = Path::new(client_nic, server_nic, Path::default_latency());
        let s2c = c2s.reversed();
        let client = TcpEndpoint::new(&sim, c2s, client_rx, TcpConfig::for_mtu(1500));
        let server = TcpEndpoint::new(&sim, s2c, server_rx, TcpConfig::for_mtu(1500));
        (sim, client, server)
    }

    async fn recv_exactly(conn: &Rc<TcpConn>, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(conn.recv_some().await.expect("stream ended early"));
        }
        out
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn handshake_and_echo() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let req = recv_exactly(&conn, 5).await;
                conn.send(&req).unwrap();
                req
            }
        });
        let (elapsed, echoed) = sim.run_until({
            let sim = sim.clone();
            async move {
                let t0 = sim.now();
                let conn = client.connect().await.unwrap();
                let setup = sim.now() - t0;
                conn.send(b"hello").unwrap();
                let reply = recv_exactly(&conn, 5).await;
                assert_eq!(reply, b"hello");
                (setup, server_task.await)
            }
        });
        assert_eq!(echoed, b"hello");
        // Handshake costs at least one round trip but well under a
        // millisecond on an idle gigabit link with 30 us propagation.
        assert!(elapsed >= SimDuration::from_micros(60), "setup {elapsed:?}");
        assert!(elapsed < SimDuration::from_millis(1), "setup {elapsed:?}");
    }

    /// Runs a one-way bulk transfer and returns (elapsed, stats).
    fn bulk(loss: f64, size: usize) -> (SimDuration, TcpStats) {
        let (sim, client, server) = world(loss);
        let data = payload(size);
        let expect = data.clone();
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await
            }
        });
        let received = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(&data).unwrap();
                server_task.await
            }
        });
        assert_eq!(received, expect, "stream corrupted");
        (sim.now() - nfsperf_sim::SimTime::ZERO, client.stats())
    }

    #[test]
    fn lossless_bulk_transfer_never_retransmits() {
        let (elapsed, stats) = bulk(0.0, 512 * 1024);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.rto_timeouts, 0);
        // 512 KB at ~1 Gb/s is ~4 ms; slow start and ACK clocking may
        // stretch it, but it must stay in the same order of magnitude.
        assert!(elapsed < SimDuration::from_millis(60), "took {elapsed:?}");
    }

    #[test]
    fn heavy_loss_recovers_every_byte() {
        let (_elapsed, stats) = bulk(0.2, 100 * 1024);
        assert!(stats.retransmits > 0, "expected retransmissions: {stats:?}");
        assert!(
            stats.rto_timeouts > 0 || stats.fast_retransmits > 0,
            "loss recovered without any recovery mechanism firing: {stats:?}"
        );
    }

    #[test]
    fn moderate_loss_uses_fast_retransmit() {
        let (_elapsed, stats) = bulk(0.02, 512 * 1024);
        assert!(
            stats.fast_retransmits > 0,
            "expected triple-dup-ACK recovery: {stats:?}"
        );
    }

    #[test]
    fn slow_start_opens_the_window() {
        let (sim, client, server) = world(0.0);
        let size = 256 * 1024;
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await.len()
            }
        });
        let (initial_cwnd, final_cwnd) = sim.run_until(async move {
            let conn = client.connect().await.unwrap();
            let initial = conn.cwnd();
            conn.send(&payload(size)).unwrap();
            server_task.await;
            (initial, conn.cwnd())
        });
        assert!(final_cwnd > initial_cwnd, "{initial_cwnd} -> {final_cwnd}");
        assert!(final_cwnd <= 64 * 1024, "cwnd exceeded cap: {final_cwnd}");
    }

    #[test]
    fn connect_gives_up_when_peer_is_gone() {
        let sim = Sim::new();
        let (client_nic, client_rx) = Nic::new(&sim, "client", NicSpec::gigabit());
        // The server NIC exists but nothing reads or answers it.
        let (server_nic, _server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let path = Path::new(client_nic, server_nic, Path::default_latency());
        let client = TcpEndpoint::new(&sim, path, client_rx, TcpConfig::for_mtu(1500));
        let err = sim.run_until(async move { client.connect().await.err().unwrap() });
        assert_eq!(err, TcpError::ConnectTimedOut);
        // 5 retries with doubling backoff from 1 s: 1+2+4+8+16+32 = 63 s.
        assert_eq!(
            sim.now() - nfsperf_sim::SimTime::ZERO,
            SimDuration::from_secs(63)
        );
    }

    #[test]
    fn abort_resets_the_peer() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let first = recv_exactly(&conn, 4).await;
                let err = loop {
                    match conn.recv_some().await {
                        Ok(_) => continue,
                        Err(e) => break e,
                    }
                };
                (first, err)
            }
        });
        let (first, err) = sim.run_until({
            let sim = sim.clone();
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(b"data").unwrap();
                // Give the bytes time to arrive, then kill the connection.
                sim.sleep(SimDuration::from_millis(5)).await;
                conn.abort();
                assert!(!conn.is_open());
                server_task.await
            }
        });
        assert_eq!(first, b"data");
        assert_eq!(err, TcpError::Reset);
    }

    #[test]
    fn close_delivers_end_of_stream() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let data = recv_exactly(&conn, 4).await;
                let end = conn.recv_some().await.unwrap_err();
                (data, end)
            }
        });
        let (data, end) = sim.run_until({
            let sim = sim.clone();
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(b"done").unwrap();
                sim.sleep(SimDuration::from_millis(5)).await;
                conn.close();
                server_task.await
            }
        });
        assert_eq!(data, b"done");
        assert_eq!(end, TcpError::Closed);
    }

    #[test]
    fn ack_for_unsent_data_is_dropped() {
        use crate::segment::{Segment, FLAG_ACK};

        let (sim, client, server) = world(0.0);
        let size = 64 * 1024;
        let data = payload(size);
        let expect = data.clone();
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await
            }
        });
        let received = sim.run_until(async move {
            let conn = client.connect().await.unwrap();
            conn.send(&data).unwrap();
            let (nxt, end) = conn.send_seqs();
            assert!(nxt < end, "the window holds part of the send back");
            // Acknowledge bytes queued but not sent, then bytes past the
            // end of the stream.
            for ack in [nxt + 1, end + 1000] {
                conn.on_segment(&Segment {
                    conn_id: conn.id(),
                    seq: 1,
                    ack,
                    flags: FLAG_ACK,
                    payload: &[],
                });
            }
            server_task.await
        });
        assert_eq!(received, expect, "stream corrupted");
    }

    #[test]
    fn lossy_transfer_is_deterministic() {
        let a = bulk(0.05, 200 * 1024);
        let b = bulk(0.05, 200 * 1024);
        assert_eq!(a.0, b.0, "elapsed time diverged");
        assert_eq!(a.1, b.1, "transport stats diverged");
    }

    #[test]
    fn a_full_segment_fills_the_pools_segment_class_exactly() {
        let mss = TcpConfig::for_mtu(1500).mss;
        assert_eq!(crate::segment::HEADER_LEN + mss, nfsperf_net::SEGMENT_BYTES);
    }

    #[test]
    fn data_segments_travel_in_segment_sized_buffers() {
        // Only WRITE-sized buffers in the pool: a segment that drew from
        // it would carry 1,472 bytes in an 8 KiB allocation.
        for _ in 0..64 {
            nfsperf_net::pool_put(Vec::with_capacity(8 << 10));
        }
        let sim = Sim::new();
        let (client_nic, client_rx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (server_nic, server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let c2s = Path::new(client_nic, server_nic, Path::default_latency());
        let s2c = c2s.reversed();
        let config = TcpConfig::for_mtu(1500);
        let most = config.mss + crate::segment::HEADER_LEN;
        let client = TcpEndpoint::new(&sim, c2s, client_rx, config);
        // Every datagram the server NIC receives passes the capacity
        // check on its way to the server endpoint.
        let (relay_tx, relay_rx) = nfsperf_sim::channel();
        let server = TcpEndpoint::new(&sim, s2c, relay_rx, config);
        let seen = Rc::new(std::cell::Cell::new((0, 0)));
        sim.spawn_detached({
            let seen = Rc::clone(&seen);
            async move {
                while let Some(datagram) = server_rx.recv().await {
                    if datagram.len() > crate::segment::HEADER_LEN {
                        let (n, widest) = seen.get();
                        seen.set((n + 1, widest.max(datagram.capacity())));
                    }
                    relay_tx.send(datagram);
                }
            }
        });
        let size = 64 * 1024;
        let data = payload(size);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await
            }
        });
        let received = sim.run_until(async move {
            let conn = client.connect().await.unwrap();
            conn.send(&data).unwrap();
            server_task.await
        });
        assert_eq!(received.len(), size);
        let (data_segments, widest) = seen.get();
        assert!(
            data_segments >= size / most,
            "{data_segments} data segments"
        );
        assert!(
            widest <= most,
            "a data segment's buffer holds {widest} bytes (header + MSS = {most})"
        );
    }
}
