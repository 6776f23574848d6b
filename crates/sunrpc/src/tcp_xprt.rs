//! The client-side RPC-over-TCP transport.
//!
//! Where the UDP transport ([`crate::xprt`]) must guess at loss with a
//! 700 ms retransmit timer and resend the *entire* RPC, the TCP transport
//! delegates reliability downward: while the connection is up there is **no
//! RPC-layer retransmit timer at all** — `nfsperf-tcp` retransmits lost
//! segments itself, so one dropped datagram costs one MSS of recovery
//! instead of a whole 8 KB WRITE plus a timeout. The RPC layer's only
//! reliability job is *connection death*: when the stream fails, the
//! transport re-establishes it and replays every pending request (new
//! connection, same xids), matching the Linux client's TCP behaviour.
//!
//! Calls are framed with RFC 1831 §10 record marking ([`crate::record`]).
//! Per-call CPU and lock costs mirror the UDP transport exactly — encode
//! under the BKL, `sock_sendmsg` under (or not under) the BKL per
//! [`XprtConfig::bkl_around_sendmsg`], interrupt + completion work per
//! reply — so a UDP-vs-TCP comparison isolates the *transport* difference.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use nfsperf_kernel::Kernel;
use nfsperf_net::{pool_copy, pool_put, DatagramPayload, Path};
use nfsperf_sim::{Counter, Receiver, Semaphore, WaitQueue};
use nfsperf_tcp::{TcpConfig, TcpConn, TcpEndpoint, TcpStats};
use nfsperf_xdr::XdrEncode;

use crate::msg::{self, AuthUnix, ACCEPT_SUCCESS};
use crate::record::{self, RecordReader};
use crate::xprt::{RpcError, XprtConfig, XprtStats};

struct Pending {
    reply: RefCell<Option<DatagramPayload>>,
    failed: Cell<bool>,
    arrived: WaitQueue,
}

/// State of the one connection this transport maintains.
#[derive(Clone)]
enum ConnState {
    /// No connection; the next call (or replay) establishes one.
    Down,
    /// A handshake is in flight; callers park on `conn_changed`.
    Connecting,
    /// Connected.
    Up(Rc<TcpConn>),
    /// Connection establishment exhausted its SYN retries; the transport
    /// is permanently failed and every call errors with `TimedOut`.
    Dead,
}

/// The client RPC transport over a [`TcpEndpoint`] connection.
pub struct TcpRpcXprt {
    kernel: Kernel,
    endpoint: Rc<TcpEndpoint>,
    cred: AuthUnix,
    config: XprtConfig,
    prog: u32,
    vers: u32,
    next_xid: Cell<u32>,
    pending: RefCell<HashMap<u32, Rc<Pending>>>,
    /// Encoded call bytes for every pending xid, kept for replay after a
    /// reconnect.
    sent: RefCell<HashMap<u32, Rc<Vec<u8>>>>,
    conn: RefCell<ConnState>,
    conn_changed: WaitQueue,
    slots: Rc<Semaphore>,
    calls: Counter,
    replies: Counter,
    orphans: Counter,
    replays: Counter,
    reconnects: Counter,
    ever_connected: Cell<bool>,
}

impl TcpRpcXprt {
    /// Creates a transport for program `prog` version `vers` over a fresh
    /// TCP endpoint on `path`/`rx`. The connection itself is established
    /// lazily by the first call.
    ///
    /// `config.initial_timeout`/`max_retries`/`max_timeout` are unused —
    /// they parameterize the UDP retransmit timer this transport does not
    /// have. Slot count and BKL behaviour apply as for UDP.
    pub fn new(
        kernel: &Kernel,
        path: Path,
        rx: Receiver<DatagramPayload>,
        prog: u32,
        vers: u32,
        config: XprtConfig,
    ) -> Rc<TcpRpcXprt> {
        let mtu = path.local.spec().mtu;
        let endpoint = TcpEndpoint::new(&kernel.sim, path, rx, TcpConfig::for_mtu(mtu));
        Rc::new(TcpRpcXprt {
            kernel: kernel.clone(),
            endpoint,
            cred: AuthUnix::root_on("nfsperf-client"),
            slots: Rc::new(Semaphore::new(config.slots)),
            config,
            prog,
            vers,
            next_xid: Cell::new(0x7c90_0000),
            pending: RefCell::new(HashMap::new()),
            sent: RefCell::new(HashMap::new()),
            conn: RefCell::new(ConnState::Down),
            conn_changed: WaitQueue::new(),
            calls: Counter::new(),
            replies: Counter::new(),
            orphans: Counter::new(),
            replays: Counter::new(),
            reconnects: Counter::new(),
            ever_connected: Cell::new(false),
        })
    }

    /// Issues one RPC and awaits the raw result bytes (after the reply
    /// header). Holds one transport slot for the full duration. There is
    /// no retransmit timer: the call completes when its reply record
    /// arrives, fails only if the connection can not be (re-)established.
    pub async fn call(
        self: &Rc<Self>,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> Result<DatagramPayload, RpcError> {
        let _slot = self.slots.acquire().await;
        self.calls.inc();

        let xid = self.next_xid.get();
        self.next_xid.set(xid.wrapping_add(1));

        let pending = Rc::new(Pending {
            reply: RefCell::new(None),
            failed: Cell::new(false),
            arrived: WaitQueue::new(),
        });
        self.pending.borrow_mut().insert(xid, Rc::clone(&pending));

        // Encode under the BKL, exactly like the UDP transport.
        let encoded = {
            let _guard = self.kernel.bkl.lock("rpc_xmit").await;
            self.kernel
                .cpus
                .work("rpc_encode", self.kernel.costs.rpc_encode)
                .await;
            Rc::new(msg::encode_call(
                xid, self.prog, self.vers, proc, &self.cred, args,
            ))
        };
        self.sent.borrow_mut().insert(xid, Rc::clone(&encoded));

        let outcome = match self.transmit(&encoded).await {
            Err(e) => Err(e),
            Ok(()) => loop {
                if let Some(r) = pending.reply.borrow_mut().take() {
                    break Ok(r);
                }
                if pending.failed.get() {
                    break Err(RpcError::TimedOut);
                }
                pending.arrived.wait().await;
            },
        };
        self.pending.borrow_mut().remove(&xid);
        self.sent.borrow_mut().remove(&xid);

        let payload = outcome?;
        let result = match msg::decode_reply(&payload) {
            Err(_) => Err(RpcError::Garbage),
            Ok((hdr, _)) if hdr.accept_stat != ACCEPT_SUCCESS => {
                Err(RpcError::Rejected(hdr.accept_stat))
            }
            Ok((_, dec)) => Ok(pool_copy(&payload[dec.position()..])),
        };
        pool_put(payload);
        result
    }

    /// Writes one encoded call to the connection, establishing it first if
    /// necessary.
    async fn transmit(self: &Rc<Self>, encoded: &[u8]) -> Result<(), RpcError> {
        let conn = self.ensure_conn().await?;
        self.sendmsg(&conn, encoded).await;
        // A send onto a connection that died in the meantime is not an
        // error: the death is (or will be) observed by the reader, which
        // replays every pending call on the replacement connection.
        Ok(())
    }

    /// Record-marks one encoded call onto `conn` with the configured
    /// `sock_sendmsg` cost and BKL behaviour.
    async fn sendmsg(&self, conn: &Rc<TcpConn>, encoded: &[u8]) {
        let _bkl = if self.config.bkl_around_sendmsg {
            Some(self.kernel.bkl.lock("rpc_xmit").await)
        } else {
            None
        };
        self.kernel
            .cpus
            .work("sock_sendmsg", self.kernel.costs.sock_sendmsg)
            .await;
        let _ = conn.send_vectored(&[&record::record_marker(encoded.len()), encoded]);
    }

    /// Returns the live connection, running the handshake if none exists.
    /// Exactly one task connects at a time; the rest wait. A failed
    /// handshake (SYN retries exhausted) is terminal: the transport goes
    /// `Dead` and all pending calls fail.
    async fn ensure_conn(self: &Rc<Self>) -> Result<Rc<TcpConn>, RpcError> {
        loop {
            let state = self.conn.borrow().clone();
            match state {
                ConnState::Up(c) if c.is_open() => return Ok(c),
                ConnState::Dead => return Err(RpcError::TimedOut),
                ConnState::Connecting => self.conn_changed.wait().await,
                _ => {
                    *self.conn.borrow_mut() = ConnState::Connecting;
                    match self.endpoint.connect().await {
                        Ok(c) => {
                            if self.ever_connected.get() {
                                self.reconnects.inc();
                            }
                            self.ever_connected.set(true);
                            *self.conn.borrow_mut() = ConnState::Up(Rc::clone(&c));
                            self.conn_changed.wake_all();
                            let me = Rc::clone(self);
                            let reader_conn = Rc::clone(&c);
                            self.kernel.sim.spawn(async move {
                                me.reader(reader_conn).await;
                            });
                            return Ok(c);
                        }
                        Err(_) => {
                            *self.conn.borrow_mut() = ConnState::Dead;
                            self.conn_changed.wake_all();
                            self.fail_all_pending();
                            return Err(RpcError::TimedOut);
                        }
                    }
                }
            }
        }
    }

    /// Per-connection reply reader: reassembles records from the stream,
    /// charges the same per-reply CPU/BKL costs as the UDP receive loop,
    /// and completes pending calls by xid. When the connection dies, kicks
    /// off reconnect-and-replay.
    async fn reader(self: Rc<Self>, conn: Rc<TcpConn>) {
        let mut records = RecordReader::new();
        while conn.recv_into(records.stream_mut()).await.is_ok() {
            while let Some(reply) = records.next_record() {
                self.kernel
                    .cpus
                    .work("net_interrupt", self.kernel.costs.interrupt)
                    .await;
                {
                    let _g = self.kernel.bkl.lock("rpc_reply").await;
                    self.kernel
                        .cpus
                        .work("rpc_reply", self.kernel.costs.rpc_reply)
                        .await;
                }
                let xid = match msg::peek_xid(&reply) {
                    Ok(x) => x,
                    Err(_) => continue,
                };
                let slot = self.pending.borrow().get(&xid).map(Rc::clone);
                match slot {
                    Some(p) => {
                        self.replies.inc();
                        *p.reply.borrow_mut() = Some(reply);
                        p.arrived.wake_all();
                    }
                    None => self.orphans.inc(),
                }
            }
        }
        self.on_conn_death(&conn);
    }

    fn on_conn_death(self: &Rc<Self>, conn: &Rc<TcpConn>) {
        let is_current =
            matches!(&*self.conn.borrow(), ConnState::Up(c) if Rc::ptr_eq(c, conn));
        if !is_current {
            return;
        }
        *self.conn.borrow_mut() = ConnState::Down;
        self.conn_changed.wake_all();
        if !self.pending.borrow().is_empty() {
            let me = Rc::clone(self);
            self.kernel.sim.spawn(async move {
                me.replay().await;
            });
        }
    }

    /// Re-sends every pending call, in xid order, on a fresh connection.
    /// The server may execute a replayed request twice; its second reply
    /// finds no pending xid and is counted as an orphan, like a duplicate
    /// UDP reply.
    async fn replay(self: Rc<Self>) {
        let Ok(conn) = self.ensure_conn().await else {
            // Reconnect failed: ensure_conn already failed all pending.
            return;
        };
        let mut xids: Vec<u32> = self.pending.borrow().keys().copied().collect();
        xids.sort_unstable();
        for xid in xids {
            // The call may have completed while we were reconnecting.
            let encoded = match self.sent.borrow().get(&xid) {
                Some(e) => Rc::clone(e),
                None => continue,
            };
            if !self.pending.borrow().contains_key(&xid) {
                continue;
            }
            self.replays.inc();
            self.sendmsg(&conn, &encoded).await;
        }
    }

    fn fail_all_pending(&self) {
        for p in self.pending.borrow().values() {
            p.failed.set(true);
            p.arrived.wake_all();
        }
    }

    /// Abortively closes the current connection (RST), as a fault
    /// injection hook for tests: pending calls replay on a fresh
    /// connection.
    pub fn abort_connection(&self) {
        let conn = match &*self.conn.borrow() {
            ConnState::Up(c) => Some(Rc::clone(c)),
            _ => None,
        };
        if let Some(c) = conn {
            c.abort();
        }
    }

    /// Snapshot of transport counters, shaped like the UDP transport's:
    /// `retransmits` counts whole-call replays after reconnects (the only
    /// RPC-level resend TCP ever does).
    pub fn stats(&self) -> XprtStats {
        XprtStats {
            calls: self.calls.get(),
            retransmits: self.replays.get(),
            replies: self.replies.get(),
            orphan_replies: self.orphans.get(),
        }
    }

    /// Connections re-established after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Counters of the underlying TCP endpoint.
    pub fn tcp_stats(&self) -> TcpStats {
        self.endpoint.stats()
    }

    /// Free transport slots right now.
    pub fn free_slots(&self) -> usize {
        self.slots.available()
    }

    /// Tasks queued waiting for a slot.
    pub fn queued_senders(&self) -> usize {
        self.slots.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_kernel::KernelConfig;
    use nfsperf_net::{Nic, NicSpec};
    use nfsperf_sim::{Sim, SimDuration, SimTime};

    /// A stream-side echo RPC server: accepts one connection after
    /// another, reassembles call records, replies with the called proc
    /// after `delay`.
    fn spawn_stream_echo_server(
        sim: &Sim,
        rx: Receiver<DatagramPayload>,
        reply_path: Path,
        delay: SimDuration,
    ) {
        let ep = TcpEndpoint::new(sim, reply_path, rx, TcpConfig::for_mtu(1500));
        let sim2 = sim.clone();
        sim.spawn(async move {
            while let Some(conn) = ep.accept().await {
                let sim3 = sim2.clone();
                sim2.spawn(async move {
                    let mut records = RecordReader::new();
                    loop {
                        let bytes = match conn.recv_some().await {
                            Ok(b) => b,
                            Err(_) => return,
                        };
                        records.push(&bytes);
                        while let Some(call) = records.next_record() {
                            let (hdr, _args) = msg::decode_call(&call).expect("parse call");
                            sim3.sleep(delay).await;
                            let reply = msg::encode_reply(hdr.xid, &hdr.proc);
                            let _ = conn.send(&record::encode_record(&reply));
                        }
                    }
                });
            }
        });
    }

    fn build(
        sim: &Sim,
        config: XprtConfig,
        server_delay: SimDuration,
    ) -> (Kernel, Rc<TcpRpcXprt>) {
        let kernel = Kernel::new(sim, KernelConfig::default());
        let (cnic, crx) = Nic::new(sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(sim, "server", NicSpec::gigabit());
        let to_server = Path::new(Rc::clone(&cnic), Rc::clone(&snic), Path::default_latency());
        spawn_stream_echo_server(sim, srx, to_server.reversed(), server_delay);
        let xprt = TcpRpcXprt::new(&kernel, to_server, crx, 100_003, 3, config);
        (kernel, xprt)
    }

    #[test]
    fn call_round_trips_over_tcp() {
        let sim = Sim::new();
        let (_k, xprt) = build(&sim, XprtConfig::default(), SimDuration::from_micros(100));
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &0xfeed_u32).await.unwrap() });
        let mut dec = nfsperf_xdr::Decoder::new(&res);
        assert_eq!(dec.get_u32().unwrap(), 7);
        let stats = xprt.stats();
        assert_eq!((stats.calls, stats.replies, stats.retransmits), (1, 1, 0));
        assert_eq!(xprt.tcp_stats().connects, 1);
    }

    #[test]
    fn slow_server_never_triggers_rpc_retransmit() {
        // Two seconds of server latency dwarfs the UDP transport's 700 ms
        // retransmit timer; over TCP the call just waits.
        let sim = Sim::new();
        let (_k, xprt) = build(&sim, XprtConfig::default(), SimDuration::from_secs(2));
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &1u32).await });
        assert!(res.is_ok());
        assert_eq!(xprt.stats().retransmits, 0, "no RPC-layer retransmit");
        assert_eq!(xprt.tcp_stats().retransmits, 0, "no TCP-layer retransmit");
        let elapsed = sim.now() - SimTime::ZERO;
        assert!(elapsed >= SimDuration::from_secs(2));
    }

    #[test]
    fn connection_death_replays_pending_calls() {
        let sim = Sim::new();
        let (_k, xprt) = build(&sim, XprtConfig::default(), SimDuration::from_millis(50));
        let x = Rc::clone(&xprt);
        let killer = Rc::clone(&xprt);
        let s = sim.clone();
        let res = sim.run_until(async move {
            let call = s.spawn(async move { x.call(9, &2u32).await });
            // Let the call reach the server-delay window, then kill the
            // connection under it.
            s.sleep(SimDuration::from_millis(10)).await;
            killer.abort_connection();
            call.await
        });
        let out = res.expect("call survives a connection reset");
        let mut dec = nfsperf_xdr::Decoder::new(&out);
        assert_eq!(dec.get_u32().unwrap(), 9);
        assert_eq!(xprt.stats().retransmits, 1, "one replay");
        assert_eq!(xprt.reconnects(), 1, "one reconnect");
        assert_eq!(xprt.tcp_stats().connects, 2);
    }

    #[test]
    fn unreachable_server_fails_calls() {
        let sim = Sim::new();
        let kernel = Kernel::new(&sim, KernelConfig::default());
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, _srx_dropped) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(cnic, snic, Path::default_latency());
        let xprt = TcpRpcXprt::new(&kernel, to_server, crx, 100_003, 3, XprtConfig::default());
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &1u32).await });
        assert_eq!(res, Err(RpcError::TimedOut));
        // And the transport is dead: later calls fail immediately.
        let x = Rc::clone(&xprt);
        let before = sim.now();
        let res = sim.run_until(async move { x.call(8, &1u32).await });
        assert_eq!(res, Err(RpcError::TimedOut));
        assert!(sim.now() - before < SimDuration::from_secs(1));
    }
}
