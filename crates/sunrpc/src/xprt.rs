//! The client-side RPC transport (`xprt`), modelled on Linux 2.4's
//! `net/sunrpc` UDP transport.
//!
//! Three properties matter to the paper and are modelled faithfully:
//!
//! 1. **Slot table**: at most [`XprtConfig::slots`] requests in flight
//!    (Linux 2.4: 16). When a slow server is attached the table empties
//!    slowly, senders park, and — this is the paper's §3.5 surprise — the
//!    *writer* runs free of lock contention, which is why memory-write
//!    throughput is *higher* against slower servers.
//! 2. **The global kernel lock**: the 2.4.4 RPC layer runs its whole
//!    transmit path, including `sock_sendmsg` (~50 µs of CPU), under the
//!    BKL. The paper's fix releases the lock around `sock_sendmsg`;
//!    [`XprtConfig::bkl_around_sendmsg`] selects either behaviour.
//! 3. **Reply processing**: every reply costs interrupt plus RPC
//!    completion CPU and briefly takes the BKL, so faster servers impose
//!    more client-side work per second.
//!
//! Retransmission uses the 2.4 defaults: 700 ms initial timeout with
//! exponential backoff.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use nfsperf_kernel::Kernel;
use nfsperf_net::{pool_copy, pool_put, DatagramPayload, Path};
use nfsperf_sim::{
    arbiter::Claim, drive_poll, select2, Counter, Either, Receiver, SemPermit, Semaphore,
    SimDuration,
};
use nfsperf_xdr::XdrEncode;

use crate::msg::{self, AuthUnix, ACCEPT_SUCCESS};
use crate::pending::PendingTable;

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct XprtConfig {
    /// Maximum in-flight requests (2.4 sunrpc slot-table size).
    pub slots: usize,
    /// Initial retransmit timeout.
    pub initial_timeout: SimDuration,
    /// Retransmissions before a call errors out.
    pub max_retries: u32,
    /// Ceiling on the backed-off retransmit timeout. Linux 2.4 caps the
    /// doubling at 60 s (`RPC_MAX_TIMEOUT`); without the cap a handful of
    /// consecutive losses pushes the next probe out by many minutes.
    pub max_timeout: SimDuration,
    /// Hold the global kernel lock across `sock_sendmsg` (2.4.4
    /// behaviour). The paper's patch sets this to `false`.
    pub bkl_around_sendmsg: bool,
}

impl Default for XprtConfig {
    fn default() -> Self {
        XprtConfig {
            slots: 16,
            initial_timeout: SimDuration::from_millis(700),
            max_retries: 5,
            max_timeout: SimDuration::from_secs(60),
            bkl_around_sendmsg: true,
        }
    }
}

/// RPC call failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No reply after all retransmissions.
    TimedOut,
    /// The server accepted but did not execute (accept_stat != SUCCESS).
    Rejected(u32),
    /// The reply would not parse.
    Garbage,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::TimedOut => write!(f, "RPC timed out"),
            RpcError::Rejected(s) => write!(f, "RPC rejected with accept status {s}"),
            RpcError::Garbage => write!(f, "RPC reply would not parse"),
        }
    }
}

impl std::error::Error for RpcError {}

/// A granted entry of a transport's slot table: what a 2.4 `rpc_task`
/// waits for before it builds and sends its request. A call issued in
/// the slot holds it until the reply is decoded; dropping it frees the
/// slot for the next queued caller.
pub struct RpcSlot {
    _permit: SemPermit,
}

/// Waits FIFO for one of `slots`' entries.
pub(crate) fn reserve_slot(slots: &Rc<Semaphore>) -> impl Future<Output = RpcSlot> + '_ {
    let mut st = Claim::default();
    drive_poll(move |wf| {
        slots
            .poll_acquire(&mut st, wf)
            .map(|permit| RpcSlot { _permit: permit })
    })
}

/// Aggregate transport statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XprtStats {
    /// Calls issued.
    pub calls: u64,
    /// Datagrams retransmitted.
    pub retransmits: u64,
    /// Replies matched to a pending call.
    pub replies: u64,
    /// Replies that arrived after their call had completed or timed out.
    pub orphan_replies: u64,
}

/// The client RPC transport.
pub struct RpcXprt {
    kernel: Kernel,
    path: Path,
    cred: AuthUnix,
    config: XprtConfig,
    prog: u32,
    vers: u32,
    next_xid: Cell<u32>,
    pending: PendingTable,
    pub(crate) slots: Rc<Semaphore>,
    calls: Counter,
    retransmits: Counter,
    replies: Counter,
    orphans: Counter,
}

impl RpcXprt {
    /// Creates a transport bound to `path` for program `prog` version
    /// `vers`, and spawns the receive loop draining `rx`.
    pub fn new(
        kernel: &Kernel,
        path: Path,
        rx: Receiver<DatagramPayload>,
        prog: u32,
        vers: u32,
        config: XprtConfig,
    ) -> Rc<RpcXprt> {
        let xprt = Rc::new(RpcXprt {
            kernel: kernel.clone(),
            path,
            cred: AuthUnix::root_on("nfsperf-client"),
            slots: Rc::new(Semaphore::new(config.slots)),
            pending: PendingTable::new(config.slots),
            config,
            prog,
            vers,
            next_xid: Cell::new(0x0136_5ee0),
            calls: Counter::new(),
            retransmits: Counter::new(),
            replies: Counter::new(),
            orphans: Counter::new(),
        });
        let recv = Rc::clone(&xprt);
        kernel.sim.spawn_detached(async move {
            recv.receive_loop(rx).await;
        });
        xprt
    }

    /// Issues one RPC and awaits the raw result bytes (after the reply
    /// header). Holds one transport slot for the full duration.
    pub async fn call(&self, proc: u32, args: &dyn XdrEncode) -> Result<DatagramPayload, RpcError> {
        let slot = reserve_slot(&self.slots).await;
        self.call_in_slot(slot, proc, args).await
    }

    /// Issues one RPC in `slot`, which the call holds until it returns.
    pub(crate) async fn call_in_slot(
        &self,
        _slot: RpcSlot,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> Result<DatagramPayload, RpcError> {
        self.calls.inc();

        let xid = self.next_xid.get();
        self.next_xid.set(xid.wrapping_add(1));
        let entry = self.pending.claim(xid);

        // Encode under the BKL (the 2.4 RPC layer protects its state with
        // it); in the patched configuration the lock is dropped before
        // sock_sendmsg, in the stock one it is held across it.
        let msg = {
            let guard = self.kernel.bkl.lock("rpc_xmit").await;
            self.kernel
                .cpus
                .work("rpc_encode", self.kernel.costs.rpc_encode)
                .await;
            let msg = msg::encode_call(xid, self.prog, self.vers, proc, &self.cred, args);
            if self.config.bkl_around_sendmsg {
                self.kernel
                    .cpus
                    .work("sock_sendmsg", self.kernel.costs.sock_sendmsg)
                    .await;
                self.path.send(pool_copy(&msg));
                drop(guard);
            } else {
                drop(guard);
                self.kernel
                    .cpus
                    .work("sock_sendmsg", self.kernel.costs.sock_sendmsg)
                    .await;
                self.path.send(pool_copy(&msg));
            }
            msg
        };

        let mut timeout = self.config.initial_timeout;
        let mut attempt = 0;
        let outcome = loop {
            match select2(self.wait_reply(entry), self.kernel.sim.sleep(timeout)).await {
                Either::Left(reply) => break Ok(reply),
                Either::Right(()) => {
                    if attempt >= self.config.max_retries {
                        break Err(RpcError::TimedOut);
                    }
                    attempt += 1;
                    self.retransmits.inc();
                    timeout = (timeout * 2).min(self.config.max_timeout);
                    self.send_retransmit(&msg).await;
                }
            }
        };
        self.pending.release(entry);
        // The call message outlived its last (re)transmission; recycle it.
        pool_put(msg);
        let payload = outcome?;
        let result = (|| {
            let (hdr, dec) = msg::decode_reply(&payload).map_err(|_| RpcError::Garbage)?;
            if hdr.accept_stat != ACCEPT_SUCCESS {
                return Err(RpcError::Rejected(hdr.accept_stat));
            }
            let at = dec.position();
            Ok(pool_copy(&payload[at..]))
        })();
        pool_put(payload);
        result
    }

    async fn send_retransmit(&self, msg: &[u8]) {
        if self.config.bkl_around_sendmsg {
            let _g = self.kernel.bkl.lock("rpc_xmit").await;
            self.kernel
                .cpus
                .work("sock_sendmsg", self.kernel.costs.sock_sendmsg)
                .await;
            self.path.send(pool_copy(msg));
        } else {
            self.kernel
                .cpus
                .work("sock_sendmsg", self.kernel.costs.sock_sendmsg)
                .await;
            self.path.send(pool_copy(msg));
        }
    }

    async fn wait_reply(&self, entry: usize) -> DatagramPayload {
        let pending = self.pending.get(entry);
        loop {
            if let Some(r) = pending.reply.borrow_mut().take() {
                return r;
            }
            pending.arrived.wait().await;
        }
    }

    async fn receive_loop(&self, rx: Receiver<DatagramPayload>) {
        while let Some(payload) = rx.recv().await {
            // Interrupt entry/exit, then RPC completion under the BKL
            // (softirq + rpciod work the 2.4 kernel does per reply).
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
            let xid = match msg::peek_xid(&payload) {
                Ok(x) => x,
                Err(_) => {
                    pool_put(payload);
                    continue;
                }
            };
            match self.pending.find(xid) {
                Some(p) => {
                    self.replies.inc();
                    *p.reply.borrow_mut() = Some(payload);
                    p.arrived.wake_all();
                }
                None => {
                    self.orphans.inc();
                    pool_put(payload);
                }
            }
        }
    }

    /// Snapshot of transport counters.
    pub fn stats(&self) -> XprtStats {
        XprtStats {
            calls: self.calls.get(),
            retransmits: self.retransmits.get(),
            replies: self.replies.get(),
            orphan_replies: self.orphans.get(),
        }
    }

    /// Free transport slots right now.
    pub fn free_slots(&self) -> usize {
        self.slots.available()
    }

    /// Tasks queued waiting for a slot.
    pub fn queued_senders(&self) -> usize {
        self.slots.queued()
    }

    /// The transport's network path (for meters in reports).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_kernel::KernelConfig;
    use nfsperf_net::{Nic, NicSpec};
    use nfsperf_sim::Sim;

    /// A trivial echo RPC server: replies to every call with its xid.
    fn spawn_echo_server(
        sim: &Sim,
        rx: Receiver<DatagramPayload>,
        reply_path: Path,
        delay: SimDuration,
    ) {
        let sim2 = sim.clone();
        sim.spawn(async move {
            while let Some(payload) = rx.recv().await {
                let (hdr, _args) = msg::decode_call(&payload).expect("parse call");
                sim2.sleep(delay).await;
                reply_path.send(msg::encode_reply(hdr.xid, &hdr.proc));
            }
        });
    }

    fn build(sim: &Sim, config: XprtConfig, server_delay: SimDuration) -> (Kernel, Rc<RpcXprt>) {
        let kernel = Kernel::new(sim, KernelConfig::default());
        let (cnic, crx) = Nic::new(sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(sim, "server", NicSpec::gigabit());
        let to_server = Path::new(Rc::clone(&cnic), Rc::clone(&snic), Path::default_latency());
        let to_client = to_server.reversed();
        spawn_echo_server(sim, srx, to_client, server_delay);
        let xprt = RpcXprt::new(&kernel, to_server, crx, 100_003, 3, config);
        (kernel, xprt)
    }

    #[test]
    fn call_round_trips() {
        let sim = Sim::new();
        let (_k, xprt) = build(&sim, XprtConfig::default(), SimDuration::from_micros(100));
        let out = sim.run_until(async move {
            let res = xprt.call(7, &0xfeed_u32).await.unwrap();
            (res, xprt.stats())
        });
        let (res, stats) = out;
        let mut dec = nfsperf_xdr::Decoder::new(&res);
        assert_eq!(dec.get_u32().unwrap(), 7, "echo server returns proc");
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.replies, 1);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn slot_table_limits_in_flight() {
        let sim = Sim::new();
        let config = XprtConfig {
            slots: 2,
            ..XprtConfig::default()
        };
        // Slow server so calls overlap.
        let (_k, xprt) = build(&sim, config, SimDuration::from_millis(1));
        let xprt2 = Rc::clone(&xprt);
        let s = sim.clone();
        sim.run_until(async move {
            let mut handles = Vec::new();
            for _ in 0..6 {
                let x = Rc::clone(&xprt2);
                handles.push(s.spawn(async move { x.call(1, &1u32).await.unwrap() }));
            }
            s.sleep(SimDuration::from_micros(500)).await;
            // All six issued; at most 2 slots outstanding.
            assert_eq!(x_free(&xprt2), 0);
            assert!(xprt2.queued_senders() >= 3);
            for h in handles {
                h.await;
            }
        });
        assert_eq!(xprt.stats().calls, 6);
        assert_eq!(xprt.free_slots(), 2);
    }

    fn x_free(x: &RpcXprt) -> usize {
        x.free_slots()
    }

    #[test]
    fn retransmits_on_loss_and_recovers() {
        let sim = Sim::new();
        let kernel = Kernel::new(&sim, KernelConfig::default());
        // Client NIC drops the first transmission deterministically-ish:
        // use 60% loss and enough retries that the call succeeds.
        let (cnic, crx) = Nic::with_loss(&sim, "client", NicSpec::gigabit(), 0.6, 42);
        let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(Rc::clone(&cnic), Rc::clone(&snic), Path::default_latency());
        spawn_echo_server(
            &sim,
            srx,
            to_server.reversed(),
            SimDuration::from_micros(10),
        );
        let xprt = RpcXprt::new(
            &kernel,
            to_server,
            crx,
            100_003,
            3,
            XprtConfig {
                max_retries: 20,
                initial_timeout: SimDuration::from_millis(10),
                ..XprtConfig::default()
            },
        );
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &1u32).await });
        assert!(res.is_ok(), "call should survive losses: {res:?}");
        let stats = xprt.stats();
        assert!(
            stats.retransmits > 0 || cnic.drops() == 0,
            "with 60% loss we expect at least one retransmit (drops={})",
            cnic.drops()
        );
    }

    #[test]
    fn times_out_when_server_gone() {
        let sim = Sim::new();
        let kernel = Kernel::new(&sim, KernelConfig::default());
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, _srx_dropped) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(cnic, snic, Path::default_latency());
        let xprt = RpcXprt::new(
            &kernel,
            to_server,
            crx,
            100_003,
            3,
            XprtConfig {
                max_retries: 2,
                initial_timeout: SimDuration::from_millis(1),
                ..XprtConfig::default()
            },
        );
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &1u32).await });
        assert_eq!(res, Err(RpcError::TimedOut));
        assert_eq!(xprt.stats().retransmits, 2);
    }

    #[test]
    fn backoff_is_capped_at_max_timeout() {
        let sim = Sim::new();
        let kernel = Kernel::new(&sim, KernelConfig::default());
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, _srx_dropped) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(cnic, snic, Path::default_latency());
        // Start at 30 s so the doubling crosses the 60 s ceiling on the
        // first backoff: waits are 30 + 60 + 60 + 60 = 210 s. Uncapped
        // doubling would wait 30 + 60 + 120 + 240 = 450 s.
        let xprt = RpcXprt::new(
            &kernel,
            to_server,
            crx,
            100_003,
            3,
            XprtConfig {
                max_retries: 3,
                initial_timeout: SimDuration::from_secs(30),
                ..XprtConfig::default()
            },
        );
        let x = Rc::clone(&xprt);
        let res = sim.run_until(async move { x.call(7, &1u32).await });
        assert_eq!(res, Err(RpcError::TimedOut));
        assert_eq!(xprt.stats().retransmits, 3);
        let elapsed = sim.now() - nfsperf_sim::SimTime::ZERO;
        assert!(
            elapsed >= SimDuration::from_secs(210),
            "gave up too early: {elapsed:?}"
        );
        assert!(
            elapsed < SimDuration::from_secs(211),
            "backoff not capped at 60 s: {elapsed:?}"
        );
    }

    #[test]
    fn bkl_held_mode_blames_sendmsg_for_waits() {
        let sim = Sim::new();
        let (kernel, xprt) = build(&sim, XprtConfig::default(), SimDuration::from_micros(50));
        let s = sim.clone();
        let k2 = kernel.clone();
        sim.run_until(async move {
            // Saturate the transmit path from one task...
            let x = Rc::clone(&xprt);
            let sender = s.spawn(async move {
                for _ in 0..50 {
                    x.call(7, &1u32).await.unwrap();
                }
            });
            // ...while another task repeatedly takes the BKL like a writer.
            let contender = s.spawn({
                let k = k2.clone();
                async move {
                    for _ in 0..50 {
                        let _g = k.bkl.lock("nfs_commit_write").await;
                        k.cpus
                            .work("nfs_commit_write", SimDuration::from_micros(5))
                            .await;
                    }
                }
            });
            sender.await;
            contender.await;
        });
        let stats = kernel.bkl.stats();
        // The writer's lock waits should be blamed overwhelmingly on the
        // rpc_xmit section (which contains sock_sendmsg in stock mode).
        let blamed_xmit = stats.wait_blamed_on("rpc_xmit");
        let total = stats.total_wait;
        assert!(
            blamed_xmit.as_nanos() * 10 >= total.as_nanos() * 5,
            "xmit should dominate lock waits: {blamed_xmit} of {total}"
        );
    }

    #[test]
    fn no_lock_mode_reduces_writer_wait() {
        let run = |hold: bool| -> u64 {
            let sim = Sim::new();
            let (kernel, xprt) = build(
                &sim,
                XprtConfig {
                    bkl_around_sendmsg: hold,
                    ..XprtConfig::default()
                },
                SimDuration::from_micros(50),
            );
            let s = sim.clone();
            let k2 = kernel.clone();
            sim.run_until(async move {
                let x = Rc::clone(&xprt);
                let sender = s.spawn(async move {
                    for _ in 0..100 {
                        x.call(7, &1u32).await.unwrap();
                    }
                });
                let contender = s.spawn({
                    let k = k2.clone();
                    async move {
                        for _ in 0..100 {
                            let _g = k.bkl.lock("nfs_commit_write").await;
                            k.cpus
                                .work("nfs_commit_write", SimDuration::from_micros(5))
                                .await;
                        }
                    }
                });
                sender.await;
                contender.await;
            });
            kernel.bkl.stats().total_wait.as_nanos()
        };
        let held = run(true);
        let released = run(false);
        assert!(
            released * 2 < held,
            "releasing the BKL around sendmsg should at least halve lock \
             waits: held={held}ns released={released}ns"
        );
    }
}
