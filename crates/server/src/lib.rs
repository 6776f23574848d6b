//! Simulated NFS servers: the prototype Network Appliance F85 filer (with
//! NVRAM log and checkpoint pauses), the four-way Linux knfsd (UNSTABLE
//! writes plus COMMIT against a single SCSI disk), and a generic slow
//! server on 100 Mb/s Ethernet.
//!
//! Servers consume real RPC CALL datagrams from a NIC receive queue,
//! decode them with `nfsperf-sunrpc`/`nfsperf-nfs3`, and answer with real
//! REPLY encodings — the client cannot tell these from a byte-accurate
//! NFSv3 peer, which is the point: the paper's client-side effects must
//! emerge from protocol-level interaction, not from shortcuts.

pub mod disk;
pub mod fs;
pub mod nvram;
pub mod sched;
pub mod server;

pub use disk::DiskModel;
pub use fs::{FsState, ROOT_FILEID};
pub use nvram::{Nvram, NvramAdmit};
pub use sched::{LatencyDigest, OpClass, ReqMeta, SchedPolicy, ServiceEngine, SvcAdmit, SvcSlot};
pub use server::{
    BackendConfig, DiskKind, FlyStep, FlyweightOp, NfsServer, PerClientStats, ServerConfig,
    ServerStats, SlimTierStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_net::{Nic, NicSpec, Path};
    use nfsperf_nfs3::{
        Commit3Args, Commit3Res, Create3Args, Create3Res, CreateMode, NfsProc3, NfsStat3, Sattr3,
        StableHow, Write3Args, Write3Res, NFS_PROGRAM, NFS_V3,
    };
    use nfsperf_sim::{Receiver, Sim, SimDuration};
    use nfsperf_sunrpc::{decode_reply, encode_call, AuthUnix};
    use nfsperf_xdr::XdrDecode;
    use std::rc::Rc;

    struct TestClient {
        sim: Sim,
        to_server: Path,
        rx: Receiver<Vec<u8>>,
        xid: std::cell::Cell<u32>,
    }

    impl TestClient {
        async fn call<A: nfsperf_xdr::XdrEncode, R: XdrDecode>(
            &self,
            proc: NfsProc3,
            args: &A,
        ) -> R {
            let xid = self.xid.get();
            self.xid.set(xid + 1);
            let msg = encode_call(
                xid,
                NFS_PROGRAM,
                NFS_V3,
                proc as u32,
                &AuthUnix::root_on("test"),
                args,
            );
            self.to_server.send(msg);
            let reply = self.rx.recv().await.expect("server reply");
            let (hdr, mut dec) = decode_reply(&reply).expect("parse reply");
            assert_eq!(hdr.xid, xid);
            R::decode(&mut dec).expect("decode results")
        }
    }

    fn build(config: ServerConfig, server_nic: NicSpec) -> (Sim, TestClient, Rc<NfsServer>) {
        let sim = Sim::new();
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(&sim, "server", server_nic);
        let to_server = Path::new(cnic, snic, Path::default_latency());
        let server = NfsServer::spawn(&sim, srx, to_server.reversed(), config);
        let client = TestClient {
            sim: sim.clone(),
            to_server,
            rx: crx,
            xid: std::cell::Cell::new(1),
        };
        (sim, client, server)
    }

    async fn create_and_write(
        client: &TestClient,
        server: &Rc<NfsServer>,
        stable: StableHow,
        writes: u32,
    ) -> (nfsperf_nfs3::FileHandle, Vec<Write3Res>) {
        let root = server.fs.root_handle();
        let created: Create3Res = client
            .call(
                NfsProc3::Create,
                &Create3Args {
                    dir: root,
                    name: "bench".into(),
                    mode: CreateMode::Unchecked,
                    attrs: Sattr3::default(),
                },
            )
            .await;
        assert_eq!(created.status, NfsStat3::Ok);
        let fh = created.file.unwrap();
        let mut results = Vec::new();
        for i in 0..writes {
            let res: Write3Res = client
                .call(
                    NfsProc3::Write,
                    &Write3Args::new(fh, u64::from(i) * 8192, 8192, stable),
                )
                .await;
            results.push(res);
        }
        (fh, results)
    }

    #[test]
    fn filer_grants_file_sync() {
        let (sim, client, server) = build(ServerConfig::netapp_f85(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (_fh, results) = create_and_write(&client, &srv, StableHow::Unstable, 4).await;
            for r in &results {
                assert_eq!(r.status, NfsStat3::Ok);
                assert_eq!(r.committed, StableHow::FileSync);
                assert_eq!(r.count, 8192);
            }
        });
        assert_eq!(server.stats().writes, 4);
        assert_eq!(server.stats().write_bytes, 4 * 8192);
    }

    #[test]
    fn knfsd_grants_unstable_then_commits_to_disk() {
        let (sim, client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (fh, results) = create_and_write(&client, &srv, StableHow::Unstable, 4).await;
            for r in &results {
                assert_eq!(r.committed, StableHow::Unstable);
            }
            assert_eq!(srv.dirty_bytes(), Some(4 * 8192));
            let commit: Commit3Res = client
                .call(
                    NfsProc3::Commit,
                    &Commit3Args {
                        file: fh,
                        offset: 0,
                        count: 0,
                    },
                )
                .await;
            assert_eq!(commit.status, NfsStat3::Ok);
            assert_eq!(srv.dirty_bytes(), Some(0));
        });
        assert_eq!(server.stats().commits, 1);
    }

    #[test]
    fn knfsd_sync_write_flushes_through() {
        let (sim, client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (_fh, results) = create_and_write(&client, &srv, StableHow::FileSync, 1).await;
            assert_eq!(results[0].committed, StableHow::FileSync);
            assert_eq!(
                srv.dirty_bytes(),
                Some(0),
                "sync write leaves nothing dirty"
            );
        });
    }

    #[test]
    fn write_reply_carries_wcc_and_size_grows() {
        let (sim, client, server) = build(ServerConfig::netapp_f85(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (fh, results) = create_and_write(&client, &srv, StableHow::Unstable, 3).await;
            assert_eq!(results[2].wcc.before.unwrap().size, 2 * 8192);
            assert_eq!(results[2].wcc.after.unwrap().size, 3 * 8192);
            assert_eq!(srv.fs.size_of(&fh).unwrap(), 3 * 8192);
        });
    }

    #[test]
    fn filer_checkpoint_pauses_service() {
        let mut config = ServerConfig::netapp_f85();
        if let BackendConfig::Filer {
            ref mut checkpoint_offset,
            ref mut checkpoint_duration,
            ..
        } = config.backend
        {
            *checkpoint_offset = SimDuration::from_millis(1);
            *checkpoint_duration = SimDuration::from_millis(50);
        }
        let (sim, client, server) = build(config, NicSpec::gigabit());
        let srv = Rc::clone(&server);
        let s = sim.clone();
        sim.run_until(async move {
            // Land a write inside the checkpoint window.
            s.sleep(SimDuration::from_millis(2)).await;
            let before = s.now();
            let (_fh, _r) = create_and_write(&client, &srv, StableHow::Unstable, 1).await;
            let elapsed = s.now().since(before);
            assert!(
                elapsed >= SimDuration::from_millis(40),
                "write during checkpoint should stall, took {elapsed}"
            );
        });
        assert!(server.stats().checkpoints >= 1);
    }

    #[test]
    fn reboot_changes_verifier_and_drops_dirty() {
        let (sim, client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (_fh, results) = create_and_write(&client, &srv, StableHow::Unstable, 2).await;
            let v1 = results[0].verf;
            srv.reboot();
            assert_ne!(srv.current_verf(), v1);
            assert_eq!(srv.dirty_bytes(), Some(0));
        });
    }

    #[test]
    fn unknown_proc_rejected() {
        let (sim, client, _server) = build(ServerConfig::slow_100bt(), NicSpec::fast_ethernet());
        sim.run_until(async move {
            // NULL, GETATTR, SETATTR, LOOKUP and READ are valid NFSv3
            // procedures no workload sends; 19 (FSINFO) is one more.
            for (xid, proc) in (77..).zip([0, 1, 2, 3, 6, 19]) {
                let msg = encode_call(
                    xid,
                    NFS_PROGRAM,
                    NFS_V3,
                    proc,
                    &AuthUnix::root_on("test"),
                    &0u32,
                );
                client.to_server.send(msg);
                let reply = client.rx.recv().await.unwrap();
                let (hdr, _dec) = decode_reply(&reply).unwrap();
                assert_eq!(hdr.xid, xid, "proc {proc}");
                assert_eq!(
                    hdr.accept_stat,
                    nfsperf_sunrpc::ACCEPT_PROC_UNAVAIL,
                    "proc {proc}"
                );
            }
        });
    }

    #[test]
    fn wrong_program_and_version_get_distinct_accept_stats() {
        let (sim, client, _server) = build(ServerConfig::netapp_f85(), NicSpec::gigabit());
        sim.run_until(async move {
            // Wrong program number: PROG_UNAVAIL.
            client.to_server.send(encode_call(
                101,
                100_005, // mountd, not NFS
                NFS_V3,
                0,
                &AuthUnix::root_on("test"),
                &0u32,
            ));
            let reply = client.rx.recv().await.unwrap();
            let (hdr, _dec) = decode_reply(&reply).unwrap();
            assert_eq!(hdr.xid, 101);
            assert_eq!(hdr.accept_stat, nfsperf_sunrpc::ACCEPT_PROG_UNAVAIL);

            // Right program, unsupported version: PROG_MISMATCH.
            client.to_server.send(encode_call(
                102,
                NFS_PROGRAM,
                2, // NFSv2
                0,
                &AuthUnix::root_on("test"),
                &0u32,
            ));
            let reply = client.rx.recv().await.unwrap();
            let (hdr, _dec) = decode_reply(&reply).unwrap();
            assert_eq!(hdr.xid, 102);
            assert_eq!(hdr.accept_stat, nfsperf_sunrpc::ACCEPT_PROG_MISMATCH);
        });
    }

    /// Drives `spawn_tcp` with a raw TCP client endpoint: connect, send
    /// record-marked calls, read record-marked replies.
    fn tcp_roundtrip(config: ServerConfig) {
        use nfsperf_sunrpc::{encode_record, RecordReader};
        use nfsperf_tcp::{TcpConfig, TcpEndpoint};

        let sim = Sim::new();
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(cnic, snic, Path::default_latency());
        let server = NfsServer::spawn_tcp(&sim, srx, to_server.reversed(), config);
        let client = TcpEndpoint::new(&sim, to_server, crx, TcpConfig::for_mtu(1500));
        let root = server.fs.root_handle();

        async fn recv_reply(
            records: &mut RecordReader,
            conn: &Rc<nfsperf_tcp::TcpConn>,
        ) -> Vec<u8> {
            loop {
                if let Some(r) = records.next_record() {
                    return r;
                }
                records.push(&conn.recv_some().await.expect("stream open"));
            }
        }

        let writes = sim.run_until(async move {
            let conn = client.connect().await.expect("handshake");
            let mut records = RecordReader::new();
            let create = encode_call(
                1,
                NFS_PROGRAM,
                NFS_V3,
                NfsProc3::Create as u32,
                &AuthUnix::root_on("test"),
                &Create3Args {
                    dir: root,
                    name: "bench".into(),
                    mode: CreateMode::Unchecked,
                    attrs: Sattr3::default(),
                },
            );
            conn.send(&encode_record(&create)).unwrap();
            let reply = recv_reply(&mut records, &conn).await;
            let (hdr, mut dec) = decode_reply(&reply).unwrap();
            assert_eq!(hdr.xid, 1);
            let created = Create3Res::decode(&mut dec).unwrap();
            assert_eq!(created.status, NfsStat3::Ok);
            let fh = created.file.unwrap();

            for i in 0..4u32 {
                let write = encode_call(
                    2 + i,
                    NFS_PROGRAM,
                    NFS_V3,
                    NfsProc3::Write as u32,
                    &AuthUnix::root_on("test"),
                    &Write3Args::new(fh, u64::from(i) * 8192, 8192, StableHow::Unstable),
                );
                conn.send(&encode_record(&write)).unwrap();
                let reply = recv_reply(&mut records, &conn).await;
                let (hdr, mut dec) = decode_reply(&reply).unwrap();
                assert_eq!(hdr.xid, 2 + i);
                let res = Write3Res::decode(&mut dec).unwrap();
                assert_eq!(res.status, NfsStat3::Ok);
                assert_eq!(res.count, 8192);
            }
            4
        });
        assert_eq!(server.stats().writes, writes);
        assert_eq!(server.stats().write_bytes, writes * 8192);
    }

    #[test]
    fn tcp_server_filer_serves_writes() {
        tcp_roundtrip(ServerConfig::netapp_f85());
    }

    #[test]
    fn tcp_server_knfsd_serves_writes() {
        tcp_roundtrip(ServerConfig::linux_knfsd());
    }

    #[test]
    fn knfsd_inline_flush_when_dirty_cap_exceeded() {
        let mut config = ServerConfig::linux_knfsd();
        if let BackendConfig::CacheDisk {
            ref mut dirty_cap, ..
        } = config.backend
        {
            *dirty_cap = 16 * 1024; // two 8K writes fill it
        }
        let (sim, client, server) = build(config, NicSpec::gigabit());
        let srv = Rc::clone(&server);
        sim.run_until(async move {
            let (_fh, _r) = create_and_write(&client, &srv, StableHow::Unstable, 5).await;
        });
        assert!(server.stats().inline_flushes > 0);
    }

    /// Drives one flyweight op for `client` to completion from a task:
    /// polls the machine and sleeps each span it hands back.
    async fn finish_flyweight(sim: &Sim, server: &NfsServer, client: usize, class: OpClass) {
        use server::FlyStep;
        let bytes = if class == OpClass::Write { 8192 } else { 0 };
        let mut op = server.begin_flyweight();
        loop {
            let step = nfsperf_sim::drive_poll(|wf| {
                match server.poll_flyweight(&mut op, client, class, bytes, wf) {
                    FlyStep::Parked => None,
                    step => Some(step),
                }
            })
            .await;
            match step {
                FlyStep::Sleep(d) => sim.sleep(d).await,
                _ => return,
            }
        }
    }

    /// Flyweight requests contend for the same backend as faithful
    /// traffic (the dirty cache fills and flushes) but leave only shared
    /// tier counters behind — no per-client stats entry, no digests.
    #[test]
    fn flyweight_tier_counts_without_per_client_state() {
        let (sim, client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let srv = Rc::clone(&server);
        let base = server.register_slim_clients(10_000);
        let s = sim.clone();
        sim.run_until(async move {
            let (_fh, _r) = create_and_write(&client, &srv, StableHow::Unstable, 2).await;
            for i in 0..4usize {
                finish_flyweight(&s, &srv, base + i % 10_000, OpClass::Write).await;
            }
            finish_flyweight(&s, &srv, base, OpClass::Commit).await;
        });
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 10_000);
        assert_eq!(slim.writes, 4);
        assert_eq!(slim.write_bytes, 4 * 8192);
        assert_eq!(slim.commits, 1);
        // Aggregate server stats see the whole mixed load...
        assert_eq!(server.stats().writes, 6);
        assert_eq!(server.stats().write_bytes, 6 * 8192);
        // ...but only the faithful client materialized per-client state.
        let per_client = server.per_client_stats();
        assert_eq!(per_client.len(), base);
        assert_eq!(per_client[0].writes, 2);
        assert!(server.service_engine().service_samples(base).is_empty());
    }

    /// An admitted flyweight op holds its service slot without a guard,
    /// so dropping it before it finishes would leak the slot; debug
    /// builds assert instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "flyweight op dropped while holding a service slot")]
    fn flyweight_op_dropped_mid_service_asserts() {
        let (_sim, _client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let base = server.register_slim_clients(1);
        let mut op = server.begin_flyweight();
        let step = server.poll_flyweight(&mut op, base, OpClass::Write, 8192, &mut || {
            std::task::Waker::noop().clone()
        });
        assert!(
            matches!(step, FlyStep::Sleep(_)),
            "a free slot admits at once"
        );
        drop(op);
    }

    #[test]
    fn flyweight_ops_are_24_bytes() {
        // At a million clients nearly every op can sit in the server at
        // once, each inside its RPC's record.
        assert_eq!(std::mem::size_of::<server::FlyweightOp>(), 24);
    }

    /// A faithful COMMIT holds the disk arm as bare backend state while
    /// it sleeps its flush. A world ended mid-flush drops that task, and
    /// the drop releases the arm: a flyweight COMMIT polled after the
    /// world's owner dropped passes the disk barrier at once.
    #[test]
    fn a_world_ended_mid_flush_releases_the_disk_arm() {
        let (sim, client, server) = build(ServerConfig::linux_knfsd(), NicSpec::gigabit());
        let (srv, s) = (Rc::clone(&server), sim.clone());
        sim.run_until(async move {
            let (fh, _) = create_and_write(&client, &srv, StableHow::Unstable, 4).await;
            client.to_server.send(encode_call(
                client.xid.get(),
                NFS_PROGRAM,
                NFS_V3,
                NfsProc3::Commit as u32,
                &AuthUnix::root_on("test"),
                &Commit3Args {
                    file: fh,
                    offset: 0,
                    count: 0,
                },
            ));
            // The COMMIT claims the dirty pool as its 32 KiB flush starts,
            // about a millisecond before the flush ends.
            while srv.dirty_bytes() != Some(0) {
                s.sleep(SimDuration::from_micros(1)).await;
            }
        });
        assert_eq!(server.stats().commits, 1);
        drop(sim);
        let base = server.register_slim_clients(1);
        let mut op = server.begin_flyweight();
        let mut poll = || {
            server.poll_flyweight(&mut op, base, OpClass::Commit, 0, &mut || {
                std::task::Waker::noop().clone()
            })
        };
        assert!(matches!(poll(), FlyStep::Sleep(_)), "a free slot admits");
        assert!(
            matches!(poll(), FlyStep::Done),
            "the ended flush kept the disk arm"
        );
    }

    /// The poll-style flyweight machine, driven by direct words, on every
    /// backend — including ones sized down to force NVRAM stalls and
    /// inline dirty-cache flushes, where wait-queue order decides who
    /// flushes what. The finish instants and counters are pinned, and a
    /// separate task-driven implementation of the same path once matched
    /// them exactly, so any drift in the shared admission and backend
    /// rules shows here.
    #[test]
    fn flyweight_poll_machine_reproduces_pinned_runs() {
        use nfsperf_sim::EventHandlerId;
        use server::{FlyStep, FlyweightOp};
        use std::cell::{Cell, RefCell};

        const CLIENTS: usize = 4;
        const WRITES: u32 = 8;
        const BYTES: u64 = 64 * 1024;

        type Outcome = (u64, ServerStats, SlimTierStats);

        fn run_events(config: ServerConfig) -> Outcome {
            struct Chain {
                writes_left: u32,
                committed: bool,
                op: FlyweightOp,
            }
            struct Driver {
                sim: Sim,
                server: Rc<NfsServer>,
                handler: Cell<EventHandlerId>,
                chains: RefCell<Vec<Chain>>,
                base: usize,
                live: Cell<usize>,
                finish: Cell<u64>,
            }
            impl Driver {
                fn step(&self, idx: u32) {
                    let mut chains = self.chains.borrow_mut();
                    let chain = &mut chains[idx as usize];
                    let sim = self.sim.clone();
                    let h = self.handler.get();
                    let mut wf = move || sim.direct_waker(h, idx);
                    loop {
                        let (class, bytes) = if chain.committed {
                            (OpClass::Commit, 0)
                        } else {
                            (OpClass::Write, BYTES)
                        };
                        let client = self.base + idx as usize;
                        match self.server.poll_flyweight(
                            &mut chain.op,
                            client,
                            class,
                            bytes,
                            &mut wf,
                        ) {
                            FlyStep::Parked => return,
                            FlyStep::Sleep(d) => {
                                let deadline =
                                    nfsperf_sim::SimTime(self.sim.now().as_nanos() + d.as_nanos());
                                if deadline > self.sim.now() {
                                    self.sim.schedule_direct(deadline, h, idx);
                                    return;
                                }
                            }
                            FlyStep::Done => {
                                if chain.writes_left > 0 {
                                    chain.writes_left -= 1;
                                    chain.op = self.server.begin_flyweight();
                                } else if !chain.committed {
                                    chain.committed = true;
                                    chain.op = self.server.begin_flyweight();
                                } else {
                                    self.finish
                                        .set(self.finish.get().max(self.sim.now().as_nanos()));
                                    self.live.set(self.live.get() - 1);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
            let sim = Sim::new();
            let server = NfsServer::new(&sim, config);
            let base = server.register_slim_clients(CLIENTS);
            let driver = Rc::new(Driver {
                sim: sim.clone(),
                server: Rc::clone(&server),
                handler: Cell::new(sim.register_event_handler(Rc::new(|_| {}))),
                chains: RefCell::new(Vec::new()),
                base,
                live: Cell::new(CLIENTS),
                finish: Cell::new(0),
            });
            let d = Rc::clone(&driver);
            let h = sim.register_event_handler(Rc::new(move |data| d.step(data)));
            driver.handler.set(h);
            for c in 0..CLIENTS as u32 {
                driver.chains.borrow_mut().push(Chain {
                    writes_left: WRITES - 1,
                    committed: false,
                    op: server.begin_flyweight(),
                });
                sim.post_direct(h, c);
            }
            let s = sim.clone();
            let d = Rc::clone(&driver);
            sim.run_until(async move {
                while d.live.get() > 0 {
                    s.sleep(SimDuration::from_micros(100)).await;
                }
            });
            sim.clear_event_handler(h);
            (driver.finish.get(), server.stats(), server.slim_stats())
        }

        let mut filer = ServerConfig::netapp_f85();
        if let BackendConfig::Filer {
            ref mut nvram_capacity,
            ref mut checkpoint_offset,
            ..
        } = filer.backend
        {
            *nvram_capacity = 192 * 1024; // force admission stalls
            *checkpoint_offset = SimDuration::from_micros(200);
        }
        let mut knfsd = ServerConfig::linux_knfsd();
        if let BackendConfig::CacheDisk {
            ref mut dirty_cap, ..
        } = knfsd.backend
        {
            *dirty_cap = 128 * 1024; // force inline flushes
        }
        let server = |checkpoints, inline_flushes| ServerStats {
            ops: 36,
            writes: 32,
            write_bytes: 32 * BYTES,
            commits: 4,
            checkpoints,
            inline_flushes,
        };
        let slim = SlimTierStats {
            clients: 4,
            ops: 36,
            writes: 32,
            write_bytes: 32 * BYTES,
            commits: 4,
        };
        let pinned = [
            (filer, (294_090_667, server(1, 0), slim.clone())),
            (knfsd, (83_364_954, server(0, 16), slim.clone())),
            (ServerConfig::slow_100bt(), (11_025_760, server(0, 0), slim)),
        ];
        for (config, expected) in pinned {
            let name = config.name;
            assert_eq!(
                run_events(config),
                expected,
                "{name} drifted from its pinned run"
            );
        }
    }

    #[test]
    fn slow_server_throughput_is_wire_bound() {
        let (sim, client, server) = build(ServerConfig::slow_100bt(), NicSpec::fast_ethernet());
        let srv = Rc::clone(&server);
        let start_to_end = sim.run_until(async move {
            let t0 = client.sim.now();
            let (_fh, _r) = create_and_write(&client, &srv, StableHow::Unstable, 64).await;
            client.sim.now().since(t0)
        });
        // 64 x 8 KiB = 512 KiB serially over 100 Mb/s: at least 45 ms of
        // pure wire time (ignoring latency and service).
        assert!(
            start_to_end >= SimDuration::from_millis(45),
            "slow wire must dominate: {start_to_end}"
        );
        assert_eq!(server.stats().writes, 64);
    }
}
