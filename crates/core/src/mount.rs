//! The NFS mount: write path, RPC scheduling, `nfs_flushd`, COMMIT
//! handling, and the open-file object.
//!
//! This module is the paper's subject. The write path follows Linux
//! 2.4.4's `fs/nfs/write.c` step for step:
//!
//! - `generic_file_write` hands the file system one page at a time;
//!   `nfs_prepare_write`/`nfs_commit_write` run under the global kernel
//!   lock.
//! - `nfs_updatepage` searches the inode's request list twice per page —
//!   once for incompatible requests (`nfs_find_request`) and once inside
//!   `nfs_update_request` — then creates and indexes a new request.
//! - Requests cache on the inode; the writer itself sends nothing
//!   ("the client should cache as many requests as it can in available
//!   memory", §3.3). `nfs_flushd` writes behind: each `nfs_scan_list`
//!   step walks the request index under the kernel lock (O(n) with the
//!   stock list, O(1) with the paper's hash) and coalesces one `wsize`
//!   batch into an asynchronous WRITE RPC; it also issues COMMITs for
//!   unstable data.
//! - With the stock tuning, crossing `MAX_REQUEST_SOFT` forces the writer
//!   to schedule everything and *wait* (the Figure 2 spikes); crossing
//!   `MAX_REQUEST_HARD` per mount puts writers to sleep.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use nfsperf_kernel::{Kernel, PageSeg, SimFile, VfsError, VfsResult, PAGE_SIZE};
use nfsperf_net::{pool_put, DatagramPayload, Path};
use nfsperf_nfs3::{
    Commit3Args, Commit3Res, Create3Args, Create3Res, CreateMode, NfsProc3, NfsStat3, Read3Args,
    Read3Res, Sattr3, Setattr3Args, Setattr3Res, StableHow, Write3Args, Write3Res, NFS_PROGRAM,
    NFS_V3,
};
use nfsperf_sim::{Counter, Receiver, SimDuration, WaitQueue};
use nfsperf_sunrpc::{RpcSlot, Transport, Xprt, XprtConfig};
use nfsperf_xdr::{Decoder, XdrDecode};

use crate::inode::NfsInode;
use crate::request::{NfsPageReq, ReqState};
use crate::tuning::{ClientTuning, IndexKind, MAX_REQUEST_HARD, MAX_REQUEST_SOFT};

/// Mount options and client behaviour.
#[derive(Debug, Clone)]
pub struct MountConfig {
    /// Write transfer size (the paper mounts with `wsize=8192`).
    pub wsize: u32,
    /// Client behaviour switches.
    pub tuning: ClientTuning,
    /// RPC slot-table size.
    pub slots: usize,
    /// `nfs_flushd` wakeup interval. The default keeps the daemon's
    /// idle duty cycle at the historical 11 ms: scans used to run every
    /// 10 ms-park + 1 ms unconditional pacing tick, and the tick is now
    /// paid only on passes that find nothing to do.
    pub flushd_interval: SimDuration,
    /// COMMIT once this many unstable bytes accumulate.
    pub commit_threshold: u64,
    /// Per-inode request count forcing a synchronous flush when
    /// `tuning.sync_flush_limits` is on (2.4.4: 192).
    pub soft_limit: usize,
    /// Per-mount request count putting writers to sleep (2.4.4: 256).
    pub hard_limit: usize,
    /// RPC transport flavour (the paper's client mounts over UDP).
    pub transport: Transport,
}

impl Default for MountConfig {
    fn default() -> Self {
        MountConfig {
            wsize: 8192,
            tuning: ClientTuning::default(),
            slots: 16,
            flushd_interval: SimDuration::from_millis(11),
            commit_threshold: 1 << 20,
            soft_limit: MAX_REQUEST_SOFT,
            hard_limit: MAX_REQUEST_HARD,
            transport: Transport::Udp,
        }
    }
}

/// Aggregate client-side statistics for one mount.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MountStats {
    /// WRITE RPCs issued.
    pub write_rpcs: u64,
    /// COMMIT RPCs issued.
    pub commit_rpcs: u64,
    /// Soft-limit synchronous flushes the writer suffered.
    pub soft_limit_flushes: u64,
    /// Times a writer slept on the per-mount hard limit.
    pub hard_limit_sleeps: u64,
    /// Requests re-dirtied by a COMMIT verifier mismatch.
    pub verf_mismatches: u64,
    /// WRITE RPCs that failed (transport or server error).
    pub write_failures: u64,
}

/// A mounted NFS file system.
pub struct NfsMount {
    /// The client machine this mount lives on.
    pub kernel: Kernel,
    xprt: Rc<Xprt>,
    config: MountConfig,
    /// All inodes with write state, for `nfs_flushd`.
    inodes: RefCell<Vec<Rc<NfsInode>>>,
    /// Outstanding requests across the whole mount (hard-limit guard).
    mount_requests: Cell<usize>,
    hard_waiters: WaitQueue,
    write_rpcs: Counter,
    commit_rpcs: Counter,
    soft_flushes: Counter,
    hard_sleeps: Counter,
    verf_mismatches: Counter,
    write_failures: Counter,
}

impl NfsMount {
    /// Mounts the file system: builds the RPC transport on `path`/`rx`
    /// and spawns `nfs_flushd`.
    pub fn mount(
        kernel: &Kernel,
        path: Path,
        rx: Receiver<DatagramPayload>,
        config: MountConfig,
    ) -> Rc<NfsMount> {
        let xprt = Xprt::new(
            kernel,
            path,
            rx,
            NFS_PROGRAM,
            NFS_V3,
            XprtConfig {
                slots: config.slots,
                bkl_around_sendmsg: config.tuning.bkl_around_sendmsg,
                ..XprtConfig::default()
            },
            config.transport,
        );
        let mount = Rc::new(NfsMount {
            kernel: kernel.clone(),
            xprt,
            config,
            inodes: RefCell::new(Vec::new()),
            mount_requests: Cell::new(0),
            hard_waiters: WaitQueue::new(),
            write_rpcs: Counter::new(),
            commit_rpcs: Counter::new(),
            soft_flushes: Counter::new(),
            hard_sleeps: Counter::new(),
            verf_mismatches: Counter::new(),
            write_failures: Counter::new(),
        });
        let daemon = Rc::clone(&mount);
        kernel.sim.spawn_detached(async move {
            daemon.nfs_flushd().await;
        });
        mount
    }

    /// Pages per WRITE RPC.
    fn wsize_pages(&self) -> usize {
        (u64::from(self.config.wsize) / PAGE_SIZE).max(1) as usize
    }

    /// Creates (or truncates) a file on the server and opens it.
    pub async fn create(self: &Rc<Self>, name: &str) -> VfsResult<NfsFile> {
        let args = Create3Args {
            dir: nfsperf_nfs3::FileHandle::for_fileid(nfsperf_server::ROOT_FILEID),
            name: name.to_owned(),
            mode: CreateMode::Unchecked,
            attrs: Sattr3 {
                mode: Some(0o644),
                size: None,
            },
        };
        let bytes = self
            .xprt
            .call(NfsProc3::Create as u32, &args)
            .await
            .map_err(|_| VfsError::Server(NfsStat3::Io as u32))?;
        let res = decode_as::<Create3Res>(bytes)?;
        if res.status != NfsStat3::Ok {
            return Err(VfsError::Server(res.status as u32));
        }
        let fh = res.file.ok_or(VfsError::Server(NfsStat3::Io as u32))?;
        let inode = NfsInode::new(fh, self.config.tuning.index);
        self.inodes.borrow_mut().push(Rc::clone(&inode));
        Ok(NfsFile {
            mount: Rc::clone(self),
            inode,
            written: Cell::new(0),
            closed: Cell::new(false),
        })
    }

    /// Requests outstanding across the mount.
    pub fn outstanding_requests(&self) -> usize {
        self.mount_requests.get()
    }

    /// Snapshot of mount statistics.
    pub fn stats(&self) -> MountStats {
        MountStats {
            write_rpcs: self.write_rpcs.get(),
            commit_rpcs: self.commit_rpcs.get(),
            soft_limit_flushes: self.soft_flushes.get(),
            hard_limit_sleeps: self.hard_sleeps.get(),
            verf_mismatches: self.verf_mismatches.get(),
            write_failures: self.write_failures.get(),
        }
    }

    /// The RPC transport (for its statistics).
    pub fn xprt(&self) -> &Rc<Xprt> {
        &self.xprt
    }

    /// The mount configuration.
    pub fn config(&self) -> &MountConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Write scheduling.
    // ------------------------------------------------------------------

    /// Spawns the WRITE task for one scheduled batch (asynchronous
    /// writeback).
    fn issue_batch(self: &Rc<Self>, inode: &Rc<NfsInode>, batch: Vec<Rc<NfsPageReq>>) {
        self.kernel
            .sim
            .spawn_detached(Rc::clone(self).write_batch(Rc::clone(inode), batch));
    }

    /// The WRITE task: sends a batch and applies the outcome. A batch is
    /// normally wsize-bounded and goes out whole as one RPC; one whose
    /// byte sum would overflow the u32 wire count is split, never
    /// truncated. Which of the two it takes is settled when the task is
    /// built.
    ///
    /// Thousands of these tasks can queue behind the transport's slot
    /// table at once (a 4×-RAM Bonnie close queues tens of thousands), so
    /// until its slot is granted a task holds only its batch, the mount
    /// and inode handles and the slot wait; [`NfsMount::write_rpc`]
    /// builds the RPC state machine in a box once the slot is granted.
    /// Both are plain functions returning `async move` blocks: an `async
    /// fn` would keep a second copy of its arguments in the future.
    fn write_batch(
        self: Rc<Self>,
        inode: Rc<NfsInode>,
        batch: Vec<Rc<NfsPageReq>>,
    ) -> impl Future<Output = ()> {
        debug_assert!(!batch.is_empty());
        let fits = batch_bytes(&batch) <= MAX_RPC_IO_BYTES;
        async move {
            if fits {
                self.write_rpc(&inode, batch).await;
            } else {
                // The split loop's state would widen every task's future.
                Box::pin(async {
                    for chunk in split_rpc_batches(batch, MAX_RPC_IO_BYTES) {
                        self.write_rpc(&inode, chunk).await;
                    }
                })
                .await;
            }
        }
    }

    /// Sends one WRITE RPC for a wire-legal chunk of requests: counts it
    /// as issued, then waits for a transport slot and runs the call in
    /// it. The caller awaits it as soon as it is built.
    fn write_rpc<'a>(
        &'a self,
        inode: &'a Rc<NfsInode>,
        batch: Vec<Rc<NfsPageReq>>,
    ) -> impl Future<Output = ()> + 'a {
        self.write_rpcs.inc();
        async move {
            let slot = self.xprt.reserve().await;
            Box::pin(self.write_in_slot(inode, batch, slot)).await;
        }
    }

    /// The in-slot part of a WRITE: encodes, sends and awaits the call,
    /// then applies the outcome to the batch.
    async fn write_in_slot(&self, inode: &Rc<NfsInode>, batch: Vec<Rc<NfsPageReq>>, slot: RpcSlot) {
        let offset = batch[0].file_offset();
        let count = batch_bytes(&batch);
        debug_assert!(count <= MAX_RPC_IO_BYTES);
        let args = Write3Args::new(inode.fh, offset, count as u32, StableHow::Unstable);
        match self
            .xprt
            .call_in_slot(slot, NfsProc3::Write as u32, &args)
            .await
        {
            Ok(bytes) => match decode_as::<Write3Res>(bytes) {
                Ok(res) if res.status == NfsStat3::Ok => match res.committed {
                    StableHow::FileSync | StableHow::DataSync => {
                        self.complete_batch(inode, &batch);
                    }
                    StableHow::Unstable => {
                        // Pages stay pinned awaiting COMMIT — the memory
                        // model's contract; only the segment changes.
                        self.kernel.mem.move_pages(
                            PageSeg::Writeback,
                            PageSeg::Unstable,
                            batch.len(),
                        );
                        inode.batch_unstable(&batch, res.verf);
                    }
                },
                Ok(res) => {
                    // Server-side failure: drop the data, record the error
                    // for fsync/close (asynchronous write error semantics).
                    self.write_failures.inc();
                    inode.write_error.set(Some(res.status as u32));
                    self.complete_batch(inode, &batch);
                }
                Err(_) => {
                    self.write_failures.inc();
                    self.kernel
                        .mem
                        .move_pages(PageSeg::Writeback, PageSeg::Dirty, batch.len());
                    inode.batch_redirty(&batch);
                }
            },
            Err(_) => {
                // Transport gave up: leave the data dirty for retry.
                self.write_failures.inc();
                self.kernel
                    .mem
                    .move_pages(PageSeg::Writeback, PageSeg::Dirty, batch.len());
                inode.batch_redirty(&batch);
            }
        }
    }

    /// Finishes a batch whose data is durable: releases pages and mount
    /// accounting.
    ///
    /// Audit note (pinned-until-COMMIT contract): this runs only for
    /// stable (FILE_SYNC/DATA_SYNC) completions and for server-side
    /// write errors that drop the data — never for an UNSTABLE reply,
    /// which moves pages to the `Unstable` segment and keeps them pinned
    /// until `commit_inode_begun` confirms the verifier.
    fn complete_batch(&self, inode: &Rc<NfsInode>, batch: &[Rc<NfsPageReq>]) {
        for req in batch {
            let seg = req_seg(req.state());
            inode.finish_request(req);
            self.kernel.mem.release_pages(seg, 1);
            self.note_request_gone();
        }
    }

    fn note_request_created(&self) {
        self.mount_requests.set(self.mount_requests.get() + 1);
    }

    fn note_request_gone(&self) {
        let n = self.mount_requests.get();
        debug_assert!(n > 0);
        self.mount_requests.set(n - 1);
        if n - 1 < self.config.hard_limit {
            self.hard_waiters.wake_all();
        }
    }

    /// Sends a COMMIT for the inode's unstable data and completes the
    /// requests the verifier confirms.
    async fn commit_inode(self: &Rc<Self>, inode: &Rc<NfsInode>) {
        if inode.unstable_requests() == 0 || !inode.begin_commit() {
            return;
        }
        self.commit_inode_begun(inode).await;
    }

    /// Body of a COMMIT whose in-flight slot (`begin_commit`) the caller
    /// already claimed — `nfs_flushd` claims it before spawning so the
    /// very next scan pass sees the commit as in flight.
    async fn commit_inode_begun(self: &Rc<Self>, inode: &Rc<NfsInode>) {
        if inode.unstable_requests() == 0 {
            inode.end_commit();
            return;
        }
        let snapshot = inode.unstable_snapshot();
        self.commit_rpcs.inc();
        let args = Commit3Args {
            file: inode.fh,
            offset: 0,
            count: 0,
        };
        let outcome = self.xprt.call(NfsProc3::Commit as u32, &args).await;
        match outcome {
            Ok(bytes) => {
                if let Ok(res) = decode_as::<Commit3Res>(bytes) {
                    if res.status == NfsStat3::Ok {
                        for req in &snapshot {
                            if req.state() != crate::request::ReqState::Unstable {
                                continue;
                            }
                            if req.verf() == res.verf {
                                // COMMIT confirmed: the page's unstable
                                // pin finally drops.
                                inode.finish_request(req);
                                self.kernel.mem.release_pages(PageSeg::Unstable, 1);
                                self.note_request_gone();
                            } else {
                                // Server rebooted: data may be lost, send
                                // it again. The request goes back to the
                                // dirty list in place (as a failed WRITE
                                // does) — recreating it would collide with
                                // writers coalescing into it mid-COMMIT
                                // and corrupt the unstable accounting.
                                self.verf_mismatches.inc();
                                self.kernel
                                    .mem
                                    .move_pages(PageSeg::Unstable, PageSeg::Dirty, 1);
                                inode.redirty_unstable(req);
                            }
                        }
                    } else {
                        inode.write_error.set(Some(res.status as u32));
                    }
                }
            }
            Err(_) => {
                // Leave requests unstable; a later COMMIT retries.
            }
        }
        inode.end_commit();
    }

    /// Should this inode be committed now?
    fn wants_commit(&self, inode: &NfsInode) -> bool {
        inode.unstable_requests() > 0
            && !inode.commit_in_flight()
            && (inode.unstable_bytes() >= self.config.commit_threshold
                || (inode.dirty_requests() == 0 && inode.writeback_requests() == 0))
    }

    // ------------------------------------------------------------------
    // nfs_flushd.
    // ------------------------------------------------------------------

    /// The write-behind daemon: ages out partial batches and issues
    /// COMMITs. Holds the global kernel lock while scanning, as the 2.4
    /// daemon does whenever it is awake and flushing.
    async fn nfs_flushd(self: Rc<Self>) {
        loop {
            self.kernel
                .mem
                .wait_for_writeback_work(self.config.flushd_interval)
                .await;
            let inodes: Vec<Rc<NfsInode>> = self.inodes.borrow().clone();
            let mut progress = 0;
            for inode in &inodes {
                progress += self.schedule_dirty(inode, "nfs_flushd").await;
            }
            for inode in &inodes {
                // Claim the commit slot *before* spawning: the spawned
                // task cannot run until this pass yields, and without the
                // claim the daemon would re-spawn the same COMMIT (and
                // count it as progress) every pass until it did.
                if self.wants_commit(inode) && inode.begin_commit() {
                    progress += 1;
                    let mount = Rc::clone(&self);
                    let ino = Rc::clone(inode);
                    self.kernel.sim.spawn_detached(async move {
                        mount.commit_inode_begun(&ino).await;
                    });
                }
            }
            // Pace the daemon only when a pass found nothing to do:
            // `wait_for_writeback_work` returns immediately while memory
            // sits over the background limit, and with everything already
            // in flight the daemon would spin without advancing simulated
            // time. On a productive pass the tick would be pure added
            // writeback latency, so it goes straight back to scanning.
            if progress == 0 {
                self.kernel.sim.sleep(SimDuration::from_millis(1)).await;
            }
        }
    }

    // ------------------------------------------------------------------
    // The write() system call path.
    // ------------------------------------------------------------------

    /// `nfs_updatepage` for one page segment: the double request-list
    /// search, request creation, and cost accounting.
    async fn nfs_updatepage(
        self: &Rc<Self>,
        inode: &Rc<NfsInode>,
        seg: nfsperf_kernel::PageSegment,
    ) {
        let kernel = &self.kernel;
        let costs = &kernel.costs;

        // nfs_prepare_write / nfs_commit_write bracket the copy under the
        // global kernel lock.
        {
            let _bkl = kernel.bkl.lock("nfs_commit_write").await;
            kernel
                .cpus
                .work("nfs_commit_write", costs.commit_write_locked)
                .await;
        }
        // Copy the user data into the page cache.
        kernel
            .cpus
            .work("generic_file_write", costs.page_copy)
            .await;

        // First search: nfs_find_request looks for an incompatible
        // request that would have to be flushed first.
        let lookup = inode.index.borrow().find(seg.index);
        self.charge_index_walk("nfs_find_request", lookup.scanned)
            .await;

        if let Some(existing) = lookup.found {
            // Second search happens inside nfs_update_request as well;
            // on a hit it is equally long.
            self.charge_index_walk("nfs_update_request", lookup.scanned)
                .await;
            if existing.merge(seg.offset_in_page, seg.len) {
                // Coalesced into the existing request. If its WRITE had
                // already completed UNSTABLE, the grown range must reach
                // the server again: back to the dirty list (keeping its
                // index slot and accounting consistent).
                if existing.state() == ReqState::Unstable {
                    self.kernel
                        .mem
                        .move_pages(PageSeg::Unstable, PageSeg::Dirty, 1);
                    inode.redirty_unstable(&existing);
                }
                return;
            }
            // Incompatible request on the same page: it must be flushed
            // before the current write proceeds (rare; never on the
            // sequential benchmark path).
            self.flush_and_wait(inode).await;
        }

        // Create and index the new request. With foreground throttling a
        // writer over the dirty ratio first does writeback work itself;
        // otherwise (2.4 semantics) it parks on the hard limit inside
        // `pin_dirty_page` until the daemons free pages.
        if self.config.tuning.fg_throttle {
            self.balance_dirty_pages(inode).await;
        }
        kernel.mem.pin_dirty_page().await;
        kernel
            .cpus
            .work("nfs_update_request", costs.request_setup)
            .await;
        let req = NfsPageReq::new(seg.index, seg.offset_in_page, seg.len, kernel.sim.now());
        // Index insertion and count bookkeeping must be atomic with
        // respect to `nfs_flushd` (no await between them), or the daemon
        // can schedule the request before it is accounted for.
        let walked = inode.index.borrow_mut().insert(req);
        inode.note_created(seg.index);
        self.note_request_created();
        self.charge_index_walk("nfs_update_request", walked).await;
    }

    /// `balance_dirty_pages`-style foreground throttling: while the
    /// pinned total sits at the dirty ratio, the writer schedules write
    /// batches itself (paying the same scan/flush costs as the daemon)
    /// and waits for completions instead of parking blind on the hard
    /// limit. Throughput therefore degrades gradually to server speed:
    /// each page the writer dirties over the ratio costs it one round of
    /// its own writeback work.
    async fn balance_dirty_pages(self: &Rc<Self>, inode: &Rc<NfsInode>) {
        let mem = &self.kernel.mem;
        if !mem.over_hard_limit() {
            return;
        }
        mem.note_throttle_event();
        mem.kick_writeback();
        let began = self.kernel.sim.now();
        self.kernel
            .cpus
            .work("balance_dirty_pages", self.kernel.costs.balance_dirty_pages)
            .await;
        while mem.over_hard_limit() {
            if inode.dirty_requests() > 0 {
                if let Some(batch) = self.schedule_one_batch(inode, "balance_dirty_pages").await {
                    self.issue_batch(inode, batch);
                    continue;
                }
            }
            if inode.total_requests() == 0 {
                // Nothing of ours left in flight: the pressure is other
                // files'/mounts' pages. Fall back to the throttled pin.
                break;
            }
            if self.wants_commit(inode) {
                let mount = Rc::clone(self);
                let ino = Rc::clone(inode);
                self.kernel.sim.spawn_detached(async move {
                    mount.commit_inode(&ino).await;
                });
            }
            inode.completion.wait().await;
        }
        mem.add_throttle_time(self.kernel.sim.now().since(began));
    }

    /// Charges the CPU for an index walk (list scan or hash probe).
    async fn charge_index_walk(&self, label: &'static str, scanned: usize) {
        let cost = match self.config.tuning.index {
            IndexKind::SortedList => self.kernel.costs.list_scan(scanned),
            IndexKind::HashTable => self.kernel.costs.hash_op,
        };
        self.kernel.cpus.work_exact(label, cost).await;
    }

    /// The stock client's post-write limit checks (`nfs_strategy` tail).
    async fn enforce_limits(self: &Rc<Self>, inode: &Rc<NfsInode>) {
        if !self.config.tuning.sync_flush_limits {
            return;
        }
        if inode.total_requests() > self.config.soft_limit {
            // Schedule *everything* and wait for it all to drain — the
            // Figure 2 latency spike.
            self.soft_flushes.inc();
            self.flush_and_wait(inode).await;
        }
        if self.mount_requests.get() > self.config.hard_limit {
            self.hard_sleeps.inc();
            while self.mount_requests.get() > self.config.hard_limit {
                self.hard_waiters.wait().await;
            }
        }
    }

    /// Schedules every dirty request on the inode, one `nfs_scan_list`
    /// step per batch: each step walks the request index (O(n) with the
    /// stock list, O(1) with the paper's hash table) under the global
    /// kernel lock before the batch goes to the RPC layer.
    ///
    /// This per-batch walk is the scheduler-side twin of the writer's
    /// `nfs_find_request` pathology: with a long list the write-behind
    /// daemon spends its time scanning rather than sending, which is why
    /// writeback falls further and further behind in the Figure 3
    /// configuration.
    async fn schedule_dirty(self: &Rc<Self>, inode: &Rc<NfsInode>, label: &'static str) -> usize {
        let mut issued = 0;
        while inode.dirty_requests() > 0 {
            match self.schedule_one_batch(inode, label).await {
                Some(batch) => {
                    issued += 1;
                    self.issue_batch(inode, batch);
                }
                None => break,
            }
        }
        issued
    }

    /// One `nfs_scan_list` step: walks the request index under the
    /// global kernel lock, pays the scan and flush-setup costs, and takes
    /// the first wsize run of dirty requests, moving its pages to the
    /// `Writeback` segment. The caller sends the batch.
    async fn schedule_one_batch(
        self: &Rc<Self>,
        inode: &Rc<NfsInode>,
        label: &'static str,
    ) -> Option<Vec<Rc<NfsPageReq>>> {
        let _bkl = self.kernel.bkl.lock(label).await;
        let scan_cost = match self.config.tuning.index {
            IndexKind::SortedList => self.kernel.costs.list_scan(inode.index.borrow().len()),
            IndexKind::HashTable => self.kernel.costs.hash_op,
        };
        self.kernel
            .cpus
            .work_exact("nfs_scan_list", scan_cost)
            .await;
        self.kernel
            .cpus
            .work("nfs_flush_one", self.kernel.costs.flush_setup)
            .await;
        let batch = inode.take_first_dirty_batch(self.wsize_pages());
        if let Some(batch) = &batch {
            self.kernel
                .mem
                .move_pages(PageSeg::Dirty, PageSeg::Writeback, batch.len());
        }
        batch
    }

    /// Schedules all dirty data and waits until every request (including
    /// unstable ones) has completed — `nfs_wb_all`.
    async fn flush_and_wait(self: &Rc<Self>, inode: &Rc<NfsInode>) {
        loop {
            if inode.dirty_requests() > 0 {
                self.schedule_dirty(inode, "nfs_strategy").await;
            }
            if inode.total_requests() == 0 {
                return;
            }
            if self.wants_commit(inode) {
                let mount = Rc::clone(self);
                let ino = Rc::clone(inode);
                self.kernel.sim.spawn_detached(async move {
                    mount.commit_inode(&ino).await;
                });
            }
            inode.completion.wait().await;
        }
    }
}

/// The memory-model segment a request's pinned page lives in.
fn req_seg(state: ReqState) -> PageSeg {
    match state {
        ReqState::Dirty => PageSeg::Dirty,
        ReqState::Writeback => PageSeg::Writeback,
        ReqState::Unstable => PageSeg::Unstable,
    }
}

/// Decodes an XDR result body and returns the body's buffer to the
/// payload pool.
fn decode_as<T: XdrDecode>(bytes: DatagramPayload) -> Result<T, VfsError> {
    let res = T::decode(&mut Decoder::new(&bytes));
    pool_put(bytes);
    res.map_err(|_| VfsError::Server(NfsStat3::Io as u32))
}

/// Largest byte count a single READ or WRITE RPC may carry: NFSv3 puts
/// counts in a `u32` on the wire (RFC 1813 §3.3.7), so larger transfers
/// must be split across RPCs instead of silently truncated by a cast.
pub const MAX_RPC_IO_BYTES: u64 = 1 << 30;

/// Bytes a batch of requests carries.
fn batch_bytes(batch: &[Rc<NfsPageReq>]) -> u64 {
    batch.iter().map(|r| r.len()).sum()
}

/// Splits a batch into sub-batches whose byte sums each fit in one WRITE
/// RPC of at most `cap` bytes. Batches are wsize-bounded in practice, so
/// only a pathological configuration reaches this: the WRITE task sends
/// a batch that fits whole without calling it.
fn split_rpc_batches(batch: Vec<Rc<NfsPageReq>>, cap: u64) -> Vec<Vec<Rc<NfsPageReq>>> {
    let mut chunks = Vec::new();
    let mut chunk: Vec<Rc<NfsPageReq>> = Vec::new();
    let mut bytes = 0u64;
    for req in batch {
        if !chunk.is_empty() && bytes + req.len() > cap {
            chunks.push(std::mem::take(&mut chunk));
            bytes = 0;
        }
        bytes += req.len();
        chunk.push(req);
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    chunks
}

/// An open NFS file.
pub struct NfsFile {
    mount: Rc<NfsMount>,
    inode: Rc<NfsInode>,
    written: Cell<u64>,
    closed: Cell<bool>,
}

impl NfsFile {
    /// The mount this file belongs to.
    pub fn mount(&self) -> &Rc<NfsMount> {
        &self.mount
    }

    /// The file's client-side write state (for instrumentation).
    pub fn inode(&self) -> &Rc<NfsInode> {
        &self.inode
    }

    /// Reads `len` bytes at `offset` from the server, returning bytes
    /// actually read (short at end of file).
    ///
    /// The benchmark is write-only, so reads take the simple path: any
    /// dirty data is flushed first (write-then-read consistency), then
    /// the data comes straight from the server — the 2.4 read cache is
    /// out of scope for this reproduction.
    pub async fn read(&self, offset: u64, len: u64) -> VfsResult<u64> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        if self.inode.total_requests() > 0 {
            self.mount.flush_and_wait(&self.inode).await;
        }
        let kernel = &self.mount.kernel;
        kernel
            .cpus
            .work("sys_read", kernel.costs.write_syscall_fixed)
            .await;
        // NFSv3 READ counts are u32 on the wire: a transfer past 4 GiB
        // takes several RPCs (a cast would turn a 4 GiB read into a
        // zero-byte request).
        let mut total = 0u64;
        while total < len {
            let ask = (len - total).min(MAX_RPC_IO_BYTES) as u32;
            let args = Read3Args {
                file: self.inode.fh,
                offset: offset + total,
                count: ask,
            };
            let bytes = self
                .mount
                .xprt
                .call(NfsProc3::Read as u32, &args)
                .await
                .map_err(|_| VfsError::Server(NfsStat3::Io as u32))?;
            let res = decode_as::<Read3Res>(bytes)?;
            if res.status != NfsStat3::Ok {
                return Err(VfsError::Server(res.status as u32));
            }
            // Copy the returned data into user space.
            for _seg in nfsperf_kernel::split_into_pages(offset + total, u64::from(res.count)) {
                kernel
                    .cpus
                    .work("generic_file_read", kernel.costs.page_copy)
                    .await;
            }
            total += u64::from(res.count);
            if res.eof || res.count < ask {
                break;
            }
        }
        Ok(total)
    }

    /// Truncates the file to `size` via SETATTR (flushing dirty data
    /// first).
    pub async fn truncate(&self, size: u64) -> VfsResult<()> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        if self.inode.total_requests() > 0 {
            self.mount.flush_and_wait(&self.inode).await;
        }
        let args = Setattr3Args {
            file: self.inode.fh,
            attrs: Sattr3 {
                mode: None,
                size: Some(size),
            },
        };
        let bytes = self
            .mount
            .xprt
            .call(NfsProc3::Setattr as u32, &args)
            .await
            .map_err(|_| VfsError::Server(NfsStat3::Io as u32))?;
        let res = decode_as::<Setattr3Res>(bytes)?;
        if res.status != NfsStat3::Ok {
            return Err(VfsError::Server(res.status as u32));
        }
        Ok(())
    }

    fn check_error(&self) -> VfsResult<()> {
        match self.inode.write_error.get() {
            Some(status) => Err(VfsError::Server(status)),
            None => Ok(()),
        }
    }
}

impl SimFile for NfsFile {
    async fn write(&self, offset: u64, len: u64) -> VfsResult<u64> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        let kernel = &self.mount.kernel;
        kernel
            .cpus
            .work("sys_write", kernel.costs.write_syscall_fixed)
            .await;
        for seg in nfsperf_kernel::split_into_pages(offset, len) {
            self.mount.nfs_updatepage(&self.inode, seg).await;
        }
        self.inode.grow_size(offset + len);

        // The writer itself schedules no RPCs: requests cache on the
        // inode and `nfs_flushd` writes behind (paper §3.3: "the client
        // should cache as many requests as it can in available memory").
        // Only the stock limit checks below force synchronous flushing.
        self.mount.enforce_limits(&self.inode).await;
        self.written.set(self.written.get() + len);
        Ok(len)
    }

    async fn fsync(&self) -> VfsResult<()> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        self.mount.flush_and_wait(&self.inode).await;
        self.check_error()
    }

    async fn close(&self) -> VfsResult<()> {
        if self.closed.get() {
            return Ok(());
        }
        // NFS flushes completely before the last close.
        self.mount.flush_and_wait(&self.inode).await;
        self.closed.set(true);
        self.check_error()
    }

    fn bytes_written(&self) -> u64 {
        self.written.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;

    fn reqs(lens: &[u64]) -> Vec<Rc<NfsPageReq>> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| NfsPageReq::new(i as u64, 0, len, SimTime::ZERO))
            .collect()
    }

    #[test]
    fn split_keeps_small_batches_whole() {
        let chunks = split_rpc_batches(reqs(&[4096, 4096]), MAX_RPC_IO_BYTES);
        assert_eq!(chunks.len(), 1, "a wsize batch is one RPC");
        assert_eq!(chunks[0].len(), 2);
    }

    #[test]
    fn split_respects_cap_boundary() {
        // Three page-sized requests against a two-page cap: 2 + 1.
        let chunks = split_rpc_batches(reqs(&[4096, 4096, 4096]), 8192);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[1].len(), 1);
        // An exact fit does not spill.
        let chunks = split_rpc_batches(reqs(&[4096, 4096]), 8192);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn split_never_drops_bytes_past_u32() {
        // A batch summing past u32::MAX must split so each chunk's count
        // survives the wire cast.
        let lens = vec![4096u64; 6];
        let chunks = split_rpc_batches(reqs(&lens), 3 * 4096);
        let total: u64 = chunks.iter().flatten().map(|r| r.len()).sum();
        assert_eq!(total, 6 * 4096);
        for chunk in &chunks {
            let count: u64 = chunk.iter().map(|r| r.len()).sum();
            assert!(count <= 3 * 4096);
        }
    }

    /// Size of the future an async fn of three arguments returns.
    fn future_size<A, B, C, F: Future>(_: fn(A, B, C) -> F) -> usize {
        std::mem::size_of::<F>()
    }

    #[test]
    fn a_queued_write_task_is_small() {
        // Each scheduled batch spawns one of these, and at 4× RAM tens of
        // thousands wait on the slot table at once; the RPC state machine
        // (over 700 bytes) is boxed only once a slot is granted. 112 B
        // measured.
        let bytes = future_size(NfsMount::write_batch);
        eprintln!("spawned WRITE task: {bytes} B");
        assert!(bytes <= 128, "the spawned WRITE task is {bytes} B");
    }

    #[test]
    fn rpc_cap_fits_the_wire() {
        assert!(MAX_RPC_IO_BYTES <= u64::from(u32::MAX));
    }
}
