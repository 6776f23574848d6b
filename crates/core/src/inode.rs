//! Per-inode NFS write state: request accounting, coalescing into RPC
//! batches, and completion tracking.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nfsperf_nfs3::{FileHandle, WriteVerf};
use nfsperf_sim::WaitQueue;

use crate::index::RequestIndex;
use crate::request::{NfsPageReq, ReqState};
use crate::tuning::IndexKind;

/// Client-side write state for one NFS file.
pub struct NfsInode {
    /// The server's handle for this file.
    pub fh: FileHandle,
    /// Outstanding request index (charged as a list walk or a hash probe).
    pub index: RefCell<RequestIndex>,
    dirty: Cell<usize>,
    /// No request with `page_index` below this is in `Dirty` state.
    ///
    /// Pure host-CPU hint: dirty scans start here instead of walking the
    /// leading writeback/unstable entries every call. Lowered whenever a
    /// request (re)enters `Dirty`, raised only once a scan has proven the
    /// prefix clean. Never affects which requests a scan returns, so
    /// simulation output is unchanged.
    dirty_floor: Cell<u64>,
    writeback: Cell<usize>,
    unstable: Cell<usize>,
    unstable_bytes: Cell<u64>,
    /// Woken whenever a request completes or changes state.
    pub completion: WaitQueue,
    commit_in_flight: Cell<bool>,
    /// Sticky asynchronous write error, reported at fsync/close.
    pub write_error: Cell<Option<u32>>,
    size: Cell<u64>,
}

impl NfsInode {
    /// Creates the write state for a freshly opened file.
    pub fn new(fh: FileHandle, kind: IndexKind) -> Rc<NfsInode> {
        Rc::new(NfsInode {
            fh,
            index: RefCell::new(RequestIndex::new(kind)),
            dirty: Cell::new(0),
            dirty_floor: Cell::new(0),
            writeback: Cell::new(0),
            unstable: Cell::new(0),
            unstable_bytes: Cell::new(0),
            completion: WaitQueue::new(),
            commit_in_flight: Cell::new(false),
            write_error: Cell::new(None),
            size: Cell::new(0),
        })
    }

    /// Requests in every state (the count `MAX_REQUEST_SOFT` guards).
    pub fn total_requests(&self) -> usize {
        self.dirty.get() + self.writeback.get() + self.unstable.get()
    }

    /// Requests dirty and not yet scheduled.
    pub fn dirty_requests(&self) -> usize {
        self.dirty.get()
    }

    /// Requests inside in-flight WRITE RPCs.
    pub fn writeback_requests(&self) -> usize {
        self.writeback.get()
    }

    /// Requests written UNSTABLE and awaiting COMMIT.
    pub fn unstable_requests(&self) -> usize {
        self.unstable.get()
    }

    /// Bytes awaiting COMMIT.
    pub fn unstable_bytes(&self) -> u64 {
        self.unstable_bytes.get()
    }

    /// Records a brand-new dirty request at `page_index`.
    pub fn note_created(&self, page_index: u64) {
        self.dirty.set(self.dirty.get() + 1);
        self.lower_dirty_floor(page_index);
    }

    /// A request at `page_index` (re)entered `Dirty`: the scan floor may
    /// no longer skip past it.
    fn lower_dirty_floor(&self, page_index: u64) {
        if page_index < self.dirty_floor.get() {
            self.dirty_floor.set(page_index);
        }
    }

    /// Observed file size (local view).
    pub fn size(&self) -> u64 {
        self.size.get()
    }

    /// Extends the local size view.
    pub fn grow_size(&self, to: u64) {
        self.size.set(self.size.get().max(to));
    }

    /// Takes batches of contiguous dirty requests, each at most
    /// `wsize_pages` pages, marking them writeback.
    ///
    /// With `only_full` set, trailing partial batches are left dirty for
    /// the write-behind daemon to age out — this is `nfs_strategy`'s
    /// behaviour on the hot path.
    pub fn take_dirty_batches(
        &self,
        wsize_pages: usize,
        only_full: bool,
    ) -> Vec<Vec<Rc<NfsPageReq>>> {
        let index = self.index.borrow();
        let mut batches: Vec<Vec<Rc<NfsPageReq>>> = Vec::new();
        let mut run: Vec<Rc<NfsPageReq>> = Vec::new();
        for req in index.iter_from(self.dirty_floor.get()) {
            if req.state() != ReqState::Dirty {
                continue;
            }
            let contiguous = run
                .last()
                .is_none_or(|last| last.file_offset() + last.len() == req.file_offset());
            if (!contiguous || run.len() == wsize_pages) && !run.is_empty() {
                batches.push(std::mem::take(&mut run));
            }
            run.push(Rc::clone(req));
            if run.len() == wsize_pages {
                batches.push(std::mem::take(&mut run));
            }
        }
        // Everything dirty up to the leftover partial run (if any) is
        // about to become writeback.
        self.dirty_floor.set(if only_full {
            run.first().map_or(u64::MAX, |r| r.page_index)
        } else {
            u64::MAX
        });
        if !run.is_empty() && !only_full {
            batches.push(run);
        }
        drop(index);
        for batch in &batches {
            for req in batch {
                req.mark_writeback();
                self.dirty.set(self.dirty.get() - 1);
                self.writeback.set(self.writeback.get() + 1);
            }
        }
        batches
    }

    /// Takes the first run of contiguous dirty requests (at most
    /// `wsize_pages` pages), marking it writeback — one `nfs_scan_list`
    /// step: the caller pays for one walk of the index per call.
    ///
    /// Contiguity is in bytes, not page indexes: a WRITE RPC covers one
    /// dense `[offset, offset+count)` range, so a partial page interior
    /// to a run (a byte hole behind an adjacent page) must end the batch.
    pub fn take_first_dirty_batch(&self, wsize_pages: usize) -> Option<Vec<Rc<NfsPageReq>>> {
        let index = self.index.borrow();
        let mut run: Vec<Rc<NfsPageReq>> = Vec::new();
        for req in index.iter_from(self.dirty_floor.get()) {
            if req.state() != ReqState::Dirty {
                continue;
            }
            let contiguous = run
                .last()
                .is_none_or(|last| last.file_offset() + last.len() == req.file_offset());
            if !contiguous || run.len() == wsize_pages {
                break;
            }
            if run.is_empty() {
                // The batch lives as long as its WRITE, queued ones
                // included: size it to the wsize, not to `push`'s four.
                run.reserve_exact(wsize_pages);
            }
            run.push(Rc::clone(req));
        }
        drop(index);
        if run.is_empty() {
            // Proven: nothing is dirty anywhere (nothing below the floor
            // by invariant, nothing at or above it by this scan).
            self.dirty_floor.set(u64::MAX);
            return None;
        }
        // The run becomes writeback and everything before it was scanned
        // non-dirty: the floor moves past the run.
        self.dirty_floor
            .set(run.last().map_or(u64::MAX, |r| r.page_index + 1));
        for req in &run {
            req.mark_writeback();
            self.dirty.set(self.dirty.get() - 1);
            self.writeback.set(self.writeback.get() + 1);
        }
        Some(run)
    }

    /// Transitions a batch to UNSTABLE after an unstable WRITE reply.
    pub fn batch_unstable(&self, batch: &[Rc<NfsPageReq>], verf: WriteVerf) {
        for req in batch {
            req.mark_unstable(verf);
            self.writeback.set(self.writeback.get() - 1);
            self.unstable.set(self.unstable.get() + 1);
            self.unstable_bytes
                .set(self.unstable_bytes.get() + req.unstable_len());
        }
        self.completion.wake_all();
    }

    /// Returns a failed batch to dirty for retry.
    pub fn batch_redirty(&self, batch: &[Rc<NfsPageReq>]) {
        for req in batch {
            req.mark_dirty_again();
            self.lower_dirty_floor(req.page_index);
            self.writeback.set(self.writeback.get() - 1);
            self.dirty.set(self.dirty.get() + 1);
        }
        self.completion.wake_all();
    }

    /// Finishes one request (durable at the server): removes it from the
    /// index. The caller releases the page and mount accounting.
    pub fn finish_request(&self, req: &Rc<NfsPageReq>) {
        match req.state() {
            ReqState::Writeback => self.writeback.set(self.writeback.get() - 1),
            ReqState::Unstable => {
                self.unstable.set(self.unstable.get() - 1);
                // Subtract what was *recorded* unstable, not the current
                // length — a writer may have merge-grown the request since
                // its WRITE completed.
                self.unstable_bytes
                    .set(self.unstable_bytes.get() - req.unstable_len());
            }
            ReqState::Dirty => self.dirty.set(self.dirty.get() - 1),
        }
        self.index.borrow_mut().remove(req.page_index);
        self.completion.wake_all();
    }

    /// Returns one UNSTABLE request to dirty so its (possibly re-grown)
    /// data is sent again — COMMIT verifier mismatch, or new bytes landing
    /// on a page whose WRITE already completed. The request keeps its
    /// index slot, so concurrent writers keep coalescing into it instead
    /// of colliding with a hand-rolled replacement.
    pub fn redirty_unstable(&self, req: &Rc<NfsPageReq>) {
        debug_assert_eq!(req.state(), ReqState::Unstable);
        self.unstable.set(self.unstable.get() - 1);
        self.unstable_bytes
            .set(self.unstable_bytes.get() - req.unstable_len());
        req.mark_dirty_again();
        self.lower_dirty_floor(req.page_index);
        self.dirty.set(self.dirty.get() + 1);
        self.completion.wake_all();
    }

    /// Snapshot of requests currently in UNSTABLE state (for COMMIT).
    pub fn unstable_snapshot(&self) -> Vec<Rc<NfsPageReq>> {
        self.index
            .borrow()
            .iter()
            .filter(|r| r.state() == ReqState::Unstable)
            .map(Rc::clone)
            .collect()
    }

    /// Marks a COMMIT in flight; returns `false` if one already is.
    pub fn begin_commit(&self) -> bool {
        if self.commit_in_flight.get() {
            return false;
        }
        self.commit_in_flight.set(true);
        true
    }

    /// Clears the COMMIT-in-flight mark.
    pub fn end_commit(&self) {
        self.commit_in_flight.set(false);
        self.completion.wake_all();
    }

    /// Returns `true` while a COMMIT RPC is outstanding.
    pub fn commit_in_flight(&self) -> bool {
        self.commit_in_flight.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;

    fn inode() -> Rc<NfsInode> {
        NfsInode::new(FileHandle::for_fileid(7), IndexKind::SortedList)
    }

    fn add_dirty(ino: &NfsInode, pages: std::ops::Range<u64>) {
        for p in pages {
            let req = NfsPageReq::new(p, 0, 4096, SimTime::ZERO);
            ino.index.borrow_mut().insert(req);
            ino.note_created(p);
        }
    }

    #[test]
    fn counts_track_states() {
        let ino = inode();
        add_dirty(&ino, 0..4);
        assert_eq!(ino.total_requests(), 4);
        assert_eq!(ino.dirty_requests(), 4);

        let batches = ino.take_dirty_batches(2, false);
        assert_eq!(batches.len(), 2);
        assert_eq!(ino.dirty_requests(), 0);
        assert_eq!(ino.writeback_requests(), 4);

        ino.batch_unstable(&batches[0], WriteVerf(1));
        assert_eq!(ino.unstable_requests(), 2);
        assert_eq!(ino.unstable_bytes(), 8192);

        for req in &batches[1] {
            ino.finish_request(req);
        }
        assert_eq!(ino.writeback_requests(), 0);
        assert_eq!(ino.total_requests(), 2);

        for req in &batches[0] {
            ino.finish_request(req);
        }
        assert_eq!(ino.total_requests(), 0);
        assert_eq!(ino.unstable_bytes(), 0);
        assert!(ino.index.borrow().is_empty());
    }

    #[test]
    fn batches_split_at_wsize_and_gaps() {
        let ino = inode();
        add_dirty(&ino, 0..5); // pages 0-4
        add_dirty(&ino, 10..12); // gap, then pages 10-11
        let batches = ino.take_dirty_batches(2, false);
        let shapes: Vec<Vec<u64>> = batches
            .iter()
            .map(|b| b.iter().map(|r| r.page_index).collect())
            .collect();
        assert_eq!(
            shapes,
            vec![vec![0, 1], vec![2, 3], vec![4], vec![10, 11]],
            "contiguous runs cut at wsize, gaps split batches"
        );
    }

    #[test]
    fn only_full_leaves_partial_tail_dirty() {
        let ino = inode();
        add_dirty(&ino, 0..5);
        let batches = ino.take_dirty_batches(2, true);
        assert_eq!(batches.len(), 2, "two full batches taken");
        assert_eq!(ino.dirty_requests(), 1, "page 4 stays dirty");
        assert_eq!(ino.writeback_requests(), 4);
    }

    #[test]
    fn redirty_returns_requests() {
        let ino = inode();
        add_dirty(&ino, 0..2);
        let batches = ino.take_dirty_batches(2, false);
        ino.batch_redirty(&batches[0]);
        assert_eq!(ino.dirty_requests(), 2);
        assert_eq!(ino.writeback_requests(), 0);
        // They can be taken again.
        let again = ino.take_dirty_batches(2, false);
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn commit_in_flight_is_exclusive() {
        let ino = inode();
        assert!(ino.begin_commit());
        assert!(!ino.begin_commit(), "second commit refused");
        assert!(ino.commit_in_flight());
        ino.end_commit();
        assert!(ino.begin_commit());
    }

    #[test]
    fn unstable_snapshot_filters_state() {
        let ino = inode();
        add_dirty(&ino, 0..4);
        let batches = ino.take_dirty_batches(2, false);
        ino.batch_unstable(&batches[0], WriteVerf(9));
        let snap = ino.unstable_snapshot();
        let pages: Vec<u64> = snap.iter().map(|r| r.page_index).collect();
        assert_eq!(pages, vec![0, 1]);
    }

    #[test]
    fn size_grows_monotonically() {
        let ino = inode();
        ino.grow_size(100);
        ino.grow_size(50);
        assert_eq!(ino.size(), 100);
    }
}
