//! The pending-call table both client transports share: one entry per
//! slot-table slot, owned by the transport and reused call after call,
//! so an RPC claims an entry instead of allocating a record.
//!
//! A caller holds a slot for the whole call, so at most `slots` calls
//! are pending at once and a free entry always exists. Replies find
//! their call by xid with a linear scan, which over a 16-entry table
//! costs less than hashing the xid. The entries are allocated at the
//! first call, as the map they replace was, so a mount that is built
//! but never called costs no table.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use nfsperf_net::DatagramPayload;
use nfsperf_sim::WaitQueue;

/// One in-flight call's reply mailbox.
#[derive(Default)]
pub(crate) struct Pending {
    /// The call's xid while the entry is claimed.
    xid: Cell<Option<u32>>,
    /// The matched reply, until the caller takes it.
    pub(crate) reply: RefCell<Option<DatagramPayload>>,
    /// Set when the transport gives up on every pending call (TCP only).
    pub(crate) failed: Cell<bool>,
    /// Woken when `reply` or `failed` is set.
    pub(crate) arrived: WaitQueue,
    /// The encoded call, kept for replay after a reconnect (TCP only).
    pub(crate) sent: RefCell<Option<Rc<Vec<u8>>>>,
}

/// A transport's fixed table of [`Pending`] entries.
pub(crate) struct PendingTable {
    slots: usize,
    entries: OnceCell<Box<[Pending]>>,
}

impl PendingTable {
    /// A table of `slots` free entries.
    pub(crate) fn new(slots: usize) -> PendingTable {
        PendingTable {
            slots,
            entries: OnceCell::new(),
        }
    }

    /// The entries, none before the first claim.
    fn entries(&self) -> &[Pending] {
        self.entries.get().map_or(&[], |e| e)
    }

    /// Claims a free entry for `xid` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if every entry is claimed: the caller must hold a slot.
    pub(crate) fn claim(&self, xid: u32) -> usize {
        let entries = self
            .entries
            .get_or_init(|| (0..self.slots).map(|_| Pending::default()).collect());
        let i = entries
            .iter()
            .position(|p| p.xid.get().is_none())
            .expect("a pending call without a transport slot");
        entries[i].xid.set(Some(xid));
        i
    }

    /// Entry `i`.
    pub(crate) fn get(&self, i: usize) -> &Pending {
        &self.entries()[i]
    }

    /// The claimed entry for `xid`, if its call is still pending.
    pub(crate) fn find(&self, xid: u32) -> Option<&Pending> {
        self.entries().iter().find(|p| p.xid.get() == Some(xid))
    }

    /// Frees entry `i` for the next call.
    pub(crate) fn release(&self, i: usize) {
        let p = self.get(i);
        p.xid.set(None);
        p.failed.set(false);
        p.reply.borrow_mut().take();
        p.sent.borrow_mut().take();
    }

    /// The claimed entries.
    pub(crate) fn claimed(&self) -> impl Iterator<Item = &Pending> {
        self.entries().iter().filter(|p| p.xid.get().is_some())
    }

    /// Xids of every pending call.
    pub(crate) fn xids(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries().iter().filter_map(|p| p.xid.get())
    }

    /// Whether no call is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.claimed().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_matched_by_xid_and_reused() {
        let t = PendingTable::new(2);
        assert!(t.is_empty() && t.find(7).is_none());
        let a = t.claim(7);
        let b = t.claim(8);
        assert_ne!(a, b);
        assert!(t.find(8).is_some_and(|p| std::ptr::eq(p, t.get(b))));
        assert!(t.find(9).is_none());
        t.release(a);
        assert!(t.find(7).is_none());
        assert_eq!(t.xids().collect::<Vec<_>>(), vec![8]);
        assert_eq!(t.claim(9), a, "a released entry is claimed again");
        t.release(a);
        t.release(b);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "without a transport slot")]
    fn a_full_table_refuses_a_claim() {
        let t = PendingTable::new(1);
        t.claim(1);
        t.claim(2);
    }
}
