//! The per-inode request index: sorted list (2.4.4) and hash table (the
//! paper's fix).
//!
//! The 2.4.4 client keeps an inode's write requests on a list sorted by
//! page offset; `_nfs_find_request` walks it linearly. A sequential
//! writer looks up a page that is never there, walks the *whole* list,
//! and appends at the end — Figure 3's linear latency growth. The paper's
//! hash table keyed by page offset makes the lookup O(1) at a cost of
//! eight bytes per request and eight per inode.
//!
//! On the host both kinds keep the same structure: one ring of keyed
//! entries, `(page index, request)`, ordered by page index. The key sits
//! inline in the ring, so a binary search compares contiguous `u64`s and
//! never dereferences a request, and a key at or past either end of the
//! ring (a sequential writer's common case) needs no search at all.
//! There is no second structure to keep in step. The kind chooses only
//! the simulated cost the mount charges. With [`IndexKind::SortedList`],
//! [`RequestIndex::find`] and [`RequestIndex::insert`] walk the ring for
//! real and return the number of entries walked, charged per entry. With
//! [`IndexKind::HashTable`] they binary-search the ring and report no
//! walk, so the mount charges one hash probe. Completion removes from
//! the ring's front in O(1), as the kernel's unlink of a request it
//! already holds does.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::request::NfsPageReq;
use crate::tuning::IndexKind;

/// The index over one inode's outstanding requests.
pub struct RequestIndex {
    /// Which simulated cost the lookups report (a walk or a probe).
    kind: IndexKind,
    /// `(page index, request)` entries ordered by page index. The key is
    /// a copy of the request's immutable `page_index`.
    ring: VecDeque<(u64, Rc<NfsPageReq>)>,
}

/// Result of an index operation: what was found plus the walk length to
/// charge.
pub struct Lookup {
    /// The matching request, if one exists.
    pub found: Option<Rc<NfsPageReq>>,
    /// List entries walked (zero when the hash table answered).
    pub scanned: usize,
}

impl RequestIndex {
    /// Creates an empty index of the given kind.
    pub fn new(kind: IndexKind) -> RequestIndex {
        RequestIndex {
            kind,
            ring: VecDeque::new(),
        }
    }

    /// Position of the first request at or after `page_index`, and the
    /// entries walked to reach it: the real list walk of
    /// `_nfs_find_request` for the plain list (it stops at the page or at
    /// the first larger one, or walks everything), a binary search
    /// charged as no walk for the hash table.
    fn seek(&self, page_index: u64) -> (usize, usize) {
        match self.kind {
            IndexKind::SortedList => {
                match self.ring.iter().position(|&(page, _)| page >= page_index) {
                    Some(pos) => (pos, pos + 1),
                    None => (self.ring.len(), self.ring.len()),
                }
            }
            IndexKind::HashTable => (self.lower_bound(page_index), 0),
        }
    }

    /// Position of the first entry with a key at or after `page_index`.
    fn lower_bound(&self, page_index: u64) -> usize {
        // A sequential writer completes at the front and inserts past the
        // back: answer both ends without a search.
        match (self.ring.front(), self.ring.back()) {
            (Some(&(first, _)), _) if page_index <= first => 0,
            (_, Some(&(last, _))) if page_index > last => self.ring.len(),
            _ => self.ring.partition_point(|&(page, _)| page < page_index),
        }
    }

    /// Whether the entry at `pos` is keyed `page_index`.
    fn holds(&self, pos: usize, page_index: u64) -> bool {
        self.ring
            .get(pos)
            .is_some_and(|&(page, _)| page == page_index)
    }

    /// Looks up the request covering `page_index`.
    ///
    /// With the hash table this is one bucket probe; with the plain list
    /// it walks entries in page order until it finds the page or proves
    /// absence (passing the insertion point), exactly as
    /// `_nfs_find_request` does.
    pub fn find(&self, page_index: u64) -> Lookup {
        let (pos, scanned) = self.seek(page_index);
        Lookup {
            found: self
                .holds(pos, page_index)
                .then(|| Rc::clone(&self.ring[pos].1)),
            scanned,
        }
    }

    /// Inserts a new request, keeping the ring sorted. Returns entries
    /// walked to find the insertion point: a sequential writer walks the
    /// whole list every time (the Figure 3 pathology), while the hash
    /// table charges no walk. Either way a sequential append lands at the
    /// back of the ring in O(1).
    ///
    /// # Panics
    ///
    /// Panics, leaving the index unchanged, if a request for the same
    /// page is already indexed; callers must [`RequestIndex::find`] first.
    pub fn insert(&mut self, req: Rc<NfsPageReq>) -> usize {
        let page = req.page_index;
        let (pos, scanned) = self.seek(page);
        assert!(!self.holds(pos, page), "duplicate request for page {page}");
        self.ring.insert(pos, (page, req));
        scanned
    }

    /// Removes the request for `page_index` (on completion). Completion
    /// holds a pointer to the request in the real kernel, so removal is
    /// uncharged. The position is found by binary search, and the ring
    /// shifts only its shorter side, so completing the oldest request is
    /// O(1).
    pub fn remove(&mut self, page_index: u64) -> Option<Rc<NfsPageReq>> {
        let pos = self.lower_bound(page_index);
        if !self.holds(pos, page_index) {
            return None;
        }
        self.ring.remove(pos).map(|(_, req)| req)
    }

    /// Number of indexed requests.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when no requests are outstanding.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Iterates requests in page order (for coalescing and flushing).
    pub fn iter(&self) -> impl Iterator<Item = &Rc<NfsPageReq>> {
        self.ring.iter().map(|(_, req)| req)
    }

    /// Iterates requests with `page_index >= from` in page order. The
    /// starting position is found by binary search; this is a host-CPU
    /// shortcut only — simulated scan costs are charged by the caller
    /// independently of how the iteration is implemented.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &Rc<NfsPageReq>> {
        self.ring
            .range(self.lower_bound(from)..)
            .map(|(_, req)| req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;

    fn req(page: u64) -> Rc<NfsPageReq> {
        NfsPageReq::new(page, 0, 4096, SimTime::ZERO)
    }

    #[test]
    fn sequential_list_inserts_walk_everything() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in 0..100 {
            let l = idx.find(page);
            assert!(l.found.is_none());
            assert_eq!(l.scanned, page as usize, "absent lookup walks whole list");
            let walked = idx.insert(req(page));
            assert_eq!(walked, page as usize, "insert walks to the end");
        }
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn hash_lookups_do_not_walk() {
        let mut idx = RequestIndex::new(IndexKind::HashTable);
        for page in 0..100 {
            assert_eq!(idx.find(page).scanned, 0);
            assert_eq!(idx.insert(req(page)), 0);
        }
        let hit = idx.find(50);
        assert_eq!(hit.found.unwrap().page_index, 50);
        assert_eq!(hit.scanned, 0);
    }

    #[test]
    fn list_find_hit_stops_at_match() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in 0..10 {
            idx.insert(req(page));
        }
        let l = idx.find(4);
        assert_eq!(l.found.unwrap().page_index, 4);
        assert_eq!(l.scanned, 5);
    }

    #[test]
    fn list_find_miss_stops_at_sorted_position() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        idx.insert(req(0));
        idx.insert(req(10));
        let l = idx.find(5);
        assert!(l.found.is_none());
        assert_eq!(l.scanned, 2, "stops at the first larger page");
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in [5u64, 1, 9, 3, 7] {
            idx.insert(req(page));
        }
        let pages: Vec<u64> = idx.iter().map(|r| r.page_index).collect();
        assert_eq!(pages, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_finds_and_removes() {
        for kind in [IndexKind::SortedList, IndexKind::HashTable] {
            let mut idx = RequestIndex::new(kind);
            for page in 0..5 {
                idx.insert(req(page));
            }
            let removed = idx.remove(2).expect("present");
            assert_eq!(removed.page_index, 2);
            assert!(idx.find(2).found.is_none());
            assert!(idx.remove(2).is_none(), "second removal misses");
            assert_eq!(idx.len(), 4);
        }
    }

    #[test]
    fn keys_at_and_past_the_ends_resolve_without_a_search() {
        let mut idx = RequestIndex::new(IndexKind::HashTable);
        assert!(idx.remove(3).is_none(), "empty ring");
        for page in [2u64, 4, 6, 8] {
            idx.insert(req(page));
        }
        assert!(idx.find(1).found.is_none(), "before the front");
        assert!(idx.find(9).found.is_none(), "past the back");
        assert_eq!(idx.remove(2).expect("front").page_index, 2);
        assert_eq!(idx.remove(8).expect("back").page_index, 8);
        idx.insert(req(1));
        idx.insert(req(10));
        let pages: Vec<u64> = idx.iter_from(0).map(|r| r.page_index).collect();
        assert_eq!(pages, vec![1, 4, 6, 10]);
        assert_eq!(idx.iter_from(11).count(), 0);
        assert_eq!(idx.iter_from(5).next().expect("6").page_index, 6);
    }

    #[test]
    fn both_kinds_agree_on_contents() {
        let mut a = RequestIndex::new(IndexKind::SortedList);
        let mut b = RequestIndex::new(IndexKind::HashTable);
        for page in [3u64, 1, 4, 8, 9, 2, 6] {
            a.insert(req(page));
            b.insert(req(page));
        }
        let pa: Vec<u64> = a.iter().map(|r| r.page_index).collect();
        let pb: Vec<u64> = b.iter().map(|r| r.page_index).collect();
        assert_eq!(pa, pb);
        for page in 0..10 {
            assert_eq!(a.find(page).found.is_some(), b.find(page).found.is_some());
        }
    }

    #[test]
    fn duplicate_insert_panics_and_leaves_the_index_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        for kind in [IndexKind::SortedList, IndexKind::HashTable] {
            let mut idx = RequestIndex::new(kind);
            let originals: Vec<Rc<NfsPageReq>> = [1u64, 3, 5].into_iter().map(req).collect();
            for r in &originals {
                idx.insert(Rc::clone(r));
            }
            for r in &originals {
                let err = catch_unwind(AssertUnwindSafe(|| idx.insert(req(r.page_index))))
                    .expect_err("a duplicate insert must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .expect("formatted panic message");
                assert!(msg.contains("duplicate request"), "{kind:?}: {msg}");
                assert_eq!(idx.len(), originals.len(), "{kind:?}");
                let pages: Vec<u64> = idx.iter().map(|r| r.page_index).collect();
                assert_eq!(pages, vec![1, 3, 5], "{kind:?}");
                for orig in &originals {
                    let found = idx.find(orig.page_index).found.expect("still indexed");
                    assert!(
                        Rc::ptr_eq(&found, orig),
                        "{kind:?}: page {} replaced",
                        orig.page_index
                    );
                }
            }
        }
    }
}
