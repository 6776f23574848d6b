//! Server-side file table: the minimal exported file system behind the
//! simulated NFS servers.

use std::cell::RefCell;
use std::collections::HashMap;

use nfsperf_nfs3::{Fattr3, FileHandle, NfsStat3};

/// Root directory file id.
pub const ROOT_FILEID: u64 = 1;

/// The exported tree: a single root directory of regular files.
pub struct FsState {
    /// File id to size.
    files: RefCell<HashMap<u64, u64>>,
    by_name: RefCell<HashMap<String, u64>>,
    next_id: std::cell::Cell<u64>,
}

impl Default for FsState {
    fn default() -> Self {
        FsState::new()
    }
}

impl FsState {
    /// Creates an empty export.
    pub fn new() -> FsState {
        FsState {
            files: RefCell::new(HashMap::new()),
            by_name: RefCell::new(HashMap::new()),
            next_id: std::cell::Cell::new(ROOT_FILEID + 1),
        }
    }

    /// The root directory handle clients mount.
    pub fn root_handle(&self) -> FileHandle {
        FileHandle::for_fileid(ROOT_FILEID)
    }

    /// Creates (or truncates, UNCHECKED-style) a file, returning its
    /// handle and attributes.
    pub fn create(&self, name: &str) -> (FileHandle, Fattr3) {
        let existing = self.by_name.borrow().get(name).copied();
        let id = if let Some(id) = existing {
            *self.files.borrow_mut().get_mut(&id).expect("indexed file") = 0;
            id
        } else {
            let id = self.next_id.get();
            self.next_id.set(id + 1);
            self.files.borrow_mut().insert(id, 0);
            self.by_name.borrow_mut().insert(name.to_owned(), id);
            id
        };
        (FileHandle::for_fileid(id), Fattr3::regular(id, 0))
    }

    /// Records a write, extending the file. Returns the new attributes.
    pub fn apply_write(
        &self,
        fh: &FileHandle,
        offset: u64,
        count: u32,
    ) -> Result<Fattr3, NfsStat3> {
        let id = fh.fileid();
        let mut files = self.files.borrow_mut();
        let size = files.get_mut(&id).ok_or(NfsStat3::Stale)?;
        *size = (*size).max(offset + u64::from(count));
        Ok(Fattr3::regular(id, *size))
    }

    /// Current size of the file behind `fh`.
    pub fn size_of(&self, fh: &FileHandle) -> Result<u64, NfsStat3> {
        let files = self.files.borrow();
        files.get(&fh.fileid()).copied().ok_or(NfsStat3::Stale)
    }

    /// Number of regular files in the export.
    pub fn file_count(&self) -> usize {
        self.files.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_makes_an_empty_file() {
        let fs = FsState::new();
        let (fh, attrs) = fs.create("bench.dat");
        assert_eq!(attrs.size, 0);
        assert_eq!(attrs.fileid, fh.fileid());
        assert_eq!(fs.size_of(&fh).unwrap(), 0);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn stale_handle_rejected() {
        let fs = FsState::new();
        let bogus = FileHandle::for_fileid(999);
        assert_eq!(fs.size_of(&bogus).unwrap_err(), NfsStat3::Stale);
        assert_eq!(fs.apply_write(&bogus, 0, 10).unwrap_err(), NfsStat3::Stale);
    }

    #[test]
    fn writes_extend_size() {
        let fs = FsState::new();
        let (fh, _) = fs.create("f");
        fs.apply_write(&fh, 0, 4096).unwrap();
        fs.apply_write(&fh, 4096, 4096).unwrap();
        assert_eq!(fs.size_of(&fh).unwrap(), 8192);
        // Overlapping write does not shrink.
        fs.apply_write(&fh, 0, 100).unwrap();
        assert_eq!(fs.size_of(&fh).unwrap(), 8192);
    }

    #[test]
    fn recreate_truncates() {
        let fs = FsState::new();
        let (fh, _) = fs.create("f");
        fs.apply_write(&fh, 0, 4096).unwrap();
        let (fh2, attrs) = fs.create("f");
        assert_eq!(fh, fh2, "same name keeps its file id");
        assert_eq!(attrs.size, 0);
        assert_eq!(fs.size_of(&fh).unwrap(), 0);
    }
}
