//! RFC 1813 — NFS version 3 protocol types and wire codecs.
//!
//! This crate implements exactly the NFSv3 procedures the reproduced
//! write path sends: CREATE for the fresh benchmark file, then WRITE and
//! COMMIT (the stars of the paper). All types encode to and decode from
//! genuine XDR, so the byte sizes that drive the network simulation are
//! the real RFC 1813 sizes.
//!
//! The paper mounts with `rsize=wsize=8192`, NFS version 3 — WRITE3
//! requests carry two 4 KiB pages of data and either `UNSTABLE` (Linux
//! knfsd path, requiring a later COMMIT) or `FILE_SYNC` (the filer's
//! NVRAM-backed path, durable on reply).

pub mod attrs;
pub mod ops;

pub use attrs::{Fattr3, Ftype3, Sattr3, WccAttr, WccData};
pub use ops::{
    Commit3Args, Commit3Res, Create3Args, Create3Res, CreateMode, Write3Args, Write3Res,
};

use nfsperf_xdr::{Decoder, Encoder, XdrDecode, XdrEncode, XdrError};

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;
/// Protocol version implemented here.
pub const NFS_V3: u32 = 3;

/// The NFSv3 procedure numbers (RFC 1813 §3) the write path sends; a
/// server answers any other number `PROC_UNAVAIL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum NfsProc3 {
    /// WRITE — write data to a file.
    Write = 7,
    /// CREATE — create a regular file.
    Create = 8,
    /// COMMIT — commit previously unstable writes to stable storage.
    Commit = 21,
}

impl NfsProc3 {
    /// Decodes a procedure number.
    pub fn from_u32(v: u32) -> Option<NfsProc3> {
        Some(match v {
            7 => NfsProc3::Write,
            8 => NfsProc3::Create,
            21 => NfsProc3::Commit,
            _ => return None,
        })
    }
}

/// NFSv3 status codes (the subset the simulation can produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum NfsStat3 {
    /// Success.
    Ok = 0,
    /// No such file or directory.
    Noent = 2,
    /// Generic I/O error.
    Io = 5,
    /// Permission denied.
    Access = 13,
    /// File exists.
    Exist = 17,
    /// No space on device.
    Nospc = 28,
    /// Stale file handle.
    Stale = 70,
    /// Server fault.
    ServerFault = 10006,
}

impl NfsStat3 {
    /// Decodes a status word.
    pub fn from_u32(v: u32) -> Option<NfsStat3> {
        Some(match v {
            0 => NfsStat3::Ok,
            2 => NfsStat3::Noent,
            5 => NfsStat3::Io,
            13 => NfsStat3::Access,
            17 => NfsStat3::Exist,
            28 => NfsStat3::Nospc,
            70 => NfsStat3::Stale,
            10006 => NfsStat3::ServerFault,
            _ => return None,
        })
    }
}

impl XdrEncode for NfsStat3 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self as u32);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl XdrDecode for NfsStat3 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let v = dec.get_u32()?;
        NfsStat3::from_u32(v).ok_or(XdrError::BadDiscriminant(v))
    }
}

/// Maximum file-handle length (RFC 1813: NFS3_FHSIZE = 64).
pub const FHSIZE3: usize = 64;

/// An opaque NFSv3 file handle.
///
/// The simulated servers use 32-byte handles (as the Linux knfsd of the
/// era did), stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    len: u8,
    bytes: [u8; FHSIZE3],
}

impl FileHandle {
    /// Builds a handle from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`FHSIZE3`].
    pub fn new(bytes: &[u8]) -> FileHandle {
        assert!(bytes.len() <= FHSIZE3, "file handle too long");
        let mut buf = [0u8; FHSIZE3];
        buf[..bytes.len()].copy_from_slice(bytes);
        FileHandle {
            len: bytes.len() as u8,
            bytes: buf,
        }
    }

    /// A deterministic 32-byte handle derived from a file id — the shape
    /// the simulated servers hand out.
    pub fn for_fileid(fileid: u64) -> FileHandle {
        let mut raw = [0u8; 32];
        raw[..8].copy_from_slice(&fileid.to_be_bytes());
        raw[8..16].copy_from_slice(&(!fileid).to_be_bytes());
        raw[16..24].copy_from_slice(&fileid.rotate_left(17).to_be_bytes());
        raw[24..32].copy_from_slice(&0xfee1_dead_u64.to_be_bytes());
        FileHandle::new(&raw)
    }

    /// The handle bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Recovers the file id from a handle minted by
    /// [`FileHandle::for_fileid`].
    pub fn fileid(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[..8]);
        u64::from_be_bytes(b)
    }
}

impl XdrEncode for FileHandle {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opaque(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        nfsperf_xdr::opaque_wire_len(self.len as usize)
    }
}

impl XdrDecode for FileHandle {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let raw = dec.get_opaque()?;
        if raw.len() > FHSIZE3 {
            return Err(XdrError::LengthTooLarge(raw.len() as u32));
        }
        Ok(FileHandle::new(raw))
    }
}

/// A write verifier: servers change it on reboot so clients can detect
/// lost unstable writes (RFC 1813 §3.3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WriteVerf(pub u64);

impl XdrEncode for WriteVerf {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl XdrDecode for WriteVerf {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(WriteVerf(dec.get_u64()?))
    }
}

/// WRITE3 stability levels (RFC 1813 §3.3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum StableHow {
    /// Server may cache; client must COMMIT later.
    Unstable = 0,
    /// Data (not metadata) must be durable before the reply.
    DataSync = 1,
    /// Data and metadata must be durable before the reply.
    FileSync = 2,
}

impl XdrEncode for StableHow {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self as u32);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl XdrDecode for StableHow {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(StableHow::Unstable),
            1 => Ok(StableHow::DataSync),
            2 => Ok(StableHow::FileSync),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_numbers_round_trip() {
        for p in [NfsProc3::Write, NfsProc3::Create, NfsProc3::Commit] {
            assert_eq!(NfsProc3::from_u32(p as u32), Some(p));
        }
        for unsent in [0, 1, 2, 3, 6, 99] {
            assert_eq!(NfsProc3::from_u32(unsent), None);
        }
    }

    #[test]
    fn write_is_proc_7_commit_21() {
        assert_eq!(NfsProc3::Write as u32, 7);
        assert_eq!(NfsProc3::Commit as u32, 21);
    }

    #[test]
    fn file_handle_round_trip() {
        let fh = FileHandle::for_fileid(0xdead_beef);
        let mut enc = Encoder::new();
        fh.encode(&mut enc);
        assert_eq!(enc.len(), fh.encoded_len());
        assert_eq!(enc.len(), 4 + 32);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = FileHandle::decode(&mut dec).unwrap();
        assert_eq!(back, fh);
        assert_eq!(back.fileid(), 0xdead_beef);
    }

    #[test]
    fn file_handles_differ_by_fileid() {
        assert_ne!(FileHandle::for_fileid(1), FileHandle::for_fileid(2));
    }

    #[test]
    #[should_panic(expected = "file handle too long")]
    fn oversize_handle_panics() {
        FileHandle::new(&[0u8; 65]);
    }

    #[test]
    fn stable_how_round_trip() {
        for s in [
            StableHow::Unstable,
            StableHow::DataSync,
            StableHow::FileSync,
        ] {
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(StableHow::decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn stable_how_rejects_junk() {
        let bytes = 9u32.to_be_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(StableHow::decode(&mut dec).is_err());
    }

    #[test]
    fn status_round_trip() {
        for s in [
            NfsStat3::Ok,
            NfsStat3::Io,
            NfsStat3::Nospc,
            NfsStat3::ServerFault,
        ] {
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(NfsStat3::decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn verifier_round_trip() {
        let v = WriteVerf(0x1234_5678_9abc_def0);
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(WriteVerf::decode(&mut dec).unwrap(), v);
    }
}
