//! Procedure argument and result types (RFC 1813 §3.3).

use nfsperf_xdr::{opaque_wire_len, Decoder, Encoder, XdrDecode, XdrEncode, XdrError};

use crate::attrs::{Fattr3, Sattr3, WccData};
use crate::{FileHandle, NfsStat3, StableHow, WriteVerf};

/// WRITE3 arguments (RFC 1813 §3.3.7).
///
/// The simulation writes zero-filled payloads: `data_len` is the honest
/// wire length of the data opaque, but the bytes themselves are zeros —
/// the model measures costs, not contents. Decoding a real message
/// recovers `data_len` from the opaque's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write3Args {
    /// Target file.
    pub file: FileHandle,
    /// Byte offset of the write.
    pub offset: u64,
    /// Number of bytes to write.
    pub count: u32,
    /// Requested stability.
    pub stable: StableHow,
    /// Length of the data opaque (normally equal to `count`).
    pub data_len: u32,
}

impl Write3Args {
    /// Builds a write of `count` zero bytes.
    pub fn new(file: FileHandle, offset: u64, count: u32, stable: StableHow) -> Write3Args {
        Write3Args {
            file,
            offset,
            count,
            stable,
            data_len: count,
        }
    }
}

impl XdrEncode for Write3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
        self.stable.encode(enc);
        enc.put_opaque_zeroes(self.data_len as usize);
    }
    fn encoded_len(&self) -> usize {
        self.file.encoded_len() + 8 + 4 + 4 + opaque_wire_len(self.data_len as usize)
    }
}

impl XdrDecode for Write3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let file = FileHandle::decode(dec)?;
        let offset = dec.get_u64()?;
        let count = dec.get_u32()?;
        let stable = StableHow::decode(dec)?;
        let data_len = dec.skip_opaque()? as u32;
        Ok(Write3Args {
            file,
            offset,
            count,
            stable,
            data_len,
        })
    }
}

/// WRITE3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Write3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Weak cache-consistency data (returned in both arms).
    pub wcc: WccData,
    /// Bytes actually written (success only).
    pub count: u32,
    /// Stability achieved — may be stronger than requested (success only).
    pub committed: StableHow,
    /// Server write verifier (success only).
    pub verf: WriteVerf,
}

impl Write3Res {
    /// A successful write of `count` bytes at stability `committed`.
    pub fn ok(wcc: WccData, count: u32, committed: StableHow, verf: WriteVerf) -> Write3Res {
        Write3Res {
            status: NfsStat3::Ok,
            wcc,
            count,
            committed,
            verf,
        }
    }
}

impl XdrEncode for Write3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u32(self.count);
            self.committed.encode(enc);
            self.verf.encode(enc);
        }
    }
    fn encoded_len(&self) -> usize {
        let ok_arm = if self.status == NfsStat3::Ok {
            4 + self.committed.encoded_len() + self.verf.encoded_len()
        } else {
            0
        };
        self.status.encoded_len() + self.wcc.encoded_len() + ok_arm
    }
}

impl XdrDecode for Write3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        let wcc = WccData::decode(dec)?;
        if status == NfsStat3::Ok {
            Ok(Write3Res {
                status,
                wcc,
                count: dec.get_u32()?,
                committed: StableHow::decode(dec)?,
                verf: WriteVerf::decode(dec)?,
            })
        } else {
            Ok(Write3Res {
                status,
                wcc,
                count: 0,
                committed: StableHow::Unstable,
                verf: WriteVerf::default(),
            })
        }
    }
}

/// COMMIT3 arguments (RFC 1813 §3.3.21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit3Args {
    /// Target file.
    pub file: FileHandle,
    /// Start of the range to commit.
    pub offset: u64,
    /// Length of the range (0 = to end of file).
    pub count: u32,
}

impl XdrEncode for Commit3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
    }
    fn encoded_len(&self) -> usize {
        self.file.encoded_len() + 12
    }
}

impl XdrDecode for Commit3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Commit3Args {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
        })
    }
}

/// COMMIT3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commit3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Weak cache-consistency data.
    pub wcc: WccData,
    /// Server write verifier (success only).
    pub verf: WriteVerf,
}

impl XdrEncode for Commit3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
        if self.status == NfsStat3::Ok {
            self.verf.encode(enc);
        }
    }
    fn encoded_len(&self) -> usize {
        let ok_arm = if self.status == NfsStat3::Ok {
            self.verf.encoded_len()
        } else {
            0
        };
        self.status.encoded_len() + self.wcc.encoded_len() + ok_arm
    }
}

impl XdrDecode for Commit3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        let wcc = WccData::decode(dec)?;
        let verf = if status == NfsStat3::Ok {
            WriteVerf::decode(dec)?
        } else {
            WriteVerf::default()
        };
        Ok(Commit3Res { status, wcc, verf })
    }
}

/// CREATE3 creation mode (GUARDED/UNCHECKED; EXCLUSIVE is not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum CreateMode {
    /// Overwrite silently if the file exists.
    Unchecked = 0,
    /// Fail with NFS3ERR_EXIST if the file exists.
    Guarded = 1,
}

impl XdrEncode for CreateMode {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self as u32);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl XdrDecode for CreateMode {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(CreateMode::Unchecked),
            1 => Ok(CreateMode::Guarded),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

/// CREATE3 arguments (RFC 1813 §3.3.8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Create3Args {
    /// Parent directory.
    pub dir: FileHandle,
    /// New file name.
    pub name: String,
    /// Creation mode.
    pub mode: CreateMode,
    /// Initial attributes.
    pub attrs: Sattr3,
}

impl XdrEncode for Create3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.dir.encode(enc);
        enc.put_string(&self.name);
        self.mode.encode(enc);
        self.attrs.encode(enc);
    }
}

impl XdrDecode for Create3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Create3Args {
            dir: FileHandle::decode(dec)?,
            name: dec.get_string()?.to_owned(),
            mode: CreateMode::decode(dec)?,
            attrs: Sattr3::decode(dec)?,
        })
    }
}

/// CREATE3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Create3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Handle of the created file (success only).
    pub file: Option<FileHandle>,
    /// Attributes of the created file (success only).
    pub attrs: Option<Fattr3>,
}

impl XdrEncode for Create3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.file.encode(enc);
            self.attrs.encode(enc);
            // Directory wcc_data: empty.
            WccData::default().encode(enc);
        } else {
            WccData::default().encode(enc);
        }
    }
}

impl XdrDecode for Create3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        if status == NfsStat3::Ok {
            let file = Option::<FileHandle>::decode(dec)?;
            let attrs = Option::<Fattr3>::decode(dec)?;
            let _dir_wcc = WccData::decode(dec)?;
            Ok(Create3Res {
                status,
                file,
                attrs,
            })
        } else {
            let _dir_wcc = WccData::decode(dec)?;
            Ok(Create3Res {
                status,
                file: None,
                attrs: None,
            })
        }
    }
}

/// LOOKUP3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup3Args {
    /// Directory to search.
    pub dir: FileHandle,
    /// Name to resolve.
    pub name: String,
}

impl XdrEncode for Lookup3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.dir.encode(enc);
        enc.put_string(&self.name);
    }
}

impl XdrDecode for Lookup3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Lookup3Args {
            dir: FileHandle::decode(dec)?,
            name: dec.get_string()?.to_owned(),
        })
    }
}

/// LOOKUP3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookup3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Resolved handle (success only).
    pub file: Option<FileHandle>,
    /// Attributes of the resolved object (success only).
    pub attrs: Option<Fattr3>,
}

impl XdrEncode for Lookup3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.file
                .as_ref()
                .expect("Ok lookup must carry a handle")
                .encode(enc);
            self.attrs.encode(enc);
        }
        // Directory post-op attributes: none.
        enc.put_u32(0);
    }
}

impl XdrDecode for Lookup3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        if status == NfsStat3::Ok {
            let file = FileHandle::decode(dec)?;
            let attrs = Option::<Fattr3>::decode(dec)?;
            let _dir_attrs = dec.get_u32()?;
            Ok(Lookup3Res {
                status,
                file: Some(file),
                attrs,
            })
        } else {
            let _dir_attrs = dec.get_u32()?;
            Ok(Lookup3Res {
                status,
                file: None,
                attrs: None,
            })
        }
    }
}

/// GETATTR3 arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Getattr3Args {
    /// File to inspect.
    pub file: FileHandle,
}

impl XdrEncode for Getattr3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
    }
    fn encoded_len(&self) -> usize {
        self.file.encoded_len()
    }
}

impl XdrDecode for Getattr3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Getattr3Args {
            file: FileHandle::decode(dec)?,
        })
    }
}

/// GETATTR3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Getattr3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Attributes (success only).
    pub attrs: Option<Fattr3>,
}

impl XdrEncode for Getattr3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.attrs
                .as_ref()
                .expect("Ok getattr must carry attributes")
                .encode(enc);
        }
    }
}

impl XdrDecode for Getattr3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        let attrs = if status == NfsStat3::Ok {
            Some(Fattr3::decode(dec)?)
        } else {
            None
        };
        Ok(Getattr3Res { status, attrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::WccData;

    fn round_trip<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(v: &T) -> usize {
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).expect("decode");
        assert_eq!(&back, v);
        assert!(dec.is_empty());
        bytes.len()
    }

    #[test]
    fn write3_args_round_trip_and_len() {
        let args = Write3Args::new(FileHandle::for_fileid(9), 16384, 8192, StableHow::Unstable);
        let n = round_trip(&args);
        assert_eq!(n, args.encoded_len());
        // fh(36) + offset(8) + count(4) + stable(4) + opaque(4 + 8192).
        assert_eq!(n, 36 + 8 + 4 + 4 + 4 + 8192);
    }

    #[test]
    fn write3_wire_overhead_is_56_bytes_for_8k() {
        // The per-WRITE protocol overhead above the payload matters for
        // fragmentation: 8 KiB of data rides in an 8248-byte NFS body.
        let args = Write3Args::new(FileHandle::for_fileid(1), 0, 8192, StableHow::FileSync);
        assert_eq!(args.encoded_len() - 8192, 56);
    }

    #[test]
    fn write3_res_ok_round_trip() {
        let res = Write3Res::ok(
            WccData::full(0, Fattr3::regular(9, 8192)),
            8192,
            StableHow::FileSync,
            WriteVerf(77),
        );
        round_trip(&res);
    }

    #[test]
    fn write3_res_error_round_trip() {
        let res = Write3Res {
            status: NfsStat3::Nospc,
            wcc: WccData::default(),
            count: 0,
            committed: StableHow::Unstable,
            verf: WriteVerf::default(),
        };
        round_trip(&res);
    }

    #[test]
    fn commit3_round_trip() {
        let args = Commit3Args {
            file: FileHandle::for_fileid(4),
            offset: 0,
            count: 0,
        };
        let n = round_trip(&args);
        assert_eq!(n, args.encoded_len());
        let res = Commit3Res {
            status: NfsStat3::Ok,
            wcc: WccData::default(),
            verf: WriteVerf(123),
        };
        round_trip(&res);
    }

    #[test]
    fn create3_round_trip() {
        let args = Create3Args {
            dir: FileHandle::for_fileid(1),
            name: "bonnie.scratch".into(),
            mode: CreateMode::Unchecked,
            attrs: Sattr3 {
                mode: Some(0o644),
                size: None,
            },
        };
        round_trip(&args);
        let res = Create3Res {
            status: NfsStat3::Ok,
            file: Some(FileHandle::for_fileid(55)),
            attrs: Some(Fattr3::regular(55, 0)),
        };
        round_trip(&res);
        let err = Create3Res {
            status: NfsStat3::Exist,
            file: None,
            attrs: None,
        };
        round_trip(&err);
    }

    #[test]
    fn lookup3_round_trip() {
        let args = Lookup3Args {
            dir: FileHandle::for_fileid(1),
            name: "testfile".into(),
        };
        round_trip(&args);
        let hit = Lookup3Res {
            status: NfsStat3::Ok,
            file: Some(FileHandle::for_fileid(8)),
            attrs: Some(Fattr3::regular(8, 100)),
        };
        round_trip(&hit);
        let miss = Lookup3Res {
            status: NfsStat3::Noent,
            file: None,
            attrs: None,
        };
        round_trip(&miss);
    }

    #[test]
    fn getattr3_round_trip() {
        let args = Getattr3Args {
            file: FileHandle::for_fileid(2),
        };
        round_trip(&args);
        let res = Getattr3Res {
            status: NfsStat3::Ok,
            attrs: Some(Fattr3::regular(2, 42)),
        };
        round_trip(&res);
        let err = Getattr3Res {
            status: NfsStat3::Stale,
            attrs: None,
        };
        round_trip(&err);
    }

    #[test]
    fn create_mode_rejects_exclusive() {
        // EXCLUSIVE (2) is deliberately unmodelled.
        let bytes = 2u32.to_be_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(CreateMode::decode(&mut dec).is_err());
    }
}

/// READ3 arguments (RFC 1813 §3.3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read3Args {
    /// File to read.
    pub file: FileHandle,
    /// Byte offset.
    pub offset: u64,
    /// Bytes requested.
    pub count: u32,
}

impl XdrEncode for Read3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
    }
    fn encoded_len(&self) -> usize {
        self.file.encoded_len() + 12
    }
}

impl XdrDecode for Read3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Read3Args {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
        })
    }
}

/// READ3 result. Like [`Write3Args`], the data opaque is zero-filled but
/// has an honest wire length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Post-op attributes (success only).
    pub attrs: Option<Fattr3>,
    /// Bytes returned (success only).
    pub count: u32,
    /// End-of-file reached (success only).
    pub eof: bool,
    /// Length of the data opaque.
    pub data_len: u32,
}

impl Read3Res {
    /// A successful read of `count` bytes.
    pub fn ok(attrs: Fattr3, count: u32, eof: bool) -> Read3Res {
        Read3Res {
            status: NfsStat3::Ok,
            attrs: Some(attrs),
            count,
            eof,
            data_len: count,
        }
    }
}

impl XdrEncode for Read3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.attrs.encode(enc);
            enc.put_u32(self.count);
            enc.put_bool(self.eof);
            enc.put_opaque_zeroes(self.data_len as usize);
        } else {
            self.attrs.encode(enc);
        }
    }
    fn encoded_len(&self) -> usize {
        if self.status == NfsStat3::Ok {
            4 + self.attrs.encoded_len() + 4 + 4 + opaque_wire_len(self.data_len as usize)
        } else {
            4 + self.attrs.encoded_len()
        }
    }
}

impl XdrDecode for Read3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStat3::decode(dec)?;
        let attrs = Option::<Fattr3>::decode(dec)?;
        if status == NfsStat3::Ok {
            let count = dec.get_u32()?;
            let eof = dec.get_bool()?;
            let data_len = dec.skip_opaque()? as u32;
            Ok(Read3Res {
                status,
                attrs,
                count,
                eof,
                data_len,
            })
        } else {
            Ok(Read3Res {
                status,
                attrs,
                count: 0,
                eof: false,
                data_len: 0,
            })
        }
    }
}

/// SETATTR3 arguments (RFC 1813 §3.3.2); the benchmark uses it only to
/// truncate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setattr3Args {
    /// Target file.
    pub file: FileHandle,
    /// New attributes.
    pub attrs: Sattr3,
}

impl XdrEncode for Setattr3Args {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        self.attrs.encode(enc);
        // guard: no ctime check.
        enc.put_u32(0);
    }
}

impl XdrDecode for Setattr3Args {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let file = FileHandle::decode(dec)?;
        let attrs = Sattr3::decode(dec)?;
        let _guard = dec.get_u32()?;
        Ok(Setattr3Args { file, attrs })
    }
}

/// SETATTR3 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setattr3Res {
    /// Operation status.
    pub status: NfsStat3,
    /// Weak cache-consistency data.
    pub wcc: WccData,
}

impl XdrEncode for Setattr3Res {
    fn encode(&self, enc: &mut Encoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
    }
}

impl XdrDecode for Setattr3Res {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Setattr3Res {
            status: NfsStat3::decode(dec)?,
            wcc: WccData::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod read_setattr_tests {
    use super::*;
    use crate::attrs::Fattr3;

    fn round_trip<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(v: &T) -> usize {
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).expect("decode");
        assert_eq!(&back, v);
        assert!(dec.is_empty());
        bytes.len()
    }

    #[test]
    fn read3_args_round_trip() {
        let args = Read3Args {
            file: FileHandle::for_fileid(5),
            offset: 4096,
            count: 8192,
        };
        let n = round_trip(&args);
        assert_eq!(n, args.encoded_len());
    }

    #[test]
    fn read3_res_round_trip_and_len() {
        let res = Read3Res::ok(Fattr3::regular(5, 16384), 8192, false);
        let n = round_trip(&res);
        assert_eq!(n, res.encoded_len());
        // status + (1+fattr) + count + eof + opaque(4+8192).
        assert_eq!(n, 4 + 4 + 84 + 4 + 4 + 4 + 8192);
    }

    #[test]
    fn read3_res_error_round_trip() {
        let res = Read3Res {
            status: NfsStat3::Stale,
            attrs: None,
            count: 0,
            eof: false,
            data_len: 0,
        };
        round_trip(&res);
    }

    #[test]
    fn setattr3_truncate_round_trip() {
        let args = Setattr3Args {
            file: FileHandle::for_fileid(9),
            attrs: Sattr3 {
                mode: None,
                size: Some(0),
            },
        };
        round_trip(&args);
        let res = Setattr3Res {
            status: NfsStat3::Ok,
            wcc: WccData::full(100, Fattr3::regular(9, 0)),
        };
        round_trip(&res);
    }
}
