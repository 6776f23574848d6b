//! RFC 1831 RPC message headers: CALL and REPLY encoding.
//!
//! Only the shapes the simulation needs are implemented: version-2 RPC,
//! `AUTH_UNIX` credentials on calls, `AUTH_NONE` verifiers, and accepted
//! replies with `SUCCESS`/error status. These are real wire encodings —
//! the sizes feed the fragmentation model.

use nfsperf_net::pool_get;
use nfsperf_xdr::{opaque_wire_len, Decoder, Encoder, XdrDecode, XdrEncode, XdrError};

/// RPC protocol version.
pub const RPC_VERSION: u32 = 2;
/// Message type: call.
pub const MSG_CALL: u32 = 0;
/// Message type: reply.
pub const MSG_REPLY: u32 = 1;
/// Auth flavor: none.
pub const AUTH_NONE: u32 = 0;
/// Auth flavor: unix.
pub const AUTH_UNIX: u32 = 1;
/// Accept status: success.
pub const ACCEPT_SUCCESS: u32 = 0;
/// Accept status: program unavailable on this server.
pub const ACCEPT_PROG_UNAVAIL: u32 = 1;
/// Accept status: program version not supported.
pub const ACCEPT_PROG_MISMATCH: u32 = 2;
/// Accept status: procedure unavailable.
pub const ACCEPT_PROC_UNAVAIL: u32 = 3;
/// Accept status: garbage arguments.
pub const ACCEPT_GARBAGE_ARGS: u32 = 4;
/// Most supplementary gids an `AUTH_UNIX` credential carries
/// (`gids<16>`, RFC 5531 appendix A).
pub const AUTH_UNIX_MAX_GIDS: u32 = 16;

/// An `AUTH_UNIX` credential (RFC 1831 appendix A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthUnix {
    /// Arbitrary stamp.
    pub stamp: u32,
    /// Client host name.
    pub machine: String,
    /// Effective uid.
    pub uid: u32,
    /// Effective gid.
    pub gid: u32,
    /// Supplementary gids.
    pub gids: Vec<u32>,
}

impl AuthUnix {
    /// The credential the simulated client always presents.
    pub fn root_on(machine: &str) -> AuthUnix {
        AuthUnix {
            stamp: 0x1ab5,
            machine: machine.to_owned(),
            uid: 0,
            gid: 0,
            gids: Vec::new(),
        }
    }

    /// Bytes of the credential body: stamp, machine name, uid, gid and
    /// the gid array. Every field is 4-byte aligned, so the body opaque
    /// needs no padding.
    fn body_len(&self) -> usize {
        4 + opaque_wire_len(self.machine.len()) + 4 + 4 + 4 + 4 * self.gids.len()
    }
}

impl XdrEncode for AuthUnix {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(AUTH_UNIX);
        // The body is an opaque: its length word, then its fields.
        enc.put_u32(self.body_len() as u32);
        enc.put_u32(self.stamp);
        enc.put_string(&self.machine);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.gids.len() as u32);
        for g in &self.gids {
            enc.put_u32(*g);
        }
    }
    fn encoded_len(&self) -> usize {
        8 + self.body_len()
    }
}

impl XdrDecode for AuthUnix {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let flavor = dec.get_u32()?;
        if flavor != AUTH_UNIX {
            return Err(XdrError::BadDiscriminant(flavor));
        }
        let body = dec.get_opaque()?;
        let mut b = Decoder::new(body);
        let stamp = b.get_u32()?;
        let machine = b.get_string()?.to_owned();
        let uid = b.get_u32()?;
        let gid = b.get_u32()?;
        let n = b.get_u32()?;
        if n > AUTH_UNIX_MAX_GIDS {
            return Err(XdrError::LengthTooLarge(n));
        }
        let mut gids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            gids.push(b.get_u32()?);
        }
        Ok(AuthUnix {
            stamp,
            machine,
            uid,
            gid,
            gids,
        })
    }
}

/// A parsed RPC CALL header (everything before the procedure arguments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id.
    pub xid: u32,
    /// Program number.
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc: u32,
    /// Credential.
    pub cred: AuthUnix,
}

/// Encodes a complete CALL message: header followed by `args`.
///
/// The message is written into a buffer from the payload pool
/// (`nfsperf_net::pool_get`), reserved to its exact size; whoever retires
/// the message returns it with `pool_put`.
pub fn encode_call(
    xid: u32,
    prog: u32,
    vers: u32,
    proc: u32,
    cred: &AuthUnix,
    args: &dyn XdrEncode,
) -> Vec<u8> {
    let mut enc = Encoder::from_vec(pool_get());
    // Six header words, the credential, the AUTH_NONE verifier, args.
    enc.reserve(24 + cred.encoded_len() + 8 + args.encoded_len());
    enc.put_u32(xid);
    enc.put_u32(MSG_CALL);
    enc.put_u32(RPC_VERSION);
    enc.put_u32(prog);
    enc.put_u32(vers);
    enc.put_u32(proc);
    cred.encode(&mut enc);
    // Verifier: AUTH_NONE.
    enc.put_u32(AUTH_NONE);
    enc.put_u32(0);
    args.encode(&mut enc);
    enc.into_bytes()
}

/// Parses a CALL message; returns the header and a decoder positioned at
/// the procedure arguments.
pub fn decode_call(payload: &[u8]) -> Result<(CallHeader, Decoder<'_>), XdrError> {
    let mut dec = Decoder::new(payload);
    let xid = dec.get_u32()?;
    let mtype = dec.get_u32()?;
    if mtype != MSG_CALL {
        return Err(XdrError::BadDiscriminant(mtype));
    }
    let rpcvers = dec.get_u32()?;
    if rpcvers != RPC_VERSION {
        return Err(XdrError::BadDiscriminant(rpcvers));
    }
    let prog = dec.get_u32()?;
    let vers = dec.get_u32()?;
    let proc = dec.get_u32()?;
    let cred = AuthUnix::decode(&mut dec)?;
    let verf_flavor = dec.get_u32()?;
    if verf_flavor != AUTH_NONE {
        return Err(XdrError::BadDiscriminant(verf_flavor));
    }
    let _verf_body = dec.get_opaque()?;
    Ok((
        CallHeader {
            xid,
            prog,
            vers,
            proc,
            cred,
        },
        dec,
    ))
}

/// Encodes an accepted-SUCCESS REPLY carrying `results`.
pub fn encode_reply(xid: u32, results: &dyn XdrEncode) -> Vec<u8> {
    encode_reply_status(xid, ACCEPT_SUCCESS, Some(results))
}

/// Encodes an accepted REPLY with an explicit accept status; `results`
/// only for `ACCEPT_SUCCESS`. Like [`encode_call`], the reply is written
/// into a pooled buffer.
pub fn encode_reply_status(xid: u32, accept_stat: u32, results: Option<&dyn XdrEncode>) -> Vec<u8> {
    let results = results.filter(|_| accept_stat == ACCEPT_SUCCESS);
    let mut enc = Encoder::from_vec(pool_get());
    enc.reserve(24 + results.map_or(0, |r| r.encoded_len()));
    enc.put_u32(xid);
    enc.put_u32(MSG_REPLY);
    // reply_stat: MSG_ACCEPTED.
    enc.put_u32(0);
    // Verifier: AUTH_NONE.
    enc.put_u32(AUTH_NONE);
    enc.put_u32(0);
    enc.put_u32(accept_stat);
    if let Some(r) = results {
        r.encode(&mut enc);
    }
    enc.into_bytes()
}

/// A parsed REPLY: xid, accept status, and the results bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id this reply answers.
    pub xid: u32,
    /// Accept status ([`ACCEPT_SUCCESS`] on the happy path).
    pub accept_stat: u32,
}

/// Parses a REPLY; returns the header and a decoder positioned at the
/// results.
pub fn decode_reply(payload: &[u8]) -> Result<(ReplyHeader, Decoder<'_>), XdrError> {
    let mut dec = Decoder::new(payload);
    let xid = dec.get_u32()?;
    let mtype = dec.get_u32()?;
    if mtype != MSG_REPLY {
        return Err(XdrError::BadDiscriminant(mtype));
    }
    let reply_stat = dec.get_u32()?;
    if reply_stat != 0 {
        return Err(XdrError::BadDiscriminant(reply_stat));
    }
    let verf_flavor = dec.get_u32()?;
    if verf_flavor != AUTH_NONE {
        return Err(XdrError::BadDiscriminant(verf_flavor));
    }
    let _verf_body = dec.get_opaque()?;
    let accept_stat = dec.get_u32()?;
    Ok((ReplyHeader { xid, accept_stat }, dec))
}

/// Peeks the xid of any RPC message without full parsing.
pub fn peek_xid(payload: &[u8]) -> Result<u32, XdrError> {
    Decoder::new(payload).get_u32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_nfs3::{FileHandle, NfsProc3, StableHow, Write3Args, NFS_PROGRAM, NFS_V3};

    #[test]
    fn auth_unix_round_trip() {
        let cred = AuthUnix {
            stamp: 7,
            machine: "client".into(),
            uid: 500,
            gid: 100,
            gids: vec![1, 2, 3],
        };
        let mut enc = Encoder::new();
        cred.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(AuthUnix::decode(&mut dec).unwrap(), cred);
    }

    #[test]
    fn call_round_trip() {
        let cred = AuthUnix::root_on("client");
        let args = Write3Args::new(FileHandle::for_fileid(3), 0, 8192, StableHow::Unstable);
        let msg = encode_call(
            0xabc,
            NFS_PROGRAM,
            NFS_V3,
            NfsProc3::Write as u32,
            &cred,
            &args,
        );
        let (hdr, mut argdec) = decode_call(&msg).unwrap();
        assert_eq!(hdr.xid, 0xabc);
        assert_eq!(hdr.prog, NFS_PROGRAM);
        assert_eq!(hdr.vers, NFS_V3);
        assert_eq!(hdr.proc, 7);
        assert_eq!(hdr.cred, cred);
        let back = Write3Args::decode(&mut argdec).unwrap();
        assert_eq!(back, args);
        assert!(argdec.is_empty());
    }

    #[test]
    fn write_call_wire_size_fragments_six_ways() {
        // The whole point of real encodings: an 8 KiB WRITE over UDP is a
        // ~8.3 KB datagram = 6 fragments at MTU 1500.
        let cred = AuthUnix::root_on("client");
        let args = Write3Args::new(FileHandle::for_fileid(3), 0, 8192, StableHow::Unstable);
        let msg = encode_call(1, NFS_PROGRAM, NFS_V3, 7, &cred, &args);
        assert!(msg.len() > 8192 + 56, "header must add to payload");
        assert!(msg.len() < 8192 + 200, "header should be modest");
        assert_eq!(nfsperf_net::fragments_for(msg.len(), 1500), 6);
        assert_eq!(nfsperf_net::fragments_for(msg.len(), 9000), 1);
    }

    #[test]
    fn reply_round_trip() {
        let msg = encode_reply(9, &42u32);
        let (hdr, mut dec) = decode_reply(&msg).unwrap();
        assert_eq!(hdr.xid, 9);
        assert_eq!(hdr.accept_stat, ACCEPT_SUCCESS);
        assert_eq!(dec.get_u32().unwrap(), 42);
    }

    #[test]
    fn reply_error_status() {
        let msg = encode_reply_status(9, ACCEPT_PROC_UNAVAIL, None);
        let (hdr, dec) = decode_reply(&msg).unwrap();
        assert_eq!(hdr.accept_stat, ACCEPT_PROC_UNAVAIL);
        assert!(dec.is_empty());
    }

    #[test]
    fn peek_xid_works_on_calls_and_replies() {
        let cred = AuthUnix::root_on("c");
        let call = encode_call(0x1111, 1, 2, 3, &cred, &0u32);
        let reply = encode_reply(0x2222, &0u32);
        assert_eq!(peek_xid(&call).unwrap(), 0x1111);
        assert_eq!(peek_xid(&reply).unwrap(), 0x2222);
    }

    /// The gid count is read from the wire: a count past RFC 5531's
    /// `gids<16>` is junk to drop, not a capacity to reserve.
    #[test]
    fn decode_call_rejects_an_oversized_gid_count() {
        let mut enc = Encoder::new();
        for word in [0x1234, MSG_CALL, RPC_VERSION, 100_003, 3, 7] {
            enc.put_u32(word);
        }
        enc.put_u32(AUTH_UNIX);
        enc.put_u32(20); // body: stamp, empty machine name, uid, gid, count
        for word in [0, 0, 0, 0, 0xffff_ffff] {
            enc.put_u32(word);
        }
        enc.put_u32(AUTH_NONE);
        let msg = enc.into_bytes();
        assert_eq!(msg.len(), 56);
        assert_eq!(
            decode_call(&msg).unwrap_err(),
            XdrError::LengthTooLarge(0xffff_ffff)
        );
    }

    #[test]
    fn auth_unix_gid_count_is_bounded_at_sixteen() {
        let mut cred = AuthUnix::root_on("client");
        cred.gids = (0..AUTH_UNIX_MAX_GIDS).collect();
        let mut enc = Encoder::new();
        cred.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(AuthUnix::decode(&mut Decoder::new(&bytes)).unwrap(), cred);

        cred.gids.push(AUTH_UNIX_MAX_GIDS);
        let mut enc = Encoder::new();
        cred.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            AuthUnix::decode(&mut Decoder::new(&bytes)).unwrap_err(),
            XdrError::LengthTooLarge(AUTH_UNIX_MAX_GIDS + 1)
        );
    }

    #[test]
    fn decode_call_rejects_reply() {
        let reply = encode_reply(5, &0u32);
        assert!(decode_call(&reply).is_err());
    }

    #[test]
    fn decode_reply_rejects_call() {
        let cred = AuthUnix::root_on("c");
        let call = encode_call(5, 1, 2, 3, &cred, &0u32);
        assert!(decode_reply(&call).is_err());
    }
}
