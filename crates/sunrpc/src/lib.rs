//! SUN RPC (RFC 1831) message layer and simulated client transports.
//!
//! [`msg`] encodes and decodes real RPC CALL/REPLY wire messages on top of
//! `nfsperf-xdr`. Two client transports sit above it, selected per mount
//! via [`Transport`]:
//!
//! - [`xprt`]: the Linux 2.4 UDP transport the paper studies — a 16-entry
//!   slot table, whole-RPC retransmission with exponential backoff (capped
//!   at 60 s), per-send `sock_sendmsg` CPU cost, and the global kernel
//!   lock held (or, with the paper's patch, released) across the send
//!   path;
//! - [`tcp_xprt`]: RPC over a `nfsperf-tcp` connection with RFC 1831 §10
//!   record marking ([`record`]), no RPC-layer retransmit timer, and
//!   reconnect-with-replay on connection death.

pub mod msg;
pub mod record;
pub mod tcp_xprt;
pub mod transport;
pub mod xprt;

pub use msg::{
    decode_call, decode_reply, encode_call, encode_reply, encode_reply_status, peek_xid, AuthUnix,
    CallHeader, ReplyHeader, ACCEPT_GARBAGE_ARGS, ACCEPT_PROC_UNAVAIL, ACCEPT_PROG_MISMATCH,
    ACCEPT_PROG_UNAVAIL, ACCEPT_SUCCESS,
};
pub use record::{encode_record, encode_record_frags, record_marker, RecordReader, LAST_FRAGMENT};
pub use tcp_xprt::TcpRpcXprt;
pub use transport::{Transport, Xprt};
pub use xprt::{RpcError, RpcXprt, XprtConfig, XprtStats};
