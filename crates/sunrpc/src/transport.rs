//! Transport selection: one client RPC transport type that is either the
//! 2.4-style UDP transport or the RPC-over-TCP transport, chosen per
//! mount. Callers (the NFS client write path) see one `call` surface and
//! never depend on `nfsperf-tcp` directly.
//!
//! A call comes in two parts, as a 2.4 `rpc_task` does: the wait for a
//! slot-table entry ([`Xprt::reserve`]) and the call proper
//! ([`Xprt::call_in_slot`]: encode, send, await and decode the reply).
//! A caller that queues many requests behind the slot table keeps only
//! the small slot wait per request and builds each call's state machine
//! once its slot is granted.

use std::future::Future;
use std::rc::Rc;

use nfsperf_kernel::Kernel;
use nfsperf_net::{DatagramPayload, Path};
use nfsperf_sim::Receiver;
use nfsperf_xdr::XdrEncode;

use crate::tcp_xprt::TcpRpcXprt;
use crate::xprt::{reserve_slot, RpcError, RpcSlot, RpcXprt, XprtConfig, XprtStats};

/// Which RPC transport a mount uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Datagrams with RPC-layer retransmission (Linux 2.4 default).
    #[default]
    Udp,
    /// A TCP connection with record marking; reliability lives in the
    /// transport, the RPC layer only replays across reconnects.
    Tcp,
}

impl Transport {
    /// Lower-case name, as accepted by the CLI `--transport` flag.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "udp" => Some(Transport::Udp),
            "tcp" => Some(Transport::Tcp),
            _ => None,
        }
    }
}

/// A client RPC transport of either flavour.
pub enum Xprt {
    /// UDP: slot table + retransmit timer ([`RpcXprt`]).
    Udp(Rc<RpcXprt>),
    /// TCP: record marking + connection replay ([`TcpRpcXprt`]).
    Tcp(Rc<TcpRpcXprt>),
}

impl Xprt {
    /// Creates the transport selected by `transport`, bound to `path` and
    /// draining `rx`.
    pub fn new(
        kernel: &Kernel,
        path: Path,
        rx: Receiver<DatagramPayload>,
        prog: u32,
        vers: u32,
        config: XprtConfig,
        transport: Transport,
    ) -> Rc<Xprt> {
        Rc::new(match transport {
            Transport::Udp => Xprt::Udp(RpcXprt::new(kernel, path, rx, prog, vers, config)),
            Transport::Tcp => Xprt::Tcp(TcpRpcXprt::new(kernel, path, rx, prog, vers, config)),
        })
    }

    /// Issues one RPC and awaits the raw result bytes: waits for a slot,
    /// then calls in it.
    pub async fn call(&self, proc: u32, args: &dyn XdrEncode) -> Result<DatagramPayload, RpcError> {
        let slot = self.reserve().await;
        self.call_in_slot(slot, proc, args).await
    }

    /// Waits FIFO for a free slot-table entry. The future holds only the
    /// wait, a few words, however long the queue.
    pub fn reserve(&self) -> impl Future<Output = RpcSlot> + '_ {
        reserve_slot(match self {
            Xprt::Udp(x) => &x.slots,
            Xprt::Tcp(x) => &x.slots,
        })
    }

    /// Issues one RPC in `slot`, a slot this transport granted, and
    /// awaits the raw result bytes; the slot frees when the call returns.
    pub async fn call_in_slot(
        &self,
        slot: RpcSlot,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> Result<DatagramPayload, RpcError> {
        match self {
            Xprt::Udp(x) => x.call_in_slot(slot, proc, args).await,
            Xprt::Tcp(x) => x.call_in_slot(slot, proc, args).await,
        }
    }

    /// Which flavour this is.
    pub fn transport(&self) -> Transport {
        match self {
            Xprt::Udp(_) => Transport::Udp,
            Xprt::Tcp(_) => Transport::Tcp,
        }
    }

    /// The TCP transport, when that is what this is (for TCP-specific
    /// counters in reports).
    pub fn tcp(&self) -> Option<&Rc<TcpRpcXprt>> {
        match self {
            Xprt::Tcp(x) => Some(x),
            Xprt::Udp(_) => None,
        }
    }

    /// Snapshot of transport counters.
    pub fn stats(&self) -> XprtStats {
        match self {
            Xprt::Udp(x) => x.stats(),
            Xprt::Tcp(x) => x.stats(),
        }
    }

    /// Free transport slots right now.
    pub fn free_slots(&self) -> usize {
        match self {
            Xprt::Udp(x) => x.free_slots(),
            Xprt::Tcp(x) => x.free_slots(),
        }
    }

    /// Tasks queued waiting for a slot.
    pub fn queued_senders(&self) -> usize {
        match self {
            Xprt::Udp(x) => x.queued_senders(),
            Xprt::Tcp(x) => x.queued_senders(),
        }
    }
}
