//! The per-NIC TCP endpoint: owns the datagram receive queue, demultiplexes
//! segments to connections by connection id, and implements active
//! (`connect`) and passive (`accept`) opens.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use nfsperf_net::{pool_put, DatagramPayload, Path};
use nfsperf_sim::{channel, select2, Either, Receiver, Sender, Sim};

use crate::conn::{SharedCounters, TcpConfig, TcpConn, TcpError};
use crate::segment::{Segment, FLAG_ACK, FLAG_SYN, HEADER_LEN};

/// Aggregate transport counters for one endpoint (all its connections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Active opens attempted.
    pub connects: u64,
    /// Segments of any kind transmitted (data, ACK, SYN, FIN, RST).
    pub segments_sent: u64,
    /// Segments carrying payload.
    pub data_segments_sent: u64,
    /// All retransmitted segments (RTO + fast retransmit + SYN/SYN-ACK).
    pub retransmits: u64,
    /// Retransmissions triggered by triple duplicate ACK.
    pub fast_retransmits: u64,
    /// Retransmission-timer expirations.
    pub rto_timeouts: u64,
}

/// One end of the simulated TCP stack, bound to a NIC receive queue and a
/// transmit [`Path`].
///
/// Connection ids are chosen by the active opener; this model has a single
/// initiator per endpoint pair (the NFS client), so ids never collide.
pub struct TcpEndpoint {
    sim: Sim,
    path: Path,
    config: TcpConfig,
    conns: RefCell<HashMap<u32, Rc<TcpConn>>>,
    accept_tx: Sender<Rc<TcpConn>>,
    accept_rx: Receiver<Rc<TcpConn>>,
    next_id: Cell<u32>,
    counters: Rc<SharedCounters>,
}

impl TcpEndpoint {
    /// Creates the endpoint and spawns its demultiplexer over `rx`, the
    /// receive queue of the NIC `path.local` transmits from.
    pub fn new(
        sim: &Sim,
        path: Path,
        rx: Receiver<DatagramPayload>,
        config: TcpConfig,
    ) -> Rc<TcpEndpoint> {
        let (accept_tx, accept_rx) = channel();
        let ep = Rc::new(TcpEndpoint {
            sim: sim.clone(),
            path,
            config,
            conns: RefCell::new(HashMap::new()),
            accept_tx,
            accept_rx,
            next_id: Cell::new(1),
            counters: Rc::new(SharedCounters::default()),
        });
        let demux = Rc::clone(&ep);
        sim.spawn(async move { demux.demux_loop(rx).await });
        ep
    }

    /// The endpoint's TCP configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.config
    }

    /// Aggregate counters across all connections of this endpoint.
    pub fn stats(&self) -> TcpStats {
        TcpStats {
            connects: self.counters.connects.get(),
            segments_sent: self.counters.segments_sent.get(),
            data_segments_sent: self.counters.data_segments_sent.get(),
            retransmits: self.counters.retransmits.get(),
            fast_retransmits: self.counters.fast_retransmits.get(),
            rto_timeouts: self.counters.rto_timeouts.get(),
        }
    }

    /// Active open: runs the three-way handshake, retrying the SYN with
    /// exponential backoff up to `syn_retries` times.
    pub async fn connect(self: &Rc<Self>) -> Result<Rc<TcpConn>, TcpError> {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.counters.connects.inc();
        let conn = TcpConn::active(
            &self.sim,
            self.path.clone(),
            self.config.clone(),
            id,
            Rc::clone(&self.counters),
        );
        self.conns.borrow_mut().insert(id, Rc::clone(&conn));
        let mut timeout = self.config.initial_rto;
        let mut attempt = 0u32;
        loop {
            match select2(conn.wait_established(), self.sim.sleep(timeout)).await {
                Either::Left(Ok(())) => return Ok(conn),
                Either::Left(Err(e)) => return Err(e),
                Either::Right(()) => {
                    if attempt >= self.config.syn_retries {
                        conn.abort();
                        return Err(TcpError::ConnectTimedOut);
                    }
                    attempt += 1;
                    timeout = (timeout * 2).min(self.config.max_rto);
                    self.counters.retransmits.inc();
                    conn.send_syn();
                }
            }
        }
    }

    /// Passive open: yields the next incoming connection. The connection is
    /// queued as soon as its SYN arrives (its handshake may still be
    /// completing); servers can start `recv_some` immediately.
    pub async fn accept(&self) -> Option<Rc<TcpConn>> {
        self.accept_rx.recv().await
    }

    async fn demux_loop(self: Rc<Self>, rx: Receiver<DatagramPayload>) {
        while let Some(datagram) = rx.recv().await {
            if let Some(seg) = Segment::decode(&datagram) {
                self.dispatch(&seg);
            }
            // Data segments travel in pooled buffers; segments without
            // payload travel in header-sized ones, which are dropped.
            if datagram.len() > HEADER_LEN {
                pool_put(datagram);
            }
        }
    }

    fn dispatch(&self, seg: &Segment<'_>) {
        let existing = self.conns.borrow().get(&seg.conn_id).cloned();
        match existing {
            Some(conn) => conn.on_segment(seg),
            None => {
                // A SYN for an unknown id is a passive open; anything else
                // is a stale segment for a connection we already dropped —
                // ignore it.
                if seg.flags & FLAG_SYN != 0 && seg.flags & FLAG_ACK == 0 {
                    let conn = TcpConn::passive(
                        &self.sim,
                        self.path.clone(),
                        self.config.clone(),
                        seg.conn_id,
                        Rc::clone(&self.counters),
                    );
                    self.conns
                        .borrow_mut()
                        .insert(seg.conn_id, Rc::clone(&conn));
                    self.accept_tx.send(conn);
                }
            }
        }
    }
}
