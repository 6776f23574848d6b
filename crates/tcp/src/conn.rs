//! One simulated TCP connection.
//!
//! The model keeps the mechanisms that matter for NFS-over-TCP performance
//! and drops everything else:
//!
//! - **Reliable, in-order byte stream.** Data is sequenced per byte; the
//!   receiver buffers out-of-order segments and delivers contiguously.
//! - **ACK-clocked sending with congestion control.** Slow start doubles the
//!   window every RTT until `ssthresh`, then AIMD grows it by one MSS per
//!   RTT. A loss detected by triple duplicate ACK halves the window (fast
//!   retransmit); a retransmission timeout collapses it to one MSS.
//! - **RTO estimation.** Jacobson/Karels smoothed RTT plus variance, with
//!   Karn's rule (no samples from retransmitted data) and exponential
//!   backoff capped at `max_rto`.
//! - **Connection setup and teardown.** A SYN/SYN-ACK/ACK handshake paying
//!   real link latency, plus best-effort FIN and abortive RST.
//!
//! There is no receive-window flow control (the simulated receiver drains
//! promptly and memory is not the modeled bottleneck) and no delayed ACKs
//! (every data segment is acknowledged immediately, which keeps the ACK
//! clock simple and deterministic).
//!
//! The host-side byte path copies each byte at most once per hop, and no
//! operation's cost grows with the queued backlog. The send buffer is a
//! ring holding `[snd_una, snd_end)`: a cumulative ACK drops only the
//! bytes it acknowledges. Each data segment is written from the ring's
//! slices, behind its header, into a pooled wire buffer
//! (`nfsperf_net::pool_get`) that the receiving endpoint returns to the
//! pool. Received segments are views borrowed from their datagram: only
//! out-of-order data is copied aside, in-order bytes go straight to the
//! receive buffer, and [`TcpConn::recv_into`] hands that buffer over by
//! swapping it with an empty one.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use nfsperf_net::{pool_get, Path};
use nfsperf_sim::{select2, Counter, Either, Sim, SimDuration, SimTime, WaitQueue};

use crate::segment::{write_header, Segment, FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, HEADER_LEN};

/// Tunables of the TCP model.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (application bytes per segment).
    pub mss: usize,
    /// Initial congestion window in bytes (RFC 3390-style: a few segments).
    pub initial_cwnd: usize,
    /// Upper bound on the congestion window (stands in for the peer's
    /// receive window / socket buffer).
    pub max_cwnd: usize,
    /// Initial retransmission timeout before any RTT sample.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO (and on SYN retry backoff).
    pub max_rto: SimDuration,
    /// SYN retransmissions before `connect` gives up.
    pub syn_retries: u32,
    /// Duplicate ACKs that trigger a fast retransmit.
    pub dupack_threshold: u32,
}

impl TcpConfig {
    /// A configuration whose MSS fills exactly one IP fragment at `mtu`.
    ///
    /// The simulated segment header is 24 bytes and the link adds 20 (IP) +
    /// 8 (UDP framing) more, so `mss = mtu - 52` makes a full segment's
    /// datagram exactly `mtu - 24` bytes — one fragment, like a real TCP
    /// segment that fits the MTU.
    pub fn for_mtu(mtu: usize) -> TcpConfig {
        let mss = mtu.saturating_sub(52).max(512);
        TcpConfig {
            mss,
            initial_cwnd: 4 * mss,
            max_cwnd: 64 * 1024,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            syn_retries: 5,
            dupack_threshold: 3,
        }
    }
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig::for_mtu(1500)
    }
}

/// Why a stream operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The connection is closed (local close, or the peer sent FIN and the
    /// receive buffer is drained).
    Closed,
    /// The peer aborted the connection with RST.
    Reset,
    /// The three-way handshake never completed.
    ConnectTimedOut,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Active opener: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Passive opener: SYN seen, SYN-ACK sent, waiting for the first ACK.
    SynReceived,
    Established,
    Closed,
}

/// Endpoint-wide counters, shared by all connections of a [`TcpEndpoint`].
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    pub connects: Counter,
    pub segments_sent: Counter,
    pub data_segments_sent: Counter,
    pub retransmits: Counter,
    pub fast_retransmits: Counter,
    pub rto_timeouts: Counter,
}

/// One end of a simulated TCP connection.
///
/// Single-threaded like everything in the simulation: interior mutability
/// via `Cell`/`RefCell`, driven by the endpoint's demultiplexer task and a
/// per-connection retransmission-timer task.
pub struct TcpConn {
    sim: Sim,
    path: Path,
    config: TcpConfig,
    id: u32,
    counters: Rc<SharedCounters>,

    state: Cell<State>,
    established: WaitQueue,
    reset_seen: Cell<bool>,

    // Send side. The ring holds bytes [snd_una, snd_end); its front is
    // dropped as cumulative ACKs advance snd_una.
    snd_una: Cell<u64>,
    snd_nxt: Cell<u64>,
    snd_end: Cell<u64>,
    snd_buf: RefCell<VecDeque<u8>>,
    cwnd: Cell<u64>,
    ssthresh: Cell<u64>,
    dup_acks: Cell<u32>,

    // RTO machinery. `timer_epoch` invalidates a running timer whenever the
    // leading unacknowledged byte changes; `rtt_probe` times one in-flight
    // segment at a time and is cleared on retransmission (Karn's rule).
    rto: Cell<SimDuration>,
    srtt: Cell<Option<(SimDuration, SimDuration)>>,
    rtt_probe: Cell<Option<(u64, SimTime)>>,
    timer_epoch: Cell<u64>,
    timer_kick: WaitQueue,

    // Receive side.
    rcv_nxt: Cell<u64>,
    out_of_order: RefCell<BTreeMap<u64, Vec<u8>>>,
    app_rx: RefCell<Vec<u8>>,
    rx_waiters: WaitQueue,
    fin_seen: Cell<bool>,
}

impl TcpConn {
    fn new(
        sim: &Sim,
        path: Path,
        config: TcpConfig,
        id: u32,
        counters: Rc<SharedCounters>,
        state: State,
    ) -> Rc<TcpConn> {
        let initial_cwnd = config.initial_cwnd as u64;
        let initial_rto = config.initial_rto;
        let max_cwnd = config.max_cwnd as u64;
        let conn = Rc::new(TcpConn {
            sim: sim.clone(),
            path,
            config,
            id,
            counters,
            state: Cell::new(state),
            established: WaitQueue::new(),
            reset_seen: Cell::new(false),
            snd_una: Cell::new(1),
            snd_nxt: Cell::new(1),
            snd_end: Cell::new(1),
            snd_buf: RefCell::new(VecDeque::new()),
            cwnd: Cell::new(initial_cwnd),
            ssthresh: Cell::new(max_cwnd),
            dup_acks: Cell::new(0),
            rto: Cell::new(initial_rto),
            srtt: Cell::new(None),
            rtt_probe: Cell::new(None),
            timer_epoch: Cell::new(0),
            timer_kick: WaitQueue::new(),
            rcv_nxt: Cell::new(1),
            out_of_order: RefCell::new(BTreeMap::new()),
            app_rx: RefCell::new(Vec::new()),
            rx_waiters: WaitQueue::new(),
            fin_seen: Cell::new(false),
        });
        let timer = Rc::clone(&conn);
        sim.spawn(async move { timer.timer_loop().await });
        conn
    }

    /// Active open: creates the connection and transmits the initial SYN.
    /// The caller ([`TcpEndpoint::connect`]) drives SYN retries.
    pub(crate) fn active(
        sim: &Sim,
        path: Path,
        config: TcpConfig,
        id: u32,
        counters: Rc<SharedCounters>,
    ) -> Rc<TcpConn> {
        let conn = TcpConn::new(sim, path, config, id, counters, State::SynSent);
        conn.send_syn();
        conn
    }

    /// Passive open: created by the endpoint on an incoming SYN; replies
    /// with SYN-ACK immediately.
    pub(crate) fn passive(
        sim: &Sim,
        path: Path,
        config: TcpConfig,
        id: u32,
        counters: Rc<SharedCounters>,
    ) -> Rc<TcpConn> {
        let conn = TcpConn::new(sim, path, config, id, counters, State::SynReceived);
        conn.send_raw(FLAG_SYN | FLAG_ACK, 0, 1);
        conn
    }

    /// The connection id shared by both ends.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// True until the connection is fully closed.
    pub fn is_open(&self) -> bool {
        self.state.get() != State::Closed
    }

    /// Current congestion window in bytes (exposed for tests/experiments).
    pub fn cwnd(&self) -> u64 {
        self.cwnd.get()
    }

    /// Current retransmission timeout (exposed for tests).
    pub fn rto(&self) -> SimDuration {
        self.rto.get()
    }

    /// `(snd_nxt, snd_end)`: the next sequence number to send and the end
    /// of the queued stream.
    #[cfg(test)]
    pub(crate) fn send_seqs(&self) -> (u64, u64) {
        (self.snd_nxt.get(), self.snd_end.get())
    }

    /// Resolves once the three-way handshake completes, or fails if the
    /// connection dies first.
    pub async fn wait_established(&self) -> Result<(), TcpError> {
        loop {
            match self.state.get() {
                State::Established => return Ok(()),
                State::Closed => {
                    return Err(if self.reset_seen.get() {
                        TcpError::Reset
                    } else {
                        TcpError::Closed
                    });
                }
                _ => self.established.wait().await,
            }
        }
    }

    /// Appends bytes to the send stream. Never blocks: transmission is
    /// paced purely by the congestion window, so `send` queues and the ACK
    /// clock drains. Fails once the connection is closed.
    pub fn send(self: &Rc<Self>, bytes: &[u8]) -> Result<(), TcpError> {
        self.send_vectored(&[bytes])
    }

    /// Appends the concatenation of `parts` to the send stream, exactly as
    /// one [`TcpConn::send`] of the joined bytes would, without joining
    /// them first — an RPC record marker and its message, for example.
    pub fn send_vectored(self: &Rc<Self>, parts: &[&[u8]]) -> Result<(), TcpError> {
        if self.state.get() == State::Closed {
            return Err(if self.reset_seen.get() {
                TcpError::Reset
            } else {
                TcpError::Closed
            });
        }
        let mut queued = 0;
        {
            let mut buf = self.snd_buf.borrow_mut();
            for part in parts {
                buf.extend(part.iter());
                queued += part.len();
            }
        }
        self.snd_end.set(self.snd_end.get() + queued as u64);
        self.pump();
        Ok(())
    }

    /// Awaits and returns whatever contiguous bytes have arrived, like a
    /// `read()` on a stream socket. Errors once the stream is done:
    /// [`TcpError::Closed`] after FIN/local close, [`TcpError::Reset`]
    /// after RST.
    pub async fn recv_some(&self) -> Result<Vec<u8>, TcpError> {
        let mut bytes = Vec::new();
        self.recv_into(&mut bytes).await?;
        Ok(bytes)
    }

    /// Awaits contiguous received bytes and moves all of them to the end
    /// of `buf`, returning how many moved. When `buf` is empty the two
    /// buffers trade places instead of copying. Errors as
    /// [`TcpConn::recv_some`] does.
    pub async fn recv_into(&self, buf: &mut Vec<u8>) -> Result<usize, TcpError> {
        loop {
            {
                let mut rx = self.app_rx.borrow_mut();
                let arrived = rx.len();
                if arrived > 0 {
                    if buf.is_empty() {
                        std::mem::swap(&mut *rx, buf);
                    } else {
                        buf.extend_from_slice(&rx);
                        rx.clear();
                    }
                    return Ok(arrived);
                }
            }
            if self.reset_seen.get() {
                return Err(TcpError::Reset);
            }
            if self.state.get() == State::Closed || self.fin_seen.get() {
                return Err(TcpError::Closed);
            }
            self.rx_waiters.wait().await;
        }
    }

    /// Best-effort orderly close: sends FIN and closes the local end. No
    /// TIME-WAIT modeling; the peer observes end-of-stream.
    pub fn close(self: &Rc<Self>) {
        if self.state.get() == State::Closed {
            return;
        }
        self.send_raw(FLAG_FIN | FLAG_ACK, self.snd_end.get(), self.rcv_nxt.get());
        self.mark_closed();
    }

    /// Abortive close: sends RST and drops all state.
    pub fn abort(self: &Rc<Self>) {
        if self.state.get() == State::Closed {
            return;
        }
        self.send_raw(FLAG_RST, self.snd_nxt.get(), self.rcv_nxt.get());
        self.reset_seen.set(true);
        self.mark_closed();
    }

    fn mark_closed(&self) {
        self.state.set(State::Closed);
        self.established.wake_all();
        self.rx_waiters.wake_all();
        self.timer_kick.wake_all();
    }

    /// Transmits (or, from the endpoint's connect loop, retransmits) the
    /// SYN.
    pub(crate) fn send_syn(&self) {
        self.send_raw(FLAG_SYN, 0, 0);
    }

    /// Transmits a segment without payload (SYN, pure ACK, FIN, RST) in a
    /// header-sized buffer. These make up half the segments in flight, so
    /// they must not hold pooled buffers sized for data.
    fn send_raw(&self, flags: u8, seq: u64, ack: u64) {
        self.counters.segments_sent.inc();
        let mut wire = Vec::with_capacity(HEADER_LEN);
        write_header(&mut wire, self.id, seq, ack, flags);
        self.path.send(wire);
    }

    /// Transmits `len` buffered bytes, starting `off` bytes past
    /// `snd_una`, as one data segment with sequence number `seq`. The bytes
    /// are copied from the ring straight into a pooled wire buffer behind
    /// the header.
    fn send_data(&self, seq: u64, off: usize, len: usize) {
        self.counters.segments_sent.inc();
        self.counters.data_segments_sent.inc();
        let mut wire = pool_get();
        wire.reserve(HEADER_LEN + len);
        write_header(&mut wire, self.id, seq, self.rcv_nxt.get(), FLAG_ACK);
        {
            let buf = self.snd_buf.borrow();
            let (front, back) = buf.as_slices();
            let end = off + len;
            if off < front.len() {
                wire.extend_from_slice(&front[off..end.min(front.len())]);
            }
            if end > front.len() {
                wire.extend_from_slice(&back[off.saturating_sub(front.len())..end - front.len()]);
            }
        }
        self.path.send(wire);
    }

    /// Transmits as much buffered data as the congestion window allows.
    fn pump(self: &Rc<Self>) {
        if self.state.get() != State::Established {
            return;
        }
        let mut sent = false;
        loop {
            let nxt = self.snd_nxt.get();
            let end = self.snd_end.get();
            let una = self.snd_una.get();
            if nxt >= end || nxt - una >= self.cwnd.get() {
                break;
            }
            let len = ((end - nxt) as usize).min(self.config.mss);
            if self.rtt_probe.get().is_none() {
                self.rtt_probe.set(Some((nxt + len as u64, self.sim.now())));
            }
            self.send_data(nxt, (nxt - una) as usize, len);
            self.snd_nxt.set(nxt + len as u64);
            sent = true;
        }
        if sent {
            self.timer_kick.wake_all();
        }
    }

    /// Resends the first unacknowledged segment.
    fn retransmit_first(&self) {
        let una = self.snd_una.get();
        let nxt = self.snd_nxt.get();
        if nxt <= una {
            return;
        }
        let len = ((nxt - una) as usize).min(self.config.mss);
        self.counters.retransmits.inc();
        // Karn's rule: a retransmitted range must not produce an RTT sample.
        self.rtt_probe.set(None);
        self.send_data(una, 0, len);
    }

    fn rtt_update(&self, sample: SimDuration) {
        let (srtt, rttvar) = match self.srtt.get() {
            None => (sample, SimDuration(sample.0 / 2)),
            Some((srtt, rttvar)) => {
                // Jacobson/Karels with alpha = 1/8, beta = 1/4.
                let err = srtt.0.abs_diff(sample.0);
                let rttvar = SimDuration(rttvar.0 - rttvar.0 / 4 + err / 4);
                let srtt = SimDuration(srtt.0 - srtt.0 / 8 + sample.0 / 8);
                (srtt, rttvar)
            }
        };
        self.srtt.set(Some((srtt, rttvar)));
        let rto = SimDuration(srtt.0 + 4 * rttvar.0)
            .max(self.config.min_rto)
            .min(self.config.max_rto);
        self.rto.set(rto);
    }

    /// Main segment handler, called from the endpoint demultiplexer.
    pub(crate) fn on_segment(self: &Rc<Self>, seg: &Segment<'_>) {
        if self.state.get() == State::Closed {
            return;
        }
        if seg.flags & FLAG_RST != 0 {
            self.reset_seen.set(true);
            self.mark_closed();
            return;
        }
        match self.state.get() {
            State::SynSent => {
                if seg.flags & FLAG_SYN != 0 && seg.flags & FLAG_ACK != 0 {
                    self.become_established();
                    // Complete the handshake; this ACK also opens the
                    // peer's SynReceived half.
                    self.send_raw(FLAG_ACK, self.snd_nxt.get(), self.rcv_nxt.get());
                    self.pump();
                }
            }
            State::SynReceived => {
                if seg.flags & FLAG_SYN != 0 {
                    // Duplicate SYN: the SYN-ACK was lost; resend it.
                    self.counters.retransmits.inc();
                    self.send_raw(FLAG_SYN | FLAG_ACK, 0, 1);
                    return;
                }
                if seg.flags & FLAG_ACK != 0 && seg.ack >= 1 {
                    // Any ACK of our SYN opens the connection — including
                    // one piggybacked on first data if the pure handshake
                    // ACK was lost.
                    self.become_established();
                    self.process(seg);
                }
            }
            State::Established => self.process(seg),
            State::Closed => {}
        }
    }

    fn become_established(&self) {
        self.state.set(State::Established);
        self.established.wake_all();
        self.timer_kick.wake_all();
    }

    fn process(self: &Rc<Self>, seg: &Segment<'_>) {
        if seg.flags & FLAG_ACK != 0 {
            if seg.ack > self.snd_nxt.get() {
                // RFC 793 §3.9: an ACK for data not yet sent is answered
                // with an ACK and the segment dropped.
                self.send_raw(FLAG_ACK, self.snd_nxt.get(), self.rcv_nxt.get());
                return;
            }
            self.process_ack(seg);
        }
        if !seg.payload.is_empty() {
            self.accept_data(seg.seq, seg.payload);
            // Immediate cumulative ACK for every data segment. When the
            // segment left a gap this duplicates the previous ACK, which is
            // exactly what drives the sender's fast retransmit.
            self.send_raw(FLAG_ACK, self.snd_nxt.get(), self.rcv_nxt.get());
        }
        if seg.flags & FLAG_FIN != 0 {
            self.fin_seen.set(true);
            self.rx_waiters.wake_all();
        }
    }

    fn process_ack(self: &Rc<Self>, seg: &Segment<'_>) {
        let una = self.snd_una.get();
        if seg.ack > una {
            // New data acknowledged.
            let advanced = (seg.ack - una) as usize;
            self.snd_buf.borrow_mut().drain(..advanced);
            self.snd_una.set(seg.ack);
            self.dup_acks.set(0);
            if let Some((probe_seq, sent_at)) = self.rtt_probe.get() {
                if seg.ack >= probe_seq {
                    self.rtt_probe.set(None);
                    self.rtt_update(self.sim.now() - sent_at);
                }
            }
            let mss = self.config.mss as u64;
            let cwnd = self.cwnd.get();
            let grown = if cwnd < self.ssthresh.get() {
                cwnd + mss // slow start: one MSS per ACK
            } else {
                cwnd + (mss * mss / cwnd).max(1) // congestion avoidance
            };
            self.cwnd.set(grown.min(self.config.max_cwnd as u64).max(mss));
            // Restart the retransmission timer for the new leading byte.
            self.timer_epoch.set(self.timer_epoch.get() + 1);
            self.timer_kick.wake_all();
            self.pump();
        } else if seg.ack == una
            && self.snd_nxt.get() > una
            && seg.payload.is_empty()
            && seg.flags & (FLAG_SYN | FLAG_FIN) == 0
        {
            // Duplicate ACK while data is outstanding.
            let dups = self.dup_acks.get() + 1;
            self.dup_acks.set(dups);
            if dups == self.config.dupack_threshold {
                self.counters.fast_retransmits.inc();
                let mss = self.config.mss as u64;
                let flight = self.snd_nxt.get() - una;
                let ssthresh = (flight / 2).max(2 * mss);
                self.ssthresh.set(ssthresh);
                self.cwnd.set(ssthresh);
                self.retransmit_first();
                self.timer_epoch.set(self.timer_epoch.get() + 1);
                self.timer_kick.wake_all();
            }
        }
    }

    fn accept_data(&self, seq: u64, data: &[u8]) {
        let rcv = self.rcv_nxt.get();
        if seq + data.len() as u64 <= rcv {
            return; // pure duplicate; the caller still re-ACKs
        }
        if seq > rcv {
            self.out_of_order
                .borrow_mut()
                .entry(seq)
                .or_insert_with(|| data.to_vec());
            return;
        }
        // In-order (possibly overlapping the front): deliver, then drain
        // whatever out-of-order data became contiguous.
        let skip = (rcv - seq) as usize;
        let mut next = rcv;
        {
            let mut app = self.app_rx.borrow_mut();
            app.extend_from_slice(&data[skip..]);
            next += (data.len() - skip) as u64;
            let mut ooo = self.out_of_order.borrow_mut();
            while let Some((&s, _)) = ooo.range(..=next).next() {
                let d = ooo.remove(&s).unwrap();
                let d_end = s + d.len() as u64;
                if d_end > next {
                    app.extend_from_slice(&d[(next - s) as usize..]);
                    next = d_end;
                }
            }
        }
        self.rcv_nxt.set(next);
        self.rx_waiters.wake_all();
    }

    /// Retransmission-timer task: one per connection, lives until close.
    ///
    /// The timer sleeps `rto` from the last "kick" (send or leading-edge
    /// ACK, tracked by `timer_epoch`); if the epoch is unchanged when the
    /// sleep expires and data is still outstanding, that data's leading
    /// segment is retransmitted with the window collapsed to one MSS and
    /// the RTO doubled (exponential backoff, capped).
    async fn timer_loop(self: Rc<Self>) {
        loop {
            match self.state.get() {
                State::Closed => return,
                State::Established => {}
                _ => {
                    self.timer_kick.wait().await;
                    continue;
                }
            }
            if self.snd_una.get() == self.snd_nxt.get() {
                // Nothing outstanding; wait for a send.
                self.timer_kick.wait().await;
                continue;
            }
            let epoch = self.timer_epoch.get();
            let expired = matches!(
                select2(self.timer_kick.wait(), self.sim.sleep(self.rto.get())).await,
                Either::Right(())
            );
            if expired
                && self.state.get() == State::Established
                && self.timer_epoch.get() == epoch
                && self.snd_una.get() < self.snd_nxt.get()
            {
                self.counters.rto_timeouts.inc();
                let mss = self.config.mss as u64;
                let flight = self.snd_nxt.get() - self.snd_una.get();
                self.ssthresh.set((flight / 2).max(2 * mss));
                self.cwnd.set(mss);
                self.dup_acks.set(0);
                self.rto
                    .set((self.rto.get() * 2).min(self.config.max_rto));
                self.retransmit_first();
            }
        }
    }
}
