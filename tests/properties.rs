//! Property-based tests over the core data structures and codecs.
//!
//! Driven by the in-tree `nfsperf_sim::proptest` module (seeded cases,
//! shrinking, failure-seed reporting) — one `#[test]` per property the
//! suite had under the external `proptest` crate, same assertions. A
//! failure prints the case seed; replay it with
//! `NFSPERF_PROPTEST_SEED=<seed> NFSPERF_PROPTEST_CASES=1 cargo test <name>`.

use std::collections::BTreeMap;
use std::rc::Rc;

use nfsperf_sim::proptest::{check, CaseOutcome};
use nfsperf_sim::{prop_assert, prop_assert_eq, prop_assume};

use nfsperf_client::{IndexKind, NfsPageReq, RequestIndex};
use nfsperf_kernel::{split_into_pages, PAGE_SIZE};
use nfsperf_net::{fragments_for, wire_bytes, Nic, NicSpec, Path};
use nfsperf_nfs3::{
    Commit3Args, Fattr3, FileHandle, NfsStat3, StableHow, WccData, Write3Args, Write3Res, WriteVerf,
};
use nfsperf_sim::{select2, Either, Histogram, Sim, SimDuration, SimTime};
use nfsperf_sunrpc::{
    decode_call, decode_reply, encode_call, encode_record, encode_record_frags, encode_reply,
    record_marker, AuthUnix, RecordReader,
};
use nfsperf_tcp::{TcpConfig, TcpEndpoint, TcpStats};
use nfsperf_xdr::{Decoder, Encoder, XdrDecode, XdrEncode};

// ---------------------------------------------------------------------
// XDR codec round trips.
// ---------------------------------------------------------------------

#[test]
fn xdr_u32_round_trip() {
    check("xdr_u32_round_trip", |g| g.any_u32(), |&v| {
        let mut e = Encoder::new();
        e.put_u32(v);
        let bytes = e.into_bytes();
        prop_assert_eq!(bytes.len(), 4);
        prop_assert_eq!(Decoder::new(&bytes).get_u32().unwrap(), v);
        CaseOutcome::Pass
    });
}

#[test]
fn xdr_u64_round_trip() {
    check("xdr_u64_round_trip", |g| g.any_u64(), |&v| {
        let mut e = Encoder::new();
        e.put_u64(v);
        let bytes = e.into_bytes();
        prop_assert_eq!(Decoder::new(&bytes).get_u64().unwrap(), v);
        CaseOutcome::Pass
    });
}

#[test]
fn xdr_opaque_round_trip() {
    check("xdr_opaque_round_trip", |g| g.bytes(0, 2048), |data| {
        let mut e = Encoder::new();
        e.put_opaque(data);
        let bytes = e.into_bytes();
        // Always 4-byte aligned.
        prop_assert_eq!(bytes.len() % 4, 0);
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_opaque().unwrap(), &data[..]);
        prop_assert!(d.is_empty());
        CaseOutcome::Pass
    });
}

#[test]
fn xdr_string_round_trip() {
    check("xdr_string_round_trip", |g| g.unicode_string(0, 257), |s| {
        let mut e = Encoder::new();
        e.put_string(s);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(&d.get_string().unwrap(), s);
        CaseOutcome::Pass
    });
}

#[test]
fn xdr_mixed_sequence_round_trip() {
    check(
        "xdr_mixed_sequence_round_trip",
        |g| (g.vec(1, 20, |g| g.any_u32()), g.bytes(0, 128)),
        |(ints, blob)| {
            let mut e = Encoder::new();
            for &v in ints {
                e.put_u32(v);
            }
            e.put_opaque(blob);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            for &v in ints {
                prop_assert_eq!(d.get_u32().unwrap(), v);
            }
            prop_assert_eq!(d.get_opaque().unwrap(), &blob[..]);
            CaseOutcome::Pass
        },
    );
}

/// A decoder never panics on arbitrary junk — it returns errors.
#[test]
fn xdr_decoder_is_panic_free() {
    check("xdr_decoder_is_panic_free", |g| g.bytes(0, 512), |junk| {
        let mut d = Decoder::new(junk);
        let _ = d.get_u32();
        let _ = d.get_opaque();
        let _ = d.get_string();
        let _ = d.get_u64();
        CaseOutcome::Pass
    });
}

// ---------------------------------------------------------------------
// NFSv3 message round trips.
// ---------------------------------------------------------------------

#[test]
fn write3_args_round_trip() {
    check(
        "write3_args_round_trip",
        |g| {
            (
                g.any_u64(),
                g.u64_in(0, 1 << 40),
                g.u32_in(0, 65536),
                g.u8_in(0, 3),
            )
        },
        |&(fileid, offset, count, stable_pick)| {
            let stable = match stable_pick {
                0 => StableHow::Unstable,
                1 => StableHow::DataSync,
                _ => StableHow::FileSync,
            };
            let args = Write3Args::new(FileHandle::for_fileid(fileid), offset, count, stable);
            let mut e = Encoder::new();
            args.encode(&mut e);
            prop_assert_eq!(e.len(), args.encoded_len());
            let bytes = e.into_bytes();
            let back = Write3Args::decode(&mut Decoder::new(&bytes)).unwrap();
            prop_assert_eq!(back, args);
            CaseOutcome::Pass
        },
    );
}

#[test]
fn write3_res_round_trip() {
    check(
        "write3_res_round_trip",
        |g| (g.any_u32(), g.any_u64(), g.any_u64()),
        |&(count, verf, size)| {
            let res = Write3Res::ok(
                WccData::full(size / 2, Fattr3::regular(3, size)),
                count,
                StableHow::FileSync,
                WriteVerf(verf),
            );
            let mut e = Encoder::new();
            res.encode(&mut e);
            let bytes = e.into_bytes();
            let back = Write3Res::decode(&mut Decoder::new(&bytes)).unwrap();
            prop_assert_eq!(back, res);
            CaseOutcome::Pass
        },
    );
}

#[test]
fn rpc_call_header_round_trip() {
    check(
        "rpc_call_header_round_trip",
        |g| {
            (
                g.any_u32(),
                g.u32_in(0, 22),
                g.any_u32(),
                g.lowercase_string(1, 33),
            )
        },
        |(xid, proc, uid, machine)| {
            let cred = AuthUnix {
                stamp: 1,
                machine: machine.clone(),
                uid: *uid,
                gid: *uid / 2,
                gids: vec![1, 2],
            };
            let args = Commit3Args {
                file: FileHandle::for_fileid(u64::from(*xid)),
                offset: 0,
                count: 0,
            };
            let msg = encode_call(*xid, 100_003, 3, *proc, &cred, &args);
            let (hdr, mut dec) = decode_call(&msg).unwrap();
            prop_assert_eq!(hdr.xid, *xid);
            prop_assert_eq!(hdr.proc, *proc);
            prop_assert_eq!(&hdr.cred, &cred);
            let back = Commit3Args::decode(&mut dec).unwrap();
            prop_assert_eq!(back, args);
            CaseOutcome::Pass
        },
    );
}

#[test]
fn rpc_reply_round_trip() {
    check(
        "rpc_reply_round_trip",
        |g| (g.any_u32(), g.u8_in(0, 4)),
        |&(xid, status_pick)| {
            let status = match status_pick {
                0 => NfsStat3::Ok,
                1 => NfsStat3::Io,
                2 => NfsStat3::Nospc,
                _ => NfsStat3::Stale,
            };
            let msg = encode_reply(xid, &(status as u32));
            let (hdr, mut dec) = decode_reply(&msg).unwrap();
            prop_assert_eq!(hdr.xid, xid);
            prop_assert_eq!(dec.get_u32().unwrap(), status as u32);
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Page splitting.
// ---------------------------------------------------------------------

#[test]
fn page_split_covers_exactly() {
    check(
        "page_split_covers_exactly",
        |g| (g.u64_in(0, 1 << 30), g.u64_in(0, 256 * 1024)),
        |&(offset, len)| {
            let segs = split_into_pages(offset, len);
            // Total coverage.
            let total: u64 = segs.iter().map(|s| s.len).sum();
            prop_assert_eq!(total, len);
            // Contiguous, ordered, within page bounds.
            let mut pos = offset;
            for s in &segs {
                prop_assert_eq!(s.file_offset(), pos);
                prop_assert!(s.len >= 1 && s.len <= PAGE_SIZE);
                prop_assert!(s.offset_in_page + s.len <= PAGE_SIZE);
                pos += s.len;
            }
            // No two segments share a page.
            for w in segs.windows(2) {
                prop_assert!(w[0].index < w[1].index);
            }
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Fragmentation arithmetic.
// ---------------------------------------------------------------------

#[test]
fn fragments_monotone_in_payload() {
    check(
        "fragments_monotone_in_payload",
        |g| (g.usize_in(0, 65536), g.usize_in(0, 65536)),
        |&(a, b)| {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(fragments_for(lo, 1500) <= fragments_for(hi, 1500));
            prop_assert!(wire_bytes(lo, 1500) <= wire_bytes(hi, 1500));
            CaseOutcome::Pass
        },
    );
}

#[test]
fn bigger_mtu_never_fragments_more() {
    check(
        "bigger_mtu_never_fragments_more",
        |g| g.usize_in(0, 65536),
        |&payload| {
            prop_assert!(fragments_for(payload, 9000) <= fragments_for(payload, 1500));
            prop_assert!(wire_bytes(payload, 9000) <= wire_bytes(payload, 1500));
            CaseOutcome::Pass
        },
    );
}

#[test]
fn wire_overhead_is_bounded() {
    check(
        "wire_overhead_is_bounded",
        |g| g.usize_in(0, 65536),
        |&payload| {
            let w = wire_bytes(payload, 1500);
            prop_assert!(w > payload);
            // Overhead: <= 66 bytes per fragment plus the UDP header.
            let frags = fragments_for(payload, 1500);
            prop_assert!(w <= payload + 8 + frags * 58);
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Request index: both kinds match an independent reference model.
// ---------------------------------------------------------------------

/// The 2.4.4 list walk, done naively over the reference's sorted keys:
/// entries visited until the page or the first larger one, else all.
fn reference_walk(model: &BTreeMap<u64, Rc<NfsPageReq>>, page: u64) -> usize {
    let mut walked = 0;
    for &p in model.keys() {
        walked += 1;
        if p >= page {
            break;
        }
    }
    walked
}

/// Both absent, or both the very same request.
fn same_req(a: Option<&Rc<NfsPageReq>>, b: Option<&Rc<NfsPageReq>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Rc::ptr_eq(a, b),
        _ => false,
    }
}

/// Each op is `(kind, arg)`: kind 0 writes random page `arg`, 1–3 append
/// the sequential writer's next page, 4 completes random page `arg`, 5
/// completes one of the four oldest requests (completions out of order
/// near the head), 6 iterates from page `4 * arg`. Every op is checked
/// on both index kinds against a `BTreeMap` for contents and a naive
/// walk for the list's `scanned`; the hash kind must report no walk.
#[test]
fn index_kinds_are_observationally_equal() {
    check(
        "index_kinds_are_observationally_equal",
        |g| g.vec(1, 300, |g| (g.u8_in(0, 7), g.u64_in(0, 64))),
        |ops: &Vec<(u8, u64)>| {
            let kinds = [IndexKind::SortedList, IndexKind::HashTable];
            let mut idxs = kinds.map(RequestIndex::new);
            let mut model: BTreeMap<u64, Rc<NfsPageReq>> = BTreeMap::new();
            let mut next_seq = 64;
            for &(op, arg) in ops {
                match op {
                    0..=3 => {
                        let page = if op == 0 {
                            arg
                        } else {
                            next_seq += 1;
                            next_seq - 1
                        };
                        let walk = reference_walk(&model, page);
                        let present = model.contains_key(&page);
                        let req = NfsPageReq::new(page, 0, PAGE_SIZE, SimTime::ZERO);
                        for (kind, idx) in kinds.iter().zip(&mut idxs) {
                            let charged = match kind {
                                IndexKind::SortedList => walk,
                                IndexKind::HashTable => 0,
                            };
                            let l = idx.find(page);
                            prop_assert_eq!(l.scanned, charged);
                            prop_assert!(
                                same_req(l.found.as_ref(), model.get(&page)),
                                "{kind:?} find({page})"
                            );
                            if !present {
                                prop_assert_eq!(idx.insert(Rc::clone(&req)), charged);
                            }
                        }
                        if !present {
                            model.insert(page, req);
                        }
                    }
                    4 | 5 => {
                        let page = if op == 4 {
                            arg
                        } else {
                            model.keys().nth(arg as usize % 4).copied().unwrap_or(arg)
                        };
                        let done = model.remove(&page);
                        for idx in &mut idxs {
                            prop_assert!(
                                same_req(idx.remove(page).as_ref(), done.as_ref()),
                                "remove({page})"
                            );
                        }
                    }
                    _ => {
                        let from = 4 * arg;
                        let want: Vec<u64> = model.range(from..).map(|(&p, _)| p).collect();
                        for idx in &idxs {
                            let got: Vec<u64> = idx.iter_from(from).map(|r| r.page_index).collect();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
                for idx in &idxs {
                    prop_assert_eq!(idx.len(), model.len());
                    prop_assert_eq!(idx.is_empty(), model.is_empty());
                    prop_assert_eq!(idx.iter().count(), model.len());
                    prop_assert!(
                        idx.iter()
                            .zip(model.values())
                            .all(|(a, b)| Rc::ptr_eq(a, b)),
                        "iter order differs from the reference"
                    );
                }
            }
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Histogram invariants.
// ---------------------------------------------------------------------

#[test]
fn histogram_conserves_samples() {
    check(
        "histogram_conserves_samples",
        |g| g.vec(0, 300, |g| g.u64_in(0, 10_000_000)),
        |samples: &Vec<u64>| {
            let durs: Vec<SimDuration> = samples.iter().map(|&n| SimDuration(n)).collect();
            let h = Histogram::from_samples(SimDuration::from_micros(60), 8, &durs);
            let binned: u64 = h.bins().iter().sum::<u64>() + h.overflow();
            prop_assert_eq!(binned, samples.len() as u64);
            prop_assert_eq!(h.count(), samples.len() as u64);
            if let Some(&max) = samples.iter().max() {
                prop_assert_eq!(h.max(), SimDuration(max));
            }
            if let Some(&min) = samples.iter().min() {
                prop_assert_eq!(h.min(), Some(SimDuration(min)));
            }
            // Mean is bounded by min and max.
            if !samples.is_empty() {
                prop_assert!(h.mean() >= h.min().unwrap());
                prop_assert!(h.mean() <= h.max());
            }
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Request merge semantics.
// ---------------------------------------------------------------------

#[test]
fn merge_yields_exact_union_when_contiguous() {
    check(
        "merge_yields_exact_union_when_contiguous",
        |g| {
            (
                g.u64_in(0, PAGE_SIZE),
                g.u64_in(1, PAGE_SIZE),
                g.u64_in(0, PAGE_SIZE),
                g.u64_in(1, PAGE_SIZE),
            )
        },
        |&(a_start, a_len, b_start, b_len)| {
            // Shrinking may drive a length to 0 or a range past the page;
            // re-check the generator's preconditions as assumptions.
            prop_assume!(a_len >= 1 && b_len >= 1);
            prop_assume!(a_start + a_len <= PAGE_SIZE);
            prop_assume!(b_start + b_len <= PAGE_SIZE);
            let req = NfsPageReq::new(0, a_start, a_len, SimTime::ZERO);
            let touching = b_start <= a_start + a_len && a_start <= b_start + b_len;
            let merged = req.merge(b_start, b_len);
            prop_assert_eq!(merged, touching);
            if merged {
                prop_assert_eq!(req.offset_in_page(), a_start.min(b_start));
                let end = (a_start + a_len).max(b_start + b_len);
                prop_assert_eq!(req.len(), end - req.offset_in_page());
            } else {
                prop_assert_eq!(req.offset_in_page(), a_start);
                prop_assert_eq!(req.len(), a_len);
            }
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// RFC 1831 §10 record marking (the TCP transport's framing layer).
// ---------------------------------------------------------------------

#[test]
fn record_round_trips_at_arbitrary_fragment_boundaries() {
    check(
        "record_round_trips_at_arbitrary_fragment_boundaries",
        |g| {
            (
                g.bytes(0, 2048),
                g.usize_in(1, 512),
                // Sizes of the stream chunks the reader is fed, modelling
                // arbitrary TCP segmentation of the byte stream.
                g.vec(1, 64, |g| g.usize_in(1, 128)),
            )
        },
        |(msg, max_frag, chunks)| {
            prop_assume!(*max_frag >= 1);
            prop_assume!(chunks.iter().all(|&c| c >= 1));
            let wire = encode_record_frags(msg, *max_frag);
            let mut rd = RecordReader::new();
            let mut out = Vec::new();
            let mut off = 0;
            let mut chunk = chunks.iter().cycle();
            while off < wire.len() {
                let take = (*chunk.next().unwrap()).min(wire.len() - off);
                rd.push(&wire[off..off + take]);
                off += take;
                while let Some(r) = rd.next_record() {
                    out.push(r);
                }
            }
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(&out[0], msg);
            prop_assert_eq!(rd.buffered(), 0);
            CaseOutcome::Pass
        },
    );
}

#[test]
fn back_to_back_records_survive_mixed_fragmentation() {
    check(
        "back_to_back_records_survive_mixed_fragmentation",
        |g| {
            (
                g.vec(1, 8, |g| {
                    let msg = g.bytes(0, 512);
                    let frag = g.usize_in(1, 96);
                    (msg, frag)
                }),
                // Sizes of the stream chunks: even-numbered chunks are
                // pushed, odd-numbered ones appended in place.
                g.vec(1, 32, |g| g.usize_in(1, 700)),
            )
        },
        |(records, chunks)| {
            prop_assume!(records.iter().all(|(_, f)| *f >= 1));
            prop_assume!(chunks.iter().all(|&c| c >= 1));
            let mut wire = Vec::new();
            // Stream offset at which each record ends.
            let mut ends = Vec::new();
            for (msg, frag) in records {
                wire.extend(encode_record_frags(msg, *frag));
                ends.push(wire.len());
            }
            let mut rd = RecordReader::new();
            let mut out = Vec::new();
            let (mut fed, mut consumed) = (0, 0);
            let mut chunk = chunks.iter().cycle().enumerate();
            while fed < wire.len() {
                let (i, &size) = chunk.next().unwrap();
                let bytes = &wire[fed..fed + size.min(wire.len() - fed)];
                if i % 2 == 0 {
                    rd.push(bytes);
                } else {
                    rd.stream_mut().extend_from_slice(bytes);
                }
                fed += bytes.len();
                prop_assert_eq!(rd.buffered(), fed - consumed);
                while let Some(r) = rd.next_record() {
                    consumed = ends[out.len()];
                    out.push(r);
                    prop_assert_eq!(rd.buffered(), fed - consumed);
                }
                prop_assert!(
                    out.len() == ends.len() || ends[out.len()] > fed,
                    "a complete record stayed buffered"
                );
            }
            prop_assert_eq!(out.len(), records.len());
            for (got, (msg, _)) in out.iter().zip(records) {
                prop_assert_eq!(got, msg);
            }
            CaseOutcome::Pass
        },
    );
}

#[test]
fn single_fragment_encoding_matches_the_general_encoder() {
    check(
        "single_fragment_encoding_matches_the_general_encoder",
        |g| g.bytes(0, 1024),
        |msg| {
            // One maximal fragment: 4-byte header with the top bit set and
            // the length in the low 31 bits, then the message verbatim.
            let wire = encode_record(msg);
            prop_assert_eq!(wire.len(), msg.len() + 4);
            let header = u32::from_be_bytes(wire[0..4].try_into().unwrap());
            prop_assert_eq!(header, 0x8000_0000 | msg.len() as u32);
            prop_assert_eq!(&wire[4..], &msg[..]);
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// TCP byte stream integrity.
// ---------------------------------------------------------------------

/// A client and a server TCP endpoint on gigabit NICs; the client NIC
/// drops each datagram fragment with probability `loss`, seeded by `seed`.
fn tcp_pair(sim: &Sim, loss: f64, seed: u64) -> (Rc<TcpEndpoint>, Rc<TcpEndpoint>) {
    let (cnic, crx) = Nic::with_loss(sim, "client", NicSpec::gigabit(), loss, seed);
    let (snic, srx) = Nic::new(sim, "server", NicSpec::gigabit());
    let c2s = Path::new(cnic, snic, Path::default_latency());
    let server = TcpEndpoint::new(sim, c2s.reversed(), srx, TcpConfig::for_mtu(1500));
    let client = TcpEndpoint::new(sim, c2s, crx, TcpConfig::for_mtu(1500));
    (client, server)
}

/// Byte `i` of a scripted stream.
fn stream_byte(i: usize) -> u8 {
    (i * 31 % 251) as u8
}

/// One client write: its part sizes (one part is a `send`, any other
/// count a `send_vectored`) and the pause before the next write, in µs.
type StreamWrite = (Vec<usize>, u32);

/// Runs `script` from client to server, losing `loss_permille` per mille
/// of the client's datagram fragments. Returns the bytes the server read,
/// or `None` if the stream stalled for a simulated hour, and the client's
/// transport counters.
fn run_stream(
    script: &[StreamWrite],
    loss_permille: u32,
    seed: u64,
) -> (Option<Vec<u8>>, TcpStats) {
    let sim = Sim::new();
    let (client, server) = tcp_pair(&sim, f64::from(loss_permille) / 1000.0, seed);
    let total: usize = script.iter().flat_map(|(parts, _)| parts).sum();
    let reader = sim.spawn(async move {
        let conn = server.accept().await.expect("accept");
        // Rotate through recv_some, recv_into on an empty buffer (which
        // swaps) and recv_into on a non-empty one (which appends).
        let (mut got, mut pending) = (Vec::new(), Vec::new());
        let mut step = 0;
        while got.len() + pending.len() < total {
            if step % 3 == 0 {
                got.append(&mut pending);
                got.extend(conn.recv_some().await.expect("stream open"));
            } else {
                if step % 3 == 1 {
                    got.append(&mut pending);
                }
                conn.recv_into(&mut pending).await.expect("stream open");
            }
            step += 1;
        }
        got.append(&mut pending);
        got
    });
    let script = script.to_vec();
    let s = sim.clone();
    let writer = Rc::clone(&client);
    let received = sim.run_until(async move {
        let conn = writer.connect().await.expect("connect");
        let mut next = 0;
        for (parts, pause_us) in &script {
            let bytes: Vec<Vec<u8>> = parts
                .iter()
                .map(|&n| {
                    next += n;
                    (next - n..next).map(stream_byte).collect()
                })
                .collect();
            let slices: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
            match slices[..] {
                [one] => conn.send(one),
                _ => conn.send_vectored(&slices),
            }
            .expect("send");
            s.sleep(SimDuration::from_micros(u64::from(*pause_us)))
                .await;
        }
        match select2(reader, s.sleep(SimDuration::from_secs(3600))).await {
            Either::Left(bytes) => Some(bytes),
            Either::Right(()) => None,
        }
    });
    (received, client.stats())
}

/// Writes of up to 20 KiB per part wrap and grow the send ring, and loss
/// makes fast retransmit, RTO and out-of-order reassembly read from it.
#[test]
fn tcp_stream_delivers_every_byte_under_loss() {
    check(
        "tcp_stream_delivers_every_byte_under_loss",
        |g| {
            (
                g.vec(1, 8, |g| {
                    (
                        g.vec(1, 4, |g| g.usize_in(0, 20 * 1024 + 1)),
                        g.u32_in(0, 2000),
                    )
                }),
                g.u32_in(0, 101),
                g.any_u64(),
            )
        },
        |(script, loss_permille, seed)| {
            let total: usize = script.iter().flat_map(|(parts, _)| parts).sum();
            let (received, stats) = run_stream(script, *loss_permille, *seed);
            let Some(received) = received else {
                return CaseOutcome::Fail("the stream stalled".into());
            };
            prop_assert_eq!(received.len(), total);
            let first_bad = received
                .iter()
                .enumerate()
                .position(|(i, &b)| b != stream_byte(i));
            prop_assert_eq!(first_bad, None);
            let (again, stats_again) = run_stream(script, *loss_permille, *seed);
            prop_assert!(
                again.as_ref() == Some(&received),
                "the stream differs between runs"
            );
            prop_assert_eq!(stats_again, stats);
            CaseOutcome::Pass
        },
    );
}

#[test]
fn send_vectored_framing_matches_encode_record() {
    check(
        "send_vectored_framing_matches_encode_record",
        |g| g.vec(1, 6, |g| g.bytes(0, 4096)),
        |msgs| {
            let sim = Sim::new();
            let (client, server) = tcp_pair(&sim, 0.0, 0);
            let expect: Vec<u8> = msgs.iter().flat_map(|m| encode_record(m)).collect();
            let total = expect.len();
            let reader = sim.spawn(async move {
                let conn = server.accept().await.expect("accept");
                let mut got = Vec::new();
                while got.len() < total {
                    conn.recv_into(&mut got).await.expect("stream open");
                }
                got
            });
            let msgs = msgs.clone();
            let got = sim.run_until(async move {
                let conn = client.connect().await.expect("connect");
                for m in &msgs {
                    conn.send_vectored(&[&record_marker(m.len()), m])
                        .expect("send");
                }
                reader.await
            });
            prop_assert!(got == expect, "framed stream differs from encode_record");
            CaseOutcome::Pass
        },
    );
}

// ---------------------------------------------------------------------
// Timer wheel vs the reference heap model.
// ---------------------------------------------------------------------

/// The executor's timer wheel must fire in exactly the order the old
/// `BinaryHeap<Reverse<(deadline, seq)>>` did — smallest deadline first,
/// ties by registration sequence — across interleaved pushes and pops at
/// wildly mixed time scales.
#[test]
fn timer_wheel_matches_reference_heap_order() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use nfsperf_sim::wheel::TimerWheel;

    // Each op: (kind, raw). kind 0 = pop; 1..4 = push with a delay whose
    // magnitude is `raw` shifted down by a generated amount, so delays
    // span from nanoseconds to most of the u64 clock and exercise every
    // wheel level (including cascades).
    check(
        "timer_wheel_matches_reference_heap_order",
        |g| {
            g.vec(0, 300, |g| {
                (g.u8_in(0, 4), g.any_u64() >> g.u32_in(0, 64))
            })
        },
        |ops: &Vec<(u8, u64)>| {
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for &(kind, raw) in ops {
                if kind == 0 {
                    // Pop from both; they must agree, including on empty.
                    match (wheel.pop(), heap.pop()) {
                        (None, None) => {}
                        (Some(e), Some(Reverse((deadline, s)))) => {
                            prop_assert_eq!((e.deadline, e.seq), (deadline, s));
                            prop_assert_eq!(e.payload, s);
                            now = deadline;
                        }
                        (w, h) => {
                            prop_assert!(
                                false,
                                "emptiness disagrees: wheel {:?} heap {:?}",
                                w.map(|e| (e.deadline, e.seq)),
                                h
                            );
                        }
                    }
                } else {
                    // New deadlines are strictly after `now`, as in the
                    // executor (sleeps have positive duration).
                    let deadline = now.saturating_add(1).saturating_add(raw);
                    wheel.push(deadline, seq, seq);
                    heap.push(Reverse((deadline, seq)));
                    seq += 1;
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            // Drain the rest; full order must match.
            while let Some(Reverse((deadline, s))) = heap.pop() {
                let e = wheel.pop().expect("wheel ran dry before the heap");
                prop_assert_eq!((e.deadline, e.seq), (deadline, s));
            }
            prop_assert!(wheel.pop().is_none());
            prop_assert!(wheel.is_empty());
            CaseOutcome::Pass
        },
    );
}
