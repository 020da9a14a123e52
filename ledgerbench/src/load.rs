//! The load phases: closed loop over pipelined `NetClient`s and serial
//! round trips through a `Router` (every run), and an open loop over
//! one raw `ctxpref2` connection (the traced run).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ctxpref_net::frame::{encode_frame, FrameDecoder};
use ctxpref_net::{codec, NetClient, NetClientConfig, Request, Response};
use ctxpref_router::{Router, RouterConfig, RouterError};

use crate::gen::{user_name, Kind, Op, OpGen, Universe};
use crate::spec::{CLOSED_CONNECTIONS, DEADLINE, PIPELINE_DEPTH, QUERY_K, TOPK_K};

/// Display attribute of every answer row.
pub const ATTR: &str = "name";

/// One acknowledged rescore, with the interval in which it took effect.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// User number.
    pub user: u32,
    /// Preference index.
    pub index: u16,
    /// The score written.
    pub score: f64,
    /// No later than the moment the request left the client.
    pub sent: Instant,
    /// When the acknowledgement arrived.
    pub acked: Instant,
}

/// A read answer kept for the oracle check: the op and its rows'
/// [`digest`], so that sampling costs the load generator no memory
/// that grows with the answers.
pub type Sample = (Op, Digest);

/// Row count and FNV-1a hash of an answer's (name, score) rows, in
/// order; scores hash by their bits.
pub type Digest = (usize, u64);

/// The [`Digest`] of `rows`.
pub fn digest<'a>(rows: impl IntoIterator<Item = (&'a str, f64)>) -> Digest {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for (name, score) in rows {
        for b in name
            .bytes()
            .chain([0xff])
            .chain(score.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    (n, h)
}

fn digest_rows(rows: &[ctxpref_net::AnswerRow]) -> Digest {
    digest(rows.iter().map(|r| (r.name.as_str(), r.score)))
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that errored, were shed, missed their deadline or never
    /// came back.
    pub failed: u64,
    /// Read latencies in µs, each with its op's scheduled (open loop)
    /// or actual send time, in s since the phase began.
    pub reads: Vec<(f64, f64)>,
    /// Write latencies in µs.
    pub writes: Vec<f64>,
    /// Acknowledged rescores.
    pub acks: Vec<Ack>,
    /// Sampled read answers.
    pub samples: Vec<Sample>,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(why);
        }
    }

    /// Fold another phase's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.acks.extend(other.acks);
        self.samples.extend(other.samples);
        for r in other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(r);
            }
        }
    }

    /// Account one response to `op`, sent at `sent`, answered at `now`.
    fn settle(
        &mut self,
        op: &Op,
        resp: Response,
        sent: Instant,
        now: Instant,
        since: f64,
        sample: bool,
    ) {
        let us = now.duration_since(sent).as_secs_f64() * 1e6;
        match (op.kind, resp) {
            (Kind::Rescore { index, score }, Response::Ok) => {
                self.writes.push(us);
                self.acks.push(Ack {
                    user: op.user,
                    index,
                    score,
                    sent,
                    acked: now,
                });
            }
            (Kind::TopK | Kind::Query, Response::Answer(a)) => {
                self.reads.push((us, since));
                if sample {
                    self.samples.push((*op, digest_rows(&a.rows)));
                }
            }
            (_, other) => self.fail(format!("{op:?} answered {other:?}")),
        }
    }
}

/// The wire request of `op`.
pub fn request(op: &Op, universe: &Universe) -> Request {
    let user = user_name(op.user);
    let state = || universe.names[op.state as usize].clone();
    let deadline_ms = DEADLINE.as_millis() as u64;
    match op.kind {
        Kind::TopK => Request::TopK {
            user,
            attr: ATTR.to_string(),
            k: TOPK_K,
            deadline_ms,
            state: state(),
        },
        Kind::Query => Request::Query {
            user,
            attr: ATTR.to_string(),
            k: QUERY_K,
            deadline_ms,
            state: state(),
        },
        Kind::Rescore { index, score } => Request::UpdateScore {
            user,
            index: usize::from(index),
            score,
        },
    }
}

/// Open loop: one sender thread sends op `i` at `start + offsets[i]`
/// whatever the server does, one receiver thread reads the answers off
/// the same connection. Latency runs from the *scheduled* send, so a
/// stall is charged to every op scheduled during it. Returns the tally
/// and how late (µs) the sender ran for each op.
pub fn open_loop(
    addr: &str,
    ops: &[Op],
    offsets: &[Duration],
    universe: &Universe,
    sample: &(dyn Fn(usize) -> bool + Sync),
) -> (Tally, Vec<f64>) {
    let frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            encode_frame(&codec::encode_request(i as u64 + 1, &request(op, universe)))
                .expect("benchmark requests fit a frame")
        })
        .collect();
    let mut tx = TcpStream::connect(addr).expect("connecting the open-loop client");
    tx.set_nodelay(true).expect("setting TCP_NODELAY");
    let mut rx = tx.try_clone().expect("cloning the open-loop socket");
    rx.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("setting the receive timeout");
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + offsets.last().copied().unwrap_or_default() + Duration::from_secs(5);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            // Every op already due goes out in one write: a sender that
            // woke late catches up in one syscall, not one per op.
            let mut late = Vec::with_capacity(ops.len());
            let mut burst = Vec::new();
            let mut i = 0;
            while i < frames.len() {
                let due = start + offsets[i];
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                burst.clear();
                while i < frames.len() && start + offsets[i] <= now {
                    late.push(now.duration_since(start + offsets[i]).as_secs_f64() * 1e6);
                    burst.extend_from_slice(&frames[i]);
                    i += 1;
                }
                if tx.write_all(&burst).is_err() {
                    break;
                }
            }
            late
        });
        let mut tally = Tally {
            attempted: ops.len() as u64,
            ..Tally::default()
        };
        let mut answered = vec![false; ops.len()];
        let mut left = ops.len();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 1 << 16];
        while left > 0 && Instant::now() < give_up {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => dec.extend(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(_) => break,
            }
            while let Ok(Some(payload)) = dec.next_frame() {
                let now = Instant::now();
                let Ok(wire) = codec::decode_response(&payload) else {
                    tally.fail("undecodable response".to_string());
                    continue;
                };
                let i = wire.id.wrapping_sub(1) as usize;
                if i >= ops.len() || answered[i] {
                    tally.fail(format!("unexpected response id {}", wire.id));
                    continue;
                }
                answered[i] = true;
                left -= 1;
                tally.settle(
                    &ops[i],
                    wire.resp,
                    start + offsets[i],
                    now,
                    offsets[i].as_secs_f64(),
                    sample(i),
                );
            }
        }
        for _ in 0..left {
            tally.fail("no response before the drain deadline".to_string());
        }
        let _ = rx.shutdown(std::net::Shutdown::Both);
        let late = sender.join().expect("the open-loop sender never panics");
        (tally, late)
    })
}

/// Closed loop: [`CLOSED_CONNECTIONS`] threads, each with its own
/// connection, keep [`PIPELINE_DEPTH`] requests in flight for
/// `window`. Returns the tally and the completed ops per second.
pub fn closed_loop(
    addr: &str,
    gens: Vec<OpGen>,
    universe: &Universe,
    window: Duration,
    sample: &(dyn Fn(usize) -> bool + Sync),
) -> (Tally, f64) {
    assert_eq!(gens.len(), CLOSED_CONNECTIONS);
    let total = Mutex::new(Tally::default());
    let start = Instant::now();
    let ends = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(c, mut gen)| {
                let total = &total;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, NetClientConfig::default());
                    let mut tally = Tally::default();
                    let mut n = 0usize;
                    while start.elapsed() < window {
                        let ops: Vec<Op> = (0..PIPELINE_DEPTH).map(|_| gen.next_op()).collect();
                        let reqs: Vec<Request> =
                            ops.iter().map(|op| request(op, universe)).collect();
                        let sent = Instant::now();
                        tally.attempted += ops.len() as u64;
                        match client.pipeline(&reqs) {
                            Ok(resps) if resps.len() == ops.len() => {
                                let now = Instant::now();
                                for (op, resp) in ops.iter().zip(resps) {
                                    let s = sample(n * CLOSED_CONNECTIONS + c);
                                    n += 1;
                                    tally.settle(
                                        op,
                                        resp,
                                        sent,
                                        now,
                                        sent.duration_since(start).as_secs_f64(),
                                        s,
                                    );
                                }
                            }
                            Ok(resps) => {
                                for _ in 0..ops.len() {
                                    tally.fail(format!("{} responses to a burst", resps.len()));
                                }
                            }
                            Err(e) => {
                                for _ in 0..ops.len() {
                                    tally.fail(format!("pipeline failed: {e}"));
                                }
                            }
                        }
                    }
                    let end = Instant::now();
                    total.lock().expect("no tally holder panics").absorb(tally);
                    end
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop clients never panic"))
            .collect::<Vec<_>>()
    });
    let end = ends.into_iter().max().unwrap_or(start);
    let tally = total.into_inner().expect("no tally holder panics");
    let done = (tally.attempted - tally.failed) as f64;
    (tally, done / end.duration_since(start).as_secs_f64())
}

/// One routed call of `op`, returning the digest of a read's rows.
pub fn routed(
    router: &mut Router,
    op: &Op,
    universe: &Universe,
) -> Result<Option<Digest>, RouterError> {
    let user = user_name(op.user);
    let state = universe.refs(op.state as usize);
    match op.kind {
        Kind::TopK => router
            .query_topk(&user, ATTR, TOPK_K, DEADLINE, &state)
            .map(|a| Some(digest_rows(&a.rows))),
        Kind::Query => router
            .query(&user, ATTR, QUERY_K, DEADLINE, &state)
            .map(|a| Some(digest_rows(&a.rows))),
        Kind::Rescore { index, score } => router
            .update_score(&user, usize::from(index), score)
            .map(|()| None),
    }
}

/// A router over the single cluster at `addr`.
pub fn router(addr: &str) -> Router {
    Router::new(vec![vec![addr.to_string()]], RouterConfig::default())
}

/// Serial: one request in flight through a `Router`, `next` ops at a
/// time until `window` has passed and at least `min_ops` were sent.
pub fn serial(
    addr: &str,
    next: &mut dyn FnMut() -> Op,
    universe: &Universe,
    window: Duration,
    min_ops: usize,
    sample: &dyn Fn(usize) -> bool,
) -> Tally {
    let mut router = router(addr);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window || i < min_ops {
        let op = next();
        tally.attempted += 1;
        let sent = Instant::now();
        let result = routed(&mut router, &op, universe);
        let now = Instant::now();
        match result {
            Ok(Some(rows)) => {
                tally.reads.push((
                    now.duration_since(sent).as_secs_f64() * 1e6,
                    sent.duration_since(start).as_secs_f64(),
                ));
                if sample(i) {
                    tally.samples.push((op, rows));
                }
            }
            Ok(None) => tally.settle(&op, Response::Ok, sent, now, 0.0, false),
            Err(e) => tally.fail(format!("{op:?} failed: {e}")),
        }
        i += 1;
    }
    tally
}
