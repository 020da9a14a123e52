//! The TCP front-end: an event-driven, pipelined [`NetServer`] in
//! front of a shared [`CtxPrefService`].
//!
//! One **reactor thread** owns every socket: a hand-rolled epoll loop
//! ([`crate::reactor`]) with nonblocking reads/writes and a
//! per-connection state machine (incremental frame decoder, pending
//! output queue, idle clock). A decoded request leaves the reactor by
//! one of two paths, and no thread ever blocks on a peer:
//!
//! * **Queries** — `ctxpref2` `Query` and `TopK` frames — take one
//!   dispatch stage. The reactor decodes the request, parses the state,
//!   clamps the deadline, and submits an owned job straight to the
//!   service queue ([`CtxPrefService::submit_with`]). The service
//!   worker that runs the job renders the rows, encodes the response
//!   frame, pushes it onto the reactor's completion queue, and wakes
//!   the reactor.
//! * **Blocking verbs** — mutations, admin and migration steps, and
//!   batches — go to a small worker pool ([`NetServerConfig::workers`])
//!   that calls the service's blocking API. A quorum-acked write holds
//!   its thread for a replication round trip; on this pool it cannot
//!   hold a query worker. A payload that does not decode goes there
//!   too, and is answered with a typed `proto` error under its request
//!   id, or under id 0 when even the header is unreadable.
//!
//! Responsibilities, and where each is enforced:
//!
//! * **Connection admission** — a hard cap on concurrent connections.
//!   A connection over the cap receives one typed [`Response::Busy`]
//!   frame under id 0 — the id no request carries, so the client reads
//!   it as a connection-level refusal — and is closed, never parked on
//!   an unbounded queue.
//! * **Pipelining** — a connection may have up to
//!   [`NetServerConfig::max_pipeline`] requests in flight; responses
//!   carry the request's id and may return **out of order**. Past the
//!   cap the reactor simply stops reading the socket — backpressure
//!   by TCP, not by queue growth. It also stops while one of the
//!   connection's queries is in the service and the service's
//!   admission is full, so a pipelined burst waits rather than being
//!   shed; a connection's first query is always offered to admission.
//! * **Deadlines** — an idle connection (no bytes either way for
//!   [`NetServerConfig::read_timeout`], or output unwritable for
//!   [`NetServerConfig::write_timeout`]) is closed by the reactor's
//!   sweep. A query's deadline is the tightest of the request's own
//!   ask, the envelope's remaining budget, and
//!   [`NetServerConfig::max_deadline`]. The reactor owns it: a timer
//!   heap drives the epoll timeout, and when the deadline passes the
//!   reactor cancels the job ([`CtxPrefService::cancel`]) and answers
//!   the typed `deadline` error.
//! * **Panic isolation** — blocking dispatch runs under `catch_unwind`
//!   in the pool, and a query's rendering under `catch_unwind` on the
//!   service worker; a panicking request answers with a typed error.
//! * **Graceful drain** — [`NetServer::shutdown`] stops accepting,
//!   lets in-flight requests finish (bounded by the drain timeout),
//!   and returns how many connections had to be cut.
//!
//! Socket-option failures on accept (`set_nonblocking`, `set_nodelay`)
//! close that connection and are counted in [`NetServer::net_stats`] —
//! the old server dropped these errors on the floor, and a connection
//! whose options silently failed to apply could hang a worker.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::{CoreError, ShardedMultiUserDb};
use ctxpref_faults::sites::{
    NET_ACCEPT, NET_CONN_DELAY, NET_CONN_DROP, NET_FRAME_READ, NET_FRAME_WRITE,
};
use ctxpref_faults::{delay_of, hit, hit_io};
use ctxpref_service::{
    CtxPrefService, Priority, QueryJob, ReplicationError, ServiceAnswer, ServiceError, Ticket,
};

use crate::codec::{self, WireRequest};
use crate::frame::{encode_frame, FrameDecoder};
use crate::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};
use crate::reactor::{Epoll, Interest, Slab, Token, Waker};

/// Tuning knobs of the TCP front-end.
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Concurrent-connection cap. Connection `max_connections + 1`
    /// gets a typed busy frame and is closed.
    pub max_connections: usize,
    /// Idle timeout: how long a connection may sit with no traffic in
    /// either direction before the reactor reclaims it.
    pub read_timeout: Duration,
    /// Write-stall timeout: how long queued output may sit unwritable
    /// (peer not reading) before the connection is cut.
    pub write_timeout: Duration,
    /// Upper bound on the per-query deadline a client may request.
    pub max_deadline: Duration,
    /// How long [`NetServer::shutdown`] waits for in-flight
    /// connections to finish before cutting them.
    pub drain_timeout: Duration,
    /// Per-connection cap on pipelined in-flight requests (binary
    /// protocol). Past it the reactor stops reading the socket until
    /// completions drain — backpressure by TCP.
    pub max_pipeline: usize,
    /// Threads of the pool that runs blocking verbs: mutations, admin
    /// and migration steps, batches, and the typed refusal of a payload
    /// that does not decode. Queries do not use it; they go straight to
    /// the service's own workers.
    pub workers: usize,
    /// The retry hint attached to a connection-admission busy frame
    /// (request-level sheds carry the service's live sojourn-derived
    /// hint instead).
    pub busy_retry_after: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_deadline: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            max_pipeline: 128,
            workers: 4,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// Counters of the serving front-end, exposed via
/// [`NetServer::net_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and admitted.
    pub accepted: usize,
    /// Connections refused with a typed busy frame.
    pub refused_busy: usize,
    /// Connections closed because a socket option failed to apply on
    /// accept (`set_nonblocking`/`set_nodelay`). The old server
    /// swallowed these errors with `let _ =`.
    pub sockopt_failures: usize,
    /// Request frames decoded off sockets.
    pub frames_in: usize,
    /// Response frames written.
    pub frames_out: usize,
}

#[derive(Debug, Default)]
struct StatsCells {
    accepted: AtomicUsize,
    refused_busy: AtomicUsize,
    sockopt_failures: AtomicUsize,
    frames_in: AtomicUsize,
    frames_out: AtomicUsize,
}

impl StatsCells {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Acquire),
            refused_busy: self.refused_busy.load(Ordering::Acquire),
            sockopt_failures: self.sockopt_failures.load(Ordering::Acquire),
            frames_in: self.frames_in.load(Ordering::Acquire),
            frames_out: self.frames_out.load(Ordering::Acquire),
        }
    }
}

/// A running TCP server in front of one shared service.
pub struct NetServer {
    addr: SocketAddr,
    cfg: NetServerConfig,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    undrained: Arc<AtomicUsize>,
    stats: Arc<StatsCells>,
    waker: Arc<Waker>,
    reactor_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("active", &self.active.load(Ordering::Acquire))
            .field("config", &self.cfg)
            .finish()
    }
}

/// One request frame handed to the blocking-verb pool.
struct Job {
    token: Token,
    payload: Vec<u8>,
    /// Injected link stall (`net.conn.delay`), slept by the pool worker
    /// before it dispatches.
    stall: Option<Duration>,
}

/// One finished response on its way back to the reactor.
struct Completion {
    token: Token,
    /// The query this answers (see [`Pending`]); `None` for a pool job.
    key: Option<u64>,
    /// The encoded frame, header included; `None` if the response could
    /// not be framed, which closes the connection.
    frame: Option<Vec<u8>>,
}

/// The reactor's completion queue, shared with everything that answers
/// into it.
#[derive(Clone)]
struct Completions {
    queue: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
}

impl Completions {
    fn push(&self, completion: Completion) {
        // Wake the reactor only on the empty→nonempty transition: the
        // reactor drains the whole queue per wake, so a completion
        // pushed behind an undrained one already has a wake pending.
        // The push and the emptiness check share the mutex, so any
        // drain that could consume the pending wake must also collect
        // this completion.
        let needs_wake = match self.queue.lock() {
            Ok(mut queue) => {
                let was_empty = queue.is_empty();
                queue.push(completion);
                was_empty
            }
            Err(_) => true,
        };
        if needs_wake {
            self.waker.wake();
        }
    }
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<CtxPrefService>,
        cfg: NetServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);

        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let undrained = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(StatsCells::default());
        let completions = Completions {
            queue: Arc::new(Mutex::new(Vec::new())),
            waker: Arc::clone(&waker),
        };

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut worker_threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let service = Arc::clone(&service);
            let job_rx = Arc::clone(&job_rx);
            let completions = completions.clone();
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("ctxpref-net-worker-{i}"))
                    .spawn(move || worker_loop(&service, &cfg, &job_rx, &completions))?,
            );
        }

        let reactor_thread = {
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let undrained = Arc::clone(&undrained);
            let stats = Arc::clone(&stats);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name(format!("ctxpref-net-reactor-{}", addr.port()))
                .spawn(move || {
                    Reactor {
                        listener: Some(listener),
                        epoll,
                        waker,
                        cfg,
                        conns: Slab::new(),
                        shutdown,
                        active,
                        undrained,
                        stats,
                        job_tx,
                        service,
                        completions,
                        drained: Vec::new(),
                        timers: BinaryHeap::new(),
                        next_key: 0,
                        drain_deadline: None,
                    }
                    .run()
                })?
        };

        Ok(Self {
            addr,
            cfg,
            shutdown,
            active,
            undrained,
            stats,
            waker,
            reactor_thread: Some(reactor_thread),
            worker_threads,
        })
    }

    /// The address the server is actually listening on (resolves an
    /// ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Front-end counters (accepts, busy refusals, socket-option
    /// failures, frames in/out).
    pub fn net_stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// (bounded by the configured drain timeout), and return how many
    /// connections had to be cut un-drained (0 on a clean drain).
    pub fn shutdown(mut self) -> usize {
        self.begin_shutdown();
        self.undrained.load(Ordering::Acquire)
    }

    fn begin_shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // The reactor exiting dropped the job sender; workers see the
        // channel close and stop.
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::Acquire) {
            self.begin_shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(
    service: &Arc<CtxPrefService>,
    cfg: &NetServerConfig,
    jobs: &Mutex<Receiver<Job>>,
    completions: &Completions,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the work.
        let job = match jobs.lock() {
            Ok(rx) => match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
            Err(_) => return,
        };
        if let Some(stall) = job.stall {
            std::thread::sleep(stall);
        }
        let payload = match codec::decode_request(&job.payload) {
            Ok(wire) => codec::encode_response(
                wire.id,
                &dispatch(service, cfg, &wire.req, wire.budget_ms, wire.tier),
            ),
            Err(e) => {
                // The body was malformed but the header may still name
                // the request — answer typed under its id so the
                // pipelined client can match the refusal. Without one
                // (not a `ctxpref2` payload at all) the refusal is
                // connection-level: id 0.
                let id = codec::request_id_of(&job.payload).unwrap_or(0);
                codec::encode_response(id, &proto_err(e))
            }
        };
        completions.push(Completion {
            token: job.token,
            key: None,
            frame: encode_frame(&payload).ok(),
        });
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded frames (header included) awaiting the socket, plus the
    /// write offset into the front one.
    out: VecDeque<Vec<u8>>,
    out_pos: usize,
    /// Dispatched-but-unanswered requests.
    in_flight: usize,
    /// The queries among them, which the reactor answers itself.
    pending: Vec<Pending>,
    last_activity: Instant,
    /// Output has been unwritable since this instant (write stall).
    write_stalled_since: Option<Instant>,
    /// Close once the output queue drains.
    closing: bool,
    /// Reading paused while the service is full (see `pump_frames`).
    paused: bool,
    registered: Interest,
}

/// A query submitted straight to the service, until its answer leaves.
struct Pending {
    /// Reactor-assigned, unique per server: matches a completion or a
    /// timer to this entry. A completion whose key is gone (the
    /// deadline answered first) is dropped.
    key: u64,
    /// The client's request id, for the `deadline` answer.
    id: u64,
    /// Injected link stall (`net.conn.delay`): the answer waits this
    /// long on the reactor's timer before it leaves.
    stall: Option<Duration>,
    stage: Stage,
}

enum Stage {
    /// In the service; cancelled at the ticket's deadline.
    Submitted(Ticket),
    /// Answered; the frame leaves at the instant.
    Held(Instant, Option<Vec<u8>>),
}

impl Pending {
    /// When this entry's timer is due.
    fn due(&self) -> Instant {
        match &self.stage {
            Stage::Submitted(ticket) => ticket.deadline(),
            Stage::Held(at, _) => *at,
        }
    }
}

impl Conn {
    fn desired_interest(&self, cfg: &NetServerConfig) -> Interest {
        let wants_read = !self.closing && !self.paused && self.in_flight < cfg.max_pipeline;
        let wants_write = !self.out.is_empty();
        match (wants_read, wants_write) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            // epoll needs *some* registration; an interest-less wait
            // still surfaces errors/hangups for reclamation.
            (false, false) => Interest::WRITABLE,
        }
    }
}

struct Reactor {
    listener: Option<TcpListener>,
    epoll: Epoll,
    waker: Arc<Waker>,
    cfg: NetServerConfig,
    conns: Slab<Conn>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    undrained: Arc<AtomicUsize>,
    stats: Arc<StatsCells>,
    job_tx: Sender<Job>,
    service: Arc<CtxPrefService>,
    completions: Completions,
    /// The drained completion batch (kept for its capacity).
    drained: Vec<Completion>,
    /// Query deadlines and held answers, earliest first, as
    /// `(due, token, key)`. Entries go stale when their query is
    /// answered; stale ones are skipped.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_key: u64,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .epoll
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
                .is_err()
            {
                return;
            }
        }
        if self
            .epoll
            .register(self.waker.reader_fd(), WAKER_TOKEN, Interest::READABLE)
            .is_err()
        {
            return;
        }

        let mut events = Vec::with_capacity(1024);
        let mut last_sweep = Instant::now();
        loop {
            events.clear();
            // A bounded tick so idle sweeps and the shutdown flag are
            // observed even on a silent socket set; sooner when a query
            // deadline or a held answer falls due.
            let tick = Duration::from_millis(100);
            let timeout = self.next_timer().map_or(tick, |at| {
                at.saturating_duration_since(Instant::now()).min(tick)
            });
            let _ = self.epoll.wait(&mut events, Some(timeout));

            for ev in events.iter().copied() {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    raw => {
                        let token = Token(raw);
                        if ev.hangup && !ev.readable {
                            self.close(token, false);
                            continue;
                        }
                        if ev.readable {
                            self.read_ready(token);
                        }
                        if ev.writable {
                            self.write_ready(token);
                        }
                        self.refresh_interest(token);
                    }
                }
            }

            self.drain_completions();

            let now = Instant::now();
            self.fire_timers(now);
            if now.duration_since(last_sweep) >= Duration::from_millis(500) {
                last_sweep = now;
                self.sweep_idle(now);
            }

            if self.shutdown.load(Ordering::Acquire) && self.step_shutdown(now) {
                return;
            }
        }
    }

    /// Progress the graceful drain; true when the reactor should exit.
    fn step_shutdown(&mut self, now: Instant) -> bool {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.deregister(listener.as_raw_fd());
            drop(listener);
            self.drain_deadline = Some(now + self.cfg.drain_timeout);
        }
        // Close everything with no work in flight and nothing queued.
        for token in self.conns.tokens() {
            let idle = self
                .conns
                .get_mut(token)
                .map(|c| c.in_flight == 0 && c.out.is_empty())
                .unwrap_or(true);
            if idle {
                self.close(token, false);
            }
        }
        if self.conns.is_empty() {
            return true;
        }
        if self.drain_deadline.is_some_and(|d| now >= d) {
            // Drain window over: cut the stragglers and report them.
            let leftover = self.conns.len();
            self.undrained.store(leftover, Ordering::Release);
            for token in self.conns.tokens() {
                self.close(token, false);
            }
            return true;
        }
        false
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let (stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Injected accept failure: the connection is refused, the
            // listener stays up.
            if hit(NET_ACCEPT).is_err() {
                continue;
            }
            if self.conns.len() >= self.cfg.max_connections {
                self.stats.refused_busy.fetch_add(1, Ordering::AcqRel);
                // Best-effort typed refusal under the connection-level
                // id 0, then close. The socket is fresh, so the small
                // frame fits the send buffer.
                let busy = Response::Busy {
                    limit: self.cfg.max_connections,
                    retry_after_ms: self.cfg.busy_retry_after.as_millis() as u64,
                };
                if let Ok(frame) = encode_frame(&codec::encode_response(0, &busy)) {
                    let mut stream = stream;
                    let _ = stream.write_all(&frame);
                }
                continue;
            }
            // Socket options are load-bearing (a blocking fd would
            // wedge the whole reactor): a failure closes the
            // connection and is counted, not ignored.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.stats.sockopt_failures.fetch_add(1, Ordering::AcqRel);
                continue;
            }
            let fd = stream.as_raw_fd();
            let token = self.conns.insert(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: VecDeque::new(),
                out_pos: 0,
                in_flight: 0,
                pending: Vec::new(),
                last_activity: Instant::now(),
                write_stalled_since: None,
                closing: false,
                paused: false,
                registered: Interest::READABLE,
            });
            if self
                .epoll
                .register(fd, token.0, Interest::READABLE)
                .is_err()
            {
                self.conns.remove(token);
                continue;
            }
            self.stats.accepted.fetch_add(1, Ordering::AcqRel);
            self.active.store(self.conns.len(), Ordering::Release);
        }
    }

    fn read_ready(&mut self, token: Token) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.closing || conn.paused || conn.in_flight >= self.cfg.max_pipeline {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer closed. Anything still in flight finishes
                    // into a dead socket; reclaim now.
                    self.close(token, false);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&buf[..n]);
                    // A short read drained the socket: skip the read
                    // that would only say WouldBlock. Level-triggered
                    // epoll reports anything that arrives later.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, false);
                    return;
                }
            }
        }
        self.pump_frames(token);
        // Refusals answered on the spot leave now.
        self.write_ready(token);
    }

    /// Drain complete frames from the connection's decoder into
    /// dispatch, respecting the pipeline cap.
    fn pump_frames(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.closing || conn.in_flight >= self.cfg.max_pipeline {
                return;
            }
            // A pipelining connection never overruns the service: while
            // one of its queries is in the service and admission is
            // full, its next frames wait in the socket — backpressure by
            // TCP, like the pipeline cap — instead of being shed. A
            // connection's first query is always offered to admission,
            // so the backstop still sheds under many-connection
            // overload. The pending query's answer resumes the pump.
            conn.paused = !conn.pending.is_empty()
                && self.service.in_flight() >= self.service.config().max_in_flight;
            if conn.paused {
                return;
            }
            let payload = match conn.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(e) => {
                    // Torn/hostile framing: answer typed, under the
                    // connection-level id 0, where the socket still
                    // works, then close (the stream is misaligned
                    // beyond recovery).
                    let refusal = Response::Err {
                        kind: "frame".to_string(),
                        message: e.to_string(),
                    };
                    self.enqueue(
                        token,
                        encode_frame(&codec::encode_response(0, &refusal)).ok(),
                    );
                    self.write_ready(token);
                    self.shutdown_after_flush(token);
                    return;
                }
            };
            // The per-frame fault gauntlet the blocking server ran
            // inside `read_frame`: an injected read fault or
            // connection drop severs the conversation here too.
            if hit_io(NET_FRAME_READ).is_err() || hit(NET_CONN_DROP).is_err() {
                self.close(token, false);
                return;
            }
            self.stats.frames_in.fetch_add(1, Ordering::AcqRel);
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.in_flight += 1;
            if codec::is_query_request(&payload) {
                if let Ok(wire) = codec::decode_request(&payload) {
                    self.submit_query(token, wire);
                    continue;
                }
            }
            self.dispatch_blocking(token, payload);
        }
    }

    /// Hand a frame to the blocking-verb pool. The link-stall decision
    /// is made here, in frame order, and slept by the pool worker.
    fn dispatch_blocking(&self, token: Token, payload: Vec<u8>) {
        let _ = self.job_tx.send(Job {
            token,
            payload,
            stall: delay_of(NET_CONN_DELAY),
        });
    }

    /// Submit a decoded query straight to the service. Refusals that
    /// need no worker (a bad state, a shed) are answered on the spot.
    fn submit_query(&mut self, token: Token, wire: WireRequest) {
        let stall = delay_of(NET_CONN_DELAY);
        let (id, key) = (wire.id, self.next_key);
        self.next_key += 1;
        let refusal = match query_job(
            &self.service,
            &self.cfg,
            wire.req,
            wire.budget_ms,
            wire.tier,
        ) {
            Ok((job, attr, k)) => {
                let completions = self.completions.clone();
                let done = Box::new(
                    move |result: Result<ServiceAnswer, ServiceError>, db: &ShardedMultiUserDb| {
                        let resp = catch_unwind(AssertUnwindSafe(|| {
                            answer_response(db, result, &attr, k)
                        }))
                        .unwrap_or_else(|_| panic_response());
                        completions.push(Completion {
                            token,
                            key: Some(key),
                            frame: encode_frame(&codec::encode_response(id, &resp)).ok(),
                        });
                    },
                );
                match self.service.submit_with(job, done) {
                    Ok(ticket) => {
                        self.track(token, key, id, stall, Stage::Submitted(ticket));
                        return;
                    }
                    Err(e) => err_of(&e),
                }
            }
            Err(refusal) => refusal,
        };
        let frame = encode_frame(&codec::encode_response(id, &refusal)).ok();
        match stall {
            Some(stall) => {
                let at = Instant::now() + stall;
                self.track(token, key, id, None, Stage::Held(at, frame));
            }
            None => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.in_flight -= 1;
                }
                self.enqueue(token, frame);
            }
        }
    }

    fn track(&mut self, token: Token, key: u64, id: u64, stall: Option<Duration>, stage: Stage) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let pending = Pending {
            key,
            id,
            stall,
            stage,
        };
        self.timers.push(Reverse((pending.due(), token.0, key)));
        conn.pending.push(pending);
    }

    /// A query's answer is in: send it, or hold it for an injected
    /// stall. A late answer — its entry already answered — is dropped.
    fn finish(&mut self, token: Token, key: u64, frame: Option<Vec<u8>>) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Some(i) = conn.pending.iter().position(|p| p.key == key) else {
            return;
        };
        if let Some(stall) = conn.pending[i].stall.take() {
            let at = Instant::now() + stall;
            conn.pending[i].stage = Stage::Held(at, frame);
            self.timers.push(Reverse((at, token.0, key)));
            return;
        }
        conn.pending.swap_remove(i);
        conn.in_flight -= 1;
        self.enqueue(token, frame);
    }

    /// The earliest live timer, dropping stale ones off the top.
    fn next_timer(&mut self) -> Option<Instant> {
        while let Some(&Reverse((at, token, key))) = self.timers.peek() {
            let live = self
                .conns
                .get_mut(Token(token))
                .is_some_and(|c| c.pending.iter().any(|p| p.key == key && p.due() == at));
            if live {
                return Some(at);
            }
            self.timers.pop();
        }
        None
    }

    /// Act on every timer due by `now`: a query past its deadline is
    /// cancelled and answered `deadline`, a held answer leaves.
    fn fire_timers(&mut self, now: Instant) {
        let mut touched: Vec<Token> = Vec::new();
        while let Some(at) = self.next_timer() {
            if at > now {
                break;
            }
            let Some(Reverse((_, raw, key))) = self.timers.pop() else {
                break;
            };
            let token = Token(raw);
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            let Some(i) = conn.pending.iter().position(|p| p.key == key) else {
                continue;
            };
            let id = conn.pending[i].id;
            if let Stage::Submitted(ticket) = conn.pending[i].stage {
                // A lost cancel means a worker settled the query first:
                // its completion is already on the way.
                if self.service.cancel(ticket) {
                    let resp = err_of(&ticket.expired());
                    let frame = encode_frame(&codec::encode_response(id, &resp)).ok();
                    self.finish(token, key, frame);
                }
            } else if let Stage::Held(_, frame) = conn.pending.swap_remove(i).stage {
                conn.in_flight -= 1;
                self.enqueue(token, frame);
            }
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        for token in touched {
            self.pump_frames(token);
            self.write_ready(token);
            self.refresh_interest(token);
        }
    }

    fn drain_completions(&mut self) {
        match self.completions.queue.lock() {
            Ok(mut queue) => std::mem::swap(&mut *queue, &mut self.drained),
            Err(_) => return,
        }
        let mut done = std::mem::take(&mut self.drained);
        let mut touched: Vec<Token> = Vec::new();
        for comp in done.drain(..) {
            let token = comp.token;
            match comp.key {
                Some(key) => self.finish(token, key, comp.frame),
                None => {
                    let Some(conn) = self.conns.get_mut(token) else {
                        continue;
                    };
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                    self.enqueue(token, comp.frame);
                }
            }
            // Freed pipeline budget: frames may be waiting, parsed,
            // in the decoder.
            self.pump_frames(token);
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        self.drained = done;
        // Flush once per connection rather than once per completion:
        // responses that completed together leave together.
        for token in touched {
            self.write_ready(token);
            self.refresh_interest(token);
        }
    }

    /// Queue one encoded response frame (`None`: it could not be
    /// framed, and the connection closes). The caller flushes
    /// (`write_ready`) once it has enqueued everything it has for the
    /// connection.
    fn enqueue(&mut self, token: Token, frame: Option<Vec<u8>>) {
        // The per-frame write fault site the blocking server ran
        // inside `write_frame`.
        if hit_io(NET_FRAME_WRITE).is_err() {
            self.close(token, false);
            return;
        }
        let Some(frame) = frame else {
            self.close(token, false);
            return;
        };
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        conn.out.push_back(frame);
        self.stats.frames_out.fetch_add(1, Ordering::AcqRel);
    }

    fn write_ready(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.out.is_empty() {
                conn.write_stalled_since = None;
                break;
            }
            // Coalesce every queued frame into one vectored write: a
            // pipelined burst's responses leave as one syscall, not
            // one each.
            let res = {
                let mut slices: Vec<std::io::IoSlice<'_>> =
                    Vec::with_capacity(conn.out.len().min(64));
                let mut frames = conn.out.iter();
                if let Some(front) = frames.next() {
                    slices.push(std::io::IoSlice::new(&front[conn.out_pos..]));
                    slices.extend(frames.take(63).map(|f| std::io::IoSlice::new(f)));
                }
                conn.stream.write_vectored(&slices)
            };
            match res {
                Ok(0) => {
                    self.close(token, false);
                    return;
                }
                Ok(mut n) => {
                    conn.last_activity = Instant::now();
                    conn.write_stalled_since = None;
                    while n > 0 {
                        let Some(front) = conn.out.front() else { break };
                        let rem = front.len() - conn.out_pos;
                        if n >= rem {
                            n -= rem;
                            conn.out.pop_front();
                            conn.out_pos = 0;
                        } else {
                            conn.out_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.write_stalled_since.is_none() {
                        conn.write_stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, false);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.closing && conn.out.is_empty() && conn.in_flight == 0 {
            self.close(token, false);
        }
    }

    /// Mark a connection to close once queued output flushes.
    fn shutdown_after_flush(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(token) {
            conn.closing = true;
            if conn.out.is_empty() && conn.in_flight == 0 {
                self.close(token, false);
            }
        }
    }

    fn refresh_interest(&mut self, token: Token) {
        let cfg = self.cfg;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let desired = conn.desired_interest(&cfg);
        if desired != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if self.epoll.reregister(fd, token.0, desired).is_ok() {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.registered = desired;
                }
            }
        }
    }

    fn sweep_idle(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            let idle_too_long = conn.in_flight == 0
                && conn.out.is_empty()
                && now.duration_since(conn.last_activity) >= self.cfg.read_timeout;
            let write_wedged = conn
                .write_stalled_since
                .is_some_and(|since| now.duration_since(since) >= self.cfg.write_timeout);
            if idle_too_long || write_wedged {
                self.close(token, false);
            }
        }
    }

    fn close(&mut self, token: Token, _flush: bool) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.epoll.deregister(conn.stream.as_raw_fd());
            // Dropping the stream closes the fd; in-flight worker
            // completions for this token die against the slab's
            // generation check instead of reaching a reused slot.
        }
        self.active.store(self.conns.len(), Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Execute one request against the service, with panics contained.
/// `budget_ms` and `tier` come off the `ctxpref2` envelope: the
/// remaining end-to-end deadline budget (0 = unconstrained) that
/// clamps every query deadline, and the priority tier admission sheds
/// by.
fn dispatch(
    service: &Arc<CtxPrefService>,
    cfg: &NetServerConfig,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
) -> Response {
    match catch_unwind(AssertUnwindSafe(|| {
        dispatch_inner(service, cfg, req, budget_ms, tier)
    })) {
        Ok(resp) => resp,
        Err(_) => panic_response(),
    }
}

fn panic_response() -> Response {
    Response::Err {
        kind: "panic".to_string(),
        message: "request dispatch panicked (contained at the connection boundary)".to_string(),
    }
}

fn proto_err(e: impl std::fmt::Display) -> Response {
    Response::Err {
        kind: "proto".to_string(),
        message: e.to_string(),
    }
}

/// The "state → job" half of a query: the state names parsed against
/// the serving environment, and the deadline the tightest of the
/// request's own ask, the propagated remaining budget, and the server's
/// cap (a hop-decremented budget wins over a generous per-request
/// deadline). Returns the owned job plus the attribute and row count
/// the answer renders with, or the typed refusal.
fn query_job(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: Request,
    budget_ms: u64,
    tier: Priority,
) -> Result<(QueryJob, String, usize), Response> {
    let (user, attr, k, deadline_ms, state, topk) = match req {
        Request::Query {
            user,
            attr,
            k,
            deadline_ms,
            state,
        } => (user, attr, k, deadline_ms, state, None),
        Request::TopK {
            user,
            attr,
            k,
            deadline_ms,
            state,
        } => (user, attr, k, deadline_ms, state, Some(k)),
        other => return Err(proto_err(format!("not a query: {other:?}"))),
    };
    let names: Vec<&str> = state.iter().map(String::as_str).collect();
    let state = service
        .with_db(|db| ContextState::parse(db.env(), &names))
        .map_err(|e| err_of(&ServiceError::Core(CoreError::Context(e))))?;
    let mut deadline_ms = deadline_ms.max(1);
    if budget_ms > 0 {
        deadline_ms = deadline_ms.min(budget_ms);
    }
    let job = QueryJob {
        user,
        state,
        topk,
        deadline: Duration::from_millis(deadline_ms).min(cfg.max_deadline),
        tier,
    };
    Ok((job, attr, k))
}

/// The "answer → `Response`" half of a query: the top `k` rows (ties
/// kept) rendered by `attr`, with the rung, timing, and fallbacks.
fn answer_response(
    db: &ShardedMultiUserDb,
    result: Result<ServiceAnswer, ServiceError>,
    attr: &str,
    k: usize,
) -> Response {
    let answer = match result {
        Ok(a) => a,
        Err(e) => return err_of(&e),
    };
    let rows = match render_rows(db, &answer.answer, attr, k) {
        Ok(rows) => rows,
        Err(e) => return err_of(&ServiceError::Core(e)),
    };
    Response::Answer(RemoteAnswer {
        step: answer.step.to_string(),
        elapsed_us: answer.elapsed.as_micros() as u64,
        resolved_state: answer
            .resolved_state
            .as_ref()
            .map(|s| s.display(db.env()).to_string()),
        fallbacks: answer
            .fallbacks
            .into_iter()
            .map(|fb| WireFallback {
                step: fb.step.to_string(),
                reason: fb.reason,
            })
            .collect(),
        rows,
    })
}

fn dispatch_inner(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Query { .. } | Request::TopK { .. } => {
            match query_job(service, cfg, req.clone(), budget_ms, tier) {
                Ok((job, attr, k)) => {
                    let result = service.query_job(job);
                    service.with_db(|db| answer_response(db, result, &attr, k))
                }
                Err(refusal) => refusal,
            }
        }
        Request::ViewsStatus => Response::Text {
            body: service.views_status(),
        },
        Request::QueryDescriptor {
            user,
            attr,
            k,
            descriptor,
        } => {
            // The exploratory library path: a hypothetical context, not
            // a servable state lookup — no ladder, but still contained
            // and timed.
            let started = Instant::now();
            let answer = service.with_db(|db| {
                let ecod = ctxpref_context::parse_extended_descriptor(db.env(), descriptor)
                    .map_err(|e| ServiceError::Core(CoreError::Context(e)))?;
                db.query(user, &ecod).map_err(ServiceError::Core)
            });
            let answer = match answer {
                Ok(a) => a,
                Err(e) => return err_of(&e),
            };
            let rows = match service.with_db(|db| render_rows(db, &answer, attr, *k)) {
                Ok(rows) => rows,
                Err(e) => return err_of(&ServiceError::Core(e)),
            };
            Response::Answer(RemoteAnswer {
                step: "exact".to_string(),
                elapsed_us: started.elapsed().as_micros() as u64,
                resolved_state: None,
                fallbacks: Vec::new(),
                rows,
            })
        }
        Request::AddUser { user } => match service.add_user(user) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        Request::RemoveUser { user } => match service.remove_user(user) {
            Ok(_) => Response::Ok,
            Err(e) => err_of(&e),
        },
        Request::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } => match service.insert_preference_eq(
            user,
            descriptor,
            attr,
            value.as_str().into(),
            *score,
        ) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        Request::RemovePref { user, index } => match service.remove_preference(user, *index) {
            Ok(pref) => Response::Removed {
                score: pref.score(),
            },
            Err(e) => err_of(&e),
        },
        Request::UpdateScore { user, index, score } => {
            match service.update_preference_score(user, *index, *score) {
                Ok(()) => Response::Ok,
                Err(e) => err_of(&e),
            }
        }
        Request::Checkpoint => match service.checkpoint() {
            Ok(report) => Response::Text {
                body: format!(
                    "checkpoint generation {} written ({} user(s))",
                    report.generation, report.users
                ),
            },
            Err(e) => err_of(&e),
        },
        Request::FlushWal => match service.flush_wal() {
            Ok(n) => Response::Text {
                body: format!("flushed {n} pending record(s)"),
            },
            Err(e) => err_of(&e),
        },
        Request::WalStatus => match service.wal_status() {
            Ok(status) => {
                let mut body = format!(
                    "appends {}, group-commit batches {}, rotations {}\n",
                    status.appends, status.batches, status.rotations
                );
                for (i, s) in status.shards.iter().enumerate() {
                    body.push_str(&format!(
                        "shard {i}: segment {} ({} bytes), last lsn {}, synced lsn {}, pending {}{}\n",
                        s.seg_no,
                        s.seg_bytes,
                        s.last_lsn,
                        s.synced_lsn,
                        s.pending,
                        if s.poisoned { " POISONED" } else { "" }
                    ));
                }
                Response::Text { body }
            }
            Err(e) => err_of(&e),
        },
        Request::ReplStatus => match service.replication_status() {
            Ok(status) => {
                let mut body = format!(
                    "primary {}, epoch {}, max lag {} record(s)\n",
                    match status.primary {
                        Some(p) => format!("node {p}"),
                        None => "none (failover pending)".to_string(),
                    },
                    status.epoch,
                    status.max_lag
                );
                for n in &status.nodes {
                    body.push_str(&format!(
                        "node {}: {}{}, epoch {}, {} record(s) applied\n",
                        n.id,
                        if n.live { "live" } else { "down" },
                        if n.is_primary { " PRIMARY" } else { "" },
                        n.epoch,
                        n.applied
                    ));
                }
                Response::Text { body }
            }
            Err(e) => err_of(&e),
        },
        Request::Stats => {
            let s = service.stats();
            let mut body = format!(
                "served: {} view, {} cached, {} exact, {} nearest-state, {} default\n\
                 contained panics {}, deadline misses {}, shed {}, errors {}",
                s.served_view,
                s.served_cached,
                s.served_exact,
                s.served_nearest,
                s.served_default,
                s.panics_contained,
                s.deadline_exceeded,
                s.shed,
                s.errors
            );
            body.push_str(&format!(
                "\ncache: {} hits, {} misses, {} insertions, {} evictions, {} invalidations",
                s.cache_hits,
                s.cache_misses,
                s.cache_insertions,
                s.cache_evictions,
                s.cache_invalidations
            ));
            body.push_str(&format!(
                "\nviews: {} materialized, {} pinned, {} hits, {} misses, {} patches, {} rebuilds",
                s.materialized_views,
                s.pinned_views,
                s.view_hits,
                s.view_misses,
                s.view_patches,
                s.view_rebuilds
            ));
            body.push_str(&format!(
                "\nshed by reason: {} admission, {} sojourn, {} expired-at-dequeue\n\
                 shed by tier: {} interactive, {} bulk, {} maintenance",
                s.shed_admission,
                s.shed_sojourn,
                s.shed_expired,
                s.shed_interactive,
                s.shed_bulk,
                s.shed_maintenance
            ));
            for (site, hits) in &s.fault_hits {
                body.push_str(&format!("\nfault {site} {hits}"));
            }
            Response::Text { body }
        }
        Request::Scrub => match service.scrub() {
            Ok(report) => Response::ScrubReport {
                segments_verified: report.segments_verified,
                checkpoints_verified: report.checkpoints_verified,
                read_errors: report.read_errors,
                quarantined: report.quarantined.len() as u64,
                healed: report.healed,
            },
            Err(e) => err_of(&e),
        },
        Request::ScrubStatus => match service.scrub_status() {
            Ok(s) => Response::ScrubInfo {
                passes: s.passes,
                quarantined: s.quarantined,
                read_errors: s.read_errors,
                heals: s.heals,
                rescued_shards: s.rescued_shards,
                disk_full_sheds: s.disk_full_sheds,
                rotate_failures: s.rotate_failures,
            },
            Err(e) => err_of(&e),
        },
        Request::RouteStatus => {
            let info = service.route_info();
            Response::RouteInfo {
                has_primary: info.has_primary,
                epoch: info.epoch,
                users: info.users,
                migrations: info.migrations,
            }
        }
        Request::MigrateUser {
            user,
            epoch,
            action,
        } => dispatch_migrate(service, user, *epoch, action),
        Request::Batch { requests } => dispatch_batch(service, cfg, requests, budget_ms, tier),
    }
}

/// Execute a batch: items run in order, and execution stops at the
/// first failure (its typed response is the last element, and the
/// returned length tells the caller how far the batch got). Items
/// inherit the batch envelope's budget and tier.
fn dispatch_batch(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    requests: &[Request],
    budget_ms: u64,
    tier: Priority,
) -> Response {
    let mut responses = Vec::with_capacity(requests.len());
    // Homogeneous insert batches take the service's bulk verb: one
    // routing/guard acquisition for the whole batch instead of one
    // per preference.
    if let Some(bulk) = as_bulk_insert(requests) {
        let (user, items) = bulk;
        match service.insert_preferences_eq_bulk(user, &items) {
            Ok(applied) => {
                responses.resize(applied, Response::Ok);
            }
            Err(bulk_err) => {
                responses.resize(bulk_err.applied, Response::Ok);
                responses.push(err_of(&bulk_err.error));
            }
        }
        return Response::Batch { responses };
    }
    for sub in requests {
        if matches!(sub, Request::Batch { .. }) {
            responses.push(Response::Err {
                kind: "proto".to_string(),
                message: "batches do not nest".to_string(),
            });
            break;
        }
        let resp = dispatch_inner(service, cfg, sub, budget_ms, tier);
        let failed = matches!(
            resp,
            Response::Err { .. } | Response::NotPrimary | Response::Migrating { .. }
        );
        responses.push(resp);
        if failed {
            break;
        }
    }
    Response::Batch { responses }
}

/// If every item inserts a preference for one user, extract the bulk
/// shape the service's batched verb takes.
#[allow(clippy::type_complexity)]
fn as_bulk_insert(requests: &[Request]) -> Option<(&str, Vec<(&str, &str, &str, f64)>)> {
    if requests.is_empty() {
        return None;
    }
    let mut items = Vec::with_capacity(requests.len());
    let mut batch_user: Option<&str> = None;
    for sub in requests {
        let Request::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } = sub
        else {
            return None;
        };
        match batch_user {
            None => batch_user = Some(user),
            Some(u) if u == user => {}
            Some(_) => return None,
        }
        items.push((descriptor.as_str(), attr.as_str(), value.as_str(), *score));
    }
    batch_user.map(|u| (u, items))
}

/// Execute one migration step. Every step is idempotent (guarded by
/// the migration epoch and, for catch-up pages, the import watermark),
/// so a driver may blindly retry any of them over a fresh connection.
fn dispatch_migrate(
    service: &CtxPrefService,
    user: &str,
    epoch: u64,
    action: &MigrateAction,
) -> Response {
    match action {
        MigrateAction::Export => match service.migrate_export(user) {
            Ok(cut) => Response::UserCut {
                present: cut.present,
                shard: cut.shard,
                last_lsn: cut.last_lsn,
                digest: cut.digest,
            },
            Err(e) => err_of(&e),
        },
        MigrateAction::Snapshot => match service.migrate_snapshot(user) {
            Ok((src_lsn, ops)) => Response::Snapshot { src_lsn, ops },
            Err(e) => err_of(&e),
        },
        MigrateAction::Pull { from_lsn, max } => {
            match service.migrate_pull(user, *from_lsn, *max as usize) {
                Ok(Some(page)) => Response::Records {
                    through: page.through,
                    records: page.records,
                },
                Ok(None) => Response::Gone,
                Err(e) => err_of(&e),
            }
        }
        MigrateAction::Fence => match service.migrate_fence(user, epoch) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        MigrateAction::Import { src_lsn, ops } => {
            match service.migrate_import(user, epoch, *src_lsn, ops) {
                Ok(()) => Response::Ok,
                Err(e) => err_of(&e),
            }
        }
        MigrateAction::Apply { through, records } => {
            match service.migrate_apply(user, epoch, *through, records) {
                Ok(watermark) => Response::Applied { watermark },
                Err(e) => err_of(&e),
            }
        }
        MigrateAction::Activate => match service.migrate_activate(user, epoch) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        MigrateAction::Finish => match service.migrate_finish(user, epoch) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
        MigrateAction::Abort => match service.migrate_abort(user, epoch) {
            Ok(()) => Response::Ok,
            Err(e) => err_of(&e),
        },
    }
}

fn render_rows(
    db: &ShardedMultiUserDb,
    answer: &ctxpref_core::QueryAnswer,
    attr: &str,
    k: usize,
) -> Result<Vec<AnswerRow>, CoreError> {
    let a = db.relation().schema().require_attr(attr)?;
    Ok(answer
        .results
        .top_k_with_ties(k)
        .iter()
        .map(|e| AnswerRow {
            name: db.relation().tuple(e.tuple_index).value(a).to_string(),
            score: e.score,
        })
        .collect())
}

/// Map a [`ServiceError`] to its wire form. Routing-relevant failures
/// get dedicated response variants (`not-primary`, `migrating`) so a
/// router can react without parsing messages; everything else is a
/// stable kind token plus the rendered message.
fn err_of(e: &ServiceError) -> Response {
    let kind = match e {
        // A shed is a typed busy frame carrying the service's live
        // retry hint, so clients back off cooperatively instead of
        // hammering (and retry at all — `Err` is never retried).
        ServiceError::Overloaded { limit, retry_after } => {
            return Response::Busy {
                limit: *limit,
                retry_after_ms: (retry_after.as_millis() as u64).max(1),
            }
        }
        ServiceError::DeadlineExceeded { .. } => "deadline",
        ServiceError::Cancelled => "cancelled",
        ServiceError::QueryPanicked { .. } => "panic",
        ServiceError::Core(_) => "core",
        ServiceError::Storage(_) => "storage",
        ServiceError::Wal(_) => "wal",
        ServiceError::NotDurable => "not-durable",
        ServiceError::NotReplicated => "not-replicated",
        ServiceError::Replication(
            ReplicationError::NoPrimary
            | ReplicationError::NotPrimary { .. }
            | ReplicationError::Fenced { .. },
        ) => return Response::NotPrimary,
        ServiceError::Replication(_) => "replication",
        ServiceError::ShuttingDown => "shutting-down",
        ServiceError::Migrating { user } => return Response::Migrating { user: user.clone() },
        ServiceError::StaleMigration { .. } => "stale-migration",
    };
    Response::Err {
        kind: kind.to_string(),
        message: e.to_string(),
    }
}
