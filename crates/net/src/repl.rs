//! Socket-backed replication: [`TcpTransport`] implements the
//! cluster's [`Transport`]/[`NodeTransport`] seam over real TCP, so a
//! [`Cluster`](ctxpref_replication::Cluster) spans processes instead
//! of a `HashMap`.
//!
//! Each registered node gets a [`ReplServer`]: a loopback listener
//! whose connections run (read frame → decode [`Envelope`] →
//! `ReplNode::handle` → encode [`Reply`] → write frame). Sends dial
//! the peer fresh each time — replication traffic is batchy, and a
//! per-send dial keeps partition semantics exact (a healed link works
//! on the next send, with no stale pooled socket to drain).
//!
//! The fault discipline mirrors [`InProcessTransport`] exactly — the
//! same sites fire in the same order (`repl.partition`,
//! `repl.send.drop`/`repl.heartbeat.drop`, `repl.send.delay`,
//! `repl.send.duplicate`), plus the socket-level `net.conn.drop` site
//! — so every existing chaos plan drives this transport unchanged.
//!
//! [`InProcessTransport`]: ctxpref_replication::InProcessTransport
//!
//! ## Envelope wire form
//!
//! Every envelope and every reply is one binary frame payload built
//! from the [`crate::codec`] primitives (LEB128 varints, raw
//! length-delimited bytes and strings):
//!
//! ```text
//! envelope: [0xC3 | 0x03 | tag u8 | from varint | epoch varint | body…]
//!   1 records            shard, n, (lsn, payload)×n
//!   2 snapshot           n, lsn×n, stripes, (users, (name, profile)×users)×stripes
//!   3 heartbeat          —
//!   4 digest-request     —
//!   5 resync             shard, last lsn, users, (name, profile)×users
//! reply:    [0xC3 | 0x03 | tag u8 | body…]
//!   1 progress             next lsn
//!   2 snapshot-installed   —
//!   3 beat                 epoch, n, lsn×n
//!   4 digests              n, digest×n
//!   5 resynced             —
//!   6 fenced               current epoch
//!   7 failed               reason
//! ```
//!
//! A profile travels as the bytes [`write_profile`] produces — the
//! section the checkpoint files store — in one length-delimited field,
//! and the receiver parses it with [`read_profile`] against its own
//! environment. Names and reasons are carried raw, so spaces, newlines
//! and non-ASCII text need no escaping. Every count is checked against
//! the bytes that remain before anything is allocated by it, so a
//! hostile claim fails as a typed [`DecodeError`].

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ctxpref_context::ContextEnvironment;
use ctxpref_faults::hit;
use ctxpref_faults::sites::{
    NET_ACCEPT, NET_CONN_DROP, REPL_HEARTBEAT_DROP, REPL_PARTITION, REPL_SEND_DELAY,
    REPL_SEND_DROP, REPL_SEND_DUPLICATE,
};
use ctxpref_profile::Profile;
use ctxpref_relation::Relation;
use ctxpref_replication::{
    Envelope, Message, NodeId, NodeTransport, ReplNode, Reply, Transport, TransportError,
};
use ctxpref_storage::{read_profile, write_profile, StorageError};
use parking_lot::{Mutex, RwLock};

use crate::codec::{put_bytes, put_str, put_uv, Dec};
use crate::error::{DecodeError, DecodeKind};
use crate::frame::{read_frame, write_frame};

/// First payload byte of every replication envelope and reply.
pub const REPL_BINARY_MAGIC: u8 = 0xC3;

/// Version byte following [`REPL_BINARY_MAGIC`]. Bumped to 0x03 when
/// every message, not only `records`, moved to the binary form behind
/// a message tag.
pub const REPL_BINARY_VERSION: u8 = 0x03;

// Envelope message tags.
const MSG_RECORDS: u8 = 1;
const MSG_SNAPSHOT: u8 = 2;
const MSG_HEARTBEAT: u8 = 3;
const MSG_DIGEST_REQUEST: u8 = 4;
const MSG_RESYNC: u8 = 5;

// Reply tags.
const RP_PROGRESS: u8 = 1;
const RP_SNAPSHOT_INSTALLED: u8 = 2;
const RP_BEAT: u8 = 3;
const RP_DIGESTS: u8 = 4;
const RP_RESYNCED: u8 = 5;
const RP_FENCED: u8 = 6;
const RP_FAILED: u8 = 7;

// ---------------------------------------------------------------------------
// Envelope / Reply codec
// ---------------------------------------------------------------------------

fn put_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    put_uv(out, vals.len() as u64);
    for v in vals {
        put_uv(out, *v);
    }
}

fn put_users(
    out: &mut Vec<u8>,
    users: &[(String, Profile)],
    rel: &Relation,
) -> Result<(), StorageError> {
    put_uv(out, users.len() as u64);
    let mut section = Vec::new();
    for (name, profile) in users {
        put_str(out, name);
        section.clear();
        write_profile(&mut section, profile, rel)?;
        put_bytes(out, &section);
    }
    Ok(())
}

fn read_u64s(d: &mut Dec<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = d.checked_count(1)?;
    let mut vals = d.vec_for(n);
    for _ in 0..n {
        vals.push(d.uv()?);
    }
    Ok(vals)
}

fn read_users(
    d: &mut Dec<'_>,
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Vec<(String, Profile)>, DecodeError> {
    // A user is at least a one-byte name length and a one-byte
    // profile length.
    let n = d.checked_count(2)?;
    let mut users = d.vec_for(n);
    for _ in 0..n {
        let name = d.str_()?;
        let at = d.offset();
        let profile = read_profile(d.raw()?, env, rel).map_err(|e| DecodeError {
            offset: at,
            kind: DecodeKind::BadProfile {
                reason: e.to_string(),
            },
        })?;
        users.push((name, profile));
    }
    Ok(users)
}

/// Check the magic and version shared by envelopes and replies, and
/// return the message tag.
fn read_header(d: &mut Dec<'_>) -> Result<u8, DecodeError> {
    let magic = d.u8()?;
    if magic != REPL_BINARY_MAGIC {
        return Err(bad_tag(0, "replication magic", magic));
    }
    let version = d.u8()?;
    if version != REPL_BINARY_VERSION {
        return Err(bad_tag(1, "replication codec version", version));
    }
    d.u8()
}

fn bad_tag(offset: usize, what: &'static str, tag: u8) -> DecodeError {
    DecodeError {
        offset,
        kind: DecodeKind::BadTag {
            what,
            tag: u64::from(tag),
        },
    }
}

/// Encode `env` as one frame payload. Profiles are written against
/// `rel`; only that step can fail.
pub fn encode_envelope(env: &Envelope, rel: &Relation) -> Result<Vec<u8>, StorageError> {
    let mut out = Vec::new();
    let head = |out: &mut Vec<u8>, tag: u8| {
        out.extend_from_slice(&[REPL_BINARY_MAGIC, REPL_BINARY_VERSION, tag]);
        put_uv(out, env.from as u64);
        put_uv(out, env.epoch);
    };
    match &env.msg {
        Message::Records { shard, records } => {
            head(&mut out, MSG_RECORDS);
            put_uv(&mut out, *shard as u64);
            put_uv(&mut out, records.len() as u64);
            for (lsn, payload) in records {
                put_uv(&mut out, *lsn);
                put_bytes(&mut out, payload);
            }
        }
        Message::Snapshot { stripes, lsns } => {
            head(&mut out, MSG_SNAPSHOT);
            put_u64s(&mut out, lsns);
            put_uv(&mut out, stripes.len() as u64);
            for stripe in stripes {
                put_users(&mut out, stripe, rel)?;
            }
        }
        Message::Heartbeat => head(&mut out, MSG_HEARTBEAT),
        Message::DigestRequest => head(&mut out, MSG_DIGEST_REQUEST),
        Message::Resync {
            shard,
            users,
            last_lsn,
        } => {
            head(&mut out, MSG_RESYNC);
            put_uv(&mut out, *shard as u64);
            put_uv(&mut out, *last_lsn);
            put_users(&mut out, users, rel)?;
        }
    }
    Ok(out)
}

/// Decode one frame payload back into an [`Envelope`], parsing any
/// profiles against the receiver's `env` and `rel`.
pub fn decode_envelope(
    payload: &[u8],
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Envelope, DecodeError> {
    let mut d = Dec::new(payload);
    let tag = read_header(&mut d)?;
    let from = d.uv_len()?;
    let epoch = d.uv()?;
    let msg = match tag {
        MSG_RECORDS => {
            let shard = d.uv_len()?;
            // A record is at least a one-byte lsn and a one-byte length.
            let n = d.checked_count(2)?;
            let mut records = d.vec_for(n);
            for _ in 0..n {
                records.push((d.uv()?, d.bytes()?));
            }
            Message::Records { shard, records }
        }
        MSG_SNAPSHOT => {
            let lsns = read_u64s(&mut d)?;
            let n = d.checked_count(1)?;
            let mut stripes = d.vec_for(n);
            for _ in 0..n {
                stripes.push(read_users(&mut d, env, rel)?);
            }
            Message::Snapshot { stripes, lsns }
        }
        MSG_HEARTBEAT => Message::Heartbeat,
        MSG_DIGEST_REQUEST => Message::DigestRequest,
        MSG_RESYNC => Message::Resync {
            shard: d.uv_len()?,
            last_lsn: d.uv()?,
            users: read_users(&mut d, env, rel)?,
        },
        other => return Err(bad_tag(2, "replication message", other)),
    };
    d.expect_end()?;
    Ok(Envelope { from, epoch, msg })
}

/// Encode a [`Reply`] as one frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    let head = |out: &mut Vec<u8>, tag: u8| {
        out.extend_from_slice(&[REPL_BINARY_MAGIC, REPL_BINARY_VERSION, tag]);
    };
    match reply {
        Reply::Progress { next_lsn } => {
            head(&mut out, RP_PROGRESS);
            put_uv(&mut out, *next_lsn);
        }
        Reply::SnapshotInstalled => head(&mut out, RP_SNAPSHOT_INSTALLED),
        Reply::Beat { epoch, applied } => {
            head(&mut out, RP_BEAT);
            put_uv(&mut out, *epoch);
            put_u64s(&mut out, applied);
        }
        Reply::Digests { digests } => {
            head(&mut out, RP_DIGESTS);
            put_u64s(&mut out, digests);
        }
        Reply::Resynced => head(&mut out, RP_RESYNCED),
        Reply::Fenced { current } => {
            head(&mut out, RP_FENCED);
            put_uv(&mut out, *current);
        }
        Reply::Failed { reason } => {
            head(&mut out, RP_FAILED);
            put_str(&mut out, reason);
        }
    }
    out
}

/// Decode one frame payload back into a [`Reply`].
pub fn decode_reply(payload: &[u8]) -> Result<Reply, DecodeError> {
    let mut d = Dec::new(payload);
    let reply = match read_header(&mut d)? {
        RP_PROGRESS => Reply::Progress { next_lsn: d.uv()? },
        RP_SNAPSHOT_INSTALLED => Reply::SnapshotInstalled,
        RP_BEAT => Reply::Beat {
            epoch: d.uv()?,
            applied: read_u64s(&mut d)?,
        },
        RP_DIGESTS => Reply::Digests {
            digests: read_u64s(&mut d)?,
        },
        RP_RESYNCED => Reply::Resynced,
        RP_FENCED => Reply::Fenced { current: d.uv()? },
        RP_FAILED => Reply::Failed { reason: d.str_()? },
        other => return Err(bad_tag(2, "replication reply", other)),
    };
    d.expect_end()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// ReplServer: one listener per registered node
// ---------------------------------------------------------------------------

/// A loopback listener serving one [`ReplNode`]'s replication
/// endpoint: each connection is a loop of (envelope in, reply out).
pub struct ReplServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReplServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ReplServer {
    /// Bind an ephemeral loopback port and serve `node`'s replication
    /// endpoint on it.
    pub fn spawn(node: Arc<ReplNode>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("ctxpref-repl-accept-{}", node.id()))
                .spawn(move || repl_accept_loop(listener, node, shutdown))?
        };
        Ok(Self {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. In-flight
    /// connections notice on their next read (the peer redials).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplServer {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::Acquire) {
            self.begin_shutdown();
        }
    }
}

fn repl_accept_loop(listener: TcpListener, node: Arc<ReplNode>, shutdown: Arc<AtomicBool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if hit(NET_ACCEPT).is_err() {
            continue;
        }
        let node = Arc::clone(&node);
        let shutdown = Arc::clone(&shutdown);
        let _ = std::thread::Builder::new()
            .name("ctxpref-repl-conn".to_string())
            .spawn(move || serve_repl_connection(stream, &node, &shutdown));
    }
}

fn serve_repl_connection(stream: TcpStream, node: &ReplNode, shutdown: &AtomicBool) {
    // A socket whose timeouts could not be set would hang this thread
    // forever on a stalled peer; refuse to serve it (the peer redials).
    if stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    // The node's own environment and relation decode inbound profiles.
    let env = node.db().db().env().clone();
    let rel = node.db().db().relation().clone();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            _ => return,
        };
        let reply = match decode_envelope(&payload, &env, &rel) {
            Ok(envelope) => node.handle(&envelope),
            Err(e) => Reply::Failed {
                reason: format!("undecodable envelope: {e}"),
            },
        };
        if write_frame(&mut writer, &encode_reply(&reply)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

struct PeerEntry {
    addr: SocketAddr,
    server: ReplServer,
    /// One pooled connection per peer; sends to the same peer
    /// serialize on it (replication traffic is batchy, and one socket
    /// per link avoids burning an ephemeral port per send).
    conn: Arc<Mutex<Option<TcpStream>>>,
}

/// Socket-backed [`Transport`]: registered nodes get loopback
/// listeners, and sends dial the peer's endpoint over real TCP.
pub struct TcpTransport {
    rel: Relation,
    dial_timeout: Duration,
    peers: RwLock<HashMap<NodeId, PeerEntry>>,
    /// Severed links, smaller id first (mirrors the in-process set).
    partitions: Mutex<Vec<(NodeId, NodeId)>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peers", &self.peers.read().len())
            .finish()
    }
}

impl TcpTransport {
    /// A transport encoding outbound profiles against `rel` (clone it
    /// from the serving core: `db.relation()`). Inbound profiles are
    /// decoded by each receiving node against its own environment.
    pub fn new(rel: Relation) -> Self {
        Self {
            rel,
            dial_timeout: Duration::from_secs(1),
            peers: RwLock::new(HashMap::new()),
            partitions: Mutex::new(Vec::new()),
        }
    }

    /// The loopback address node `id` listens on, if registered.
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.peers.read().get(&id).map(|p| p.addr)
    }

    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().contains(&link)
    }

    fn dial(&self, to: NodeId, addr: SocketAddr) -> Result<TcpStream, TransportError> {
        let stream = TcpStream::connect_timeout(&addr, self.dial_timeout).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                TransportError::Unreachable(to)
            } else {
                TransportError::Dropped
            }
        })?;
        // An unconfigurable socket is as useless as an unreachable
        // peer: without timeouts a send could block forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|_| TransportError::Dropped)?;
        Ok(stream)
    }

    /// Whether an exchange failure looks like a *stale pooled
    /// connection* (the peer restarted or reaped it between sends) as
    /// opposed to a genuine mid-flight failure. Only the former earns
    /// a silent redial — injected frame faults surface as
    /// `io::ErrorKind::Other` and must stay failures.
    fn is_stale_conn(e: &crate::error::FrameError) -> bool {
        use std::io::ErrorKind;
        match e {
            crate::error::FrameError::Io(io) => matches!(
                io.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            _ => false,
        }
    }

    /// One request/reply over the pooled connection: write the
    /// envelope frame, read the reply frame. Returns the reply, or
    /// whether the failure is retryable on a fresh connection.
    fn try_exchange(stream: &mut TcpStream, payload: &[u8]) -> Result<Reply, bool> {
        if let Err(e) = write_frame(stream, payload) {
            return Err(Self::is_stale_conn(&e));
        }
        match read_frame(stream) {
            Ok(Some(reply)) => decode_reply(&reply).map_err(|_| false),
            // Clean EOF: the peer closed the pooled connection while
            // it was parked — a fresh dial is the honest retry.
            Ok(None) => Err(true),
            Err(e) => Err(Self::is_stale_conn(&e)),
        }
    }

    /// One full exchange with node `to`: reuse the pooled connection,
    /// redialling once if it went stale. Any other socket or codec
    /// failure collapses to `Dropped`: on a real network that is all
    /// the sender learns. A refused dial is `Unreachable` — the
    /// endpoint is gone, not flaky.
    fn exchange(
        &self,
        to: NodeId,
        addr: SocketAddr,
        conn: &Mutex<Option<TcpStream>>,
        env: &Envelope,
    ) -> Result<Reply, TransportError> {
        let payload = encode_envelope(env, &self.rel).map_err(|_| TransportError::Dropped)?;
        let mut slot = conn.lock();
        let pooled = slot.is_some();
        if slot.is_none() {
            *slot = Some(self.dial(to, addr)?);
        }
        match Self::try_exchange(slot.as_mut().expect("connection present"), &payload) {
            Ok(reply) => Ok(reply),
            Err(retryable) => {
                *slot = None;
                if !(retryable && pooled) {
                    return Err(TransportError::Dropped);
                }
                let mut fresh = self.dial(to, addr)?;
                match Self::try_exchange(&mut fresh, &payload) {
                    Ok(reply) => {
                        *slot = Some(fresh);
                        Ok(reply)
                    }
                    Err(_) => Err(TransportError::Dropped),
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, to: NodeId, env: Envelope) -> Result<Reply, TransportError> {
        // Same gauntlet, same order as the in-process transport, so
        // chaos plans behave identically over sockets.
        if self.is_partitioned(env.from, to) || hit(REPL_PARTITION).is_err() {
            return Err(TransportError::Partitioned);
        }
        let drop_site = if env.msg.is_heartbeat() {
            REPL_HEARTBEAT_DROP
        } else {
            REPL_SEND_DROP
        };
        if hit(drop_site).is_err() {
            return Err(TransportError::Dropped);
        }
        let _ = hit(REPL_SEND_DELAY);
        // The socket-level site: the connection dies mid-exchange.
        if hit(NET_CONN_DROP).is_err() {
            return Err(TransportError::Dropped);
        }
        let (addr, conn) = self
            .peers
            .read()
            .get(&to)
            .map(|p| (p.addr, Arc::clone(&p.conn)))
            .ok_or(TransportError::Unreachable(to))?;
        let reply = self.exchange(to, addr, &conn, &env)?;
        if hit(REPL_SEND_DUPLICATE).is_err() {
            let _ = self.exchange(to, addr, &conn, &env);
        }
        Ok(reply)
    }
}

impl NodeTransport for TcpTransport {
    fn register(&self, node: Arc<ReplNode>) {
        let id = node.id();
        match ReplServer::spawn(node) {
            Ok(server) => {
                let entry = PeerEntry {
                    addr: server.addr(),
                    server,
                    conn: Arc::new(Mutex::new(None)),
                };
                // Replacing an entry drops (and shuts down) the old
                // listener — a restart gets a fresh port.
                self.peers.write().insert(id, entry);
            }
            Err(_) => {
                // Bind failure leaves the node unregistered; sends
                // fail Unreachable, which the cluster already handles
                // as a down node.
                self.peers.write().remove(&id);
            }
        }
    }

    fn deregister(&self, id: NodeId) {
        if let Some(entry) = self.peers.write().remove(&id) {
            entry.server.shutdown();
        }
    }

    fn is_registered(&self, id: NodeId) -> bool {
        self.peers.read().contains_key(&id)
    }

    fn partition(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        let mut parts = self.partitions.lock();
        if !parts.contains(&link) {
            parts.push(link);
        }
    }

    fn heal(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().retain(|l| *l != link);
    }

    fn heal_all(&self) {
        self.partitions.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::parse_descriptor;
    use ctxpref_profile::{AttributeClause, ContextualPreference};
    use ctxpref_workload::reference::{poi_env, poi_relation};

    /// Names a whitespace-token dialect would have had to escape.
    const AWKWARD: [&str; 3] = ["Ano Poli visitor", "line one\nline two", "Παναγιώτα ✓"];

    fn profile(env: &ContextEnvironment, rel: &Relation, score: f64) -> Profile {
        let attr = rel
            .schema()
            .require_attr("type")
            .expect("poi schema has type");
        let pref = ContextualPreference::new(
            parse_descriptor(env, "accompanying_people = friends").expect("descriptor"),
            AttributeClause::eq(attr, "museum".into()),
            score,
        )
        .expect("valid preference");
        let mut p = Profile::new(env.clone());
        p.insert(pref).expect("no conflict");
        p
    }

    fn names(users: &[(String, Profile)]) -> Vec<&str> {
        users.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn every_message_and_reply_roundtrips_with_raw_names() {
        let env = poi_env();
        let rel = poi_relation(&env, 3, 1);
        let users: Vec<(String, Profile)> = AWKWARD
            .iter()
            .zip([0.25, 0.5, 0.75])
            .map(|(name, score)| (name.to_string(), profile(&env, &rel, score)))
            .collect();
        let messages = [
            Message::Records {
                shard: 3,
                records: vec![(7, b"add user".to_vec()), (8, Vec::new())],
            },
            Message::Snapshot {
                stripes: vec![users.clone(), Vec::new()],
                lsns: vec![12, 0],
            },
            Message::Heartbeat,
            Message::DigestRequest,
            Message::Resync {
                shard: 1,
                users: users.clone(),
                last_lsn: 40,
            },
        ];
        for msg in messages {
            let sent = Envelope {
                from: 2,
                epoch: 9,
                msg,
            };
            let payload = encode_envelope(&sent, &rel).expect("encode");
            let got = decode_envelope(&payload, &env, &rel).expect("decode");
            assert_eq!((got.from, got.epoch), (2, 9));
            // Profiles have no `PartialEq`, so the envelope is compared
            // by its encoding: a faithful decode re-encodes identically.
            assert_eq!(encode_envelope(&got, &rel).expect("re-encode"), payload);
            match &got.msg {
                Message::Snapshot { stripes, .. } => {
                    assert_eq!(names(&stripes[0]), AWKWARD);
                    assert!(stripes[1].is_empty());
                }
                Message::Resync { users, .. } => {
                    assert_eq!(names(users), AWKWARD);
                    assert!(users.iter().all(|(_, p)| p.preferences().len() == 1));
                }
                _ => {}
            }
        }

        let reason = format!("disk full: {}", AWKWARD.join(" | "));
        for reply in [
            Reply::Progress { next_lsn: 41 },
            Reply::SnapshotInstalled,
            Reply::Beat {
                epoch: 9,
                applied: vec![3, 0, u64::MAX],
            },
            Reply::Digests {
                digests: vec![0xDEAD_BEEF_DEAD_BEEF, 0],
            },
            Reply::Resynced,
            Reply::Fenced { current: 10 },
            Reply::Failed {
                reason: reason.clone(),
            },
        ] {
            assert_eq!(decode_reply(&encode_reply(&reply)).expect("decode"), reply);
        }
        // The reason's bytes travel verbatim, unescaped.
        let payload = encode_reply(&Reply::Failed {
            reason: reason.clone(),
        });
        assert!(payload.ends_with(reason.as_bytes()));
    }

    #[test]
    fn a_wrong_version_or_tag_fails_typed() {
        let mut payload = encode_reply(&Reply::Resynced);
        payload[1] = 0x02;
        let err = decode_reply(&payload).expect_err("old version");
        assert_eq!(err.offset, 1);
        payload[1] = REPL_BINARY_VERSION;
        payload[2] = 99;
        let err = decode_reply(&payload).expect_err("unknown tag");
        assert!(matches!(err.kind, DecodeKind::BadTag { tag: 99, .. }));
        let env = poi_env();
        let rel = poi_relation(&env, 3, 1);
        let err = decode_envelope(b"0 1 heartbeat\n", &env, &rel).expect_err("text");
        assert_eq!(err.offset, 0);
    }
}
