use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctxpref_context::{parse_descriptor, ContextState};
use ctxpref_core::{CoreError, MultiUserDb, ShardedMultiUserDb};
use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};
use ctxpref_qcache::CacheStats;
use ctxpref_relation::CompareOp;
use ctxpref_replication::{
    AckMode, Cluster, ClusterConfig, ClusterStatus, NodeId, ReplicationError, RoleHook, TickReport,
};
use ctxpref_storage::StorageError;
use ctxpref_wal::{
    CheckpointReport, DurableDb, RecoveryReport, ScrubReport, SyncPolicy, WalOp, WalOptions,
    WalStatus,
};
use parking_lot::{Mutex, RwLock};

use crate::dispatch::{record, worker_loop, Claims, Job, Pool, QueryDone, QueryJob, Ticket};
use crate::error::ServiceError;
use crate::ladder::ServiceAnswer;
use crate::migrate::{MigrationEntry, MigrationTable, RouteInfo, UserExport};
use crate::stats::{Counters, ServiceStats};
use crate::tier::Priority;

/// Bounded retry with exponential backoff for storage I/O.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before attempt `n+1` is `base_backoff · 2ⁿ⁻¹`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
        }
    }
}

/// Configuration of [`CtxPrefService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission-control limit on queued + executing requests; further
    /// requests are shed with [`ServiceError::Overloaded`].
    pub max_in_flight: usize,
    /// Deadline applied by [`CtxPrefService::query_state`].
    pub default_deadline: Duration,
    /// Retry policy for storage I/O.
    pub retry: RetryPolicy,
    /// Stripes of the sharded serving core (users are hashed onto
    /// shards; mutations lock only their shard).
    pub shards: usize,
    /// Cap on a whole storage operation including retry backoff: when
    /// the *next* backoff sleep would cross this deadline, the retry
    /// loop gives up with [`ServiceError::DeadlineExceeded`] instead of
    /// sleeping past it.
    pub storage_deadline: Duration,
    /// Target queue sojourn time of the CoDel-style admission
    /// controller: dwell above this is treated as standing queue.
    pub codel_target: Duration,
    /// How long sojourn must stay above the target before the
    /// controller starts shedding (lowest tier first).
    pub codel_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_in_flight: 64,
            default_deadline: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            shards: ctxpref_core::DEFAULT_SHARDS,
            storage_deadline: Duration::from_secs(2),
            codel_target: Duration::from_millis(25),
            codel_interval: Duration::from_millis(100),
        }
    }
}

/// Configuration of the service's durability layer (separate from
/// [`ServiceConfig`], which stays `Copy`): where the write-ahead log
/// and checkpoints live, and how eagerly they reach the disk.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The durable directory (manifest, checkpoints, per-shard logs).
    pub dir: PathBuf,
    /// Fsync policy: per-record (durable acks) or group commit
    /// (batched fsync on the background flusher's interval).
    pub sync: SyncPolicy,
    /// Rotate a shard's WAL segment past this many bytes.
    pub segment_max_bytes: u64,
    /// Take a background checkpoint this often (`None` = only when
    /// [`CtxPrefService::checkpoint`] is called).
    pub checkpoint_interval: Option<Duration>,
    /// Run a background scrub pass this often — verify sealed WAL
    /// segments and the checkpoint snapshot at rest, quarantine and
    /// heal what fails (`None` = only when [`CtxPrefService::scrub`]
    /// is called).
    pub scrub_interval: Option<Duration>,
}

impl DurabilityConfig {
    /// Durability under `dir` with the conservative defaults: fsync
    /// per record, 1 MiB segments, a background checkpoint every 60 s,
    /// a background scrub every 5 min.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::PerRecord,
            segment_max_bytes: 1 << 20,
            checkpoint_interval: Some(Duration::from_secs(60)),
            scrub_interval: Some(Duration::from_secs(300)),
        }
    }

    /// Switch to group commit with the given flush interval.
    pub fn group_commit(mut self, flush_interval: Duration) -> Self {
        self.sync = SyncPolicy::GroupCommit { flush_interval };
        self
    }

    /// Set (or disable, with `None`) the background scrub interval.
    pub fn scrub_every(mut self, interval: Option<Duration>) -> Self {
        self.scrub_interval = interval;
        self
    }

    fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync: self.sync,
            segment_max_bytes: self.segment_max_bytes,
        }
    }
}

/// Configuration of the service's replication layer: how many nodes,
/// when writes are acknowledged, and how eagerly the control plane
/// ticks. Built on top of the same durability knobs as
/// [`DurabilityConfig`] — every node is a full durable database.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Root directory; node `i` gets the durable directory
    /// `<dir>/node-<i>`.
    pub dir: PathBuf,
    /// Total nodes in the cluster (one primary, the rest replicas).
    /// Majorities for quorum acks and promotion are computed against
    /// this, so 3 tolerates one failure, 5 tolerates two.
    pub nodes: usize,
    /// When writes are acknowledged: [`AckMode::Async`] (primary-only,
    /// fast, may lose acked writes on failover) or [`AckMode::Quorum`]
    /// (majority-durable, failover-safe).
    pub ack_mode: AckMode,
    /// Fsync policy for every node's WAL.
    pub sync: SyncPolicy,
    /// Rotate a shard's WAL segment past this many bytes.
    pub segment_max_bytes: u64,
    /// Whether the background tick promotes a replica automatically
    /// once the primary misses enough heartbeats.
    pub auto_failover: bool,
    /// Consecutive missed heartbeats (ticks) before the primary is
    /// declared dead.
    pub heartbeat_threshold: u32,
    /// Interval of the background control-plane tick (ship pending
    /// records, probe the primary, fail over). `None` = no background
    /// thread; drive [`CtxPrefService::tick_replication`] manually.
    pub tick_interval: Option<Duration>,
    /// Run a background scrub pass over every live node this often
    /// (`None` = only when [`CtxPrefService::scrub`] is called).
    pub scrub_interval: Option<Duration>,
}

impl ReplicatedConfig {
    /// A quorum-acked `nodes`-node cluster under `dir` with the
    /// conservative defaults: fsync per record, 1 MiB segments,
    /// auto-failover after 3 missed beats, a 25 ms background tick.
    pub fn new(dir: impl Into<PathBuf>, nodes: usize) -> Self {
        Self {
            dir: dir.into(),
            nodes,
            ack_mode: AckMode::Quorum,
            sync: SyncPolicy::PerRecord,
            segment_max_bytes: 1 << 20,
            auto_failover: true,
            heartbeat_threshold: 3,
            tick_interval: Some(Duration::from_millis(25)),
            scrub_interval: Some(Duration::from_secs(300)),
        }
    }

    /// Switch to async acks (primary-only durability before the ack).
    pub fn async_acks(mut self) -> Self {
        self.ack_mode = AckMode::Async;
        self
    }

    /// Set (or disable, with `None`) the background scrub interval.
    pub fn scrub_every(mut self, interval: Option<Duration>) -> Self {
        self.scrub_interval = interval;
        self
    }

    /// Switch to group commit with the given flush interval.
    pub fn group_commit(mut self, flush_interval: Duration) -> Self {
        self.sync = SyncPolicy::GroupCommit { flush_interval };
        self
    }

    fn cluster_config(&self, shards: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            shards,
            ack_mode: self.ack_mode,
            wal: WalOptions {
                sync: self.sync,
                segment_max_bytes: self.segment_max_bytes,
            },
            batch_max: 64,
            heartbeat_threshold: self.heartbeat_threshold,
            auto_failover: self.auto_failover,
        }
    }
}

/// CoDel-style admission controller: workers feed it the queue
/// sojourn time of every job they dequeue; when sojourn stays above
/// the target for a sustained interval, admission sheds the lowest
/// tiers first. Maintenance yields at any standing queue, Bulk when
/// the queue is badly over target, and Interactive is never shed by
/// sojourn — only by the hard in-flight backstop.
///
/// All state is atomics (instants encoded as micros since `base`), so
/// the hot paths — one `observe` per dequeue, one `pressure` load per
/// admission — never take a lock.
pub(crate) struct Admission {
    target: Duration,
    interval: Duration,
    base: Instant,
    /// Micros-since-base when sojourn first went above target
    /// (0 = currently at or below target).
    above_since: AtomicU64,
    /// Micros-since-base of the most recent observation; pressure
    /// decays back to calm when observations stop (an idle queue
    /// cannot be overloaded).
    last_observe: AtomicU64,
    /// The most recently observed sojourn, in micros — the basis of
    /// the `retry_after` hint handed to shed callers.
    last_sojourn: AtomicU64,
    /// 0 = calm, 1 = shed Maintenance, 2 = shed Bulk too.
    pressure: AtomicU8,
}

impl Admission {
    fn new(target: Duration, interval: Duration) -> Self {
        Self {
            target: target.max(Duration::from_micros(1)),
            interval: interval.max(Duration::from_micros(1)),
            base: Instant::now(),
            above_since: AtomicU64::new(0),
            last_observe: AtomicU64::new(0),
            last_sojourn: AtomicU64::new(0),
            pressure: AtomicU8::new(0),
        }
    }

    fn micros_now(&self) -> u64 {
        // Saturate at 1 so 0 stays the "not above target" sentinel.
        (self.base.elapsed().as_micros() as u64).max(1)
    }

    /// Feed one dequeued job's queue dwell into the controller.
    pub(crate) fn observe(&self, sojourn: Duration) {
        let now = self.micros_now();
        self.last_observe.store(now, Ordering::Relaxed);
        self.last_sojourn
            .store(sojourn.as_micros() as u64, Ordering::Relaxed);
        if sojourn <= self.target {
            self.above_since.store(0, Ordering::Relaxed);
            self.pressure.store(0, Ordering::Relaxed);
            return;
        }
        let since = self.above_since.load(Ordering::Relaxed);
        let since = if since == 0 {
            self.above_since.store(now, Ordering::Relaxed);
            now
        } else {
            since
        };
        if now.saturating_sub(since) >= self.interval.as_micros() as u64 {
            let level = if sojourn >= self.target * 4 { 2 } else { 1 };
            self.pressure.store(level, Ordering::Relaxed);
        }
    }

    /// The current pressure level: 0 = admit everything, 1 = shed
    /// Maintenance, 2 = shed Bulk too. Stale pressure decays to calm
    /// when no job has been observed for two intervals.
    pub(crate) fn pressure(&self) -> u8 {
        let last = self.last_observe.load(Ordering::Relaxed);
        if last == 0 {
            return 0;
        }
        let now = self.micros_now();
        if now.saturating_sub(last) > 2 * self.interval.as_micros() as u64 {
            self.above_since.store(0, Ordering::Relaxed);
            self.pressure.store(0, Ordering::Relaxed);
            return 0;
        }
        self.pressure.load(Ordering::Relaxed)
    }

    /// Whether the sojourn controller sheds `tier` right now.
    fn sheds(&self, tier: Priority) -> bool {
        match tier {
            Priority::Interactive => false,
            Priority::Bulk => self.pressure() >= 2,
            Priority::Maintenance => self.pressure() >= 1,
        }
    }

    /// The backoff hint handed to shed callers: the last observed
    /// sojourn (how long the queue actually is), clamped between the
    /// target and one second.
    fn retry_after(&self) -> Duration {
        Duration::from_micros(self.last_sojourn.load(Ordering::Relaxed))
            .clamp(self.target, Duration::from_secs(1))
    }
}

/// The failure of a bulk mutation: how many items of the batch were
/// applied before the failure, plus the failure itself. The prefix is
/// durably applied — a caller resumes after `applied`, it does not
/// replay the whole batch.
#[derive(Debug)]
pub struct BulkError {
    /// Items applied before the failure.
    pub applied: usize,
    /// The first item failure.
    pub error: ServiceError,
}

impl std::fmt::Display for BulkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bulk write failed after {} item(s): {}",
            self.applied, self.error
        )
    }
}

impl std::error::Error for BulkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The fault-tolerant serving layer over a sharded multi-user core.
///
/// Requests run on a fixed pool of worker threads behind a
/// request/response API:
///
/// * **Deadlines & cancellation** — every query carries a deadline; the
///   caller gets [`ServiceError::DeadlineExceeded`] at the deadline even
///   if the worker is still grinding. The caller cancels the job
///   ([`Self::cancel`]): the worker drops it unrun, or its result
///   unseen, and the outcome is counted once.
/// * **One dispatch stage** — [`Self::submit_with`] queues an owned
///   job and returns; the worker hands the result to a completion on
///   its own thread. The blocking query API is a thin wrapper over it.
/// * **Panic isolation** — each query runs under `catch_unwind`; a panic
///   (real or injected) is contained and surfaces as
///   [`ServiceError::QueryPanicked`] or a recorded ladder fallback,
///   never as a crash. The locks are `parking_lot` locks precisely so a
///   contained panic cannot poison shared state.
/// * **Admission control** — at most `max_in_flight` requests are
///   queued or executing; excess load is shed immediately with
///   [`ServiceError::Overloaded`].
/// * **Degradation ladder** — see [`crate::ladder`]: cached → exact →
///   nearest-state → non-contextual default, every fallback recorded.
/// * **Retrying storage** — [`Self::save`] and [`Self::open`] retry
///   transient I/O failures with exponential backoff capped by the
///   configured storage deadline; writes are atomic and checksummed
///   (see `ctxpref-storage`).
/// * **Sharded core** — the database is a [`ShardedMultiUserDb`]: user
///   slots are striped over per-shard `RwLock`s, so one user's profile
///   edit (or a long snapshot) never blocks queries for users on other
///   shards, and a worker acquires exactly the one shard its request
///   needs.
/// * **Durability (opt-in)** — built with [`Self::new_durable`] or
///   [`Self::recover`], every mutation is appended to a per-shard
///   write-ahead log *before* it touches the core, a background
///   checkpointer bounds replay time, and recovery replays the log on
///   top of the latest checkpoint (see `ctxpref-wal`).
pub struct CtxPrefService {
    /// The serving core reads go to. A slot rather than a plain handle:
    /// for a replicated service this is the local node's database, and
    /// a crash + restart of that node builds a *new* recovered instance
    /// inside the cluster — the control-plane tick re-resolves the slot
    /// so reads follow the recovered node instead of serving a frozen
    /// orphan forever.
    db: Arc<RwLock<Arc<ShardedMultiUserDb>>>,
    cfg: ServiceConfig,
    counters: Arc<Counters>,
    admission: Arc<Admission>,
    in_flight: Arc<AtomicUsize>,
    claims: Arc<Claims>,
    shutting_down: Arc<AtomicBool>,
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    durable: Option<Arc<DurableDb>>,
    cluster: Option<Arc<Cluster>>,
    maintenance: Vec<(mpsc::Sender<()>, JoinHandle<()>)>,
    recovered_lsn: u64,
    recovered_rescued_shards: u64,
    migrations: MigrationTable,
}

impl std::fmt::Debug for CtxPrefService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtxPrefService")
            .field("workers", &self.workers.len())
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Count one shed request: the combined counter, the reason breakdown
/// (`reason` is one of the `shed_*` reason atomics), and the tier
/// breakdown — operators telling overload shapes apart need all three.
pub(crate) fn record_shed(counters: &Counters, reason: &AtomicU64, tier: Priority) {
    counters.shed.fetch_add(1, Ordering::Relaxed);
    reason.fetch_add(1, Ordering::Relaxed);
    let by_tier = match tier {
        Priority::Interactive => &counters.shed_interactive,
        Priority::Bulk => &counters.shed_bulk,
        Priority::Maintenance => &counters.shed_maintenance,
    };
    by_tier.fetch_add(1, Ordering::Relaxed);
}

/// Fold one scrub pass's outcome into the service counters.
fn record_scrub(counters: &Counters, report: &ScrubReport) {
    counters.scrub_passes.fetch_add(1, Ordering::Relaxed);
    counters
        .scrub_quarantined
        .fetch_add(report.quarantined.len() as u64, Ordering::Relaxed);
    counters
        .scrub_read_errors
        .fetch_add(report.read_errors, Ordering::Relaxed);
    if report.healed {
        counters.scrub_heals.fetch_add(1, Ordering::Relaxed);
    }
}

/// The self-healing storage counters, as reported by
/// [`CtxPrefService::scrub_status`] (and the `scrub-status` wire verb):
/// what scrubbing has found and done since the service started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStatus {
    /// Scrub passes completed (manual and background).
    pub passes: u64,
    /// Files quarantined (corrupt sealed segments or checkpoints).
    pub quarantined: u64,
    /// Files skipped on a transient read error (retried next pass).
    pub read_errors: u64,
    /// Passes that healed damage with a fresh checkpoint.
    pub heals: u64,
    /// WAL shards recovery rescued via quarantine (the node restarted
    /// clean-but-behind; replication re-fetches the lost suffix).
    pub rescued_shards: u64,
    /// Appends shed with a typed retryable disk-full error.
    pub disk_full_sheds: u64,
    /// Size-triggered segment rotations that failed (retried later).
    pub rotate_failures: u64,
}

impl CtxPrefService {
    /// Serve `db` with `cfg`, sharding it over `cfg.shards` stripes.
    pub fn new(db: MultiUserDb, cfg: ServiceConfig) -> Self {
        Self::new_sharded(ShardedMultiUserDb::from_db(db, cfg.shards), cfg)
    }

    /// Serve an already-sharded core with `cfg` (`cfg.shards` is
    /// ignored; the core keeps its stripe count).
    pub fn new_sharded(db: ShardedMultiUserDb, cfg: ServiceConfig) -> Self {
        Self::new_arc(Arc::new(db), cfg)
    }

    /// Serve `db` with `cfg`, logging every mutation to a fresh durable
    /// directory per `dcfg` before applying it. Fails with
    /// [`ctxpref_wal::WalError::AlreadyExists`] if the directory already
    /// holds a durable database — [`Self::recover`] it instead.
    pub fn new_durable(
        db: MultiUserDb,
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
    ) -> Result<Self, ServiceError> {
        let db = Arc::new(ShardedMultiUserDb::from_db(db, cfg.shards));
        let durable = Arc::new(DurableDb::create(
            &dcfg.dir,
            Arc::clone(&db),
            dcfg.wal_options(),
        )?);
        let mut service = Self::new_arc(db, cfg);
        service.attach_durability(durable, &dcfg);
        Ok(service)
    }

    /// Recover a durable directory — load the manifest's checkpoint,
    /// replay each shard's live log segments, repair a torn tail — and
    /// serve the recovered database; further mutations append to the
    /// same log.
    pub fn recover(
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (durable, report) = DurableDb::recover(&dcfg.dir, dcfg.wal_options())?;
        let durable = Arc::new(durable);
        let mut service = Self::new_arc(Arc::clone(durable.db()), cfg);
        service.recovered_lsn = report.recovered_lsn();
        service.recovered_rescued_shards = report.rescued_shards;
        service.attach_durability(durable, &dcfg);
        Ok((service, report))
    }

    fn new_arc(db: Arc<ShardedMultiUserDb>, cfg: ServiceConfig) -> Self {
        let db = Arc::new(RwLock::new(db));
        let counters = Arc::new(Counters::default());
        let admission = Arc::new(Admission::new(cfg.codel_target, cfg.codel_interval));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let claims = Arc::new(Claims::new(cfg.max_in_flight));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let pool = Arc::new(Pool {
            slot: Arc::clone(&db),
            counters: Arc::clone(&counters),
            admission: Arc::clone(&admission),
            in_flight: Arc::clone(&in_flight),
            claims: Arc::clone(&claims),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let pool = Arc::clone(&pool);
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("ctxpref-worker-{i}"))
                    .spawn(move || worker_loop(&pool, &receiver))
                    .expect("spawning a worker thread")
            })
            .collect();
        Self {
            db,
            cfg,
            counters,
            admission,
            in_flight,
            claims,
            shutting_down,
            sender: Some(sender),
            workers,
            durable: None,
            cluster: None,
            maintenance: Vec::new(),
            recovered_lsn: 0,
            recovered_rescued_shards: 0,
            migrations: MigrationTable::default(),
        }
    }

    /// Serve `db` replicated across `rcfg.nodes` primary/replica nodes
    /// under `rcfg.dir`. Every node is a full durable database (WAL,
    /// checkpoints, recovery); `db`'s initial contents are seeded
    /// through the replicated write path so all nodes start identical.
    ///
    /// Queries are served from node 0's core — the service's local
    /// node — while mutations route through the cluster's current
    /// primary, honouring the configured [`AckMode`]. After a failover
    /// away from node 0, reads stay local (and catch up through
    /// shipping); writes follow the new primary automatically.
    pub fn new_replicated(
        db: MultiUserDb,
        cfg: ServiceConfig,
        rcfg: ReplicatedConfig,
    ) -> Result<Self, ServiceError> {
        let env = db.env().clone();
        let rel = db.relation().clone();
        let cache = db.cache_capacity();
        let shards = cfg.shards.max(1);
        let cluster = Arc::new(
            Cluster::new(&rcfg.dir, rcfg.cluster_config(shards), || {
                Arc::new(ShardedMultiUserDb::new(
                    env.clone(),
                    rel.clone(),
                    cache,
                    shards,
                ))
            })
            .map_err(ServiceError::from)?,
        );
        // Seed the initial contents through the replicated write path:
        // every node (not just the primary) must hold them, and the WAL
        // must cover them so late-joining replicas can catch up.
        for user in db.users_sorted() {
            cluster
                .write(&WalOp::AddUser {
                    user: user.to_string(),
                })
                .map_err(ServiceError::from)?;
            let profile = db.profile(user)?;
            for pref in profile.preferences() {
                cluster
                    .write(&WalOp::InsertPreference {
                        user: user.to_string(),
                        pref: pref.clone(),
                    })
                    .map_err(ServiceError::from)?;
            }
        }
        let local = cluster.db_of(0).expect("node 0 exists at bootstrap");
        let mut service = Self::new_arc(Arc::clone(local.db()), cfg);
        service.attach_replication(cluster, &rcfg);
        Ok(service)
    }

    /// Wire `cluster` into the service: mutations route through the
    /// replicated write path from here on, and (when configured) the
    /// background control-plane tick starts.
    fn attach_replication(&mut self, cluster: Arc<Cluster>, rcfg: &ReplicatedConfig) {
        if let Some(interval) = rcfg.tick_interval {
            let cluster = Arc::clone(&cluster);
            let slot = Arc::clone(&self.db);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-repl-tick".to_string())
                .spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval)
                    {
                        let _ = cluster.tick();
                        // Follow the local node across crash/restart:
                        // recovery builds a new core instance and the
                        // serving slot must not keep the orphan.
                        if let Some(local) = cluster.db_of(0) {
                            refresh_serving_slot(&slot, local.db());
                        }
                    }
                })
                .expect("spawning the replication tick thread");
            self.maintenance.push((stop, handle));
        }
        if let SyncPolicy::GroupCommit { flush_interval } = rcfg.sync {
            let cluster = Arc::clone(&cluster);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-repl-flusher".to_string())
                .spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(flush_interval)
                    {
                        if let Some(db) = cluster.primary_db() {
                            let _ = db.flush();
                        }
                    }
                })
                .expect("spawning the replication flusher thread");
            self.maintenance.push((stop, handle));
        }
        if let Some(interval) = rcfg.scrub_interval {
            let cluster = Arc::clone(&cluster);
            let counters = Arc::clone(&self.counters);
            let admission = Arc::clone(&self.admission);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-scrubber".to_string())
                .spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval)
                    {
                        // Maintenance yields under pressure: a scrub
                        // pass can wait out an overload spike.
                        if admission.pressure() >= 1 {
                            continue;
                        }
                        for id in 0..cluster.config().nodes {
                            let cluster = Arc::clone(&cluster);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(move || cluster.scrub_node(id)));
                            if let Ok(Ok(report)) = outcome {
                                record_scrub(&counters, &report);
                            }
                        }
                    }
                })
                .expect("spawning the scrubber thread");
            self.maintenance.push((stop, handle));
        }
        self.cluster = Some(cluster);
    }

    /// Wire `durable` into the service: mutations route through the log
    /// from here on, and the background maintenance threads start (a
    /// checkpointer, plus a flusher when group commit is configured).
    fn attach_durability(&mut self, durable: Arc<DurableDb>, dcfg: &DurabilityConfig) {
        if let Some(interval) = dcfg.checkpoint_interval {
            let db = Arc::clone(&durable);
            let counters = Arc::clone(&self.counters);
            let admission = Arc::clone(&self.admission);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-checkpointer".to_string())
                .spawn(move || {
                    // recv_timeout disconnects when the service drops
                    // its stop sender — that is the shutdown signal.
                    while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval)
                    {
                        // Maintenance yields under pressure: defer the
                        // checkpoint; replay time grows a little, the
                        // overloaded serving path keeps its cycles.
                        if admission.pressure() >= 1 {
                            continue;
                        }
                        let db = Arc::clone(&db);
                        let ok = catch_unwind(AssertUnwindSafe(move || db.checkpoint().is_ok()));
                        if matches!(ok, Ok(true)) {
                            counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawning the checkpointer thread");
            self.maintenance.push((stop, handle));
        }
        if let SyncPolicy::GroupCommit { flush_interval } = dcfg.sync {
            let db = Arc::clone(&durable);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-wal-flusher".to_string())
                .spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(flush_interval)
                    {
                        let _ = db.flush();
                    }
                })
                .expect("spawning the WAL flusher thread");
            self.maintenance.push((stop, handle));
        }
        if let Some(interval) = dcfg.scrub_interval {
            let db = Arc::clone(&durable);
            let counters = Arc::clone(&self.counters);
            let admission = Arc::clone(&self.admission);
            let (stop, stopped) = mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("ctxpref-scrubber".to_string())
                .spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval)
                    {
                        // Maintenance yields under pressure (see the
                        // replicated scrubber above).
                        if admission.pressure() >= 1 {
                            continue;
                        }
                        let db = Arc::clone(&db);
                        let outcome = catch_unwind(AssertUnwindSafe(move || db.scrub()));
                        if let Ok(Ok(report)) = outcome {
                            record_scrub(&counters, &report);
                        }
                    }
                })
                .expect("spawning the scrubber thread");
            self.maintenance.push((stop, handle));
        }
        self.durable = Some(durable);
    }

    /// Load a multi-user database from `path` (retrying transient I/O
    /// per the retry policy) and serve it.
    pub fn open(path: impl AsRef<Path>, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let counters = Counters::default();
        let db = retry_storage(&cfg.retry, cfg.storage_deadline, &counters, || {
            ctxpref_storage::load_multi_user(&path)
        })?;
        let service = Self::new(db, cfg);
        service.counters.storage_retries.fetch_add(
            counters.storage_retries.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Ok(service)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// A snapshot of the service counters, with the durability figures
    /// (WAL appends, group-commit batches, recovered LSN) overlaid when
    /// the service runs durably.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.counters.snapshot();
        if let Some(d) = self.durable_db() {
            stats.wal_appends = d.wal_appends();
            stats.group_commit_batches = d.group_commit_batches();
            let health = d.wal_health();
            stats.wal_rotate_failures = health.rotate_failures;
            stats.wal_disk_full_sheds = health.disk_full_sheds;
            stats.repl_apply_rejects = d.repl_apply_rejects();
        }
        stats.recovered_lsn = self.recovered_lsn;
        stats.rescued_shards = self.recovered_rescued_shards;
        if let Some(c) = &self.cluster {
            let status = c.status();
            stats.replication_epoch = status.epoch;
            stats.replication_max_lag = status.max_lag;
            stats.failovers = (status.promotions.len() as u64).saturating_sub(1);
            stats.rescued_shards = status.nodes.iter().map(|n| n.rescued_shards).sum();
        }
        let core = self.core();
        let cache = core.cache_totals();
        stats.cache_hits = cache.hits;
        stats.cache_misses = cache.misses;
        stats.cache_insertions = cache.insertions;
        stats.cache_evictions = cache.evictions;
        stats.cache_invalidations = cache.invalidations;
        let views = core.views_totals();
        stats.view_hits = views.view_hits;
        stats.view_misses = views.view_misses;
        stats.view_patches = views.view_patches;
        stats.view_rebuilds = views.view_rebuilds;
        stats.materialized_views = views.materialized_views;
        stats.pinned_views = views.pinned_views;
        if let Some(plan) = ctxpref_faults::current() {
            let mut hits: Vec<(String, u64)> = plan.hit_counts().into_iter().collect();
            hits.sort();
            stats.fault_hits = hits;
        }
        stats
    }

    /// Whether mutations are logged to a durable directory (every node
    /// of a replicated service is durable).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some() || self.cluster.is_some()
    }

    /// Whether mutations replicate across a primary/replica cluster.
    pub fn is_replicated(&self) -> bool {
        self.cluster.is_some()
    }

    /// The durable database behind mutations: the attached one, or the
    /// cluster's current primary when replicated.
    fn durable_db(&self) -> Option<Arc<DurableDb>> {
        match (&self.durable, &self.cluster) {
            (Some(d), _) => Some(Arc::clone(d)),
            (None, Some(c)) => c.primary_db(),
            (None, None) => None,
        }
    }

    /// Like [`Self::durable_db`], but distinguishes the two absent
    /// cases: a purely in-memory service is [`ServiceError::NotDurable`]
    /// (permanent), while a replicated cluster with no elected primary
    /// is [`ReplicationError::NoPrimary`] — a transient, retryable
    /// condition that maps to `not-primary` on the wire.
    fn durable_db_required(&self) -> Result<Arc<DurableDb>, ServiceError> {
        match (&self.durable, &self.cluster) {
            (Some(d), _) => Ok(Arc::clone(d)),
            (None, Some(c)) => c
                .primary_db()
                .ok_or(ServiceError::Replication(ReplicationError::NoPrimary)),
            (None, None) => Err(ServiceError::NotDurable),
        }
    }

    /// The replication cluster handle (partition scripting, manual
    /// crash/restart, direct status) — `None` without replication.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// The serving core, resolved through the swappable slot.
    fn core(&self) -> Arc<ShardedMultiUserDb> {
        Arc::clone(&self.db.read())
    }

    /// Re-point the serving slot at the cluster's current local node.
    /// A crash + restart of node 0 recovers into a *new* core instance;
    /// without this, reads would keep serving the orphaned pre-crash
    /// one forever. Called from every control-plane beat (manual and
    /// background).
    fn refresh_serving_view(&self) {
        let Some(cluster) = &self.cluster else { return };
        if let Some(local) = cluster.db_of(0) {
            refresh_serving_slot(&self.db, local.db());
        }
    }

    /// A point-in-time view of the cluster: roles, epochs, lag,
    /// promotion history.
    pub fn replication_status(&self) -> Result<ClusterStatus, ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        Ok(c.status())
    }

    /// Manually promote node `id` to primary (majority-guarded, with
    /// pre-serve catch-up — see the replication crate). Returns the
    /// minted epoch.
    pub fn promote(&self, id: NodeId) -> Result<u64, ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        Ok(c.promote(id)?)
    }

    /// One manual control-plane beat: ship pending records, probe the
    /// primary from every replica, fail over if it is declared dead.
    pub fn tick_replication(&self) -> Result<TickReport, ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        let report = c.tick();
        self.refresh_serving_view();
        Ok(report)
    }

    /// Ship every live replica as far as the primary's logs reach.
    pub fn pump_replication(&self) -> Result<bool, ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        let shipped = c.pump()?;
        self.refresh_serving_view();
        Ok(shipped)
    }

    /// Compare per-shard digests across the cluster and resync each
    /// divergent shard from the primary. Returns the resync count.
    pub fn anti_entropy(&self) -> Result<usize, ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        let resynced = c.anti_entropy()?;
        self.refresh_serving_view();
        Ok(resynced)
    }

    /// Install a hook fired when a node is promoted to primary.
    pub fn set_promotion_hook(&self, hook: RoleHook) -> Result<(), ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        c.set_promotion_hook(hook);
        Ok(())
    }

    /// Install a hook fired when an acting primary is demoted.
    pub fn set_demotion_hook(&self, hook: RoleHook) -> Result<(), ServiceError> {
        let c = self.cluster.as_ref().ok_or(ServiceError::NotReplicated)?;
        c.set_demotion_hook(hook);
        Ok(())
    }

    /// Requests currently queued or executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The admission controller's current pressure level: 0 admits
    /// everything, 1 sheds Maintenance, 2 sheds Bulk too. Interactive
    /// traffic is only ever refused by the hard in-flight backstop.
    pub fn admission_pressure(&self) -> u8 {
        self.admission.pressure()
    }

    /// Query `user` under `state` with the default deadline.
    pub fn query_state(
        &self,
        user: &str,
        state: &ContextState,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_state_deadline(user, state, self.cfg.default_deadline)
    }

    /// Query `user` under `state`, failing with
    /// [`ServiceError::DeadlineExceeded`] if no answer is produced
    /// within `deadline`. Runs at [`Priority::Interactive`] — use
    /// [`Self::query_tiered`] to run at a sheddable tier.
    pub fn query_state_deadline(
        &self,
        user: &str,
        state: &ContextState,
        deadline: Duration,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_tiered(user, state, deadline, Priority::Interactive)
    }

    /// Query `user` under `state` at `tier`, failing with
    /// [`ServiceError::DeadlineExceeded`] if no answer is produced
    /// within `deadline` and with the retryable
    /// [`ServiceError::Overloaded`] when admission sheds the tier (the
    /// gates are described at [`Self::submit_with`]).
    pub fn query_tiered(
        &self,
        user: &str,
        state: &ContextState,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.submit(user, state, None, deadline, tier)
    }

    /// Top-k query for `user` under `state` with the default deadline
    /// at [`Priority::Interactive`]: served from a materialized view
    /// when one is current ([`LadderStep::View`](crate::LadderStep::View)), early-terminating
    /// evaluation otherwise, with the same degradation ladder below.
    pub fn query_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_topk_tiered(
            user,
            state,
            k,
            self.cfg.default_deadline,
            Priority::Interactive,
        )
    }

    /// Top-k query at an explicit deadline and tier — the same
    /// admission gates, deadline enforcement, and cancellation as
    /// [`Self::query_tiered`].
    pub fn query_topk_tiered(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.submit(user, state, Some(k), deadline, tier)
    }

    fn submit(
        &self,
        user: &str,
        state: &ContextState,
        topk: Option<usize>,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_job(QueryJob {
            user: user.to_string(),
            state: state.clone(),
            topk,
            deadline,
            tier,
        })
    }

    /// Run one owned query and wait for its answer: the blocking form
    /// of [`Self::submit_with`]. The caller waits until the job's
    /// deadline at most; past it, the job is cancelled and the caller
    /// gets [`ServiceError::DeadlineExceeded`].
    pub fn query_job(&self, job: QueryJob) -> Result<ServiceAnswer, ServiceError> {
        let (reply, answer) = mpsc::sync_channel(1);
        let ticket = self.submit_with(
            job,
            Box::new(move |result, _| {
                let _ = reply.try_send(result);
            }),
        )?;
        // Wait only until the deadline the job was admitted with:
        // admission and enqueue already consumed part of the budget.
        let left = ticket.deadline().saturating_duration_since(Instant::now());
        let result = match answer.recv_timeout(left) {
            Ok(result) => return result,
            Err(mpsc::RecvTimeoutError::Timeout) if self.cancel(ticket) => {
                return Err(ticket.expired())
            }
            // The worker settled the job first: its answer is on the way.
            Err(mpsc::RecvTimeoutError::Timeout) => answer.recv().ok(),
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        };
        // A completion dropped unsent: the worker panicked past its
        // containment (the chaos suite asserts this never happens).
        result.unwrap_or_else(|| {
            Err(ServiceError::QueryPanicked {
                message: "worker dropped the reply".to_string(),
            })
        })
    }

    /// Submit one owned query without waiting: admit or shed it, queue
    /// it, and return its [`Ticket`]. The worker that runs it calls
    /// `done` with the result, on the worker thread; `done` never runs
    /// if the job is shed here or cancelled first (see
    /// [`Self::cancel`]). A shed or a stopped service fails here,
    /// synchronously.
    ///
    /// Two admission gates run in order. The CoDel-style sojourn
    /// controller sheds Maintenance (then Bulk) when queue dwell has
    /// exceeded the target for a sustained interval; Interactive
    /// passes it unconditionally. The hard `max_in_flight` backstop
    /// then bounds memory for every tier.
    pub fn submit_with(&self, job: QueryJob, done: QueryDone) -> Result<Ticket, ServiceError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        // Sojourn-controller gate: shed low tiers while the queue has
        // been standing above target.
        if self.admission.sheds(job.tier) {
            record_shed(&self.counters, &self.counters.shed_sojourn, job.tier);
            return Err(ServiceError::Overloaded {
                limit: self.cfg.max_in_flight,
                retry_after: self.admission.retry_after(),
            });
        }
        // Hard backstop: reserve a slot or shed.
        if self.in_flight.fetch_add(1, Ordering::AcqRel) >= self.cfg.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            record_shed(&self.counters, &self.counters.shed_admission, job.tier);
            return Err(ServiceError::Overloaded {
                limit: self.cfg.max_in_flight,
                retry_after: self.admission.retry_after(),
            });
        }
        let now = Instant::now();
        let ticket = self.claims.take(now + job.deadline, job.deadline);
        let job = Job {
            query: job,
            ticket,
            enqueued: now,
            done,
        };
        match &self.sender {
            Some(sender) if sender.send(job).is_ok() => Ok(ticket),
            _ => {
                self.claims.settle(&ticket);
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// Give up on a submitted query at its deadline. True if the query
    /// was still pending or running: it will never be answered, and it
    /// is counted as a deadline miss here. False if a worker settled it
    /// first: its completion has run or is running.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        if !self.claims.cancel(&ticket) {
            return false;
        }
        record(&self.counters, &Err(ticket.expired()));
        true
    }

    /// Register a user with an empty profile. On a durable service the
    /// registration is logged before the core changes (as is every
    /// mutation below); on a replicated one it routes through the
    /// cluster's current primary, honouring the configured ack mode.
    pub fn add_user(&self, name: &str) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        if let Some(c) = &self.cluster {
            c.write(&WalOp::AddUser {
                user: name.to_string(),
            })
            .map_err(ServiceError::from)?;
            return Ok(());
        }
        match &self.durable {
            Some(d) => {
                d.add_user(name)?;
                Ok(())
            }
            None => Ok(self.core().add_user(name)?),
        }
    }

    /// Register a user with an initial profile.
    pub fn add_user_with_profile(&self, name: &str, profile: Profile) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        if let Some(c) = &self.cluster {
            c.write(&WalOp::AddUser {
                user: name.to_string(),
            })
            .map_err(ServiceError::from)?;
            for pref in profile.preferences() {
                c.write(&WalOp::InsertPreference {
                    user: name.to_string(),
                    pref: pref.clone(),
                })
                .map_err(ServiceError::from)?;
            }
            return Ok(());
        }
        match &self.durable {
            Some(d) => {
                d.add_user_with_profile(name, profile)?;
                Ok(())
            }
            None => Ok(self.core().add_user_with_profile(name, profile)?),
        }
    }

    /// Remove a user, returning their profile.
    pub fn remove_user(&self, name: &str) -> Result<Profile, ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        if let Some(c) = &self.cluster {
            // Read the profile off the primary (the authoritative copy)
            // before logging the removal.
            let primary = c.primary_db().ok_or(ReplicationError::NoPrimary)?;
            let profile = primary.db().profile(name)?;
            c.write(&WalOp::RemoveUser {
                user: name.to_string(),
            })
            .map_err(ServiceError::from)?;
            return Ok(profile);
        }
        match &self.durable {
            Some(d) => {
                let (_ack, profile) = d.remove_user(name)?;
                Ok(profile)
            }
            None => Ok(self.core().remove_user(name)?),
        }
    }

    /// Insert a preference for one user (write-locks only their shard).
    pub fn insert_preference(
        &self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        if let Some(c) = &self.cluster {
            c.write(&WalOp::InsertPreference {
                user: user.to_string(),
                pref,
            })
            .map_err(ServiceError::from)?;
            return Ok(());
        }
        match &self.durable {
            Some(d) => {
                d.insert_preference(user, pref)?;
                Ok(())
            }
            None => Ok(self.core().insert_preference(user, pref)?),
        }
    }

    /// Insert an equality preference for one user from its textual
    /// parts.
    pub fn insert_preference_eq(
        &self,
        user: &str,
        descriptor: &str,
        attr: &str,
        value: ctxpref_relation::Value,
        score: f64,
    ) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        if self.cluster.is_some() || self.durable.is_some() {
            let pref = self.build_eq_preference(descriptor, attr, value, score)?;
            return self.insert_preference(user, pref);
        }
        Ok(self
            .core()
            .insert_preference_eq(user, descriptor, attr, value, score)?)
    }

    /// Insert several equality preferences for one user under a single
    /// migration write guard — the batched-mutation verb behind the
    /// wire protocol's batch frames. Items apply in order and the
    /// batch stops at the first failure: the error reports how many
    /// items landed, so a caller can resume after the prefix instead
    /// of replaying (and double-applying) it.
    ///
    /// Each item is `(descriptor, attr, value, score)` in the same
    /// textual form [`Self::insert_preference_eq`] takes.
    pub fn insert_preferences_eq_bulk(
        &self,
        user: &str,
        items: &[(&str, &str, &str, f64)],
    ) -> Result<usize, BulkError> {
        let _guard = self
            .migrations
            .write_guard(user)
            .map_err(|error| BulkError { applied: 0, error })?;
        let mut applied = 0;
        for (descriptor, attr, value, score) in items {
            let one: Result<(), ServiceError> = (|| {
                if let Some(c) = &self.cluster {
                    let pref =
                        self.build_eq_preference(descriptor, attr, (*value).into(), *score)?;
                    c.write(&WalOp::InsertPreference {
                        user: user.to_string(),
                        pref,
                    })
                    .map_err(ServiceError::from)?;
                    return Ok(());
                }
                match &self.durable {
                    Some(d) => {
                        let pref =
                            self.build_eq_preference(descriptor, attr, (*value).into(), *score)?;
                        d.insert_preference(user, pref)?;
                        Ok(())
                    }
                    None => Ok(self.core().insert_preference_eq(
                        user,
                        descriptor,
                        attr,
                        (*value).into(),
                        *score,
                    )?),
                }
            })();
            match one {
                Ok(()) => applied += 1,
                Err(error) => return Err(BulkError { applied, error }),
            }
        }
        Ok(applied)
    }

    /// Remove one user's preference by index.
    pub fn remove_preference(
        &self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        if let Some(c) = &self.cluster {
            let primary = c.primary_db().ok_or(ReplicationError::NoPrimary)?;
            let pref = primary
                .db()
                .profile(user)?
                .preferences()
                .get(index)
                .cloned();
            // An out-of-range index fails inside the write (nothing is
            // logged), so a successful write implies `pref` was read.
            c.write(&WalOp::RemovePreference {
                user: user.to_string(),
                index,
            })
            .map_err(ServiceError::from)?;
            return pref.ok_or(ServiceError::Core(CoreError::NoSuchPreference(index)));
        }
        match &self.durable {
            Some(d) => {
                let (_ack, pref) = d.remove_preference(user, index)?;
                Ok(pref)
            }
            None => Ok(self.core().remove_preference(user, index)?),
        }
    }

    /// Update the score of one user's preference by index.
    pub fn update_preference_score(
        &self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        if let Some(c) = &self.cluster {
            c.write(&WalOp::UpdateScore {
                user: user.to_string(),
                index,
                score,
            })
            .map_err(ServiceError::from)?;
            return Ok(());
        }
        match &self.durable {
            Some(d) => {
                d.update_preference_score(user, index, score)?;
                Ok(())
            }
            None => Ok(self.core().update_preference_score(user, index, score)?),
        }
    }

    /// Route one operation through whichever write path this service
    /// runs (replicated → durable → plain), with **no** migration
    /// fence check: this is the internal path migration itself uses to
    /// build and tear down per-user state while the fence holds.
    fn write_op(&self, op: &WalOp) -> Result<(), ServiceError> {
        if let Some(c) = &self.cluster {
            c.write(op).map_err(ServiceError::from)?;
            return Ok(());
        }
        match &self.durable {
            Some(d) => {
                d.apply(op)?;
                Ok(())
            }
            None => Ok(op.apply_sharded(&self.core())?),
        }
    }

    /// A consistent per-user export for the migration driver: whether
    /// the user exists, their WAL shard, the shard's last applied LSN
    /// at the cut, and an FNV digest of the profile at the cut. Taken
    /// under the user's shard mutex, so the digest and the LSN agree
    /// exactly. Requires durability (migration replays the WAL).
    pub fn migrate_export(&self, user: &str) -> Result<UserExport, ServiceError> {
        let d = self.durable_db_required()?;
        let cut = d.user_cut(user);
        let core = d.db();
        let digest = cut
            .profile
            .as_ref()
            .map(|p| ctxpref_replication::user_digest(core.env(), core.relation(), user, p))
            .unwrap_or(0);
        Ok(UserExport {
            present: cut.profile.is_some(),
            shard: cut.shard as u64,
            last_lsn: cut.last_lsn,
            digest,
        })
    }

    /// Snapshot one user for migration: a consistent cut's LSN plus
    /// the WAL-op payloads (`add` + one `ins` per preference) that
    /// reconstruct the profile on the destination. The WAL suffix of
    /// the user's shard strictly after the returned LSN is exactly
    /// what the snapshot misses.
    pub fn migrate_snapshot(&self, user: &str) -> Result<(u64, Vec<Vec<u8>>), ServiceError> {
        let d = self.durable_db_required()?;
        let cut = d.user_cut(user);
        let profile = cut
            .profile
            .ok_or_else(|| ServiceError::Core(CoreError::NoSuchUser(user.to_string())))?;
        let core = d.db();
        let ops = ctxpref_replication::snapshot_ops(core.env(), core.relation(), user, &profile);
        Ok((cut.last_lsn, ops))
    }

    /// One page of the user's WAL suffix for migration catch-up:
    /// records of the user's shard with LSN ≥ `from_lsn`, filtered to
    /// the migrating user, plus the highest LSN scanned. `Ok(None)`
    /// means the suffix was garbage-collected into a checkpoint — the
    /// driver must restart from a fresh snapshot. Because replicas
    /// mirror the primary's per-shard LSN sequence, the cursor stays
    /// valid across a failover of this cluster.
    pub fn migrate_pull(
        &self,
        user: &str,
        from_lsn: u64,
        max: usize,
    ) -> Result<Option<ctxpref_replication::UserSuffix>, ServiceError> {
        let d = self.durable_db_required()?;
        let shard = d.db().shard_of(user);
        ctxpref_replication::user_suffix(&d, user, shard, from_lsn, max).map_err(ServiceError::from)
    }

    /// Fence `user` for cut-over at routing epoch `epoch`: client
    /// writes for that one user are refused with the typed, retry-able
    /// [`ServiceError::Migrating`] until the migration finishes or
    /// aborts. Reads keep serving. Idempotent per epoch; an older
    /// epoch is refused with [`ServiceError::StaleMigration`].
    pub fn migrate_fence(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        self.migrations.fence(user, epoch)
    }

    /// Destination side: begin importing `user` at `epoch`. Drops any
    /// existing copy of the user (a previous attempt's partial state),
    /// applies the snapshot ops through the normal write path, and
    /// sets the catch-up watermark to the snapshot's cut LSN. Client
    /// writes for the user are refused until [`Self::migrate_activate`].
    pub fn migrate_import(
        &self,
        user: &str,
        epoch: u64,
        src_lsn: u64,
        ops: &[Vec<u8>],
    ) -> Result<(), ServiceError> {
        self.migrations.begin_import(user, epoch, src_lsn)?;
        // Reset: a partial previous attempt may have left the user
        // behind. The import entry already blocks client writes, so
        // nothing acked can be deleted here.
        match self.write_op(&WalOp::RemoveUser {
            user: user.to_string(),
        }) {
            Ok(()) | Err(ServiceError::Core(_)) => {}
            Err(other) => return Err(other),
        }
        let core = self.core();
        for payload in ops {
            let op = WalOp::decode(payload, core.env(), core.relation())?;
            self.write_op(&op)?;
        }
        Ok(())
    }

    /// Destination side: apply one page of catch-up records. Records
    /// at or below the import watermark are dropped (a retried page —
    /// the ops themselves are not idempotent, the watermark makes the
    /// page so); the watermark then advances to `through`. Returns the
    /// new watermark.
    pub fn migrate_apply(
        &self,
        user: &str,
        epoch: u64,
        through: u64,
        records: &[(u64, Vec<u8>)],
    ) -> Result<u64, ServiceError> {
        let mut watermark = self.migrations.import_watermark(user, epoch)?;
        let core = self.core();
        for (lsn, payload) in records {
            if *lsn <= watermark {
                continue;
            }
            let op = WalOp::decode(payload, core.env(), core.relation())?;
            if op.user() != user {
                // The source filters by user; anything else is damage.
                return Err(ServiceError::Wal(ctxpref_wal::WalError::Payload {
                    reason: format!("catch-up record for {:?} during {user:?}", op.user()),
                }));
            }
            self.write_op(&op)?;
            watermark = *lsn;
            self.migrations.advance_watermark(user, epoch, watermark);
        }
        if through > watermark {
            watermark = through;
            self.migrations.advance_watermark(user, epoch, watermark);
        }
        Ok(watermark)
    }

    /// Destination side: the routing table flipped — drop the import
    /// entry so client writes for `user` flow here. Idempotent.
    pub fn migrate_activate(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        self.migrations.activate(user, epoch)
    }

    /// Source side: the cut-over completed — remove the user's data
    /// (still under the fence, so no write can fork it) and leave a
    /// `Moved` tombstone telling stale clients to refresh their
    /// routing. Idempotent per epoch.
    pub fn migrate_finish(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        match self.migrations.phase_of(user, epoch)? {
            crate::migrate::MigrationPhase::Moved => return Ok(()),
            crate::migrate::MigrationPhase::Fenced => {}
            crate::migrate::MigrationPhase::Importing { .. } => {
                return Err(ServiceError::StaleMigration { current: epoch })
            }
        }
        match self.write_op(&WalOp::RemoveUser {
            user: user.to_string(),
        }) {
            Ok(()) | Err(ServiceError::Core(_)) => {}
            Err(other) => return Err(other),
        }
        self.migrations.finish(user, epoch).map(|_| ())
    }

    /// Abort `epoch`'s migration of `user` on this side: a source
    /// fence lifts (writes flow again), a destination import drops the
    /// partial copy. A newer migration's entry, a completed move, or
    /// no entry at all make this a no-op — abort never touches state
    /// it does not own.
    pub fn migrate_abort(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        if self.migrations.is_import(user, epoch) {
            // Drop the partial copy while the entry still blocks
            // client writes, so nothing acked can slip in and then be
            // deleted with it.
            match self.write_op(&WalOp::RemoveUser {
                user: user.to_string(),
            }) {
                Ok(()) | Err(ServiceError::Core(_)) => {}
                Err(other) => return Err(other),
            }
        }
        self.migrations.abort(user, epoch);
        Ok(())
    }

    /// The migration table: every live fence, import, and tombstone.
    pub fn migration_entries(&self) -> Vec<(String, MigrationEntry)> {
        self.migrations.snapshot()
    }

    /// What a router needs from one probe: whether a primary serves
    /// writes, the replication epoch, and how much state lives here.
    pub fn route_info(&self) -> RouteInfo {
        let (has_primary, epoch) = match &self.cluster {
            Some(c) => {
                let s = c.status();
                (s.primary.is_some(), s.epoch)
            }
            None => (true, 0),
        };
        RouteInfo {
            has_primary,
            epoch,
            users: self.core().user_count() as u64,
            migrations: self.migrations.len() as u64,
        }
    }

    /// Validate an equality preference's textual parts against the live
    /// environment and schema (mirrors the core's
    /// `insert_preference_eq`, but builds the value so it can be logged
    /// before it is applied).
    fn build_eq_preference(
        &self,
        descriptor: &str,
        attr: &str,
        value: ctxpref_relation::Value,
        score: f64,
    ) -> Result<ContextualPreference, CoreError> {
        let core = self.core();
        let cod = parse_descriptor(core.env(), descriptor)?;
        let clause = AttributeClause::new(
            core.relation().schema().require_attr(attr)?,
            CompareOp::Eq,
            value,
        );
        Ok(ContextualPreference::new(cod, clause, score)?)
    }

    /// Take a checkpoint now: snapshot the database next to the log,
    /// rotate the per-shard segments, atomically swap the manifest, and
    /// garbage-collect old generations. Fails with
    /// [`ServiceError::NotDurable`] on a non-durable service.
    pub fn checkpoint(&self) -> Result<CheckpointReport, ServiceError> {
        let durable = self.durable_db_required()?;
        let report = durable.checkpoint()?;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Run one scrub pass now: verify every sealed WAL segment and the
    /// checkpoint snapshot at rest, quarantine what fails its checksum,
    /// and heal the directory with a fresh checkpoint. On a replicated
    /// service every **live** node is scrubbed (crashed nodes are
    /// skipped — quarantine-aware recovery covers them at restart) and
    /// the per-node reports are merged. Never blocks the append path.
    pub fn scrub(&self) -> Result<ScrubReport, ServiceError> {
        if let Some(c) = &self.cluster {
            let c = Arc::clone(c);
            let mut merged = ScrubReport::default();
            for id in 0..c.config().nodes {
                match c.scrub_node(id) {
                    Ok(report) => {
                        record_scrub(&self.counters, &report);
                        merged.segments_verified += report.segments_verified;
                        merged.checkpoints_verified += report.checkpoints_verified;
                        merged.read_errors += report.read_errors;
                        merged.quarantined.extend(report.quarantined);
                        merged.healed |= report.healed;
                    }
                    Err(ReplicationError::NodeDown { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            return Ok(merged);
        }
        let durable = self.durable_db_required()?;
        let report = durable.scrub()?;
        record_scrub(&self.counters, &report);
        Ok(report)
    }

    /// The self-healing storage counters — scrub passes, quarantined
    /// files, heals, rescues, disk-full sheds — without running a pass.
    /// Fails with [`ServiceError::NotDurable`] on a non-durable
    /// service (there is nothing at rest to scrub).
    pub fn scrub_status(&self) -> Result<ScrubStatus, ServiceError> {
        if !self.is_durable() {
            return Err(ServiceError::NotDurable);
        }
        let stats = self.stats();
        Ok(ScrubStatus {
            passes: stats.scrub_passes,
            quarantined: stats.scrub_quarantined,
            read_errors: stats.scrub_read_errors,
            heals: stats.scrub_heals,
            rescued_shards: stats.rescued_shards,
            disk_full_sheds: stats.wal_disk_full_sheds,
            rotate_failures: stats.wal_rotate_failures,
        })
    }

    /// Fsync all pending group-commit WAL records, returning how many
    /// became durable.
    pub fn flush_wal(&self) -> Result<u64, ServiceError> {
        let durable = self.durable_db_required()?;
        Ok(durable.flush()?)
    }

    /// Per-shard WAL positions plus append/batch/rotation totals (the
    /// primary's, on a replicated service).
    pub fn wal_status(&self) -> Result<WalStatus, ServiceError> {
        let durable = self.durable_db_required()?;
        Ok(durable.wal_status())
    }

    /// One user's query-cache statistics.
    pub fn cache_stats(&self, user: &str) -> Result<Option<CacheStats>, ServiceError> {
        Ok(self.core().cache_stats(user)?)
    }

    /// One user's view-serving counters.
    pub fn view_stats(&self, user: &str) -> Result<ctxpref_views::ViewStats, ServiceError> {
        Ok(self.core().view_stats(user)?)
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// materialized on first use, never evicted, rebuilt lazily after
    /// recovery (view contents are derived data and are never trusted
    /// across a WAL replay).
    pub fn pin_view(&self, user: &str, state: &ContextState) -> Result<(), ServiceError> {
        Ok(self.core().pin_view(user, state)?)
    }

    /// Unpin a previously pinned view; returns whether it was pinned.
    pub fn unpin_view(&self, user: &str, state: &ContextState) -> Result<bool, ServiceError> {
        Ok(self.core().unpin_view(user, state)?)
    }

    /// A human-readable view-catalog report: aggregate counters first,
    /// then one line per user with materialized views (their pinned
    /// states listed). Served by the `views-status` wire verb.
    pub fn views_status(&self) -> String {
        let core = self.core();
        let totals = core.views_totals();
        let mut body = format!(
            "views materialized={} pinned={} hits={} misses={} patches={} rebuilds={}\n",
            totals.materialized_views,
            totals.pinned_views,
            totals.view_hits,
            totals.view_misses,
            totals.view_patches,
            totals.view_rebuilds,
        );
        for user in core.users_sorted() {
            let Ok(s) = core.view_stats(&user) else {
                continue;
            };
            if s.materialized_views == 0 && s.pinned_views == 0 {
                continue;
            }
            let pinned: Vec<String> = core
                .pinned_views(&user)
                .unwrap_or_default()
                .iter()
                .map(|st| st.display(core.env()).to_string())
                .collect();
            body.push_str(&format!(
                "user {user} materialized={} pinned={} hits={} patches={} rebuilds={}{}{}\n",
                s.materialized_views,
                s.pinned_views,
                s.view_hits,
                s.view_patches,
                s.view_rebuilds,
                if pinned.is_empty() { "" } else { " states=" },
                pinned.join(";"),
            ));
        }
        body
    }

    /// Replace the query options used by every query on the database.
    pub fn set_query_defaults(&self, options: ctxpref_core::QueryOptions) {
        self.core().set_query_defaults(options);
    }

    /// Read access to the underlying sharded database (for inspection;
    /// queries should go through [`Self::query_state`] to get fault
    /// tolerance). The closure takes no lock itself — accessor methods
    /// on the core lock individual shards as needed.
    pub fn with_db<R>(&self, f: impl FnOnce(&ShardedMultiUserDb) -> R) -> R {
        f(&self.core())
    }

    /// Snapshot the database to `path`: an atomic, checksummed write,
    /// with transient I/O failures retried per the retry policy (capped
    /// by the storage deadline). The snapshot is taken shard by shard
    /// before any I/O starts, so the save never holds a shard lock
    /// across disk writes and queries proceed during the save.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServiceError> {
        let snapshot = self.core().snapshot();
        retry_storage(
            &self.cfg.retry,
            self.cfg.storage_deadline,
            &self.counters,
            || ctxpref_storage::save_multi_user(&path, &snapshot),
        )
    }

    /// Stop accepting requests, drain the workers, and return the
    /// database.
    pub fn shutdown(mut self) -> MultiUserDb {
        self.stop();
        let slot = Arc::clone(&self.db);
        drop(self);
        // The workers and maintenance threads are joined, so the slot
        // and the core inside it both have exactly one owner left.
        match Arc::try_unwrap(slot).map(RwLock::into_inner) {
            Ok(db) => match Arc::try_unwrap(db) {
                Ok(sharded) => sharded.into_db(),
                // A caller still holds a clone-derived reference
                // (cannot happen through the public API).
                Err(_arc) => unreachable!("shutdown consumes the only core handle"),
            },
            Err(_slot) => unreachable!("shutdown consumes the only service handle"),
        }
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        // Maintenance first: dropping a stop sender disconnects that
        // thread's recv_timeout loop.
        for (stop, handle) in self.maintenance.drain(..) {
            drop(stop);
            let _ = handle.join();
        }
        if let Some(d) = &self.durable {
            // Best-effort: make pending group-commit records durable on
            // a clean shutdown.
            let _ = d.flush();
        }
        self.sender.take(); // closing the channel stops the workers
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Released last so shutdown()'s Arc::try_unwrap on the database
        // sees the service as the sole owner. Dropping the cluster
        // releases every node's directory lock and core handle (the
        // tick thread's clone was joined with the maintenance drain).
        self.durable = None;
        self.cluster = None;
    }
}

impl Drop for CtxPrefService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Point `slot` at `fresh` when it holds a different core instance
/// (pointer identity — content equality is irrelevant, the slot must
/// track the cluster's live object).
fn refresh_serving_slot(slot: &RwLock<Arc<ShardedMultiUserDb>>, fresh: &Arc<ShardedMultiUserDb>) {
    if !Arc::ptr_eq(&slot.read(), fresh) {
        *slot.write() = Arc::clone(fresh);
    }
}

/// Run `op` up to `policy.max_attempts` times, sleeping
/// `base_backoff · 2ⁿ⁻¹` between attempts, but never sleeping past
/// `deadline` (measured from entry): when the next backoff would cross
/// it, give up with [`ServiceError::DeadlineExceeded`] instead. Only
/// I/O errors are considered transient; parse/model/corruption errors
/// fail immediately.
fn retry_storage<T>(
    policy: &RetryPolicy,
    deadline: Duration,
    counters: &Counters,
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, ServiceError> {
    let started = Instant::now();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(StorageError::Io(_)) if attempt < policy.max_attempts => {
                let backoff = policy.base_backoff * 2u32.pow(attempt - 1);
                if started.elapsed() + backoff >= deadline {
                    counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::DeadlineExceeded { deadline });
                }
                counters.storage_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
            }
            Err(e) => return Err(ServiceError::Storage(e)),
        }
    }
}
