//! The four workloads and the metric vocabulary, fixed in code so that
//! every run of a workload drives the same configuration; the seed
//! only picks users, states, arrival times and write targets.

use std::time::Duration;

/// Seed of the POI relation (`poi_relation(poi_env(), DATA_SEED, PER_REGION)`).
pub const DATA_SEED: u64 = 2007;
/// POI density knob: 1,740 tuples over the 16 regions.
pub const PER_REGION: usize = 120;
/// Entries of each user's context query tree (the qcache).
pub const QCACHE_CAPACITY: usize = 64;
/// Rows asked for by a `topk` read.
pub const TOPK_K: usize = 10;
/// Rows asked for by a full-ranking `query` read.
pub const QUERY_K: usize = 20;
/// Per-request deadline carried on the wire.
pub const DEADLINE: Duration = Duration::from_millis(1000);
/// Connections (and threads) of the closed-loop phase.
pub const CLOSED_CONNECTIONS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 16;

/// How mutations reach the disk and the other nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// In-memory service, no write-ahead log.
    Memory,
    /// One durable node: per-record fsync, checkpoints every `checkpoint`.
    Durable {
        /// Background checkpoint interval.
        checkpoint: Duration,
    },
    /// A quorum-acked replicated cluster with the `ReplicatedConfig`
    /// defaults (per-record fsync, 25 ms tick).
    Quorum {
        /// Cluster size.
        nodes: usize,
    },
}

/// One workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Registered users that read.
    pub users: usize,
    /// Extra users that only the write probe of a read-only workload
    /// rescores, so that its writes never touch a reader's caches.
    pub probe_users: usize,
    /// Zipf exponent of the user draw (0 = uniform).
    pub user_skew: f64,
    /// Per-user hot set of context states; `None` roams all 240.
    pub hot_states: Option<usize>,
    /// Share of ops that are `topk` reads (k = [`TOPK_K`]).
    pub topk_share: f64,
    /// Share of ops that are full-ranking `query` reads (k = [`QUERY_K`]).
    pub query_share: f64,
    /// Share of ops that are `UpdateScore` rescores.
    pub write_share: f64,
    /// Nominal open-loop arrival rate, ops per second.
    pub rate: f64,
    /// Write path of the service under test.
    pub durability: Durability,
}

impl Spec {
    /// Whether the workload's own op mix contains writes.
    pub fn has_writes(&self) -> bool {
        self.write_share > 0.0
    }

    /// Every registered user, probe users included.
    pub fn population(&self) -> usize {
        self.users + self.probe_users
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hot_topk",
        users: 256,
        probe_users: 16,
        user_skew: 1.1,
        hot_states: Some(8),
        topk_share: 1.0,
        query_share: 0.0,
        write_share: 0.0,
        rate: 3500.0,
        durability: Durability::Memory,
    },
    Spec {
        name: "roam_full",
        users: 64,
        probe_users: 16,
        user_skew: 0.0,
        hot_states: None,
        topk_share: 0.0,
        query_share: 1.0,
        write_share: 0.0,
        rate: 800.0,
        durability: Durability::Memory,
    },
    Spec {
        name: "edit_mix",
        users: 64,
        probe_users: 0,
        user_skew: 1.1,
        hot_states: Some(8),
        topk_share: 0.6,
        query_share: 0.2,
        write_share: 0.2,
        rate: 600.0,
        durability: Durability::Durable {
            checkpoint: Duration::from_secs(4),
        },
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("routed_rtt_p50_us", "us"),
    ("write_rtt_p50_us", "us"),
    ("peak_qps", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("resolve.rank_us", "us"),
    ("resolve.cells_per_query", "count"),
    ("resolve.allocs_per_op", "count"),
    ("qcache.hit_ratio", "ratio"),
    ("qcache.invalidations_per_kop", "count"),
    ("qcache.evictions_per_kop", "count"),
    ("views.hit_ratio", "ratio"),
    ("views.patches_per_kop", "count"),
    ("views.rebuilds_per_kop", "count"),
    ("core.read_self_us", "us"),
    ("core.write_us", "us"),
    ("core.lock_wait_us_per_op", "us"),
    ("core.allocs_per_op", "count"),
    ("service.self_us", "us"),
    ("service.allocs_per_op", "count"),
    ("service.rung_share.view", "ratio"),
    ("service.rung_share.cached", "ratio"),
    ("service.rung_share.exact", "ratio"),
    ("service.rung_share.nearest", "ratio"),
    ("service.rung_share.default", "ratio"),
    ("service.shed", "count"),
    ("service.deadline_exceeded", "count"),
    ("net.codec_us", "us"),
    ("net.transport_us", "us"),
    ("net.request_bytes", "B"),
    ("net.response_bytes", "B"),
    ("net.response_rows", "count"),
    ("net.allocs_per_op", "count"),
    ("router.self_us", "us"),
    ("router.allocs_per_op", "count"),
    ("wal.self_us", "us"),
    ("wal.bytes_per_write", "B"),
    ("wal.checkpoints", "count"),
    ("replication.self_us", "us"),
    ("replication.max_lag", "count"),
    ("replication.seed_writes", "count"),
    ("ledger.unattributed_us", "us"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.routed_traced_us", "us"),
    ("ledger.tracing_overhead_us", "us"),
    ("ledger.routed_rtt_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("load.query_p50_us", "us"),
    ("load.query_p99_us", "us"),
    ("load.write_p50_us", "us"),
    ("load.write_p99_us", "us"),
];
