//! Building the system under test: data, profiles, service (plus a
//! durable directory or a replicated cluster) and a listening server.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextEnvironment;
use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_net::{NetServer, NetServerConfig};
use ctxpref_profile::Profile;
use ctxpref_relation::Relation;
use ctxpref_service::{CtxPrefService, DurabilityConfig, ReplicatedConfig, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

use crate::gen::{rescore_targets, user_name, Universe};
use crate::spec::{Durability, Spec, DATA_SEED, PER_REGION, QCACHE_CAPACITY};

/// The workload's data: environment, relation, one default profile
/// per user, and what the generator needs from them.
#[derive(Debug, Clone)]
pub struct Data {
    /// The POI context environment.
    pub env: ContextEnvironment,
    /// The POI relation.
    pub rel: Relation,
    /// Profile of user `n` at index `n`.
    pub profiles: Vec<Profile>,
    /// Every detailed context state.
    pub universe: Universe,
    /// Rescorable preferences per user.
    pub targets: Vec<Vec<(u16, f64)>>,
}

impl Data {
    /// The data of `spec`: user `n` (probe users included) gets
    /// demographic cell `n mod 12`.
    pub fn new(spec: &Spec) -> Self {
        let env = poi_env();
        let rel = poi_relation(&env, DATA_SEED, PER_REGION);
        let demos = all_demographics();
        let cells: Vec<Profile> = demos
            .iter()
            .map(|&d| default_profile(&env, &rel, d))
            .collect();
        let cell_targets: Vec<Vec<(u16, f64)>> =
            cells.iter().map(|p| rescore_targets(&env, p)).collect();
        let profiles = (0..spec.population())
            .map(|n| cells[n % cells.len()].clone())
            .collect();
        let targets = (0..spec.population())
            .map(|n| cell_targets[n % cells.len()].clone())
            .collect();
        let universe = Universe::new(&env);
        Self {
            env,
            rel,
            profiles,
            universe,
            targets,
        }
    }

    /// A plain multi-user database holding every user, with a qcache
    /// of `cache` entries per user (0 = none).
    pub fn db(&self, cache: usize) -> MultiUserDb {
        let mut db = MultiUserDb::new(self.env.clone(), self.rel.clone(), cache);
        for (n, p) in self.profiles.iter().enumerate() {
            db.add_user_with_profile(&user_name(n as u32), p.clone())
                .expect("benchmark users are distinct");
        }
        db
    }

    /// A fresh-resolution oracle: no qcache, one shard, profiles as
    /// given.
    pub fn oracle(&self, profiles: &[Profile]) -> ShardedMultiUserDb {
        let mut db = MultiUserDb::new(self.env.clone(), self.rel.clone(), 0);
        for (n, p) in profiles.iter().enumerate() {
            db.add_user_with_profile(&user_name(n as u32), p.clone())
                .expect("benchmark users are distinct");
        }
        ShardedMultiUserDb::from_db(db, 1)
    }
}

/// The service of `spec` over `data`; durable state goes under `dir`.
pub fn service(spec: &Spec, data: &Data, dir: &Path) -> Arc<CtxPrefService> {
    service_as(spec.durability, data, dir)
}

/// A service with write path `durability` over `data`.
pub fn service_as(durability: Durability, data: &Data, dir: &Path) -> Arc<CtxPrefService> {
    let db = data.db(QCACHE_CAPACITY);
    let cfg = ServiceConfig::default();
    let service = match durability {
        Durability::Memory => CtxPrefService::new(db, cfg),
        Durability::Durable { checkpoint } => {
            CtxPrefService::new_durable(db, cfg, durable_config(dir, checkpoint))
                .expect("creating the durable directory")
        }
        Durability::Quorum { nodes } => {
            CtxPrefService::new_replicated(db, cfg, ReplicatedConfig::new(dir, nodes))
                .expect("bootstrapping the replicated cluster")
        }
    };
    Arc::new(service)
}

/// The `DurabilityConfig` defaults (per-record fsync) with background
/// checkpoints every `checkpoint`.
pub fn durable_config(dir: &Path, checkpoint: Duration) -> DurabilityConfig {
    let mut dcfg = DurabilityConfig::new(dir);
    dcfg.checkpoint_interval = Some(checkpoint);
    dcfg
}

/// A service behind a loopback server.
pub struct Stack {
    /// The service under test.
    pub service: Arc<CtxPrefService>,
    /// The server fronting it.
    pub server: NetServer,
    /// Where its durable state lives.
    pub dir: PathBuf,
}

impl Stack {
    /// Build `spec`'s service over `data` and start serving it on an
    /// ephemeral loopback port.
    pub fn start(spec: &Spec, data: &Data, dir: PathBuf) -> Self {
        let service = service(spec, data, &dir);
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetServerConfig::default(),
        )
        .expect("binding the loopback server");
        Self {
            service,
            server,
            dir,
        }
    }

    /// The server's address.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Stop the server and hand back the service.
    pub fn stop(self) -> (Arc<CtxPrefService>, PathBuf) {
        self.server.shutdown();
        (self.service, self.dir)
    }
}

/// A scratch directory for one run's durable state, inside the
/// benchmark's own `out/` directory.
pub fn scratch_dir(workload: &str, seed: u64) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the run's scratch directory");
    dir
}
