//! The traced run: an untraced open loop at the workload's nominal
//! rate, then the same seeded ops replayed serially at each layer's
//! public entry point, each layer on its own identically built
//! and warmed instance, so that every layer sees the same hit/miss
//! sequence. A layer's self time is its time minus the next inner
//! layer's; the ledger is those self times next to the untraced routed
//! round trip.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ctxpref_context::ExtendedContextDescriptor;
use ctxpref_core::{QueryOptions, ShardedMultiUserDb};
use ctxpref_net::{codec, NetClient, NetClientConfig, Request, Response};
use ctxpref_resolve::{rank_cs, rank_cs_topk};
use ctxpref_service::{CtxPrefService, Priority, ServiceStats};
use ctxpref_workload::user_study::descriptor_of_state;

use crate::alloc;
use crate::check::fresh_rows;
use crate::gen::{arrivals, user_name, Kind, Op, OpGen, Stream};
use crate::load::{self, request};
use crate::report::{mean, median, quantile};
use crate::run::{warm_up, Outcome, PROBE_WRITES};
use crate::setup::{self, Data, Stack};
use crate::spec::{Durability, Spec, DEADLINE, QCACHE_CAPACITY, TOPK_K};

/// Ops of the workload's mix replayed at every layer.
pub const REPLAY_OPS: usize = 1500;
/// Rescores replayed down the write ladder.
pub const LADDER_WRITES: usize = 300;
/// Users of the write ladder's side instances on read-only workloads.
pub const LADDER_USERS: usize = 16;
/// Share of the routed round trip the ledger may leave unattributed.
pub const UNATTRIBUTED_LIMIT: f64 = 0.15;

/// One layer's measurement of one op.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    us: f64,
    allocs: f64,
    /// The core answered by resolution (not a view or qcache hit).
    resolved: bool,
    cells: f64,
}

/// One recorded span.
struct Span {
    req: usize,
    layer: &'static str,
    start: Duration,
    end: Duration,
}

/// Span recorder and allocation counter around each layer call.
struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// Time `f` as a span of `layer`. The in-process layers run on
    /// this thread and are charged its allocations only; the others
    /// are charged every thread's.
    fn time<R>(&mut self, req: usize, layer: &'static str, f: impl FnOnce() -> R) -> (R, Rec) {
        let count = if matches!(layer, "resolve" | "core" | "codec") {
            alloc::count_here
        } else {
            alloc::count
        };
        let a0 = count();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let allocs = (count() - a0) as f64;
        if self.on {
            self.spans.push(Span {
                req,
                layer,
                start: t0 - self.epoch,
                end: t1 - self.epoch,
            });
        }
        let rec = Rec {
            us: (t1 - t0).as_secs_f64() * 1e6,
            allocs,
            ..Rec::default()
        };
        (r, rec)
    }
}

fn ecod(data: &Data, op: &Op) -> ExtendedContextDescriptor {
    descriptor_of_state(&data.env, &data.universe.states[op.state as usize]).into()
}

/// Counter deltas of the core replay.
#[derive(Debug, Default)]
struct CoreCounts {
    qcache_hits: f64,
    qcache_misses: f64,
    invalidations: f64,
    evictions: f64,
    view_hits: f64,
    view_misses: f64,
    patches: f64,
    rebuilds: f64,
}

impl CoreCounts {
    fn between(db: &ShardedMultiUserDb, run: impl FnOnce()) -> Self {
        let (c0, v0) = (db.cache_totals(), db.views_totals());
        run();
        let (c1, v1) = (db.cache_totals(), db.views_totals());
        let d = |a: u64, b: u64| (b - a) as f64;
        Self {
            qcache_hits: d(c0.hits, c1.hits),
            qcache_misses: d(c0.misses, c1.misses),
            invalidations: d(c0.invalidations, c1.invalidations),
            evictions: d(c0.evictions, c1.evictions),
            view_hits: d(v0.view_hits, v1.view_hits),
            view_misses: d(v0.view_misses, v1.view_misses),
            patches: d(v0.view_patches, v1.view_patches),
            rebuilds: d(v0.view_rebuilds, v1.view_rebuilds),
        }
    }
}

/// Per-layer records of the replay, index-aligned with the ops.
#[derive(Debug, Default)]
struct Replay {
    resolve: Vec<Rec>,
    core: Vec<Rec>,
    service: Vec<Rec>,
    client: Vec<Rec>,
    router: Vec<Rec>,
    /// The router again, untraced: the ledger's reference.
    plain: Vec<Rec>,
    /// Each op's request and response, for the codec replay.
    msgs: Vec<(Request, Response)>,
    counts: CoreCounts,
}

/// Replay `ops` at every layer. Each layer has its own instance, built
/// and warmed identically; the layers take turns op by op, so drift in
/// the host's speed over the replay hits every layer alike.
fn replay(
    spec: &Spec,
    data: &Data,
    seed: u64,
    ops: &[Op],
    dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Replay {
    // `rank_cs` / `rank_cs_topk` on each user's tree; trees are rebuilt
    // after a rescore outside the timed call.
    let bare = ShardedMultiUserDb::from_db(data.db(0), 1);
    let tree_of = |u: u32| bare.tree(&user_name(u)).expect("replay users exist");
    let mut trees: Vec<_> = (0..data.profiles.len() as u32).map(tree_of).collect();
    let o = QueryOptions::default();
    // The sharded core, the service, and two loopback stacks (one for
    // `NetClient`, one for `Router`), plus an untraced router stack.
    let core = ShardedMultiUserDb::from_db(data.db(QCACHE_CAPACITY), ctxpref_core::DEFAULT_SHARDS);
    warm_up(spec, data, &core, seed);
    let service = setup::service(spec, data, &dir.join("service"));
    let stacks: Vec<Stack> = ["client", "router", "plain"]
        .iter()
        .map(|sub| Stack::start(spec, data, dir.join(sub)))
        .collect();
    service.with_db(|db| warm_up(spec, data, db, seed));
    for s in &stacks {
        s.service.with_db(|db| warm_up(spec, data, db, seed));
    }
    let mut client = NetClient::connect(stacks[0].addr(), NetClientConfig::default());
    let mut router = load::router(&stacks[1].addr());
    let mut plain = load::router(&stacks[2].addr());
    // The oracle follows the replay's rescores, so every traced answer
    // can be checked exactly.
    let oracle = data.oracle(&data.profiles);

    let mut r = Replay::default();
    let core_db = &core;
    r.counts = CoreCounts::between(core_db, || {
        for (j, op) in ops.iter().enumerate() {
            let user = user_name(op.user);
            let state = &data.universe.states[op.state as usize];
            alloc::arm(true);

            // resolve
            r.resolve.push(match op.kind {
                Kind::Rescore { index, score } => {
                    if let Err(e) = bare.update_preference_score(&user, usize::from(index), score) {
                        out.fail(1, format!("resolve replay rescore: {e}"));
                    }
                    trees[op.user as usize] = tree_of(op.user);
                    Rec::default()
                }
                kind => {
                    let (tree, q) = (&trees[op.user as usize], ecod(data, op));
                    let (a, mut rec) = tr.time(j, "resolve", || match kind {
                        Kind::TopK => {
                            rank_cs_topk(tree, &data.rel, &q, o.distance, o.tie, o.combiner, TOPK_K)
                        }
                        _ => rank_cs(tree, &data.rel, &q, o.distance, o.tie, o.combiner),
                    });
                    rec.cells = a.map_or(0.0, |q| q.total_cells() as f64);
                    rec
                }
            });

            // core
            let (resolved, mut rec) = match op.kind {
                Kind::TopK => {
                    let (a, rec) =
                        tr.time(j, "core", || core_db.query_state_topk(&user, state, TOPK_K));
                    (a.map(|(_, view)| !view), rec)
                }
                Kind::Query => {
                    let (a, rec) = tr.time(j, "core", || core_db.query_state(&user, state));
                    (a.map(|a| !a.from_cache), rec)
                }
                Kind::Rescore { index, score } => {
                    let (a, rec) = tr.time(j, "core", || {
                        core_db.update_preference_score(&user, usize::from(index), score)
                    });
                    (a.map(|()| false), rec)
                }
            };
            match resolved {
                Ok(resolved) => rec.resolved = resolved,
                Err(e) => out.fail(1, format!("core replay {op:?}: {e}")),
            }
            r.core.push(rec);

            // service
            let (a, rec) = tr.time(j, "service", || match op.kind {
                Kind::TopK => service
                    .query_topk_tiered(&user, state, TOPK_K, DEADLINE, Priority::Interactive)
                    .map(drop),
                Kind::Query => service
                    .query_tiered(&user, state, DEADLINE, Priority::Interactive)
                    .map(drop),
                Kind::Rescore { index, score } => {
                    service.update_preference_score(&user, usize::from(index), score)
                }
            });
            if let Err(e) = a {
                out.fail(1, format!("service replay {op:?}: {e}"));
            }
            r.service.push(rec);

            // client
            let req = request(op, &data.universe);
            let (a, rec) = tr.time(j, "client", || client.request(&req));
            match (op.kind, a) {
                (Kind::Rescore { index, score }, Ok(resp @ Response::Ok)) => {
                    oracle
                        .update_preference_score(&user, usize::from(index), score)
                        .expect("the oracle takes every acknowledged rescore");
                    r.msgs.push((req, resp));
                }
                (Kind::TopK | Kind::Query, Ok(Response::Answer(a))) => {
                    let served = a.rows.iter().map(|r| (r.name.clone(), r.score));
                    if !served.eq(fresh_rows(&oracle, &data.universe, op)) {
                        out.fail(
                            1,
                            format!("traced answer to {op:?} differs from the oracle"),
                        );
                    }
                    r.msgs.push((req, Response::Answer(a)));
                }
                (_, other) => {
                    out.fail(1, format!("client replay {op:?}: {other:?}"));
                    r.msgs.push((req, Response::Ok));
                }
            }
            r.client.push(rec);

            // router, traced and not, in alternating order so that
            // neither always follows the client's stack
            let mut traced = |tr: &mut Tracer, out: &mut Outcome| {
                let (a, rec) = tr.time(j, "router", || {
                    load::routed(&mut router, op, &data.universe)
                });
                if let Err(e) = a {
                    out.fail(1, format!("router replay {op:?}: {e}"));
                }
                rec
            };
            let mut untraced = |tr: &mut Tracer, out: &mut Outcome| {
                alloc::arm(false);
                let on = std::mem::replace(&mut tr.on, false);
                let (a, rec) =
                    tr.time(j, "router", || load::routed(&mut plain, op, &data.universe));
                tr.on = on;
                if let Err(e) = a {
                    out.fail(1, format!("untraced router replay {op:?}: {e}"));
                }
                alloc::arm(true);
                rec
            };
            let (rec_traced, rec) = if j % 2 == 0 {
                let t = traced(tr, out);
                (t, untraced(tr, out))
            } else {
                let u = untraced(tr, out);
                (traced(tr, out), u)
            };
            alloc::arm(false);
            r.router.push(rec_traced);
            r.plain.push(rec);
        }
    });
    for s in stacks {
        s.stop();
    }
    r
}

/// Encode and decode each op's actual request and response.
fn replay_codec(msgs: &[(Request, Response)], tr: &mut Tracer) -> (Vec<Rec>, [f64; 3]) {
    let (mut req_b, mut resp_b, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    alloc::arm(true);
    let recs = msgs
        .iter()
        .enumerate()
        .map(|(j, (req, resp))| {
            let id = j as u64 + 1;
            let ((q, p), rec) = tr.time(j, "codec", || {
                let q = codec::encode_request(id, req);
                let back = codec::decode_request(&q).expect("a request round-trips");
                let p = codec::encode_response(id, resp);
                let back2 = codec::decode_response(&p).expect("a response round-trips");
                std::hint::black_box((back, back2));
                (q.len(), p.len())
            });
            if let Response::Answer(a) = resp {
                req_b.push(q as f64);
                resp_b.push(p as f64);
                rows.push(a.rows.len() as f64);
            }
            rec
        })
        .collect();
    alloc::arm(false);
    (recs, [mean(&req_b), mean(&resp_b), mean(&rows)])
}

/// What the write ladder measured.
struct Ladder {
    /// Per-op µs through the core and the in-memory, durable and
    /// quorum services.
    us: [Vec<f64>; 4],
    /// WAL bytes appended per rescore.
    wal_bytes: f64,
    /// Writes the replicated bootstrap seeded (one per user and per
    /// preference).
    seed_writes: f64,
    /// Most records the slowest replica trailed right after an ack.
    max_lag: f64,
}

/// The write ladder: the same rescores through the core and through
/// in-memory, durable and replicated services.
fn write_ladder(spec: &Spec, seed: u64, dir: &Path, out: &mut Outcome) -> Ladder {
    let ladder_spec = if spec.has_writes() {
        *spec
    } else {
        Spec {
            users: LADDER_USERS,
            ..*spec
        }
    };
    let data = Data::new(&ladder_spec);
    let mut g = OpGen::new(
        &ladder_spec,
        seed,
        Stream::Probe,
        &data.targets,
        data.universe.states.len(),
    );
    let ops: Vec<Op> = (0..LADDER_WRITES).map(|_| g.next_write()).collect();
    let rescore = |op: &Op| match op.kind {
        Kind::Rescore { index, score } => (user_name(op.user), usize::from(index), score),
        _ => unreachable!("the ladder replays rescores only"),
    };

    let core = ShardedMultiUserDb::from_db(data.db(QCACHE_CAPACITY), ctxpref_core::DEFAULT_SHARDS);
    warm_up(&ladder_spec, &data, &core, seed);
    let core_us: Vec<f64> = ops
        .iter()
        .map(|op| {
            let (u, i, s) = rescore(op);
            let t = Instant::now();
            if let Err(e) = core.update_preference_score(&u, i, s) {
                out.fail(1, format!("core rescore: {e}"));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(core);

    let rung = |durability: Durability, sub: &str, out: &mut Outcome| {
        let service = setup::service_as(durability, &data, &dir.join(sub));
        service.with_db(|db| warm_up(&ladder_spec, &data, db, seed));
        let wal_bytes = |s: &CtxPrefService| {
            s.wal_status()
                .map_or(0, |w| w.shards.iter().map(|s| s.seg_bytes).sum::<u64>())
        };
        let b0 = wal_bytes(&service);
        let mut lag = 0;
        let us: Vec<f64> = ops
            .iter()
            .map(|op| {
                let (u, i, s) = rescore(op);
                let t = Instant::now();
                if let Err(e) = service.update_preference_score(&u, i, s) {
                    out.fail(1, format!("{sub} rescore: {e}"));
                }
                let us = t.elapsed().as_secs_f64() * 1e6;
                // How far the slowest replica trails once the quorum acked.
                if let Some(c) = service.cluster() {
                    lag = lag.max(c.status().max_lag);
                }
                us
            })
            .collect();
        let bytes = (wal_bytes(&service) - b0) as f64 / ops.len() as f64;
        (us, bytes, lag as f64)
    };
    let (memory, _, _) = rung(Durability::Memory, "ladder-memory", out);
    // No background checkpoint during the ladder: segment bytes must
    // only grow.
    let (durable, bytes, _) = rung(
        Durability::Durable {
            checkpoint: Duration::from_secs(3600),
        },
        "ladder-durable",
        out,
    );
    let (quorum, _, max_lag) = rung(Durability::Quorum { nodes: 3 }, "ladder-quorum", out);
    let seed_writes =
        (data.profiles.iter().map(|p| p.len()).sum::<usize>() + ladder_spec.users) as f64;
    out.attempted += 4 * ops.len() as u64;
    Ladder {
        us: [core_us, memory, durable, quorum],
        wal_bytes: bytes,
        seed_writes,
        max_lag,
    }
}

/// What the untraced open loop of the traced run observed.
struct LoadSnapshot {
    late_p99_us: f64,
    query_us: [f64; 2],
    write_us: [f64; 2],
    stats: [ServiceStats; 2],
    ops: f64,
}

fn open_loop_snapshot(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    dir: &Path,
    out: &mut Outcome,
) -> LoadSnapshot {
    let data = Data::new(spec);
    let stack = Stack::start(spec, &data, dir.join("load"));
    stack.service.with_db(|db| warm_up(spec, &data, db, seed));
    let offsets = arrivals(seed, spec.rate, Duration::from_secs(seconds) / 2);
    let mut g = OpGen::new(
        spec,
        seed,
        Stream::Open,
        &data.targets,
        data.universe.states.len(),
    );
    let ops: Vec<Op> = offsets.iter().map(|_| g.next_op()).collect();
    let before = stack.service.stats();
    let (tally, late) = load::open_loop(&stack.addr(), &ops, &offsets, &data.universe, &|_| false);
    out.count(&tally, "traced run's open loop");
    let after = stack.service.stats();
    // A read-only workload's writes come from the probe users.
    let writes = if spec.has_writes() {
        tally.writes.clone()
    } else {
        let mut g = OpGen::new(
            spec,
            seed,
            Stream::Probe,
            &data.targets,
            data.universe.states.len(),
        );
        let t = load::serial(
            &stack.addr(),
            &mut || g.next_write(),
            &data.universe,
            Duration::ZERO,
            PROBE_WRITES,
            &|_| false,
        );
        out.count(&t, "traced run's write probe");
        t.writes
    };
    stack.stop();
    let reads: Vec<f64> = tally.reads.iter().map(|r| r.0).collect();
    LoadSnapshot {
        late_p99_us: quantile(&late, 0.99),
        query_us: [quantile(&reads, 0.5), quantile(&reads, 0.99)],
        write_us: [quantile(&writes, 0.5), quantile(&writes, 0.99)],
        stats: [before, after],
        ops: ops.len() as f64,
    }
}

/// The layer an optimisation of each workload should show in, per
/// the benchmark's predictions: (read ledger, write ladder).
fn predicted(spec: &Spec) -> (&'static str, &'static str) {
    match spec.name {
        "roam_full" => ("resolve", "core"),
        "edit_mix" => ("transport", "wal"),
        _ => ("transport", "core"),
    }
}

fn write_spans(
    spec: &Spec,
    seed: u64,
    ops: &[Op],
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", spec.name));
    let mut text = String::new();
    let mut bounds: Vec<Option<(Duration, Duration)>> = vec![None; ops.len()];
    for s in spans {
        let b = bounds[s.req].get_or_insert((s.start, s.end));
        b.0 = b.0.min(s.start);
        b.1 = b.1.max(s.end);
    }
    for (j, b) in bounds.iter().enumerate() {
        if let Some((start, end)) = b {
            let _ = writeln!(
                text,
                "{{\"span\": \"op-{j}\", \"req\": {j}, \"layer\": \"op\", \"parent\": null, \"kind\": \"{:?}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                ops[j].kind,
                start.as_secs_f64() * 1e6,
                end.as_secs_f64() * 1e6
            );
        }
    }
    for (n, s) in spans.iter().enumerate() {
        let _ = writeln!(
            text,
            "{{\"span\": \"s-{n}\", \"req\": {}, \"layer\": \"{}\", \"parent\": \"op-{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.req,
            s.layer,
            s.req,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        );
    }
    std::fs::create_dir_all(path.parent().expect("out/ has a parent"))?;
    std::fs::write(&path, text)?;
    Ok(path)
}

/// The traced run.
pub fn run(spec: &Spec, seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let load = open_loop_snapshot(spec, seed, seconds, dir, &mut out);

    let data = Data::new(spec);
    let mut g = OpGen::new(
        spec,
        seed,
        Stream::Trace,
        &data.targets,
        data.universe.states.len(),
    );
    let ops: Vec<Op> = (0..REPLAY_OPS).map(|_| g.next_op()).collect();
    out.attempted += 6 * ops.len() as u64;

    let mut tr = Tracer {
        epoch: Instant::now(),
        on: true,
        spans: Vec::new(),
    };
    let Replay {
        resolve,
        core,
        service,
        client,
        router,
        plain,
        msgs,
        counts,
    } = replay(spec, &data, seed, &ops, dir, &mut tr, &mut out);
    let (codec, [req_bytes, resp_bytes, resp_rows]) = replay_codec(&msgs, &mut tr);
    let ladder = write_ladder(spec, seed, dir, &mut out);

    // Per-op self times of the reads, by subtraction down the chain.
    let reads: Vec<usize> = (0..ops.len()).filter(|&j| ops[j].is_read()).collect();
    let charged = |j: usize| {
        if core[j].resolved {
            resolve[j]
        } else {
            Rec::default()
        }
    };
    let med = |f: &dyn Fn(usize) -> f64| median(&reads.iter().map(|&j| f(j)).collect::<Vec<_>>());
    let avg = |f: &dyn Fn(usize) -> f64| mean(&reads.iter().map(|&j| f(j)).collect::<Vec<_>>());
    let resolved: Vec<usize> = reads
        .iter()
        .copied()
        .filter(|&j| core[j].resolved)
        .collect();
    let over_resolved =
        |f: &dyn Fn(usize) -> f64| resolved.iter().map(|&j| f(j)).collect::<Vec<_>>();

    let layers: [(&str, f64); 6] = [
        ("router", med(&|j| router[j].us - client[j].us)),
        (
            "transport",
            med(&|j| client[j].us - service[j].us - codec[j].us),
        ),
        ("codec", med(&|j| codec[j].us)),
        ("service", med(&|j| service[j].us - core[j].us)),
        ("core", med(&|j| core[j].us - charged(j).us)),
        ("resolve", med(&|j| charged(j).us)),
    ];
    let attributed: f64 = layers.iter().map(|l| l.1).sum();
    let routed_rtt = med(&|j| plain[j].us);
    let routed_traced = med(&|j| router[j].us);
    let unattributed = routed_rtt - attributed;
    let share = unattributed / routed_rtt;

    let kops = ops.len() as f64 / 1000.0;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let [before, after] = &load.stats;
    let served = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let answered = served(|s| s.served_view)
        + served(|s| s.served_cached)
        + served(|s| s.served_exact)
        + served(|s| s.served_nearest)
        + served(|s| s.served_default);
    let rung = |f: fn(&ServiceStats) -> u64| {
        if answered > 0.0 {
            served(f) / answered
        } else {
            0.0
        }
    };
    let [core_w, memory_w, durable_w, quorum_w] = &ladder.us;
    let diff =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>());

    out.metrics = vec![
        (
            "resolve.rank_us",
            "us",
            median(&over_resolved(&|j| resolve[j].us)),
        ),
        (
            "resolve.cells_per_query",
            "count",
            mean(&over_resolved(&|j| resolve[j].cells)),
        ),
        (
            "resolve.allocs_per_op",
            "count",
            mean(&over_resolved(&|j| resolve[j].allocs)),
        ),
        (
            "qcache.hit_ratio",
            "ratio",
            ratio(counts.qcache_hits, counts.qcache_misses),
        ),
        (
            "qcache.invalidations_per_kop",
            "count",
            counts.invalidations / kops,
        ),
        ("qcache.evictions_per_kop", "count", counts.evictions / kops),
        (
            "views.hit_ratio",
            "ratio",
            ratio(counts.view_hits, counts.view_misses),
        ),
        ("views.patches_per_kop", "count", counts.patches / kops),
        ("views.rebuilds_per_kop", "count", counts.rebuilds / kops),
        ("core.read_self_us", "us", layers[4].1),
        ("core.write_us", "us", median(core_w)),
        (
            "core.lock_wait_us_per_op",
            "us",
            served(|s| s.lock_wait_micros) / load.ops,
        ),
        (
            "core.allocs_per_op",
            "count",
            avg(&|j| core[j].allocs - charged(j).allocs),
        ),
        ("service.self_us", "us", layers[3].1),
        (
            "service.allocs_per_op",
            "count",
            avg(&|j| service[j].allocs - core[j].allocs),
        ),
        ("service.rung_share.view", "ratio", rung(|s| s.served_view)),
        (
            "service.rung_share.cached",
            "ratio",
            rung(|s| s.served_cached),
        ),
        (
            "service.rung_share.exact",
            "ratio",
            rung(|s| s.served_exact),
        ),
        (
            "service.rung_share.nearest",
            "ratio",
            rung(|s| s.served_nearest),
        ),
        (
            "service.rung_share.default",
            "ratio",
            rung(|s| s.served_default),
        ),
        ("service.shed", "count", served(|s| s.shed)),
        (
            "service.deadline_exceeded",
            "count",
            served(|s| s.deadline_exceeded),
        ),
        ("net.codec_us", "us", layers[2].1),
        ("net.transport_us", "us", layers[1].1),
        ("net.request_bytes", "B", req_bytes),
        ("net.response_bytes", "B", resp_bytes),
        ("net.response_rows", "count", resp_rows),
        (
            "net.allocs_per_op",
            "count",
            avg(&|j| client[j].allocs - service[j].allocs),
        ),
        ("router.self_us", "us", layers[0].1),
        (
            "router.allocs_per_op",
            "count",
            avg(&|j| router[j].allocs - client[j].allocs),
        ),
        ("wal.self_us", "us", diff(durable_w, memory_w)),
        ("wal.bytes_per_write", "B", ladder.wal_bytes),
        ("wal.checkpoints", "count", served(|s| s.checkpoints)),
        ("replication.self_us", "us", diff(quorum_w, durable_w)),
        ("replication.max_lag", "count", ladder.max_lag),
        ("replication.seed_writes", "count", ladder.seed_writes),
        ("ledger.unattributed_us", "us", unattributed),
        ("ledger.unattributed_share", "ratio", share),
        ("ledger.routed_traced_us", "us", routed_traced),
        (
            "ledger.tracing_overhead_us",
            "us",
            routed_traced - routed_rtt,
        ),
        ("ledger.routed_rtt_p50_us", "us", routed_rtt),
        ("gen.late_p99_us", "us", load.late_p99_us),
        ("load.query_p50_us", "us", load.query_us[0]),
        ("load.query_p99_us", "us", load.query_us[1]),
        ("load.write_p50_us", "us", load.write_us[0]),
        ("load.write_p99_us", "us", load.write_us[1]),
    ];

    // The ledger, and the honesty checks on it.
    let mut line = String::new();
    for (name, us) in &layers {
        let _ = write!(line, "{name} {us:.1} us, ");
    }
    out.notes.push(format!(
        "ledger over {} replayed reads: {line}unattributed {unattributed:.1} us = {:.1}% of the routed p50 {routed_rtt:.1} us",
        reads.len(),
        share * 100.0
    ));
    if share.abs() > UNATTRIBUTED_LIMIT {
        out.notes.push(format!(
            "FLAG: unattributed share {:.1}% exceeds {:.0}%",
            share * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        ));
    }
    let (read_pred, write_pred) = predicted(spec);
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    // Only the rungs the workload's own writes go through compete.
    let rungs_used = match spec.durability {
        Durability::Memory => 2,
        Durability::Durable { .. } => 3,
        Durability::Quorum { .. } => 4,
    };
    let write_rungs = [
        ("core", median(core_w)),
        ("service", diff(memory_w, core_w)),
        ("wal", diff(durable_w, memory_w)),
        ("replication", diff(quorum_w, durable_w)),
    ];
    let write_dominant = write_rungs[..rungs_used]
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    out.notes.push(format!(
        "dominant read layer: {dominant} ({:.0}% of the routed p50; predicted {read_pred}); dominant write layer: {write_dominant} (predicted {write_pred})",
        layers.iter().find(|l| l.0 == dominant).map_or(0.0, |l| l.1) / routed_rtt * 100.0
    ));
    match write_spans(spec, seed, &ops, &tr.spans) {
        Ok(path) => out.notes.push(format!(
            "{} spans written to {}",
            tr.spans.len() + ops.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    out.correct = out.failed == 0;
    out
}
