//! One untraced run: set-up (several times), warm-up, rounds of a
//! closed loop and serial routed round trips, the correctness checks,
//! and the end-to-end metrics.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_net::{NetClient, NetClientConfig, Response};
use ctxpref_profile::Profile;
use ctxpref_service::{CtxPrefService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{check_acks, scores, Oracle};
use crate::gen::{mix, user_name, OpGen, Stream};
use crate::load::{self, Tally};
use crate::report::{median, rss_peak_mb};
use crate::setup::{durable_config, Data, Stack};
use crate::spec::{Durability, Spec, CLOSED_CONNECTIONS, QCACHE_CAPACITY, TOPK_K};

/// Set-ups per run: at least `SETUPS.0`, more while they have taken
/// under `SETUP_BUDGET` in total, at most `SETUPS.1`; `setup_s` is
/// their median.
pub const SETUPS: (usize, usize) = (3, 15);
/// See [`SETUPS`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Length of one round of the load phases; a run of `--seconds` makes
/// `seconds / ROUND` rounds (at least one).
pub const ROUND: Duration = Duration::from_secs(2);

/// Rounds in a run of `seconds`.
pub fn rounds(seconds: u64) -> u64 {
    (seconds / ROUND.as_secs()).max(1)
}

/// Rescores of the write probe of read-only workloads, spread over the
/// rounds.
pub const PROBE_WRITES: usize = 1500;
/// Reads checked against the oracle after an edit workload's load.
pub const VERIFY_READS: usize = 400;
/// `topk` reads per hot pair in the warm-up: views materialize after
/// two requests (`ctxpref_views::MATERIALIZE_AFTER`), the third hits.
const WARM_TOPK_READS: usize = 3;

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops failed, failed checks included.
    pub failed: u64,
    /// Metric name, unit, value.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count a phase's ops and failures.
    pub fn count(&mut self, tally: &Tally, phase: &str) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        for r in &tally.reasons {
            self.notes.push(format!("FAILED in {phase}: {r}"));
        }
    }

    /// Record a failed check as `n` failed ops.
    pub fn fail(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.failed += n;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Whether op `i` of `phase` is kept for the oracle check.
pub fn sampled(seed: u64, phase: u64, i: usize) -> bool {
    mix(seed ^ phase, i as u64).is_multiple_of(8)
}

/// Build `spec`'s stack [`SETUPS`] times, keeping the last; returns it
/// with the median set-up time in seconds.
pub fn set_up(spec: &Spec, dir: &Path) -> (Data, Stack, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    for rep in 0..SETUPS.1 {
        if rep >= SETUPS.0 && started.elapsed() > SETUP_BUDGET {
            break;
        }
        drop(kept.take());
        let sub = dir.join(format!("setup-{rep}"));
        let t = Instant::now();
        let data = Data::new(spec);
        let stack = Stack::start(spec, &data, sub);
        times.push(t.elapsed().as_secs_f64());
        kept = Some((data, stack));
    }
    let (data, stack) = kept.expect("at least one set-up");
    (data, stack, median(&times))
}

/// Untimed warm-up, straight on the serving core, two threads: every
/// (user, hot state) pair is read often enough to materialize its view
/// and fill the qcache; a roaming workload fills each user's qcache
/// with distinct random states.
pub fn warm_up(spec: &Spec, data: &Data, db: &ShardedMultiUserDb, seed: u64) {
    let states = data.universe.states.len();
    let mut pairs = OpGen::new(spec, seed, Stream::Warmup, &data.targets, states).hot_pairs();
    if pairs.is_empty() {
        let mut rng = StdRng::seed_from_u64(mix(seed, 7));
        for u in 0..spec.users as u32 {
            let mut seen = BTreeSet::new();
            while seen.len() < QCACHE_CAPACITY.min(states) {
                seen.insert(rng.random_range(0..states) as u16);
            }
            pairs.extend(seen.into_iter().map(|s| (u, s)));
        }
    }
    let (topk, full) = (spec.topk_share > 0.0, spec.query_share > 0.0);
    std::thread::scope(|scope| {
        for part in 0..2 {
            let pairs = &pairs;
            scope.spawn(move || {
                for &(u, s) in pairs.iter().skip(part).step_by(2) {
                    let (user, state) = (user_name(u), &data.universe.states[s as usize]);
                    for _ in 0..if topk { WARM_TOPK_READS } else { 0 } {
                        db.query_state_topk(&user, state, TOPK_K)
                            .expect("warm-up users exist");
                    }
                    if full {
                        db.query_state(&user, state).expect("warm-up users exist");
                    }
                }
            });
        }
    });
}

/// Every user's profile as the service holds it now.
pub fn live_profiles(service: &CtxPrefService, users: usize) -> Vec<Profile> {
    service.with_db(|db| {
        (0..users as u32)
            .map(|u| db.profile(&user_name(u)).expect("benchmark users exist"))
            .collect()
    })
}

/// The phase windows of one round: closed loop, then serial.
pub fn windows() -> (Duration, Duration) {
    (ROUND / 4, ROUND * 3 / 4)
}

/// The untraced run.
pub fn run(spec: &Spec, seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (data, stack, setup_s) = set_up(spec, dir);
    let states = data.universe.states.len();
    let gen = |stream| OpGen::new(spec, seed, stream, &data.targets, states);
    stack.service.with_db(|db| warm_up(spec, &data, db, seed));
    let addr = stack.addr();
    let (closed_w, serial_w) = windows();
    // Reads are checked inline only where no write races them.
    let check_reads = !spec.has_writes();
    let sample = |phase: u64| move |i: usize| check_reads && sampled(seed, phase, i);

    // Rounds of the phases; each metric is the median of its per-round
    // values, so a burst of host noise costs one round.
    let mut per_round: Vec<[f64; 3]> = Vec::new();
    let mut tallies = Vec::new();
    let mut probe = gen(Stream::Probe);
    let rounds = rounds(seconds);
    for round in 0..rounds {
        // Closed loop, pipelined.
        let gens = (0..CLOSED_CONNECTIONS as u64)
            .map(|c| gen(Stream::Closed(round * CLOSED_CONNECTIONS as u64 + c)))
            .collect();
        let (closed, qps) = load::closed_loop(
            &addr,
            gens,
            &data.universe,
            closed_w,
            &sample(round * 2 + 1),
        );
        out.count(&closed, "closed loop");

        // Serial round trips through a router, in the workload's mix.
        let mut g = gen(Stream::Serial(round));
        let serial = load::serial(
            &addr,
            &mut || g.next_op(),
            &data.universe,
            serial_w,
            0,
            &sample(round * 2 + 2),
        );
        out.count(&serial, "serial");

        // A read-only workload's writes: serial rescores of the probe
        // users, whom no read touches.
        let writes = if spec.has_writes() {
            serial.writes.clone()
        } else {
            let t = load::serial(
                &addr,
                &mut || probe.next_write(),
                &data.universe,
                Duration::ZERO,
                PROBE_WRITES / rounds as usize,
                &|_| false,
            );
            out.count(&t, "write probe");
            let w = t.writes.clone();
            tallies.push(t);
            w
        };
        let rtts: Vec<f64> = serial.reads.iter().map(|r| r.0).collect();
        per_round.push([median(&rtts), median(&writes), qps]);
        tallies.extend([closed, serial]);
    }

    let col = |i: usize| median(&per_round.iter().map(|r| r[i]).collect::<Vec<_>>());
    out.metrics = vec![
        ("setup_s", "s", setup_s),
        ("routed_rtt_p50_us", "us", col(0)),
        ("write_rtt_p50_us", "us", col(1)),
        ("peak_qps", "1/s", col(2)),
    ];
    let reads: usize = tallies.iter().map(|t| t.reads.len()).sum();
    let writes: usize = tallies.iter().map(|t| t.writes.len()).sum();
    out.notes.push(format!(
        "{} rounds: {reads} reads and {writes} writes timed; per round [routed read p50 us, routed write p50 us, closed-loop ops/s]: {per_round:.0?}",
        per_round.len(),
    ));

    // Correctness.
    let mut acks = Vec::new();
    let mut samples = Vec::new();
    for t in tallies {
        acks.extend(t.acks);
        samples.extend(t.samples);
    }
    if check_reads {
        let mut oracle = Oracle::new(data.oracle(&data.profiles), &data.profiles, &data.universe);
        let (wrong, first) = oracle.check(&samples);
        out.attempted += samples.len() as u64;
        out.failed += wrong;
        if let Some(first) = first {
            out.notes.push(format!("FAILED: {first}"));
        }
        out.notes.push(format!(
            "{} sampled answers checked against the oracle, {wrong} wrong",
            samples.len()
        ));
    }
    verify_writes(spec, seed, &data, stack, &acks, &mut out);
    out.metrics.push(("rss_peak_mb", "MB", rss_peak_mb()));
    out.correct = out.failed == 0;
    out
}

/// After load: the live profiles must reflect every acknowledged
/// rescore; an edit workload's answers must match the oracle on them,
/// and they must survive reopening the durable directory or be on
/// every node.
fn verify_writes(
    spec: &Spec,
    seed: u64,
    data: &Data,
    stack: Stack,
    acks: &[crate::load::Ack],
    out: &mut Outcome,
) {
    let base = scores(&data.profiles);
    let service = Arc::clone(&stack.service);
    let live = live_profiles(&service, spec.population());
    let fin = scores(&live);
    let bad = check_acks(&base, acks, &fin);
    out.attempted += acks.len() as u64;
    if !bad.is_empty() {
        out.fail(
            bad.len() as u64,
            format!(
                "{} preference(s) lost an acknowledged rescore, e.g. {}",
                bad.len(),
                bad[0]
            ),
        );
    }
    out.notes.push(format!(
        "{} acknowledged rescores checked against the live profiles",
        acks.len()
    ));

    if spec.has_writes() {
        // Answers after the load, against fresh resolution on the
        // final profiles.
        let mut oracle = Oracle::new(data.oracle(&live), &live, &data.universe);
        let mut g = OpGen::new(
            spec,
            seed,
            Stream::Trace,
            &data.targets,
            data.universe.states.len(),
        );
        let mut client = NetClient::connect(stack.addr(), NetClientConfig::default());
        let mut wrong = 0;
        for _ in 0..VERIFY_READS {
            let op = loop {
                let op = g.next_op();
                if op.is_read() {
                    break op;
                }
            };
            let rows = match client.request(&load::request(&op, &data.universe)) {
                Ok(Response::Answer(a)) => {
                    load::digest(a.rows.iter().map(|r| (r.name.as_str(), r.score)))
                }
                other => {
                    out.fail(1, format!("verification read {op:?} answered {other:?}"));
                    continue;
                }
            };
            let (w, first) = oracle.check(&[(op, rows)]);
            if w > 0 {
                wrong += 1;
                out.fail(1, first.unwrap_or_default());
            } else {
                out.attempted += 1;
            }
        }
        out.notes.push(format!("{VERIFY_READS} post-load answers checked against the oracle on the final profiles, {wrong} wrong"));
    }

    match spec.durability {
        Durability::Memory => {}
        Durability::Quorum { .. } => unreachable!("no workload serves from a cluster"),
        Durability::Durable { checkpoint } => {
            drop(service);
            let (service, dir) = stack.stop();
            drop(Arc::try_unwrap(service).map(CtxPrefService::shutdown));
            match CtxPrefService::recover(
                ServiceConfig::default(),
                durable_config(&dir, checkpoint),
            ) {
                Ok((reopened, _)) => {
                    let back = live_profiles(&reopened, spec.population());
                    if scores(&back) != fin {
                        out.fail(
                            1,
                            "the reopened directory lost acknowledged rescores".to_string(),
                        );
                    }
                    out.notes
                        .push("durable directory reopened and compared".to_string());
                }
                Err(e) => out.fail(1, format!("reopening the durable directory failed: {e}")),
            }
        }
    }
}
