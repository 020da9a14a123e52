//! Outcome accounting of the dispatch stage: every query outcome is
//! counted exactly once, by whichever side settles the query — the
//! worker with its result, or the waiter that gives up at the deadline
//! — and a query abandoned by its waiter never runs.

use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_service::{
    CtxPrefService, Priority, QueryJob, ServiceConfig, ServiceError, ServiceStats,
};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn one_worker_service() -> (CtxPrefService, ContextState) {
    let env = poi_env();
    let mut db = MultiUserDb::new(env.clone(), poi_relation(&env, 7, 4), 8);
    let demo = all_demographics().into_iter().next().unwrap();
    let profile = default_profile(&env, db.relation(), demo);
    db.add_user_with_profile("user0", profile).unwrap();
    let service = CtxPrefService::new(
        db,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let state = service.with_db(|db| ContextState::parse(db.env(), &["Plaka", "warm", "friends"]));
    (service, state.unwrap())
}

/// Poll until the worker has dropped `n` jobs by any no-execution path
/// and released their in-flight slots.
fn wait_dropped(service: &CtxPrefService, before: &ServiceStats, n: u64) -> ServiceStats {
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        let s = service.stats();
        let dropped = (s.cancelled + s.shed_expired + s.deadline_after_lock)
            - (before.cancelled + before.shed_expired + before.deadline_after_lock);
        if dropped >= n && service.in_flight() == 0 {
            return s;
        }
        assert!(
            Instant::now() < give_up,
            "worker never dropped the job: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The regression: a query whose caller times out while the worker is
/// stalled used to be counted twice — once by the caller, once by the
/// worker's post-lock re-check.
#[test]
fn a_timed_out_query_counts_one_deadline_miss() {
    let _serial = fault_lock();
    let (service, state) = one_worker_service();
    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(5)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(200))
            .build(),
    );
    let before = service.stats();
    let started = Instant::now();
    let result = service.query_state_deadline("user0", &state, Duration::from_millis(50));
    assert!(
        matches!(result, Err(ServiceError::DeadlineExceeded { .. })),
        "{result:?}"
    );
    assert!(started.elapsed() < Duration::from_millis(200));
    // The miss is on the books as soon as the caller has its answer.
    assert_eq!(
        service.stats().deadline_exceeded - before.deadline_exceeded,
        1
    );

    let after = wait_dropped(&service, &before, 1);
    assert_eq!(
        after.deadline_exceeded - before.deadline_exceeded,
        1,
        "{after:?}"
    );
    // Dropped at the re-check after the stall: the abandoned job never
    // took the shard lock, let alone ran the ladder.
    assert_eq!(after.cancelled - before.cancelled, 1, "{after:?}");
    assert_eq!(after.deadline_after_lock, before.deadline_after_lock);
    assert_eq!(after.served(), before.served());
    assert_eq!(after.errors, before.errors);
    assert_eq!(service.in_flight(), 0);
}

/// The non-blocking API: a cancel that wins suppresses the completion
/// and counts the miss; a cancel after the worker settled loses, and
/// the answer counts instead. Never both.
#[test]
fn submit_with_settles_each_query_once() {
    let _serial = fault_lock();
    let (service, state) = one_worker_service();
    let job = |deadline| QueryJob {
        user: "user0".to_string(),
        state: state.clone(),
        topk: Some(5),
        deadline,
        tier: Priority::Interactive,
    };

    // Settled by the worker: the completion runs once, a late cancel
    // loses, and exactly one served answer is counted.
    let before = service.stats();
    let (tx, rx) = mpsc::channel();
    let ticket = service
        .submit_with(
            job(Duration::from_secs(2)),
            Box::new(move |result, _db| tx.send(result.map(|a| a.step)).unwrap()),
        )
        .expect("admitted");
    let step = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("completion ran");
    assert!(step.is_ok(), "{step:?}");
    assert!(
        !service.cancel(ticket),
        "a settled query cannot be cancelled"
    );
    let after = service.stats();
    assert_eq!(after.served() - before.served(), 1);
    assert_eq!(after.deadline_exceeded, before.deadline_exceeded);

    // Cancelled while the worker is stalled: the cancel wins, the
    // completion never runs, and one miss is counted.
    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(6)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(100))
            .build(),
    );
    let before = service.stats();
    let (tx, rx) = mpsc::channel::<()>();
    let ticket = service
        .submit_with(
            job(Duration::from_secs(2)),
            Box::new(move |_, _| tx.send(()).unwrap()),
        )
        .expect("admitted");
    assert!(service.cancel(ticket), "a pending query can be cancelled");
    assert!(!service.cancel(ticket), "but only once");
    let after = wait_dropped(&service, &before, 1);
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "a cancelled query's completion ran"
    );
    assert_eq!(after.deadline_exceeded - before.deadline_exceeded, 1);
    assert_eq!(after.served(), before.served());
    assert_eq!(service.in_flight(), 0);
}
