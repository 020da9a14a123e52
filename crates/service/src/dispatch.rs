//! The query dispatch stage: one queue in front of the worker pool and
//! one completion path out of it.
//!
//! [`CtxPrefService::submit_with`](crate::CtxPrefService::submit_with)
//! is the only way a query reaches a worker. It takes an owned
//! [`QueryJob`] and a [`QueryDone`] callback, admits or sheds the job,
//! and returns at once with a [`Ticket`]. The worker that runs the job
//! hands the result to the callback on its own thread, so an event loop
//! can render and encode the response there and skip a thread handoff.
//! The blocking query API is a thin wrapper over the same submit: its
//! callback sends into a one-slot channel, and the caller waits on it.
//!
//! **Claims.** Every admitted job holds one cell of a fixed claim table
//! ([`Claims`]), sized by `max_in_flight`, which already bounds how many
//! jobs are alive at once. A waiter that gives up at the deadline
//! *cancels* the job, and the worker *settles* it when it has a result.
//! Both race on the cell with one compare-and-swap, so exactly one of
//! them wins, and the winner counts the job's outcome:
//!
//! * a winning cancel counts a deadline miss, and the worker drops the
//!   job unrun (it re-checks the cell at dequeue, after the dequeue
//!   fault stall, and after taking the shard lock) or drops its result
//!   unseen;
//! * a winning settle counts whatever the worker produced and runs the
//!   callback. A waiter whose cancel loses knows the answer is already
//!   on its way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::ShardedMultiUserDb;
use parking_lot::{Mutex, RwLock};

use crate::error::ServiceError;
use crate::ladder::{panic_text, run_ladder, run_ladder_topk, LadderStep, ServiceAnswer};
use crate::service::{record_shed, Admission};
use crate::stats::Counters;
use crate::tier::Priority;

/// One query, owned, as [`CtxPrefService::submit_with`] takes it: the
/// user and state move into the worker without a copy.
///
/// [`CtxPrefService::submit_with`]: crate::CtxPrefService::submit_with
#[derive(Debug, Clone)]
pub struct QueryJob {
    /// The user whose profile answers.
    pub user: String,
    /// The context state to resolve.
    pub state: ContextState,
    /// `Some(k)` runs the top-k ladder (materialized view first,
    /// early-terminating evaluation otherwise); `None` ranks fully.
    pub topk: Option<usize>,
    /// The budget, from submission to answer.
    pub deadline: Duration,
    /// The tier admission sheds by.
    pub tier: Priority,
}

/// The completion of a submitted query. It runs once, on the service
/// worker that settled the job, with the result and the serving core
/// that produced it (for rendering rows). It never runs for a job whose
/// waiter cancelled first.
pub type QueryDone =
    Box<dyn FnOnce(Result<ServiceAnswer, ServiceError>, &ShardedMultiUserDb) + Send>;

/// A handle on one admitted query, for [`CtxPrefService::cancel`].
///
/// [`CtxPrefService::cancel`]: crate::CtxPrefService::cancel
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    slot: u32,
    generation: u64,
    deadline: Instant,
    requested: Duration,
}

impl Ticket {
    /// The instant the query's budget runs out: when a waiter should
    /// give up and cancel.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The error a waiter answers with after a successful cancel.
    pub fn expired(&self) -> ServiceError {
        ServiceError::DeadlineExceeded {
            deadline: self.requested,
        }
    }
}

pub(crate) struct Job {
    pub(crate) query: QueryJob,
    pub(crate) ticket: Ticket,
    pub(crate) enqueued: Instant,
    pub(crate) done: QueryDone,
}

// Claim-cell states, in the low two bits; the generation sits above.
const FREE: u64 = 0;
const LIVE: u64 = 1;
const ABANDONED: u64 = 2;

/// The claim table: one cell per admissible job (see the module docs).
pub(crate) struct Claims {
    cells: Box<[AtomicU64]>,
    next: AtomicUsize,
}

impl Claims {
    pub(crate) fn new(cells: usize) -> Self {
        Self {
            cells: (0..cells.max(1)).map(|_| AtomicU64::new(FREE)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Take a free cell for a newly admitted job. The caller holds an
    /// in-flight reservation, and cells are released before
    /// reservations are, so a free cell exists.
    pub(crate) fn take(&self, deadline: Instant, requested: Duration) -> Ticket {
        let n = self.cells.len();
        let mut i = self.next.fetch_add(1, Ordering::Relaxed) % n;
        loop {
            let cur = self.cells[i].load(Ordering::Acquire);
            if cur & 3 == FREE
                && self.cells[i]
                    .compare_exchange(cur, cur | LIVE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return Ticket {
                    slot: i as u32,
                    generation: cur >> 2,
                    deadline,
                    requested,
                };
            }
            i = (i + 1) % n;
        }
    }

    fn cell(&self, t: &Ticket) -> &AtomicU64 {
        &self.cells[t.slot as usize]
    }

    /// The waiter's side of the race: true if the job was still live,
    /// so it will never be answered and the caller owns the outcome.
    pub(crate) fn cancel(&self, t: &Ticket) -> bool {
        let live = t.generation << 2 | LIVE;
        self.cell(t)
            .compare_exchange(
                live,
                t.generation << 2 | ABANDONED,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    fn abandoned(&self, t: &Ticket) -> bool {
        self.cell(t).load(Ordering::Acquire) == t.generation << 2 | ABANDONED
    }

    /// The worker's side: free the cell for the next generation; true if
    /// the job was still live (the worker owns the outcome).
    pub(crate) fn settle(&self, t: &Ticket) -> bool {
        let next = (t.generation + 1) << 2 | FREE;
        let live = t.generation << 2 | LIVE;
        match self
            .cell(t)
            .compare_exchange(live, next, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => true,
            Err(_) => {
                self.cell(t).store(next, Ordering::Release);
                false
            }
        }
    }
}

/// Count one query outcome. Called exactly once per admitted job, by
/// whichever side wins its claim.
pub(crate) fn record(counters: &Counters, result: &Result<ServiceAnswer, ServiceError>) {
    match result {
        Ok(answer) => {
            let counter = match answer.step {
                LadderStep::View => &counters.served_view,
                LadderStep::Cached => &counters.served_cached,
                LadderStep::Exact => &counters.served_exact,
                LadderStep::NearestState => &counters.served_nearest,
                LadderStep::DefaultAnswer => &counters.served_default,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let contained_panics = answer
                .fallbacks
                .iter()
                .filter(|fb| fb.reason.starts_with("panic:"))
                .count() as u64;
            if contained_panics > 0 {
                counters
                    .panics_contained
                    .fetch_add(contained_panics, Ordering::Relaxed);
            }
        }
        Err(ServiceError::DeadlineExceeded { .. }) => {
            counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServiceError::QueryPanicked { .. }) => {
            counters.panics_contained.fetch_add(1, Ordering::Relaxed);
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Decrements the in-flight counter when a job leaves the system,
/// whatever the path out.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What every worker shares with the service.
pub(crate) struct Pool {
    pub(crate) slot: Arc<RwLock<Arc<ShardedMultiUserDb>>>,
    pub(crate) counters: Arc<Counters>,
    pub(crate) admission: Arc<Admission>,
    pub(crate) in_flight: Arc<AtomicUsize>,
    pub(crate) claims: Arc<Claims>,
}

pub(crate) fn worker_loop(pool: &Pool, receiver: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // Hold the receiver lock only while picking up a job.
        let job = { receiver.lock().recv() };
        let Ok(job) = job else { return };
        // Resolve the serving core per job: the slot is re-pointed when
        // a replicated service's local node recovers from a crash.
        let db = Arc::clone(&pool.slot.read());
        let _in_flight = InFlightGuard(&pool.in_flight);
        // Feed the admission controller the job's queue dwell — the
        // signal the sojourn shedder runs on.
        pool.admission.observe(job.enqueued.elapsed());
        let result = run(pool, &db, &job);
        if pool.claims.settle(&job.ticket) {
            if let Some(result) = result {
                record(&pool.counters, &result);
                // A panicking completion must not take the worker down
                // with it; its waiter then sees the reply dropped.
                let _ = catch_unwind(AssertUnwindSafe(|| (job.done)(result, &db)));
            }
        }
    }
}

/// Run one job, or drop it: `None` when its waiter had already
/// cancelled (counted as `cancelled` here; the waiter counted the
/// miss).
fn run(
    pool: &Pool,
    db: &ShardedMultiUserDb,
    job: &Job,
) -> Option<Result<ServiceAnswer, ServiceError>> {
    let counters = &*pool.counters;
    let (t, q) = (&job.ticket, &job.query);
    let dropped = || {
        counters.cancelled.fetch_add(1, Ordering::Relaxed);
        None
    };
    if pool.claims.abandoned(t) {
        return dropped();
    }
    if Instant::now() >= t.deadline {
        // Expired while queued: dropped, never executed — dead work
        // would only deepen the overload.
        record_shed(counters, &counters.shed_expired, q.tier);
        return Some(Err(t.expired()));
    }
    // Fault site: an injected delay stalls the pool here, growing queue
    // sojourn deterministically for the overload tests and standing in
    // for per-job service time in the storm bench. Deliberately AFTER
    // the cancel/expiry drops: dropping dead work is free; only work
    // that will execute pays. Re-checked after: a waiter may have given
    // up during the stall.
    let _ = ctxpref_faults::hit(ctxpref_faults::sites::SVC_WORKER_DEQUEUE);
    if pool.claims.abandoned(t) {
        return dropped();
    }
    // Outer containment: nothing may unwind out of a request, even a
    // bug outside the per-rung guards.
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Acquire only the user's shard, and account the wait: the time
        // to get the lock is the serving core's contention.
        let lock_started = Instant::now();
        let shard = db.read_user_shard(&q.user);
        counters
            .lock_wait_micros
            .fetch_add(lock_started.elapsed().as_micros() as u64, Ordering::Relaxed);
        // Re-check now that the lock is held: a contended acquisition
        // may have consumed the whole budget, and running the ladder
        // for a caller that gave up would only waste the shard's read
        // capacity.
        if pool.claims.abandoned(t) || Instant::now() >= t.deadline {
            counters.deadline_after_lock.fetch_add(1, Ordering::Relaxed);
            return Err(t.expired());
        }
        match q.topk {
            Some(k) => run_ladder_topk(&shard, &q.user, &q.state, k, t.deadline, t.requested),
            None => run_ladder(&shard, &q.user, &q.state, t.deadline, t.requested),
        }
    }))
    .unwrap_or_else(|payload| {
        Err(ServiceError::QueryPanicked {
            message: panic_text(payload),
        })
    });
    Some(result)
}
