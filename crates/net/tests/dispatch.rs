//! The one-stage query path: a `Query`/`TopK` frame goes from the
//! reactor straight to the service queue, and the service worker
//! encodes the answer. Remote answers and service counters must match
//! the in-process blocking API call for call; the reactor must answer
//! a stalled query's deadline on time and drop its late completion; a
//! pipelined burst past the service's admission limit must wait in
//! the socket rather than be shed; and a batch holding a query must
//! still answer on a one-worker service.

use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_net::frame::{read_frame, write_frame};
use ctxpref_net::{
    decode_response, encode_request_enveloped, AnswerRow, NetClient, NetClientConfig, NetServer,
    NetServerConfig, Priority, Request, Response,
};
use ctxpref_service::{CtxPrefService, ServiceConfig, ServiceError, ServiceStats};
use ctxpref_workload::reference::{poi_env, poi_relation, ATHENS_REGIONS};
use ctxpref_workload::user_study::{all_demographics, default_profile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault plans are process-global: serialize the tests of this binary.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn service(cfg: ServiceConfig) -> Arc<CtxPrefService> {
    let env = poi_env();
    let mut db = MultiUserDb::new(env.clone(), poi_relation(&env, 7, 4), 8);
    for (i, demo) in all_demographics().into_iter().take(3).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    Arc::new(CtxPrefService::new(db, cfg))
}

fn serve(service: &Arc<CtxPrefService>) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(service),
        NetServerConfig::default(),
    )
    .expect("bind loopback")
}

fn dial(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn send(stream: &mut TcpStream, id: u64, req: &Request, budget_ms: u64) {
    let payload = encode_request_enveloped(id, req, budget_ms, Priority::Interactive);
    write_frame(stream, &payload).expect("write frame");
}

fn recv(stream: &mut TcpStream) -> (u64, Response) {
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("a response frame");
    let wire = decode_response(&payload).expect("binary response");
    (wire.id, wire.resp)
}

fn query(topk: bool, user: &str, k: usize, state: &[&str]) -> Request {
    let (user, attr, state) = (
        user.to_string(),
        "name".to_string(),
        state.iter().map(|s| s.to_string()).collect(),
    );
    if topk {
        Request::TopK {
            user,
            attr,
            k,
            deadline_ms: 2000,
            state,
        }
    } else {
        Request::Query {
            user,
            attr,
            k,
            deadline_ms: 2000,
            state,
        }
    }
}

/// What a wire answer and an in-process answer are compared by: the
/// rows (names and scores, ties kept), or the error kind.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(String, u64)>),
    Refused(&'static str),
}

fn rows_of(rows: &[AnswerRow]) -> Outcome {
    Outcome::Rows(
        rows.iter()
            .map(|r| (r.name.clone(), r.score.to_bits()))
            .collect(),
    )
}

fn wire_outcome(resp: Response) -> Outcome {
    match resp {
        Response::Answer(a) => rows_of(&a.rows),
        Response::Busy { .. } => Outcome::Refused("busy"),
        Response::Err { kind, .. } if kind == "core" => Outcome::Refused("core"),
        other => panic!("unexpected wire response {other:?}"),
    }
}

/// The same request through the in-process blocking API.
fn local_outcome(service: &CtxPrefService, req: &Request) -> Outcome {
    let (Request::Query {
        user,
        attr,
        k,
        deadline_ms,
        state,
    }
    | Request::TopK {
        user,
        attr,
        k,
        deadline_ms,
        state,
    }) = req
    else {
        panic!("not a query: {req:?}");
    };
    let names: Vec<&str> = state.iter().map(String::as_str).collect();
    let Ok(state) = service.with_db(|db| ContextState::parse(db.env(), &names)) else {
        return Outcome::Refused("core");
    };
    let deadline = Duration::from_millis(*deadline_ms);
    let tier = Priority::Interactive;
    let answer = match req {
        Request::TopK { .. } => service.query_topk_tiered(user, &state, *k, deadline, tier),
        _ => service.query_tiered(user, &state, deadline, tier),
    };
    match answer {
        Ok(a) => service.with_db(|db| {
            let at = db.relation().schema().require_attr(attr).unwrap();
            let rows: Vec<AnswerRow> = a
                .answer
                .results
                .top_k_with_ties(*k)
                .iter()
                .map(|e| AnswerRow {
                    name: db.relation().tuple(e.tuple_index).value(at).to_string(),
                    score: e.score,
                })
                .collect();
            rows_of(&rows)
        }),
        Err(ServiceError::Overloaded { .. }) => Outcome::Refused("busy"),
        Err(ServiceError::Core(_)) => Outcome::Refused("core"),
        Err(other) => panic!("unexpected local error {other:?}"),
    }
}

/// The outcome counters of a stats snapshot (timing-free).
fn outcomes(s: &ServiceStats) -> [u64; 12] {
    [
        s.served_view,
        s.served_cached,
        s.served_exact,
        s.served_nearest,
        s.served_default,
        s.errors,
        s.deadline_exceeded,
        s.shed,
        s.shed_admission,
        s.shed_interactive,
        s.cache_hits,
        s.view_hits,
    ]
}

fn delta(before: [u64; 12], after: [u64; 12]) -> [u64; 12] {
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn remote_queries_match_the_blocking_api_answer_for_answer() {
    let _serial = fault_lock();
    let cfg = ServiceConfig {
        workers: 1,
        max_in_flight: 1,
        ..ServiceConfig::default()
    };
    let (remote, local) = (service(cfg), service(cfg));
    let server = serve(&remote);
    let mut stream = dial(&server);

    let users = ["user0", "user1", "user2", "nobody"];
    let temps = ["cold", "warm", "hot", "good", "bad"];
    let people = ["friends", "family", "alone"];
    let mut rng = StdRng::seed_from_u64(12);
    let mut reqs = Vec::new();
    for _ in 0..80 {
        let place = if rng.random_bool(0.05) {
            "Atlantis"
        } else {
            ATHENS_REGIONS[rng.random_range(0..4usize)]
        };
        let state = [
            place,
            temps[rng.random_range(0..temps.len())],
            people[rng.random_range(0..people.len())],
        ];
        let user = users[rng.random_range(0..users.len())];
        reqs.push(query(
            rng.random_bool(0.5),
            user,
            rng.random_range(1..8),
            &state,
        ));
    }
    assert!(reqs.iter().any(|r| matches!(r,
        Request::Query { user, .. } | Request::TopK { user, .. } if user == "nobody")));
    assert!(reqs.iter().any(|r| matches!(r,
        Request::Query { state, .. } | Request::TopK { state, .. } if state[0] == "Atlantis")));

    let (remote_before, local_before) = (outcomes(&remote.stats()), outcomes(&local.stats()));
    let mut seen = [0usize; 2];
    for (i, req) in reqs.iter().enumerate() {
        send(&mut stream, i as u64 + 1, req, 0);
        let (id, resp) = recv(&mut stream);
        assert_eq!(id, i as u64 + 1);
        let wire = wire_outcome(resp);
        seen[usize::from(matches!(wire, Outcome::Refused(_)))] += 1;
        assert_eq!(wire, local_outcome(&local, req), "request {i}: {req:?}");
    }
    assert!(seen[0] > 40 && seen[1] > 3, "answers/refusals: {seen:?}");

    // A shed: one query holds the only in-flight slot (its worker is
    // stalled), and the next one — from another connection, since a
    // pipelining connection waits for its own query instead — is
    // refused, on the wire and in process alike.
    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(3)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(150))
            .build(),
    );
    let (hold, shed) = (
        query(true, "user0", 3, &["Plaka", "warm", "friends"]),
        query(false, "user1", 3, &["Kifisia", "cold", "alone"]),
    );
    send(&mut stream, 100, &hold, 0);
    let mut other = dial(&server);
    let give_up = Instant::now() + Duration::from_secs(5);
    while remote.in_flight() == 0 {
        assert!(Instant::now() < give_up, "holder never admitted");
        std::thread::yield_now();
    }
    send(&mut other, 101, &shed, 0);
    let (id, refused) = recv(&mut other);
    assert_eq!(id, 101);
    assert_eq!(wire_outcome(refused), Outcome::Refused("busy"));
    let (id, held) = recv(&mut stream);
    assert_eq!(id, 100);
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| local_outcome(&local, &hold));
        let give_up = Instant::now() + Duration::from_secs(5);
        while local.in_flight() == 0 {
            assert!(Instant::now() < give_up, "holder never admitted");
            std::thread::yield_now();
        }
        assert_eq!(local_outcome(&local, &shed), Outcome::Refused("busy"));
        assert_eq!(wire_outcome(held), holder.join().unwrap());
    });

    assert_eq!(
        delta(remote_before, outcomes(&remote.stats())),
        delta(local_before, outcomes(&local.stats())),
        "service counters moved differently over the wire"
    );
    drop((stream, other));
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn a_pipelined_burst_waits_for_the_service_instead_of_being_shed() {
    let _serial = fault_lock();
    let remote = service(ServiceConfig {
        workers: 1,
        max_in_flight: 2,
        ..ServiceConfig::default()
    });
    let server = serve(&remote);
    let mut stream = dial(&server);
    let _slow = ctxpref_faults::install(
        FaultPlan::builder(8)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(5))
            .build(),
    );
    // Ten times the service's admission limit, in one burst on one
    // connection: the reactor stops reading while the service is full,
    // so every query is answered and none is shed.
    let req = query(true, "user0", 3, &["Plaka", "warm", "friends"]);
    let before = remote.stats();
    for id in 1..=20 {
        send(&mut stream, id, &req, 0);
    }
    let mut ids: Vec<u64> = (0..20)
        .map(|_| {
            let (id, resp) = recv(&mut stream);
            assert!(matches!(resp, Response::Answer(_)), "{id}: {resp:?}");
            id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
    let after = remote.stats();
    assert_eq!(after.shed, before.shed, "{after:?}");
    assert_eq!(after.served() - before.served(), 20);
    drop(stream);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn the_reactor_answers_a_stalled_query_at_its_deadline() {
    let _serial = fault_lock();
    let remote = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = serve(&remote);
    let mut stream = dial(&server);
    let req = query(true, "user0", 3, &["Plaka", "warm", "friends"]);

    let before = remote.stats();
    let stall = Duration::from_millis(400);
    {
        let _stalled = ctxpref_faults::install(
            FaultPlan::builder(4)
                .delay(sites::SVC_WORKER_DEQUEUE, 1.0, stall)
                .build(),
        );
        let started = Instant::now();
        send(&mut stream, 7, &req, 100);
        let (id, resp) = recv(&mut stream);
        let waited = started.elapsed();
        assert_eq!(id, 7);
        assert!(
            matches!(&resp, Response::Err { kind, .. } if kind == "deadline"),
            "{resp:?}"
        );
        assert!(
            waited < Duration::from_millis(300),
            "deadline answered after {waited:?}"
        );
        // Outlive the stall, so the worker has finished with the job
        // before the next request.
        std::thread::sleep(stall + Duration::from_millis(100) - waited);
    }

    // The next request on the connection gets its own answer under its
    // own id; nothing of the cancelled query is left on the wire.
    send(&mut stream, 8, &req, 0);
    let (id, resp) = recv(&mut stream);
    assert_eq!(id, 8);
    assert!(matches!(resp, Response::Answer(_)), "{resp:?}");

    let after = remote.stats();
    assert_eq!(after.deadline_exceeded - before.deadline_exceeded, 1);
    assert_eq!(after.cancelled - before.cancelled, 1, "{after:?}");
    assert_eq!(after.served() - before.served(), 1, "{after:?}");
    drop(stream);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn a_batched_query_answers_on_a_one_worker_service() {
    let _serial = fault_lock();
    let remote = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = serve(&remote);
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    let responses = client
        .batch(vec![
            query(false, "user0", 3, &["Plaka", "warm", "friends"]),
            Request::Ping,
            query(true, "user1", 2, &["Kifisia", "cold", "family"]),
        ])
        .expect("batch answers");
    assert_eq!(responses.len(), 3);
    assert!(matches!(&responses[0], Response::Answer(a) if !a.rows.is_empty()));
    assert_eq!(responses[1], Response::Pong);
    assert!(matches!(&responses[2], Response::Answer(a) if !a.rows.is_empty()));
    drop(client);
    assert_eq!(server.shutdown(), 0);
}
