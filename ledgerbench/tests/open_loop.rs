//! Open-loop accounting: a stall of the server is charged to every op
//! scheduled during it, because latency runs from the scheduled send.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use ctxpref_net::frame::{encode_frame, FrameDecoder};
use ctxpref_net::proto::RemoteAnswer;
use ctxpref_net::{codec, Response};
use ctxpref_workload::reference::poi_env;
use ledgerbench::gen::{Kind, Op, Universe};
use ledgerbench::load::open_loop;

/// A stub server that answers nothing until `stall` after the first
/// request arrives, then answers every request at once and from then
/// on immediately.
fn stub(stall: Duration, expect: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("the client connects");
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut first: Option<Instant> = None;
        let mut pending = Vec::new();
        let mut answered = 0;
        conn.set_read_timeout(Some(Duration::from_millis(1)))
            .expect("timeout");
        while answered < expect {
            if let Ok(n) = conn.read(&mut buf) {
                if n == 0 {
                    return;
                }
                dec.extend(&buf[..n]);
            }
            while let Ok(Some(payload)) = dec.next_frame() {
                first.get_or_insert_with(Instant::now);
                pending.push(codec::decode_request(&payload).expect("a valid request").id);
            }
            if first.is_some_and(|t| t.elapsed() >= stall) {
                for id in pending.drain(..) {
                    let answer = Response::Answer(RemoteAnswer {
                        step: "view".to_string(),
                        elapsed_us: 0,
                        resolved_state: None,
                        fallbacks: Vec::new(),
                        rows: Vec::new(),
                    });
                    let frame = encode_frame(&codec::encode_response(id, &answer)).expect("fits");
                    conn.write_all(&frame).expect("the client reads");
                    answered += 1;
                }
            }
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_is_charged_to_every_op_scheduled_during_it() {
    let stall = Duration::from_millis(200);
    let n = 20;
    // One op every 10 ms: the first 20 are all scheduled inside the
    // 200 ms stall that the first one triggers.
    let offsets: Vec<Duration> = (0..n)
        .map(|i| Duration::from_millis(10 * i as u64))
        .collect();
    let ops = vec![
        Op {
            user: 0,
            state: 0,
            kind: Kind::TopK,
        };
        n
    ];
    let universe = Universe::new(&poi_env());
    let (addr, server) = stub(stall, n);
    let (tally, late) = open_loop(&addr, &ops, &offsets, &universe, &|_| false);
    server.join().expect("the stub never panics");
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.reads.len(), n);
    assert_eq!(late.len(), n);
    for &(us, due) in &tally.reads {
        // Answered no earlier than the stall's end, timed from the due
        // time: an op due at t waited at least (stall − t).
        let owed = (stall.as_secs_f64() - due) * 1e6;
        assert!(
            us >= owed - 2_000.0,
            "op due at {due:.3}s took {us:.0} us, owed {owed:.0}"
        );
    }
    // The first op bore the whole stall.
    let first = tally
        .reads
        .iter()
        .find(|r| r.1 == 0.0)
        .expect("the first op");
    assert!(first.0 >= stall.as_secs_f64() * 1e6 - 2_000.0);
}
