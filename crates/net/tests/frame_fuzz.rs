//! Frame-decoder fuzz: a recorded request stream is truncated at
//! every byte offset and corrupted one flipped byte at a time, and the
//! decoder must answer every mutation with a clean typed error —
//! never a panic, and never an allocation sized by attacker-supplied
//! bytes. The same discipline then runs on the payload decoders: the
//! `ctxpref2` codec and the binary replication envelope.
//!
//! The allocation claim is enforced, not assumed: the test binary
//! installs a counting global allocator, and the hostile-header cases
//! assert that decoding allocated nothing anywhere near the declared
//! (multi-gigabyte) length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctxpref_context::{parse_descriptor, ContextEnvironment};
use ctxpref_net::frame::{encode_frame, read_frame, FRAME_HEADER, MAX_FRAME_PAYLOAD};
use ctxpref_net::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};
use ctxpref_net::repl::{
    decode_envelope, decode_reply, encode_envelope, encode_reply, REPL_BINARY_MAGIC,
    REPL_BINARY_VERSION,
};
use ctxpref_net::{
    decode_request, decode_response, encode_request, encode_response, DecodeKind, FrameError,
    BINARY_MAGIC, BINARY_VERSION,
};
use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};
use ctxpref_relation::Relation;
use ctxpref_replication::{Envelope, Message, Reply};
use ctxpref_workload::reference::{poi_env, poi_relation};

// ---------------------------------------------------------------------------
// A counting allocator: thread-local arming, so parallel tests in this
// binary don't see each other's allocations.
// ---------------------------------------------------------------------------

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Const-initialized TLS: no lazy allocation, safe to touch here.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Largest single allocation made by `f` on this thread.
fn largest_alloc_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    LARGEST.with(|l| l.get())
}

// ---------------------------------------------------------------------------
// The recorded request stream
// ---------------------------------------------------------------------------

/// One of every request shape, with awkward field contents (spaces,
/// newlines, empty strings), which the codec carries raw.
fn recorded_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Query {
            user: "alice".into(),
            attr: "name".into(),
            k: 5,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::TopK {
            user: "alice".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::ViewsStatus,
        Request::QueryDescriptor {
            user: "bob with spaces".into(),
            attr: "type".into(),
            k: 3,
            descriptor: "location = Athens and temperature = good".into(),
        },
        Request::AddUser {
            user: "new\nline".into(),
        },
        Request::RemoveUser { user: "".into() },
        Request::InsertPref {
            user: "alice".into(),
            descriptor: "accompanying_people = friends".into(),
            attr: "type".into(),
            value: "museum".into(),
            score: 0.825,
        },
        Request::RemovePref {
            user: "alice".into(),
            index: 3,
        },
        Request::UpdateScore {
            user: "alice".into(),
            index: 0,
            score: 0.5,
        },
        Request::Checkpoint,
        Request::FlushWal,
        Request::WalStatus,
        Request::ReplStatus,
        Request::Scrub,
        Request::ScrubStatus,
        Request::Stats,
    ]
}

fn recorded_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for (id, req) in (1..).zip(recorded_requests()) {
        stream.extend_from_slice(
            &encode_frame(&encode_request(id, &req)).expect("encodable request"),
        );
    }
    stream
}

/// Drain `bytes` as a frame stream: decode frames (and their payloads
/// as requests) until end-of-stream or the first typed error. Returns
/// frames decoded. Panics only if a layer below panics — which is
/// exactly what the fuzz asserts never happens.
fn drain(bytes: &[u8]) -> (usize, Option<FrameError>) {
    let mut cur = bytes;
    let mut frames = 0;
    loop {
        match read_frame(&mut cur) {
            Ok(Some(payload)) => {
                frames += 1;
                // Whatever survived the checksum must decode or fail
                // typed at the protocol layer — both are fine; a panic
                // is not.
                let _ = decode_request(&payload);
                let _ = decode_response(&payload);
            }
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

#[test]
fn truncation_at_every_offset_fails_clean() {
    let stream = recorded_stream();
    let total = recorded_requests().len();
    for cut in 0..stream.len() {
        let (frames, err) = drain(&stream[..cut]);
        assert!(
            frames < total,
            "cut at {cut}/{} decoded all {total} frames from a truncated stream",
            stream.len()
        );
        // A cut at a frame boundary is a clean end of stream; anywhere
        // else it must surface as Truncated — never Io, never a panic.
        if let Some(e) = err {
            assert!(
                matches!(e, FrameError::Truncated),
                "cut at {cut}: expected Truncated, got {e:?}"
            );
        }
    }
    // The untouched stream decodes fully.
    let (frames, err) = drain(&stream);
    assert_eq!(frames, total);
    assert!(err.is_none());
}

#[test]
fn flipped_bytes_fail_clean_at_every_offset() {
    let stream = recorded_stream();
    for i in 0..stream.len() {
        for bit in [0x01u8, 0x40, 0x80] {
            let mut bad = stream.clone();
            bad[i] ^= bit;
            // Every outcome is acceptable except a panic or an
            // attacker-sized allocation: a flip may truncate the tail
            // (length field), fail a checksum, claim an oversized
            // frame, or corrupt only the *content* of a token in ways
            // the protocol layer tolerates (it still sees valid
            // tokens). The frame layer's integrity promise is that
            // nothing blows up.
            let largest = largest_alloc_during(|| {
                let _ = drain(&bad);
            });
            // A flipped length byte may declare a frame far bigger
            // than the stream; the decoder must size its buffer by
            // bytes received, not bytes declared. 2× covers Vec
            // growth slack.
            assert!(
                largest <= 2 * stream.len() + 1024,
                "flip {bit:#04x} at {i}: allocation of {largest} bytes while decoding a \
                 {}-byte corrupted stream",
                stream.len()
            );
        }
    }
}

#[test]
fn oversized_claims_are_rejected_without_allocating() {
    // Hostile headers claiming up to u32::MAX bytes. The decoder must
    // reject on the declared length alone, allocating nothing bigger
    // than bookkeeping.
    for declared in [
        u64::from(MAX_FRAME_PAYLOAD) + 1,
        u64::from(MAX_FRAME_PAYLOAD) * 2,
        u64::from(u32::MAX),
    ] {
        let mut hostile = Vec::with_capacity(FRAME_HEADER);
        hostile.extend_from_slice(&(declared as u32).to_le_bytes());
        hostile.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        let largest = largest_alloc_during(|| {
            let mut cur = &hostile[..];
            match read_frame(&mut cur) {
                Err(FrameError::Oversized { declared: d, max }) => {
                    assert_eq!(d, declared);
                    assert_eq!(max, MAX_FRAME_PAYLOAD);
                }
                other => panic!("declared {declared}: expected Oversized, got {other:?}"),
            }
        });
        assert!(
            largest < 4096,
            "declared {declared}: rejected, but allocated {largest} bytes on the way"
        );
    }
}

#[test]
fn legitimate_max_frame_still_decodes() {
    // The cap is a ceiling, not a budget cut: a frame exactly at
    // MAX_FRAME_PAYLOAD round-trips.
    let payload = vec![0x5a_u8; MAX_FRAME_PAYLOAD as usize];
    let frame = encode_frame(&payload).expect("max-size payload encodes");
    let mut cur = &frame[..];
    let back = read_frame(&mut cur).expect("decodes").expect("one frame");
    assert_eq!(back.len(), payload.len());
    assert!(read_frame(&mut cur).expect("clean end").is_none());
}

// ---------------------------------------------------------------------------
// ctxpref2 binary-codec fuzz: the same discipline — truncation at
// every offset, flipped bytes, hostile length claims — applied to the
// varint codec, with the counting allocator proving the "no
// attacker-sized allocation" claim rather than assuming it.
// ---------------------------------------------------------------------------

/// Representative binary request payloads: every structural shape the
/// codec has (strings, varints, f64s, byte vectors, nested pairs, a
/// batch of sub-requests).
fn binary_request_corpus() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::Ping,
        Request::Query {
            user: "alice".into(),
            attr: "name".into(),
            k: 5,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::TopK {
            user: "alice".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::ViewsStatus,
        Request::InsertPref {
            user: "bob with spaces".into(),
            descriptor: "accompanying_people = friends".into(),
            attr: "type".into(),
            value: "museum".into(),
            score: 0.825,
        },
        Request::MigrateUser {
            user: "u".into(),
            epoch: 9,
            action: MigrateAction::Apply {
                through: 99,
                records: vec![(18, b"score user 0 0.5".to_vec()), (21, vec![0, 255, 7])],
            },
        },
        Request::Batch {
            requests: vec![
                Request::AddUser { user: "a".into() },
                Request::UpdateScore {
                    user: "a".into(),
                    index: 2,
                    score: 0.125,
                },
                Request::Ping,
            ],
        },
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| encode_request(i as u64 + 1, &r))
        .collect()
}

/// Representative binary response payloads.
fn binary_response_corpus() -> Vec<Vec<u8>> {
    let responses = vec![
        Response::Answer(RemoteAnswer {
            step: "nearest-state".into(),
            elapsed_us: 1234,
            resolved_state: Some("(Athens, warm, all)".into()),
            fallbacks: vec![WireFallback {
                step: "exact".into(),
                reason: "panic: injected".into(),
            }],
            rows: vec![AnswerRow {
                name: "Acropolis Museum".into(),
                score: 0.9,
            }],
        }),
        Response::Records {
            through: 40,
            records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
        },
        Response::Batch {
            responses: vec![
                Response::Ok,
                Response::Err {
                    kind: "core".into(),
                    message: "nope".into(),
                },
            ],
        },
        Response::Text {
            body: "appends 12\nshard 0: done\n".into(),
        },
    ];
    responses
        .into_iter()
        .map(|r| encode_response(7, &r))
        .collect()
}

/// The schema a replica decodes shipped profiles against.
fn poi_schema() -> (ContextEnvironment, Relation) {
    let env = poi_env();
    let rel = poi_relation(&env, 3, 1);
    (env, rel)
}

/// One of every replication envelope, encoded. The snapshot and resync
/// carry real profiles under awkward user names.
fn repl_envelope_corpus(env: &ContextEnvironment, rel: &Relation) -> Vec<Vec<u8>> {
    let attr = rel
        .schema()
        .require_attr("type")
        .expect("poi schema has type");
    let mut profile = Profile::new(env.clone());
    profile
        .insert(
            ContextualPreference::new(
                parse_descriptor(env, "accompanying_people = friends").expect("descriptor"),
                AttributeClause::eq(attr, "museum".into()),
                0.8,
            )
            .expect("valid preference"),
        )
        .expect("no conflict");
    let users = vec![
        ("bob with spaces".to_string(), profile.clone()),
        ("new\nline".to_string(), profile),
    ];
    let messages = vec![
        Message::Records {
            shard: 2,
            records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
        },
        Message::Snapshot {
            stripes: vec![users.clone(), Vec::new()],
            lsns: vec![12, 0],
        },
        Message::Heartbeat,
        Message::DigestRequest,
        Message::Resync {
            shard: 1,
            users,
            last_lsn: 40,
        },
    ];
    messages
        .into_iter()
        .map(|msg| {
            let env = Envelope {
                from: 1,
                epoch: 3,
                msg,
            };
            encode_envelope(&env, rel).expect("encodable envelope")
        })
        .collect()
}

/// One of every replication reply, encoded.
fn repl_reply_corpus() -> Vec<Vec<u8>> {
    [
        Reply::Progress { next_lsn: 41 },
        Reply::SnapshotInstalled,
        Reply::Beat {
            epoch: 3,
            applied: vec![40, 0, 7],
        },
        Reply::Digests {
            digests: vec![0xDEAD_BEEF_DEAD_BEEF, 1],
        },
        Reply::Resynced,
        Reply::Fenced { current: 4 },
        Reply::Failed {
            reason: "disk full\non node 2".into(),
        },
    ]
    .iter()
    .map(encode_reply)
    .collect()
}

/// Truncate `payload` at every offset: `decode` must fail every proper
/// prefix without an allocation sized beyond the bytes present.
fn assert_prefixes_fail<T, E>(payload: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(decode(payload).is_ok(), "intact payload decodes");
    for cut in 0..payload.len() {
        let largest = largest_alloc_during(|| {
            assert!(
                decode(&payload[..cut]).is_err(),
                "every proper prefix must fail to decode (cut at {cut})"
            );
        });
        assert!(
            largest <= 2 * payload.len() + 1024,
            "cut at {cut}: allocated {largest} bytes decoding a truncated payload"
        );
    }
}

#[test]
fn binary_truncation_at_every_offset_fails_typed() {
    for payload in binary_request_corpus() {
        assert_prefixes_fail(&payload, decode_request);
    }
    for payload in binary_response_corpus() {
        assert_prefixes_fail(&payload, decode_response);
    }
    let (env, rel) = poi_schema();
    for payload in repl_envelope_corpus(&env, &rel) {
        assert_prefixes_fail(&payload, |p| decode_envelope(p, &env, &rel));
    }
    for payload in repl_reply_corpus() {
        assert_prefixes_fail(&payload, decode_reply);
    }
}

#[test]
fn binary_flipped_bytes_never_panic_or_overallocate() {
    let (env, rel) = poi_schema();
    for payload in binary_request_corpus()
        .into_iter()
        .chain(binary_response_corpus())
        .chain(repl_envelope_corpus(&env, &rel))
        .chain(repl_reply_corpus())
    {
        for i in 0..payload.len() {
            for bit in [0x01u8, 0x40, 0x80] {
                let mut bad = payload.clone();
                bad[i] ^= bit;
                // A flip may produce a different valid message, a typed
                // error, or (first byte) hand the payload to the other
                // decoder: `0xC2 ^ 0x01` is the replication magic. Every
                // decoder sees every flip. None may panic or allocate by
                // a corrupted length claim.
                let largest = largest_alloc_during(|| {
                    let _ = decode_request(&bad);
                    let _ = decode_response(&bad);
                    let _ = decode_envelope(&bad, &env, &rel);
                    let _ = decode_reply(&bad);
                });
                assert!(
                    largest <= 2 * payload.len() + 1024,
                    "flip {bit:#04x} at {i}: allocated {largest} bytes \
                     decoding a {}-byte corrupted payload",
                    payload.len()
                );
            }
        }
    }
}

/// Decode `payload` under the counting allocator: it must fail on a
/// length or count claim of 2^40 without allocating anywhere near it.
fn assert_claim_refused<T: std::fmt::Debug>(
    what: &str,
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, ctxpref_net::DecodeError>,
) {
    let largest = largest_alloc_during(|| {
        let err = decode(payload).expect_err(what);
        assert!(
            matches!(err.kind, DecodeKind::LengthOverflow { declared, .. } if declared == 1 << 40),
            "{what}: refused for the wrong reason: {err:?}"
        );
    });
    assert!(
        largest < 4096,
        "{what}: refused, but allocated {largest} bytes on the way"
    );
}

/// The varint encoding of 2^40.
const TERA: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];

#[test]
fn binary_hostile_length_claim_rejected_before_allocation() {
    // A request header: magic, version, tag, id 1, budget 0, tier 0.
    let request = |tag: u8, body: &[u8]| {
        let mut p = vec![BINARY_MAGIC, BINARY_VERSION, tag, 1, 0, 0];
        p.extend_from_slice(body);
        p.extend_from_slice(&TERA);
        p
    };
    // Tag 4 = add-user: a user-string length claiming 2^40 bytes.
    assert_claim_refused("terabyte string claim", &request(4, &[]), decode_request);
    // Tag 16 = batch: a sub-request count claiming 2^40 items.
    assert_claim_refused("terabyte batch claim", &request(16, &[]), decode_request);
    // Tag 19 = top-k: user "a", attr "n", k 1, deadline 1, then a
    // state-value count claiming 2^40 strings.
    assert_claim_refused(
        "terabyte state-count claim",
        &request(19, &[1, b'a', 1, b'n', 1, 1]),
        decode_request,
    );

    // The replication envelope: magic, version, tag, from 1, epoch 1.
    let (env, rel) = poi_schema();
    let envelope = |tag: u8, body: &[u8]| {
        let mut p = vec![REPL_BINARY_MAGIC, REPL_BINARY_VERSION, tag, 1, 1];
        p.extend_from_slice(body);
        p.extend_from_slice(&TERA);
        p
    };
    let decode = |p: &[u8]| decode_envelope(p, &env, &rel);
    // Tag 1 = records on shard 0: a record count of 2^40.
    assert_claim_refused("terabyte record count", &envelope(1, &[0]), decode);
    // Tag 2 = snapshot: no lsns, then a stripe count of 2^40.
    assert_claim_refused("terabyte stripe count", &envelope(2, &[0]), decode);
    // Tag 5 = resync of shard 0 after lsn 0: one user "a" whose
    // profile section claims 2^40 bytes.
    assert_claim_refused(
        "terabyte profile section",
        &envelope(5, &[0, 0, 1, 1, b'a']),
        decode,
    );
    // A reply: tag 3 = beat at epoch 1, applied count 2^40.
    let mut beat = vec![REPL_BINARY_MAGIC, REPL_BINARY_VERSION, 3, 1];
    beat.extend_from_slice(&TERA);
    assert_claim_refused("terabyte applied count", &beat, decode_reply);
}

#[test]
fn binary_counts_reserve_no_more_than_the_input() {
    // A count the bytes can honour is still no licence to reserve
    // memory: a top-k request claiming 4096 state strings over 4096
    // bytes of garbage may reserve at most about twice the input, not
    // 4096 24-byte `String`s.
    let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, 19, 1, 0, 0];
    payload.extend_from_slice(&[1, b'a', 1, b'n', 1, 1, 0x80, 0x20]);
    payload.extend(std::iter::repeat_n(0xff, 4096));
    let largest = largest_alloc_during(|| {
        decode_request(&payload).expect_err("garbage state strings");
    });
    assert!(
        largest <= 2 * payload.len() + 1024,
        "a 4096-string claim reserved {largest} bytes for a {}-byte payload",
        payload.len()
    );
}

#[test]
fn garbage_prefixes_never_panic() {
    // Raw garbage (not derived from a valid stream): every prefix of
    // a pseudo-random byte soup must fail typed.
    let mut soup = Vec::with_capacity(4096);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        soup.push(x as u8);
    }
    for len in 0..soup.len().min(512) {
        let _ = drain(&soup[..len]);
    }
    let _ = drain(&soup);
}
