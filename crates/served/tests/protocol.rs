//! Wire-protocol robustness: table-driven decoder cases over
//! truncated, oversized, and garbage frames, plus a seeded fuzz loop.
//!
//! The server feeds every byte a client sends through `read_frame` +
//! `Request::decode`; these tests pin the contract that malformed
//! input always surfaces as a *typed* `ProtocolError` — never a panic,
//! never an unbounded allocation, never a silently accepted frame.

use rt_rng::{Rng, SmallRng};
use rt_served::protocol::{
    parse_hex_id, read_frame, ProtocolError, Request, Response, MAX_FRAME_BYTES,
};
use rt_served::JobSpec;
use std::io::BufReader;

/// One decoder expectation: a wire line and the error class it must
/// produce.
struct Case {
    name: &'static str,
    line: &'static str,
    expect: fn(&ProtocolError) -> bool,
}

#[test]
fn request_decoder_rejects_malformed_frames_with_typed_errors() {
    let cases = [
        Case {
            name: "empty line",
            line: "",
            expect: |e| matches!(e, ProtocolError::Garbage(_)),
        },
        Case {
            name: "not json",
            line: "GET / HTTP/1.1",
            expect: |e| matches!(e, ProtocolError::Garbage(_)),
        },
        Case {
            name: "truncated object",
            line: "{\"v\":1,\"cmd\":\"pi",
            expect: |e| matches!(e, ProtocolError::Garbage(_)),
        },
        Case {
            name: "json but not an object",
            line: "[1,2,3]",
            expect: |e| matches!(e, ProtocolError::NotAnObject),
        },
        Case {
            name: "scalar frame",
            line: "42",
            expect: |e| matches!(e, ProtocolError::NotAnObject),
        },
        Case {
            name: "missing version",
            line: "{\"cmd\":\"ping\"}",
            expect: |e| matches!(e, ProtocolError::MissingField { field: "v" }),
        },
        Case {
            name: "wrong version",
            line: "{\"v\":99,\"cmd\":\"ping\"}",
            expect: |e| matches!(e, ProtocolError::UnsupportedVersion { found: 99 }),
        },
        Case {
            name: "version not a number",
            line: "{\"v\":\"one\",\"cmd\":\"ping\"}",
            expect: |e| matches!(e, ProtocolError::BadField { field: "v", .. }),
        },
        Case {
            name: "missing command",
            line: "{\"v\":1}",
            expect: |e| matches!(e, ProtocolError::MissingField { field: "cmd" }),
        },
        Case {
            name: "unknown command",
            line: "{\"v\":1,\"cmd\":\"launch-missiles\"}",
            expect: |e| matches!(e, ProtocolError::UnknownCommand { .. }),
        },
        Case {
            name: "submit without spec",
            line: "{\"v\":1,\"cmd\":\"submit\"}",
            expect: |e| matches!(e, ProtocolError::MissingField { field: "spec" }),
        },
        Case {
            name: "submit with scalar spec",
            line: "{\"v\":1,\"cmd\":\"submit\",\"spec\":7}",
            expect: |e| matches!(e, ProtocolError::BadField { field: "spec", .. }),
        },
        Case {
            name: "submit without scenes",
            line: "{\"v\":1,\"cmd\":\"submit\",\"spec\":{}}",
            expect: |e| matches!(e, ProtocolError::MissingField { field: "scenes" }),
        },
        Case {
            name: "submit with non-string scenes",
            line: "{\"v\":1,\"cmd\":\"submit\",\"spec\":{\"scenes\":[1]}}",
            expect: |e| matches!(e, ProtocolError::BadField { field: "scenes", .. }),
        },
        Case {
            name: "submit with lossy res",
            line: "{\"v\":1,\"cmd\":\"submit\",\"spec\":{\"scenes\":[\"CAR\"],\"res\":1.5}}",
            expect: |e| matches!(e, ProtocolError::BadField { field: "res", .. }),
        },
        Case {
            name: "status without job",
            line: "{\"v\":1,\"cmd\":\"status\"}",
            expect: |e| matches!(e, ProtocolError::MissingField { field: "job" }),
        },
        Case {
            name: "status with decimal job id",
            line: "{\"v\":1,\"cmd\":\"status\",\"job\":\"12345\"}",
            expect: |e| matches!(e, ProtocolError::BadField { field: "job", .. }),
        },
        Case {
            name: "deeply nested bomb",
            line: "{\"v\":1,\"cmd\":\"submit\",\"spec\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}",
            expect: |e| matches!(e, ProtocolError::Garbage(_)),
        },
    ];
    for case in cases {
        match Request::decode(case.line) {
            Err(e) => assert!(
                (case.expect)(&e),
                "{}: wrong error class: {e:?} for {:?}",
                case.name,
                case.line
            ),
            Ok(req) => panic!("{}: accepted {:?} as {req:?}", case.name, case.line),
        }
    }
}

#[test]
fn response_decoder_rejects_malformed_frames() {
    let cases: &[&str] = &[
        "",
        "null",
        "{\"reply\":{}}",                          // missing ok
        "{\"ok\":\"yes\"}",                        // ok not a bool
        "{\"ok\":true}",                           // missing reply
        "{\"ok\":true,\"reply\":{\"wat\":1}}",     // unknown reply shape
        "{\"ok\":false}",                          // error without kind
        "{\"ok\":false,\"error\":\"quantum\"}",    // unknown error kind
        "{\"ok\":true,\"reply\":{\"rows\":[{}]}}", // row missing fields
    ];
    for line in cases {
        assert!(
            Response::decode(line).is_err(),
            "accepted bad response {line:?}"
        );
    }
}

#[test]
fn oversized_frames_are_shed_incrementally() {
    // An attacker holding the connection open and streaming an endless
    // line must be cut off at the cap, not buffered forever.
    let payload = vec![b'x'; MAX_FRAME_BYTES * 3];
    let mut reader = BufReader::new(&payload[..]);
    match read_frame(&mut reader) {
        Err(ProtocolError::Oversized { len, max }) => {
            assert_eq!(max, MAX_FRAME_BYTES);
            assert!(len > MAX_FRAME_BYTES);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn frames_after_an_oversized_line_are_still_readable() {
    // The oversized line is consumed up to (not past) its newline; the
    // caller can drop the connection, but the reader is not wedged.
    let mut payload = vec![b'x'; MAX_FRAME_BYTES + 10];
    payload.extend_from_slice(b"\n{\"v\":1}\n");
    let mut reader = BufReader::new(&payload[..]);
    assert!(matches!(
        read_frame(&mut reader),
        Err(ProtocolError::Oversized { .. })
    ));
}

/// Seeded fuzz loop: random mutations of valid frames plus raw random
/// bytes. Every input must decode to `Ok` or a typed error — the
/// assertion is simply "no panic, ever", which the harness enforces by
/// this test completing.
#[test]
fn fuzzed_frames_never_panic_the_decoder() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_f00d);
    let seeds: Vec<String> = vec![
        Request::Ping.encode(),
        Request::Shutdown.encode(),
        Request::Status { job: 0xdead_beef }.encode(),
        Request::Submit(JobSpec {
            scenes: vec!["CAR".to_string(), "BUNNY".to_string()],
            configs: vec!["baseline".to_string(), "prefetch".to_string()],
            detail: 0.25,
            res: 16,
            workload: "diffuse".to_string(),
            treelet_bytes: 1024,
            max_cycles: Some(100_000),
            timeout_ms: Some(5_000),
            checkpoint_every: 1_000,
        })
        .encode(),
        Response::Pong.encode(),
        Response::ShuttingDown.encode(),
    ];

    for round in 0..5_000 {
        let line: String = if rng.gen_bool(0.7) {
            // Mutate a valid frame: truncate, splice, or corrupt bytes.
            let seed = &seeds[rng.gen_range(0..seeds.len())];
            let mut bytes = seed.clone().into_bytes();
            match rng.gen_range(0..4u32) {
                0 => {
                    // Truncate at a random point.
                    let cut = rng.gen_range(0..bytes.len());
                    bytes.truncate(cut);
                }
                1 => {
                    // Flip a handful of bytes.
                    for _ in 0..rng.gen_range(1..8u32) {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] = rng.gen_range(0..256u32) as u8;
                    }
                }
                2 => {
                    // Duplicate a prefix onto the end.
                    let at = rng.gen_range(0..bytes.len());
                    let chunk: Vec<u8> = bytes[..at].to_vec();
                    bytes.extend_from_slice(&chunk);
                }
                _ => {
                    // Reverse the frame wholesale.
                    bytes.reverse();
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            // Raw random printable-ish garbage.
            let len = rng.gen_range(0..256usize);
            (0..len)
                .map(|_| rng.gen_range(0x20..0x7fu8) as char)
                .collect()
        };

        // Must return, never panic — both directions of the protocol.
        let _ = Request::decode(&line);
        let _ = Response::decode(&line);
        // And a valid round-trip must stay valid when decode succeeds.
        if let Ok(req) = Request::decode(&line) {
            let reencoded = req.encode();
            assert_eq!(
                Request::decode(&reencoded).expect("re-encode of accepted frame decodes"),
                req,
                "round {round}: {line:?}"
            );
        }
    }
}

#[test]
fn hex_ids_survive_fuzzing() {
    let mut rng = SmallRng::seed_from_u64(42);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..24usize);
        let s: String = (0..len)
            .map(|_| rng.gen_range(0x20..0x7fu8) as char)
            .collect();
        // Never panics; round-trips exactly when it parses.
        if let Some(id) = parse_hex_id(&s) {
            assert_eq!(parse_hex_id(&rt_served::protocol::hex_id(id)), Some(id));
        }
    }
}
