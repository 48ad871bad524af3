//! Wire-level chunk-split invariance for `POST /scan/stream`.
//!
//! The engine-level property says a resumable matcher fed the input in
//! arbitrary chunks is byte-identical to the whole-input run. This file
//! checks it *end-to-end over a socket*: the same body delivered as HTTP
//! `Transfer-Encoding: chunked` — split at seeded random chunk
//! boundaries — must produce a raw HTTP response
//! byte-identical to the `Content-Length` delivery (same deterministic
//! body fields, same ruleset version header), and its verdict must agree
//! with the JSON `/scan` endpoint over the same ruleset.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

use cicero::server::{Server, ServerHandle, ServerOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The pattern set every request scans against; installed once.
const PATTERNS: &str = r#"{"patterns":["ab|cd","x(a?|a*)y","gh+i"]}"#;

fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<(SocketAddr, ServerHandle)> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let options = ServerOptions {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                runtime: cicero::runtime::RuntimeOptions {
                    jobs: 1,
                    ..ServerOptions::default().runtime
                },
                ..ServerOptions::default()
            };
            let server = Server::bind(options).expect("bind");
            let addr = server.local_addr().expect("addr");
            let handle = server.handle();
            std::thread::spawn(move || server.run());
            let put = roundtrip(
                addr,
                format!(
                    "PUT /rulesets/wire HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{PATTERNS}",
                    PATTERNS.len()
                )
                .into_bytes(),
            );
            assert!(
                status_line(&put).contains("201"),
                "ruleset install failed: {}",
                String::from_utf8_lossy(&put)
            );
            (addr, handle)
        })
        .0
}

/// One request over a fresh connection; returns the raw response bytes.
fn roundtrip(addr: SocketAddr, request: Vec<u8>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&request).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    response
}

fn status_line(response: &[u8]) -> String {
    String::from_utf8_lossy(response).lines().next().unwrap_or_default().to_owned()
}

/// The whole-body delivery: one `Content-Length` request.
fn whole_body_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nx-cicero-request-id: wire-prop\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// The chunked delivery: the same body split at the given boundaries.
fn chunked_request(path: &str, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nx-cicero-request-id: wire-prop\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n"
    )
    .into_bytes();
    for chunk in chunks {
        request.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        request.extend_from_slice(chunk);
        request.extend_from_slice(b"\r\n");
    }
    request.extend_from_slice(b"0\r\n\r\n");
    request
}

fn body_field(response: &[u8], field: &str) -> Option<String> {
    let text = String::from_utf8_lossy(response);
    let body = text.split("\r\n\r\n").nth(1)?;
    let tail = body.split(&format!("\"{field}\":")).nth(1)?;
    Some(tail.split([',', '}']).next()?.trim().to_owned())
}

/// Chunk-split invariance over the wire: splitting the HTTP body at
/// arbitrary boundaries must not change one byte of the response, and
/// the streamed verdict must agree with the batch `/scan` path. 64 seeded
/// cases: up to 47 body bytes over `a`–`h`, up to five split points.
#[test]
fn scan_stream_responses_are_invariant_to_http_chunking() {
    const SEED: u64 = 42;
    let addr = server_addr();
    let path = "/scan/stream?ruleset=wire";
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..64 {
        let input: Vec<u8> =
            (0..rng.random_range(0..48)).map(|_| b'a' + rng.random_range(0..8u8)).collect();
        let splits: Vec<usize> =
            (0..rng.random_range(0..6)).map(|_| rng.random_range(0..48)).collect();
        let at = format!(
            "seed {SEED} case {case}: input {:?} split at {splits:?}",
            String::from_utf8_lossy(&input)
        );
        let chunks = cicero::difftest::apply_splits(&input, &splits);
        let whole = roundtrip(addr, whole_body_request(path, &input));
        let split = roundtrip(addr, chunked_request(path, &chunks));
        assert_eq!(whole, split, "response changed under chunking, {at}");
        assert!(status_line(&whole).contains("200"), "{}, {at}", status_line(&whole));
        // Every response is tagged with the version that served it.
        let version = body_field(&whole, "ruleset_version");
        assert!(version.is_some(), "missing ruleset_version, {at}");

        // Verdict agreement with the JSON batch endpoint over the same
        // pinned ruleset (the endpoints share the compiled program).
        let scan_body = format!(r#"{{"input":"{}"}}"#, String::from_utf8_lossy(&input));
        let scan = roundtrip(addr, whole_body_request("/scan?ruleset=wire", scan_body.as_bytes()));
        assert!(status_line(&scan).contains("200"), "{}, {at}", status_line(&scan));
        assert_eq!(
            body_field(&whole, "matched"),
            body_field(&scan, "matched"),
            "stream and batch verdicts diverged, {at}"
        );
        assert_eq!(body_field(&scan, "ruleset_version"), version, "{at}");
    }
}
