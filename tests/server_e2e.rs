//! End-to-end smoke tests for `cicero serve`: the real binary, a real
//! ephemeral TCP port, raw HTTP over sockets.
//!
//! This is the serving layer's outermost contract: the server announces
//! its address, answers every endpoint, reports tripped budgets as `429`,
//! agrees byte-for-byte with the `cicero scan` CLI on the same seeded
//! workload, and exits `0` after a graceful drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cicero::server::json::{self, Json};

/// A `cicero serve` child plus the address it announced.
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawn `cicero serve --addr 127.0.0.1:0 ...` and read the
    /// `listening on ADDR` line to discover the ephemeral port.
    fn start(extra_args: &[&str]) -> ServeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cicero"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning cicero serve");
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("reading the listening line");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .trim()
            .to_owned();
        ServeProcess { child, addr }
    }

    /// POST `/shutdown`, wait for the drain, and assert exit code 0.
    fn shutdown_and_wait(mut self) {
        let (status, _, _) = self.request("POST", "/shutdown", "", &[]);
        assert_eq!(status, 200);
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        loop {
            if let Some(status) = self.child.try_wait().expect("polling the child") {
                assert!(status.success(), "cicero serve must exit 0 after a graceful drain");
                return;
            }
            assert!(std::time::Instant::now() < deadline, "serve did not exit after shutdown");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// One request over a fresh connection; returns (status, headers, body).
    fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> (u16, String, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connecting to cicero serve");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str(&format!("content-length: {}\r\nconnection: close\r\n\r\n{body}", body.len()));
        stream.write_all(raw.as_bytes()).expect("sending the request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reading the response");
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("bad response {response:?}"));
        let (head, body) = response.split_once("\r\n\r\n").unwrap_or((response.as_str(), ""));
        (status, head.to_owned(), body.to_owned())
    }
}

#[test]
fn serve_answers_every_endpoint_and_drains_cleanly() {
    let server = ServeProcess::start(&["--workers", "2"]);

    let (status, _, body) = server.request("GET", "/healthz", "", &[]);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, _, body) =
        server.request("POST", "/match", r#"{"patterns":["ab|cd","zzz"],"input":"xxabyy"}"#, &[]);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("match response is JSON");
    let results = doc.get("results").and_then(Json::as_arr).expect("results array");
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].get("verdict").and_then(Json::as_str), Some("match"));
    assert_eq!(results[1].get("verdict").and_then(Json::as_str), Some("no-match"));

    let (status, _, body) = server.request(
        "POST",
        "/scan",
        r#"{"patterns":["GET /","POST /"],"input":"GET /index POST /submit"}"#,
        &[],
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("scan response is JSON");
    assert_eq!(doc.get("matched"), Some(&Json::Bool(true)));
    let per_pattern = doc.get("per_pattern").and_then(Json::as_arr).expect("per_pattern");
    // Both set members hit the single chunk: the all-matches accounting.
    for row in per_pattern {
        assert_eq!(row.get("chunks_matched").and_then(Json::as_u64), Some(1), "{body}");
    }

    let (status, _, body) = server.request("GET", "/metrics?format=summary", "", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("server.requests"), "{body}");
    let (status, _, jsonl) = server.request("GET", "/metrics?format=jsonl", "", &[]);
    assert_eq!(status, 200);
    assert!(jsonl.lines().any(|l| l.contains("server.latency_ms")), "{jsonl}");
    assert!(jsonl.lines().any(|l| l.contains("runtime.cache_")), "{jsonl}");

    server.shutdown_and_wait();
}

/// One request over a fresh connection from any thread; returns the
/// status code only (the concurrent-load test cares about answered vs
/// dropped, not bodies).
fn raw_roundtrip(addr: &str, method: &str, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connecting to cicero serve");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("sending the request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reading the response");
    response.split(' ').nth(1).and_then(|code| code.parse().ok()).unwrap_or(0)
}

/// The multi-core smoke contract (CI runs this binary with
/// `--workers 4`): four concurrent clients hammering `/match` with
/// distinct patterns — concurrent compiles through the shared program
/// cache — must all be answered `200`, and the server must still drain
/// cleanly afterwards.
#[test]
fn multi_worker_serve_answers_concurrent_clients_and_drains() {
    let server = ServeProcess::start(&["--workers", "4"]);
    let mut clients = Vec::new();
    for client in 0..4 {
        let addr = server.addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for i in 0..12 {
                // A shared pattern (cache-hit traffic) plus a per-request
                // unique one (cache-miss traffic) in each set.
                let body = format!(r#"{{"patterns":["ab|cd","x{client}y{i}"],"input":"xxcdyy"}}"#);
                if raw_roundtrip(&addr, "POST", "/match", &body) == 200 {
                    ok += 1;
                }
            }
            ok
        }));
    }
    let answered: usize = clients.into_iter().map(|j| j.join().expect("client thread")).sum();
    assert_eq!(answered, 48, "every concurrent request must be answered 200");
    server.shutdown_and_wait();
}

#[test]
fn serve_reports_tripped_budgets_as_429() {
    let server = ServeProcess::start(&[]);
    let (status, head, body) = server.request(
        "POST",
        "/match",
        r#"{"patterns":["(ab|ba)+x"],"input":"abbaabbaabbaabbaabba"}"#,
        &[("X-Cicero-Fuel", "1")],
    );
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("retry-after"), "{head}");
    let doc = json::parse(&body).expect("budget response is JSON");
    assert_eq!(doc.get("budget_exceeded"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("fuel"));
    server.shutdown_and_wait();
}

/// An architecture spec arrives from the network, so a shape the
/// simulator's constructors would panic on (zero engines) or allocate
/// without bound for (a million engines) must be a `400` — never a dead
/// handler thread. Five bad requests outnumber the four default workers:
/// if any of them took its thread down, the follow-ups would hang.
#[test]
fn malformed_arch_configs_answer_400_and_leave_the_server_serving() {
    let server = ServeProcess::start(&[]);
    let (status, _, body) = server.request("PUT", "/rulesets/web", r#"{"patterns":["ab"]}"#, &[]);
    assert_eq!(status, 201, "{body}");

    let with_config =
        |spec: &str| format!(r#"{{"patterns":["ab"],"input":"ab","config":"{spec}"}}"#);
    let mut answers = Vec::new();
    for path in ["/match", "/scan", "/match", "/scan", "/match"] {
        answers.push(server.request("POST", path, &with_config("8x0"), &[]));
    }
    answers.push(server.request("POST", "/match", &with_config("1x1000000"), &[]));
    answers.push(server.request(
        "POST",
        "/scan/stream?ruleset=web",
        "ab",
        &[("X-Cicero-Config", "4x0")],
    ));
    for (status, _, body) in &answers {
        assert_eq!(*status, 400, "{body}");
        let doc = json::parse(body).expect("error response is JSON");
        assert!(doc.get("error").and_then(Json::as_str).is_some(), "{body}");
    }

    let (status, _, body) = server.request("GET", "/healthz", "", &[]);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = server.request("POST", "/match", &with_config("8x1"), &[]);
    assert_eq!(status, 200, "{body}");
    server.shutdown_and_wait();
}

/// `X-Cicero-Chunk-Size` arrives from the network, so a chunk size far
/// beyond the body must cost only the body's bytes: a failed allocation
/// aborts the process, which no handler guard can catch.
#[test]
fn a_huge_stream_chunk_size_is_answered_and_leaves_the_server_serving() {
    let server = ServeProcess::start(&[]);
    let (status, _, body) =
        server.request("PUT", "/rulesets/r1", r#"{"patterns":["ab","cd"]}"#, &[]);
    assert_eq!(status, 201, "{body}");

    let stream = |headers: &[(&str, &str)]| {
        let (status, _, body) =
            server.request("POST", "/scan/stream?ruleset=r1", "xxcdyy", headers);
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("stream response is JSON");
        ["verdict", "match_position", "cycles", "bytes_scanned"].map(|key| doc.get(key).cloned())
    };
    let default = stream(&[]);
    assert_eq!(default[0], Some(Json::Str("match".to_owned())));
    assert_eq!(stream(&[("X-Cicero-Chunk-Size", "1000000000000")]), default);

    let (status, _, body) = server.request("GET", "/healthz", "", &[]);
    assert_eq!(status, 200, "{body}");
    server.shutdown_and_wait();
}

/// A pattern nested deeper than the parser admits is refused with a 4xx
/// before any recursive pass sees it: 1,500 nested groups used to
/// overflow a connection thread's stack, and a stack overflow aborts the
/// whole process, which no handler guard can catch.
#[test]
fn a_deeply_nested_pattern_is_refused_and_leaves_the_server_serving() {
    let server = ServeProcess::start(&[]);
    let deep = format!("{}a{}", "(".repeat(1_500), ")".repeat(1_500));
    let (status, _, body) =
        server.request("POST", "/scan", &format!(r#"{{"patterns":["{deep}"],"input":"a"}}"#), &[]);
    assert!((400..500).contains(&status), "{status}: {body}");
    let doc = json::parse(&body).expect("error response is JSON");
    assert!(doc.get("error").and_then(Json::as_str).is_some(), "{body}");

    let (status, _, body) =
        server.request("POST", "/scan", r#"{"patterns":["ab"],"input":"xxab"}"#, &[]);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("scan response is JSON");
    assert_eq!(doc.get("matched"), Some(&Json::Bool(true)), "{body}");
    server.shutdown_and_wait();
}

/// A pattern past the ISA's 8,192-instruction address space is a `400`
/// naming that wall on `/scan` and `/match`, whether codegen finds it
/// (`(a{1024}){9}`) or the lowering refuses it after a bounded amount of
/// work (counted quantifiers multiplied far past it). The long gap inside
/// the wall is answered. The latter two shapes used to overflow a
/// connection thread's stack in a recursive lowering, which aborts the
/// whole process.
#[test]
fn a_pattern_past_the_instruction_wall_is_refused_and_leaves_the_server_serving() {
    let server = ServeProcess::start(&[]);
    let body = |pattern: &str| format!(r#"{{"patterns":["{pattern}"],"input":"xxab"}}"#);
    for pattern in ["(a{1024}){1024}", "((a{1024}){1024}){1024}", "(a{1024}){9}"] {
        for path in ["/scan", "/match"] {
            let (status, _, reply) = server.request("POST", path, &body(pattern), &[]);
            assert_eq!(status, 400, "{path} {pattern}: {reply}");
            let doc = json::parse(&reply).expect("error response is JSON");
            let error = doc.get("error").and_then(Json::as_str).expect("an error message");
            assert!(error.contains("8192-instruction address space"), "{path} {pattern}: {error}");
        }
    }
    let (status, _, reply) =
        server.request("POST", "/scan", &body("a.{1024}.{1024}.{1024}.{1024}b"), &[]);
    assert_eq!(status, 200, "{reply}");

    let (status, _, reply) =
        server.request("POST", "/scan", r#"{"patterns":["ab"],"input":"xxab"}"#, &[]);
    assert_eq!(status, 200, "{reply}");
    let doc = json::parse(&reply).expect("scan response is JSON");
    assert_eq!(doc.get("matched"), Some(&Json::Bool(true)), "{reply}");
    server.shutdown_and_wait();
}

/// The served `POST /scan` and the `cicero scan --jobs` CLI must agree
/// byte-for-byte on per-pattern match counts for the same seeded
/// workload — same chunking, same set compilation, same all-matches
/// accounting.
#[test]
fn served_scan_matches_the_cli_scan_on_a_seeded_workload() {
    let bench = cicero::workloads::Benchmark::protomata(0xC1CE_2025, 6, 8);
    let input: Vec<u8> = bench.chunks.iter().flatten().copied().collect();
    let input_text = String::from_utf8(input).expect("workload chunks are ASCII");

    // CLI side: scan the joined input with the same pattern set.
    let mut path = std::env::temp_dir();
    path.push(format!("cicero-server-e2e-{}.txt", std::process::id()));
    std::fs::write(&path, &input_text).expect("writing the workload input");
    let mut args = vec!["scan".to_owned()];
    args.extend(bench.patterns.iter().cloned());
    args.extend(["--input".to_owned(), path.to_str().unwrap().to_owned()]);
    args.extend(["--jobs".to_owned(), "2".to_owned()]);
    let output = Command::new(env!("CARGO_BIN_EXE_cicero"))
        .args(&args)
        .output()
        .expect("running cicero scan");
    std::fs::remove_file(&path).ok();
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut cli_counts = vec![0u64; bench.patterns.len()];
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("MATCH: pattern ") {
            let id: usize = rest.split(' ').next().unwrap().parse().expect("pattern id");
            // `rsplit` so a pattern containing " in " cannot confuse
            // the parse: the count is always in the final segment.
            let chunks: u64 = rest
                .rsplit(" in ")
                .next()
                .and_then(|s| s.split(' ').next())
                .unwrap()
                .parse()
                .expect("chunk count");
            cli_counts[id] = chunks;
        }
    }

    // Server side: the same patterns and input through POST /scan.
    let server = ServeProcess::start(&["--jobs", "2"]);
    let patterns_json: Vec<String> = bench
        .patterns
        .iter()
        .map(|p| format!("\"{}\"", cicero::telemetry::escape_json(p)))
        .collect();
    let body = format!(
        "{{\"patterns\":[{}],\"input\":\"{}\"}}",
        patterns_json.join(","),
        cicero::telemetry::escape_json(&input_text)
    );
    let (status, _, response) = server.request("POST", "/scan", &body, &[]);
    assert_eq!(status, 200, "{response}");
    let doc = json::parse(&response).expect("scan response is JSON");
    assert_eq!(doc.get("chunks").and_then(Json::as_u64), Some(bench.chunks.len() as u64));
    let per_pattern = doc.get("per_pattern").and_then(Json::as_arr).expect("per_pattern");
    let server_counts: Vec<u64> = per_pattern
        .iter()
        .map(|row| row.get("chunks_matched").and_then(Json::as_u64).expect("count"))
        .collect();
    assert_eq!(
        server_counts, cli_counts,
        "served /scan and `cicero scan --jobs` must report identical per-pattern counts\n\
         stdout: {stdout}\nresponse: {response}"
    );
    // The seeded workload plants witnesses; an all-zero vector would mean
    // the comparison was vacuous.
    assert!(server_counts.iter().any(|c| *c > 0), "workload must produce at least one match");
    server.shutdown_and_wait();
}

/// Run the `cicero` binary; returns (success, stdout, stderr).
fn cli(args: &[&str]) -> (bool, String, String) {
    let output =
        Command::new(env!("CARGO_BIN_EXE_cicero")).args(args).output().expect("running cicero");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The registry lifecycle end to end through the real binary: `serve
/// --ruleset-dir`, `cicero ruleset put/get/list/rm` as HTTP clients,
/// `scan --ruleset` on both backends, a hot swap visible as a version
/// change, and the persisted artifact restored by a second server.
#[test]
fn ruleset_cli_drives_the_registry_lifecycle_end_to_end() {
    let dir = std::env::temp_dir().join(format!("cicero-e2e-rulesets-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServeProcess::start(&["--ruleset-dir", dir.to_str().unwrap()]);
    let addr = server.addr.clone();

    // Install: a content-hash version comes back on stdout.
    let (ok, stdout, stderr) = cli(&["ruleset", "put", "web", "ab|cd", "gh+i", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("installed web @ "), "{stdout}");
    let v1 = stdout.split(" @ ").nth(1).unwrap().split(' ').next().unwrap().to_owned();
    assert_eq!(v1.len(), 16, "content version must be 16 hex chars: {stdout}");

    // Scan against the served ruleset on both backends: the response is
    // tagged with the version that served it and the verdicts agree.
    for backend in ["host", "sim"] {
        let (ok, stdout, stderr) = cli(&[
            "scan",
            "--ruleset",
            "web",
            "--text",
            "xxabyy",
            "--addr",
            &addr,
            "--backend",
            backend,
        ]);
        assert!(ok, "[{backend}] {stderr}");
        assert!(stdout.contains(&format!("ruleset    : web @ {v1}")), "[{backend}] {stdout}");
        assert!(stdout.contains("\"verdict\":\"match\""), "[{backend}] {stdout}");
    }

    // get / list see the installed id and version.
    let (ok, stdout, stderr) = cli(&["ruleset", "get", "web", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(&v1) && stdout.contains("ab|cd"), "{stdout}");
    let (ok, stdout, stderr) = cli(&["ruleset", "list", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"web\""), "{stdout}");

    // Hot swap: put over the same id reports the replacement and scans
    // pick up the new version (and the new patterns) immediately.
    let (ok, stdout, stderr) = cli(&["ruleset", "put", "web", "zz+9", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("swapped web @ "), "{stdout}");
    let v2 = stdout.split(" @ ").nth(1).unwrap().split(' ').next().unwrap().to_owned();
    assert_ne!(v1, v2, "swapping different patterns must change the content version");
    let (ok, stdout, stderr) =
        cli(&["scan", "--ruleset", "web", "--text", "azz9b", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(&format!("ruleset    : web @ {v2}")), "{stdout}");
    assert!(stdout.contains("\"verdict\":\"match\""), "{stdout}");

    // A restarted server over the same --ruleset-dir restores the swap.
    server.shutdown_and_wait();
    let revived = ServeProcess::start(&["--ruleset-dir", dir.to_str().unwrap()]);
    let (ok, stdout, stderr) = cli(&["ruleset", "get", "web", "--addr", &revived.addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(&v2), "restart must restore version {v2}: {stdout}");

    // rm deletes it everywhere: the client reports it, scans 404.
    let (ok, stdout, stderr) = cli(&["ruleset", "rm", "web", "--addr", &revived.addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("deleted web"), "{stdout}");
    let (ok, _, stderr) =
        cli(&["scan", "--ruleset", "web", "--text", "x", "--addr", &revived.addr]);
    assert!(!ok, "scanning a deleted ruleset must fail");
    assert!(stderr.contains("404"), "{stderr}");
    revived.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
