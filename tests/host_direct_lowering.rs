//! The host engine is lowered straight from the `regex` dialect, once per
//! compile, and nothing served un-lowers an ISA program.
//!
//! Counts, not times: which engine each pattern of an adversarial list
//! lands on and what its lowering did (follow-row ORs, follow edges), and
//! how many ISA lowerings the served paths run (`runtime.isa_lowerings`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;

use cicero::server::{DrainReport, Server, ServerHandle, ServerOptions};
use cicero_core::{Backend, CompileError, Compiler, CompilerOptions};
use cicero_hostexec::{EngineKind, HostProgram, MAX_FOLLOW_EDGES, MAX_WIDE_STATES};
use cicero_telemetry::Telemetry;

/// Patterns whose ISA un-lowering passes its closure budget or grows
/// faster than linearly: counted repeats of nullable pieces, whose
/// position automata are dense (every position follows every later one).
/// The last one sits at the 8,192-instruction wall.
const ADVERSARIAL: [&str; 10] = [
    "(a?){256}c",
    "(a?){400}c",
    "(a?){512}c",
    "(a?){721}c",
    "(a?){1024}c",
    "(a|b?){1000}c",
    "((a?){32}){32}c",
    "(.?){1024}c",
    "(.?){400}c",
    "((a?){4}){1023}c",
];

/// Follow-row ORs per automaton state: one per last position per
/// enclosing concatenation or loop, and no pattern above nests its atoms
/// more than two groups deep, so a row is ORed at most four times.
const ROW_ORS_PER_STATE: usize = 4;

fn host_compiler() -> Compiler {
    Compiler::with_options(CompilerOptions::optimized().with_backend(Backend::Host))
}

#[test]
fn adversarial_patterns_lower_in_linear_work_onto_bit_wide_or_past_the_edge_budget() {
    let compiler = host_compiler();
    for pattern in ADVERSARIAL {
        let set = compiler.compile_set(&[pattern]).unwrap_or_else(|e| panic!("{pattern}: {e}"));
        let single = compiler.compile(pattern).unwrap();
        for (what, host, program) in [
            ("set", &set.host().expect("a host compile").engine, set.program()),
            ("pattern", &single.host().expect("a host compile").engine, single.program()),
        ] {
            let lowering = host.lowering().expect("lowered from regex IR");
            // One state per atom occurrence, never more than the ISA
            // program's instructions.
            assert!(lowering.states <= program.len(), "{pattern} ({what}): {lowering:?}");
            assert!(
                lowering.row_ors <= ROW_ORS_PER_STATE * lowering.states,
                "{pattern} ({what}): {lowering:?}"
            );
            match host.engine_kind() {
                EngineKind::BitWide => assert!(lowering.follow_edges <= MAX_FOLLOW_EDGES),
                EngineKind::Interp => assert!(
                    lowering.follow_edges > MAX_FOLLOW_EDGES || lowering.states > MAX_WIDE_STATES,
                    "{pattern} ({what}) runs on the interpreter within every budget: {lowering:?}"
                ),
            }
            for input in [&b"aaaac"[..], b"xxc", b"ab", b"", b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbc"] {
                let want = cicero_isa::run(program, input);
                let got = host.run(input);
                assert_eq!(got.accepted, want.accepted, "{pattern} ({what}) on {input:?}");
                assert_eq!(got.match_position, want.match_position, "{pattern} ({what})");
            }
        }
    }
}

#[test]
fn the_nullable_repeat_family_lands_on_bit_wide_up_to_the_edge_budget() {
    // `(a?){n}c`: the start and scan-loop states each follow all n + 1
    // positions, and the n `a`s every later position: 2n + 4 + n(n+1)/2
    // edges, the last n under the budget is 721.
    let compiler = host_compiler();
    let mut ors = Vec::new();
    for n in [256usize, 400, 512, 721, 722] {
        let set = compiler.compile_set(&[format!("(a?){{{n}}}c")]).unwrap();
        let host = &set.host().unwrap().engine;
        let lowering = host.lowering().unwrap();
        assert_eq!(lowering.states, n + 3, "start, scan loop, n `a`s and the `c`");
        assert_eq!(lowering.follow_edges, 2 * n + 4 + n * (n + 1) / 2, "n = {n}");
        let want = if n <= 721 { EngineKind::BitWide } else { EngineKind::Interp };
        assert_eq!(host.engine_kind(), want, "n = {n}: {lowering:?}");
        ors.push((n, lowering.row_ors));
    }
    // Linear: each `a` is ORed in the repeat and in the root, the `c` in
    // the root.
    for (n, row_ors) in ors {
        assert_eq!(row_ors, 2 * n + 1, "n = {n}");
    }
}

#[test]
fn the_instruction_wall_still_refuses_first() {
    let err = host_compiler().compile("((a?){4}){1024}c").unwrap_err();
    assert!(matches!(err, CompileError::Codegen(_)), "{err}");
}

/// Sim-targeted compiles, the paper's pipeline, lower nothing.
#[test]
fn only_a_host_compile_carries_an_engine() {
    let compiler = Compiler::new();
    assert!(compiler.compile("ab|cd").unwrap().host().is_none());
    assert!(compiler.compile_set(&["ab", "cd"]).unwrap().host().is_none());
    let host = host_compiler().compile_set(&["ab", "cd"]).unwrap();
    let engine = &host.host().unwrap().engine;
    assert_eq!(engine.engine_kind(), EngineKind::BitWide);
    assert!(engine.state_count() <= HostProgram::compile(host.program()).state_count());
}

// ---------------------------------------------------------------- served

/// One request over a fresh connection: the status code and the body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.split(' ').nth(1).and_then(|code| code.parse().ok()).unwrap_or(0);
    let body = response.split("\r\n\r\n").nth(1).unwrap_or_default().to_owned();
    (status, body)
}

/// A server on an ephemeral port, its handle and its thread.
type Serving = (SocketAddr, ServerHandle, JoinHandle<std::io::Result<DrainReport>>);

fn serve(dir: &Path, telemetry: &Telemetry) -> Serving {
    let options = ServerOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        runtime: cicero::runtime::RuntimeOptions { jobs: 1, ..ServerOptions::default().runtime },
        ruleset_dir: Some(dir.to_path_buf()),
        ..ServerOptions::default()
    };
    let server = Server::bind_with_telemetry(options, telemetry.clone()).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    (addr, handle, std::thread::spawn(move || server.run()))
}

/// Shut the server down and wait for it to drain.
fn stop((_, handle, thread): Serving) {
    handle.shutdown();
    let report = thread.join().expect("the server thread").expect("the server's run");
    assert!(report.drained, "{report:?}");
}

/// The served paths a host scan takes — a ruleset from `put`, then
/// reloaded from disk by a restarted server; inline sets, past the
/// 128-entry program cache and back; streams; single patterns — run on
/// the engines their compiles lowered from `regex` IR, and un-lower no
/// ISA program.
#[test]
fn served_host_scans_run_no_isa_lowering() {
    let dir = std::env::temp_dir().join(format!("cicero-direct-lowering-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ruleset = r#"{"patterns":["ab+c","x[yz]{2,4}w","(GET|POST) /"]}"#;
    let scan = r#"{"input":"..abbbc..xyzw..POST /"}"#;

    let telemetry = Telemetry::new();
    let server = serve(&dir, &telemetry);
    let addr = server.0;
    assert_eq!(request(addr, "PUT", "/rulesets/r", ruleset).0, 201);
    let (status, body) = request(addr, "POST", "/scan?ruleset=r", scan);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"chunks_matched\":1").count(), 3, "{body}");
    let (status, body) = request(addr, "POST", "/scan/stream?ruleset=r", "..xyyzw..");
    assert_eq!(status, 200, "{body}");
    for round in 0..140 {
        let inline = format!(r#"{{"patterns":["a{round}b","q+r"],"input":"xa{round}bx"}}"#);
        let (status, body) = request(addr, "POST", "/scan", &inline);
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body.matches("\"chunks_matched\":1").count(), 1, "round {round}: {body}");
    }
    let first_again = r#"{"patterns":["a0b","q+r"],"input":"xa0bx"}"#;
    assert_eq!(request(addr, "POST", "/scan", first_again).0, 200);
    let (status, body) =
        request(addr, "POST", "/match", r#"{"pattern":"(a?){512}c","input":"aac"}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(telemetry.counter("runtime.isa_lowerings"), 0);
    stop(server);

    // A restart reloads the ruleset from its artifact.
    let telemetry = Telemetry::new();
    let server = serve(&dir, &telemetry);
    let addr = server.0;
    let (status, body) = request(addr, "POST", "/scan?ruleset=r", scan);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"chunks_matched\":1").count(), 3, "{body}");
    assert_eq!(request(addr, "POST", "/scan/stream?ruleset=r", "..abc..").0, 200);
    assert_eq!(telemetry.counter("registry.loads"), 1);
    assert_eq!(telemetry.counter("runtime.isa_lowerings"), 0);
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
