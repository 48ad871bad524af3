//! The zero-downtime reload contract, under concurrent keep-alive load:
//! while a ruleset is hot-swapped by live `PUT`s, no scan is dropped, no
//! scan is answered by a version older than one already acknowledged, a
//! connection never sees versions go backwards, and the drain accounts
//! for every request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use cicero::server::{Server, ServerOptions};

const CLIENTS: usize = 4;
const SCANS_PER_CLIENT: usize = 500;
/// Live swaps mid-run; with the initial install the run sees `SWAPS + 1`
/// versions.
const SWAPS: usize = 8;

/// One request on a keep-alive connection; returns the status and the
/// `x-cicero-ruleset-version` header.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Option<String>) {
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    reader.get_mut().write_all(request.as_bytes()).expect("send request");
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        assert!(reader.read_line(&mut head).expect("response head") > 0, "eof inside {head:?}");
    }
    let header = |name: &str| head.lines().find_map(|line| line.strip_prefix(name));
    let status = head.split(' ').nth(1).and_then(|code| code.parse().ok()).expect("status code");
    let length = header("content-length: ").and_then(|n| n.parse().ok()).expect("content-length");
    reader.read_exact(&mut vec![0u8; length]).expect("response body");
    (status, header("x-cicero-ruleset-version: ").map(str::to_owned))
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    BufReader::new(stream)
}

/// Install version `i` of the live ruleset — a shared member plus one
/// pattern only version `i` has — and return its content version.
fn put_version(addr: SocketAddr, i: usize) -> String {
    let body = format!(r#"{{"patterns":["ab|cd","v{i}x+y","gh+i"]}}"#);
    let (status, version) = roundtrip(&mut connect(addr), "PUT", "/rulesets/live", &body);
    assert!(status == 200 || status == 201, "PUT of version {i} answered {status}");
    version.expect("a PUT response carries the content version")
}

#[test]
fn live_swaps_drop_nothing_and_never_serve_a_retired_version() {
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: CLIENTS,
        ..ServerOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // The install log: acknowledged versions, in install order.
    let log = Mutex::new(vec![put_version(addr, 0)]);
    let progress = AtomicUsize::new(0);
    let (swap_now, swap_requests) = mpsc::channel::<()>();

    // Each client records, per scan, how many installs had been
    // acknowledged when it sent the request and which version answered.
    let observed: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (log, progress, swap_now) = (&log, &progress, swap_now.clone());
                scope.spawn(move || {
                    let mut connection = connect(addr);
                    (0..SCANS_PER_CLIENT)
                        .map(|_| {
                            let acknowledged = log.lock().expect("install log").len();
                            let (status, version) = roundtrip(
                                &mut connection,
                                "POST",
                                "/scan?ruleset=live",
                                r#"{"input":"xxabyy v0x gh"}"#,
                            );
                            assert_eq!(status, 200, "a scan during a swap must not fail");
                            // Every 1/(SWAPS+1) of the run, the scan that
                            // crosses the mark asks for the next swap.
                            let done = progress.fetch_add(1, Ordering::SeqCst) + 1;
                            let mark = CLIENTS * SCANS_PER_CLIENT / (SWAPS + 1);
                            if done % mark == 0 && done / mark <= SWAPS {
                                swap_now.send(()).expect("swapper is listening");
                            }
                            (acknowledged, version.expect("every scan is version-tagged"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        drop(swap_now);
        let log = &log;
        scope.spawn(move || {
            for i in 1..=SWAPS {
                swap_requests.recv().expect("a scan crosses every swap mark");
                let version = put_version(addr, i);
                log.lock().expect("install log").push(version);
            }
        });
        clients.into_iter().map(|client| client.join().expect("client thread")).collect()
    });

    let installed = log.into_inner().expect("install log");
    assert_eq!(installed.len(), SWAPS + 1);
    let mut transitions = 0;
    for connection in &observed {
        let mut last = 0;
        for (acknowledged, version) in connection {
            let index = installed
                .iter()
                .position(|v| v == version)
                .unwrap_or_else(|| panic!("version {version} was never installed"));
            assert!(
                index + 1 >= *acknowledged,
                "install #{index} answered after {acknowledged} installs were acknowledged"
            );
            assert!(index >= last, "one connection saw install #{index} after #{last}");
            transitions += usize::from(index != last);
            last = index;
        }
    }
    assert!(transitions >= 1, "no swap landed inside the measured window");

    handle.shutdown();
    let report = server_thread.join().expect("server thread");
    assert!(report.drained, "{report:?}");
    assert_eq!(report.rejected, 0, "{report:?}");
    let scans = (CLIENTS * SCANS_PER_CLIENT) as u64;
    assert_eq!(report.requests, scans + SWAPS as u64 + 1, "scans + installs: {report:?}");
}
