//! The load generator: keep-alive HTTP clients in a closed loop — each
//! sends its next request only after it has read the previous reply, as
//! callers of a matching service wait for the verdict — and the check of
//! every reply against the oracle's answer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::inputs::{Expect, Inputs, Template};
use crate::layers;

/// Closed-loop clients of the measured window.
pub const CLIENTS: usize = 2;

/// One keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // No reply takes this long; a hung server fails the run instead
        // of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { addr, stream, buf: Vec::with_capacity(4096) })
    }

    /// Send `request`, read one response; returns its status and body.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut scratch = [0u8; 4096];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            match self.stream.read(&mut scratch)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&scratch[..n]),
            }
        };
        let (status, length) = parse_head(&self.buf[..head_end])?;
        while self.buf.len() < head_end + length {
            match self.stream.read(&mut scratch)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&scratch[..n]),
            }
        }
        Ok((status, &self.buf[head_end..head_end + length]))
    }

    fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }
}

/// Status and `content-length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length: usize = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| bad("response lacks content-length"))?;
    Ok((status, length))
}

/// Status and body of a whole response held in memory.
pub fn split_response(wire: &[u8]) -> io::Result<(u16, &[u8])> {
    let head_end = find(wire, b"\r\n\r\n").ok_or(io::ErrorKind::UnexpectedEof)? + 4;
    let (status, length) = parse_head(&wire[..head_end])?;
    wire.get(head_end..head_end + length)
        .map(|body| (status, body))
        .ok_or(io::ErrorKind::UnexpectedEof.into())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Check a `/scan` reply against the oracle's answer; returns the
/// `cycles` it reported.
pub fn check(status: u16, body: &[u8], expect: &Expect, sim: bool) -> Result<u64, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", String::from_utf8_lossy(body)));
    }
    let answer = layers::parse_answer(body)?;
    if answer.matched != expect.matched
        || answer.per_pattern != expect.per_pattern
        || answer.chunks != expect.chunks
    {
        return Err(format!("wrong answer: got {answer:?}, the oracle says {expect:?}"));
    }
    if sim && answer.cycles == 0 {
        return Err("a simulated scan reported 0 cycles".to_owned());
    }
    Ok(answer.cycles)
}

/// Requests attempted and failed (transport error, non-200, or an answer
/// the oracle disagrees with), with the first few failures spelled out.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    const ERRORS_KEPT: usize = 5;

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < Tally::ERRORS_KEPT {
            self.errors.push(error);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(Tally::ERRORS_KEPT);
    }
}

/// Send one `/scan` request and check the reply against the oracle.
/// Returns the latency in ns — from before the first byte is written to
/// after the last is read; checking comes after — and the `cycles` the
/// reply reported, if it was right.
pub fn scan(
    client: &mut Client,
    template: &Template,
    sim: bool,
    tally: &mut Tally,
) -> (u64, Option<u64>) {
    tally.attempted += 1;
    let sent = Instant::now();
    let reply = client.roundtrip(&template.bytes);
    let latency_ns = sent.elapsed().as_nanos() as u64;
    let verdict = match reply {
        Ok((status, body)) => check(status, body, &template.expect, sim),
        Err(e) => {
            let _ = client.reconnect();
            Err(format!("transport: {e}"))
        }
    };
    (latency_ns, verdict.map_err(|e| tally.fail(e)).ok())
}

/// Send `request` (not a scan) and require `status`.
pub fn control(addr: SocketAddr, request: &[u8], accept: &[u16], tally: &mut Tally) {
    tally.attempted += 1;
    let result = Client::connect(addr).and_then(|mut client| {
        let (status, body) = client.roundtrip(request)?;
        Ok((status, String::from_utf8_lossy(body).into_owned()))
    });
    match result {
        Ok((status, _)) if accept.contains(&status) => {}
        Ok((status, body)) => tally.fail(format!("control request: status {status}: {body}")),
        Err(e) => tally.fail(format!("control request: transport: {e}")),
    }
}

/// `POST /shutdown`.
pub fn shutdown_request() -> Vec<u8> {
    b"POST /shutdown HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n".to_vec()
}

/// Remembers the `cycles` each distinct request reported, and fails a
/// simulated scan that reports a different count for the same bytes.
struct Cycles(Vec<u64>);

impl Cycles {
    fn see(&mut self, index: usize, cycles: u64, tally: &mut Tally) {
        match self.0[index] {
            0 => self.0[index] = cycles,
            seen if seen != cycles => {
                tally.fail(format!("request {index}: {cycles} cycles now, {seen} before"));
            }
            _ => {}
        }
    }
}

/// One request of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion, in ns from the start of the client's window.
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// What one closed-loop client saw.
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    /// Requests sent, warm-up included.
    pub sent: u64,
}

/// Run one closed-loop client: `inputs.spec.warmup` requests of warm-up
/// (replies checked, timings discarded), then a window of `window` in which
/// every request is recorded. Between the two every client and the caller
/// meet at `gate`, twice: once when all have warmed up, and again when the
/// caller has taken its reading of the process at that point.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    client_index: usize,
    gate: &Barrier,
    window: Duration,
) -> ClientLog {
    let mut log = ClientLog { samples: Vec::new(), tally: Tally::default(), sent: 0 };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.tally.attempted += 1;
            log.tally.fail(format!("connect: {e}"));
            gate.wait();
            gate.wait();
            return log;
        }
    };
    let mut cycles = Cycles(vec![0; inputs.distinct()]);
    let mut send = |j: usize, log: &mut ClientLog| {
        let (index, template) = inputs.request(client_index, j);
        log.sent += 1;
        let (latency_ns, reply) = scan(&mut client, template, inputs.spec.sim, &mut log.tally);
        if let (Some(reported), true) = (reply, inputs.spec.sim) {
            cycles.see(index, reported, &mut log.tally);
        }
        latency_ns
    };
    for j in 0..inputs.spec.warmup {
        send(j, &mut log);
    }
    gate.wait();
    gate.wait();
    let window_start = Instant::now();
    for j in inputs.spec.warmup.. {
        let sent = window_start.elapsed();
        if sent >= window {
            break;
        }
        let latency_ns = send(j, &mut log);
        log.samples.push(Sample { done_ns: sent.as_nanos() as u64 + latency_ns, latency_ns });
    }
    log
}

/// Send each of `templates` once on a fresh connection; returns the sum
/// of the `cycles` reported.
pub fn one_pass<'a>(
    addr: SocketAddr,
    templates: impl Iterator<Item = &'a Template>,
    sim: bool,
    tally: &mut Tally,
) -> u64 {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("connect: {e}"));
            return 0;
        }
    };
    templates.filter_map(|template| scan(&mut client, template, sim, tally).1).sum()
}
