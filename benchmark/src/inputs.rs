//! The four workloads: what each sends, and what the right answer is.
//!
//! `--seed` makes the *traffic* — every haystack byte, and for
//! `inline-churn` every never-seen pattern set. The three installed
//! rulesets (and `inline-churn`'s hot working set of sixteen sets) are
//! the suite's own patterns at [`SUITE_SEED`], the same on every seed:
//! a ruleset is a deployment, not traffic, and drawing it per seed would
//! flip the host engine tier (a 4-pattern BRILL set lands on 112–189
//! states across seeds 1–12, either side of the 128-state `bit128`
//! limit) and swing the accepting share of chunks from 27 % to 100 %, so
//! no two seeds would measure the same system.
//!
//! Expected answers come from `regex-oracle` (the Pike VM), never from the
//! compiler under test.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regex_oracle::Oracle;
use workloads::{brill, protomata, witness_for, Benchmark, CHUNK_BYTES};

use crate::json;

/// Seed of the pinned rulesets (the one the issue's sizing runs used:
/// BRILL×4 → 127 states → `bit128`; PROTOMATA×16 → 350 states →
/// `lazy-dfa`).
pub const SUITE_SEED: u64 = 7;

/// Share of chunks that get a witness of one pattern planted — the same
/// share `workloads::Benchmark` plants.
const PLANT_FRACTION: f64 = 0.3;

/// In `inline-churn`, one request in this many carries a pattern set the
/// program cache does not hold.
pub const CHURN_PERIOD: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    Brill,
    Protomata,
}

/// The fixed shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    suite: Suite,
    /// Patterns per set (the ruleset, or each inline set).
    patterns: usize,
    /// Installed with `PUT /rulesets/{id}`; `None` sends patterns inline.
    pub ruleset: Option<&'static str>,
    /// Whether requests carry `X-Cicero-Backend: sim`.
    pub sim: bool,
    pub chunks_per_request: usize,
    /// Distinct requests sent round-robin (for `inline-churn`: the hot
    /// working set of pattern sets).
    hot: usize,
    /// `inline-churn` only: distinct cache-missing requests, cycled. The
    /// cycle is far longer than the program cache (128 entries), so each
    /// is evicted long before it comes round again.
    fresh: usize,
    /// Requests each client sends before the measured window opens: about
    /// 3 s of them on the host the issue was sized on. A count, not a time,
    /// so that the process has done the same work on every run when its
    /// memory high-water mark is read.
    pub warmup: usize,
    /// Requests of the simulator pass (for `sim_cycles_per_kb`).
    pub sim_pass: usize,
    /// Requests the traced run replays in-process.
    pub replay: usize,
    /// Of those, how many also go through the simulator probe.
    pub sim_probe: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "registry-small",
        why: "4 BRILL patterns (bit128 tier), one 500-byte chunk per request: the engine is ~1 % \
              of a request, so server and runtime dispatch do the work; engine changes must not show",
        suite: Suite::Brill,
        patterns: 4,
        ruleset: Some("small"),
        sim: false,
        chunks_per_request: 1,
        hot: 64,
        fresh: 0,
        warmup: 8000,
        sim_pass: 64,
        replay: 2000,
        sim_probe: 20,
    },
    Spec {
        name: "bulk-scan",
        why: "16 PROTOMATA patterns (350 states, lazy-dfa tier), 16 KB per request, ~45 % of chunks \
              accept: hostexec is most of a request; front-door changes must not show",
        suite: Suite::Protomata,
        patterns: 16,
        ruleset: Some("bulk"),
        sim: false,
        chunks_per_request: 32,
        hot: 16,
        fresh: 0,
        warmup: 120,
        sim_pass: 4,
        replay: 200,
        sim_probe: 2,
    },
    Spec {
        name: "inline-churn",
        why: "inline 4-pattern BRILL sets, 7 of 8 requests from a hot working set of 16 (cache hits), \
              every 8th a never-seen set (compile on the request path): p50 is the hit, p99 the miss",
        suite: Suite::Brill,
        patterns: 4,
        ruleset: None,
        sim: false,
        chunks_per_request: 1,
        hot: 16,
        fresh: 4096,
        warmup: 2400,
        sim_pass: 16,
        replay: 2000,
        sim_probe: 20,
    },
    Spec {
        name: "dsa-sim",
        why: "8 PROTOMATA patterns on the cycle-level simulator (X-Cicero-Backend: sim, NEW 16x1): \
              the paper's target; hostexec does nothing here, so host-engine changes must not show",
        suite: Suite::Protomata,
        patterns: 8,
        ruleset: Some("dsa"),
        sim: true,
        chunks_per_request: 2,
        hot: 256,
        fresh: 0,
        warmup: 200,
        sim_pass: 64,
        replay: 200,
        sim_probe: 20,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The right answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub matched: bool,
    /// Per pattern, the number of chunks it matches in.
    pub per_pattern: Vec<u64>,
    pub chunks: u64,
}

/// One distinct request: its bytes on the wire and its right answer.
#[derive(Debug, Clone)]
pub struct Template {
    pub bytes: Vec<u8>,
    pub expect: Expect,
    /// The pattern set the request scans with (inline or by ruleset).
    pub patterns: Arc<Vec<String>>,
    /// The bytes scanned, as in the body's `"input"`.
    pub haystack: Vec<u8>,
}

/// Everything one run of one workload sends.
pub struct Inputs {
    pub spec: Spec,
    /// `PUT /rulesets/{id}` request, when the workload has a ruleset.
    pub install: Option<Vec<u8>>,
    pub hot: Vec<Template>,
    pub fresh: Vec<Template>,
    /// Requests of the workload's kind sent once each with
    /// `X-Cicero-Backend: sim` after the window, for `sim_cycles_per_kb`.
    /// Drawn at [`SUITE_SEED`], not at `--seed`: the count is then a
    /// property of the compiler and the simulator alone, equal on every
    /// seed, so any change of it between two commits is the code's.
    pub sim_pass: Vec<Template>,
    /// Haystack bytes in every request (fixed per workload).
    pub bytes_per_request: usize,
    /// Share of generated chunks that some pattern accepts.
    pub accepting_share: f64,
    /// FNV-1a over every generated request byte, in generation order: two
    /// runs with one seed must print the same value.
    pub input_hash: u64,
}

impl Inputs {
    /// The `j`-th request of closed-loop client `client`, and an index
    /// that is equal for equal request bytes.
    pub fn request(&self, client: usize, j: usize) -> (usize, &Template) {
        if !self.fresh.is_empty() && j % CHURN_PERIOD == CHURN_PERIOD - 1 {
            // Each client walks its own half of the fresh pool.
            let half = self.fresh.len() / 2;
            let index = (client % 2) * half + (j / CHURN_PERIOD) % half;
            (self.hot.len() + index, &self.fresh[index])
        } else {
            let index = (client * (self.hot.len() / 2) + j) % self.hot.len();
            (index, &self.hot[index])
        }
    }

    /// Number of distinct requests [`Inputs::request`] can return.
    pub fn distinct(&self) -> usize {
        self.hot.len() + self.fresh.len()
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn pinned_patterns(suite: Suite, count: usize) -> Vec<String> {
    match suite {
        Suite::Brill => Benchmark::brill(SUITE_SEED, count, 0).patterns,
        Suite::Protomata => Benchmark::protomata(SUITE_SEED, count, 0).patterns,
    }
}

/// One suite chunk, with a witness of one of `patterns` planted in
/// [`PLANT_FRACTION`] of them.
fn chunk(rng: &mut StdRng, suite: Suite, patterns: &[String]) -> Vec<u8> {
    let mut chunk = match suite {
        Suite::Brill => brill::text_chunk(rng, CHUNK_BYTES),
        Suite::Protomata => protomata::sequence_chunk(rng, CHUNK_BYTES),
    };
    if rng.random_bool(PLANT_FRACTION) {
        let pattern = &patterns[rng.random_range(0..patterns.len())];
        if let Some(witness) = witness_for(pattern).filter(|w| w.len() < chunk.len()) {
            let at = rng.random_range(0..chunk.len() - witness.len());
            chunk[at..at + witness.len()].copy_from_slice(&witness);
        }
    }
    chunk
}

fn json_strings(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(item, &mut out);
    }
    out.push(']');
    out
}

fn http(method: &str, path: &str, sim: bool, body: &str) -> Vec<u8> {
    let backend = if sim { "x-cicero-backend: sim\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n{backend}\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `/scan` request over `haystack` and the oracle's answer to it. A
/// request that names no `ruleset` carries its patterns in the body.
fn scan(
    ruleset: Option<&str>,
    sim: bool,
    patterns: &Arc<Vec<String>>,
    oracles: &[Oracle],
    haystack: Vec<u8>,
) -> Template {
    let text = std::str::from_utf8(&haystack).expect("suite chunks are ASCII");
    let mut body = String::from("{");
    if ruleset.is_none() {
        body.push_str("\"patterns\":");
        body.push_str(&json_strings(patterns));
        body.push(',');
    }
    body.push_str("\"input\":");
    json::escape_into(text, &mut body);
    body.push('}');
    let path = match ruleset {
        Some(id) => format!("/scan?ruleset={id}"),
        None => "/scan".to_owned(),
    };
    let chunks: Vec<&[u8]> = haystack.chunks(CHUNK_BYTES).collect();
    let per_pattern: Vec<u64> = oracles
        .iter()
        .map(|oracle| chunks.iter().filter(|c| oracle.is_match(c)).count() as u64)
        .collect();
    Template {
        bytes: http("POST", &path, sim, &body),
        expect: Expect {
            matched: per_pattern.iter().any(|&c| c > 0),
            per_pattern,
            chunks: chunks.len() as u64,
        },
        patterns: Arc::clone(patterns),
        haystack,
    }
}

/// A pattern set and the oracle of each of its patterns.
#[derive(Clone)]
struct PatternSet {
    patterns: Arc<Vec<String>>,
    oracles: Arc<Vec<Oracle>>,
}

impl PatternSet {
    fn new(patterns: Vec<String>) -> PatternSet {
        let oracles =
            patterns.iter().map(|p| Oracle::new(p).expect("suite patterns parse")).collect();
        PatternSet { patterns: Arc::new(patterns), oracles: Arc::new(oracles) }
    }
}

/// Draws one workload's `/scan` requests from one random stream.
struct Drawer {
    spec: Spec,
    rng: StdRng,
    /// The ruleset and its oracles, when the workload has one.
    pinned: Option<PatternSet>,
    /// Inline sets drawn so far: a repeat would be a cache hit where the
    /// schedule promises a miss.
    seen: HashSet<Vec<String>>,
    chunks: usize,
    chunks_accepting: usize,
}

impl Drawer {
    fn new(spec: Spec, seed: u64) -> Drawer {
        let pinned =
            spec.ruleset.map(|_| PatternSet::new(pinned_patterns(spec.suite, spec.patterns)));
        Drawer {
            spec,
            rng: StdRng::seed_from_u64(seed),
            pinned,
            seen: HashSet::new(),
            chunks: 0,
            chunks_accepting: 0,
        }
    }

    fn requests(&mut self, count: usize, sim: bool) -> Vec<Template> {
        (0..count).map(|_| self.request(sim)).collect()
    }

    fn request(&mut self, sim: bool) -> Template {
        let PatternSet { patterns, oracles } = match &self.pinned {
            Some(pinned) => pinned.clone(),
            None => loop {
                let set: Vec<String> =
                    (0..self.spec.patterns).map(|_| brill::rule(&mut self.rng)).collect();
                if self.seen.insert(set.clone()) {
                    break PatternSet::new(set);
                }
            },
        };
        let mut haystack = Vec::with_capacity(self.spec.chunks_per_request * CHUNK_BYTES);
        for _ in 0..self.spec.chunks_per_request {
            let chunk = chunk(&mut self.rng, self.spec.suite, &patterns);
            self.chunks += 1;
            self.chunks_accepting += usize::from(oracles.iter().any(|o| o.is_match(&chunk)));
            haystack.extend_from_slice(&chunk);
        }
        scan(self.spec.ruleset, sim, &patterns, &oracles, haystack)
    }
}

/// Generate everything `spec` sends under `seed`.
pub fn generate(spec: Spec, seed: u64) -> Inputs {
    // Workloads draw from separate streams so that adding a request to
    // one cannot shift another's bytes.
    let mut name_hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut name_hash, spec.name.as_bytes());

    let mut traffic = Drawer::new(spec, seed ^ name_hash);
    let hot = match spec.ruleset {
        Some(_) => traffic.requests(spec.hot, spec.sim),
        // An inline workload's hot working set is a standing thing like a
        // ruleset, and as sensitive to the draw: sixteen sets straddle the
        // engine tiers in a different proportion on every seed.
        None => {
            let mut standing = Drawer::new(spec, SUITE_SEED ^ name_hash);
            let hot = standing.requests(spec.hot, spec.sim);
            traffic.seen = standing.seen;
            hot
        }
    };
    let fresh = traffic.requests(spec.fresh, spec.sim);
    // The simulator pass is the same on every seed (see `Inputs::sim_pass`).
    let sim_pass =
        Drawer::new(spec, SUITE_SEED ^ name_hash.rotate_left(32)).requests(spec.sim_pass, true);
    let install = spec.ruleset.map(|id| {
        let body = format!("{{\"patterns\":{}}}", json_strings(&hot[0].patterns));
        http("PUT", &format!("/rulesets/{id}"), false, &body)
    });

    let mut input_hash = 0xcbf2_9ce4_8422_2325;
    for bytes in install.iter().chain(hot.iter().chain(&fresh).chain(&sim_pass).map(|t| &t.bytes)) {
        fnv1a(&mut input_hash, bytes);
    }
    Inputs {
        spec,
        install,
        hot,
        fresh,
        sim_pass,
        bytes_per_request: spec.chunks_per_request * CHUNK_BYTES,
        accepting_share: traffic.chunks_accepting as f64 / traffic.chunks as f64,
        input_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_input_and_another_seed_another() {
        for spec in SPECS {
            let a = generate(spec, 11);
            let b = generate(spec, 11);
            let c = generate(spec, 12);
            assert_eq!(a.input_hash, b.input_hash, "{}", spec.name);
            assert_ne!(a.input_hash, c.input_hash, "{}", spec.name);
        }
    }

    #[test]
    fn churn_schedule_sends_a_fresh_set_every_eighth_request_and_never_twice() {
        let inputs = generate(spec("inline-churn").unwrap(), 3);
        let mut fresh_seen = HashSet::new();
        for client in 0..2 {
            for j in 0..(inputs.fresh.len() / 2) * CHURN_PERIOD {
                let (index, _) = inputs.request(client, j);
                let is_fresh = index >= inputs.hot.len();
                assert_eq!(is_fresh, j % CHURN_PERIOD == CHURN_PERIOD - 1);
                if is_fresh {
                    assert!(fresh_seen.insert(index), "fresh set {index} sent twice");
                }
            }
        }
        assert_eq!(fresh_seen.len(), inputs.fresh.len());
    }
}
