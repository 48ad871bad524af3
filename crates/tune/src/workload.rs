//! What the tuner optimizes *for*: a named set of patterns plus
//! representative input chunks, fingerprinted for `tune.toml`.

use workloads::{witness_for, Benchmark, CHUNK_BYTES};

use crate::TuneError;

/// Generation seed for the built-in workload packs. Deliberately fixed
/// and decoupled from `--seed`: the tuning seed steers the *search*, not
/// the workload — otherwise two runs with different seeds would be tuning
/// for different inputs and their results would not be comparable.
const PACK_SEED: u64 = 0xC1CE_2025;

/// Pack scale used for tuning (patterns, chunks). Small on purpose: each
/// candidate evaluation simulates every (pattern × chunk) pair, and the
/// structural properties that drive the cost model show up at small n.
const PACK_PATTERNS: usize = 6;
const PACK_CHUNKS: usize = 2;

/// A tuning workload: patterns + input chunks + identity fingerprint.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (suite name for packs, `custom` for raw patterns).
    pub name: String,
    /// The regular expressions to compile under each candidate config.
    pub patterns: Vec<String>,
    /// The inputs each compiled program is scored on.
    pub chunks: Vec<Vec<u8>>,
}

impl Workload {
    /// A workload from one of the built-in benchmark packs:
    /// `protomata`, `brill`, `protomata4`, or `brill4`.
    pub fn pack(name: &str) -> Result<Workload, TuneError> {
        let bench = match name {
            "protomata" => Benchmark::protomata(PACK_SEED, PACK_PATTERNS, PACK_CHUNKS),
            "brill" => Benchmark::brill(PACK_SEED, PACK_PATTERNS, PACK_CHUNKS),
            "protomata4" => Benchmark::protomata4(PACK_SEED, PACK_PATTERNS, PACK_CHUNKS),
            "brill4" => Benchmark::brill4(PACK_SEED, PACK_PATTERNS, PACK_CHUNKS),
            other => {
                return Err(TuneError::Invalid(format!(
                    "unknown workload pack `{other}` (expected protomata, brill, protomata4, \
                     or brill4)"
                )))
            }
        };
        Ok(Workload::from_benchmark(&bench))
    }

    /// A workload from an already-generated benchmark.
    pub fn from_benchmark(bench: &Benchmark) -> Workload {
        Workload {
            name: bench.name.to_lowercase(),
            patterns: bench.patterns.clone(),
            chunks: bench.chunks.clone(),
        }
    }

    /// A workload from raw patterns. Inputs are synthesized: one chunk of
    /// low-entropy filler per pattern with that pattern's witness planted
    /// mid-chunk (when one can be derived), so both the scan-through and
    /// the halt-on-accept paths are exercised.
    pub fn from_patterns(patterns: &[String]) -> Result<Workload, TuneError> {
        if patterns.is_empty() {
            return Err(TuneError::Invalid("a workload needs at least one pattern".to_owned()));
        }
        let mut chunks = Vec::new();
        for (i, pattern) in patterns.iter().enumerate() {
            let mut chunk: Vec<u8> =
                (0..CHUNK_BYTES).map(|j| b'a' + ((i + j) % 17) as u8).collect();
            if let Some(witness) = witness_for(pattern) {
                if witness.len() < chunk.len() {
                    let at = (chunk.len() - witness.len()) / 2;
                    chunk[at..at + witness.len()].copy_from_slice(&witness);
                }
            }
            chunks.push(chunk);
        }
        Ok(Workload { name: "custom".to_owned(), patterns: patterns.to_vec(), chunks })
    }

    /// Total input bytes per full evaluation pass (each pattern scans
    /// every chunk).
    pub fn total_bytes(&self) -> usize {
        self.patterns.len() * self.chunks.iter().map(Vec::len).sum::<usize>()
    }

    /// Identity fingerprint over patterns and chunks (FNV-1a 64).
    /// Recorded in `tune.toml`, so a stale file is detectable when the
    /// workload generators change.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for pattern in &self.patterns {
            eat(pattern.as_bytes());
            eat(&[0xFF]); // separator: ("ab","c") != ("a","bc")
        }
        for chunk in &self.chunks {
            eat(chunk);
            eat(&[0xFE]);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_are_deterministic_and_named() {
        let a = Workload::pack("protomata").unwrap();
        let b = Workload::pack("protomata").unwrap();
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.name, "protomata");
        assert!(Workload::pack("nonesuch").is_err());
    }

    #[test]
    fn distinct_packs_have_distinct_fingerprints() {
        let protomata = Workload::pack("protomata").unwrap();
        let brill = Workload::pack("brill").unwrap();
        assert_ne!(protomata.fingerprint(), brill.fingerprint());
    }

    #[test]
    fn fingerprint_separates_pattern_boundaries() {
        let a = Workload::from_patterns(&["ab".to_owned(), "c".to_owned()]).unwrap();
        let b = Workload::from_patterns(&["a".to_owned(), "bc".to_owned()]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn custom_workloads_plant_witnesses() {
        let w = Workload::from_patterns(&["needle".to_owned()]).unwrap();
        assert_eq!(w.chunks.len(), 1);
        let hay = &w.chunks[0];
        assert!(hay.windows(6).any(|win| win == b"needle"), "witness must be planted");
        assert!(Workload::from_patterns(&[]).is_err());
    }
}
