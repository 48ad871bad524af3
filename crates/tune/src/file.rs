//! The versioned `tune.toml` persistence format.
//!
//! Hand-rolled on purpose (the workspace is offline; no TOML dependency):
//! the renderer emits a fixed key order with no timestamps, so identical
//! tuning runs produce **byte-identical** files. The parser is strict:
//! unknown sections or keys, duplicated keys, missing keys, malformed
//! values, machine shapes [`ArchConfig::validate`] refuses, and files from
//! another version all fail loudly rather than being silently ignored — a
//! config that steers production serving must not half-load.

use std::path::Path;
use std::str::FromStr;

use cicero_core::CompilerOptions;
use cicero_sim::{ArchConfig, CacheConfig, Organization};
use regex_dialect::transforms::PassOrder;
use workloads::Benchmark;

use crate::config::TuneConfig;
use crate::search::TuneOutcome;
use crate::TuneError;

/// The format version this build writes and the only one it accepts.
pub const TUNE_FILE_VERSION: u64 = 3;

/// A parsed (or about-to-be-written) `tune.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneFile {
    /// Workload the winner was tuned for.
    pub workload: String,
    /// The workload's identity fingerprint at tuning time.
    pub fingerprint: u64,
    /// Cost evaluations spent.
    pub evals: u64,
    /// Baseline simulated cycles ([`cicero_sim::Measurement::cycles`]).
    pub default_cycles: u64,
    /// Winner simulated cycles ([`cicero_sim::Measurement::cycles`]).
    pub tuned_cycles: u64,
    /// Baseline summed `D_offset`.
    pub default_d_offset: u64,
    /// Winner summed `D_offset`.
    pub tuned_d_offset: u64,
    /// The winning configuration.
    pub config: TuneConfig,
}

impl TuneFile {
    /// Package a search result for persistence.
    pub fn from_outcome(workload: &Benchmark, outcome: &TuneOutcome) -> TuneFile {
        TuneFile {
            workload: workload.name.to_lowercase(),
            fingerprint: fingerprint(workload),
            evals: outcome.evals as u64,
            default_cycles: outcome.default_report.measurement.cycles,
            tuned_cycles: outcome.best_report.measurement.cycles,
            default_d_offset: outcome.default_report.d_offset,
            tuned_d_offset: outcome.best_report.d_offset,
            config: outcome.best.clone(),
        }
    }

    /// Render to the canonical byte-deterministic text form.
    pub fn render(&self) -> String {
        let c = &self.config.compiler;
        let a = &self.config.arch;
        format!(
            "# cicero tune result (format v{version}) — regenerate with `cicero tune`\n\
             version = {version}\n\
             \n\
             [meta]\n\
             workload = \"{workload}\"\n\
             fingerprint = \"{fingerprint:016x}\"\n\
             evals = {evals}\n\
             \n\
             [score]\n\
             default_cycles = {default_cycles}\n\
             tuned_cycles = {tuned_cycles}\n\
             default_d_offset = {default_d_offset}\n\
             tuned_d_offset = {tuned_d_offset}\n\
             \n\
             [compiler]\n\
             canonicalize = {canonicalize}\n\
             factorize = {factorize}\n\
             shortest_match = {shortest_match}\n\
             shortest_match_leading = {shortest_match_leading}\n\
             jump_simplification = {jump_simplification}\n\
             pass_order = \"{pass_order}\"\n\
             \n\
             [arch]\n\
             organization = \"{organization}\"\n\
             cores_per_engine = {cores_per_engine}\n\
             engines = {engines}\n\
             cc_id_bits = {cc_id_bits}\n\
             cache_lines = {cache_lines}\n\
             cache_line_size = {cache_line_size}\n\
             cache_miss_penalty = {cache_miss_penalty}\n",
            version = TUNE_FILE_VERSION,
            workload = self.workload,
            fingerprint = self.fingerprint,
            evals = self.evals,
            default_cycles = self.default_cycles,
            tuned_cycles = self.tuned_cycles,
            default_d_offset = self.default_d_offset,
            tuned_d_offset = self.tuned_d_offset,
            canonicalize = c.canonicalize,
            factorize = c.factorize,
            shortest_match = c.shortest_match,
            shortest_match_leading = c.shortest_match_leading,
            jump_simplification = c.jump_simplification,
            pass_order = c.pass_order.to_token_string(),
            organization = match a.organization {
                Organization::Old => "old",
                Organization::New => "new",
            },
            cores_per_engine = a.cores_per_engine,
            engines = a.engines,
            cc_id_bits = a.cc_id_bits,
            cache_lines = a.cache.lines,
            cache_line_size = a.cache.line_size,
            cache_miss_penalty = a.cache.miss_penalty,
        )
    }

    /// Parse the canonical form. Strict — see the module docs.
    ///
    /// # Errors
    ///
    /// [`TuneError::Parse`] naming the offending line or key for every
    /// rejected input.
    pub fn parse(text: &str) -> Result<TuneFile, TuneError> {
        let mut section = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut values = Values(Vec::new());
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fail = |msg: String| TuneError::Parse(format!("line {}: {msg}", lineno + 1));
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| fail(format!("malformed section header `{line}`")))?;
                if !SECTIONS.contains(&name) {
                    return Err(fail(format!("unknown section `[{name}]`")));
                }
                if seen.contains(&name.to_owned()) {
                    return Err(fail(format!("duplicate section `[{name}]`")));
                }
                seen.push(name.to_owned());
                section = name.to_owned();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| fail(format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            let value = value.trim();
            let qualified =
                if section.is_empty() { key.to_owned() } else { format!("{section}.{key}") };
            if qualified == "version" && value != TUNE_FILE_VERSION.to_string() {
                // Checked the moment it is read: what an older file calls
                // its retired keys and sections must not be the error it
                // dies on.
                return Err(fail(format!(
                    "unsupported tune.toml version {value} (this build reads \
                     v{TUNE_FILE_VERSION}); regenerate with `cicero tune`"
                )));
            }
            if !KEYS.contains(&qualified.as_str()) {
                return Err(fail(format!("unknown key `{qualified}`")));
            }
            if values.0.iter().any(|(k, _)| *k == qualified) {
                return Err(fail(format!("duplicate key `{qualified}`")));
            }
            values.0.push((qualified, value.to_owned()));
        }

        values.get("version")?; // present; its value was checked as it was read

        let fingerprint_hex = values.string("meta.fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16).map_err(|_| {
            TuneError::Parse(format!("meta.fingerprint `{fingerprint_hex}` is not 16-digit hex"))
        })?;
        let pass_order_text = values.string("compiler.pass_order")?;
        let pass_order = PassOrder::parse(&pass_order_text).map_err(TuneError::Parse)?;

        let mut compiler = CompilerOptions::optimized();
        compiler.canonicalize = values.bool("compiler.canonicalize")?;
        compiler.factorize = values.bool("compiler.factorize")?;
        compiler.shortest_match = values.bool("compiler.shortest_match")?;
        compiler.shortest_match_leading = values.bool("compiler.shortest_match_leading")?;
        compiler.jump_simplification = values.bool("compiler.jump_simplification")?;
        compiler.pass_order = pass_order;

        // The preset supplies the fields `tune.toml` does not carry; every
        // carried one is overwritten and the whole shape checked.
        let mut arch = match values.string("arch.organization")?.as_str() {
            "old" => ArchConfig::old_organization(1),
            "new" => ArchConfig::new_organization(2, 1),
            other => {
                return Err(TuneError::Parse(format!(
                    "arch.organization `{other}` is neither `old` nor `new`"
                )))
            }
        };
        arch.cores_per_engine = values.int("arch.cores_per_engine")?;
        arch.engines = values.int("arch.engines")?;
        arch.cc_id_bits = values.int("arch.cc_id_bits")?;
        arch.cache = CacheConfig {
            lines: values.int("arch.cache_lines")?,
            line_size: values.int("arch.cache_line_size")?,
            miss_penalty: values.int("arch.cache_miss_penalty")?,
        };
        arch.validate().map_err(|e| TuneError::Parse(format!("arch: {e}")))?;

        Ok(TuneFile {
            workload: values.string("meta.workload")?,
            fingerprint,
            evals: values.int("meta.evals")?,
            default_cycles: values.int("score.default_cycles")?,
            tuned_cycles: values.int("score.tuned_cycles")?,
            default_d_offset: values.int("score.default_d_offset")?,
            tuned_d_offset: values.int("score.tuned_d_offset")?,
            config: TuneConfig { compiler, arch },
        })
    }

    /// Read and parse a file.
    ///
    /// # Errors
    ///
    /// [`TuneError::Io`] on read failure, [`TuneError::Parse`] on bad
    /// content — both naming the path.
    pub fn load(path: impl AsRef<Path>) -> Result<TuneFile, TuneError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| TuneError::Io(format!("reading {}: {e}", path.display())))?;
        TuneFile::parse(&text).map_err(|e| {
            // Re-wrap with the path, unwrapping the inner message so the
            // "tune.toml error:" prefix appears once, not twice.
            let message = match e {
                TuneError::Parse(m) => m,
                other => other.to_string(),
            };
            TuneError::Parse(format!("{}: {message}", path.display()))
        })
    }

    /// Render and write.
    ///
    /// # Errors
    ///
    /// [`TuneError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TuneError> {
        let path = path.as_ref();
        std::fs::write(path, self.render())
            .map_err(|e| TuneError::Io(format!("writing {}: {e}", path.display())))
    }
}

/// The parsed `key = value` pairs, section-qualified, in file order.
struct Values(Vec<(String, String)>);

impl Values {
    fn get(&self, key: &str) -> Result<&str, TuneError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| TuneError::Parse(format!("missing key `{key}`")))
    }

    /// An unsigned integer that fits the field it fills.
    fn int<T: FromStr>(&self, key: &str) -> Result<T, TuneError> {
        self.get(key)?.parse().map_err(|_| {
            TuneError::Parse(format!("key `{key}` is not an integer in the field's range"))
        })
    }

    fn bool(&self, key: &str) -> Result<bool, TuneError> {
        match self.get(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(TuneError::Parse(format!("key `{key}` is not a boolean (got `{other}`)"))),
        }
    }

    fn string(&self, key: &str) -> Result<String, TuneError> {
        self.get(key)?
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(str::to_owned)
            .ok_or_else(|| TuneError::Parse(format!("key `{key}` is not a quoted string")))
    }
}

/// Identity fingerprint over a workload's patterns and chunks (FNV-1a 64).
/// Recorded in `tune.toml`, so a stale file is detectable when the
/// workload generators change.
pub fn fingerprint(workload: &Benchmark) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for pattern in &workload.patterns {
        eat(pattern.as_bytes());
        eat(&[0xFF]); // separator: ("ab","c") != ("a","bc")
    }
    for chunk in &workload.chunks {
        eat(chunk);
        eat(&[0xFE]);
    }
    hash
}

const SECTIONS: [&str; 4] = ["meta", "score", "compiler", "arch"];

const KEYS: [&str; 21] = [
    "version",
    "meta.workload",
    "meta.fingerprint",
    "meta.evals",
    "score.default_cycles",
    "score.tuned_cycles",
    "score.default_d_offset",
    "score.tuned_d_offset",
    "compiler.canonicalize",
    "compiler.factorize",
    "compiler.shortest_match",
    "compiler.shortest_match_leading",
    "compiler.jump_simplification",
    "compiler.pass_order",
    "arch.organization",
    "arch.cores_per_engine",
    "arch.engines",
    "arch.cc_id_bits",
    "arch.cache_lines",
    "arch.cache_line_size",
    "arch.cache_miss_penalty",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneFile {
        TuneFile {
            workload: "protomata".to_owned(),
            fingerprint: 0x0123_4567_89ab_cdef,
            evals: 12,
            default_cycles: 1000,
            tuned_cycles: 900,
            default_d_offset: 80,
            tuned_d_offset: 64,
            config: TuneConfig::default(),
        }
    }

    #[test]
    fn fingerprint_separates_pattern_boundaries() {
        let a = Benchmark::from_patterns(&["ab".to_owned(), "c".to_owned()]);
        let b = Benchmark::from_patterns(&["a".to_owned(), "bc".to_owned()]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let file = sample();
        let text = file.render();
        let reparsed = TuneFile::parse(&text).unwrap();
        assert_eq!(reparsed, file);
        // And the round trip is byte-stable: render(parse(render(x))) ==
        // render(x) — the determinism contract.
        assert_eq!(reparsed.render(), text);
    }

    #[test]
    fn other_versions_fail_loudly() {
        let text = sample().render().replace("version = 3", "version = 4");
        let err = TuneFile::parse(&text).unwrap_err();
        assert!(matches!(err, TuneError::Parse(ref m) if m.contains("unsupported")), "{err}");
        // A v1 file dies on its version, not on the `[host]`/`[runtime]`
        // sections this build no longer knows.
        let v1 = format!(
            "{}\n[host]\nbit64_max = 64\nbit128_max = 128\n\n[runtime]\njobs = 4\n",
            sample().render().replace("version = 3", "version = 1")
        );
        let err = TuneFile::parse(&v1).unwrap_err();
        assert!(
            matches!(err, TuneError::Parse(ref m) if m.contains("unsupported tune.toml version 1")
                && m.contains("regenerate with `cicero tune`")),
            "{err}"
        );
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let text = format!("{}\nmystery = 3\n", sample().render());
        assert!(TuneFile::parse(&text).is_err());
        let text = format!("{}\n[extras]\nx = 1\n", sample().render());
        let err = TuneFile::parse(&text).unwrap_err();
        assert!(matches!(err, TuneError::Parse(ref m) if m.contains("unknown section")), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let text = sample().render().replace("evals = 12", "evals = 12\nevals = 13");
        let err = TuneFile::parse(&text).unwrap_err();
        assert!(matches!(err, TuneError::Parse(ref m) if m.contains("duplicate")), "{err}");
    }

    #[test]
    fn corruption_is_rejected() {
        assert!(TuneFile::parse("not a tune file").is_err());
        assert!(TuneFile::parse("").is_err(), "missing keys must fail");
        let truncated: String = sample().render().lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(TuneFile::parse(&truncated).is_err());
        let text = sample().render().replace("evals = 12", "evals = twelve");
        assert!(TuneFile::parse(&text).is_err());
    }

    #[test]
    fn invalid_machine_shapes_are_rejected() {
        let text = sample().render().replace("cores_per_engine = 16", "cores_per_engine = 9");
        let err = TuneFile::parse(&text).unwrap_err();
        assert!(matches!(err, TuneError::Parse(ref m) if m.contains("power of two")), "{err}");
        let text = sample().render().replace("engines = 1", "engines = 0");
        assert!(TuneFile::parse(&text).is_err());
    }

    #[test]
    fn bad_pass_order_is_rejected() {
        let text = sample().render().replace(
            "pass_order = \"canonicalize,factorize,shortest-match\"",
            "pass_order = \"canonicalize,canonicalize,shortest-match\"",
        );
        assert!(TuneFile::parse(&text).is_err());
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let file = sample();
        let dir = std::env::temp_dir().join(format!("cicero-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune.toml");
        file.save(&path).unwrap();
        assert_eq!(TuneFile::load(&path).unwrap(), file);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(TuneFile::load("/nonexistent/tune.toml"), Err(TuneError::Io(_))));
    }

    /// The committed golden file pins the serialized format: if `render`
    /// ever changes shape (key order, spelling, whitespace), this fails
    /// and the change has to be a deliberate format-version bump.
    #[test]
    fn golden_file_pins_the_serialized_format() {
        let text = include_str!("../testdata/golden.toml");
        let file = TuneFile::parse(text).expect("the committed golden file must parse");
        assert_eq!(file.render(), text, "parse → render must reproduce the golden bytes");
        assert_eq!(file.workload, "protomata");
        assert_eq!(file.evals, 288);
        assert_eq!(file.config.arch.name(), "OLD 1x8 CORES");
        assert_eq!(file.config.compiler, CompilerOptions::optimized());
    }
}
