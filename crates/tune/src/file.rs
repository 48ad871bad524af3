//! The versioned `tune.toml` persistence format.
//!
//! Hand-rolled on purpose (the workspace is offline; no TOML dependency):
//! the renderer emits a fixed key order with no timestamps, so identical
//! tuning runs produce **byte-identical** files — the determinism
//! contract `--seed` promises. The parser is strict: unknown sections or
//! keys, duplicated keys, missing keys, malformed values, and files from
//! a future version all fail loudly rather than being silently ignored —
//! a config that steers production serving must not half-load.

use std::path::Path;

use cicero_core::CompilerOptions;
use cicero_sim::ArchConfig;
use regex_dialect::transforms::PassOrder;
use workloads::Benchmark;

use crate::config::{ArchParams, OrganizationKind, TuneConfig};
use crate::search::TuneOutcome;
use crate::TuneError;

/// The format version this build writes and the only one it accepts.
pub const TUNE_FILE_VERSION: u64 = 2;

/// A parsed (or about-to-be-written) `tune.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneFile {
    /// Workload the winner was tuned for.
    pub workload: String,
    /// The workload's identity fingerprint at tuning time.
    pub fingerprint: u64,
    /// Search seed.
    pub seed: u64,
    /// `exhaustive` or `random-mutation`.
    pub strategy: String,
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
    pub fn from_outcome(workload: &Benchmark, outcome: &TuneOutcome, seed: u64) -> TuneFile {
        TuneFile {
            workload: workload.name.to_lowercase(),
            fingerprint: fingerprint(workload),
            seed,
            strategy: outcome.strategy.to_owned(),
            evals: outcome.evals as u64,
            default_cycles: outcome.default_report.measurement.cycles,
            tuned_cycles: outcome.best_report.measurement.cycles,
            default_d_offset: outcome.default_report.d_offset,
            tuned_d_offset: outcome.best_report.d_offset,
            config: outcome.best,
        }
    }

    /// The winner's compiler options.
    pub fn compiler_options(&self) -> CompilerOptions {
        self.config.compiler
    }

    /// The winner's simulated machine.
    pub fn arch_config(&self) -> ArchConfig {
        self.config.arch.to_arch_config()
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
             seed = {seed}\n\
             strategy = \"{strategy}\"\n\
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
            seed = self.seed,
            strategy = self.strategy,
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
            organization = a.organization.token(),
            cores_per_engine = a.cores_per_engine,
            engines = a.engines,
            cc_id_bits = a.cc_id_bits,
            cache_lines = a.cache_lines,
            cache_line_size = a.cache_line_size,
            cache_miss_penalty = a.cache_miss_penalty,
        )
    }

    /// Parse the canonical form. Strict — see the module docs.
    ///
    /// # Errors
    ///
    /// [`TuneError::Parse`] naming the offending line for every rejected
    /// input.
    pub fn parse(text: &str) -> Result<TuneFile, TuneError> {
        let mut section = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut values: Vec<(String, String)> = Vec::new();
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
                // its retired sections must not be the error it dies on.
                return Err(fail(format!(
                    "unsupported tune.toml version {value} (this build reads \
                     v{TUNE_FILE_VERSION}); regenerate with `cicero tune`"
                )));
            }
            if !KEYS.contains(&qualified.as_str()) {
                return Err(fail(format!("unknown key `{qualified}`")));
            }
            if values.iter().any(|(k, _)| *k == qualified) {
                return Err(fail(format!("duplicate key `{qualified}`")));
            }
            values.push((qualified, value.to_owned()));
        }

        let get = |key: &str| -> Result<&str, TuneError> {
            values
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| TuneError::Parse(format!("missing key `{key}`")))
        };
        let get_u64 = |key: &str| -> Result<u64, TuneError> {
            get(key)?
                .parse::<u64>()
                .map_err(|_| TuneError::Parse(format!("key `{key}` is not an integer")))
        };
        let get_bool = |key: &str| -> Result<bool, TuneError> {
            match get(key)? {
                "true" => Ok(true),
                "false" => Ok(false),
                other => {
                    Err(TuneError::Parse(format!("key `{key}` is not a boolean (got `{other}`)")))
                }
            }
        };
        let get_str = |key: &str| -> Result<String, TuneError> {
            let raw = get(key)?;
            raw.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_owned)
                .ok_or_else(|| TuneError::Parse(format!("key `{key}` is not a quoted string")))
        };

        get("version")?; // present; its value was checked as it was read

        let fingerprint_hex = get_str("meta.fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16).map_err(|_| {
            TuneError::Parse(format!("meta.fingerprint `{fingerprint_hex}` is not 16-digit hex"))
        })?;
        let pass_order_text = get_str("compiler.pass_order")?;
        let pass_order = PassOrder::parse(&pass_order_text).map_err(TuneError::Parse)?;
        let organization_text = get_str("arch.organization")?;
        let organization = OrganizationKind::from_token(&organization_text).ok_or_else(|| {
            TuneError::Parse(format!(
                "arch.organization `{organization_text}` is neither `old` nor `new`"
            ))
        })?;

        let mut compiler = CompilerOptions::optimized();
        compiler.canonicalize = get_bool("compiler.canonicalize")?;
        compiler.factorize = get_bool("compiler.factorize")?;
        compiler.shortest_match = get_bool("compiler.shortest_match")?;
        compiler.shortest_match_leading = get_bool("compiler.shortest_match_leading")?;
        compiler.jump_simplification = get_bool("compiler.jump_simplification")?;
        compiler.pass_order = pass_order;

        let arch = ArchParams {
            organization,
            cores_per_engine: get_u64("arch.cores_per_engine")? as usize,
            engines: get_u64("arch.engines")? as usize,
            cc_id_bits: get_u64("arch.cc_id_bits")? as u32,
            cache_lines: get_u64("arch.cache_lines")? as usize,
            cache_line_size: get_u64("arch.cache_line_size")? as usize,
            cache_miss_penalty: get_u64("arch.cache_miss_penalty")?,
        };
        validate_arch(&arch)?;

        Ok(TuneFile {
            workload: get_str("meta.workload")?,
            fingerprint,
            seed: get_u64("meta.seed")?,
            strategy: get_str("meta.strategy")?,
            evals: get_u64("meta.evals")?,
            default_cycles: get_u64("score.default_cycles")?,
            tuned_cycles: get_u64("score.tuned_cycles")?,
            default_d_offset: get_u64("score.default_d_offset")?,
            tuned_d_offset: get_u64("score.tuned_d_offset")?,
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

const KEYS: [&str; 23] = [
    "version",
    "meta.workload",
    "meta.fingerprint",
    "meta.seed",
    "meta.strategy",
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

/// Reject machine shapes the simulator's constructors would panic on —
/// a parse error names the problem; a panic deep in serving would not.
fn validate_arch(arch: &ArchParams) -> Result<(), TuneError> {
    match arch.organization {
        OrganizationKind::Old if arch.cores_per_engine != 1 => {
            Err(TuneError::Parse("arch: old organization requires cores_per_engine = 1".to_owned()))
        }
        OrganizationKind::New
            if !arch.cores_per_engine.is_power_of_two() || arch.cores_per_engine < 2 =>
        {
            Err(TuneError::Parse(
                "arch: new organization requires cores_per_engine to be a power of two >= 2"
                    .to_owned(),
            ))
        }
        _ if arch.engines == 0 => {
            Err(TuneError::Parse("arch: engines must be at least 1".to_owned()))
        }
        _ if arch.cache_lines == 0 || !arch.cache_line_size.is_power_of_two() => {
            Err(TuneError::Parse(
                "arch: cache_lines must be >= 1 and cache_line_size a power of two".to_owned(),
            ))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneFile {
        TuneFile {
            workload: "protomata".to_owned(),
            fingerprint: 0x0123_4567_89ab_cdef,
            seed: 42,
            strategy: "exhaustive".to_owned(),
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
        let text = sample().render().replace("version = 2", "version = 3");
        let err = TuneFile::parse(&text).unwrap_err();
        assert!(matches!(err, TuneError::Parse(ref m) if m.contains("unsupported")), "{err}");
        // A v1 file dies on its version, not on the `[host]`/`[runtime]`
        // sections this build no longer knows.
        let v1 = format!(
            "{}\n[host]\nbit64_max = 64\nbit128_max = 128\n\n[runtime]\njobs = 4\n",
            sample().render().replace("version = 2", "version = 1")
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
        let text = sample().render().replace("seed = 42", "seed = 42\nseed = 43");
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
        assert_eq!(file.seed, 42);
        assert_eq!(file.strategy, "exhaustive");
        assert_eq!(file.config.arch.name(), "OLD 1x8 CORES");
        assert_eq!(file.config.compiler, CompilerOptions::optimized());
    }
}
