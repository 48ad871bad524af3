//! The ruleset registry: named, versioned, persisted pattern sets with
//! zero-downtime hot reload.
//!
//! The paper's motivating deployments (§6 intrusion detection, log
//! scanning) do not ship their rule sets in every request — they load a
//! versioned ruleset once and swap it under live traffic. This module is
//! that lifecycle for the serving tier:
//!
//! * **`put`** compiles the pattern list once through
//!   [`Runtime::compile_set`] (so both backends share the cache entry),
//!   derives a *content-hash version* (FNV-1a 64 over the pattern list
//!   and the encoded program artifact, rendered as 16 hex chars), wraps
//!   it in a [`SetHandle`], and installs it as the current version —
//!   atomically, under the registry lock.
//! * **`pin`** is how a scan acquires the ruleset: the lookup and the
//!   pin happen under the same lock a swap takes, so a request observes
//!   either the old or the new version, never a released one. The
//!   returned [`PinGuard`] is a clone of the version's `Arc` and keeps
//!   it alive for the duration of the scan.
//! * **Swap/drain**: a replaced (or deleted) version is parked on a
//!   retired list as a `Weak`; in-flight scans drain on it, and a sweep
//!   counts it released (`registry.versions_released`) once its last pin
//!   drops and the `Weak` is dead. `tests/registry_swap_under_load.rs`
//!   checks that no request is dropped or served a wrong version under
//!   live swaps.
//! * **Persistence**: with a persist directory configured, each put
//!   writes `{id}.ruleset` — a text envelope over the hex-encoded
//!   pattern list and the [`EncodedProgram`] byte artifact (the paper's
//!   progressive-lowering argument: the *compiled*, backend-independent
//!   program is the stored unit, not the source patterns alone) — via a
//!   write-then-rename so readers never see a torn file. `load_dir`
//!   restores them at startup, verifying the content hash, and serves
//!   the runtime's own compile of the patterns (which carries its host
//!   engine) once that compile is the stored program; an artifact it is
//!   not is refused as stale.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

use cicero_core::CompileError;
use cicero_isa::{EncodedProgram, Program};
use cicero_runtime::{PinGuard, Runtime, SetHandle};
use cicero_telemetry::Telemetry;

/// Ceiling on ruleset id length (ids become file stems).
pub const MAX_RULESET_ID: usize = 64;

/// The on-disk envelope's magic first line.
const MAGIC: &str = "cicero-ruleset v1";

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// The id is empty, too long, or contains characters unsafe for a
    /// file stem.
    InvalidId(String),
    /// The pattern set did not compile.
    Compile(CompileError),
    /// No ruleset under that id.
    NotFound(String),
    /// Persisting or loading the artifact failed at the filesystem.
    Io(io::Error),
    /// A persisted artifact was malformed or failed its hash check.
    Corrupt(String),
    /// A persisted artifact's program is not what the runtime compiles
    /// its patterns to (another compiler version or configuration wrote
    /// it): serving it would mean un-lowering its ISA for the host
    /// engine, so it is refused; put the ruleset again to replace it.
    Stale(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::InvalidId(id) => write!(
                f,
                "invalid ruleset id {id:?}: use 1-{MAX_RULESET_ID} chars of [A-Za-z0-9._-]"
            ),
            RegistryError::Compile(e) => write!(f, "compiling the pattern set: {e}"),
            RegistryError::NotFound(id) => write!(f, "no ruleset {id:?}"),
            RegistryError::Io(e) => write!(f, "ruleset store i/o: {e}"),
            RegistryError::Corrupt(m) => write!(f, "corrupt ruleset artifact: {m}"),
            RegistryError::Stale(m) => write!(f, "stale ruleset artifact: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> RegistryError {
        RegistryError::Io(e)
    }
}

/// The outcome of a `put`: the installed version and whether it
/// replaced an existing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The content-hash version now serving.
    pub version: String,
    /// The version that was current before (`None` on first put).
    pub replaced: Option<String>,
    /// Whether the compiled program came out of the runtime cache.
    pub cache_hit: bool,
}

/// A point-in-time description of one ruleset (for `GET`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulesetInfo {
    /// The registry id.
    pub id: String,
    /// The current content-hash version.
    pub version: String,
    /// The pattern list, in match-identifier order.
    pub patterns: Vec<String>,
    /// In-flight scans pinned to the current version right now.
    pub pins: u64,
}

/// Named → current-version map plus the retired versions still
/// draining. Construction-time cheap; share behind the server's `Shared`.
pub struct RulesetRegistry {
    entries: Mutex<HashMap<String, Arc<SetHandle>>>,
    /// Superseded versions, possibly still pinned by in-flight scans.
    /// Swept on every mutation (and by `sweep`); a dead entry is dropped
    /// and counted as released.
    retired: Mutex<Vec<Weak<SetHandle>>>,
    persist_dir: Option<PathBuf>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for RulesetRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RulesetRegistry")
            .field("rulesets", &self.entries.lock().unwrap_or_else(|p| p.into_inner()).len())
            .field("persist_dir", &self.persist_dir)
            .finish()
    }
}

impl RulesetRegistry {
    /// An empty registry. `persist_dir`, when set, receives one
    /// `{id}.ruleset` artifact per ruleset.
    pub fn new(persist_dir: Option<PathBuf>, telemetry: Telemetry) -> RulesetRegistry {
        RulesetRegistry {
            entries: Mutex::new(HashMap::new()),
            retired: Mutex::new(Vec::new()),
            persist_dir,
            telemetry,
        }
    }

    /// Compile `patterns` as a set and install it under `id`, atomically
    /// replacing any current version. The old version keeps serving its
    /// in-flight scans and is released when the last one drains.
    ///
    /// # Errors
    ///
    /// See [`RegistryError`]; a failed put leaves the current version
    /// untouched.
    pub fn put(
        &self,
        runtime: &Runtime,
        id: &str,
        patterns: Vec<String>,
    ) -> Result<PutOutcome, RegistryError> {
        validate_id(id)?;
        let (program, cache_hit) =
            runtime.compile_set_with_hit(&patterns).map_err(RegistryError::Compile)?;
        let artifact = EncodedProgram::from_program(&program).to_bytes();
        let version = content_version(&patterns, &artifact);
        // Persist before the swap: if the disk write fails, the old
        // version keeps serving and the store still matches it.
        if let Some(dir) = &self.persist_dir {
            persist(dir, id, &version, &patterns, &artifact)?;
        }
        let handle = Arc::new(SetHandle::new(version.clone(), patterns, program));
        let replaced = {
            let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
            entries.insert(id.to_owned(), handle)
        };
        let replaced_version = replaced.map(|old| {
            let version = old.version().to_owned();
            self.park_retired(old);
            version
        });
        self.telemetry.counter_add("registry.puts", 1);
        if replaced_version.is_some() {
            self.telemetry.counter_add("registry.swaps", 1);
        }
        self.sweep();
        Ok(PutOutcome { version, replaced: replaced_version, cache_hit })
    }

    /// Pin the current version of `id` for one scan. The lookup and the
    /// pin are atomic with respect to swaps (same lock), so the caller
    /// always holds a version that was current at admission.
    pub fn pin(&self, id: &str) -> Option<PinGuard> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let guard = entries.get(id).map(SetHandle::pin);
        drop(entries);
        if guard.is_some() {
            self.telemetry.counter_add("registry.scans", 1);
        }
        guard
    }

    /// Describe the current version of `id`.
    pub fn get(&self, id: &str) -> Option<RulesetInfo> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries.get(id).map(|handle| RulesetInfo {
            id: id.to_owned(),
            version: handle.version().to_owned(),
            patterns: handle.patterns().to_vec(),
            pins: pins(handle),
        })
    }

    /// Describe every ruleset, sorted by id.
    pub fn list(&self) -> Vec<RulesetInfo> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut infos: Vec<RulesetInfo> = entries
            .iter()
            .map(|(id, handle)| RulesetInfo {
                id: id.clone(),
                version: handle.version().to_owned(),
                patterns: handle.patterns().to_vec(),
                pins: pins(handle),
            })
            .collect();
        drop(entries);
        infos.sort_by(|a, b| a.id.cmp(&b.id));
        infos
    }

    /// Remove `id`: the current version is retired (in-flight scans
    /// drain on it) and its persisted artifact deleted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no such ruleset exists; the
    /// artifact unlink is best-effort (the registry entry wins).
    pub fn delete(&self, id: &str) -> Result<String, RegistryError> {
        let removed = {
            let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
            entries.remove(id)
        };
        let Some(handle) = removed else {
            return Err(RegistryError::NotFound(id.to_owned()));
        };
        let version = handle.version().to_owned();
        self.park_retired(handle);
        if let Some(dir) = &self.persist_dir {
            let _ = std::fs::remove_file(dir.join(format!("{id}.ruleset")));
        }
        self.telemetry.counter_add("registry.deletes", 1);
        self.sweep();
        Ok(version)
    }

    /// Restore every `*.ruleset` artifact in the persist directory,
    /// verifying each content hash. Each ruleset serves the program
    /// `runtime` compiles its patterns to, which carries its host engine,
    /// after checking it equals the stored one. Returns the ids loaded
    /// (sorted). A registry with no persist directory loads nothing.
    ///
    /// # Errors
    ///
    /// The first I/O, decode, hash-mismatch, compile or
    /// [stale-artifact](RegistryError::Stale) failure; rulesets loaded
    /// before the failure stay installed.
    pub fn load_dir(&self, runtime: &Runtime) -> Result<Vec<String>, RegistryError> {
        let Some(dir) = self.persist_dir.clone() else {
            return Ok(Vec::new());
        };
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "ruleset"))
            .collect();
        paths.sort();
        let mut loaded = Vec::with_capacity(paths.len());
        for path in paths {
            let id =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).ok_or_else(|| {
                    RegistryError::Corrupt(format!("{}: no file stem", path.display()))
                })?;
            validate_id(&id)?;
            let (version, patterns, program) = load_artifact(&path)?;
            // The artifact is the contract: serve the runtime's compile
            // (cached, so the first scan after a restart hits it, and
            // carrying its host engine) only as the stored program.
            let compiled = runtime.compile_set(&patterns).map_err(RegistryError::Compile)?;
            if *compiled != program {
                return Err(RegistryError::Stale(format!(
                    "{}: the stored program is not the one these patterns compile to",
                    path.display()
                )));
            }
            let handle = Arc::new(SetHandle::new(version, patterns, compiled));
            let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(old) = entries.insert(id.clone(), handle) {
                drop(entries);
                self.park_retired(old);
            }
            self.telemetry.counter_add("registry.loads", 1);
            loaded.push(id);
        }
        self.sweep();
        Ok(loaded)
    }

    /// Count retired versions whose last pin has dropped, refreshing
    /// the `registry.*` gauges. Called on every mutation; also safe to
    /// call periodically.
    pub fn sweep(&self) {
        let released = {
            let mut retired = self.retired.lock().unwrap_or_else(|p| p.into_inner());
            let before = retired.len();
            retired.retain(|handle| handle.strong_count() > 0);
            let after = retired.len();
            self.telemetry.gauge_set("registry.versions_retired", after as f64);
            before - after
        };
        if released > 0 {
            self.telemetry.counter_add("registry.versions_released", released as u64);
        }
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        self.telemetry.gauge_set("registry.rulesets", entries.len() as f64);
    }

    /// Retired versions still awaiting their last pin (for tests and
    /// `GET /metrics` cross-checks).
    pub fn retired_len(&self) -> usize {
        self.retired.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn park_retired(&self, handle: Arc<SetHandle>) {
        self.retired.lock().unwrap_or_else(|p| p.into_inner()).push(Arc::downgrade(&handle));
    }
}

/// In-flight scans pinned to a current version: every reference but the
/// registry's own. Read under the entries lock, so no swap races it.
fn pins(handle: &Arc<SetHandle>) -> u64 {
    Arc::strong_count(handle) as u64 - 1
}

/// Ids become file stems, so the alphabet is conservative.
fn validate_id(id: &str) -> Result<(), RegistryError> {
    let ok = !id.is_empty()
        && id.len() <= MAX_RULESET_ID
        && id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !id.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(RegistryError::InvalidId(id.to_owned()))
    }
}

/// The content-hash version: FNV-1a 64 over the length-prefixed pattern
/// list and the encoded program artifact, as 16 lowercase hex chars.
/// Deterministic across processes (no hasher randomization), so the
/// same patterns always produce the same version tag.
pub fn content_version(patterns: &[String], artifact: &[u8]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(&(patterns.len() as u64).to_le_bytes());
    for pattern in patterns {
        eat(&(pattern.len() as u64).to_le_bytes());
        eat(pattern.as_bytes());
    }
    eat(&(artifact.len() as u64).to_le_bytes());
    eat(artifact);
    format!("{hash:016x}")
}

/// Write the `{id}.ruleset` envelope via write-then-rename.
fn persist(
    dir: &Path,
    id: &str,
    version: &str,
    patterns: &[String],
    artifact: &[u8],
) -> Result<(), RegistryError> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    text.push_str(MAGIC);
    text.push('\n');
    text.push_str(&format!("version = {version}\n"));
    text.push_str(&format!("patterns = {}\n", patterns.len()));
    for pattern in patterns {
        text.push_str(&to_hex(pattern.as_bytes()));
        text.push('\n');
    }
    text.push_str(&format!("artifact = {}\n", to_hex(artifact)));
    let tmp = dir.join(format!(".{id}.ruleset.tmp"));
    let path = dir.join(format!("{id}.ruleset"));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Parse and verify one persisted artifact.
fn load_artifact(path: &Path) -> Result<(String, Vec<String>, Program), RegistryError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.display();
    let corrupt = |m: String| RegistryError::Corrupt(format!("{name}: {m}"));
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(corrupt(format!("missing `{MAGIC}` header")));
    }
    let version = lines
        .next()
        .and_then(|l| l.strip_prefix("version = "))
        .ok_or_else(|| corrupt("missing `version =` line".to_owned()))?
        .to_owned();
    let count: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("patterns = "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| corrupt("missing or bad `patterns =` line".to_owned()))?;
    let mut patterns = Vec::with_capacity(count);
    for i in 0..count {
        let hex = lines.next().ok_or_else(|| corrupt(format!("missing pattern line {i}")))?;
        let bytes = from_hex(hex).map_err(|e| corrupt(format!("pattern {i}: {e}")))?;
        patterns.push(
            String::from_utf8(bytes).map_err(|_| corrupt(format!("pattern {i} is not UTF-8")))?,
        );
    }
    let artifact = lines
        .next()
        .and_then(|l| l.strip_prefix("artifact = "))
        .ok_or_else(|| corrupt("missing `artifact =` line".to_owned()))?;
    let artifact = from_hex(artifact).map_err(corrupt)?;
    if content_version(&patterns, &artifact) != version {
        return Err(corrupt(format!("content hash mismatch for version {version}")));
    }
    let program = EncodedProgram::from_bytes(&artifact)
        .and_then(|encoded| encoded.decode())
        .map_err(|e| corrupt(format!("decoding program artifact: {e:?}")))?;
    Ok((version, patterns, program))
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex".to_owned());
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| format!("bad hex byte {:?}", &hex[i..i + 2]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_runtime::RuntimeOptions;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeOptions { jobs: 1, ..RuntimeOptions::default() })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cicero-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete_lifecycle_with_content_versions() {
        let registry = RulesetRegistry::new(None, Telemetry::new());
        let runtime = runtime();
        let patterns = vec!["GET /".to_owned(), "POST /".to_owned()];
        let put = registry.put(&runtime, "web", patterns.clone()).unwrap();
        assert_eq!(put.version.len(), 16);
        assert!(put.replaced.is_none());

        let info = registry.get("web").unwrap();
        assert_eq!(info.version, put.version);
        assert_eq!(info.patterns, patterns);
        assert_eq!(info.pins, 0);

        // Same patterns → same version (content hash, not a counter);
        // different patterns → different version, and the replaced tag
        // points at the old one.
        let same = registry.put(&runtime, "web", patterns.clone()).unwrap();
        assert_eq!(same.version, put.version);
        assert!(same.cache_hit, "second compile of the same set hits the runtime cache");
        let swapped = registry.put(&runtime, "web", vec!["DELETE /".to_owned()]).unwrap();
        assert_ne!(swapped.version, put.version);
        assert_eq!(swapped.replaced.as_deref(), Some(put.version.as_str()));

        assert_eq!(registry.list().len(), 1);
        let deleted = registry.delete("web").unwrap();
        assert_eq!(deleted, swapped.version);
        assert!(registry.get("web").is_none());
        assert!(matches!(registry.delete("web"), Err(RegistryError::NotFound(_))));
    }

    #[test]
    fn swap_retires_the_old_version_until_its_last_pin_drops() {
        let telemetry = Telemetry::new();
        let registry = RulesetRegistry::new(None, telemetry.clone());
        let runtime = runtime();
        registry.put(&runtime, "r", vec!["aa".to_owned()]).unwrap();
        let pinned = registry.pin("r").unwrap();
        let v1 = pinned.version().to_owned();

        registry.put(&runtime, "r", vec!["bb".to_owned()]).unwrap();
        // The in-flight scan still holds v1; the registry serves v2.
        assert_eq!(pinned.version(), v1);
        assert_ne!(registry.get("r").unwrap().version, v1);
        assert_eq!(registry.retired_len(), 1, "old version drains, not freed");
        assert_eq!(telemetry.counter("registry.versions_released"), 0);

        drop(pinned);
        registry.sweep();
        assert_eq!(registry.retired_len(), 0);
        assert_eq!(telemetry.counter("registry.versions_released"), 1);
        assert_eq!(telemetry.counter("registry.swaps"), 1);
    }

    #[test]
    fn pin_counts_follow_live_guards_and_a_swapped_version_drains_on_its_last() {
        let telemetry = Telemetry::new();
        let registry = RulesetRegistry::new(None, telemetry.clone());
        let runtime = runtime();
        registry.put(&runtime, "r", vec!["aa".to_owned()]).unwrap();
        let first = registry.pin("r").unwrap();
        let second = registry.pin("r").unwrap();
        assert_eq!(registry.get("r").unwrap().pins, 2);
        assert_eq!(registry.list()[0].pins, 2);
        drop(first);
        assert_eq!(registry.get("r").unwrap().pins, 1);
        assert_eq!(registry.list()[0].pins, 1);

        registry.put(&runtime, "r", vec!["bb".to_owned()]).unwrap();
        assert_eq!(registry.get("r").unwrap().pins, 0, "the new version starts unpinned");
        registry.sweep();
        assert_eq!(registry.retired_len(), 1, "the old version is still pinned");
        assert_eq!(telemetry.counter("registry.versions_released"), 0);
        drop(second);
        registry.sweep();
        assert_eq!(registry.retired_len(), 0);
        assert_eq!(telemetry.counter("registry.versions_released"), 1);
    }

    #[test]
    fn pins_resolve_against_the_version_current_at_acquisition() {
        let registry = RulesetRegistry::new(None, Telemetry::new());
        let runtime = runtime();
        registry.put(&runtime, "r", vec!["ab|cd".to_owned()]).unwrap();
        let before = registry.pin("r").unwrap();
        registry.put(&runtime, "r", vec!["zz+".to_owned()]).unwrap();
        let after = registry.pin("r").unwrap();
        assert_ne!(before.version(), after.version());
        // Both programs stay runnable while pinned.
        assert!(cicero_isa::run_all(before.program(), b"xxcd").matched_ids == vec![0]);
        assert!(cicero_isa::run_all(after.program(), b"zzz").matched_ids == vec![0]);
        assert!(registry.pin("missing").is_none());
    }

    #[test]
    fn persisted_artifacts_reload_with_verified_hashes() {
        let dir = temp_dir("reload");
        let telemetry = Telemetry::new();
        let runtime = runtime();
        let patterns = vec!["GET /".to_owned(), "POST /".to_owned()];
        let version = {
            let registry = RulesetRegistry::new(Some(dir.clone()), telemetry.clone());
            registry.put(&runtime, "web", patterns.clone()).unwrap().version
        };
        // A fresh registry (fresh process, in spirit) restores it.
        let registry = RulesetRegistry::new(Some(dir.clone()), telemetry.clone());
        let loaded = registry.load_dir(&runtime).unwrap();
        assert_eq!(loaded, vec!["web".to_owned()]);
        let info = registry.get("web").unwrap();
        assert_eq!(info.version, version);
        assert_eq!(info.patterns, patterns);
        // The restored program actually matches, and it is the runtime's
        // own compile, whose host engine came from `regex` IR.
        let pinned = registry.pin("web").unwrap();
        assert_eq!(cicero_isa::run_all(pinned.program(), b"GET /x").matched_ids, vec![0]);
        assert!(Arc::ptr_eq(pinned.program(), &runtime.compile_set(&patterns).unwrap()));
        assert!(runtime.host_program(pinned.program()).lowering().is_some());
        drop(pinned);
        // Delete unlinks the artifact.
        registry.delete("web").unwrap();
        let empty = RulesetRegistry::new(Some(dir.clone()), telemetry);
        assert!(empty.load_dir(&runtime).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_artifacts_fail_the_hash_check() {
        let dir = temp_dir("tamper");
        let runtime = runtime();
        let registry = RulesetRegistry::new(Some(dir.clone()), Telemetry::new());
        registry.put(&runtime, "r", vec!["abc".to_owned()]).unwrap();
        let path = dir.join("r.ruleset");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one artifact nibble.
        let at = text.rfind("artifact = ").unwrap() + "artifact = ".len();
        let original = text.as_bytes()[at];
        let flipped = if original == b'0' { '1' } else { '0' };
        text.replace_range(at..at + 1, &flipped.to_string());
        std::fs::write(&path, text).unwrap();

        let fresh = RulesetRegistry::new(Some(dir.clone()), Telemetry::new());
        let err = fresh.load_dir(&runtime).unwrap_err();
        assert!(matches!(err, RegistryError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_artifact_another_configuration_wrote_is_refused_as_stale() {
        // Jump Simplification off writes a longer program for `ab|cd`
        // than a runtime with every optimization on compiles.
        let dir = temp_dir("stale");
        let patterns = vec!["ab|cd".to_owned(), "x+y".to_owned()];
        let unoptimized = Runtime::new(RuntimeOptions {
            jobs: 1,
            compiler: cicero_core::CompilerOptions::unoptimized(),
        });
        let writer = RulesetRegistry::new(Some(dir.clone()), Telemetry::new());
        writer.put(&unoptimized, "r", patterns.clone()).unwrap();

        let reader = RulesetRegistry::new(Some(dir.clone()), Telemetry::new());
        let err = reader.load_dir(&runtime()).unwrap_err();
        assert!(matches!(err, RegistryError::Stale(_)), "{err}");
        assert!(err.to_string().starts_with("stale ruleset artifact: "), "{err}");
        assert!(reader.get("r").is_none(), "a stale artifact is not installed");
        // The configuration that wrote it still loads it.
        assert_eq!(reader.load_dir(&unoptimized).unwrap(), vec!["r".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_ids_are_rejected_before_compilation() {
        let registry = RulesetRegistry::new(None, Telemetry::new());
        let runtime = runtime();
        for bad in ["", "a/b", "..", ".hidden", "spaced id", &"x".repeat(MAX_RULESET_ID + 1)] {
            let err = registry.put(&runtime, bad, vec!["a".to_owned()]).unwrap_err();
            assert!(matches!(err, RegistryError::InvalidId(_)), "{bad:?}: {err}");
        }
        // Compile failures leave no entry behind.
        let err = registry.put(&runtime, "ok", vec!["(".to_owned()]).unwrap_err();
        assert!(matches!(err, RegistryError::Compile(_)), "{err}");
        assert!(registry.get("ok").is_none());
    }

    #[test]
    fn content_version_is_stable_and_input_sensitive() {
        let a = content_version(&["ab".to_owned()], &[1, 2, 3]);
        assert_eq!(a, content_version(&["ab".to_owned()], &[1, 2, 3]));
        assert_ne!(a, content_version(&["ab".to_owned()], &[1, 2, 4]));
        assert_ne!(a, content_version(&["a".to_owned(), "b".to_owned()], &[1, 2, 3]));
        // Length prefixing: ["ab"] and ["a","b"] cannot collide by
        // concatenation.
        assert_ne!(
            content_version(&["ab".to_owned()], &[]),
            content_version(&["a".to_owned(), "b".to_owned()], &[])
        );
    }
}
