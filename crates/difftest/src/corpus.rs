//! The committed regression corpus: one TOML file per minimized
//! divergence, replayed as a normal `cargo test`.
//!
//! The on-disk format is a deliberately tiny TOML subset — flat
//! `key = value` lines with basic strings and one string array — so the
//! workspace needs no TOML dependency and the files stay hand-editable:
//!
//! ```toml
//! pattern = "x(a?|a*)y"
//! kind = "seed"
//! note = "where this case came from"
//! inputs = ["786179", ""]
//! splits = [1, 2]
//! ```
//!
//! Inputs are lowercase hex so arbitrary bytes (the generator emits
//! `0x00`–`0xff`) survive the text format losslessly. `splits` is
//! optional (and omitted when empty): chunk-split points for cases that
//! only diverge on the streaming axis — replay re-streams every input
//! split at those positions. `refusal` is optional too: a pattern that
//! must not compile, and the text its refusal must contain; replay checks
//! that the new compiler and the legacy compiler both refuse it with that
//! text (`refusal = "8192-instruction address space"`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// File stem this case was loaded from (or will be saved under).
    pub name: String,
    /// The pattern.
    pub pattern: String,
    /// The input set.
    pub inputs: Vec<Vec<u8>>,
    /// Provenance: `divergence` for minimized fuzz findings, `seed` for
    /// cases imported from other test layers.
    pub kind: String,
    /// Free-text triage note (the cell that diverged, the fix commit, …).
    pub note: String,
    /// Chunk-split points for stream-axis cases; empty for cases that
    /// diverge on the whole-input matrix alone.
    pub splits: Vec<usize>,
    /// For a pattern both compilers must refuse: text their errors
    /// contain. `None` for a pattern that compiles.
    pub refusal: Option<String>,
}

/// The committed corpus directory (`crates/difftest/corpus`).
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

impl CorpusCase {
    /// Render to the TOML subset.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("pattern = {}\n", quote(&self.pattern)));
        out.push_str(&format!("kind = {}\n", quote(&self.kind)));
        out.push_str(&format!("note = {}\n", quote(&self.note)));
        let inputs: Vec<String> = self.inputs.iter().map(|i| quote(&to_hex(i))).collect();
        out.push_str(&format!("inputs = [{}]\n", inputs.join(", ")));
        if !self.splits.is_empty() {
            let splits: Vec<String> = self.splits.iter().map(usize::to_string).collect();
            out.push_str(&format!("splits = [{}]\n", splits.join(", ")));
        }
        if let Some(refusal) = &self.refusal {
            out.push_str(&format!("refusal = {}\n", quote(refusal)));
        }
        out
    }

    /// Parse the TOML subset.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, unknown key,
    /// missing key, or invalid hex.
    pub fn from_toml(name: &str, text: &str) -> Result<CorpusCase, String> {
        let mut pattern = None;
        let mut kind = None;
        let mut note = None;
        let mut inputs = None;
        let mut splits = None;
        let mut refusal = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("{name}:{}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let at = |e: String| format!("{name}:{}: {e}", lineno + 1);
            match key {
                "pattern" => pattern = Some(unquote(value).map_err(at)?),
                "kind" => kind = Some(unquote(value).map_err(at)?),
                "note" => note = Some(unquote(value).map_err(at)?),
                "inputs" => {
                    let mut decoded = Vec::new();
                    for hex in parse_string_array(value).map_err(at)? {
                        decoded.push(
                            from_hex(&hex).map_err(|e| format!("{name}:{}: {e}", lineno + 1))?,
                        );
                    }
                    inputs = Some(decoded);
                }
                "splits" => splits = Some(parse_usize_array(value).map_err(at)?),
                "refusal" => refusal = Some(unquote(value).map_err(at)?),
                other => return Err(format!("{name}:{}: unknown key `{other}`", lineno + 1)),
            }
        }
        Ok(CorpusCase {
            name: name.to_owned(),
            pattern: pattern.ok_or_else(|| format!("{name}: missing `pattern`"))?,
            inputs: inputs.ok_or_else(|| format!("{name}: missing `inputs`"))?,
            kind: kind.unwrap_or_else(|| "divergence".to_owned()),
            note: note.unwrap_or_default(),
            splits: splits.unwrap_or_default(),
            refusal,
        })
    }

    /// Write this case to `dir/<name>.toml`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the directory is created if absent).
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.toml", self.name));
        fs::write(&path, self.to_toml())?;
        Ok(path)
    }
}

/// Load every `*.toml` case in `dir`, sorted by file name. A missing
/// directory is an empty corpus.
///
/// # Errors
///
/// Returns the first I/O or parse error.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let name = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        cases.push(CorpusCase::from_toml(&name, &text)?);
    }
    Ok(cases)
}

// ---------------------------------------------------------------------------
// Basic strings and hex.
// ---------------------------------------------------------------------------

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn unquote(value: &str) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape `\\u{hex}`"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint \\u{hex}"))?);
            }
            other => return Err(format!("unsupported escape `\\{other:?}`")),
        }
    }
    Ok(out)
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a string array, got `{value}`"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(|item| unquote(item.trim())).collect()
}

fn parse_usize_array(value: &str) -> Result<Vec<usize>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an integer array, got `{value}`"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| {
            let item = item.trim();
            item.parse::<usize>().map_err(|_| format!("bad integer `{item}`"))
        })
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string `{hex}`"));
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| format!("bad hex byte `{}`", &hex[i..i + 2]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusCase {
        CorpusCase {
            name: "sample".to_owned(),
            pattern: "x(a?|a*)y|\\xff\"lit\\\"".to_owned(),
            inputs: vec![b"xay".to_vec(), Vec::new(), vec![0x00, 0x7f, 0xff]],
            kind: "divergence".to_owned(),
            note: "found by seed 7, cell sim/O2".to_owned(),
            splits: vec![1, 2],
            refusal: Some("address \"space\"".to_owned()),
        }
    }

    #[test]
    fn toml_roundtrip_is_lossless() {
        let case = sample();
        let text = case.to_toml();
        assert_eq!(CorpusCase::from_toml("sample", &text).unwrap(), case);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a triage note\n\npattern = \"ab\"\ninputs = []\n";
        let case = CorpusCase::from_toml("c", text).unwrap();
        assert_eq!(case.pattern, "ab");
        assert!(case.inputs.is_empty());
        assert_eq!(case.kind, "divergence");
        // `splits` is optional: files written before the streaming axis
        // existed (no `splits` line) stay loadable.
        assert!(case.splits.is_empty());
    }

    #[test]
    fn splits_roundtrip_and_reject_garbage() {
        let text = "pattern = \"ab\"\ninputs = [\"61\"]\nsplits = [1, 4, 9]\n";
        let case = CorpusCase::from_toml("c", text).unwrap();
        assert_eq!(case.splits, vec![1, 4, 9]);
        // Empty splits are omitted from the rendered form entirely.
        let mut no_splits = sample();
        no_splits.splits = Vec::new();
        assert!(!no_splits.to_toml().contains("splits"));
        let err = CorpusCase::from_toml("c", "pattern = \"a\"\ninputs = []\nsplits = [1, x]\n")
            .unwrap_err();
        assert!(err.contains("bad integer"), "{err}");
    }

    #[test]
    fn malformed_files_are_rejected_with_positions() {
        let err = CorpusCase::from_toml("c", "pattern\n").unwrap_err();
        assert!(err.contains("c:1"), "{err}");
        let err = CorpusCase::from_toml("c", "mystery = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = CorpusCase::from_toml("c", "pattern = \"a\"\ninputs = [\"xyz\"]\n").unwrap_err();
        assert!(err.contains("hex"), "{err}");
        let err = CorpusCase::from_toml("c", "inputs = []\n").unwrap_err();
        assert!(err.contains("missing `pattern`"), "{err}");
    }

    #[test]
    fn save_and_load_dir_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("cicero-difftest-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let case = sample();
        case.save(&dir).unwrap();
        let mut second = sample();
        second.name = "another".to_owned();
        second.inputs = vec![vec![0xde, 0xad]];
        second.save(&dir).unwrap();

        let loaded = load_dir(&dir).unwrap();
        // Sorted by file name: `another` before `sample`.
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], second);
        assert_eq!(loaded[1], case);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_directory_is_an_empty_corpus() {
        assert_eq!(load_dir(Path::new("/nonexistent/difftest-corpus")).unwrap(), Vec::new());
    }
}
