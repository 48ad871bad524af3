//! Passes and the pass manager.

use std::fmt;
use std::time::{Duration, Instant};

use crate::dialect::Context;
use crate::op::Operation;

/// A compiler pass transforming an operation tree in place. Passes are
/// shared: a compiler builds its pipelines once and runs them from any
/// thread.
pub trait Pass: Send + Sync {
    /// Stable diagnostic name, e.g. `regex-factorize-alternations`.
    fn name(&self) -> &'static str;

    /// Run the pass on `root`.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] if the pass cannot complete (malformed
    /// input IR, resource limits, internal invariant violations).
    fn run(&self, root: &mut Operation, ctx: &Context) -> Result<(), PassError>;
}

/// A pass failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Name of the failing pass (filled in by the pass manager if empty).
    pub pass: String,
    /// Human-readable description.
    pub message: String,
}

impl PassError {
    /// Construct an error with the pass name left for the manager to fill.
    pub fn new(message: impl Into<String>) -> PassError {
        PassError { pass: String::new(), message: message.into() }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pass.is_empty() {
            write!(f, "pass failed: {}", self.message)
        } else {
            write!(f, "pass `{}` failed: {}", self.pass, self.message)
        }
    }
}

impl std::error::Error for PassError {}

/// Timing and structural data for one executed pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Pass name.
    pub name: &'static str,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
    /// Op count before the pass ran.
    pub ops_before: usize,
    /// Op count after the pass ran.
    pub ops_after: usize,
}

/// Report for a whole pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// One entry per executed pass, in order.
    pub passes: Vec<PassReport>,
}

impl PipelineReport {
    /// Total wall-clock time across all passes.
    pub fn total_duration(&self) -> Duration {
        self.passes.iter().map(|p| p.duration).sum()
    }

    /// Append another pipeline's passes (e.g. high-level then low-level).
    pub fn extend(&mut self, other: &PipelineReport) {
        self.passes.extend(other.passes.iter().cloned());
    }
}

impl fmt::Display for PipelineReport {
    /// An aligned per-pass timing table, modeled on MLIR's
    /// `-mlir-timing` report: duration, share of total, and op-count
    /// delta per pass, followed by a total row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name_width = self
            .passes
            .iter()
            .map(|p| p.name.len())
            .chain(["pass".len(), "total".len()])
            .max()
            .unwrap_or(4);
        let total_us = self.total_duration().as_secs_f64() * 1e6;
        writeln!(
            f,
            "{:<name_width$}  {:>12}  {:>6}  {:>7}  {:>7}  {:>6}",
            "pass", "time (us)", "%", "ops in", "ops out", "delta"
        )?;
        for p in &self.passes {
            let us = p.duration.as_secs_f64() * 1e6;
            let share = if total_us > 0.0 { 100.0 * us / total_us } else { 0.0 };
            writeln!(
                f,
                "{:<name_width$}  {:>12.1}  {:>6.1}  {:>7}  {:>7}  {:>+6}",
                p.name,
                us,
                share,
                p.ops_before,
                p.ops_after,
                p.ops_after as i64 - p.ops_before as i64
            )?;
        }
        write!(f, "{:<name_width$}  {:>12.1}  {:>6.1}", "total", total_us, 100.0)
    }
}

/// An ordered pipeline of passes with optional inter-pass verification.
///
/// Mirrors `mlir::PassManager`: passes run in order, and when
/// [`PassManager::verify_each`] is enabled the IR is verified against the
/// context's registered dialects after every pass, turning pass bugs into
/// immediate, attributed failures.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

impl Default for PassManager {
    fn default() -> PassManager {
        PassManager::new()
    }
}

impl PassManager {
    /// An empty pipeline with inter-pass verification enabled.
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new(), verify_each: true }
    }

    /// Append a pass.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Enable or disable verification after each pass.
    pub fn verify_each(&mut self, enabled: bool) -> &mut Self {
        self.verify_each = enabled;
        self
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run the pipeline on `root`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PassError`] (with the pass name attached) or
    /// converts the first post-pass verification failure into one.
    pub fn run(&self, root: &mut Operation, ctx: &Context) -> Result<PipelineReport, PassError> {
        let mut report = PipelineReport::default();
        for pass in &self.passes {
            let ops_before = root.subtree_size();
            let start = Instant::now();
            let run_result = pass.run(root, ctx).map_err(|mut e| {
                if e.pass.is_empty() {
                    e.pass = pass.name().to_owned();
                }
                e
            });
            let duration = start.elapsed();
            run_result.and_then(|()| {
                if self.verify_each {
                    ctx.verify(root).map_err(|e| PassError {
                        pass: pass.name().to_owned(),
                        message: format!("IR invalid after pass: {e}"),
                    })
                } else {
                    Ok(())
                }
            })?;
            report.passes.push(PassReport {
                name: pass.name(),
                duration,
                ops_before,
                ops_after: root.subtree_size(),
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Dialect, OpDefinition};
    use crate::op::{Ident, Region};

    struct AppendLeaf;
    impl Pass for AppendLeaf {
        fn name(&self) -> &'static str {
            "append-leaf"
        }
        fn run(&self, root: &mut Operation, _ctx: &Context) -> Result<(), PassError> {
            root.only_region_mut().ops.push(Operation::new("t.leaf"));
            Ok(())
        }
    }

    struct Corrupt;
    impl Pass for Corrupt {
        fn name(&self) -> &'static str {
            "corrupt"
        }
        fn run(&self, root: &mut Operation, _ctx: &Context) -> Result<(), PassError> {
            root.only_region_mut().ops.push(Operation::new("t.undefined"));
            Ok(())
        }
    }

    struct Fail;
    impl Pass for Fail {
        fn name(&self) -> &'static str {
            "fail"
        }
        fn run(&self, _root: &mut Operation, _ctx: &Context) -> Result<(), PassError> {
            Err(PassError::new("deliberate"))
        }
    }

    fn ctx() -> Context {
        let mut d = Dialect::new("t");
        static MODULE: &Ident = &Ident::new("t.module");
        static LEAF: &Ident = &Ident::new("t.leaf");
        d.register_op(OpDefinition::simple(MODULE, 1));
        d.register_op(OpDefinition::simple(LEAF, 0));
        let mut c = Context::new();
        c.register_dialect(d);
        c
    }

    fn module() -> Operation {
        Operation::new("t.module").with_region(Region::new())
    }

    #[test]
    fn pipeline_runs_in_order_and_reports() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(AppendLeaf)).add_pass(Box::new(AppendLeaf));
        let mut m = module();
        let report = pm.run(&mut m, &ctx()).unwrap();
        assert_eq!(m.only_region().len(), 2);
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].ops_before, 1);
        assert_eq!(report.passes[0].ops_after, 2);
        assert_eq!(report.passes[1].ops_after, 3);
    }

    #[test]
    fn failure_is_attributed_to_pass() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(Fail));
        let err = pm.run(&mut module(), &ctx()).unwrap_err();
        assert_eq!(err.pass, "fail");
    }

    #[test]
    fn verify_each_catches_corruption() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(Corrupt));
        let err = pm.run(&mut module(), &ctx()).unwrap_err();
        assert_eq!(err.pass, "corrupt");
        assert!(err.message.contains("IR invalid after pass"), "{err}");
    }

    #[test]
    fn verification_can_be_disabled() {
        let mut pm = PassManager::new();
        pm.verify_each(false);
        pm.add_pass(Box::new(Corrupt));
        pm.run(&mut module(), &ctx()).unwrap();
    }

    #[test]
    fn report_displays() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(AppendLeaf));
        let report = pm.run(&mut module(), &ctx()).unwrap();
        let text = report.to_string();
        assert!(text.contains("append-leaf"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn report_display_is_aligned() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(AppendLeaf)).add_pass(Box::new(AppendLeaf));
        let report = pm.run(&mut module(), &ctx()).unwrap();
        let text = report.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 passes + total
                                    // Every pass row starts its numeric columns at the same offset as
                                    // the header columns.
        let header_time = lines[0].find("time (us)").unwrap();
        for row in &lines[1..3] {
            assert!(row.len() > header_time, "{text}");
            assert!(row.contains("append-leaf"), "{text}");
        }
        assert!(lines[1].contains("+1"), "delta column missing: {text}");
    }
}
