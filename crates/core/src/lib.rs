//! The new multi-dialect Cicero compiler (§3 of the paper).
//!
//! A linear pipeline transforming a textual RE into a Cicero binary:
//!
//! ```text
//! pattern ──parse──▶ AST ──convert──▶ regex dialect ──{canonicalize,
//!   factorize, shortest-match}──▶ regex dialect ──lower──▶ cicero dialect
//!   ──jump-simplification──▶ cicero dialect ──codegen──▶ ISA program
//! ```
//!
//! A compiler that targets [`Backend::Host`] also lowers the optimized
//! `regex` IR a second way, to the host engine's position automaton
//! ([`HostProgram::from_pattern`], [`HostProgram::from_set`]): a sibling
//! of the `cicero` lowering, so the compiled program carries its engine
//! ([`HostLowering`]) and nothing un-lowers the ISA to run it.
//!
//! High-level (architecture-agnostic) optimizations run on the `regex`
//! dialect; the back-end Jump Simplification runs on the `cicero` dialect,
//! after basic blocks have been mapped to instruction memory — avoiding
//! the *premature lowering* of the original single-IR compiler (§2.1).
//!
//! Every optimization is individually toggleable via [`CompilerOptions`],
//! matching the paper's per-transformation compiler flags, and every pass
//! is timed ([`PipelineReport`]) to support the Figure 9 compile-time
//! experiments. One driver runs the pipeline for a pattern
//! ([`Compiler::compile`]) and for a set ([`Compiler::compile_set`]), and
//! both return a [`Compiled`]; [`Compiler::compile_with_artifacts`] is
//! the same driver keeping a copy of the IR at each stage boundary.
//!
//! # Example
//!
//! ```
//! use cicero_core::Compiler;
//!
//! let compiler = Compiler::new();
//! let compiled = compiler.compile("(ab)|c{3,6}d+")?;
//! assert!(compiled.program().len() > 0);
//! assert!(cicero_isa::accepts(compiled.program(), b"xx ccccd yy"));
//! # Ok::<(), cicero_core::CompileError>(())
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cicero_dialect::CodegenError;
pub use cicero_hostexec::HostProgram;
use cicero_isa::Program;
use cicero_telemetry::{Telemetry, TraceSpan, Value};
use mlir_lite::{Context, Operation, PassError, PassManager};
// Re-exported so downstream crates (runtime, server) can consume per-pass
// reports without depending on mlir-lite directly.
pub use mlir_lite::{PassReport, PipelineReport};
use regex_frontend::ParseRegexError;

/// Render a compilation's pass report under `span` as one finished
/// `pass:<name>` child per pass, annotated with the op counts, laid out
/// end to end from the span's start (the pass manager ran them
/// sequentially, so the cumulative layout is faithful). The one place a
/// [`PipelineReport`] becomes trace spans.
pub fn record_pass_spans(span: &TraceSpan, report: &PipelineReport) {
    let mut offset = span.start_offset();
    for pass in &report.passes {
        span.context().record_complete(
            Some(span.id()),
            format!("pass:{}", pass.name),
            offset,
            pass.duration,
            vec![
                ("ops_before".to_owned(), Value::from(pass.ops_before)),
                ("ops_after".to_owned(), Value::from(pass.ops_after)),
            ],
        );
        offset += pass.duration;
    }
}

/// Execution target for a compiled program.
///
/// Both targets execute the same validated ISA [`Program`]; this selects
/// *how* the program runs:
///
/// - [`Backend::Sim`] runs the cycle-level simulator, the architecture
///   oracle for the paper's hardware (cycle counts, icache behavior,
///   engine-transfer stats). The compile is exactly the paper's pipeline.
/// - [`Backend::Host`] runs the bit-parallel host-native engine
///   (`cicero-hostexec`): same match semantics, no microarchitectural
///   model, three orders of magnitude faster. The compile also lowers the
///   optimized `regex` IR to that engine ([`HostLowering`]).
///
/// The default is `Host` — the serving path wants throughput; simulation
/// is opt-in where architecture numbers matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Cycle-level simulator (the architecture oracle).
    Sim,
    /// Bit-parallel host-native engine.
    #[default]
    Host,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Host => "host",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "sim" | "simulator" => Ok(Backend::Sim),
            "host" | "native" => Ok(Backend::Host),
            other => Err(format!("unknown backend `{other}` (expected `sim` or `host`)")),
        }
    }
}

/// Per-transformation toggles (§3.2's "each transformation is optional and
/// can be enabled or disabled individually").
///
/// `Hash`/`Eq` matter operationally: the runtime's compiled-program cache
/// is keyed by `(pattern, CompilerOptions)`, so two requests share a cache
/// entry exactly when every toggle agrees. The [`backend`] field does not
/// affect the compiled program, and the runtime normalizes it out of cache
/// keys — sim and host requests for the same pattern share one entry.
///
/// [`backend`]: CompilerOptions::backend
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompilerOptions {
    /// Execution target for the compiled program (see [`Backend`]).
    /// `optimized()`/`unoptimized()` pin [`Backend::Sim`] — they describe
    /// the paper's simulated configurations; serving paths that want the
    /// native engine set this to [`Backend::Host`] explicitly (the server
    /// does so by default).
    pub backend: Backend,
    /// Set 1: sub-regex simplification / canonicalization.
    pub canonicalize: bool,
    /// Set 2: alternation prefix factorization.
    pub factorize: bool,
    /// Set 3: shortest-match boundary quantifier reduction.
    pub shortest_match: bool,
    /// Extension beyond the paper: the same reduction applied at the
    /// *leading* boundary (sound under the implicit `.*` prefix). Off by
    /// default to match the paper's pipeline.
    pub shortest_match_leading: bool,
    /// Back-end Jump Simplification on the `cicero` dialect (§5).
    pub jump_simplification: bool,
    /// Relative order of the enabled high-level sets (default: the
    /// paper's canonicalize → factorize → shortest-match). A tunable —
    /// `cicero tune` searches all six permutations.
    pub pass_order: regex_dialect::transforms::PassOrder,
}

impl CompilerOptions {
    /// All optimizations enabled (the paper's "w/ optimizations"
    /// configuration).
    pub fn optimized() -> CompilerOptions {
        CompilerOptions {
            backend: Backend::Sim,
            canonicalize: true,
            factorize: true,
            shortest_match: true,
            shortest_match_leading: false,
            jump_simplification: true,
            pass_order: regex_dialect::transforms::PassOrder::default(),
        }
    }

    /// All optimizations disabled (the paper's "w/o optimizations").
    pub fn unoptimized() -> CompilerOptions {
        CompilerOptions {
            backend: Backend::Sim,
            canonicalize: false,
            factorize: false,
            shortest_match: false,
            shortest_match_leading: false,
            jump_simplification: false,
            pass_order: regex_dialect::transforms::PassOrder::default(),
        }
    }

    /// The same toggles, retargeted to `backend`.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> CompilerOptions {
        self.backend = backend;
        self
    }
}

impl Default for CompilerOptions {
    fn default() -> CompilerOptions {
        CompilerOptions::optimized()
    }
}

/// A program's host engine, lowered from the optimized `regex` IR it was
/// compiled from, when the compiler targets [`Backend::Host`].
#[derive(Debug, Clone)]
pub struct HostLowering {
    /// The engine.
    pub engine: Arc<HostProgram>,
    /// Wall time of the lowering: the position automaton, factoring and
    /// the engine build.
    pub duration: Duration,
}

impl HostLowering {
    fn time(lower: impl FnOnce() -> HostProgram) -> HostLowering {
        let start = Instant::now();
        let engine = Arc::new(lower());
        HostLowering { engine, duration: start.elapsed() }
    }
}

/// A compiled pattern or pattern set: the binary program plus compile
/// metadata. A set's program reports *which* member matched via
/// `AcceptPartialId` (the paper's Future Work ISA extension).
#[derive(Debug, Clone)]
pub struct Compiled {
    program: Program,
    patterns: Vec<String>,
    pass_report: PipelineReport,
    host: Option<HostLowering>,
}

impl Compiled {
    /// The executable Cicero program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Consume and return the program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Code size in instructions (the Figure 8 metric).
    pub fn code_size(&self) -> usize {
        self.program.len()
    }

    /// Code locality `D_offset` (the Figure 10 metric, Equation 1).
    pub fn d_offset(&self) -> u64 {
        self.program.total_jump_offset()
    }

    /// Per-pass timing and op-count report (the Figure 9 metric): each
    /// pattern's high-level `regex` passes, in pattern order, then the
    /// program's one low-level `cicero` pipeline. Its `Display` renders
    /// an aligned timing table.
    pub fn pass_report(&self) -> &PipelineReport {
        &self.pass_report
    }

    /// The host engine, when the compiler targets [`Backend::Host`].
    pub fn host(&self) -> Option<&HostLowering> {
        self.host.as_ref()
    }

    /// The pattern with the given identifier (as reported in
    /// [`cicero_isa::ExecOutcome::matched_id`]; a single pattern is 0).
    pub fn pattern(&self, id: u16) -> Option<&str> {
        self.patterns.get(usize::from(id)).map(String::as_str)
    }

    /// Number of patterns compiled.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no pattern was compiled (never true).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// The IR of one compilation at each stage boundary, for tooling and
/// debugging.
#[derive(Debug, Clone)]
pub struct CompilationArtifacts {
    /// `regex` dialect IR right after conversion.
    pub regex_ir_initial: Operation,
    /// `regex` dialect IR after the enabled high-level transforms.
    pub regex_ir_optimized: Operation,
    /// `cicero` dialect IR right after lowering.
    pub cicero_ir_initial: Operation,
    /// `cicero` dialect IR after Jump Simplification (if enabled).
    pub cicero_ir_optimized: Operation,
    /// The final compiled program.
    pub compiled: Compiled,
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The pattern was rejected by the front-end.
    Parse(ParseRegexError),
    /// A pass failed or produced invalid IR.
    Pass(PassError),
    /// Lowering `regex` IR to the `cicero` dialect refused the program:
    /// it outgrows the address space, or a set holds an anchored member.
    Lowering(String),
    /// Code generation failed (e.g. the program exceeds instruction
    /// memory).
    Codegen(CodegenError),
    /// [`Compiler::compile_set`] was called with no patterns; a
    /// multi-matching program needs at least one set member.
    EmptySet,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Pass(e) => write!(f, "{e}"),
            CompileError::Lowering(message) => write!(f, "lowering error: {message}"),
            CompileError::Codegen(e) => write!(f, "codegen error: {e}"),
            CompileError::EmptySet => {
                write!(f, "cannot compile an empty pattern set; provide at least one pattern")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseRegexError> for CompileError {
    fn from(e: ParseRegexError) -> CompileError {
        CompileError::Parse(e)
    }
}

impl From<PassError> for CompileError {
    fn from(e: PassError) -> CompileError {
        CompileError::Pass(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> CompileError {
        CompileError::Codegen(e)
    }
}

/// The multi-dialect compiler. It registers the dialects and builds its
/// two pass pipelines once, when it is made; compiling a pattern or a set
/// only runs them.
#[derive(Debug)]
pub struct Compiler {
    options: CompilerOptions,
    ctx: Context,
    /// The `regex`-dialect pipeline, run once per pattern.
    high_level: PassManager,
    /// The `cicero`-dialect pipeline, run once per program.
    low_level: PassManager,
    telemetry: Option<Telemetry>,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with all optimizations enabled.
    pub fn new() -> Compiler {
        Compiler::with_options(CompilerOptions::optimized())
    }

    /// A compiler with explicit options.
    pub fn with_options(options: CompilerOptions) -> Compiler {
        let mut ctx = Context::new();
        ctx.register_dialect(regex_dialect::dialect());
        ctx.register_dialect(cicero_dialect::dialect());
        let high = regex_dialect::transforms::HighLevelOptions {
            canonicalize: options.canonicalize,
            factorize: options.factorize,
            shortest_match: options.shortest_match,
            shortest_match_leading: options.shortest_match_leading,
            order: options.pass_order,
        };
        let low =
            cicero_dialect::LowLevelOptions { jump_simplification: options.jump_simplification };
        let mut high_level = PassManager::new();
        regex_dialect::transforms::build_pipeline(&mut high_level, &high);
        let mut low_level = PassManager::new();
        cicero_dialect::build_pipeline(&mut low_level, &low);
        for pm in [&mut high_level, &mut low_level] {
            pm.verify_each(false);
        }
        Compiler { options, ctx, high_level, low_level, telemetry: None }
    }

    /// Attach a telemetry collector: every compilation then records the
    /// `compiler.*` counters and gauges (compilations, passes run or
    /// failed, the program's code size and `D_offset`). Per-pass timings
    /// stay in the [`PipelineReport`]; [`record_pass_spans`] renders one
    /// into a trace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Compiler {
        self.telemetry = Some(telemetry);
        self
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compile a pattern to a Cicero program.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile(&self, pattern: &str) -> Result<Compiled, CompileError> {
        self.record(self.drive(&[pattern], false, None))
    }

    /// Compile a set of patterns into one multi-matching program.
    ///
    /// Each pattern goes through the front half (parse, convert, the
    /// high-level pipeline); then the set is lowered together around a
    /// single shared scan loop with identified acceptances, and that one
    /// program goes through the back half (the low-level pipeline and
    /// codegen) once. A compiler that targets [`Backend::Host`] then
    /// lowers the members' optimized IR to the set's host engine.
    ///
    /// # Errors
    ///
    /// Fails like [`Compiler::compile`], and additionally for an empty
    /// set ([`CompileError::EmptySet`]) and for anchored patterns
    /// (`^`/`$`), which cannot participate in a combined scan.
    pub fn compile_set<S: AsRef<str>>(&self, patterns: &[S]) -> Result<Compiled, CompileError> {
        if patterns.is_empty() {
            return Err(CompileError::EmptySet);
        }
        self.record(self.drive(patterns, true, None))
    }

    /// Compile, keeping a copy of the IR at each stage boundary.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_with_artifacts(
        &self,
        pattern: &str,
    ) -> Result<CompilationArtifacts, CompileError> {
        let mut stages = Vec::with_capacity(4);
        let compiled = self.record(self.drive(&[pattern], false, Some(&mut stages)))?;
        let [regex_ir_initial, regex_ir_optimized, cicero_ir_initial, cicero_ir_optimized] =
            <[Operation; 4]>::try_from(stages).expect("one copy per stage boundary");
        Ok(CompilationArtifacts {
            regex_ir_initial,
            regex_ir_optimized,
            cicero_ir_initial,
            cicero_ir_optimized,
            compiled,
        })
    }

    /// The compile driver: parse, convert and run the high-level pipeline
    /// on each pattern; lower them (`lower_multi` for a `set`, else
    /// `lower_to_cicero`); run the low-level pipeline and codegen; lower
    /// the host engine from the same optimized `regex` IR. With `stages`,
    /// it pushes a copy of each pattern's `regex` IR after conversion and
    /// after the high-level pipeline, then of the `cicero` IR after
    /// lowering and after the low-level pipeline; without, it copies no IR.
    fn drive<S: AsRef<str>>(
        &self,
        patterns: &[S],
        set: bool,
        mut stages: Option<&mut Vec<Operation>>,
    ) -> Result<Compiled, CompileError> {
        let mut snapshot = |ir: &Operation| {
            if let Some(stages) = stages.as_deref_mut() {
                stages.push(ir.clone());
            }
        };
        let mut pass_report = PipelineReport::default();
        let mut optimized = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            let mut ir = regex_dialect::ast_to_ir(&regex_frontend::parse(pattern.as_ref())?);
            snapshot(&ir);
            self.run_pipeline(&self.high_level, &mut ir, &mut pass_report)?;
            snapshot(&ir);
            optimized.push(ir);
        }
        let members: Vec<&Operation> = optimized.iter().collect();
        let lowered = if set {
            cicero_dialect::lower_multi(&members)
        } else {
            cicero_dialect::lower_to_cicero(members[0])
        };
        let mut cicero_ir = lowered.map_err(CompileError::Lowering)?;
        snapshot(&cicero_ir);
        self.run_pipeline(&self.low_level, &mut cicero_ir, &mut pass_report)?;
        snapshot(&cicero_ir);
        let program = cicero_dialect::codegen(&cicero_ir)?;
        let host = self.targets_host().then(|| {
            HostLowering::time(|| {
                if set {
                    HostProgram::from_set(&members, &program)
                } else {
                    HostProgram::from_pattern(members[0], &program)
                }
            })
        });
        let patterns = patterns.iter().map(|p| p.as_ref().to_owned()).collect();
        Ok(Compiled { program, patterns, pass_report, host })
    }

    /// Whether compiles also lower to the host engine.
    fn targets_host(&self) -> bool {
        self.options.backend == Backend::Host
    }

    /// Run `pm` on `ir`, append its passes to `report`, and count them in
    /// `compiler.passes_run` (or the failed run in
    /// `compiler.passes_failed`).
    fn run_pipeline(
        &self,
        pm: &PassManager,
        ir: &mut Operation,
        report: &mut PipelineReport,
    ) -> Result<(), PassError> {
        let run = pm.run(ir, &self.ctx);
        if let Some(t) = &self.telemetry {
            match &run {
                Ok(run) => t.counter_add("compiler.passes_run", run.passes.len() as u64),
                Err(_) => t.counter_add("compiler.passes_failed", 1),
            }
        }
        report.extend(&run?);
        Ok(())
    }

    /// Count one finished compilation and, if it produced a program, set
    /// the code-size and `D_offset` gauges from it.
    fn record(&self, compiled: Result<Compiled, CompileError>) -> Result<Compiled, CompileError> {
        if let Some(t) = &self.telemetry {
            t.counter_add("compiler.compilations", 1);
            if let Ok(compiled) = &compiled {
                t.gauge_set("compiler.code_size", compiled.code_size() as f64);
                t.gauge_set("compiler.d_offset", compiled.d_offset() as f64);
            }
        }
        compiled
    }
}

/// Convenience: compile with default (optimized) options.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(pattern: &str) -> Result<Compiled, CompileError> {
    Compiler::new().compile(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_never_worse_than_unoptimized() {
        let opt = Compiler::new();
        let unopt = Compiler::with_options(CompilerOptions::unoptimized());
        for pattern in [
            "ab|cd",
            "this|that|those",
            "(ab)|c{3,6}d+",
            "a{2,3}|b{4,5}",
            "abcd*|efgh+",
            "[^xyz]+end",
        ] {
            let o = opt.compile(pattern).unwrap();
            let u = unopt.compile(pattern).unwrap();
            assert!(
                o.d_offset() <= u.d_offset(),
                "{pattern}: D_offset {} > {}",
                o.d_offset(),
                u.d_offset()
            );
        }
    }

    #[test]
    fn listing2_end_to_end() {
        let opt = compile("ab|cd").unwrap();
        assert_eq!(opt.d_offset(), 9);
        assert_eq!(opt.code_size(), 10);
        let unopt =
            Compiler::with_options(CompilerOptions::unoptimized()).compile("ab|cd").unwrap();
        assert_eq!(unopt.d_offset(), 14);
        assert_eq!(unopt.code_size(), 11);
    }

    #[test]
    fn compiled_programs_execute_correctly() {
        let compiled = compile("th(is|at|ose)").unwrap();
        assert!(cicero_isa::accepts(compiled.program(), b"take that!"));
        assert!(!cicero_isa::accepts(compiled.program(), b"nothing here"));
    }

    #[test]
    fn individual_toggles_apply() {
        let mut only_factorize = CompilerOptions::unoptimized();
        only_factorize.factorize = true;
        let c = Compiler::with_options(only_factorize);
        let artifacts = c.compile_with_artifacts("this|that").unwrap();
        assert_eq!(regex_dialect::ir_to_pattern(&artifacts.regex_ir_optimized), "th(is|at)");
    }

    #[test]
    fn artifacts_capture_all_stages() {
        let artifacts = Compiler::new().compile_with_artifacts("ab|cd").unwrap();
        assert_eq!(regex_dialect::ir_to_pattern(&artifacts.regex_ir_initial), "ab|cd");
        assert!(artifacts.regex_ir_initial.is(regex_dialect::names::ROOT));
        assert!(artifacts.cicero_ir_initial.is(cicero_dialect::names::PROGRAM));
        assert!(
            artifacts.cicero_ir_optimized.only_region().len()
                <= artifacts.cicero_ir_initial.only_region().len()
        );
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(compile("("), Err(CompileError::Parse(_))));
    }

    #[test]
    fn pass_report_covers_both_pipelines() {
        let compiled = compile("ab|cd").unwrap();
        let names: Vec<_> = compiled.pass_report().passes.iter().map(|p| p.name).collect();
        assert!(names.contains(&"regex-canonicalize"), "{names:?}");
        assert!(names.contains(&"cicero-jump-simplification"), "{names:?}");
        let table = compiled.pass_report().to_string();
        assert!(table.contains("time (us)"), "{table}");
        assert!(table.contains("total"), "{table}");
    }

    #[test]
    fn telemetry_records_compiler_counters_and_gauges() {
        let telemetry = Telemetry::new();
        let compiler = Compiler::new().with_telemetry(telemetry.clone());
        let compiled = compiler.compile("ab|cd").unwrap();
        assert!(compiler.compile("(").is_err());
        assert_eq!(telemetry.counter("compiler.compilations"), 2);
        assert_eq!(
            telemetry.counter("compiler.passes_run") as usize,
            compiled.pass_report().passes.len()
        );
        assert_eq!(telemetry.counter("compiler.passes_failed"), 0);
        assert_eq!(telemetry.gauge("compiler.code_size"), Some(compiled.code_size() as f64));
        assert_eq!(telemetry.gauge("compiler.d_offset"), Some(compiled.d_offset() as f64));
    }

    #[test]
    fn a_rejected_set_counts_its_member_passes_and_no_failed_pass() {
        // Every pass of a single compile but the one low-level pass.
        let high = compile("xyz").unwrap().pass_report().passes.len() - 1;
        let telemetry = Telemetry::new();
        let compiler = Compiler::new().with_telemetry(telemetry.clone());
        assert!(compiler.compile_set(&["^abc", "xyz"]).is_err());
        assert_eq!(telemetry.counter("compiler.compilations"), 1);
        assert_eq!(telemetry.counter("compiler.passes_run") as usize, 2 * high);
        assert_eq!(telemetry.counter("compiler.passes_failed"), 0);
        assert_eq!(telemetry.gauge("compiler.code_size"), None);
    }

    #[test]
    fn telemetry_is_optional_and_absent_by_default() {
        let telemetry = Telemetry::new();
        Compiler::new().compile("ab").unwrap();
        Compiler::new().with_telemetry(telemetry.clone()).compile("ab").unwrap();
        assert_eq!(telemetry.counter("compiler.compilations"), 1);
    }

    #[test]
    fn differential_against_oracle_on_random_patterns() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51CE80);
        let compilers = [Compiler::with_options(CompilerOptions::unoptimized()), Compiler::new()];
        let mut tested = 0;
        while tested < 120 {
            let pattern = random_pattern(&mut rng);
            let Ok(oracle) = regex_oracle::Oracle::new(&pattern) else { continue };
            tested += 1;
            let programs: Vec<_> = compilers
                .iter()
                .map(|c| c.compile(&pattern).unwrap_or_else(|e| panic!("{pattern:?}: {e}")))
                .collect();
            for _ in 0..30 {
                let len = rng.random_range(0..20);
                let input: Vec<u8> = (0..len).map(|_| rng.random_range(b'a'..=b'f')).collect();
                let expected = oracle.is_match(&input);
                for (c, compiled) in programs.iter().enumerate() {
                    assert_eq!(
                        cicero_isa::accepts(compiled.program(), &input),
                        expected,
                        "compiler {c} on {pattern:?} with input {:?}",
                        String::from_utf8_lossy(&input)
                    );
                }
            }
        }
    }

    fn random_pattern(rng: &mut rand::rngs::StdRng) -> String {
        use rand::RngExt;
        let mut out = String::new();
        let alts = rng.random_range(1..=3);
        for i in 0..alts {
            if i > 0 {
                out.push('|');
            }
            for _ in 0..rng.random_range(1..=4) {
                match rng.random_range(0..8) {
                    0 => out.push('.'),
                    1 => {
                        out.push('[');
                        if rng.random_bool(0.4) {
                            out.push('^');
                        }
                        for _ in 0..rng.random_range(1..=3) {
                            out.push(rng.random_range(b'a'..=b'e') as char);
                        }
                        out.push(']');
                    }
                    2 => {
                        out.push('(');
                        out.push(rng.random_range(b'a'..=b'e') as char);
                        out.push('|');
                        out.push(rng.random_range(b'a'..=b'e') as char);
                        out.push(')');
                    }
                    _ => out.push(rng.random_range(b'a'..=b'e') as char),
                }
                match rng.random_range(0..6) {
                    0 => out.push('*'),
                    1 => out.push('+'),
                    2 => out.push('?'),
                    3 => out.push_str(&format!(
                        "{{{},{}}}",
                        rng.random_range(0..2),
                        rng.random_range(2..4)
                    )),
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod compile_set_tests {
    use super::*;

    #[test]
    fn multi_match_reports_ids_end_to_end() {
        let set = Compiler::new().compile_set(&["GET /", "POST /", r"\.\./\.\./"]).unwrap();
        assert_eq!(set.len(), 3);
        let out = cicero_isa::run(set.program(), b"xx POST /api yy");
        assert!(out.accepted);
        assert_eq!(out.matched_id, Some(1));
        assert_eq!(set.pattern(1), Some("POST /"));
        assert!(!cicero_isa::run(set.program(), b"clean payload").accepted);
    }

    #[test]
    fn set_verdict_equals_disjunction_of_singles() {
        let patterns = ["ab+c", "x[yz]", "qq"];
        let set = Compiler::new().compile_set(&patterns).unwrap();
        let singles: Vec<Program> =
            patterns.iter().map(|p| compile(p).unwrap().into_program()).collect();
        let inputs: [&[u8]; 6] = [b"abbbc", b"xz", b"qq", b"none", b"", b"abxq"];
        for input in inputs {
            let expected = singles.iter().any(|p| cicero_isa::accepts(p, input));
            let out = cicero_isa::run(set.program(), input);
            assert_eq!(out.accepted, expected, "{:?}", String::from_utf8_lossy(input));
            if let Some(id) = out.matched_id {
                // The reported pattern must genuinely match.
                assert!(
                    cicero_isa::accepts(&singles[usize::from(id)], input),
                    "reported id {id} does not match"
                );
            }
        }
    }

    #[test]
    fn a_set_runs_the_front_end_per_member_and_the_back_end_once() {
        let patterns = ["GET /", "POST /", "ab+c", "x[yz]"];
        let set = Compiler::new().compile_set(&patterns).unwrap();
        let single = compile("ab+c").unwrap();
        let runs = |report: &PipelineReport, name: &str| {
            report.passes.iter().filter(|p| p.name == name).count()
        };
        for pass in &single.pass_report().passes {
            // High-level passes run once per member, low-level ones once.
            let copies = if pass.name.starts_with("regex-") { patterns.len() } else { 1 };
            let expected = copies * runs(single.pass_report(), pass.name);
            assert_eq!(runs(set.pass_report(), pass.name), expected, "{}", pass.name);
        }
        assert_eq!(runs(set.pass_report(), "cicero-jump-simplification"), 1);
    }

    #[test]
    fn anchored_patterns_rejected_in_sets() {
        let err = Compiler::new().compile_set(&["^abc", "xyz"]).unwrap_err();
        assert!(matches!(err, CompileError::Lowering(_)), "{err:?}");
        assert!(err.to_string().starts_with("lowering error: "), "{err}");
    }

    #[test]
    fn empty_sets_are_rejected_with_a_clear_error() {
        let err = Compiler::new().compile_set::<&str>(&[]).unwrap_err();
        assert!(matches!(err, CompileError::EmptySet));
        assert!(err.to_string().contains("empty pattern set"), "{err}");
    }

    #[test]
    fn duplicate_patterns_keep_distinct_ids() {
        let set = Compiler::new().compile_set(&["ab", "cd", "ab"]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.pattern(0), Some("ab"));
        assert_eq!(set.pattern(2), Some("ab"));
        // Both copies accept independently: an exhaustive execution sees
        // ids 0 and 2 fire on the same input.
        let all = cicero_isa::run_all(set.program(), b"xxabyy");
        assert_eq!(all.matched_ids, vec![0, 2]);
        let all = cicero_isa::run_all(set.program(), b"abcd");
        assert_eq!(all.matched_ids, vec![0, 1, 2]);
    }

    #[test]
    fn run_all_reports_every_matching_set_member() {
        let patterns = ["GET /", "POST /", "ab+c"];
        let set = Compiler::new().compile_set(&patterns).unwrap();
        let all = cicero_isa::run_all(set.program(), b"GET /abc POST /x");
        assert_eq!(all.matched_ids, vec![0, 1, 2]);
        // The halting path reports only the hardware's first acceptance.
        let one = cicero_isa::run(set.program(), b"GET /abc POST /x");
        assert_eq!(one.matched_id, Some(0));
        assert!(cicero_isa::run_all(set.program(), b"nothing").matched_ids.is_empty());
    }
}
