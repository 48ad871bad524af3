//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation (§6) is rendered by
//! the one `paper` bench target from one measured [`Grid`], next to the
//! paper's published values where the paper gives them numerically; the
//! paper's verdicts are the named predicates of [`claims`], which the bench
//! and `tests/paper_claims.rs` both gate on (see DESIGN.md's experiment
//! index).
//!
//! # Scale
//!
//! The paper runs 200 REs over 10 MB of input per suite (≈ 48 h of
//! wall-clock on their FPGA flow). Simulating that on every run is
//! impractical, so the harness scales with the `CICERO_BENCH_SCALE`
//! environment variable:
//!
//! | value                | patterns per suite | chunks (500 B each) |
//! |----------------------|--------------------|---------------------|
//! | `quick`              | 8                  | 2                   |
//! | `default` (or unset) | 16                 | 4                   |
//! | `full`               | 200                | 48                  |
//!
//! Relative results (who wins, by what factor) are stable across scales;
//! EXPERIMENTS.md records a default-scale run. The scales and the suites
//! live in `workloads` ([`Scale`], [`suites`]) and cells are scored by
//! [`cicero_sim::measure`], so `cicero tune`'s packs are the default-scale
//! suites, scored the same way.

use std::time::Instant;

use cicero_isa::Program;
use cicero_telemetry::{JsonObject, Value};
use workloads::Benchmark;

mod claims;
pub mod grid;

pub use claims::{claims, Claim};
pub use grid::{Compiler, Grid, ENERGY, TIME};
pub use workloads::{suites, Scale, SEED};

/// Read the scale from `CICERO_BENCH_SCALE` (see crate docs). A value that
/// is none of the three names ends the process: a typo must not pass a
/// default-scale figure off as a full-scale one.
pub fn scale_from_env() -> Scale {
    let Some(value) = std::env::var_os("CICERO_BENCH_SCALE") else {
        return Scale::DEFAULT;
    };
    scale_named(&value.to_string_lossy()).unwrap_or_else(|| {
        eprintln!("CICERO_BENCH_SCALE={value:?} is not one of: quick, default, full");
        std::process::exit(2);
    })
}

fn scale_named(name: &str) -> Option<Scale> {
    [Scale::QUICK, Scale::DEFAULT, Scale::FULL].into_iter().find(|scale| scale.name == name)
}

/// The one writer of `crates/bench/BENCH_<stem>.json`: a JSON object with
/// one top-level `"key": value` per line (CI greps those lines), opened by
/// the four fields every artifact carries — `bench`, `host_cpus`, `scale`,
/// `notes`. The path is derived, and a `quick`-scale run writes the
/// git-ignored `BENCH_<stem>_quick.json`, so a smoke run cannot overwrite
/// a committed artifact.
#[derive(Debug)]
pub struct Envelope {
    path: String,
    lines: Vec<String>,
}

impl Envelope {
    /// Start the artifact of bench target `bench` (its `[[bench]]` name).
    pub fn new(bench: &str, stem: &str, scale: Scale, notes: &str) -> Envelope {
        let suffix = if scale == Scale::QUICK { "_quick" } else { "" };
        let path = format!("{}/BENCH_{stem}{suffix}.json", env!("CARGO_MANIFEST_DIR"));
        let host_cpus =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        Envelope { path, lines: Vec::new() }
            .field("bench", bench)
            .field("host_cpus", host_cpus)
            .field("scale", scale.name)
            .field("notes", notes)
    }

    /// Add a top-level scalar.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Envelope {
        let mut line = format!("\"{key}\": ");
        value.into().write_to(&mut line);
        self.lines.push(line);
        self
    }

    /// Add a top-level array of objects, one row per line.
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = JsonObject>) -> Envelope {
        let rows: Vec<String> =
            rows.into_iter().map(|row| format!("    {}", row.finish())).collect();
        self.lines.push(format!("\"{key}\": [\n{}\n  ]", rows.join(",\n")));
        self
    }

    fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.lines.join(",\n  "))
    }

    /// Write the artifact to its derived path.
    pub fn write(self) {
        let path = &self.path;
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\n  results written to {path}");
    }
}

/// Round to `places` decimals, so exported floats stay readable.
pub fn rounded(x: f64, places: i32) -> f64 {
    let unit = 10f64.powi(places);
    (x * unit).round() / unit
}

/// One suite compiled every way the paper compares, with compile times.
#[derive(Debug)]
pub struct CompiledSuite {
    /// Suite name.
    pub name: &'static str,
    /// The input chunks.
    pub chunks: Vec<Vec<u8>>,
    /// New compiler, optimizations on.
    pub new_opt: Vec<Program>,
    /// New compiler, optimizations off.
    pub new_unopt: Vec<Program>,
    /// Old compiler, Code Restructuring on.
    pub old_opt: Vec<Program>,
    /// Old compiler, optimizations off.
    pub old_unopt: Vec<Program>,
    /// Total wall-clock compile seconds, same order as the fields above
    /// (the median over `compile_builds`).
    pub compile_seconds: [f64; 4],
    /// Every timed build's `compile_seconds`: one per
    /// [`CompiledSuite::build`], more after [`Grid::measure`](crate::Grid::measure).
    pub compile_builds: Vec<[f64; 4]>,
    /// The new compiler's one `compile_set` program for the whole suite
    /// (untimed); `None` when the set does not fit one program, as at
    /// `full` scale, where it overflows the ISA's 13-bit operands.
    pub set: Option<Program>,
}

impl CompiledSuite {
    /// Compile one suite with both compilers, both optimization settings,
    /// and as one set.
    pub fn build(bench: &Benchmark) -> CompiledSuite {
        let new_opt = cicero_core::Compiler::new();
        let new_unopt =
            cicero_core::Compiler::with_options(cicero_core::CompilerOptions::unoptimized());
        let [old_opt, old_unopt] = [true, false].map(cicero_legacy::LegacyCompiler::new);
        let mut compile_seconds = [0.0; 4];
        let mut timed = |k: usize, compile: &dyn Fn(&str) -> Program| {
            let start = Instant::now();
            let programs = bench.patterns.iter().map(|p| compile(p)).collect();
            compile_seconds[k] = start.elapsed().as_secs_f64();
            programs
        };
        let new = |compiler: &cicero_core::Compiler, p: &str| {
            compiler.compile(p).expect("suite compiles").into_program()
        };
        CompiledSuite {
            name: bench.name,
            chunks: bench.chunks.clone(),
            new_opt: timed(0, &|p| new(&new_opt, p)),
            new_unopt: timed(1, &|p| new(&new_unopt, p)),
            old_opt: timed(2, &|p| old_opt.compile(p).expect("suite compiles")),
            old_unopt: timed(3, &|p| old_unopt.compile(p).expect("suite compiles")),
            compile_seconds,
            compile_builds: vec![compile_seconds],
            set: new_opt.compile_set(&bench.patterns).ok().map(|set| set.program().clone()),
        }
    }
}

/// Simple aligned-table printer for bench output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Print as an aligned GitHub-markdown table, so a committed run's
    /// output pastes into the docs as is.
    pub fn print(&self) {
        let mut widths: Vec<usize> =
            self.headers.iter().map(|h| h.chars().count().max(3)).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            println!("| {} |", cols.join(" | "));
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// Print the standard bench header.
pub fn banner(id: &str, title: &str, scale: Scale) {
    println!();
    println!("=== {id}: {title} ===");
    println!(
        "    scale: {} patterns/suite, {} chunks of {} B  (set CICERO_BENCH_SCALE=quick|full)",
        scale.patterns,
        scale.chunks,
        workloads::CHUNK_BYTES
    );
    println!();
}

/// Paper-published reference values, for side-by-side printing.
pub mod paper {
    /// Table 2 / Table 5 energy per RE (W·µs): rows are
    /// `OLD 1x{1,4,9,16,32}`, columns PROTOMATA, BRILL, PROTOMATA4,
    /// BRILL4.
    pub const TABLE2: [[f64; 4]; 5] = [
        [39.08, 72.30, 147.74, 102.33],
        [24.62, 72.24, 49.52, 125.19],
        [24.94, 68.72, 40.27, 94.16],
        [27.23, 73.25, 43.58, 91.73],
        [39.20, 105.05, 61.66, 110.42],
    ];

    /// Table 5's NEW-organization rows (energy per RE, W·µs), in
    /// [`NEW_SHAPES`](crate::grid::NEW_SHAPES) order.
    pub const TABLE5_NEW: [[f64; 4]; 9] = [
        [22.65, 61.03, 35.35, 76.86],
        [26.03, 69.70, 39.23, 85.04],
        [30.84, 82.60, 45.52, 100.75],
        [38.14, 102.24, 55.22, 124.47],
        [24.54, 64.40, 28.54, 73.94],
        [32.96, 86.34, 37.39, 97.52],
        [54.47, 142.68, 60.32, 160.65],
        [31.90, 80.40, 34.54, 86.56],
        [57.98, 146.07, 61.83, 156.81],
    ];

    /// Figure 9 ratios the text quotes: old-compiler slowdown with
    /// optimizations per suite.
    pub const OLD_OPT_SLOWDOWN: [f64; 4] = [6.52, 2.10, 38.98, 2.24];
    /// New-compiler optimization overhead per suite.
    pub const NEW_OPT_OVERHEAD: [f64; 4] = [1.18, 1.14, 1.31, 1.45];
    /// New-compiler compile-time advantage without optimizations.
    pub const NEW_UNOPT_SPEEDUP: [f64; 4] = [5.11, 4.36, 7.10, 5.77];
    /// Figure 10 locality improvement of new over old (w/ opts).
    pub const LOCALITY_IMPROVEMENT: [f64; 4] = [10.53, 1.0, 11.27, 2.88];
    /// Figure 11 execution-time speedup of the new compiler on the old
    /// architecture (Protomata(4) / Brill(4)).
    pub const FIG11_SPEEDUP: [f64; 4] = [1.7, 1.2, 1.7, 1.2];
    /// Table 6: best-old vs best-new speedup and energy improvement on
    /// PROTOMATA4 / BRILL4 / overall average.
    pub const TABLE6_SPEEDUP: [f64; 3] = [2.27, 1.35, 1.48];
    /// Table 6 energy-efficiency improvements.
    pub const TABLE6_ENERGY: [f64; 3] = [2.30, 1.49, 1.56];

    /// Suite display order used by the arrays above.
    pub const SUITES: [&str; 4] = ["PROTOMATA", "BRILL", "PROTOMATA4", "BRILL4"];
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_exactly_its_three_names() {
        assert_eq!(scale_named("quick"), Some(Scale::QUICK));
        assert_eq!(scale_named("default"), Some(Scale::DEFAULT));
        assert_eq!(scale_named("full"), Some(Scale::FULL));
        assert_eq!(["fulll", "Quick", "", " full"].map(scale_named), [None; 4]);
    }

    #[test]
    fn envelope_stamps_its_header_and_keeps_one_top_level_key_per_line() {
        let envelope = Envelope::new("tune", "tune", Scale::QUICK, "say \"why\"")
            .field("space_points", 288usize)
            .rows("rows", [JsonObject::new().field("suite", "BRILL").field("mbps", 1.5)])
            .field("regressions", 0usize);
        let text = envelope.render();
        let host_cpus = text.lines().nth(2).expect("third line");
        assert!(host_cpus.starts_with("  \"host_cpus\": "), "{text}");
        let expected = [
            "{",
            "  \"bench\": \"tune\",",
            host_cpus,
            "  \"scale\": \"quick\",",
            "  \"notes\": \"say \\\"why\\\"\",",
            "  \"space_points\": 288,",
            "  \"rows\": [",
            "    {\"suite\":\"BRILL\",\"mbps\":1.5}",
            "  ],",
            "  \"regressions\": 0",
            "}",
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(envelope.path.ends_with("crates/bench/BENCH_tune_quick.json"));
        let committed = Envelope::new("sim_speed", "sim", Scale::DEFAULT, "");
        assert!(committed.path.ends_with("crates/bench/BENCH_sim.json"));
    }

    #[test]
    fn compiled_suite_builds_all_variants() {
        let bench = Benchmark::brill(SEED, 3, 1);
        let suite = CompiledSuite::build(&bench);
        assert_eq!(suite.new_opt.len(), 3);
        assert_eq!(suite.old_unopt.len(), 3);
        assert!(suite.compile_seconds.iter().all(|t| *t > 0.0));
    }

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(vec!["a", "value"]);
        t.row(vec!["x", "1.00"]);
        t.print(); // smoke: no panic
    }
}
