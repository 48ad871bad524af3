//! Criterion micro-benchmarks of the compiler pipelines (statistical
//! backing for the Figure 9 comparisons).

use cicero_core::{Compiler, CompilerOptions};
use cicero_isa::Program;
use cicero_legacy::LegacyCompiler;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// One compiler setting, as a pattern-to-program function.
type Compile = Box<dyn Fn(&str) -> Program>;

fn representative_patterns() -> Vec<String> {
    workloads::Benchmark::all(cicero_bench::SEED, 4, 1)
        .into_iter()
        .flat_map(|b| b.patterns)
        .collect()
}

fn bench_compilers(c: &mut Criterion) {
    let patterns = representative_patterns();
    let mut group = c.benchmark_group("compile_16_patterns");
    group.sample_size(20);
    let new = |options| {
        let compiler = Compiler::with_options(options);
        move |p: &str| compiler.compile(p).unwrap().into_program()
    };
    let old = |optimize| {
        let compiler = LegacyCompiler::new(optimize);
        move |p: &str| compiler.compile(p).unwrap()
    };
    let compilers: [(&str, Compile); 4] = [
        ("new_optimized", Box::new(new(CompilerOptions::optimized()))),
        ("new_unoptimized", Box::new(new(CompilerOptions::unoptimized()))),
        ("old_optimized", Box::new(old(true))),
        ("old_unoptimized", Box::new(old(false))),
    ];
    for (name, compile) in compilers {
        group.bench_function(name, |b| {
            b.iter_batched(
                || patterns.clone(),
                |patterns| {
                    for p in &patterns {
                        std::hint::black_box(compile(p));
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let program = cicero_core::compile("[ab][bc][cd][de][ef][fg]").unwrap().into_program();
    let input: Vec<u8> = b"abcde".iter().cycle().take(500).copied().collect();
    let mut group = c.benchmark_group("simulate_500B_chunk");
    group.sample_size(30);
    for config in [
        cicero_sim::ArchConfig::old_organization(1),
        cicero_sim::ArchConfig::old_organization(9),
        cicero_sim::ArchConfig::new_organization(16, 1),
    ] {
        group.bench_function(config.name(), |b| {
            b.iter(|| std::hint::black_box(cicero_sim::simulate(&program, &input, &config)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compilers, bench_simulator);
criterion_main!(benches);
