//! Compiler explorer: dump every intermediate representation of the
//! multi-dialect pipeline for a pattern, and contrast the three
//! optimization outcomes of the paper's Listing 2.
//!
//! ```sh
//! cargo run --example compiler_explorer -- 'th(is|at|ose)'
//! ```

use cicero::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pattern = std::env::args().nth(1).unwrap_or_else(|| "ab|cd".to_owned());

    let compiler = Compiler::new();
    let artifacts = compiler.compile_with_artifacts(&pattern)?;

    println!("== pattern =========================================================");
    println!("{pattern}\n");

    println!("== regex dialect (after AST conversion) ============================");
    print!("{}", artifacts.regex_ir_initial.to_text());

    println!("\n== regex dialect (after canonicalize/factorize/shortest-match) ====");
    print!("{}", artifacts.regex_ir_optimized.to_text());
    println!(
        "\n   as a pattern: {}",
        cicero::regex_dialect::ir_to_pattern(&artifacts.regex_ir_optimized)
    );

    println!("\n== cicero dialect (after lowering) =================================");
    print!("{}", artifacts.cicero_ir_initial.to_text());

    println!("\n== cicero dialect (after Jump Simplification) ======================");
    print!("{}", artifacts.cicero_ir_optimized.to_text());

    println!("\n== final assembly ==================================================");
    print!("{}", artifacts.compiled.program().to_asm());
    println!(
        "\ncode size {} instructions, D_offset {}",
        artifacts.compiled.code_size(),
        artifacts.compiled.d_offset()
    );

    println!("\n== Listing-2-style comparison ======================================");
    let unopt = Compiler::with_options(CompilerOptions::unoptimized()).compile(&pattern)?;
    let old = LegacyCompiler::new(true).compile(&pattern)?;
    println!("{:<28} {:>10} {:>10}", "", "code size", "D_offset");
    println!("{:<28} {:>10} {:>10}", "no optimization", unopt.code_size(), unopt.d_offset());
    println!("{:<28} {:>10} {:>10}", "old: Code Restructuring", old.len(), old.total_jump_offset());
    println!(
        "{:<28} {:>10} {:>10}",
        "new: Jump Simplification",
        artifacts.compiled.code_size(),
        artifacts.compiled.d_offset()
    );

    println!("\n== per-pass timing =================================================");
    print!("{}", artifacts.compiled.pass_report());
    println!("\npasses ran in {:?}", artifacts.compiled.pass_report().total_duration());
    Ok(())
}
