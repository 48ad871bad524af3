//! Quickstart: compile a regex with the multi-dialect compiler and run it
//! on the proposed 16-core Cicero engine.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cicero::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile. The pipeline parses the pattern, builds high-level
    //    `regex` dialect IR, runs the algebraic + shortest-match
    //    transformations, lowers to the `cicero` dialect, applies Jump
    //    Simplification, and emits Cicero ISA code.
    let pattern = "(GET|POST) /api/[a-z]+";
    let compiled = Compiler::new().compile(pattern)?;
    println!("pattern   : {pattern}");
    println!("code size : {} instructions", compiled.code_size());
    println!("D_offset  : {} (code-locality proxy; lower is better)", compiled.d_offset());
    println!("passes ran in {:?}\n", compiled.pass_report().total_duration());

    // 2. Inspect the generated assembly.
    println!("assembly:\n{}", compiled.program().to_asm());

    // 3. Execute on the cycle-level simulator: NEW 16x1 CORES is the
    //    paper's best configuration.
    let config = ArchConfig::new_organization(16, 1);
    let requests = [
        &b"GET /api/users HTTP/1.1"[..],
        b"POST /api/login HTTP/1.1",
        b"DELETE /api/users/7 HTTP/1.1",
    ];
    for request in requests {
        let report = simulate(compiled.program(), request, &config);
        println!(
            "{:<32} -> {:<9} in {:>5} cycles ({:.2} us at {} MHz)",
            String::from_utf8_lossy(request),
            if report.accepted { "MATCH" } else { "no match" },
            report.cycles,
            report.time_us(config.clock_mhz()),
            config.clock_mhz(),
        );
    }

    // 4. Cross-check with the reference Pike-VM oracle.
    let oracle = Oracle::new(pattern)?;
    for request in requests {
        let report = simulate(compiled.program(), request, &config);
        assert_eq!(report.accepted, oracle.is_match(request));
    }
    println!("\nverdicts agree with the reference Pike VM");
    Ok(())
}
