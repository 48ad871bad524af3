//! IR-level fuzz smoke (MLIR-Smith style): randomly generated
//! *well-formed* `cicero`-dialect modules, checked for the invariants
//! that hold by construction of the dialect:
//!
//! 1. the dialect verifier accepts every generated module;
//! 2. the textual printer/parser round-trips it losslessly;
//! 3. codegen produces a valid ISA program (address space permitting),
//!    and the host-native lowering of that program agrees with the
//!    functional interpreter on verdict and earliest match end over
//!    random inputs;
//! 4. Jump Simplification keeps the module verified, never grows its
//!    code, and keeps the interpreter's verdict and earliest match end on
//!    random inputs.
//!
//! Unlike the pattern-level property loops (which fuzz *patterns*), this
//! generator builds IR directly, so it reaches module shapes the regex
//! front-end never emits — cycles of jumps, splits into jump chains,
//! empty blocks, `not_match` runs, interleaved `accept_partial_id`
//! islands — exactly the shapes a later IR-producing tool could create.
//!
//! Seedable and bounded for CI: `CICERO_IR_FUZZ_SEED` (default 42) and
//! `CICERO_IR_FUZZ_ITERS` (default 200) control the run.

use cicero::hostexec::HostProgram;
use cicero_dialect::ops;
use mlir_lite::{Context, Operation, Region};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One random instruction op; a branch names one of `blocks` blocks.
fn random_op(rng: &mut StdRng, blocks: u32, kinds: std::ops::Range<u32>) -> Operation {
    match rng.random_range(kinds) {
        0 => ops::match_any(),
        1 | 2 => ops::match_char(b'a' + rng.random_range(0..4u32) as u8),
        3 => ops::not_match_char(b'a' + rng.random_range(0..4u32) as u8),
        4 => ops::split(rng.random_range(0..blocks)),
        5 => ops::jump(rng.random_range(0..blocks)),
        6 => ops::accept(),
        7 => ops::accept_partial(),
        _ => ops::accept_partial_id(rng.random_range(0..8u32) as u16),
    }
}

/// One random well-formed `cicero.program`: 1 to 8 blocks, every branch
/// naming one of them. A third of the blocks is a lone jump (chains and
/// cycles of jumps), some are empty, and the last op is one the ISA
/// accepts in final position.
fn random_module(rng: &mut StdRng) -> Operation {
    let blocks = rng.random_range(1..9u32);
    let body = (0..blocks).map(|block| {
        let last = block + 1 == blocks;
        if !last && rng.random_bool(0.3) {
            return vec![ops::jump(rng.random_range(0..blocks))];
        }
        let len = rng.random_range(if last { 1..8 } else { 0..8 });
        let mut ops: Vec<Operation> = (0..len).map(|_| random_op(rng, blocks, 0..9)).collect();
        if last {
            // The final op must be an acceptance or a jump (the ISA's
            // falls-off-end rule).
            *ops.last_mut().expect("non-empty") = random_op(rng, blocks, 5..9);
        }
        ops
    });
    ops::program(Region::from_blocks(body.collect::<Vec<_>>()))
}

/// A random input of `len` bytes over the modules' alphabet (`e` matches
/// nothing).
fn random_input(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| b'a' + rng.random_range(0..5u32) as u8).collect()
}

#[test]
fn random_wellformed_modules_verify_roundtrip_and_lower() {
    let seed = env_u64("CICERO_IR_FUZZ_SEED", 42);
    let iters = env_u64("CICERO_IR_FUZZ_ITERS", 200);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut context = Context::new();
    context.register_dialect(ops::dialect());

    for iter in 0..iters {
        let module = random_module(&mut rng);
        let label = || format!("seed {seed}, iter {iter}:\n{}", module.to_text());

        // 1. The generator only emits well-formed modules.
        context.verify(&module).unwrap_or_else(|e| panic!("verifier rejected {}: {e}", label()));

        // 2. Textual round-trip is the identity.
        let reparsed = mlir_lite::parse(&module.to_text())
            .unwrap_or_else(|e| panic!("printed module does not parse back ({e}): {}", label()));
        assert_eq!(reparsed, module, "print/parse round-trip diverged: {}", label());

        // 3. Codegen succeeds on verified IR, and the host lowering
        //    agrees with the interpreter on random byte soup.
        let program = cicero_dialect::codegen(&module)
            .unwrap_or_else(|e| panic!("codegen failed on verified IR ({e}): {}", label()));
        let host = HostProgram::compile(&program);
        for _ in 0..8 {
            let len = rng.random_range(0..24);
            let input = random_input(&mut rng, len);
            let interp = cicero_isa::run(&program, &input);
            let hosted = host.run(&input);
            assert_eq!(
                hosted.accepted,
                interp.accepted,
                "host verdict diverged on {input:?} ({}): {}",
                host.engine_kind(),
                label()
            );
            assert_eq!(
                hosted.match_position,
                interp.match_position,
                "host match end diverged on {input:?} ({}): {}",
                host.engine_kind(),
                label()
            );
        }
    }
}

#[test]
fn jump_simplification_keeps_outcomes_and_never_grows_code() {
    let seed = env_u64("CICERO_IR_FUZZ_SEED", 42);
    let iters = env_u64("CICERO_IR_FUZZ_ITERS", 200);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut context = Context::new();
    context.register_dialect(ops::dialect());

    for iter in 0..iters {
        let module = random_module(&mut rng);
        let mut simplified = module.clone();
        cicero_dialect::jump_simplify(&mut simplified);
        let label = || {
            format!("seed {seed}, iter {iter}:\n{}\nsimplified:\n{}", module.to_text(), simplified)
        };
        context
            .verify(&simplified)
            .unwrap_or_else(|e| panic!("simplified module does not verify ({e}): {}", label()));
        let before = cicero_dialect::codegen(&module).unwrap();
        let after = cicero_dialect::codegen(&simplified)
            .unwrap_or_else(|e| panic!("codegen failed after simplification ({e}): {}", label()));
        assert!(after.len() <= before.len(), "simplification grew the code: {}", label());
        // Short inputs too: an exact `accept` only fires at the input's end.
        for len in 0..32 {
            let input = random_input(&mut rng, len % 8 + len / 8 * 6);
            let (want, got) = (cicero_isa::run(&before, &input), cicero_isa::run(&after, &input));
            assert_eq!(got.accepted, want.accepted, "verdict on {input:?}: {}", label());
            assert_eq!(
                got.match_position,
                want.match_position,
                "match end on {input:?}: {}",
                label()
            );
        }
    }
}

/// The generator is deterministic for a fixed seed — the property CI
/// relies on to make failures reproducible from the printed seed.
#[test]
fn generator_is_deterministic_per_seed() {
    let mut a = StdRng::seed_from_u64(7);
    let mut b = StdRng::seed_from_u64(7);
    for _ in 0..10 {
        assert_eq!(random_module(&mut a), random_module(&mut b));
    }
    let mut c = StdRng::seed_from_u64(8);
    let differs = (0..10).any(|_| random_module(&mut a) != random_module(&mut c));
    assert!(differs, "different seeds should diverge");
}
