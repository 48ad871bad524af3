//! IR-level fuzz smoke (MLIR-Smith style): randomly generated
//! *well-formed* `cicero`-dialect modules, checked for the invariants
//! that hold by construction of the dialect:
//!
//! 1. the dialect verifier accepts every generated module;
//! 2. the textual printer/parser round-trips it losslessly;
//! 3. codegen produces a valid ISA program (address space permitting),
//!    and the host-native lowering of that program agrees with the
//!    functional interpreter on verdict and earliest match end over
//!    random inputs.
//!
//! Unlike the pattern-level property loops (which fuzz *patterns*), this
//! generator builds IR directly, so it reaches module shapes the regex
//! front-end never emits — jump chains into splits, `not_match` runs,
//! interleaved `accept_partial_id` islands — exactly the shapes a later
//! IR-producing tool could create.
//!
//! Seedable and bounded for CI: `CICERO_IR_FUZZ_SEED` (default 42) and
//! `CICERO_IR_FUZZ_ITERS` (default 200) control the run.

use cicero::hostexec::HostProgram;
use cicero_dialect::ops;
use mlir_lite::{Context, Operation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One random well-formed `cicero.program`: every op optionally labeled
/// (labels are unique by construction), every `split`/`jump` targeting a
/// defined label, and a terminator the ISA accepts in final position.
fn random_module(rng: &mut StdRng) -> Operation {
    let len = rng.random_range(3..40usize);
    let mut body: Vec<Operation> = Vec::with_capacity(len);
    for index in 0..len {
        let last = index == len - 1;
        // The final op must be an acceptance or a jump (the ISA's
        // falls-off-end rule); earlier ops draw from the full set.
        let kind = if last { rng.random_range(6..9u32) } else { rng.random_range(0..9u32) };
        let op = match kind {
            0 => ops::match_any(),
            1 | 2 => ops::match_char(b'a' + rng.random_range(0..4u32) as u8),
            3 => ops::not_match_char(b'a' + rng.random_range(0..4u32) as u8),
            4 => ops::split(format!("L{}", rng.random_range(0..len))),
            5 => ops::jump(format!("L{}", rng.random_range(0..len))),
            6 => ops::accept(),
            7 => ops::accept_partial(),
            _ => ops::accept_partial_id(rng.random_range(0..8u32) as u16),
        };
        // Label roughly half the ops; every op is a viable branch
        // target, so targets are drawn from all indices and the missing
        // labels are added below.
        body.push(if rng.random_bool(0.5) {
            op.with_attr(ops::attrs::SYM_NAME, format!("L{index}").as_str())
        } else {
            op
        });
    }
    // Ensure every referenced label is actually defined: collect the
    // targets, then label the ops they point at.
    let referenced: Vec<usize> = body
        .iter()
        .filter_map(ops::branch_target)
        .filter_map(|t| t.strip_prefix('L').and_then(|n| n.parse().ok()))
        .collect();
    for index in referenced {
        if ops::sym_name(&body[index]).is_none() {
            let op =
                body[index].clone().with_attr(ops::attrs::SYM_NAME, format!("L{index}").as_str());
            body[index] = op;
        }
    }
    ops::program(body)
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
            let input: Vec<u8> = (0..rng.random_range(0..24usize))
                .map(|_| b'a' + rng.random_range(0..5u32) as u8)
                .collect();
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
