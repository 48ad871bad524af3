//! Property-based tests over random patterns and inputs.
//!
//! The pattern strategy generates only the supported grammar; inputs are
//! drawn over a small alphabet that overlaps the patterns', so matches
//! actually occur. Each property is the load-bearing invariant of one
//! pipeline stage.

use proptest::prelude::*;

/// Strategy: a random supported pattern (as text).
fn pattern_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        4 => prop::char::range('a', 'e').prop_map(|c| c.to_string()),
        1 => Just(".".to_owned()),
        1 => prop::collection::vec(prop::char::range('a', 'f'), 1..4).prop_map(|cs| {
            let mut s = String::from("[");
            let negate = cs.len() == 3; // mix in some negated classes
            if negate {
                s.push('^');
            }
            for c in cs {
                s.push(c);
            }
            s.push(']');
            s
        }),
    ];
    let quantified = (
        atom,
        prop_oneof![
            5 => Just(String::new()),
            1 => Just("*".to_owned()),
            1 => Just("+".to_owned()),
            1 => Just("?".to_owned()),
            1 => (0u32..3, 1u32..3).prop_map(|(lo, extra)| format!("{{{lo},{}}}", lo + extra)),
        ],
    )
        .prop_map(|(a, q)| format!("{a}{q}"));
    let concat = prop::collection::vec(quantified, 1..5).prop_map(|ps| ps.concat());
    let alternation = prop::collection::vec(concat, 1..4).prop_map(|cs| cs.join("|"));
    // One level of grouping.
    let grouped =
        (alternation.clone(), prop::bool::ANY).prop_map(
            |(a, wrap)| {
                if wrap {
                    format!("x({a})y")
                } else {
                    a
                }
            },
        );
    grouped.prop_filter("pattern must parse", |p| regex_frontend::parse(p).is_ok())
}

fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::num::u8::ANY.prop_map(|b| b'a' + b % 8), 0..30)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Both compilers, at both optimization levels, accept exactly the
    /// inputs the reference Pike VM accepts.
    #[test]
    fn compilers_match_oracle(pattern in pattern_strategy(), input in input_strategy()) {
        let oracle = regex_oracle::Oracle::new(&pattern).unwrap();
        let expected = oracle.is_match(&input);
        let new_opt = cicero_core::compile(&pattern).unwrap().into_program();
        let new_unopt = cicero_core::Compiler::with_options(
            cicero_core::CompilerOptions::unoptimized(),
        )
        .compile(&pattern)
        .unwrap()
        .into_program();
        let old_opt = cicero_legacy::LegacyCompiler::new(true).compile(&pattern).unwrap();
        let old_unopt = cicero_legacy::LegacyCompiler::new(false).compile(&pattern).unwrap();
        for (name, program) in [
            ("new O1", &new_opt),
            ("new O0", &new_unopt),
            ("old O1", &old_opt),
            ("old O0", &old_unopt),
        ] {
            prop_assert_eq!(
                cicero_isa::accepts(program, &input),
                expected,
                "{} disagreed on {:?} / {:?}",
                name,
                &pattern,
                String::from_utf8_lossy(&input)
            );
        }
    }

    /// The cycle-level simulator gives the interpreter's verdict on both
    /// organizations.
    #[test]
    fn simulator_matches_interpreter(pattern in pattern_strategy(), input in input_strategy()) {
        let program = cicero_core::compile(&pattern).unwrap().into_program();
        let expected = cicero_isa::accepts(&program, &input);
        for config in [
            cicero_sim::ArchConfig::old_organization(2),
            cicero_sim::ArchConfig::new_organization(8, 1),
        ] {
            let report = cicero_sim::simulate(&program, &input, &config);
            prop_assert!(!report.hit_cycle_limit);
            prop_assert_eq!(report.accepted, expected, "{}", config.name());
        }
    }

    /// Chunk-split invariance: feeding the input in arbitrary chunks to
    /// the resumable matchers gives byte-identical results to matching the
    /// whole input at once — for the functional interpreter and for the
    /// cycle-level simulator on both organizations.
    #[test]
    fn streaming_is_chunk_split_invariant(
        pattern in pattern_strategy(),
        input in input_strategy(),
        splits in prop::collection::vec(0usize..30, 0..6),
    ) {
        let program = cicero_core::compile(&pattern).unwrap().into_program();
        let chunks = cicero_difftest::apply_splits(&input, &splits);
        let whole = cicero_isa::run(&program, &input);
        let streamed = cicero_isa::run_chunked(&program, chunks.iter().map(Vec::as_slice));
        prop_assert_eq!(
            streamed,
            whole,
            "interpreter diverges on {:?} split at {:?}",
            &pattern,
            &splits
        );
        for config in [
            cicero_sim::ArchConfig::old_organization(2),
            cicero_sim::ArchConfig::new_organization(8, 1),
        ] {
            let whole = cicero_sim::simulate(&program, &input, &config);
            let streamed = cicero_sim::simulate_streaming(
                &program,
                chunks.iter().map(Vec::as_slice),
                &config,
            );
            prop_assert_eq!(
                streamed,
                whole,
                "simulator {} diverges on {:?} split at {:?}",
                config.name(),
                &pattern,
                &splits
            );
        }
    }

    /// Jump Simplification never increases code size: its rules only
    /// delete (jump-to-next, dead code) or replace in place (threading,
    /// acceptance duplication). `D_offset` improves in aggregate
    /// (Figure 10, checked by the fig10 bench) but not pointwise — jump
    /// threading can trade two short hops for one long one, e.g. on
    /// `x(a?|a*)y`.
    #[test]
    fn jump_simplification_never_grows_code(pattern in pattern_strategy()) {
        let unopt = cicero_core::Compiler::with_options(
            cicero_core::CompilerOptions::unoptimized(),
        )
        .compile(&pattern)
        .unwrap();
        let mut only_js = cicero_core::CompilerOptions::unoptimized();
        only_js.jump_simplification = true;
        let js = cicero_core::Compiler::with_options(only_js).compile(&pattern).unwrap();
        prop_assert!(js.code_size() <= unopt.code_size());
    }

    /// The compiled binary round-trips through the 16-bit wire encoding.
    #[test]
    fn binary_roundtrip(pattern in pattern_strategy()) {
        let program = cicero_core::compile(&pattern).unwrap().into_program();
        let bytes = cicero_isa::EncodedProgram::from_program(&program).to_bytes();
        let back = cicero_isa::EncodedProgram::from_bytes(&bytes).unwrap().decode().unwrap();
        prop_assert_eq!(back, program);
    }

    /// The mlir-lite textual printer/parser round-trips the regex IR.
    #[test]
    fn ir_text_roundtrip(pattern in pattern_strategy()) {
        let ast = regex_frontend::parse(&pattern).unwrap();
        let ir = regex_dialect::ast_to_ir(&ast);
        let reparsed = mlir_lite::parse(&ir.to_text()).unwrap();
        prop_assert_eq!(reparsed, ir);
    }

    /// `ir_to_ast` inverts `ast_to_ir` up to oracle equivalence.
    #[test]
    fn ast_ir_ast_equivalence(pattern in pattern_strategy(), input in input_strategy()) {
        let ast = regex_frontend::parse(&pattern).unwrap();
        let ir = regex_dialect::ast_to_ir(&ast);
        let back = regex_dialect::ir_to_ast(&ir);
        let a = regex_oracle::Oracle::from_ast(&ast);
        let b = regex_oracle::Oracle::from_ast(&back);
        prop_assert_eq!(a.is_match(&input), b.is_match(&input));
    }
}

/// Strategy: arbitrary *valid* ISA programs (not necessarily compiler
/// output) — stresses the simulator's semantics directly, including shapes
/// the compilers never emit (split chains into jumps, NotMatch loops…).
fn program_strategy() -> impl Strategy<Value = cicero_isa::Program> {
    use cicero_isa::Instruction;
    prop::collection::vec(0u8..7, 1..32).prop_flat_map(|kinds| {
        let len = kinds.len() + 1; // +1 for the forced terminator
        let targets = prop::collection::vec(0..len as u16, kinds.len());
        let chars =
            prop::collection::vec(prop::num::u8::ANY.prop_map(|b| b'a' + b % 4), kinds.len());
        (Just(kinds), targets, chars).prop_map(move |(kinds, targets, chars)| {
            let mut instructions: Vec<Instruction> = kinds
                .iter()
                .zip(&targets)
                .zip(&chars)
                .map(|((kind, target), c)| match kind {
                    0 => Instruction::MatchAny,
                    1 => Instruction::Match(*c),
                    2 => Instruction::NotMatch(*c),
                    3 => Instruction::Split(*target),
                    4 => Instruction::Jump(*target),
                    5 => Instruction::Accept,
                    _ => Instruction::AcceptPartialId(u16::from(*c)),
                })
                .collect();
            instructions.push(Instruction::AcceptPartial);
            cicero_isa::Program::from_instructions(instructions).expect("targets in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The cycle-level machine implements exactly the ISA interpreter's
    /// semantics for arbitrary valid programs, on both organizations.
    #[test]
    fn simulator_matches_interpreter_on_arbitrary_programs(
        program in program_strategy(),
        input in prop::collection::vec(prop::num::u8::ANY.prop_map(|b| b'a' + b % 4), 0..24),
    ) {
        let expected = cicero_isa::run(&program, &input);
        for config in [
            cicero_sim::ArchConfig::old_organization(1),
            cicero_sim::ArchConfig::old_organization(3),
            cicero_sim::ArchConfig::new_organization(4, 1),
            cicero_sim::ArchConfig::new_organization(8, 2),
        ] {
            let report = cicero_sim::simulate(&program, &input, &config);
            prop_assert!(!report.hit_cycle_limit, "{}", config.name());
            prop_assert_eq!(report.accepted, expected.accepted, "{}", config.name());
        }
    }

    /// The front-end never panics, whatever bytes it is fed.
    #[test]
    fn frontend_is_panic_free(pattern in "\\PC*") {
        let _ = regex_frontend::parse(&pattern);
    }

    /// Whenever the new front-end accepts a pattern, the legacy one agrees
    /// (and vice versa) — the compilers share one input language.
    #[test]
    fn frontends_accept_the_same_language(pattern in "[-a-e().|*+?{}\\[\\]^$\\\\0-9]{0,12}") {
        let new = regex_frontend::parse(&pattern).is_ok();
        let old = cicero_legacy::parser::parse(&pattern).is_ok();
        prop_assert_eq!(new, old, "pattern {:?}", &pattern);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The host-native backend gives the Pike-VM oracle's verdict *and*
    /// earliest match end over the full supported grammar, at both
    /// optimization levels — whichever engine tier (bit64 / bit128 /
    /// bit-wide) the program selects. The host engine is held to the
    /// oracle's single answer, not just any-match agreement.
    #[test]
    fn host_engine_matches_oracle(pattern in pattern_strategy(), input in input_strategy()) {
        let oracle = regex_oracle::Oracle::new(&pattern).unwrap();
        let want = oracle.is_match(&input);
        let want_end = oracle.match_end(&input);
        let opt = cicero_core::compile(&pattern).unwrap().into_program();
        let unopt = cicero_core::Compiler::with_options(
            cicero_core::CompilerOptions::unoptimized(),
        )
        .compile(&pattern)
        .unwrap()
        .into_program();
        for (level, program) in [("O2", &opt), ("O0", &unopt)] {
            let host = cicero::hostexec::HostProgram::compile(program);
            let outcome = host.run(&input);
            prop_assert_eq!(
                outcome.accepted,
                want,
                "host {} verdict diverged from oracle on {:?} / {:?} ({})",
                level,
                &pattern,
                String::from_utf8_lossy(&input),
                host.engine_kind()
            );
            prop_assert_eq!(
                outcome.match_position,
                want_end,
                "host {} match end diverged from oracle on {:?} / {:?} ({})",
                level,
                &pattern,
                String::from_utf8_lossy(&input),
                host.engine_kind()
            );
        }
    }

    /// On multi-pattern sets, the host engine's `run_all` reports the
    /// byte-identical per-pattern id set (and verdict) the interpreter
    /// reports — the invariant the server's `/scan` endpoint relies on
    /// when it swaps backends per request.
    #[test]
    fn host_run_all_matches_interpreter_on_sets(
        patterns in prop::collection::vec(pattern_strategy(), 1..4),
        input in input_strategy(),
    ) {
        let set = cicero_core::Compiler::new().compile_set(&patterns).unwrap();
        let program = set.program();
        let want = cicero_isa::run_all(program, &input);
        let host = cicero::hostexec::HostProgram::compile(program);
        let got = host.run_all(&input);
        prop_assert_eq!(
            got.first.accepted,
            want.accepted,
            "set verdict diverged on {:?} / {:?} ({})",
            &patterns,
            String::from_utf8_lossy(&input),
            host.engine_kind()
        );
        prop_assert_eq!(
            &got.matched_ids,
            &want.matched_ids,
            "per-pattern id sets diverged on {:?} / {:?} ({})",
            &patterns,
            String::from_utf8_lossy(&input),
            host.engine_kind()
        );
    }
}
