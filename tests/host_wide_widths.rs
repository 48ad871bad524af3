//! The multi-word host engine on every mask width its step is compiled
//! for ([`WIDE_MASK_WORDS`]): long bounded gaps (`a.{k}b`) sized to land
//! on each width, and PROTOMATA signature sets of 16 to 128 members,
//! lowered through `HostProgram::every_engine` and held on seeded inputs
//! to the interpreter fallback — `run`, `run_all`, and the chunked
//! matcher on 1-byte and seeded splits. An automaton over
//! [`MAX_WIDE_STATES`] must land on the interpreter and agree with the
//! reference run, and the largest `compile_set` programs the ISA admits
//! must lower under that cap.

use cicero_hostexec::{run_chunked, EngineKind, HostProgram, MAX_WIDE_STATES, WIDE_MASK_WORDS};
use cicero_isa::{Instruction, Program};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The width a multi-word engine of `states` states steps.
fn width_of(states: usize) -> usize {
    *WIDE_MASK_WORDS.iter().find(|&&words| words * 64 >= states).expect("under the cap")
}

/// Hold `host` to `reference` (the same program's interpreter fallback)
/// on `input`: whole-input `run` and `run_all`, and the chunked matcher
/// on 1-byte chunks and on seeded chunk sizes.
fn assert_agrees(host: &HostProgram, reference: &HostProgram, input: &[u8], rng: &mut StdRng) {
    let what = format!("{} words, {} input bytes", host.mask_words(), input.len());
    let want = reference.run(input);
    assert_eq!(host.run(input), want, "run, {what}");
    assert_eq!(host.run_all(input), reference.run_all(input), "run_all, {what}");
    assert_eq!(run_chunked(host, input.chunks(1)), want, "1-byte chunks, {what}");
    let mut chunks = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.random_range(1..=rest.len().min(700)));
        chunks.push(chunk);
        rest = tail;
    }
    assert_eq!(run_chunked(host, chunks), want, "seeded chunks, {what}");
}

/// Lower `program` onto every engine, check that its multi-word engine
/// steps `width_of(states)` words, and hold that engine to the
/// interpreter fallback on `inputs`. Returns the width.
fn assert_lands_and_agrees(program: &Program, inputs: &[Vec<u8>], rng: &mut StdRng) -> usize {
    let engines = HostProgram::every_engine(program);
    let wide = engines.iter().find(|host| host.engine_kind() == EngineKind::BitWide);
    let wide = wide.expect("the program lowers onto the multi-word engine");
    let interp = engines.last().expect("the interpreter fallback is always built");
    assert_eq!(interp.engine_kind(), EngineKind::Interp);
    let words = wide.mask_words();
    assert_eq!(words, width_of(wide.state_count()), "{} states", wide.state_count());
    for input in inputs {
        assert_agrees(wide, interp, input, rng);
    }
    words
}

/// `a.{gap}b`, spelled in ISA instructions (the compiler's own
/// spelling, minus its recursion depth on a long gap): an unanchored scan
/// loop, `a`, `gap` × `MatchAny`, `b`. Its automaton has `gap` plus a
/// fixed few states.
fn gap_program(gap: usize) -> Option<Program> {
    use Instruction::*;
    let mut instructions = vec![Split(3), MatchAny, Jump(0), Match(b'a')];
    instructions.extend(std::iter::repeat_n(MatchAny, gap));
    instructions.extend([Match(b'b'), AcceptPartial]);
    Program::from_instructions(instructions).ok()
}

#[test]
fn a_long_gap_lands_on_every_width_and_agrees() {
    let mut rng = StdRng::seed_from_u64(0xA_61DE);
    let states_of = |gap| HostProgram::compile(&gap_program(gap).unwrap()).state_count();
    let fixed = states_of(200) - 200;
    let mut widths = Vec::new();
    let mut narrower = 0;
    for &words in WIDE_MASK_WORDS {
        // One state over the narrower width, and the width's last state
        // (unless the program would outgrow the ISA's address space).
        for states in [narrower * 64 + 1, words * 64] {
            let Some(program) = states.checked_sub(fixed).and_then(gap_program) else {
                continue;
            };
            assert_eq!(states_of(states - fixed), states);
            // Hits, when a `b` follows an `a` at the gap's distance, and
            // a haystack with no `b`, where every window stays open to
            // the end; `a` is rare enough that few are open at once.
            let mut inputs = vec![Vec::new()];
            for (len, b) in [(states / 2, true), (2 * states + 100, true), (states + 64, false)] {
                inputs.push(
                    (0..len)
                        .map(|_| match rng.random_range(0..16u8) {
                            0 => b'a',
                            1..=6 if b => b'b',
                            _ => b'x',
                        })
                        .collect(),
                );
            }
            widths.push(assert_lands_and_agrees(&program, &inputs, &mut rng));
        }
        narrower = words;
    }
    widths.dedup();
    assert_eq!(widths, WIDE_MASK_WORDS, "every width must be stepped");
}

#[test]
fn signature_sets_agree_on_their_widths() {
    // The served sets' shape past the served size: bounded gaps and
    // classes, every member's identifier in `run_all`, on the suite's
    // seeded chunks.
    let mut rng = StdRng::seed_from_u64(0x5167);
    let mut widths = Vec::new();
    for members in [16, 32, 48, 64, 96, 128] {
        let bench = workloads::Benchmark::protomata(workloads::SEED, members, 8);
        let set = cicero_core::Compiler::new().compile_set(&bench.patterns).unwrap();
        let inputs: Vec<Vec<u8>> = bench.chunks.iter().map(|chunk| chunk.to_vec()).collect();
        widths.push(assert_lands_and_agrees(set.program(), &inputs, &mut rng));
    }
    assert!(widths.windows(2).all(|pair| pair[0] < pair[1]), "{widths:?}");
}

/// `sources` members and one fan of `branches` tails they all jump into:
/// member `s` matches byte `s` and excludes it again from the next byte
/// (`NotMatch(s)`), tail `t` excludes byte `255 - t` and then takes any
/// byte, a `!`, and accepts with identifier `t`. Each member reaches each
/// tail's `MatchAny` under its own predicate (all bytes but `s` and
/// `255 - t`), so the automaton has `sources × branches` states from
/// four instructions per member and five per tail.
fn fan_program(sources: u8, branches: u8) -> Program {
    use Instruction::*;
    let mut instructions = vec![Split(3), MatchAny, Jump(0)];
    let tails = 3 + 4 * usize::from(sources) - 1;
    for source in 0..sources {
        if source + 1 < sources {
            instructions.push(Split(instructions.len() as u16 + 4));
        }
        instructions.extend([Match(source), NotMatch(source), Jump(tails as u16)]);
    }
    assert_eq!(instructions.len(), tails);
    for tail in 0..branches {
        if tail + 1 < branches {
            instructions.push(Split(instructions.len() as u16 + 5));
        }
        let excluded = 255 - tail;
        instructions.extend([
            NotMatch(excluded),
            MatchAny,
            Match(b'!'),
            AcceptPartialId(tail.into()),
        ]);
    }
    Program::from_instructions(instructions).unwrap()
}

#[test]
fn an_automaton_over_the_cap_runs_on_the_interpreter() {
    // Under the cap the fan lands on the multi-word engine; with 16,384
    // tail states it is over the cap (it lowers, to 16,642 states, within
    // the closure budget) and lands on the interpreter. Both agree with
    // the reference.
    let mut rng = StdRng::seed_from_u64(0xCA9);
    let inputs = |rng: &mut StdRng| -> Vec<Vec<u8>> {
        [0, 1, 3, 64, 600]
            .map(|len| {
                let draw = |rng: &mut StdRng| match rng.random_range(0..4u8) {
                    0 => b'!',
                    _ => rng.random_range(0..=255u8),
                };
                (0..len).map(|_| draw(rng)).collect()
            })
            .to_vec()
    };
    let under = fan_program(64, 64);
    let host = HostProgram::compile(&under);
    assert_eq!(host.engine_kind(), EngineKind::BitWide);
    assert!(host.state_count() > 64 * 64, "{} states", host.state_count());
    assert_lands_and_agrees(&under, &inputs(&mut rng), &mut rng);

    let over = fan_program(128, 128);
    let kinds: Vec<EngineKind> =
        HostProgram::every_engine(&over).iter().map(HostProgram::engine_kind).collect();
    assert_eq!(kinds, [EngineKind::Interp], "over {MAX_WIDE_STATES} states");
    let host = HostProgram::compile(&over);
    assert_eq!(host.engine_kind(), EngineKind::Interp);
    for input in inputs(&mut rng) {
        let want = cicero_isa::run(&over, &input);
        let got = host.run(&input);
        assert_eq!(got.accepted, want.accepted, "{input:?}");
        assert_eq!(got.match_position, want.match_position, "{input:?}");
        assert_eq!(got.matched_id, want.matched_id, "{input:?}");
        let want_all = cicero_isa::run_all(&over, &input);
        assert_eq!(host.run_all(&input).matched_ids, want_all.matched_ids, "{input:?}");
        assert_eq!(run_chunked(&host, input.chunks(7)), got, "{input:?}");
    }
}

#[test]
fn the_largest_admitted_programs_lower_under_the_cap() {
    // The most 1,000-byte gap members and the most PROTOMATA signatures
    // that one `compile_set` program holds: each fills most of the ISA's
    // address space and lowers onto the multi-word engine, under the cap.
    let largest = |fits: &dyn Fn(usize) -> bool, mut low: usize, mut high: usize| {
        // `fits(low)` holds and `fits(high)` does not.
        while high - low > 1 {
            let mid = (low + high) / 2;
            if fits(mid) {
                low = mid;
            } else {
                high = mid;
            }
        }
        low
    };
    let gaps = |members: usize| {
        let patterns: Vec<String> =
            (0..members).map(|m| format!("{}.{{1000}}!", char::from(b'A' + m as u8))).collect();
        cicero_core::Compiler::new().compile_set(&patterns).ok()
    };
    let gap_members = largest(&|members| gaps(members).is_some(), 1, 26);
    let signatures = |members: usize| {
        let bench = workloads::Benchmark::protomata(workloads::SEED, members, 1);
        cicero_core::Compiler::new().compile_set(&bench.patterns).ok()
    };
    let members = largest(&|members| signatures(members).is_some(), 16, 1024);
    for set in [gaps(gap_members).unwrap(), signatures(members).unwrap()] {
        let program = set.program();
        assert!(program.len() > 4096, "{} instructions", program.len());
        let host = HostProgram::compile(program);
        assert_eq!(host.engine_kind(), EngineKind::BitWide, "{} instructions", program.len());
        assert!(host.state_count() <= MAX_WIDE_STATES, "{} states", host.state_count());
        assert!(host.state_count() <= program.len(), "{} states", host.state_count());
        assert_eq!(host.mask_words(), width_of(host.state_count()));
    }
}
