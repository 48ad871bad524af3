//! Host-native execution backend for `cicero` ISA programs.
//!
//! The cycle-level simulator is the *architecture oracle*: it answers
//! "what would the paper's hardware do, cycle by cycle". This crate
//! answers a different question — "what is the match result, as fast as
//! this CPU can produce it" — by lowering the same validated [`Program`]
//! one step further, onto the host:
//!
//! 1. **Epsilon elimination** (`nfa.rs`): `Split`/`Jump`/`NotMatch` paths
//!    are folded away into a byte-predicate NFA whose states are
//!    `(pc, predicate)` pairs, restoring the Glushkov property (every
//!    entry into a state agrees on its byte predicate).
//! 2. **Prefix factoring**: provably co-active states merge, folding the
//!    duplicated scan loops and shared literal prefixes of
//!    `compile_set` programs into one spine; sibling states (the members
//!    of a character class: same sources, successors and arms) merge
//!    into one state whose predicate is the union of theirs. States stay
//!    in program order.
//! 3. **Engine selection**: ≤ 64 states run bit-parallel in a `u64`
//!    (shift-or style, chunked follow tables, byte-class compressed);
//!    ≤ 128 states in a `u128`; larger automata — any realistic
//!    `compile_set` ruleset — run the same step over a multi-word mask
//!    (`wide.rs`), as a shift for chain edges, a carry for gap runs and
//!    sparse rows for the rest. A pathological program that blows the
//!    lowering budget falls back to the reference interpreter — slower,
//!    never wrong.
//! 4. **Prefilter** (`prefilter.rs`): a memchr-style skip loop extracted
//!    from the steady scan state, exact by construction.
//!
//! Semantics match [`cicero_isa::run`] / [`cicero_isa::run_all`]
//! observably: same verdict, same earliest match end, same identifier
//! set. The one documented deviation: [`HostOutcome::matched_id`]
//! resolves ties at the match position in favour of the lowest
//! identifier, where the interpreter reports whichever thread drains
//! first (single-pattern programs — where `matched_id` is `None` — are
//! unaffected, and `run_all` id *sets* are identical).
//!
//! [`HostProgram::run_all`]'s first stop is [`HostProgram::run`]'s: until
//! the first acceptance or dead frontier it is the same loop, acceptance
//! mask and prefilter. [`HostAllOutcome`] reports that stop beside the id
//! set, so one scan answers both the first-acceptance question and the
//! all-matches one (the interpreter fallback makes a second pass for the
//! ids).
//!
//! The resumable [`HostMatcher`] extends the chunk-split-invariance
//! contract of [`cicero_isa::StreamMatcher`] to the native path: state is
//! one state mask (one to a few machine words), so feeding any split of
//! an input is byte-for-byte equivalent to the whole-input run.

mod bytes;
mod engine;
mod nfa;
mod prefilter;
mod wide;

pub use bytes::ByteSet;

use cicero_isa::Program;
use engine::{BitEngine, BitMatcher};
use wide::{WideEngine, WideMatcher};

/// Result of a host-engine run (the native analogue of
/// [`cicero_isa::ExecOutcome`], minus the work metric — wall-clock *is*
/// the work metric here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutcome {
    /// Whether the program accepted.
    pub accepted: bool,
    /// Input position (byte index) at which acceptance fired — the
    /// earliest match end, identical to the interpreter's.
    pub match_position: Option<usize>,
    /// Identifier of the acceptance, for multi-matching sets (lowest id
    /// firing at the match position; see the crate docs).
    pub matched_id: Option<u16>,
}

/// The outcome of a run that concluded without accepting.
const REJECTED: HostOutcome =
    HostOutcome { accepted: false, match_position: None, matched_id: None };

/// The outcome of an acceptance at `position`.
fn accepted_at(position: usize, matched_id: Option<u16>) -> HostOutcome {
    HostOutcome { accepted: true, match_position: Some(position), matched_id }
}

/// Result of an exhaustive multi-match scan (the native analogue of
/// [`cicero_isa::ExecAllOutcome`]). The scan's first stop is
/// [`HostProgram::run`]'s, so it answers both questions at once: what the
/// first-acceptance run reports, and which set members match anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostAllOutcome {
    /// What [`HostProgram::run`] reports for the same input: verdict,
    /// earliest match end, and the lowest identifier firing there.
    pub first: HostOutcome,
    /// Bytes that run examined: the match end, the position where the
    /// frontier died, or the input length.
    pub examined: usize,
    /// Every distinct identifier that fired anywhere, ascending.
    pub matched_ids: Vec<u16>,
}

/// Which execution strategy [`HostProgram::compile`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bit-parallel, one `u64` state mask (≤ 64 states).
    Bit64,
    /// Bit-parallel, one `u128` state mask (65–128 states).
    Bit128,
    /// Bit-parallel, multi-word state mask (> 128 states).
    BitWide,
    /// Reference-interpreter fallback (lowering budget exceeded).
    Interp,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Bit64 => "bit64",
            EngineKind::Bit128 => "bit128",
            EngineKind::BitWide => "bit-wide",
            EngineKind::Interp => "interp",
        })
    }
}

enum Repr {
    W64(BitEngine<u64>),
    W128(BitEngine<u128>),
    Wide(WideEngine),
    Interp(Program),
}

/// A `cicero` program lowered to a host-native engine. Immutable and
/// `Sync`: share one behind an `Arc` across worker threads; per-run
/// mutable state lives in [`HostMatcher`].
pub struct HostProgram {
    repr: Repr,
}

impl std::fmt::Debug for HostProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProgram")
            .field("engine", &self.engine_kind())
            .field("states", &self.state_count())
            .field("byte_classes", &self.byte_class_count())
            .finish()
    }
}

impl HostProgram {
    /// Lower `program` to the best-fitting host engine. Infallible: a
    /// program the lowering cannot handle within budget degrades to the
    /// reference interpreter rather than failing.
    pub fn compile(program: &Program) -> HostProgram {
        let repr = match lower(program) {
            None => Repr::Interp(program.clone()),
            Some(nfa) if nfa.preds.len() <= 64 => Repr::W64(BitEngine::build(&nfa)),
            Some(nfa) if nfa.preds.len() <= 128 => Repr::W128(BitEngine::build(&nfa)),
            Some(nfa) => Repr::Wide(WideEngine::build(&nfa)),
        };
        HostProgram { repr }
    }

    /// `program` lowered onto every engine whose mask it fits, narrowest
    /// first, then the interpreter fallback: the candidates
    /// [`compile`](HostProgram::compile) picks one of, so tests and the
    /// differential fuzzer can hold each engine to the others whatever
    /// size the program is.
    pub fn every_engine(program: &Program) -> Vec<HostProgram> {
        let mut reprs = Vec::with_capacity(4);
        if let Some(nfa) = lower(program) {
            if nfa.preds.len() <= 64 {
                reprs.push(Repr::W64(BitEngine::build(&nfa)));
            }
            if nfa.preds.len() <= 128 {
                reprs.push(Repr::W128(BitEngine::build(&nfa)));
            }
            reprs.push(Repr::Wide(WideEngine::build(&nfa)));
        }
        reprs.push(Repr::Interp(program.clone()));
        reprs.into_iter().map(|repr| HostProgram { repr }).collect()
    }

    /// The selected execution strategy.
    pub fn engine_kind(&self) -> EngineKind {
        match &self.repr {
            Repr::W64(_) => EngineKind::Bit64,
            Repr::W128(_) => EngineKind::Bit128,
            Repr::Wide(_) => EngineKind::BitWide,
            Repr::Interp(_) => EngineKind::Interp,
        }
    }

    /// States in the lowered automaton (0 for the interpreter fallback).
    pub fn state_count(&self) -> usize {
        match &self.repr {
            Repr::W64(e) => e.n_states,
            Repr::W128(e) => e.n_states,
            Repr::Wide(e) => e.n_states,
            Repr::Interp(_) => 0,
        }
    }

    /// Byte classes the engine distinguishes (0 for the interpreter
    /// fallback).
    pub fn byte_class_count(&self) -> usize {
        match &self.repr {
            Repr::W64(e) => e.classes.count,
            Repr::W128(e) => e.classes.count,
            Repr::Wide(e) => e.classes.count,
            Repr::Interp(_) => 0,
        }
    }

    /// The extracted literal-prefilter stop bytes (the candidate bytes a
    /// scan must inspect), when a prefilter was derived.
    pub fn prefilter_stop_bytes(&self) -> Option<Vec<u8>> {
        match &self.repr {
            Repr::W64(e) => e.prefilter.as_ref().map(|p| p.stop_bytes()),
            Repr::W128(e) => e.prefilter.as_ref().map(|p| p.stop_bytes()),
            Repr::Wide(_) | Repr::Interp(_) => None,
        }
    }

    /// Execute over `input`, stopping at the first acceptance — the host
    /// analogue of [`cicero_isa::run`].
    pub fn run(&self, input: &[u8]) -> HostOutcome {
        let mut matcher = self.matcher();
        match matcher.feed(input) {
            Some(outcome) => outcome,
            None => matcher.finish(),
        }
    }

    /// Execute over `input`, collecting every distinct identifier — the
    /// host analogue of [`cicero_isa::run_all`].
    pub fn run_all(&self, input: &[u8]) -> HostAllOutcome {
        self.run_all_within(input, usize::MAX).expect("no byte cap to exceed")
    }

    /// [`run_all`](HostProgram::run_all) under a byte cap on the first
    /// stop: `None` when [`run`](HostProgram::run) would examine more
    /// than `byte_cap` bytes and the input is longer than that. Nothing
    /// past the cap is scanned then; once the first stop lies inside it,
    /// the id set covers the whole input.
    pub fn run_all_within(&self, input: &[u8], byte_cap: usize) -> Option<HostAllOutcome> {
        match &self.repr {
            Repr::W64(e) => e.run_all(input, byte_cap),
            Repr::W128(e) => e.run_all(input, byte_cap),
            Repr::Wide(e) => e.run_all(input, byte_cap),
            // The interpreter's `run_all` reports whichever identifier
            // drained first, not the lowest: take the first stop from the
            // matcher, then the id set from a second pass.
            Repr::Interp(p) => {
                let take = byte_cap.min(input.len());
                let mut matcher = self.matcher();
                let first = match matcher.feed(&input[..take]) {
                    Some(outcome) => outcome,
                    None if take < input.len() => return None,
                    None => matcher.finish(),
                };
                let matched_ids = if first.accepted {
                    cicero_isa::run_all(p, input).matched_ids
                } else {
                    Vec::new()
                };
                Some(HostAllOutcome { first, examined: matcher.position(), matched_ids })
            }
        }
    }

    /// Start a resumable match at position 0.
    pub fn matcher(&self) -> HostMatcher<'_> {
        let inner = match &self.repr {
            Repr::W64(e) => MatcherRepr::W64 { engine: e, matcher: BitMatcher::new(e) },
            Repr::W128(e) => MatcherRepr::W128 { engine: e, matcher: BitMatcher::new(e) },
            Repr::Wide(e) => MatcherRepr::Wide { engine: e, matcher: WideMatcher::new(e) },
            Repr::Interp(p) => MatcherRepr::Interp(cicero_isa::StreamMatcher::new(p)),
        };
        HostMatcher { inner, position: 0, done: None }
    }
}

/// The factored automaton of `program`, or `None` when the lowering
/// budget trips.
fn lower(program: &Program) -> Option<nfa::Nfa> {
    let mut nfa = nfa::lower(program)?;
    nfa::factor(&mut nfa);
    Some(nfa)
}

enum MatcherRepr<'p> {
    W64 { engine: &'p BitEngine<u64>, matcher: BitMatcher<u64> },
    W128 { engine: &'p BitEngine<u128>, matcher: BitMatcher<u128> },
    Wide { engine: &'p WideEngine, matcher: WideMatcher },
    Interp(cicero_isa::StreamMatcher<'p>),
}

/// A resumable host-engine matcher, mirroring the lifecycle contract of
/// [`cicero_isa::StreamMatcher`]: [`feed`](HostMatcher::feed) chunks
/// (each returns the final outcome early if the run concluded
/// mid-chunk), then [`finish`](HostMatcher::finish) for end-of-input
/// semantics. Feeding after conclusion re-reports the outcome; `finish`
/// is idempotent. Results are chunk-split invariant.
pub struct HostMatcher<'p> {
    inner: MatcherRepr<'p>,
    position: usize,
    done: Option<HostOutcome>,
}

impl HostMatcher<'_> {
    /// Consume one chunk. `Some(outcome)` as soon as the run concludes
    /// (acceptance or dead state); `None` means more input is wanted.
    pub fn feed(&mut self, chunk: &[u8]) -> Option<HostOutcome> {
        if self.done.is_some() {
            return self.done;
        }
        let outcome = match &mut self.inner {
            MatcherRepr::W64 { engine, matcher } => matcher.feed(engine, chunk, &mut self.position),
            MatcherRepr::W128 { engine, matcher } => {
                matcher.feed(engine, chunk, &mut self.position)
            }
            MatcherRepr::Wide { engine, matcher } => {
                matcher.feed(engine, chunk, &mut self.position)
            }
            MatcherRepr::Interp(matcher) => {
                let out = matcher.feed(chunk).map(from_exec);
                self.position = matcher.position();
                out
            }
        };
        self.done = outcome;
        outcome
    }

    /// Signal end of input and return the final outcome (idempotent).
    pub fn finish(&mut self) -> HostOutcome {
        if let Some(outcome) = self.done {
            return outcome;
        }
        let outcome = match &mut self.inner {
            MatcherRepr::W64 { engine, matcher } => matcher.finish(engine, self.position),
            MatcherRepr::W128 { engine, matcher } => matcher.finish(engine, self.position),
            MatcherRepr::Wide { engine, matcher } => matcher.finish(engine, self.position),
            MatcherRepr::Interp(matcher) => from_exec(matcher.finish()),
        };
        self.done = Some(outcome);
        outcome
    }

    /// Absolute input position of the live state (bytes consumed; at
    /// conclusion by acceptance, the match position).
    pub fn position(&self) -> usize {
        match &self.inner {
            MatcherRepr::Interp(matcher) => matcher.position(),
            _ => self.position,
        }
    }

    /// Whether the run has concluded.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }
}

fn from_exec(out: cicero_isa::ExecOutcome) -> HostOutcome {
    HostOutcome {
        accepted: out.accepted,
        match_position: out.match_position,
        matched_id: out.matched_id,
    }
}

/// Execute `program` over `chunks` as one concatenated input —
/// equivalent to `program.run(concat(chunks))` for every split.
pub fn run_chunked<'a, I>(program: &HostProgram, chunks: I) -> HostOutcome
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut matcher = program.matcher();
    for chunk in chunks {
        if let Some(outcome) = matcher.feed(chunk) {
            return outcome;
        }
    }
    matcher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_isa::Instruction::*;
    use cicero_isa::{run, run_all, Instruction};

    fn program(instructions: Vec<Instruction>) -> Program {
        Program::from_instructions(instructions).unwrap()
    }

    /// Assert host/interpreter agreement on verdict, match end, and the
    /// `run_all` view, on every engine and every deterministic split of
    /// the input.
    fn assert_agrees(p: &Program, input: &[u8]) {
        for host in HostProgram::every_engine(p) {
            assert_host_agrees(&host, p, input);
        }
    }

    /// [`assert_agrees`] for an already-lowered `host` of `p`.
    fn assert_host_agrees(host: &HostProgram, p: &Program, input: &[u8]) {
        let reference = run(p, input);
        let got = host.run(input);
        assert_eq!(got.accepted, reference.accepted, "verdict on {input:?}");
        assert_eq!(got.match_position, reference.match_position, "match end on {input:?}");
        let reference_all = run_all(p, input);
        let got_all = host.run_all(input);
        assert_eq!(got_all.matched_ids, reference_all.matched_ids, "id set on {input:?}");
        assert_first_stop_is_runs(host, input);
        // Chunk-split invariance: 1-byte chunks and a middle split.
        let streamed = run_chunked(host, input.chunks(1));
        assert_eq!(streamed, got, "1-byte chunks on {input:?}");
        let mid = input.len() / 2;
        let streamed = run_chunked(host, [&input[..mid], &input[mid..]]);
        assert_eq!(streamed, got, "middle split on {input:?}");
    }

    /// `run_all`'s first stop is `run`'s: the same outcome, the same bytes
    /// examined, and under a byte cap the same verdict on whether the run
    /// finished inside it. Returns the bytes examined.
    fn assert_first_stop_is_runs(host: &HostProgram, input: &[u8]) -> usize {
        let all = host.run_all(input);
        let mut matcher = host.matcher();
        let first = matcher.feed(input).unwrap_or_else(|| matcher.finish());
        let kind = host.engine_kind();
        assert_eq!(all.first, first, "{kind}: first stop on {input:?}");
        assert_eq!(all.examined, matcher.position(), "{kind}: bytes examined on {input:?}");
        let examined = all.examined;
        for cap in [0, 1, examined.saturating_sub(1), examined, examined + 1, input.len()] {
            let within = host.run_all_within(input, cap);
            let inside = examined < cap || input.len() <= cap;
            assert_eq!(within.is_some(), inside, "{kind}: cap {cap} on {input:?}");
            if let Some(within) = within {
                assert_eq!(within, all, "{kind}: cap {cap} on {input:?}");
            }
        }
        examined
    }

    fn scan_loop(body: Vec<Instruction>) -> Vec<Instruction> {
        // Standard unanchored prefix: Split(3); MatchAny; Jump(0); body...
        let mut instructions = vec![Split(3), MatchAny, Jump(0)];
        instructions.extend(body);
        instructions
    }

    fn inputs() -> Vec<Vec<u8>> {
        vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"b".to_vec(),
            b"ab".to_vec(),
            b"ba".to_vec(),
            b"xxabyy".to_vec(),
            b"xcdab".to_vec(),
            b"zzzzzzzzzzzzzzzzzzzzzz".to_vec(),
            b"aaabbb".to_vec(),
            vec![0x00, 0xff, b'a', b'b'],
            b"the cat in that hat".to_vec(),
        ]
    }

    #[test]
    fn agrees_on_unanchored_alternation() {
        let p = program(scan_loop(vec![
            Split(7),
            Match(b'a'),
            Match(b'b'),
            AcceptPartial,
            Match(b'c'),
            Match(b'd'),
            AcceptPartial,
        ]));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_anchored_literal() {
        let p = program(vec![Match(b'a'), Match(b'b'), Accept]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_notmatch_chains() {
        // `[^ab]` anchored, accepting anywhere after one non-a non-b byte.
        let p = program(vec![NotMatch(b'a'), NotMatch(b'b'), MatchAny, AcceptPartial]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
        // NotMatch guarding an EOI Accept can never fire.
        let p = program(vec![Match(b'x'), NotMatch(b'a'), Accept]);
        for input in [b"x".to_vec(), b"xz".to_vec(), b"xa".to_vec(), b"".to_vec()] {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_pathological_split_loops() {
        let p = program(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_multi_match_sets() {
        let p = program(scan_loop(vec![
            Split(6),
            Match(b'a'),
            AcceptPartialId(7),
            Match(b'b'),
            AcceptPartialId(9),
        ]));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_compiled_patterns() {
        let patterns = [
            "ab|cd",
            "a",
            "(a|b)*c",
            "th(is|at|ose)",
            "[^ab]c",
            "a{2,4}b?",
            "x(a?|a*)y",
            "(GET|POST) /[a-z]*",
            "\u{0}|a",
        ];
        for pattern in patterns {
            let p = cicero_core::compile(pattern).unwrap().into_program();
            for input in inputs() {
                assert_agrees(&p, &input);
            }
        }
    }

    #[test]
    fn agrees_on_compiled_sets() {
        let set =
            cicero_core::Compiler::new().compile_set(&["abcd", "abce", "abcf", "zz"]).unwrap();
        let host = HostProgram::compile(set.program());
        for input in [
            b"xx abcd yy abce".to_vec(),
            b"abcf".to_vec(),
            b"zzz".to_vec(),
            b"abc".to_vec(),
            b"".to_vec(),
        ] {
            let reference = run_all(set.program(), &input);
            let got = host.run_all(&input);
            assert_eq!(got.matched_ids, reference.matched_ids, "{input:?}");
            assert_eq!(got.first.accepted, reference.accepted, "{input:?}");
        }
    }

    #[test]
    fn first_stop_on_a_dead_frontier() {
        // Anchored `ab`: the frontier dies consuming the `x` at 1.
        let p = program(vec![Match(b'a'), Match(b'b'), Accept]);
        for host in HostProgram::every_engine(&p) {
            let out = host.run_all(b"axab");
            assert!(!out.first.accepted && out.matched_ids.is_empty(), "{}", host.engine_kind());
            let examined = assert_first_stop_is_runs(&host, b"axab");
            if host.engine_kind() != EngineKind::Interp {
                assert_eq!(examined, 1, "{}", host.engine_kind());
            }
            for input in inputs() {
                assert_first_stop_is_runs(&host, &input);
            }
        }
    }

    #[test]
    fn first_stop_on_an_end_of_input_acceptance() {
        // `xy` and `y` both fire at the end of `aaxy`, and nowhere before
        // it: the lowest id is the first stop's.
        let set = cicero_core::Compiler::new().compile_set(&["xy", "y"]).unwrap();
        for host in HostProgram::every_engine(set.program()) {
            let kind = host.engine_kind();
            let out = host.run_all(b"aaxy");
            assert_eq!(out.matched_ids, [0, 1], "{kind}");
            assert!(out.first.accepted, "{kind}");
            assert_eq!(out.first.match_position, Some(4), "{kind}");
            assert_eq!(out.examined, 4, "{kind}");
            if kind != EngineKind::Interp {
                assert_eq!(out.first.matched_id, Some(0), "{kind}");
            }
            for input in [&b"aaxy"[..], b"xyy", b"yxy", b"xyz", b""] {
                assert_first_stop_is_runs(&host, input);
            }
        }
    }

    #[test]
    fn first_stop_after_a_prefilter_skipped_prefix() {
        // `th(is|at)` with ids: a long run of non-candidate bytes is
        // skipped, then both members match.
        let set = cicero_core::Compiler::new().compile_set(&["this", "that"]).unwrap();
        let mut input = vec![b'x'; 1000];
        input.extend_from_slice(b"that this");
        for host in HostProgram::every_engine(set.program()) {
            let kind = host.engine_kind();
            if matches!(kind, EngineKind::Bit64 | EngineKind::Bit128) {
                assert!(host.prefilter_stop_bytes().is_some(), "{kind}");
            }
            let out = host.run_all(&input);
            assert_eq!(out.first.match_position, Some(1004), "{kind}");
            assert_eq!(out.matched_ids, [0, 1], "{kind}");
            assert_first_stop_is_runs(&host, &input);
            // A cap inside the skipped prefix stops the scan there.
            assert_eq!(host.run_all_within(&input, 500), None, "{kind}");
            assert_first_stop_is_runs(&host, &input[..1000]);
        }
    }

    #[test]
    fn first_stop_of_a_program_with_no_accept_arms() {
        // An unanchored scan for `a` that never accepts reads the whole
        // input; an anchored one dies on the first non-`a`.
        let unanchored = program(vec![Split(3), MatchAny, Jump(0), Match(b'a'), Jump(0)]);
        let anchored = program(vec![Match(b'a'), Jump(0)]);
        for (p, input, dies_at) in [(unanchored, &b"xxaaxx"[..], None), (anchored, b"aab", Some(2))]
        {
            for host in HostProgram::every_engine(&p) {
                let kind = host.engine_kind();
                let out = host.run_all(input);
                assert!(!out.first.accepted && out.matched_ids.is_empty(), "{kind}");
                let examined = assert_first_stop_is_runs(&host, input);
                if kind != EngineKind::Interp {
                    assert_eq!(examined, dies_at.unwrap_or(input.len()), "{kind}");
                }
                for input in inputs() {
                    assert_first_stop_is_runs(&host, &input);
                }
            }
        }
    }

    #[test]
    fn factoring_keeps_shared_prefix_sets_small() {
        let set = cicero_core::Compiler::new().compile_set(&["abcd", "abce", "abcf"]).unwrap();
        let host = HostProgram::compile(set.program());
        assert!(matches!(host.engine_kind(), EngineKind::Bit64 | EngineKind::Bit128));
        // The shared `abc` spine must fold: well under 3x the single
        // pattern's states.
        let single = HostProgram::compile(&cicero_core::compile("abcd").unwrap().into_program());
        assert!(
            host.state_count() < 2 * single.state_count() + 6,
            "host {} vs single {}",
            host.state_count(),
            single.state_count()
        );
    }

    #[test]
    fn prefilter_extracts_literal_stop_bytes() {
        let p = cicero_core::compile("th(is|at)").unwrap().into_program();
        let host = HostProgram::compile(&p);
        let stops = host.prefilter_stop_bytes().expect("literal-led pattern has a prefilter");
        assert!(stops.contains(&b't'), "stop bytes {stops:?}");
        assert!(stops.len() <= 3, "stop bytes {stops:?}");
        // And it is exact: a long non-candidate haystack still matches
        // correctly at the end.
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"that");
        let out = host.run(&input);
        assert_eq!(out, from_exec(run(&p, &input)));
    }

    #[test]
    fn dot_heavy_patterns_defeat_the_prefilter_but_stay_correct() {
        // `..` reaches acceptance pressure on every byte: no state both
        // self-loops and stays silent, so no skip set can be derived.
        let p = cicero_core::compile("..").unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert!(host.prefilter_stop_bytes().is_none(), "`.`-heavy pattern has no skip set");
        for input in inputs() {
            assert_agrees(&p, &input);
        }
        // `.a.` by contrast *does* yield a prefilter — the steady state
        // self-loops on every non-`a` byte — and it must stay exact.
        let p = cicero_core::compile(".a.").unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.prefilter_stop_bytes(), Some(vec![b'a']));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn wide_pattern_selects_u128_engine() {
        // > 64 consuming positions, unanchored: needs the u128 mask.
        let pattern = "a".repeat(70);
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.engine_kind(), EngineKind::Bit128, "{} states", host.state_count());
        let mut input = vec![b'x'; 50];
        input.extend(vec![b'a'; 80]);
        assert_agrees(&p, &input);
    }

    #[test]
    fn every_engine_agrees_on_one_small_program() {
        // One automaton that fits a `u64` mask, lowered onto each tier in
        // turn (the multi-word one is a single word wide here): all are
        // held to the interpreter whole, in 1-byte chunks and split
        // mid-input.
        let set = cicero_core::Compiler::new().compile_set(&["ab+c", "th(is|at)", "b"]).unwrap();
        let p = set.program();
        let mut inputs = inputs();
        inputs.push(b"xx this abbbc that".to_vec());
        let kinds: Vec<EngineKind> =
            HostProgram::every_engine(p).iter().map(HostProgram::engine_kind).collect();
        assert_eq!(
            kinds,
            [EngineKind::Bit64, EngineKind::Bit128, EngineKind::BitWide, EngineKind::Interp]
        );
        for input in &inputs {
            assert_agrees(p, input);
        }
    }

    #[test]
    fn merged_siblings_agree_on_every_tier() {
        // Classes merged into one state each, as a chain, a self-loop and
        // beside a co-active merge (the shapes of `nfa.rs`'s tests), and
        // compiled classes and gaps: held to the interpreter on every
        // engine.
        let mut programs = vec![
            program(scan_loop(vec![
                Match(b'x'),
                Split(7),
                Match(b'a'),
                Jump(11),
                Split(10),
                Match(b'b'),
                Jump(11),
                Match(b'c'),
                Match(b'y'),
                AcceptPartial,
            ])),
            program(vec![Split(6), Split(4), Match(b'a'), Jump(0), Match(b'b'), Jump(0), Accept]),
            program(scan_loop(vec![
                Match(b'x'),
                Split(7),
                Match(b'a'),
                Jump(13),
                Split(10),
                Match(b'b'),
                Jump(13),
                Match(b'a'),
                Match(b'2'),
                Jump(15),
                Match(b'1'),
                Jump(15),
                AcceptPartial,
            ])),
        ];
        for pattern in ["(a|xb)c", "[abc]x[ab]*y", "x.{2,4}[ab]c", "a[^b]{3}c"] {
            programs.push(cicero_core::compile(pattern).unwrap().into_program());
        }
        let mut inputs = inputs();
        for input in [
            "xay", "xby", "xcy", "xdy", "abab", "xb2", "xa2", "xb1", "bc", "xbc", "axbc",
            "cxababy", "xzzabc", "xzzzzbc", "xzbc", "aaaac", "abaac",
        ] {
            inputs.push(input.as_bytes().to_vec());
        }
        for p in &programs {
            for input in &inputs {
                assert_agrees(p, input);
            }
        }
    }

    #[test]
    fn huge_pattern_selects_the_multi_word_engine() {
        let pattern = "a".repeat(140);
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.engine_kind(), EngineKind::BitWide, "{} states", host.state_count());
        let kinds: Vec<EngineKind> =
            HostProgram::every_engine(&p).iter().map(HostProgram::engine_kind).collect();
        assert_eq!(kinds, [EngineKind::BitWide, EngineKind::Interp]);
        let mut input = vec![b'b'; 30];
        input.extend(vec![b'a'; 200]);
        assert_agrees(&p, &input);
    }

    #[test]
    fn multi_word_engine_survives_frontier_churn() {
        // Alternation over many literals keeps the frontier moving across
        // mask words on a haystack that cycles through every byte.
        let branches: Vec<String> =
            (0..40).map(|i| format!("x{:02}{}", i, "y".repeat(4))).collect();
        let pattern = branches.join("|");
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.engine_kind(), EngineKind::BitWide, "{} states", host.state_count());
        let input: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        assert_agrees(&p, &input);
        let mut late = input.clone();
        late.extend_from_slice(b"x17yyyy");
        assert_agrees(&p, &late);
    }

    #[test]
    fn multi_word_engine_agrees_across_word_boundaries() {
        // `a{n}` lowers to n + 2 states (start, scan loop, n positions):
        // sweep the mask-word boundaries from both sides, and well past
        // 512 states.
        for states in [129usize, 192, 193, 256, 257, 320, 321, 600] {
            let n = states - 2;
            let p = cicero_core::compile(&format!("a{{{n}}}")).unwrap().into_program();
            let host = HostProgram::compile(&p);
            assert_eq!(host.engine_kind(), EngineKind::BitWide);
            assert_eq!(host.state_count(), states, "a{{{n}}}");
            let mut hit = vec![b'b'; 7];
            hit.extend(vec![b'a'; n]);
            let mut near_miss = vec![b'a'; n - 1];
            near_miss.push(b'b');
            near_miss.extend(vec![b'a'; n - 1]);
            for input in [hit, near_miss, vec![b'a'; n + 70], Vec::new()] {
                assert_agrees(&p, &input);
            }
        }
        // Sets: every member's identifier sits in a different mask word.
        for (members, len) in [(5usize, 30usize), (9, 40), (16, 45)] {
            let patterns: Vec<String> = (0..members)
                .map(|m| format!("{}{}", char::from(b'a' + m as u8), "z".repeat(len)))
                .collect();
            let set = cicero_core::Compiler::new().compile_set(&patterns).unwrap();
            let host = HostProgram::compile(set.program());
            assert_eq!(host.engine_kind(), EngineKind::BitWide, "{} states", host.state_count());
            assert!(host.state_count() > members * len);
            let mut all = Vec::new();
            for m in (0..members).rev() {
                all.push(b'a' + m as u8);
                all.extend(vec![b'z'; len]);
                all.push(b'-');
            }
            let last_only = all[..len + 1].to_vec();
            let none = vec![b'z'; 3 * len];
            for input in [all, last_only, none, Vec::new()] {
                assert_agrees(set.program(), &input);
            }
        }
    }

    #[test]
    fn multi_word_engine_agrees_on_a_bounded_gap_signature_set() {
        // The shape that served sets take: each `.{m,n}` keeps a window
        // of gap states live and the members' windows overlap, so the
        // frontier is a few states spread over every mask word. With a
        // class's members merged into one state the set fits a `u128`;
        // `every_engine` holds the multi-word engine to it too.
        let set = cicero_core::Compiler::new()
            .compile_set(&[
                "C.{2,4}C.{3}[LIVMFYWC].{8}H.{3,5}H",
                "[AG].{4}GK[ST]",
                "R.{3,9}[DE].{6,12}Y",
                "W.{9,11}[VFY][FYW].{6,7}[GSTNE]",
                "N[^P][ST][^P].{2,5}Q",
                "G[DE].{6,9}[LIVMF].{5,8}[KR][KR]",
            ])
            .unwrap();
        let mut late = b"MKV".repeat(40);
        late.extend_from_slice(b"CAACLLLLAAAAAAAAHAAAH");
        for input in [
            b"AMKLAGKSNASAEEQLLLLL".to_vec(),
            late,
            b"CACAAALAAAAAAAAHAAHAMKLGKSRAADAAAAAYNPSAWAAAAAAAAVFGDAAAAALAAAAKR".to_vec(),
            b"WAAAAAAAAAVFAAAAAAGRAAADAAAAAAY".to_vec(),
            b"GEAAAAAALAAAAAKKAGAAAAGKT".to_vec(),
        ] {
            assert_agrees(set.program(), &input);
        }
    }

    #[test]
    fn matcher_lifecycle_matches_the_interpreters() {
        let p = program(scan_loop(vec![Match(b'a'), Match(b'b'), AcceptPartial]));
        let host = HostProgram::compile(&p);
        let mut matcher = host.matcher();
        assert_eq!(matcher.feed(b""), None);
        assert_eq!(matcher.feed(b"xxa"), None);
        assert!(!matcher.is_done());
        let out = matcher.feed(b"bzz").expect("accepts inside the chunk");
        assert!(out.accepted);
        assert_eq!(out.match_position, Some(4));
        // Feeding after conclusion re-reports; finish is idempotent.
        assert_eq!(matcher.feed(b"more"), Some(out));
        assert_eq!(matcher.finish(), out);
        assert_eq!(matcher.finish(), out);
    }

    #[test]
    fn empty_program_edge_cases() {
        // `ab|` — matches everything, including the empty input.
        let p = cicero_core::compile("ab|").unwrap().into_program();
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn randomized_agreement_on_byte_soup() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1CE_2025);
        let patterns = ["ab|cd", "[^x]*q", "a{3}b{2}", "(ab)*c", "th(e|at)", "^start", "end$"];
        for pattern in patterns {
            let p = cicero_core::compile(pattern).unwrap().into_program();
            let engines = HostProgram::every_engine(&p);
            for _ in 0..50 {
                let len = rng.random_range(0..200);
                let input: Vec<u8> = (0..len)
                    .map(|_| {
                        let alphabet = b"abcdextq ";
                        alphabet[rng.random_range(0..alphabet.len())]
                    })
                    .collect();
                let reference = run(&p, &input);
                for host in &engines {
                    let got = host.run(&input);
                    let kind = host.engine_kind();
                    assert_eq!(got.accepted, reference.accepted, "{kind}: {pattern} on {input:?}");
                    let end = got.match_position;
                    assert_eq!(end, reference.match_position, "{kind}: {pattern} on {input:?}");
                }
            }
        }
    }
}
