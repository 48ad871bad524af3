//! Thompson NFA construction from the front-end AST.

use regex_frontend::{Alternation, Atom, ByteSet, Piece, Quantifier, RegexAst};

/// Index of a state in the NFA's state vector.
pub type StateId = u32;

/// Sentinel for a not-yet-patched transition.
const DANGLING: StateId = u32::MAX;

/// A byte predicate on consuming transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteTest {
    /// Any byte.
    Any,
    /// Exactly this byte.
    Char(u8),
    /// Membership in a 256-bit set (negation already resolved).
    Set(ByteSet),
}

impl ByteTest {
    /// Evaluate the predicate.
    pub fn matches(&self, byte: u8) -> bool {
        match self {
            ByteTest::Any => true,
            ByteTest::Char(c) => *c == byte,
            ByteTest::Set(set) => set.contains(byte),
        }
    }
}

/// An NFA state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum State {
    /// Consume one byte passing `test`, then go to `next`.
    Byte {
        /// The predicate the consumed byte must satisfy.
        test: ByteTest,
        /// Successor state.
        next: StateId,
    },
    /// Epsilon-fork to both successors.
    Split {
        /// First successor (preferred order is irrelevant for matching).
        left: StateId,
        /// Second successor.
        right: StateId,
    },
    /// Accepting state.
    Accept,
}

/// A compiled Thompson NFA.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<State>,
    start: StateId,
    /// When true (pattern ended with `$`), `Accept` only fires at
    /// end-of-input; otherwise it fires at any position.
    exact_end: bool,
}

impl Nfa {
    /// Build the NFA for a parsed pattern.
    pub fn from_ast(ast: &RegexAst) -> Nfa {
        let mut b = Builder { states: Vec::new() };
        let frag = b.alternation(&ast.alternation);
        let accept = b.push(State::Accept);
        b.patch(&frag.outs, accept);
        let start = if ast.has_prefix {
            // Implicit `.*` prefix: split between the body and a self-loop
            // consuming any byte.
            let any = b.push(State::Byte { test: ByteTest::Any, next: DANGLING });
            let split = b.push(State::Split { left: frag.start, right: any });
            b.set_next(any, split);
            split
        } else {
            frag.start
        };
        Nfa { states: b.states, start, exact_end: !ast.has_suffix }
    }

    /// The states, indexed by [`StateId`].
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether acceptance requires end-of-input.
    pub fn exact_end(&self) -> bool {
        self.exact_end
    }

    /// Number of states (a size metric for tests and reports).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the NFA has no states (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// A partially built sub-automaton: a start state plus the dangling
/// transitions that its acceptor must be patched into.
struct Frag {
    start: StateId,
    outs: Vec<Out>,
}

/// A dangling transition slot: `(state, which)` where `which` selects the
/// `next`/`left`/`right` field.
#[derive(Clone, Copy)]
struct Out {
    state: StateId,
    which: OutSlot,
}

#[derive(Clone, Copy)]
enum OutSlot {
    Next,
    Left,
    Right,
}

struct Builder {
    states: Vec<State>,
}

impl Builder {
    fn push(&mut self, state: State) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(state);
        id
    }

    fn set_next(&mut self, id: StateId, target: StateId) {
        match &mut self.states[id as usize] {
            State::Byte { next, .. } => *next = target,
            other => panic!("set_next on non-byte state {other:?}"),
        }
    }

    fn patch(&mut self, outs: &[Out], target: StateId) {
        for out in outs {
            let state = &mut self.states[out.state as usize];
            let slot = match (state, out.which) {
                (State::Byte { next, .. }, OutSlot::Next) => next,
                (State::Split { left, .. }, OutSlot::Left) => left,
                (State::Split { right, .. }, OutSlot::Right) => right,
                (s, _) => panic!("bad patch slot for {s:?}"),
            };
            debug_assert_eq!(*slot, DANGLING, "double patch");
            *slot = target;
        }
    }

    fn alternation(&mut self, alt: &Alternation) -> Frag {
        let mut frags: Vec<Frag> =
            alt.alternatives.iter().map(|c| self.concat(&c.pieces)).collect();
        let mut current = frags.pop().expect("alternation is never empty");
        // Fold right-to-left into a chain of splits.
        while let Some(prev) = frags.pop() {
            let split = self.push(State::Split { left: prev.start, right: current.start });
            let mut outs = prev.outs;
            outs.extend(current.outs);
            current = Frag { start: split, outs };
        }
        current
    }

    fn concat(&mut self, pieces: &[Piece]) -> Frag {
        if pieces.is_empty() {
            // Empty concatenation: a no-op fragment implemented as an
            // epsilon split whose both arms dangle to the continuation.
            let split = self.push(State::Split { left: DANGLING, right: DANGLING });
            return Frag {
                start: split,
                outs: vec![
                    Out { state: split, which: OutSlot::Left },
                    Out { state: split, which: OutSlot::Right },
                ],
            };
        }
        let mut iter = pieces.iter();
        let mut frag = self.piece(iter.next().expect("non-empty"));
        for piece in iter {
            let next = self.piece(piece);
            self.patch(&frag.outs, next.start);
            frag.outs = next.outs;
        }
        frag
    }

    fn piece(&mut self, piece: &Piece) -> Frag {
        match piece.quantifier {
            None => self.atom(&piece.atom),
            Some(q) => self.quantified(&piece.atom, q),
        }
    }

    /// Expand `atom{min,max}` by copying: `min` mandatory copies followed
    /// by either a star (unbounded) or `max - min` nested optionals.
    fn quantified(&mut self, atom: &Atom, q: Quantifier) -> Frag {
        let Quantifier { min, max } = q;
        let mut prefix: Option<Frag> = None;
        for _ in 0..min {
            let copy = self.atom(atom);
            prefix = Some(match prefix {
                None => copy,
                Some(mut p) => {
                    self.patch(&p.outs, copy.start);
                    p.outs = copy.outs;
                    p
                }
            });
        }
        let suffix = match max {
            None => Some(self.star(atom)),
            Some(max) => {
                let extras = max - min;
                let mut suffix: Option<Frag> = None;
                // Build right-to-left: opt(atom · opt(atom · …)).
                for _ in 0..extras {
                    let mut copy = self.atom(atom);
                    if let Some(inner) = suffix {
                        self.patch(&copy.outs, inner.start);
                        copy.outs = inner.outs;
                    }
                    let split = self.push(State::Split { left: copy.start, right: DANGLING });
                    let mut outs = copy.outs;
                    outs.push(Out { state: split, which: OutSlot::Right });
                    suffix = Some(Frag { start: split, outs });
                }
                suffix
            }
        };
        match (prefix, suffix) {
            (Some(mut p), Some(s)) => {
                self.patch(&p.outs, s.start);
                p.outs = s.outs;
                p
            }
            (Some(p), None) => p,
            (None, Some(s)) => s,
            (None, None) => unreachable!("parser rejects {{0}} and {{0,0}}"),
        }
    }

    fn star(&mut self, atom: &Atom) -> Frag {
        let body = self.atom(atom);
        let split = self.push(State::Split { left: body.start, right: DANGLING });
        self.patch(&body.outs, split);
        Frag { start: split, outs: vec![Out { state: split, which: OutSlot::Right }] }
    }

    fn atom(&mut self, atom: &Atom) -> Frag {
        match atom {
            Atom::Char(c) => self.byte(ByteTest::Char(*c)),
            Atom::Any => self.byte(ByteTest::Any),
            Atom::Class { negated, set } => {
                let set = if *negated { ByteSet::FULL.difference(*set) } else { *set };
                self.byte(ByteTest::Set(set))
            }
            Atom::Group(alt) => self.alternation(alt),
        }
    }

    fn byte(&mut self, test: ByteTest) -> Frag {
        let id = self.push(State::Byte { test, next: DANGLING });
        Frag { start: id, outs: vec![Out { state: id, which: OutSlot::Next }] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfa(pattern: &str) -> Nfa {
        Nfa::from_ast(&regex_frontend::parse(pattern).unwrap())
    }

    #[test]
    fn no_dangling_transitions_survive() {
        for p in ["abc", "a|b|c", "a*b+c?", "(ab){2,4}", "[^x]{3,}", "^a(b|cd)*$"] {
            let n = nfa(p);
            for (i, s) in n.states().iter().enumerate() {
                match s {
                    State::Byte { next, .. } => {
                        assert_ne!(*next, DANGLING, "{p}: state {i} dangles")
                    }
                    State::Split { left, right } => {
                        assert_ne!(*left, DANGLING, "{p}: state {i} left dangles");
                        assert_ne!(*right, DANGLING, "{p}: state {i} right dangles");
                    }
                    State::Accept => {}
                }
            }
        }
    }

    #[test]
    fn exact_end_tracks_dollar() {
        assert!(nfa("abc$").exact_end());
        assert!(!nfa("abc").exact_end());
    }

    #[test]
    fn state_count_scales_with_quantifier_bounds() {
        let small = nfa("^a{2}$").len();
        let large = nfa("^a{40}$").len();
        assert!(large > small + 30, "copies must be materialized: {small} vs {large}");
    }

    #[test]
    fn prefix_loop_adds_two_states() {
        let anchored = nfa("^abc").len();
        let floating = nfa("abc").len();
        assert_eq!(floating, anchored + 2);
    }
}
