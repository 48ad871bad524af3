//! The high-level transformation sets of §3.2.
//!
//! Each set is an independent [`Pass`], mirroring the
//! paper's "each transformation is optional and can be enabled or disabled
//! individually by toggling different compiler options":
//!
//! * [`CanonicalizePass`] — sub-regex simplification (set 1);
//! * [`FactorizeAlternationsPass`] — alternation prefix factorization
//!   (set 2);
//! * [`ShortestMatchPass`] — boundary quantifier reduction for any-match
//!   engines (set 3, the only semantics-changing one: it preserves *whether
//!   a match exists*, not the match extent);
//! * [`ShortestMatchLeadingPass`] — the symmetric reduction at the leading
//!   boundary, an extension beyond the paper (off by default).

mod factorize;
mod shortest_match;
mod simplify;

pub use factorize::FactorizeAlternationsPass;
pub use shortest_match::{ShortestMatchLeadingPass, ShortestMatchPass};
pub use simplify::CanonicalizePass;

use mlir_lite::{Pass, PassManager};

/// One of the three orderable high-level transformation sets.
///
/// The beyond-the-paper leading reduction is not a slot of its own: it is
/// soundness-coupled to the trailing reduction and always runs directly
/// after [`HighLevelPass::ShortestMatch`]'s slot when enabled, wherever
/// that slot lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HighLevelPass {
    /// Set 1: sub-regex simplification / canonicalization.
    Canonicalize,
    /// Set 2: alternation prefix factorization.
    Factorize,
    /// Set 3: shortest-match boundary quantifier reduction.
    ShortestMatch,
}

impl HighLevelPass {
    /// The set's pass.
    pub fn pass(self) -> Box<dyn Pass> {
        match self {
            HighLevelPass::Canonicalize => Box::new(CanonicalizePass),
            HighLevelPass::Factorize => Box::new(FactorizeAlternationsPass),
            HighLevelPass::ShortestMatch => Box::new(ShortestMatchPass),
        }
    }

    /// Short token used in serialized pass orders (`tune.toml`).
    pub fn token(self) -> &'static str {
        match self {
            HighLevelPass::Canonicalize => "canonicalize",
            HighLevelPass::Factorize => "factorize",
            HighLevelPass::ShortestMatch => "shortest-match",
        }
    }

    fn from_token(token: &str) -> Option<HighLevelPass> {
        match token {
            "canonicalize" => Some(HighLevelPass::Canonicalize),
            "factorize" => Some(HighLevelPass::Factorize),
            "shortest-match" => Some(HighLevelPass::ShortestMatch),
            _ => None,
        }
    }
}

/// A permutation of the three high-level transformation sets — the pass
/// scheduling axis of the compiler × architecture search space.
///
/// `Copy + Hash + Eq` are load-bearing: the order rides inside
/// `CompilerOptions`, which keys the runtime's compiled-program cache, so
/// two requests share a cache entry exactly when their pass orders agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassOrder([HighLevelPass; 3]);

impl Default for PassOrder {
    /// The paper's order: canonicalize → factorize → shortest-match.
    fn default() -> PassOrder {
        PassOrder([
            HighLevelPass::Canonicalize,
            HighLevelPass::Factorize,
            HighLevelPass::ShortestMatch,
        ])
    }
}

impl PassOrder {
    /// Build an order from an explicit permutation.
    ///
    /// Returns `None` unless `slots` names each set exactly once.
    pub fn new(slots: [HighLevelPass; 3]) -> Option<PassOrder> {
        let mut sorted = slots;
        sorted.sort();
        (sorted
            == [
                HighLevelPass::Canonicalize,
                HighLevelPass::Factorize,
                HighLevelPass::ShortestMatch,
            ])
        .then_some(PassOrder(slots))
    }

    /// The slots, first-to-run first.
    pub fn slots(self) -> [HighLevelPass; 3] {
        self.0
    }

    /// All six permutations, in a deterministic order with the paper's
    /// default first (so exhaustive searches always cover the baseline).
    pub fn all() -> [PassOrder; 6] {
        use HighLevelPass::{Canonicalize as C, Factorize as F, ShortestMatch as S};
        [
            PassOrder([C, F, S]),
            PassOrder([C, S, F]),
            PassOrder([F, C, S]),
            PassOrder([F, S, C]),
            PassOrder([S, C, F]),
            PassOrder([S, F, C]),
        ]
    }

    /// Serialize as the `tune.toml` token list, e.g.
    /// `canonicalize,factorize,shortest-match`.
    pub fn to_token_string(self) -> String {
        let tokens: Vec<&str> = self.0.iter().map(|p| p.token()).collect();
        tokens.join(",")
    }

    /// Parse a [`PassOrder::to_token_string`] rendering.
    ///
    /// # Errors
    ///
    /// Rejects unknown tokens and non-permutations (missing or repeated
    /// sets) with a message naming the offending input.
    pub fn parse(text: &str) -> Result<PassOrder, String> {
        let tokens: Vec<&str> = text.split(',').map(str::trim).collect();
        if tokens.len() != 3 {
            return Err(format!(
                "pass order `{text}` must name exactly 3 passes, got {}",
                tokens.len()
            ));
        }
        let mut slots = [HighLevelPass::Canonicalize; 3];
        for (slot, token) in slots.iter_mut().zip(&tokens) {
            *slot = HighLevelPass::from_token(token)
                .ok_or_else(|| format!("unknown pass token `{token}` in pass order `{text}`"))?;
        }
        PassOrder::new(slots)
            .ok_or_else(|| format!("pass order `{text}` must name each pass exactly once"))
    }
}

/// Which high-level transformation sets to register (all on by default,
/// except the beyond-the-paper leading reduction), and in which order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighLevelOptions {
    /// Set 1: sub-regex simplification / canonicalization.
    pub canonicalize: bool,
    /// Set 2: alternation prefix factorization.
    pub factorize: bool,
    /// Set 3: shortest-match boundary quantifier reduction.
    pub shortest_match: bool,
    /// Extension: the same reduction at the leading boundary.
    pub shortest_match_leading: bool,
    /// Relative order of the enabled sets (default: the paper's order).
    pub order: PassOrder,
}

impl Default for HighLevelOptions {
    fn default() -> HighLevelOptions {
        HighLevelOptions {
            canonicalize: true,
            factorize: true,
            shortest_match: true,
            shortest_match_leading: false,
            order: PassOrder::default(),
        }
    }
}

/// Register the enabled `regex`-dialect transforms on a pass manager, in
/// `options.order` (default: the paper's canonicalize → factorize →
/// shortest-match), with a trailing cleanup canonicalization when
/// structural transforms ran.
///
/// This is the dialect's single registration point: every driver —
/// compiler, CLI, benchmarks, the autotuner — builds its high-level
/// pipeline here, so pass order and the per-pass report stay consistent.
pub fn build_pipeline(pm: &mut PassManager, options: &HighLevelOptions) {
    for slot in options.order.slots() {
        let enabled = match slot {
            HighLevelPass::Canonicalize => options.canonicalize,
            HighLevelPass::Factorize => options.factorize,
            HighLevelPass::ShortestMatch => options.shortest_match,
        };
        if enabled {
            pm.add_pass(slot.pass());
        }
        // The leading reduction is anchored to the trailing one's slot:
        // it shares the same soundness argument (the implicit `.*`
        // boundary), so it travels with it rather than being a slot of
        // its own.
        if slot == HighLevelPass::ShortestMatch && options.shortest_match_leading {
            pm.add_pass(Box::new(ShortestMatchLeadingPass));
        }
    }
    if options.canonicalize && (options.factorize || options.shortest_match) {
        // Clean up wrappers the structural transforms introduce.
        pm.add_pass(Box::new(CanonicalizePass));
    }
}

#[cfg(test)]
mod equivalence_tests;

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    #[test]
    fn default_pipeline_registers_all_paper_sets() {
        let mut pm = PassManager::new();
        build_pipeline(&mut pm, &HighLevelOptions::default());
        assert_eq!(pm.len(), 4); // canonicalize, factorize, shortest, cleanup
    }

    #[test]
    fn disabled_options_register_nothing() {
        let all_off = HighLevelOptions {
            canonicalize: false,
            factorize: false,
            shortest_match: false,
            shortest_match_leading: false,
            order: PassOrder::default(),
        };
        let mut pm = PassManager::new();
        build_pipeline(&mut pm, &all_off);
        assert!(pm.is_empty());
    }

    #[test]
    fn pass_order_round_trips_all_permutations() {
        for order in PassOrder::all() {
            let text = order.to_token_string();
            assert_eq!(PassOrder::parse(&text), Ok(order), "round-trip of `{text}`");
        }
    }

    #[test]
    fn pass_order_parse_rejects_malformed_inputs() {
        assert!(PassOrder::parse("canonicalize,factorize").is_err());
        assert!(PassOrder::parse("canonicalize,canonicalize,factorize").is_err());
        assert!(PassOrder::parse("canonicalize,factorize,bogus").is_err());
    }

    #[test]
    fn reordered_pipeline_emits_slots_in_requested_order() {
        use HighLevelPass::{Canonicalize as C, Factorize as F, ShortestMatch as S};
        let options = HighLevelOptions {
            order: PassOrder::new([S, F, C]).unwrap(),
            shortest_match_leading: true,
            ..HighLevelOptions::default()
        };
        let mut pm = PassManager::new();
        build_pipeline(&mut pm, &options);
        let mut ir = crate::ast_to_ir(&regex_frontend::parse("a").unwrap());
        let mut ctx = mlir_lite::Context::new();
        ctx.register_dialect(crate::dialect());
        let report = pm.run(&mut ir, &ctx).unwrap();
        assert_eq!(
            report.passes.iter().map(|pass| pass.name).collect::<Vec<_>>(),
            vec![
                "regex-shortest-match-reduction",
                "regex-shortest-match-leading-reduction",
                "regex-factorize-alternations",
                "regex-canonicalize",
                "regex-canonicalize", // trailing cleanup
            ]
        );
    }
}
