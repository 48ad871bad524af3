//! The paper's verdicts gate tier-1: the `paper` bench's grid, measured at
//! quick scale, must satisfy every gated claim of `cicero_bench::claims`.
//! Figure 9's wall-clock ratios are never gated, so nothing here depends on
//! timing; a change that flips Table 6's winner, erases Table 2's knee or
//! reverses Figure 10 fails this test by name.

use cicero_bench::{claims, Grid, Scale};

#[test]
fn every_gated_paper_claim_holds_at_quick_scale() {
    let claims = claims(&Grid::measure(Scale::QUICK));
    let gated: Vec<_> = claims.iter().filter(|c| c.gated).collect();
    assert!(gated.len() >= 10, "only {} gated claims", gated.len());
    let failed: Vec<&str> = gated.iter().filter(|c| !c.holds).map(|c| c.id).collect();
    assert!(failed.is_empty(), "gated paper claims failed: {failed:?}");
}
