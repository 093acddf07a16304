//! The reproduction contract: every table and figure of the paper that
//! `lightmamba::experiments` regenerates must pass its own checks (who
//! wins, by roughly what factor, inside which window around the paper's
//! number) — the checks `repro` prints, at the sizes it prints them.
//! README.md §"Reproducing the paper" lists what each one holds.

use lightmamba_repro::core::experiments::EXPERIMENTS;

/// Runs the experiment `id` names and asserts each of its checks.
fn assert_checks(id: &str) {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment `{id}`"));
    let outcome = (experiment.run)();
    // Table I is the paper's qualitative comparison: nothing is measured.
    assert_eq!(outcome.checks.is_empty(), id == "table1", "{outcome}");
    for check in &outcome.checks {
        assert!(check.pass, "{id}: {} ({})", check.claim, check.detail);
    }
}

/// One test per experiment, and the list of ids they cover.
macro_rules! experiment_tests {
    ($($test:ident => $id:literal,)*) => {
        const TESTED: &[&str] = &[$($id),*];
        $(
            #[test]
            fn $test() {
                assert_checks($id);
            }
        )*
    };
}

experiment_tests! {
    table1_renders_the_paradigm_comparison => "table1",
    table2_shape_rotation_beats_rtn_on_scattered_outliers => "table2",
    table3_shape_w4a4_method_ordering => "table3",
    table4_shape_throughput_and_efficiency => "table4",
    fig2_shape_rotation_flattens_distribution => "fig2",
    fig3_shape_pot_requantization_is_cheaper => "fig3",
    fig4b_shape_fusion_hurts => "fig4b",
    fig6_shape_reordering_then_tiling_shorten_the_block => "fig6",
    fig7_shape_tiling_cuts_uram => "fig7",
    fig9a_shape_flat_vs_decaying => "fig9a",
    fig9b_shape_small_models_gain_more => "fig9b",
    fig10_shape_ablation_ordering => "fig10",
}

/// The table is exactly the paper's twelve results, each id once, and
/// every one of them has a test above.
#[test]
fn the_table_is_the_twelve_results_and_each_is_tested() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        [
            "table1", "table2", "table3", "table4", "fig2", "fig3", "fig4b", "fig6", "fig7",
            "fig9a", "fig9b", "fig10"
        ]
    );
    assert_eq!(ids, TESTED);
}
