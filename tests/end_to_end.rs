//! End-to-end integration: the Table 1 engine across all crates at the
//! miniature test scale.

use multigrid_schwarz_ilt::core::experiment::{
    averages, ratios, run_case_with, run_method, Method,
};
use multigrid_schwarz_ilt::core::ExperimentConfig;
use multigrid_schwarz_ilt::layout::suite_of_size;
use multigrid_schwarz_ilt::litho::{LithoBank, ResistModel};
use multigrid_schwarz_ilt::tile::TileExecutor;

#[test]
fn full_case_produces_all_methods_and_sane_metrics() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).expect("bank");
    let suite = suite_of_size(&config.generator, 2);
    let executor = TileExecutor::sequential();
    let inspection = bank
        .system(config.clip, config.inspection_scale())
        .expect("inspection");

    let mut cases = Vec::new();
    for clip in &suite {
        let row = run_case_with(&config, &inspection, clip, |m| {
            run_method(m, &config, &bank, &clip.target, &executor)
        })
        .expect("case run");
        assert_eq!(row.methods.len(), 4);
        for m in &row.methods {
            // L2 can never exceed the whole clip; PVB must be positive for
            // real optics; TAT must be measured.
            assert!(m.metrics.l2 < config.clip * config.clip, "{}", m.method);
            assert!(m.metrics.pvband > 0, "{}", m.method);
            assert!(m.metrics.tat > 0.0, "{}", m.method);
            assert!(m.metrics.stitch >= 0.0, "{}", m.method);
        }
        cases.push(row);
    }

    let avgs = averages(&cases);
    assert_eq!(avgs.len(), 4);
    let r = ratios(&avgs, "Ours");
    let ours = r.iter().find(|a| a.method == "Ours").expect("ours row");
    assert!((ours.l2 - 1.0).abs() < 1e-12);
    assert!((ours.tat - 1.0).abs() < 1e-12);
}

#[test]
fn every_method_beats_the_naive_mask() {
    // Sanity: any ILT flow must print closer to the target than using the
    // target itself as the mask.
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).expect("bank");
    let clip = suite_of_size(&config.generator, 1).remove(0);
    let executor = TileExecutor::sequential();
    let inspection = bank
        .system(config.clip, config.inspection_scale())
        .expect("inspection");

    let naive = multigrid_schwarz_ilt::metrics::mask_quality(
        &inspection,
        &clip.target.to_real(),
        &clip.target,
    )
    .expect("naive quality");

    for method in Method::all() {
        let flow = run_method(method, &config, &bank, &clip.target, &executor).expect("flow");
        let binary = flow.mask.threshold(0.5).to_real();
        let quality =
            multigrid_schwarz_ilt::metrics::mask_quality(&inspection, &binary, &clip.target)
                .expect("quality");
        assert!(
            quality.l2 < naive.l2,
            "{}: L2 {} not better than naive {}",
            method.label(),
            quality.l2,
            naive.l2
        );
    }
}

#[test]
fn flows_are_deterministic() {
    // The whole pipeline — including the content-keyed solver perturbation
    // — must be exactly reproducible.
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).expect("bank");
    let clip = suite_of_size(&config.generator, 1).remove(0);
    let executor = TileExecutor::sequential();
    let a = run_method(Method::Ours, &config, &bank, &clip.target, &executor).expect("first run");
    let b = run_method(Method::Ours, &config, &bank, &clip.target, &executor).expect("second run");
    assert_eq!(a.mask, b.mask);
}

#[test]
fn parallel_and_sequential_executors_agree() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).expect("bank");
    let clip = suite_of_size(&config.generator, 2).remove(1);
    let seq = run_method(
        Method::MultiLevelDnc,
        &config,
        &bank,
        &clip.target,
        &TileExecutor::sequential(),
    )
    .expect("sequential");
    let par = run_method(
        Method::MultiLevelDnc,
        &config,
        &bank,
        &clip.target,
        &TileExecutor::new(4),
    )
    .expect("parallel");
    assert_eq!(seq.mask, par.mask);
}
