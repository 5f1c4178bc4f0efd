//! The phased path in `sut.rs` must not drift from the canonical runners:
//! for every cell, at unit-test scale, its `stats_json` is byte-identical to
//! what `utps_baselines::run` produces in one call.

use utps_benchmark::cells::CELLS;
use utps_benchmark::spans::Tracer;
use utps_benchmark::sut::run_phased;
use utps_core::experiment::stats_json;

#[test]
fn phased_path_matches_canonical_runner() {
    for cell in &CELLS {
        for seed in [42, 7] {
            let cfg = cell.tiny_config(seed);
            let phased = run_phased(cell.system, &cfg, &mut Tracer::off());
            let canonical = utps_baselines::run(cell.system, &cfg);
            assert!(
                canonical.completed > 100,
                "{}: tiny cell completed only {} ops",
                cell.name,
                canonical.completed
            );
            assert_eq!(
                stats_json(&phased.result),
                stats_json(&canonical),
                "{} seed {seed}: phased and canonical stats differ",
                cell.name
            );
        }
    }
}

#[test]
fn tracing_does_not_change_the_simulation() {
    let cell = &CELLS[0];
    let cfg = cell.tiny_config(42);
    let mut tr = Tracer::on();
    tr.enter_run("rep");
    let traced = run_phased(cell.system, &cfg, &mut tr);
    tr.exit();
    let untraced = run_phased(cell.system, &cfg, &mut Tracer::off());
    assert_eq!(stats_json(&traced.result), stats_json(&untraced.result));
    assert_eq!(traced.window, untraced.window);
}
