//! Cross-crate integration: full pipelines from workload generation
//! through assignment to measurement, via the public facade only.

use dpta::experiments::{expectations, figures, runner, RunOptions};
use dpta::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Held by every test in this file for its whole run, so the tests run
/// one at a time. The fig04 timing claims compare sub-millisecond
/// engine runs, and a sibling test busy on the other cores swamps them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the guarded state is `()`, so
    // the next test can still run.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_opts() -> RunOptions {
    RunOptions {
        scale: 0.08, // 80-task batches
        n_batches: 2,
        params: RunParams::default(),
        n_seeds: 1,
        parallel: true,
    }
}

#[test]
fn every_dataset_runs_every_method_end_to_end() {
    let _serial = serial();
    for dataset in Dataset::all() {
        let scenario = Scenario {
            dataset,
            batch_size: 80,
            n_batches: 2,
            ..Scenario::default()
        };
        let params = RunParams::default();
        for inst in &scenario.batches() {
            for method in Method::all() {
                let outcome = method.run(inst, &params);
                outcome.assignment.check_consistent();
                outcome.board.verify_privacy_bounds(inst);
                let m = measure(inst, &outcome, 1.0, 1.0, method.is_private());
                assert!(m.avg_utility().is_finite(), "{dataset}/{method}");
                assert!(m.avg_distance() >= 0.0, "{dataset}/{method}");
                for (i, j) in outcome.assignment.pairs() {
                    assert!(inst.in_reach(i, j), "{dataset}/{method} out-of-range pair");
                }
            }
        }
    }
}

#[test]
fn figure_runner_covers_the_whole_registry() {
    let _serial = serial();
    // Structural smoke over every registered experiment at minimal
    // scale: panels exist, series are finite and complete.
    let opts = RunOptions {
        scale: 0.03,
        n_batches: 1,
        ..tiny_opts()
    };
    for spec in figures::registry() {
        // Only sample the sweep ends to keep the suite fast; the full
        // sweeps run in the experiments CLI and benches.
        let out = runner::run_figure(&spec, &opts);
        assert!(!out.tables.is_empty(), "{} produced no tables", spec.id);
        for t in &out.tables {
            assert_eq!(t.x_values.len(), 5, "{}", t.title);
            for (name, series) in &t.rows {
                assert_eq!(series.len(), 5, "{}/{name}", t.title);
                assert!(
                    series.iter().all(|v| v.is_finite()),
                    "{}/{name}: {series:?}",
                    t.title
                );
            }
        }
    }
}

#[test]
fn headline_claims_hold_at_test_scale() {
    let _serial = serial();
    // The paper's most load-bearing qualitative claims, checked on the
    // real harness at reduced scale. Larger-scale runs live in
    // EXPERIMENTS.md. Timing-based claims (fig04) need sequential
    // execution and a non-trivial instance to rise above scheduler
    // noise, so that figure gets its own options.
    for (id, opts) in [
        (
            "fig04",
            RunOptions {
                scale: 0.2,
                n_batches: 2,
                parallel: false,
                ..tiny_opts()
            },
        ),
        ("fig07", tiny_opts()),
        ("fig17", tiny_opts()),
    ] {
        let spec = figures::find(id).unwrap();
        let out = runner::run_figure(&spec, &opts);
        let claims = expectations::check(&spec, &out);
        assert!(!claims.is_empty(), "{id} produced no claims");
        let failed: Vec<_> = claims.iter().filter(|c| !c.holds).collect();
        assert!(
            failed.is_empty(),
            "{id} claims failed:\n{}",
            expectations::render(&claims)
        );
    }
}

#[test]
fn relative_deviation_wiring_matches_direct_computation() {
    let _serial = serial();
    let scenario = Scenario {
        dataset: Dataset::Normal,
        batch_size: 100,
        n_batches: 1,
        ..Scenario::default()
    };
    let inst = &scenario.batches()[0];
    let params = RunParams::default();
    let p = measure(inst, &Method::Puce.run(inst, &params), 1.0, 1.0, true);
    let np = measure(inst, &Method::Uce.run(inst, &params), 1.0, 1.0, false);
    let rd = relative_deviation_utility(&np, &p);
    assert!((rd - (np.avg_utility() - p.avg_utility()) / np.avg_utility()).abs() < 1e-12);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let _serial = serial();
    let run = || {
        let scenario = Scenario {
            dataset: Dataset::Chengdu,
            batch_size: 120,
            n_batches: 2,
            ..Scenario::default()
        };
        let params = RunParams::default();
        scenario
            .batches()
            .iter()
            .map(|inst| {
                let o = Method::Puce.run(inst, &params);
                (
                    o.assignment.pairs().collect::<Vec<_>>(),
                    o.publications(),
                    o.rounds,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
