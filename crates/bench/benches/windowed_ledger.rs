//! Budget-ledger drain cost — wall time for the push-based
//! `StreamSession` to drain a bursty arrival stream under each
//! accounting policy: a lifetime `Ledger` vs a sliding-window one
//! (`Ledger::windowed`, with the pacing controller on). The windowed
//! ledger stamps every charge and pops aged entries at each window cut,
//! so this is where a regression in the reclamation path or the
//! per-window EMA update would surface.
//!
//! Tracked by `bench_gate` in `BENCH_stream.json` from the budget
//! economics redesign onward.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpta_core::Method;
use dpta_stream::{
    ArrivalModel, ArrivalStream, LedgerMode, PacingConfig, ServiceModel, StreamConfig,
    StreamScenario, StreamSession, WindowPolicy,
};
use dpta_workloads::{Dataset, Scenario};
use std::hint::black_box;
use std::time::Duration;

fn bench_stream(scale: f64) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            dataset: Dataset::Normal,
            batch_size: ((1000.0 * scale).round() as usize).max(20),
            n_batches: 2,
            ..Scenario::default()
        },
        task_model: ArrivalModel::Bursty {
            base_rate: 0.05,
            burst_rate: 0.5,
            period: 600.0,
            burst_fraction: 0.25,
        },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 0.8,
    }
    .stream()
}

fn drain(engine: &dyn dpta_core::AssignmentEngine, cfg: &StreamConfig, stream: &ArrivalStream) {
    let mut session = StreamSession::new(engine, cfg.clone());
    for e in stream.events() {
        session.push(*e);
    }
    black_box(session.close());
}

fn windowed_ledger(c: &mut Criterion) {
    let stream = bench_stream(0.1);
    let mut group = c.benchmark_group("windowed_ledger");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    let modes: [(&str, LedgerMode, Option<PacingConfig>); 3] = [
        ("lifetime", LedgerMode::Lifetime, None),
        (
            "windowed900s",
            LedgerMode::Windowed { window_secs: 900.0 },
            None,
        ),
        (
            "windowed900s_paced",
            LedgerMode::Windowed { window_secs: 900.0 },
            Some(PacingConfig { horizon_windows: 3 }),
        ),
    ];
    for (mode_name, ledger, pacing) in modes {
        for method in [Method::Puce, Method::Grd] {
            let cfg = StreamConfig::builder()
                .policy(WindowPolicy::ByTime { width: 300.0 })
                .worker_capacity(1.5)
                .service(ServiceModel::Fixed { secs: 240.0 })
                .ledger(ledger)
                .pacing(pacing)
                .build()
                .expect("valid bench configuration");
            let engine = method.engine(&cfg.params);
            group.bench_with_input(
                BenchmarkId::new(method.name(), mode_name),
                &stream,
                |b, stream| b.iter(|| drain(engine.as_ref(), &cfg, black_box(stream))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, windowed_ledger);
criterion_main!(benches);
