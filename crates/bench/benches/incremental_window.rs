//! Incremental instance maintenance vs from-scratch rebuilds — the
//! PR 6 tentpole measured directly at the model layer.
//!
//! A streaming pipeline holds a live entity set that churns a little
//! every window (arrivals in, matched/expired out) while most of the
//! set survives. Rebuilding the [`Instance`] each window pays the full
//! reach resolution (grid build plus one disc query per worker) every
//! time; maintaining a [`DeltaInstance`] pays O(churn × affected cells)
//! per window plus a linear emission. Both modes emit keyed instances,
//! drawing budgets from the same [`SeededBudgets`] source on demand. The gap therefore widens with the
//! window count at fixed churn — exactly the trajectory this bench
//! sweeps (`w4` → `w64`), with both modes ending on an identical
//! instance sequence (the `incremental_properties` suite proves that
//! bit for bit; this bench only times it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpta_core::{DeltaInstance, Instance, Task, Worker};
use dpta_dp::SeededBudgets;
use dpta_spatial::Point;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

/// Steady-state live-set sizes and per-window churn: ~12% of tasks and
/// ~13% of workers turn over each window, the regime the streaming
/// drivers sit in between bursts.
const LIVE_TASKS: usize = 240;
const LIVE_WORKERS: usize = 60;
const TASK_CHURN: usize = 30;
const WORKER_CHURN: usize = 8;

/// Deterministic low-discrepancy position for entity `id`: golden-
/// ratio rotation fills the frame evenly, so reach sets stay dense and
/// every window's instance has real edge structure.
fn spot(id: u64) -> Point {
    let g = (id as f64 * 0.618_033_988_749_895).fract();
    let h = (id as f64 * 0.754_877_666_246_693).fract();
    Point::new(g * 100.0, h * 100.0)
}

fn task_at(id: u64) -> Task {
    Task::new(spot(id ^ 0x9E37), 4.0)
}

fn worker_at(id: u64) -> Worker {
    Worker::new(spot(id.wrapping_mul(3) ^ 0x51_7CC1), 9.0)
}

/// Drives `windows` churn rounds rebuilding the instance from scratch
/// each window. Returns a checksum so the work cannot be elided.
fn run_scratch(gen: SeededBudgets, windows: usize) -> usize {
    let mut tasks: VecDeque<(u64, Task)> =
        (0..LIVE_TASKS as u64).map(|id| (id, task_at(id))).collect();
    let mut workers: VecDeque<(u64, Worker)> = (0..LIVE_WORKERS as u64)
        .map(|id| (id, worker_at(id)))
        .collect();
    let mut next_task = LIVE_TASKS as u64;
    let mut next_worker = LIVE_WORKERS as u64;
    let mut pairs = 0usize;
    for _ in 0..windows {
        for _ in 0..TASK_CHURN {
            tasks.pop_front();
            tasks.push_back((next_task, task_at(next_task)));
            next_task += 1;
        }
        for _ in 0..WORKER_CHURN {
            workers.pop_front();
            workers.push_back((next_worker, worker_at(next_worker)));
            next_worker += 1;
        }
        let inst = Instance::from_keyed_locations(
            tasks.iter().map(|&(_, t)| t).collect(),
            workers.iter().map(|&(_, w)| w).collect(),
            gen,
            tasks.iter().map(|&(id, _)| id).collect(),
            workers.iter().map(|&(id, _)| id).collect(),
        );
        pairs += black_box(inst.feasible_pairs());
    }
    pairs
}

/// The same churn rounds against a maintained [`DeltaInstance`]: diffs
/// in, emission out.
fn run_delta(gen: SeededBudgets, windows: usize) -> usize {
    let mut delta = DeltaInstance::new(gen);
    let mut task_ids: VecDeque<u64> = (0..LIVE_TASKS as u64).collect();
    let mut worker_ids: VecDeque<u64> = (0..LIVE_WORKERS as u64).collect();
    for &id in &task_ids {
        delta.insert_task(id, task_at(id));
    }
    for &id in &worker_ids {
        delta.insert_worker(id, worker_at(id));
    }
    let mut next_task = LIVE_TASKS as u64;
    let mut next_worker = LIVE_WORKERS as u64;
    let mut pairs = 0usize;
    for _ in 0..windows {
        for _ in 0..TASK_CHURN {
            let old = task_ids.pop_front().expect("live task");
            delta.remove_task(old);
            delta.insert_task(next_task, task_at(next_task));
            task_ids.push_back(next_task);
            next_task += 1;
        }
        for _ in 0..WORKER_CHURN {
            let old = worker_ids.pop_front().expect("live worker");
            delta.remove_worker(old);
            delta.insert_worker(next_worker, worker_at(next_worker));
            worker_ids.push_back(next_worker);
            next_worker += 1;
        }
        let inst = delta.instance();
        pairs += black_box(inst.feasible_pairs());
    }
    pairs
}

fn incremental_window(c: &mut Criterion) {
    let gen = SeededBudgets::new(0xA11_0CA7E, 0, (0.2, 1.0), 4);
    // Same churn trajectory in both modes — sanity-check the checksums
    // agree before timing anything.
    assert_eq!(run_scratch(gen, 4), run_delta(gen, 4));

    let mut group = c.benchmark_group("incremental_window");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for windows in [4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("scratch", format!("w{windows}")),
            &windows,
            |b, &w| b.iter(|| black_box(run_scratch(gen, black_box(w)))),
        );
        group.bench_with_input(
            BenchmarkId::new("delta", format!("w{windows}")),
            &windows,
            |b, &w| b.iter(|| black_box(run_delta(gen, black_box(w)))),
        );
    }
    group.finish();
}

criterion_group!(benches, incremental_window);
criterion_main!(benches);
