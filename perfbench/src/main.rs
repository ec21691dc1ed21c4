//! Streaming benchmark over the public session API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--one-core-drain]
//! ```
//!
//! Prints one metric per line (name, value, unit, sample count) and, as
//! the last line, a JSON object with the run's verdict, the metrics and
//! the sample counts behind them. Exits 1 when a correctness check
//! fails, 2 on bad arguments. `perfbench/run.py` builds this program,
//! adds the environment record and prints the final result line.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod drain;
mod trace;
mod workloads;

use dpta_stream::{percentile, StreamDriver, TaskFate};
use drain::{Drain, RunReport, Setup};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_ms, total_ms, TimedEngine, Tracer};
use workloads::{check_sweep_fates, Mode, Workload};

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_S`] has passed (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    one_core_drain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut one_core_drain = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            "--one-core-drain" => one_core_drain = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
        one_core_drain,
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Observations behind the value (1 for an exact count).
    samples: usize,
}

/// The outcome of a run: the operations tried, the failed ones with
/// their reasons, and the figures.
#[derive(Default)]
struct Run {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts one attempted operation, failed when `check` is an error.
    fn check(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Process peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Runs `f`, turning a panic (a failed assertion inside the program or
/// a check) into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| Err(panic_message(e)))
}

/// Exact aggregates of a report; two drains of one stream must agree
/// on all of them.
#[derive(Debug, PartialEq)]
struct Summary {
    matched: usize,
    expired: usize,
    pending: usize,
    tasks: usize,
    utility: f64,
    epsilon: f64,
    wait_p95: f64,
    publications: usize,
    retired: usize,
    windows: usize,
    pool_mean: f64,
}

fn summarize(report: &RunReport) -> Summary {
    let parts = report.parts();
    let latencies: Vec<f64> = parts
        .iter()
        .flat_map(|r| r.fates.values())
        .filter_map(|f| match f {
            TaskFate::Assigned { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    let windows: Vec<_> = parts.iter().flat_map(|r| r.windows.iter()).collect();
    Summary {
        matched: parts.iter().map(|r| r.matched()).sum(),
        expired: parts.iter().map(|r| r.expired()).sum(),
        pending: parts.iter().map(|r| r.pending()).sum(),
        tasks: parts.iter().map(|r| r.task_arrivals).sum(),
        utility: parts.iter().map(|r| r.total_utility()).sum(),
        epsilon: parts.iter().map(|r| r.total_epsilon()).sum(),
        wait_p95: percentile(&latencies, 0.95),
        publications: windows.iter().map(|w| w.publications).sum(),
        retired: windows.iter().map(|w| w.workers_retired).sum(),
        windows: parts.iter().map(|r| r.windows.len()).max().unwrap_or(0),
        pool_mean: mean(
            &windows
                .iter()
                .map(|w| w.workers_available as f64)
                .collect::<Vec<_>>(),
        ),
    }
}

/// The checks every drain must pass: the conservation law on every
/// (shard) report, and on the sweeps the exact structure: every paired
/// task matched to its co-sited worker, every orphan unmatched, so 4/5
/// of the tasks match for any seed.
fn check_drain(wl: Workload, seed: u64, d: &Drain) -> Result<(), String> {
    for r in d.report.parts() {
        guarded(|| {
            r.assert_conservation();
            Ok(())
        })
        .map_err(|e| format!("conservation: {e}"))?;
    }
    match wl.sweep_sites() {
        Some(n) => check_sweep_fates(
            n,
            seed,
            d.report.parts().iter().flat_map(|r| r.fates.iter()),
        ),
        None => Ok(()),
    }
}

/// A session engine for `wl`, built the way the program builds it.
fn engine_for(wl: Workload, seed: u64) -> Box<dyn dpta_core::AssignmentEngine> {
    wl.method().engine(&wl.config(seed).params)
}

/// The wall-clock metrics of untraced drains: each is a per-drain
/// figure, and the run reports its median over the drains, so one
/// drain disturbed by the machine does not move it.
fn timing_metrics(run: &mut Run, drains: &[DrainStats]) {
    let over = |f: fn(&DrainStats) -> f64| median(&drains.iter().map(f).collect::<Vec<_>>());
    let windows: usize = drains.iter().map(|d| d.windows).sum();
    let checkpoints: usize = drains.iter().map(|d| d.checkpoints).sum();
    run.metric(
        "events_per_s",
        over(|d| d.events_per_s),
        "1/s",
        drains.len(),
    );
    run.metric("window_p50_ms", over(|d| d.window_p50_ms), "ms", windows);
    run.metric("window_p95_ms", over(|d| d.window_p95_ms), "ms", windows);
    run.metric(
        "checkpoint_ms",
        over(|d| d.checkpoint_ms),
        "ms",
        checkpoints,
    );
    run.metric("restore_ms", over(|d| d.restore_ms), "ms", checkpoints);
}

/// What is kept of a drain once its report has been checked.
struct DrainStats {
    events_per_s: f64,
    windows: usize,
    window_p50_ms: f64,
    window_p95_ms: f64,
    checkpoints: usize,
    /// Mean pause per checkpoint (`snapshot` + `to_json`).
    checkpoint_ms: f64,
    /// Mean `from_json` + `restore`.
    restore_ms: f64,
}

fn stats(d: &Drain) -> DrainStats {
    let cps = &d.checkpoints;
    DrainStats {
        events_per_s: d.events as f64 / d.drain_s,
        windows: d.window_ms.len(),
        window_p50_ms: percentile(&d.window_ms, 0.5),
        window_p95_ms: percentile(&d.window_ms, 0.95),
        checkpoints: cps.len(),
        checkpoint_ms: mean(
            &cps.iter()
                .map(|c| (c.capture + c.encode) * 1e3)
                .collect::<Vec<_>>(),
        ),
        restore_ms: mean(
            &cps.iter()
                .map(|c| (c.decode + c.restore) * 1e3)
                .collect::<Vec<_>>(),
        ),
    }
}

/// The exact output metrics of a report.
fn exact_metrics(run: &mut Run, report: &RunReport, max_snapshot: usize) {
    let s = summarize(report);
    run.metric("utility", s.utility, "utility", 1);
    run.metric(
        "matched_frac",
        s.matched as f64 / s.tasks as f64,
        "fraction",
        1,
    );
    run.metric("wait_p95_s", s.wait_p95, "event-s", s.matched);
    run.metric("snapshot_mb", max_snapshot as f64 / 1e6, "MB", 1);
}

/// Checks that run once per run, after the timed drains: halo against
/// an unsharded drain, and the durable workload against a drain that
/// never checkpoints.
fn reference_checks(
    run: &mut Run,
    wl: Workload,
    seed: u64,
    stream: &dpta_stream::ArrivalStream,
    last: &RunReport,
) {
    match wl {
        Workload::SweepHalo => {
            let engine = engine_for(wl, seed);
            let flat = StreamDriver::new(engine.as_ref(), wl.config(seed)).run(stream);
            let halo = summarize(last).matched;
            run.check(
                "halo matched equals flat matched",
                if halo == flat.matched() {
                    Ok(())
                } else {
                    Err(format!("halo matched {halo}, flat {}", flat.matched()))
                },
            );
        }
        Workload::SweepDurable => {
            let engine = engine_for(wl, seed);
            let plain = StreamDriver::new(engine.as_ref(), wl.config(seed)).run(stream);
            let same =
                matches!(last, RunReport::Flat(r) if r.without_timing() == plain.without_timing());
            run.check(
                "checkpointed drain equals uninterrupted drain",
                if same {
                    Ok(())
                } else {
                    Err("reports differ under without_timing()".into())
                },
            );
        }
        _ => {}
    }
}

/// `--trace 0`: set-up time, then untraced drains for `seconds`.
fn run_untraced(args: &Args) -> Run {
    let (wl, seed) = (args.workload, args.seed);
    let mut run = Run::default();
    let mut setup_s = Vec::new();
    let mut stream = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(stream.take());
        let start = Instant::now();
        let s = wl.stream(seed);
        let engine = engine_for(wl, seed);
        let partition = wl.partition();
        Setup::new(wl, seed, engine.as_ref(), partition.as_ref()).construct();
        setup_s.push(start.elapsed().as_secs_f64());
        stream = Some(s);
    }
    let stream = stream.expect("at least one set-up");
    run.metric("setup_s", median(&setup_s), "s", setup_s.len());

    let inner = engine_for(wl, seed);
    let partition = wl.partition();
    let mut drains = Vec::new();
    let mut first: Option<Summary> = None;
    let mut last: Option<RunReport> = None;
    let mut max_snapshot = 0usize;
    let start = Instant::now();
    loop {
        // Only one drain's report is alive at a time, so the peak
        // resident set is that of one drain.
        drop(last.take());
        let setup = Setup::new(wl, seed, inner.as_ref(), partition.as_ref());
        let result = guarded(|| {
            let d = setup.drain(&stream, None);
            check_drain(wl, seed, &d)?;
            let fp = summarize(&d.report);
            match &first {
                Some(f) if *f != fp => {
                    return Err(format!("drain differs from the first: {fp:?} vs {f:?}"))
                }
                Some(_) => {}
                None => first = Some(fp),
            }
            Ok(d)
        });
        run.attempted += 1;
        match result {
            Ok(d) => {
                println!(
                    "drain {}: {:.3} s, {:.0} events/s",
                    drains.len() + 1,
                    d.drain_s,
                    d.events as f64 / d.drain_s
                );
                drains.push(stats(&d));
                max_snapshot = d
                    .checkpoints
                    .iter()
                    .map(|c| c.bytes)
                    .fold(max_snapshot, usize::max);
                last = Some(d.report);
            }
            Err(e) => {
                run.failures.push(format!("drain: {e}"));
                break;
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    timing_metrics(&mut run, &drains);
    if let Some(last) = &last {
        exact_metrics(&mut run, last, max_snapshot);
        reference_checks(&mut run, wl, seed, &stream, last);
    }
    run
}

/// Per-layer figures of one traced drain.
#[derive(Default, Clone)]
struct Layers {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map_or(0.0, |v| v.1)
    }
}

fn layers(wl: Workload, d: &Drain, spans: &[trace::Span], engine: &TimedEngine<'_>) -> Layers {
    use std::sync::atomic::Ordering::Relaxed;
    let mut l = Layers::default();
    let s = summarize(&d.report);
    let drain_ms = d.drain_s * 1e3;
    let counted = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count as f64)
            .sum::<f64>()
    };
    let flat = wl.mode() == Mode::Flat;

    let push_ms = total_ms(spans, "session.push");
    let pushed = counted("session.push");
    l.add("session.push_ms", push_ms, "ms");
    l.add(
        "session.push_ns_per_event",
        if pushed > 0.0 {
            push_ms * 1e6 / pushed
        } else {
            0.0
        },
        "ns",
    );
    l.add("session.events", pushed, "count");
    l.add(
        "session.advance_ms",
        total_ms(spans, "session.advance_to"),
        "ms",
    );
    l.add(
        "session.self_ms",
        self_ms(spans, "session.advance_to"),
        "ms",
    );
    l.add(
        "session.windows",
        if flat { s.windows as f64 } else { 0.0 },
        "count",
    );
    l.add(
        "session.pool_mean",
        if flat { s.pool_mean } else { 0.0 },
        "workers",
    );
    l.add(
        "session.poll_ms",
        total_ms(spans, "session.poll_outcomes"),
        "ms",
    );
    l.add("session.outcomes", d.outcomes as f64, "count");
    l.add("session.close_ms", total_ms(spans, "session.close"), "ms");

    let c = &engine.counters;
    let drive_ms = total_ms(spans, "engine.drive");
    let cells = c.cells.load(Relaxed) as f64;
    l.add("engine.drive_ms", drive_ms, "ms");
    l.add("engine.calls", c.calls.load(Relaxed) as f64, "count");
    l.add("engine.cells", cells, "count");
    l.add("engine.share", drive_ms / drain_ms, "fraction");
    l.add(
        "engine.publications",
        c.publications.load(Relaxed) as f64,
        "count",
    );
    l.add("engine.rounds", c.rounds.load(Relaxed) as f64, "count");
    l.add(
        "engine.matches_per_mcell",
        if cells > 0.0 {
            s.matched as f64 / (cells / 1e6)
        } else {
            0.0
        },
        "1/Mcell",
    );

    let per_match = |x: f64| {
        if s.matched > 0 {
            x / s.matched as f64
        } else {
            0.0
        }
    };
    l.add("ledger.epsilon_spent", s.epsilon, "epsilon");
    l.add("ledger.epsilon_per_match", per_match(s.epsilon), "epsilon");
    l.add(
        "ledger.publications_per_match",
        per_match(s.publications as f64),
        "count",
    );
    l.add("ledger.workers_retired", s.retired as f64, "count");

    l.add("halo.push_ms", total_ms(spans, "halo.push"), "ms");
    l.add("halo.advance_ms", total_ms(spans, "halo.advance_to"), "ms");
    l.add("halo.self_ms", self_ms(spans, "halo.advance_to"), "ms");
    l.add("halo.close_ms", total_ms(spans, "halo.close"), "ms");
    l.add(
        "halo.drives_per_window",
        if flat {
            0.0
        } else {
            c.calls.load(Relaxed) as f64 / s.windows.max(1) as f64
        },
        "count",
    );
    l.add(
        "halo.drive_threads",
        if flat {
            0.0
        } else {
            drive_threads(spans) as f64
        },
        "count",
    );

    let cp = |f: fn(&drain::Checkpoint) -> f64| d.checkpoints.iter().map(f).sum::<f64>() * 1e3;
    l.add("snapshot.capture_ms", cp(|c| c.capture), "ms");
    l.add("snapshot.encode_ms", cp(|c| c.encode), "ms");
    l.add("snapshot.decode_ms", cp(|c| c.decode), "ms");
    l.add("snapshot.restore_ms", cp(|c| c.restore), "ms");
    l.add(
        "snapshot.bytes",
        d.checkpoints.iter().map(|c| c.bytes).max().unwrap_or(0) as f64,
        "bytes",
    );
    l.add("snapshot.count", d.checkpoints.len() as f64, "count");

    let covered: f64 = [
        "session.push",
        "session.advance_to",
        "session.poll_outcomes",
        "session.close",
        "halo.push",
        "halo.advance_to",
        "halo.close",
    ]
    .iter()
    .map(|n| total_ms(spans, n))
    .sum();
    l.add("trace.drain_ms", drain_ms, "ms");
    l.add("trace.coverage", covered / drain_ms, "fraction");
    l
}

/// The most threads that ran engine drives under one `advance_to`.
fn drive_threads(spans: &[trace::Span]) -> usize {
    let mut by_parent: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        Default::default();
    for s in spans.iter().filter(|s| s.name == "engine.drive") {
        if let Some(p) = s.parent {
            by_parent.entry(p).or_default().insert(s.thread);
        }
    }
    by_parent.values().map(|t| t.len()).max().unwrap_or(0)
}

/// `--trace 1`: alternating untraced and traced drains for `seconds`;
/// per-layer figures are means over the traced drains.
fn run_traced(args: &Args) -> Run {
    let (wl, seed) = (args.workload, args.seed);
    let mut run = Run::default();
    let stream = wl.stream(seed);
    let inner = engine_for(wl, seed);
    let partition = wl.partition();
    let mut untraced_eps = Vec::new();
    let mut traced_eps = Vec::new();
    let mut sums: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut traced = 0usize;
    let mut tracer_out = None;
    let start = Instant::now();
    loop {
        // The untraced drain runs the bare engine, so the comparison
        // below also checks that the wrapper forwards every method.
        let plain = Setup::new(wl, seed, inner.as_ref(), partition.as_ref());
        let untraced = guarded(|| {
            let d = plain.drain(&stream, None);
            check_drain(wl, seed, &d)?;
            Ok(d)
        });
        run.attempted += 1;
        let untraced = match untraced {
            Ok(d) => d,
            Err(e) => {
                run.failures.push(format!("untraced drain: {e}"));
                break;
            }
        };
        untraced_eps.push(untraced.events as f64 / untraced.drain_s);
        let base = untraced.report.without_timing();
        let base_digests: Vec<u64> = untraced.checkpoints.iter().map(|c| c.digest).collect();
        drop(untraced);

        let tracer = Tracer::new();
        let engine = TimedEngine::new(inner.as_ref(), &tracer);
        let setup = Setup::new(wl, seed, &engine, partition.as_ref());
        let result = guarded(|| {
            let d = setup.drain(&stream, Some(&tracer));
            check_drain(wl, seed, &d)?;
            if d.report.without_timing() != base {
                return Err(
                    "traced report differs from the untraced one under without_timing()".into(),
                );
            }
            if d.checkpoints
                .iter()
                .map(|c| c.digest)
                .ne(base_digests.iter().copied())
            {
                return Err("traced snapshots differ from the untraced ones".into());
            }
            Ok(d)
        });
        run.attempted += 1;
        match result {
            Ok(d) => {
                traced_eps.push(d.events as f64 / d.drain_s);
                let spans = tracer.spans();
                let l = layers(wl, &d, &spans, &engine);
                // The session-call spans must account for the drain.
                let coverage = l.get("trace.coverage");
                run.check(
                    "spans cover the traced drain within 10 %",
                    if (0.9..=1.1).contains(&coverage) {
                        Ok(())
                    } else {
                        Err(format!("session spans cover {coverage:.3} of the drain"))
                    },
                );
                if sums.is_empty() {
                    sums = l.values.clone();
                } else {
                    for (acc, v) in sums.iter_mut().zip(&l.values) {
                        acc.1 += v.1;
                    }
                }
                traced += 1;
                tracer_out = Some(tracer);
            }
            Err(e) => {
                run.failures.push(format!("traced drain: {e}"));
                break;
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    for (name, total, unit) in sums {
        run.metric(name, total / traced as f64, unit, traced);
    }
    // Filled in by run.py, which drains sweep-halo under a one-CPU mask.
    run.metric("halo.one_core_s", 0.0, "s", 0);
    let (u, t) = (median(&untraced_eps), median(&traced_eps));
    run.metric("trace.untraced_events_per_s", u, "1/s", untraced_eps.len());
    run.metric("trace.events_per_s", t, "1/s", traced_eps.len());
    run.metric(
        "trace.overhead",
        if t > 0.0 { u / t - 1.0 } else { 0.0 },
        "fraction",
        traced_eps.len(),
    );
    if let (Some(path), Some(tracer)) = (&args.trace_out, &tracer_out) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                tracer.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            run.failures.push(format!("writing {path}: {e}"));
        }
    }
    run
}

/// `--one-core-drain`: one untraced drain; prints its wall time. Run
/// under a one-CPU affinity mask, this is the halo baseline.
fn run_one_core(args: &Args) -> Run {
    let (wl, seed) = (args.workload, args.seed);
    let mut run = Run::default();
    let stream = wl.stream(seed);
    let inner = engine_for(wl, seed);
    let partition = wl.partition();
    let setup = Setup::new(wl, seed, inner.as_ref(), partition.as_ref());
    let result = guarded(|| {
        let d = setup.drain(&stream, None);
        check_drain(wl, seed, &d)?;
        Ok(d.drain_s)
    });
    run.attempted += 1;
    match result {
        Ok(s) => run.metric("halo.one_core_s", s, "s", 1),
        Err(e) => run.failures.push(format!("one-core drain: {e}")),
    }
    run
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep-flat|sweep-halo|city-puce|sweep-durable> \
                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--one-core-drain]"
            );
            return ExitCode::from(2);
        }
    };
    let mut run = if args.one_core_drain {
        run_one_core(&args)
    } else if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for m in &mut run.metrics {
        if !m.value.is_finite() {
            run.failures.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    println!(
        "# {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &run.metrics {
        println!(
            "{:<34} {:>18.6} {:<9} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &run.failures {
        println!("FAILED {f}");
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let samples: Vec<String> = run
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(m.name), m.samples))
        .collect();
    let failures: Vec<String> = run.failures.iter().map(|f| json_str(f)).collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"samples\":{{{}}},\"failures\":[{}],\"available_parallelism\":{}}}",
        run.failures.is_empty(),
        run.attempted.max(run.failures.len()).max(1),
        run.failures.len(),
        metrics.join(","),
        samples.join(","),
        failures.join(","),
        parallelism
    );
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
