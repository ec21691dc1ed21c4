//! The CI bench-trajectory gate.
//!
//! Runs the five streaming benches (`time_to_drain`, `halo_sharding`,
//! `adaptive_window`, `reentry_drain`, `windowed_ledger`) with the
//! criterion shim's machine-readable JSON output (`halo_sharding` on
//! one CPU, through `taskset`; Linux only), assembles
//! `BENCH_stream.json` (median ns per bench id), prints the derived
//! cost-ratio columns (halo/drop-pairs, adaptive/static), and compares
//! the fresh medians against the committed baseline at the repo root:
//! any benchmark more than `--max-ratio` (default 3×) slower fails the
//! gate. On the first run — no committed baseline — the fresh
//! trajectory is written to the baseline path so CI can commit it. A
//! bench with no committed baseline entries is reported as new and not
//! gated. Every trajectory records the run's environment in its `_env`
//! metadata group (available parallelism and build profile); a changed
//! environment is printed as a note, never gated.
//!
//! `--scale-sweep` additionally runs the `scale_sweep` bench (drain
//! wall time at 10³ → 10⁵ entities, 10⁶ behind `SCALE_SWEEP_FULL=1`),
//! records each scaled id's entity count in the trajectory's `_scales`
//! metadata group so future runs compare like-for-like, and fits the
//! growth exponent between consecutive scales: any curve steeper than
//! `--max-scale-exponent` (default n^1.7 — super-linear drift well
//! before quadratic) fails the gate, baseline or not.
//!
//! ```text
//! cargo run --release -p dpta-bench --bin bench_gate -- \
//!     --quick --scale-sweep \
//!     --baseline BENCH_stream.json --fresh-out BENCH_stream.fresh.json
//! ```

use dpta_bench::{
    compare_trajectories, entity_scale, env_group, last_allowed_cpu, parse_bench_lines,
    parse_trajectory, ratio_columns, render_trajectory, scale_exponents, scale_regressions,
    BenchTrajectory, ENV_GROUP, SCALES_GROUP,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The bench binaries the trajectory always tracks, in run order
/// (`--scale-sweep` appends the `scale_sweep` sweep).
const BENCHES: [&str; 5] = [
    "time_to_drain",
    "halo_sharding",
    "adaptive_window",
    "reentry_drain",
    "windowed_ledger",
];

/// The benches run under a one-CPU affinity mask. Their halo ids drive
/// shards over a scoped-thread pool whose start-up and wake-up swing
/// with host load far more than the drives they time; on one CPU
/// `available_parallelism()` is 1 and the pool drives every shard on
/// the calling thread, as perfbench's end-to-end sweep-halo run does.
const PINNED: [&str; 1] = ["halo_sharding"];

struct Args {
    quick: bool,
    baseline: PathBuf,
    fresh_out: Option<PathBuf>,
    max_ratio: f64,
    scale_sweep: bool,
    max_scale_exponent: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        baseline: PathBuf::from("BENCH_stream.json"),
        fresh_out: None,
        max_ratio: 3.0,
        scale_sweep: false,
        max_scale_exponent: 1.7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--baseline" => args.baseline = PathBuf::from(next("--baseline")?),
            "--fresh-out" => args.fresh_out = Some(PathBuf::from(next("--fresh-out")?)),
            "--max-ratio" => {
                args.max_ratio = next("--max-ratio")?
                    .parse()
                    .map_err(|e| format!("bad --max-ratio: {e}"))?;
                if !(args.max_ratio > 1.0 && args.max_ratio.is_finite()) {
                    return Err("--max-ratio must be a finite ratio above 1".into());
                }
            }
            "--scale-sweep" => args.scale_sweep = true,
            "--max-scale-exponent" => {
                args.max_scale_exponent = next("--max-scale-exponent")?
                    .parse()
                    .map_err(|e| format!("bad --max-scale-exponent: {e}"))?;
                if !(args.max_scale_exponent > 1.0 && args.max_scale_exponent.is_finite()) {
                    return Err("--max-scale-exponent must be a finite exponent above 1".into());
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Runs one bench binary with the shim's JSON output redirected to
/// `jsonl`, returning its parsed `(id, median_ns)` rows. With `pin`
/// set, the bench is built first and then run under `taskset` on that
/// CPU alone, so the build keeps every CPU.
fn run_bench(
    name: &str,
    jsonl: &PathBuf,
    quick: bool,
    pin: Option<usize>,
) -> Result<Vec<(String, f64)>, String> {
    let _ = std::fs::remove_file(jsonl);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let bench = ["bench", "-p", "dpta-bench", "--bench", name];
    let mut cmd = match pin {
        None => Command::new(&cargo),
        Some(cpu) => {
            let built = Command::new(&cargo)
                .args(bench)
                .arg("--no-run")
                .status()
                .map_err(|e| format!("could not spawn cargo bench --bench {name}: {e}"))?;
            if !built.success() {
                return Err(format!(
                    "cargo bench --bench {name} --no-run failed: {built}"
                ));
            }
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", &cpu.to_string(), &cargo]);
            taskset
        }
    };
    cmd.args(bench).env("CRITERION_JSON", jsonl);
    if quick {
        cmd.env("CRITERION_QUICK", "1");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("could not spawn cargo bench --bench {name}: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench --bench {name} failed: {status}"));
    }
    let text = std::fs::read_to_string(jsonl)
        .map_err(|e| format!("bench {name} wrote no JSON at {}: {e}", jsonl.display()))?;
    let rows = parse_bench_lines(&text).map_err(|e| format!("bench {name}: {e}"))?;
    if rows.is_empty() {
        return Err(format!("bench {name} produced no measurements"));
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let jsonl = std::env::temp_dir().join(format!("bench_gate_{}.jsonl", std::process::id()));
    let mut benches: Vec<&str> = BENCHES.to_vec();
    if args.scale_sweep {
        benches.push("scale_sweep");
    }
    let mut fresh: BenchTrajectory = BTreeMap::new();
    for name in benches {
        let pin = if PINNED.contains(&name) {
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            match last_allowed_cpu(&status) {
                Some(cpu) => Some(cpu),
                None => {
                    eprintln!("error: {name} runs pinned, but no CPU affinity list was readable");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            None
        };
        eprintln!(
            "bench_gate: running {name} ({}{})",
            if args.quick { "quick" } else { "full" },
            pin.map_or(String::new(), |cpu| format!(", pinned to CPU {cpu}"))
        );
        match run_bench(name, &jsonl, args.quick, pin) {
            Ok(rows) => {
                fresh.insert(name.to_string(), rows.into_iter().collect());
            }
            Err(e) => {
                eprintln!("error: {e}");
                let _ = std::fs::remove_file(&jsonl);
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_file(&jsonl);

    // Record the entity count behind every scaled benchmark id (the
    // `_scales` metadata group), so this trajectory — the first-run
    // auto-seed included — documents what scale each median was taken
    // at and future sweeps compare like-for-like.
    let scales: BTreeMap<String, f64> = fresh
        .values()
        .flat_map(|ids| ids.keys())
        .filter_map(|id| entity_scale(id).map(|n| (id.clone(), n)))
        .collect();
    if !scales.is_empty() {
        fresh.insert(SCALES_GROUP.to_string(), scales);
    }
    // Every bench runs under `cargo bench`, hence the `bench` profile.
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    fresh.insert(ENV_GROUP.to_string(), env_group(parallelism, "bench"));

    for col in ratio_columns(&fresh) {
        eprintln!("bench_gate: ratio: {col}");
    }

    // The scale-sweep drift gate: medians across the sweep's entity
    // scales must stay sub-quadratic, whether or not a committed
    // baseline exists yet.
    let mut drift = Vec::new();
    if let Some(ids) = fresh.get("scale_sweep") {
        let fits = scale_exponents(ids);
        for fit in &fits {
            eprintln!("bench_gate: scale: {fit}");
        }
        drift = scale_regressions(&fits, args.max_scale_exponent);
    }

    let rendered = render_trajectory(&fresh);
    if let Some(out) = &args.fresh_out {
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("error: could not write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench_gate: fresh trajectory written to {}", out.display());
    }

    let baseline_text = match std::fs::read_to_string(&args.baseline) {
        Ok(t) => t,
        Err(_) => {
            // First run: seed the baseline so CI can commit it.
            if let Err(e) = std::fs::write(&args.baseline, &rendered) {
                eprintln!(
                    "error: could not seed baseline {}: {e}",
                    args.baseline.display()
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "bench_gate: no baseline at {} — seeded it from this run (commit it)",
                args.baseline.display()
            );
            return finish(Vec::new(), drift, args.max_ratio, args.max_scale_exponent);
        }
    };
    let baseline = match parse_trajectory(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "error: baseline {} is unreadable: {e}",
                args.baseline.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let (regressions, notes) = compare_trajectories(&baseline, &fresh, args.max_ratio);
    for n in &notes {
        eprintln!("bench_gate: note: {n}");
    }
    finish(regressions, drift, args.max_ratio, args.max_scale_exponent)
}

/// Prints the verdict and maps the two failure classes — baseline
/// ratio regressions and scale-sweep drift — onto the exit code.
fn finish(
    regressions: Vec<String>,
    drift: Vec<String>,
    max_ratio: f64,
    max_scale_exponent: f64,
) -> ExitCode {
    if !regressions.is_empty() {
        eprintln!(
            "bench_gate: FAILED — {} bench(es) regressed past {:.1}×:",
            regressions.len(),
            max_ratio
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
    }
    if !drift.is_empty() {
        eprintln!(
            "bench_gate: FAILED — {} sweep curve(s) drifted past n^{:.2}:",
            drift.len(),
            max_scale_exponent
        );
        for d in &drift {
            eprintln!("  {d}");
        }
    }
    if regressions.is_empty() && drift.is_empty() {
        eprintln!(
            "bench_gate: OK — no bench slower than {max_ratio:.1}× its committed baseline, \
             no sweep curve past n^{max_scale_exponent:.2}"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
