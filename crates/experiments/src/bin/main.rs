//! CLI for regenerating the paper's tables and figures, plus the
//! online `stream` mode.
//!
//! ```text
//! dpta-experiments --list
//! dpta-experiments --figure fig07 --scale 0.3
//! dpta-experiments --all --scale 0.1 --out results/ --verify
//! dpta-experiments stream --methods PUCE,PGT,GRD --window-secs 600
//! ```

use dpta_core::{Method, RunParams};
use dpta_experiments::{expectations, figures, report, runner, stream_cmd};
use dpta_stream::WindowPolicy;
use dpta_workloads::Dataset;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    figures: Vec<String>,
    all: bool,
    list: bool,
    scale: f64,
    batches: usize,
    seeds: usize,
    seed: u64,
    out: Option<PathBuf>,
    sequential: bool,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figures: Vec::new(),
        all: false,
        list: false,
        scale: 0.25,
        batches: 2,
        seeds: 1,
        seed: 42,
        out: None,
        sequential: false,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--figure" | "-f" => args.figures.push(next("--figure")?),
            "--all" => args.all = true,
            "--list" | "-l" => args.list = true,
            "--scale" => {
                args.scale = next("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--batches" => {
                args.batches = next("--batches")?
                    .parse()
                    .map_err(|e| format!("bad --batches: {e}"))?
            }
            "--seeds" => {
                args.seeds = next("--seeds")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--out" | "-o" => args.out = Some(PathBuf::from(next("--out")?)),
            "--sequential" => args.sequential = true,
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!(
        "dpta-experiments — regenerate the paper's tables and figures

USAGE:
  dpta-experiments [--figure figNN]... [--all] [options]
  dpta-experiments stream [stream options]

OPTIONS:
  -f, --figure <id>   run one experiment (repeatable); see --list
      --all           run every experiment in the registry
  -l, --list          list experiment ids and captions
      --scale <f>     batch-size scale; 1.0 = the paper's 1000-task
                      batches (default 0.25)
      --batches <n>   batches per sweep point (default 2)
      --seeds <n>     noise-seed replications per point (default 1)
      --seed <n>      master seed (default 42)
  -o, --out <dir>     write <id>.json and <id>.txt under <dir>
      --sequential    disable batch-level parallelism
      --verify        check the paper's qualitative claims and exit
                      non-zero if any fails

STREAM OPTIONS (dpta-experiments stream ...):
      --methods <a,b>      comma-separated method names
                           (default PUCE,PGT,GRD)
      --dataset <name>     chengdu | normal | uniform (default normal)
      --scale <f>          batch-size scale (default 0.1)
      --batches <n>        scenario batches streamed (default 2)
      --window-secs <f>    time-window width (default 600)
      --window-tasks <n>   count-threshold windows instead of time
      --ttl <n>            task time-to-live in windows (default 3)
      --capacity <f>       lifetime worker budget epsilon
                           (default infinite)
      --shards <CxR>       shard grid for the equivalence check
                           (default 2x2)
      --seed <n>           master seed (default 42)
      --halo               also run the boundary-halo analysis: a
                           bit-for-bit determinism gate against the
                           unsharded run on the disjoint witness, and
                           a recovered-utility report (halo vs
                           drop-pairs sharding) on a boundary-crossing
                           stream
      --adaptive           also run the adaptive-windowing comparison:
                           the latency-targeting controller vs a
                           3-point static width sweep on a bursty
                           arrival stream, reporting p95/mean latency,
                           utility and early/widened/narrowed window
                           counts; gated on adaptive strictly beating
                           the best static p95 at utility within 5 %
      --reentry            also run the worker re-entry comparison:
                           serve-and-leave (ServiceModel::Never) vs a
                           fixed service duration on a worker-scarce
                           stream, with per-cycle utilization columns;
                           gated on re-entry strictly raising fleet
                           utilization (matches per worker arrival)
      --resume             also run the durable-session smoke: snapshot
                           each method's session mid-stream, serialize
                           through JSON, restore and drain; gated on
                           the resumed run matching the uninterrupted
                           run bit for bit (fates, window cuts, spend
                           and the typed outcome log)
      --pacing             also run the budget-economics comparison:
                           lifetime accounting vs a sliding-window
                           ledger with the pacing controller on, on a
                           long-horizon worker-scarce stream under a
                           tight capacity; gated on the windowed ledger
                           sustaining strictly higher steady-state
                           matches per worker for every budget-spending
                           method
      --scale-sweep        also run the entity-scale sweep smoke: drain
                           the constant-density sweep stream at 10^3
                           and 10^4 entities and gate the fitted
                           growth exponent at sub-quadratic (n^1.8) —
                           the quick CI counterpart of `bench_gate
                           --scale-sweep`
  Exits non-zero if the sharded run does not match the unsharded run
  exactly on the shard-disjoint witness stream, or (with --halo) if
  the halo run diverges or fails to beat drop-pairs sharding, or
  (with --adaptive) if the adaptive gate fails, or (with --reentry)
  if the utilization gate fails, or (with --resume) if the restored
  session diverges, or (with --pacing) if the windowed ledger fails to
  beat lifetime accounting, or (with --scale-sweep) if drain time grows
  super-linearly in entity count."
    );
}

fn parse_stream_args(mut it: std::env::Args) -> Result<stream_cmd::StreamArgs, String> {
    let mut args = stream_cmd::StreamArgs::default();
    while let Some(a) = it.next() {
        let mut next = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--methods" => {
                let list = next("--methods")?;
                args.methods = list
                    .split(',')
                    .map(|name| {
                        Method::all()
                            .into_iter()
                            .find(|m| m.name().eq_ignore_ascii_case(name.trim()))
                            .ok_or_else(|| format!("unknown method: {name}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.methods.is_empty() {
                    return Err("--methods needs at least one name".into());
                }
            }
            "--dataset" => {
                let name = next("--dataset")?;
                args.dataset = Dataset::all()
                    .into_iter()
                    .find(|d| d.name().eq_ignore_ascii_case(name.trim()))
                    .ok_or_else(|| format!("unknown dataset: {name}"))?;
            }
            "--scale" => {
                args.scale = next("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if !(args.scale > 0.0 && args.scale.is_finite()) {
                    return Err(format!("--scale must be positive, got {}", args.scale));
                }
            }
            "--batches" => {
                args.batches = next("--batches")?
                    .parse()
                    .map_err(|e| format!("bad --batches: {e}"))?;
                if args.batches == 0 {
                    return Err("--batches must be at least 1".into());
                }
            }
            "--window-secs" => {
                let width = next("--window-secs")?
                    .parse()
                    .map_err(|e| format!("bad --window-secs: {e}"))?;
                args.policy = WindowPolicy::ByTime { width };
            }
            "--window-tasks" => {
                let tasks = next("--window-tasks")?
                    .parse()
                    .map_err(|e| format!("bad --window-tasks: {e}"))?;
                args.policy = WindowPolicy::ByCount { tasks };
            }
            "--ttl" => {
                args.ttl = next("--ttl")?
                    .parse()
                    .map_err(|e| format!("bad --ttl: {e}"))?;
            }
            "--capacity" => {
                args.capacity = next("--capacity")?
                    .parse()
                    .map_err(|e| format!("bad --capacity: {e}"))?;
            }
            "--shards" => {
                let spec = next("--shards")?;
                let (c, r) = spec
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("--shards wants CxR, got {spec}"))?;
                args.shards = (
                    c.parse().map_err(|e| format!("bad --shards: {e}"))?,
                    r.parse().map_err(|e| format!("bad --shards: {e}"))?,
                );
                if args.shards.0 == 0 || args.shards.1 == 0 {
                    return Err("--shards dimensions must be at least 1".into());
                }
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--halo" => args.halo = true,
            "--adaptive" => args.adaptive = true,
            "--reentry" => args.reentry = true,
            "--resume" => args.resume = true,
            "--pacing" => args.pacing = true,
            "--scale-sweep" => args.scale_sweep = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown stream argument: {other}")),
        }
    }
    args.config(&args.scenario())
        .validate()
        .map_err(|e| e.to_string())?;
    Ok(args)
}

fn main() -> ExitCode {
    let mut raw = std::env::args();
    raw.next(); // program name
    if raw.next().as_deref() == Some("stream") {
        return match parse_stream_args(raw) {
            Ok(args) => {
                if stream_cmd::run(&args) {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("sharded run diverged from unsharded run");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}\n");
                print_help();
                ExitCode::from(2)
            }
        };
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            return ExitCode::from(2);
        }
    };

    let registry = figures::registry();
    if args.list {
        for spec in &registry {
            println!(
                "{}  [{}]  {}",
                spec.id,
                spec.datasets
                    .iter()
                    .map(|d| d.name())
                    .collect::<Vec<_>>()
                    .join(", "),
                spec.caption
            );
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<_> = if args.all {
        registry
    } else if args.figures.is_empty() {
        eprintln!("error: pass --figure <id>, --all or --list\n");
        print_help();
        return ExitCode::from(2);
    } else {
        let mut specs = Vec::new();
        for id in &args.figures {
            match figures::find(id) {
                Some(s) => specs.push(s),
                None => {
                    eprintln!("error: unknown figure id {id} (try --list)");
                    return ExitCode::from(2);
                }
            }
        }
        specs
    };

    let opts = runner::RunOptions {
        scale: args.scale,
        n_batches: args.batches,
        params: RunParams::with_seed(args.seed),
        n_seeds: args.seeds,
        parallel: !args.sequential,
    };

    let mut all_hold = true;
    for spec in &selected {
        eprintln!(
            "running {} ({} x {} tasks/batch x {} batches)...",
            spec.id,
            spec.sweep.axis(),
            opts.batch_size(),
            opts.n_batches
        );
        let out = runner::run_figure(spec, &opts);
        print!("{}", report::render_figure(&out));
        if args.verify {
            let claims = expectations::check(spec, &out);
            print!("{}", expectations::render(&claims));
            println!();
            all_hold &= claims.iter().all(|c| c.holds);
        }
        if let Some(dir) = &args.out {
            match report::write_json(&out, dir) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => {
                    eprintln!("error writing results: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if args.verify && !all_hold {
        eprintln!("some paper claims did not hold at this scale/seed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
