//! Shared helpers for the Criterion benches (the benches themselves
//! live under `benches/`, one per paper figure group), plus the pure
//! half of the `bench_gate` binary: parsing the criterion shim's
//! JSON-lines output, assembling the `BENCH_stream.json` trajectory
//! file, and comparing a fresh run against the committed baseline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use dpta_core::RunParams;
use dpta_experiments::report::render_figure;
use dpta_experiments::{figures, runner, RunOptions};
use dpta_workloads::{Dataset, Scenario};
use serde::Deserialize as _;
use std::collections::{BTreeMap, BTreeSet};

/// Median nanoseconds per benchmark id, grouped by bench binary — the
/// shape of `BENCH_stream.json`.
pub type BenchTrajectory = BTreeMap<String, BTreeMap<String, f64>>;

/// Parses the criterion shim's `CRITERION_JSON` lines (one object per
/// benchmark) into `(id, median_ns)` pairs, skipping blank lines.
/// Returns an error message naming the first malformed line.
pub fn parse_bench_lines(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", k + 1))?;
        let id = match v.get("id") {
            Some(serde::Value::String(s)) => s.clone(),
            _ => return Err(format!("line {}: missing string \"id\"", k + 1)),
        };
        let median = match v.get("median_ns") {
            Some(serde::Value::Number(n)) => *n,
            _ => return Err(format!("line {}: missing numeric \"median_ns\"", k + 1)),
        };
        out.push((id, median));
    }
    Ok(out)
}

/// Renders a trajectory as the pretty JSON committed at the repo root.
pub fn render_trajectory(t: &BenchTrajectory) -> String {
    let mut text = serde_json::to_string_pretty(t).expect("trajectory serializes");
    text.push('\n');
    text
}

/// Parses a committed trajectory file.
pub fn parse_trajectory(text: &str) -> Result<BenchTrajectory, String> {
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    BenchTrajectory::deserialize_value(&v).map_err(|e| e.to_string())
}

/// Compares a fresh trajectory against the baseline: any shared bench
/// id whose fresh median exceeds `max_ratio ×` the baseline median is
/// a regression. Ids present on only one side are reported as notes,
/// never failures (benches come and go across PRs). The [`ENV_GROUP`]
/// is never gated: each entry that differs between the two runs is a
/// note.
pub fn compare_trajectories(
    baseline: &BenchTrajectory,
    fresh: &BenchTrajectory,
    max_ratio: f64,
) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut notes = Vec::new();
    let no_env = BTreeMap::new();
    let base_env = baseline.get(ENV_GROUP).unwrap_or(&no_env);
    let fresh_env = fresh.get(ENV_GROUP).unwrap_or(&no_env);
    let env_keys: BTreeSet<&String> = base_env.keys().chain(fresh_env.keys()).collect();
    for key in env_keys {
        let (was, now) = (base_env.get(key), fresh_env.get(key));
        if was != now {
            let show = |v: Option<&f64>| v.map_or("unset".to_string(), f64::to_string);
            notes.push(format!(
                "{ENV_GROUP}: {key} differs from the baseline ({} -> {})",
                show(was),
                show(now)
            ));
        }
    }
    for (bench, base_ids) in baseline {
        if bench == ENV_GROUP {
            continue;
        }
        let Some(fresh_ids) = fresh.get(bench) else {
            notes.push(format!("bench {bench} missing from the fresh run"));
            continue;
        };
        for (id, &base) in base_ids {
            match fresh_ids.get(id) {
                Some(&now) if base > 0.0 && now > max_ratio * base => {
                    regressions.push(format!(
                        "{bench}: {id} regressed {:.1}× ({:.0} ns -> {:.0} ns)",
                        now / base,
                        base,
                        now
                    ));
                }
                Some(_) => {}
                None => notes.push(format!("{bench}: {id} missing from the fresh run")),
            }
        }
        for id in fresh_ids.keys() {
            if !base_ids.contains_key(id) {
                notes.push(format!("{bench}: {id} is new (no baseline)"));
            }
        }
    }
    for bench in fresh.keys() {
        if bench != ENV_GROUP && !baseline.contains_key(bench) {
            notes.push(format!("bench {bench} is new (no baseline)"));
        }
    }
    (regressions, notes)
}

/// Derived cost-ratio columns for a trajectory: what the halo protocol
/// costs over lossy drop-pairs sharding and what the adaptive
/// controller costs over a static width — one line per comparable id
/// pair.
/// `bench_gate` prints these after every run so the ratios the PR
/// acceptance gates track are visible without opening the JSON.
pub fn ratio_columns(t: &BenchTrajectory) -> Vec<String> {
    let mut out = Vec::new();
    let mut push_pairs = |bench: &str, num_tag: &str, den_tag: &str, label: &str| {
        let Some(ids) = t.get(bench) else { return };
        for (id, &num) in ids {
            let Some(stem) = id.strip_suffix(num_tag) else {
                continue;
            };
            let Some(&den) = ids.get(&format!("{stem}{den_tag}")) else {
                continue;
            };
            if den > 0.0 {
                out.push(format!("{stem}{label} = {:.2}x", num / den));
            }
        }
    };
    push_pairs(
        "halo_sharding",
        "/halo2x2",
        "/drop_pairs2x2",
        " halo/drop_pairs",
    );
    if let Some(ids) = t.get("adaptive_window") {
        for (id, &adaptive) in ids {
            let Some((stem, burst)) = id.split_once("_adaptive/") else {
                continue;
            };
            let Some(&fixed) = ids.get(&format!("{stem}_time300s/{burst}")) else {
                continue;
            };
            if fixed > 0.0 {
                out.push(format!(
                    "{stem}/{burst} adaptive/static = {:.2}x",
                    adaptive / fixed
                ));
            }
        }
    }
    out
}

/// The reserved trajectory group holding entity-scale metadata: maps
/// each sweep benchmark id to the entity count it ran at, so a future
/// gate run only ever compares medians taken at the same scale (the
/// values are exact constants, so the ratio gate can never trip on
/// them). Written whenever the gate runs the scale sweep — including
/// the first-run auto-seed.
pub const SCALES_GROUP: &str = "_scales";

/// The reserved trajectory group recording where the medians were
/// taken: the machine's available parallelism and the cargo profile the
/// benches were built under (a `profile/<name>` key set to 1). Metadata
/// only — [`compare_trajectories`] never gates it and reports each
/// entry that changed as a note, so a median taken on a different
/// machine class is visible as such.
pub const ENV_GROUP: &str = "_env";

/// The [`ENV_GROUP`] entries of one gate run.
pub fn env_group(available_parallelism: usize, profile: &str) -> BTreeMap<String, f64> {
    BTreeMap::from([
        (
            "available_parallelism".to_string(),
            available_parallelism as f64,
        ),
        (format!("profile/{profile}"), 1.0),
    ])
}

/// The entity count encoded in a sweep benchmark id's trailing
/// `/n<count>` segment (`scale_sweep/drain/n10000` → `10000`).
pub fn entity_scale(id: &str) -> Option<f64> {
    let tail = id.rsplit('/').next()?;
    let digits = tail.strip_prefix('n')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One fitted growth step of a scale sweep: how the median scaled
/// between two consecutive entity counts of the same benchmark stem.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFit {
    /// The benchmark id stem shared by both scales
    /// (`scale_sweep/drain`).
    pub stem: String,
    /// The smaller entity count.
    pub from_n: f64,
    /// The larger entity count.
    pub to_n: f64,
    /// The fitted growth exponent `α` in `t ∝ n^α` between the two
    /// scales: `ln(t₂/t₁) / ln(n₂/n₁)`. Linear work gives α ≈ 1,
    /// quadratic drift α ≈ 2.
    pub exponent: f64,
}

impl std::fmt::Display for ScaleFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: n{} -> n{} grows as n^{:.2}",
            self.stem, self.from_n, self.to_n, self.exponent
        )
    }
}

/// Fits growth exponents between consecutive scales of every sweep
/// stem in `ids` (benchmark ids carrying a trailing `/n<count>`
/// segment). Stems with fewer than two scales produce no fits.
pub fn scale_exponents(ids: &BTreeMap<String, f64>) -> Vec<ScaleFit> {
    let mut by_stem: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for (id, &median) in ids {
        let Some(n) = entity_scale(id) else { continue };
        let Some(cut) = id.rfind('/') else { continue };
        by_stem.entry(&id[..cut]).or_default().push((n, median));
    }
    let mut out = Vec::new();
    for (stem, mut points) in by_stem {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in points.windows(2) {
            let [(n1, t1), (n2, t2)] = [pair[0], pair[1]];
            if n1 > 0.0 && t1 > 0.0 && n2 > n1 && t2 > 0.0 {
                out.push(ScaleFit {
                    stem: stem.to_string(),
                    from_n: n1,
                    to_n: n2,
                    exponent: (t2 / t1).ln() / (n2 / n1).ln(),
                });
            }
        }
    }
    out
}

/// The fits whose growth exponent exceeds `max_exponent` — the
/// super-linear-drift failures the scale-sweep gate reports. The
/// constant-density sweep is engineered to grow ~linearly, so an
/// exponent near 2 means some per-window cost has started scaling with
/// the *total* entity count (a full-ledger walk, an unbounded map, a
/// quadratic drain).
pub fn scale_regressions(fits: &[ScaleFit], max_exponent: f64) -> Vec<String> {
    fits.iter()
        .filter(|f| f.exponent > max_exponent)
        .map(|f| format!("{f} (limit n^{max_exponent:.2})"))
        .collect()
}

/// The small-but-meaningful scale used inside timed benchmark bodies.
pub fn bench_options() -> RunOptions {
    RunOptions {
        scale: 0.1, // 100-task batches
        n_batches: 1,
        params: RunParams::default(),
        n_seeds: 1,
        parallel: false, // timings must not depend on thread scheduling
    }
}

/// A single default-parameter instance of `dataset` at bench scale,
/// ready to feed a method under test.
pub fn bench_instance(dataset: Dataset, extra_seed: u64) -> dpta_core::Instance {
    let opts = bench_options();
    let sc = Scenario {
        dataset,
        batch_size: opts.batch_size(),
        n_batches: 1,
        seed: opts.params.seed ^ extra_seed,
        ..Scenario::default()
    };
    sc.batches().remove(0)
}

/// Regenerates and prints the series of the given figures (the rows the
/// paper plots), so `cargo bench` output doubles as the reproduction
/// log. Runs once per bench binary, at reduced scale.
pub fn print_figures(ids: &[&str]) {
    let opts = RunOptions {
        scale: 0.1,
        n_batches: 1,
        params: RunParams::default(),
        n_seeds: 1,
        parallel: true,
    };
    for id in ids {
        let spec = figures::find(id).expect("figure id in registry");
        let out = runner::run_figure(&spec, &opts);
        eprintln!("{}", render_figure(&out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(entries: &[(&str, &[(&str, f64)])]) -> BenchTrajectory {
        entries
            .iter()
            .map(|(bench, ids)| {
                (
                    bench.to_string(),
                    ids.iter().map(|(id, ns)| (id.to_string(), *ns)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn bench_lines_parse_and_reject_garbage() {
        let text = "{\"id\":\"g/a\",\"median_ns\":1200.5,\"min_ns\":1000.0}\n\n\
                    {\"id\":\"g/b\",\"median_ns\":7}\n";
        let rows = parse_bench_lines(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "g/a");
        assert!((rows[0].1 - 1200.5).abs() < 1e-9);
        assert!(parse_bench_lines("{\"median_ns\":1}").is_err());
        assert!(parse_bench_lines("not json").is_err());
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let t = traj(&[
            (
                "time_to_drain",
                &[("stream/PUCE", 1500.0), ("stream/GRD", 900.0)],
            ),
            ("adaptive_window", &[("adaptive/burst0.5", 2e6)]),
        ]);
        let text = render_trajectory(&t);
        assert!(text.contains("time_to_drain"));
        let back = parse_trajectory(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn ratio_columns_pair_comparable_ids() {
        let t = traj(&[
            (
                "halo_sharding",
                &[
                    ("halo_sharding/GRD/halo2x2", 300.0),
                    ("halo_sharding/GRD/drop_pairs2x2", 200.0),
                    ("halo_sharding/GRD/unsharded", 100.0),
                ],
            ),
            (
                "adaptive_window",
                &[
                    ("adaptive_window/GRD_adaptive/burst0.2", 130.0),
                    ("adaptive_window/GRD_time300s/burst0.2", 100.0),
                ],
            ),
        ]);
        let cols = ratio_columns(&t);
        assert_eq!(cols.len(), 2, "{cols:?}");
        assert!(
            cols.iter()
                .any(|c| c.contains("GRD halo/drop_pairs = 1.50x")),
            "{cols:?}"
        );
        assert!(
            cols.iter()
                .any(|c| c.contains("GRD/burst0.2 adaptive/static = 1.30x")),
            "{cols:?}"
        );
    }

    #[test]
    fn entity_scale_reads_only_well_formed_suffixes() {
        assert_eq!(entity_scale("scale_sweep/drain/n1000"), Some(1000.0));
        assert_eq!(entity_scale("scale_sweep/sharded4x4/n1000000"), Some(1e6));
        assert_eq!(entity_scale("scale_sweep/drain/w64"), None);
        assert_eq!(entity_scale("scale_sweep/drain/n"), None);
        assert_eq!(entity_scale("scale_sweep/drain/n12x"), None);
        assert_eq!(entity_scale("stream_time_to_drain/GRD/count50"), None);
    }

    #[test]
    fn scale_exponents_fit_consecutive_scales_per_stem() {
        // drain grows exactly linearly, sharded exactly quadratically.
        let ids: BTreeMap<String, f64> = [
            ("scale_sweep/drain/n1000", 1e6),
            ("scale_sweep/drain/n10000", 1e7),
            ("scale_sweep/drain/n100000", 1e8),
            ("scale_sweep/sharded4x4/n1000", 1e6),
            ("scale_sweep/sharded4x4/n10000", 1e8),
            ("scale_sweep/other/unscaled", 5.0),
        ]
        .into_iter()
        .map(|(id, ns)| (id.to_string(), ns))
        .collect();
        let fits = scale_exponents(&ids);
        assert_eq!(fits.len(), 3, "{fits:?}");
        assert!(fits
            .iter()
            .filter(|f| f.stem == "scale_sweep/drain")
            .all(|f| (f.exponent - 1.0).abs() < 1e-9));
        let sharded: Vec<_> = fits
            .iter()
            .filter(|f| f.stem == "scale_sweep/sharded4x4")
            .collect();
        assert_eq!(sharded.len(), 1);
        assert!((sharded[0].exponent - 2.0).abs() < 1e-9);
        let gate = scale_regressions(&fits, 1.7);
        assert_eq!(gate.len(), 1, "{gate:?}");
        assert!(gate[0].contains("sharded4x4"), "{gate:?}");
        assert!(scale_regressions(&fits, 2.5).is_empty());
    }

    #[test]
    fn comparison_flags_only_threshold_breaches() {
        let base = traj(&[("drain", &[("a", 100.0), ("b", 100.0), ("gone", 50.0)])]);
        let fresh = traj(&[
            ("drain", &[("a", 250.0), ("b", 350.0), ("new", 10.0)]),
            ("extra", &[("c", 1.0)]),
        ]);
        let (regressions, notes) = compare_trajectories(&base, &fresh, 3.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("drain: b regressed 3.5×"));
        assert_eq!(notes.len(), 3, "{notes:?}"); // gone, new, extra
    }

    #[test]
    fn env_group_is_noted_never_gated() {
        let mut base = traj(&[("drain", &[("a", 100.0)])]);
        let mut fresh = base.clone();
        base.insert(ENV_GROUP.to_string(), env_group(2, "bench"));
        fresh.insert(ENV_GROUP.to_string(), env_group(16, "release"));
        let (regressions, notes) = compare_trajectories(&base, &fresh, 3.0);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(notes[0].contains("available_parallelism differs from the baseline (2 -> 16)"));
        assert!(notes[1].contains("profile/bench differs from the baseline (1 -> unset)"));
        assert!(notes[2].contains("profile/release differs from the baseline (unset -> 1)"));
        // A baseline from before the group existed: every entry is new.
        base.remove(ENV_GROUP);
        let (regressions, notes) = compare_trajectories(&base, &fresh, 3.0);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes.iter().all(|n| n.contains("(unset -> ")), "{notes:?}");
    }
}
