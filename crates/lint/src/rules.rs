//! The rule catalog and the per-file scanner.
//!
//! Every rule matches token sequences produced by [`crate::lexer`], is
//! individually toggleable, and is suppressible line-by-line through an
//! audited `// dpta-lint: allow(<rule>) -- <reason>` annotation (the
//! annotation covers its own line and, when it stands alone, the next
//! source line). The catalog mirrors ARCHITECTURE.md's "Static analysis
//! & invariant enforcement" section; the why behind each rule lives
//! there.

use crate::lexer::{lex, Annotation, Tok, TokKind};
use std::collections::BTreeSet;

/// Rule 1: randomized-hash containers banned on deterministic paths.
pub const DETERMINISTIC_CONTAINERS: &str = "deterministic-containers";
/// Rule 2: wall-clock reads banned outside the display/bench allowlist.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule 3: noise sampling must sit in a module with a charge edge.
pub const CHARGED_NOISE_FLOW: &str = "charged-noise-flow";
/// Rule 4: bare `unwrap()` (and friends) banned in library code.
pub const PANIC_HYGIENE: &str = "panic-hygiene";
/// Rule 5: `#![forbid(unsafe_code)]` everywhere, no `unsafe` tokens.
pub const UNSAFE_POLICY: &str = "unsafe-policy";
/// Rule 6: the doc-lint headers must be present and unweakened.
pub const LINT_GATE_PRESENCE: &str = "lint-gate-presence";
/// Pseudo-rule for `dpta-lint:` comments that fail to parse — always a
/// finding, since a typoed suppression would otherwise silently do
/// nothing.
pub const MALFORMED_ANNOTATION: &str = "malformed-annotation";

/// Every rule id, in report order.
pub const ALL_RULES: &[&str] = &[
    DETERMINISTIC_CONTAINERS,
    NO_WALL_CLOCK,
    CHARGED_NOISE_FLOW,
    PANIC_HYGIENE,
    UNSAFE_POLICY,
    LINT_GATE_PRESENCE,
    MALFORMED_ANNOTATION,
];

/// Crates whose library code must stay bit-for-bit deterministic
/// (rules 1 and 3 scope).
const DETERMINISM_CRATES: &[&str] = &[
    "dpta-core",
    "dpta-dp",
    "dpta-matching",
    "dpta-spatial",
    "dpta-stream",
];

/// Crates whose library code must not panic on invariant slips
/// (rule 4 scope).
const PANIC_CRATES: &[&str] = &["dpta-core", "dpta-dp", "dpta-stream"];

/// Files allowed to read the wall clock: display-only timing in the
/// experiment harness. The bench crate is exempt wholesale (timing is
/// its job); everything else needs an inline annotation.
const WALL_CLOCK_ALLOW_PATHS: &[&str] = &[
    "crates/experiments/src/runner.rs",
    "crates/experiments/src/stream_cmd.rs",
];

/// The modules that *define* the sampling primitives; rule 3 exempts
/// them (a definition is not an uncharged release).
const NOISE_DEF_PATHS: &[&str] = &[
    "crates/dp/src/laplace.rs",
    "crates/dp/src/geo.rs",
    "crates/dp/src/noise.rs",
];

/// Identifiers that perform a noise draw when called.
const SAMPLING_IDENTS: &[&str] = &["sample_from_uniform", "sample_from_uniforms"];

/// Method/path names that constitute a charge edge: the budget
/// `Ledger` surface (`charge_at`, and `charge` on the stream
/// lifecycle that wraps it) and the
/// `Board` surface (`publish`/`charge_location`), which charges the
/// per-worker `PrivacyLedger` on every release.
const CHARGE_IDENTS: &[&str] = &["charge", "charge_at", "publish", "charge_location"];

/// Whether a file is library code or a binary entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of a `lib` target.
    Lib,
    /// A `main.rs` / `src/bin/*.rs` entry point.
    Bin,
}

/// Everything the rules need to know about the file being scanned.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Cargo package name (`dpta-core`, ...).
    pub crate_name: String,
    /// Whether this file is the crate root (`lib.rs`), where the
    /// header rules (5 and 6) look for inner attributes.
    pub is_crate_root: bool,
    /// Library or binary code.
    pub role: Role,
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id from [`ALL_RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// An `allow` annotation as it appears in the audit: where, what it
/// suppresses, why, and whether it actually matched a finding.
#[derive(Debug, Clone)]
pub struct AnnotationRecord {
    /// Path relative to the workspace root.
    pub path: String,
    /// Line of the comment.
    pub line: u32,
    /// Rules it suppresses.
    pub rules: Vec<String>,
    /// The recorded justification.
    pub reason: String,
    /// Whether it suppressed at least one finding in this run — an
    /// unused annotation is stale and shows up as such in the audit.
    pub used: bool,
}

/// Which rules run. Defaults to all of them.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    disabled: BTreeSet<String>,
    only: Option<BTreeSet<String>>,
}

impl RuleSet {
    /// All rules enabled.
    pub fn all() -> Self {
        Self::default()
    }

    /// Disables `rule`.
    pub fn disable(&mut self, rule: &str) {
        self.disabled.insert(rule.to_string());
    }

    /// Restricts the run to exactly `rules` (plus
    /// [`MALFORMED_ANNOTATION`], which cannot be opted out of by
    /// narrowing — a broken suppression is a meta-error).
    pub fn only<I: IntoIterator<Item = String>>(&mut self, rules: I) {
        self.only = Some(rules.into_iter().collect());
    }

    /// Whether `rule` runs.
    pub fn enabled(&self, rule: &str) -> bool {
        if self.disabled.contains(rule) {
            return false;
        }
        match &self.only {
            Some(set) => rule == MALFORMED_ANNOTATION || set.contains(rule),
            None => true,
        }
    }
}

/// Whether `name` is a rule id this binary knows.
pub fn is_known_rule(name: &str) -> bool {
    ALL_RULES.contains(&name)
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Every annotation seen, with its usage flag.
    pub annotations: Vec<AnnotationRecord>,
}

/// Scans one file's source under `ctx`, returning surviving findings
/// and the annotation audit entries.
pub fn lint_source(ctx: &FileCtx, source: &str, rules: &RuleSet) -> FileOutcome {
    let lexed = lex(source);
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let mut raw: Vec<Finding> = Vec::new();

    if rules.enabled(MALFORMED_ANNOTATION) {
        for m in &lexed.malformed {
            raw.push(finding(
                ctx,
                m.line,
                m.col,
                MALFORMED_ANNOTATION,
                format!("unparseable dpta-lint annotation: {}", m.message),
            ));
        }
        for a in &lexed.annotations {
            for r in &a.rules {
                if !is_known_rule(r) {
                    raw.push(finding(
                        ctx,
                        a.line,
                        1,
                        MALFORMED_ANNOTATION,
                        format!("annotation allows unknown rule `{r}`"),
                    ));
                }
            }
        }
    }

    if rules.enabled(DETERMINISTIC_CONTAINERS) && applies_containers(ctx) {
        scan_containers(ctx, toks, &mask, &mut raw);
    }
    if rules.enabled(NO_WALL_CLOCK) && applies_wall_clock(ctx) {
        scan_wall_clock(ctx, toks, &mask, &mut raw);
    }
    if rules.enabled(CHARGED_NOISE_FLOW) && applies_noise_flow(ctx) {
        scan_noise_flow(ctx, toks, &mask, &mut raw);
    }
    if rules.enabled(PANIC_HYGIENE) && applies_panic(ctx) {
        scan_panic(ctx, toks, &mask, &mut raw);
    }
    if rules.enabled(UNSAFE_POLICY) {
        scan_unsafe(ctx, toks, &mut raw);
    }
    if rules.enabled(LINT_GATE_PRESENCE) && ctx.is_crate_root {
        scan_lint_gates(ctx, toks, &mut raw);
    }

    apply_suppressions(ctx, raw, &lexed.annotations, toks)
}

fn finding(ctx: &FileCtx, line: u32, col: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        path: ctx.rel_path.clone(),
        line,
        col,
        rule,
        message,
    }
}

fn applies_containers(ctx: &FileCtx) -> bool {
    ctx.role == Role::Lib && DETERMINISM_CRATES.contains(&ctx.crate_name.as_str())
}

fn applies_wall_clock(ctx: &FileCtx) -> bool {
    ctx.crate_name != "dpta-bench" && !WALL_CLOCK_ALLOW_PATHS.contains(&ctx.rel_path.as_str())
}

fn applies_noise_flow(ctx: &FileCtx) -> bool {
    ctx.role == Role::Lib
        && DETERMINISM_CRATES.contains(&ctx.crate_name.as_str())
        && !NOISE_DEF_PATHS.contains(&ctx.rel_path.as_str())
}

fn applies_panic(ctx: &FileCtx) -> bool {
    ctx.role == Role::Lib && PANIC_CRATES.contains(&ctx.crate_name.as_str())
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Marks every token inside a `#[cfg(test)]` (or `#[test]`) item so
/// the code rules skip test code. The extent of the item is the
/// brace-balanced block after the attribute(s), or up to the `;` for
/// block-less items such as `#[cfg(test)] use ...;`.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(is_punct(&toks[i], "#") && i + 1 < toks.len() && is_punct(&toks[i + 1], "[")) {
            i += 1;
            continue;
        }
        let (attr_end, idents) = attr_extent(toks, i + 1);
        let is_test_attr = match idents.first().map(String::as_str) {
            Some("test") => true,
            Some("cfg") => idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not"),
            _ => false,
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end;
        while k + 1 < toks.len() && is_punct(&toks[k], "#") && is_punct(&toks[k + 1], "[") {
            k = attr_extent(toks, k + 1).0;
        }
        // Mask through the item's block (or to its `;`).
        let mut depth = 0usize;
        let mut end = k;
        while end < toks.len() {
            if is_punct(&toks[end], "{") {
                depth += 1;
            } else if is_punct(&toks[end], "}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end += 1;
                    break;
                }
            } else if is_punct(&toks[end], ";") && depth == 0 {
                end += 1;
                break;
            }
            end += 1;
        }
        for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// Given `open` pointing at the `[` of an attribute, returns the index
/// just past the matching `]` plus every identifier seen inside.
fn attr_extent(toks: &[Tok], open: usize) -> (usize, Vec<String>) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, "]") {
            depth -= 1;
            if depth == 0 {
                return (j + 1, idents);
            }
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        j += 1;
    }
    (j, idents)
}

fn scan_containers(ctx: &FileCtx, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                DETERMINISTIC_CONTAINERS,
                format!(
                    "`{}` (randomized SipHash) is banned on deterministic paths; \
                     use `dpta_dp::intern::FastMap`/`FastSet` or a BTree container",
                    t.text
                ),
            ));
        }
    }
}

fn scan_wall_clock(ctx: &FileCtx, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if is_ident(t, "SystemTime") {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                NO_WALL_CLOCK,
                "`SystemTime` is a wall-clock read; deterministic paths must derive \
                 time from the event stream"
                    .to_string(),
            ));
        } else if is_ident(t, "Instant")
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, ":"))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, ":"))
            && matches!(toks.get(i + 3), Some(n) if is_ident(n, "now"))
        {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                NO_WALL_CLOCK,
                "`Instant::now()` outside the bench/display allowlist; replay \
                 determinism forbids wall-clock reads on decision paths"
                    .to_string(),
            ));
        }
    }
}

fn scan_noise_flow(ctx: &FileCtx, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    let mut has_charge_edge = false;
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if CHARGE_IDENTS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, "("))
            && i > 0
            && (is_punct(&toks[i - 1], ".") || is_punct(&toks[i - 1], ":"))
        {
            has_charge_edge = true;
            break;
        }
    }
    if has_charge_edge {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let sampled = (t.kind == TokKind::Ident
            && SAMPLING_IDENTS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, "(")))
            || (is_ident(t, "SeededNoise")
                && matches!(toks.get(i + 1), Some(n) if is_punct(n, ":"))
                && matches!(toks.get(i + 2), Some(n) if is_punct(n, ":"))
                && matches!(toks.get(i + 3), Some(n) if is_ident(n, "new")));
        if sampled {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                CHARGED_NOISE_FLOW,
                "noise sampling in a module with no visible charge edge \
                 (`charge`/`charge_at` on a Ledger, or \
                 `publish`/`charge_location` on a Board); route the release \
                 through the charging surface or annotate where accounting happens"
                    .to_string(),
            ));
        }
    }
}

fn scan_panic(ctx: &FileCtx, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    // `name[` indexing on maps declared with a float key in this file.
    let float_maps = float_keyed_maps(toks);
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if is_punct(t, ".")
            && matches!(toks.get(i + 1), Some(n) if is_ident(n, "unwrap"))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, "("))
            && matches!(toks.get(i + 3), Some(n) if is_punct(n, ")"))
        {
            let u = &toks[i + 1];
            out.push(finding(
                ctx,
                u.line,
                u.col,
                PANIC_HYGIENE,
                "bare `unwrap()` in library code; use `expect(\"<invariant>\")` to \
                 document why the value must exist, or handle the miss"
                    .to_string(),
            ));
        } else if is_punct(t, ".")
            && matches!(toks.get(i + 1), Some(n) if is_ident(n, "expect"))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, "("))
        {
            let ok = matches!(toks.get(i + 3), Some(n) if n.kind == TokKind::Str { empty: false });
            if !ok {
                let e = &toks[i + 1];
                out.push(finding(
                    ctx,
                    e.line,
                    e.col,
                    PANIC_HYGIENE,
                    "`expect` must document its invariant with a non-empty string \
                     literal message"
                        .to_string(),
                ));
            }
        } else if t.kind == TokKind::Ident
            && float_maps.contains(&t.text)
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, "["))
        {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                PANIC_HYGIENE,
                format!(
                    "indexing `{}[..]` on a float-keyed map can panic on \
                     representation mismatches; use `.get()` and handle the miss",
                    t.text
                ),
            ));
        }
    }
}

/// Names bound in this file to a map type whose key parameter is a
/// float (`HashMap<f64, _>`, `BTreeMap<(f32, u32)>`, ...), found by a
/// shallow backward scan from the map type to its `name:` binding.
fn float_keyed_maps(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let is_map = ["HashMap", "BTreeMap", "FastMap"]
            .iter()
            .any(|m| is_ident(t, m));
        if !is_map || !matches!(toks.get(i + 1), Some(n) if is_punct(n, "<")) {
            continue;
        }
        // Key type: the tokens up to the first `,` at angle depth 1.
        let mut depth = 1i32;
        let mut j = i + 2;
        let mut float_key = false;
        while j < toks.len() && depth > 0 {
            let n = &toks[j];
            if is_punct(n, "<") {
                depth += 1;
            } else if is_punct(n, ">") {
                depth -= 1;
            } else if is_punct(n, ",") && depth == 1 {
                break;
            } else if depth == 1 && (is_ident(n, "f64") || is_ident(n, "f32")) {
                float_key = true;
            } else if is_ident(n, "f64") || is_ident(n, "f32") {
                // Inside a tuple key `(f64, u32)` the parens don't
                // change angle depth; still a float key.
                float_key = true;
            }
            j += 1;
        }
        if !float_key {
            continue;
        }
        // Walk back over the type path (`std :: collections :: HashMap`)
        // to the `name :` binding, if any.
        let mut k = i;
        while k >= 2 && is_punct(&toks[k - 1], ":") && is_punct(&toks[k - 2], ":") {
            if k >= 3 && toks[k - 3].kind == TokKind::Ident {
                k -= 3;
            } else {
                break;
            }
        }
        // Skip reference sigils and mutability between the binding's
        // `:` and the type path.
        while k >= 1
            && (is_punct(&toks[k - 1], "&")
                || is_ident(&toks[k - 1], "mut")
                || toks[k - 1].kind == TokKind::Lifetime)
        {
            k -= 1;
        }
        if k >= 2
            && is_punct(&toks[k - 1], ":")
            && !is_punct(&toks[k - 2], ":")
            && toks[k - 2].kind == TokKind::Ident
        {
            names.insert(toks[k - 2].text.clone());
        }
    }
    names
}

fn scan_unsafe(ctx: &FileCtx, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if is_ident(t, "unsafe") {
            out.push(finding(
                ctx,
                t.line,
                t.col,
                UNSAFE_POLICY,
                "`unsafe` is banned workspace-wide; every crate carries \
                 `#![forbid(unsafe_code)]`"
                    .to_string(),
            ));
        }
    }
    if ctx.is_crate_root && !has_inner_attr(toks, "forbid", &["unsafe_code"]) {
        out.push(finding(
            ctx,
            1,
            1,
            UNSAFE_POLICY,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

fn scan_lint_gates(ctx: &FileCtx, toks: &[Tok], out: &mut Vec<Finding>) {
    if !has_inner_attr(toks, "deny", &["missing_docs"]) {
        out.push(finding(
            ctx,
            1,
            1,
            LINT_GATE_PRESENCE,
            "crate root is missing (or has weakened) `#![deny(missing_docs)]`".to_string(),
        ));
    }
    if !has_inner_attr(toks, "deny", &["rustdoc", "broken_intra_doc_links"]) {
        out.push(finding(
            ctx,
            1,
            1,
            LINT_GATE_PRESENCE,
            "crate root is missing (or has weakened) \
             `#![deny(rustdoc::broken_intra_doc_links)]`"
                .to_string(),
        ));
    }
}

/// Looks for the inner attribute `#![<verb>(<path segments>)]`,
/// tolerating `::` between segments.
fn has_inner_attr(toks: &[Tok], verb: &str, segments: &[&str]) -> bool {
    'outer: for i in 0..toks.len() {
        if !(is_punct(&toks[i], "#")
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, "!"))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, "["))
            && matches!(toks.get(i + 3), Some(n) if is_ident(n, verb))
            && matches!(toks.get(i + 4), Some(n) if is_punct(n, "(")))
        {
            continue;
        }
        let mut j = i + 5;
        for (s, seg) in segments.iter().enumerate() {
            if s > 0 {
                if !(matches!(toks.get(j), Some(n) if is_punct(n, ":"))
                    && matches!(toks.get(j + 1), Some(n) if is_punct(n, ":")))
                {
                    continue 'outer;
                }
                j += 2;
            }
            if !matches!(toks.get(j), Some(n) if is_ident(n, seg)) {
                continue 'outer;
            }
            j += 1;
        }
        if matches!(toks.get(j), Some(n) if is_punct(n, ")")) {
            return true;
        }
    }
    false
}

/// Applies line-scoped suppressions and assembles the audit records.
fn apply_suppressions(
    ctx: &FileCtx,
    raw: Vec<Finding>,
    annotations: &[Annotation],
    toks: &[Tok],
) -> FileOutcome {
    // An annotation covers its own line plus — when no token shares its
    // line (it stands alone) — the next line holding any token.
    let covered: Vec<(u32, Vec<u32>)> = annotations
        .iter()
        .map(|a| {
            let mut lines = vec![a.line];
            let trailing = toks.iter().any(|t| t.line == a.line);
            if !trailing {
                if let Some(next) = toks.iter().map(|t| t.line).filter(|&l| l > a.line).min() {
                    lines.push(next);
                }
            }
            (a.line, lines)
        })
        .collect();

    let mut used = vec![false; annotations.len()];
    let mut findings = Vec::new();
    'next_finding: for f in raw {
        if f.rule != MALFORMED_ANNOTATION {
            for (k, a) in annotations.iter().enumerate() {
                if a.rules.iter().any(|r| r == f.rule) && covered[k].1.contains(&f.line) {
                    used[k] = true;
                    continue 'next_finding;
                }
            }
        }
        findings.push(f);
    }

    let records = annotations
        .iter()
        .zip(used)
        .map(|(a, used)| AnnotationRecord {
            path: ctx.rel_path.clone(),
            line: a.line,
            rules: a.rules.clone(),
            reason: a.reason.clone(),
            used,
        })
        .collect();

    FileOutcome {
        findings,
        annotations: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, krate: &str) -> FileCtx {
        FileCtx {
            rel_path: path.to_string(),
            crate_name: krate.to_string(),
            is_crate_root: false,
            role: Role::Lib,
        }
    }

    fn run(ctx: &FileCtx, src: &str) -> Vec<Finding> {
        lint_source(ctx, src, &RuleSet::all()).findings
    }

    #[test]
    fn hashmap_fires_only_in_determinism_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run(&ctx("crates/core/src/x.rs", "dpta-core"), src).len(), 1);
        assert!(run(&ctx("crates/experiments/src/x.rs", "dpta-experiments"), src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _: HashMap<u32, u32> = HashMap::new(); }\n}\n";
        assert!(run(&ctx("crates/dp/src/x.rs", "dpta-dp"), src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src =
            "#[cfg(not(test))]\nfn live() { let t = std::time::Instant::now(); let _ = t; }\n";
        let f = run(&ctx("crates/stream/src/x.rs", "dpta-stream"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, NO_WALL_CLOCK);
    }

    #[test]
    fn standalone_annotation_covers_next_line_and_is_marked_used() {
        let src = "// dpta-lint: allow(deterministic-containers) -- fixture justification\nuse std::collections::HashMap;\n";
        let out = lint_source(&ctx("crates/dp/src/x.rs", "dpta-dp"), src, &RuleSet::all());
        assert!(out.findings.is_empty());
        assert!(out.annotations[0].used);
    }

    #[test]
    fn trailing_annotation_covers_its_own_line_only() {
        let src = "use std::collections::HashMap; // dpta-lint: allow(deterministic-containers) -- fixture\nuse std::collections::HashSet;\n";
        let out = lint_source(&ctx("crates/dp/src/x.rs", "dpta-dp"), src, &RuleSet::all());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 2);
    }

    #[test]
    fn annotation_for_wrong_rule_does_not_suppress() {
        let src =
            "// dpta-lint: allow(no-wall-clock) -- wrong rule\nuse std::collections::HashMap;\n";
        let out = lint_source(&ctx("crates/dp/src/x.rs", "dpta-dp"), src, &RuleSet::all());
        assert_eq!(out.findings.len(), 1);
        assert!(!out.annotations[0].used);
    }

    #[test]
    fn disabled_rule_does_not_fire() {
        let mut rs = RuleSet::all();
        rs.disable(DETERMINISTIC_CONTAINERS);
        let out = lint_source(
            &ctx("crates/dp/src/x.rs", "dpta-dp"),
            "use std::collections::HashMap;\n",
            &rs,
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn noise_flow_needs_sampling_and_no_charge_edge() {
        let with_charge = "fn f(l: &mut L) { let n = SeededNoise::new(7); l.charge(1, 0.5); }\n";
        assert!(run(&ctx("crates/stream/src/x.rs", "dpta-stream"), with_charge).is_empty());
        let without = "fn f() { let n = SeededNoise::new(7); }\n";
        let f = run(&ctx("crates/stream/src/x.rs", "dpta-stream"), without);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, CHARGED_NOISE_FLOW);
    }

    #[test]
    fn noise_definition_modules_are_exempt() {
        let src = "fn f() { let n = SeededNoise::new(7); }\n";
        assert!(run(&ctx("crates/dp/src/noise.rs", "dpta-dp"), src).is_empty());
    }

    #[test]
    fn panic_hygiene_unwrap_and_undocumented_expect() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.expect(\"\") }\nfn h(x: Option<u32>) -> u32 { x.expect(\"slot registered at push\") }\n";
        let f = run(&ctx("crates/core/src/x.rs", "dpta-core"), src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn float_keyed_map_indexing_fires() {
        let src = "fn f(scores: &std::collections::BTreeMap<f64, u32>) -> u32 { scores[&0.5] }\n";
        let f: Vec<_> = run(&ctx("crates/core/src/x.rs", "dpta-core"), src)
            .into_iter()
            .filter(|f| f.rule == PANIC_HYGIENE)
            .collect();
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn unsafe_token_fires_everywhere() {
        let src = "fn f() { let p = unsafe { *std::ptr::null::<u32>() }; }\n";
        let f = run(&ctx("crates/experiments/src/x.rs", "dpta-experiments"), src);
        assert!(f.iter().any(|f| f.rule == UNSAFE_POLICY));
    }

    #[test]
    fn crate_root_header_rules() {
        let mut c = ctx("crates/core/src/lib.rs", "dpta-core");
        c.is_crate_root = true;
        let bare = "pub fn f() {}\n";
        let f = run(&c, bare);
        assert!(f.iter().any(|f| f.rule == UNSAFE_POLICY));
        assert_eq!(f.iter().filter(|f| f.rule == LINT_GATE_PRESENCE).count(), 2);
        let full = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(rustdoc::broken_intra_doc_links)]\npub fn f() {}\n";
        assert!(run(&c, full).is_empty());
        // Weakening deny -> warn re-fires the gate rule.
        let weak = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n#![deny(rustdoc::broken_intra_doc_links)]\npub fn f() {}\n";
        assert_eq!(
            run(&c, weak)
                .iter()
                .filter(|f| f.rule == LINT_GATE_PRESENCE)
                .count(),
            1
        );
    }

    #[test]
    fn unknown_rule_in_annotation_is_a_finding() {
        let src = "// dpta-lint: allow(no-such-rule) -- why\nfn f() {}\n";
        let f = run(&ctx("crates/core/src/x.rs", "dpta-core"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, MALFORMED_ANNOTATION);
    }
}
