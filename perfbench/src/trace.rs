//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public functions, and engine drives through a
//! delegating [`AssignmentEngine`] handed to the session.

use dpta_core::engine::{BudgetRemaining, EngineTrace};
use dpta_core::{AssignmentEngine, Board, EngineConfig, Instance};
use dpta_dp::NoiseSource;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start: u64,
    pub end: u64,
    /// Small per-process thread number (1 is the first thread to record).
    pub thread: u64,
    /// Work count attached to the span (events, instance cells, bytes).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_no() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span store. The main thread opens one span at a time
/// around each session call; engine drives, possibly on the halo pool's
/// threads, become children of that open span.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Id of the main-thread span currently open, 0 when none.
    open: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a main-thread span named `name`, attaching
    /// `count` and parenting any engine span `f` causes.
    pub fn span<R>(&self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.swap(id, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.open.store(parent, Ordering::SeqCst);
        self.record(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            start,
            end,
            thread: thread_no(),
            count,
        });
        out
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"count\":{}}}",
                s.id, s.name, s.start, s.end, s.thread, s.count
            )?;
        }
        Ok(())
    }
}

/// Sum of `name` span durations, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.ns() as f64)
        / 1e6
}

/// Summed self time of `name` spans, in milliseconds: each span's
/// duration minus the part of it covered by its children (overlapping
/// children on different threads count once).
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut total = 0u64;
    for s in spans.iter().filter(|s| s.name == name) {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        total += s.ns() - covered;
    }
    total as f64 / 1e6
}

/// Work counts the engine wrapper adds up over its drives.
#[derive(Debug, Default)]
pub struct EngineCounters {
    pub calls: AtomicU64,
    pub cells: AtomicU64,
    pub publications: AtomicU64,
    pub rounds: AtomicU64,
}

/// A transparent [`AssignmentEngine`]: forwards every overridable
/// method to `inner`, and records a span and counts for each drive.
/// The provided conveniences (`assign`, `resume`, their capped forms,
/// `run`) are left to the trait defaults, which call back into this
/// wrapper's `drive`/`drive_capped`, so every drive is seen.
pub struct TimedEngine<'a> {
    inner: &'a dyn AssignmentEngine,
    tracer: &'a Tracer,
    pub counters: EngineCounters,
}

impl<'a> TimedEngine<'a> {
    pub fn new(inner: &'a dyn AssignmentEngine, tracer: &'a Tracer) -> Self {
        TimedEngine {
            inner,
            tracer,
            counters: EngineCounters::default(),
        }
    }

    fn timed(
        &self,
        inst: &Instance,
        board: &mut Board,
        f: impl FnOnce(&mut Board) -> EngineTrace,
    ) -> EngineTrace {
        let cells = (inst.n_tasks() * inst.n_workers()) as u64;
        let pre = board.publications();
        let t = self.tracer;
        let parent = t.open.load(Ordering::SeqCst);
        let start = t.now();
        let trace = f(board);
        let end = t.now();
        t.record(Span {
            id: t.next_id.fetch_add(1, Ordering::Relaxed),
            parent: (parent != 0).then_some(parent),
            name: "engine.drive",
            start,
            end,
            thread: thread_no(),
            count: cells,
        });
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.cells.fetch_add(cells, Ordering::Relaxed);
        c.publications.fetch_add(
            board.publications().saturating_sub(pre) as u64,
            Ordering::Relaxed,
        );
        c.rounds.fetch_add(trace.rounds as u64, Ordering::Relaxed);
        trace
    }
}

impl AssignmentEngine for TimedEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn drive(&self, inst: &Instance, board: &mut Board, noise: &dyn NoiseSource) -> EngineTrace {
        self.timed(inst, board, |b| self.inner.drive(inst, b, noise))
    }

    fn supports_warm_start(&self) -> bool {
        self.inner.supports_warm_start()
    }

    fn enforces_budget_cap(&self) -> bool {
        self.inner.enforces_budget_cap()
    }

    fn drive_capped(
        &self,
        inst: &Instance,
        board: &mut Board,
        noise: &dyn NoiseSource,
        remaining: &dyn BudgetRemaining,
    ) -> EngineTrace {
        self.timed(inst, board, |b| {
            self.inner.drive_capped(inst, b, noise, remaining)
        })
    }

    fn accounts_privacy(&self) -> bool {
        self.inner.accounts_privacy()
    }
}
