//! The closed loop: one client (the calling thread) pushes a
//! pre-generated stream as fast as it can, advances the watermark at
//! every window boundary and polls outcomes after each advance, the
//! way a live dispatcher drives a session.

use crate::trace::Tracer;
use crate::workloads::{Mode, Workload};
use dpta_core::AssignmentEngine;
use dpta_spatial::GridPartition;
use dpta_stream::{
    ArrivalStream, SessionSnapshot, ShardStrategy, ShardedReport, ShardedSession, ShardedSnapshot,
    StreamConfig, StreamReport, StreamSession,
};
use std::time::Instant;

/// A flat or halo session behind one set of calls, each wrapped in a
/// span when a tracer is attached.
// One session lives per drain, so the size skew between the variants
// costs nothing; boxing would add an indirection to every call.
#[allow(clippy::large_enum_variant)]
enum Live<'e, 'p> {
    Flat(StreamSession<'e>),
    Halo(ShardedSession<'e, 'p>),
}

/// What a drain returns: the program's own report.
#[derive(PartialEq)]
pub enum RunReport {
    Flat(StreamReport),
    Halo(ShardedReport),
}

impl RunReport {
    /// The per-shard reports (one for a flat run).
    pub fn parts(&self) -> &[StreamReport] {
        match self {
            RunReport::Flat(r) => std::slice::from_ref(r),
            RunReport::Halo(r) => &r.shards,
        }
    }

    pub fn without_timing(&self) -> RunReport {
        match self {
            RunReport::Flat(r) => RunReport::Flat(r.without_timing()),
            RunReport::Halo(r) => RunReport::Halo(r.without_timing()),
        }
    }
}

/// Timings of one checkpoint round trip, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    pub capture: f64,
    pub encode: f64,
    pub decode: f64,
    pub restore: f64,
    pub bytes: usize,
    /// Hash of the encoded snapshot: equal sessions encode equally.
    pub digest: u64,
}

/// Hash of an encoded snapshot with every `drive_time` object (the one
/// wall-clock figure a snapshot carries) left out, so equal sessions
/// hash equally however long their engine drives took.
fn digest(text: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"drive_time\"") {
        h.write(&rest.as_bytes()[..at]);
        let tail = &rest[at..];
        let end = tail.find('}').map_or(tail.len(), |e| e + 1);
        rest = &tail[end..];
    }
    h.write(rest.as_bytes());
    h.finish()
}

/// One drain of a workload's stream.
pub struct Drain {
    pub report: RunReport,
    pub events: usize,
    /// Wall time of push + advance + poll + close, checkpoints excluded.
    pub drain_s: f64,
    /// Wall time of each per-window `advance_to`, in milliseconds.
    pub window_ms: Vec<f64>,
    pub outcomes: usize,
    pub checkpoints: Vec<Checkpoint>,
}

/// Runs `f` in a span named `name` when tracing, plainly otherwise.
fn call<R>(tracer: Option<&Tracer>, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, count, f),
        None => f(),
    }
}

/// Runs `f` (in a span when tracing) and returns its wall time.
fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    count: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let out = call(tracer, name, count, f);
    (out, start.elapsed().as_secs_f64())
}

/// Everything a session needs that outlives it.
pub struct Setup<'e, 'p> {
    pub workload: Workload,
    pub engine: &'e dyn AssignmentEngine,
    pub cfg: StreamConfig,
    /// The halo partition (halo workloads only).
    pub partition: Option<&'p GridPartition>,
}

impl<'e, 'p> Setup<'e, 'p> {
    pub fn new(
        workload: Workload,
        seed: u64,
        engine: &'e dyn AssignmentEngine,
        partition: Option<&'p GridPartition>,
    ) -> Self {
        Setup {
            workload,
            engine,
            cfg: workload.config(seed),
            partition,
        }
    }

    fn open(&self) -> Live<'e, 'p> {
        match self.workload.mode() {
            Mode::Flat => Live::Flat(StreamSession::new(self.engine, self.cfg.clone())),
            Mode::Halo => Live::Halo(ShardedSession::new(
                self.engine,
                self.cfg.clone(),
                self.partition.expect("a halo workload has a partition"),
                ShardStrategy::Halo,
            )),
        }
    }

    /// Opens a session on this setup without driving it; the set-up
    /// time measure constructs one alongside the stream.
    pub fn construct(&self) {
        std::hint::black_box(self.open());
    }

    /// snapshot → to_json → from_json → restore.
    fn round_trip(
        &self,
        live: &Live<'e, 'p>,
        tracer: Option<&Tracer>,
    ) -> (Live<'e, 'p>, Checkpoint) {
        match live {
            Live::Flat(s) => {
                let (snap, capture) = timed(tracer, "snapshot.capture", 0, || s.snapshot());
                let (text, encode) = timed(tracer, "snapshot.encode", 0, || snap.to_json());
                drop(snap);
                let bytes = text.len();
                let (decoded, decode) = timed(tracer, "snapshot.decode", bytes as u64, || {
                    SessionSnapshot::from_json(&text).expect("a fresh snapshot decodes")
                });
                let (restored, restore) = timed(tracer, "snapshot.restore", 0, || {
                    StreamSession::restore(self.engine, self.cfg.clone(), &decoded)
                        .expect("a fresh snapshot restores")
                });
                let cp = Checkpoint {
                    capture,
                    encode,
                    decode,
                    restore,
                    bytes,
                    digest: digest(&text),
                };
                (Live::Flat(restored), cp)
            }
            Live::Halo(s) => {
                let (snap, capture) = timed(tracer, "snapshot.capture", 0, || s.snapshot());
                let (text, encode) = timed(tracer, "snapshot.encode", 0, || snap.to_json());
                drop(snap);
                let bytes = text.len();
                let (decoded, decode) = timed(tracer, "snapshot.decode", bytes as u64, || {
                    ShardedSnapshot::from_json(&text).expect("a fresh snapshot decodes")
                });
                let (restored, restore) = timed(tracer, "snapshot.restore", 0, || {
                    ShardedSession::restore(
                        self.engine,
                        self.cfg.clone(),
                        self.partition.expect("a halo workload has a partition"),
                        ShardStrategy::Halo,
                        &decoded,
                    )
                    .expect("a fresh snapshot restores")
                });
                let cp = Checkpoint {
                    capture,
                    encode,
                    decode,
                    restore,
                    bytes,
                    digest: digest(&text),
                };
                (Live::Halo(restored), cp)
            }
        }
    }

    /// Drains `stream` through a fresh session, running the workload's
    /// checkpoint schedule and continuing on each restored session.
    pub fn drain(&self, stream: &ArrivalStream, tracer: Option<&Tracer>) -> Drain {
        let wl = self.workload;
        let (span_push, span_advance, span_close) = match wl.mode() {
            Mode::Flat => ("session.push", "session.advance_to", "session.close"),
            Mode::Halo => ("halo.push", "halo.advance_to", "halo.close"),
        };
        let events = stream.events();
        let width = wl.window_width();
        let every = wl.checkpoint_every();
        let mut live = self.open();
        let mut window_ms = Vec::new();
        let mut outcomes = 0usize;
        let mut cps = Vec::new();
        let mut paused = 0.0;
        let mut next = 1usize;
        let mut i = 0usize;
        let start = Instant::now();
        while i < events.len() {
            let boundary = next as f64 * width;
            let j = i + events[i..].partition_point(|e| e.time() < boundary);
            if j > i {
                let batch = &events[i..j];
                call(tracer, span_push, batch.len() as u64, || match &mut live {
                    Live::Flat(s) => batch.iter().for_each(|&e| s.push(e)),
                    Live::Halo(s) => batch.iter().for_each(|&e| s.push(e)),
                });
                i = j;
            }
            if i == events.len() {
                break;
            }
            let ((), dt) = timed(tracer, span_advance, 0, || match &mut live {
                Live::Flat(s) => s.advance_to(boundary),
                Live::Halo(s) => s.advance_to(boundary),
            });
            window_ms.push(dt * 1e3);
            if let Live::Flat(s) = &mut live {
                outcomes += poll(tracer, s);
            }
            let due = next.is_multiple_of(every) && (wl.checkpoints_recur() || next == every);
            if due {
                // The whole block, dropping the replaced sessions
                // included, is excluded from the drain's wall time.
                let pause = Instant::now();
                for _ in 0..wl.probe_round_trips() {
                    let (restored, cp) = self.round_trip(&live, tracer);
                    cps.push(cp);
                    live = restored;
                }
                paused += pause.elapsed().as_secs_f64();
            }
            next += 1;
        }
        let report = call(tracer, span_close, 0, || match &mut live {
            Live::Flat(s) => RunReport::Flat(s.close()),
            Live::Halo(s) => RunReport::Halo(s.close()),
        });
        if let Live::Flat(s) = &mut live {
            outcomes += poll(tracer, s);
        }
        let drain_s = start.elapsed().as_secs_f64() - paused;
        Drain {
            report,
            events: events.len(),
            drain_s,
            window_ms,
            outcomes,
            checkpoints: cps,
        }
    }
}

fn poll(tracer: Option<&Tracer>, s: &mut StreamSession<'_>) -> usize {
    let out = call(tracer, "session.poll_outcomes", 0, || s.poll_outcomes());
    out.len()
}
