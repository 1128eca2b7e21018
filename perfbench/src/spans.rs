//! In-memory span recorder for the traced run.
//!
//! The serving loop and the decorators in [`crate::decorators`] open a
//! span around every call into a layer. Spans nest through a stack of
//! open spans, so each records the span that was open when it started
//! as its parent. The recorder is thread-local, like the program's own
//! `instrument` counters: the simulation runs on the calling thread.
//! The clock is passed in by the caller, which keeps the one wall-clock
//! read of the benchmark at its entry point.

use std::cell::RefCell;
use std::io::{self, Write};

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers: one call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// `Simulation::inject_request` (kernel).
    Inject,
    /// One serving step: `Simulation::advance_until` (kernel).
    Step,
    /// `close_stream` plus `finalize` (kernel).
    Finalize,
    /// `Simulation::run`, draining the tail (kernel).
    Drain,
    /// `ArrivalStream::next` (workload).
    StreamNext,
    /// `Scheduler::schedule` (core or baselines).
    Sched,
    /// `AdmissionPolicy::on_arrival` (core).
    Admission,
}

impl SpanName {
    /// Stable name used in the span dump.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Inject => "kernel.inject",
            SpanName::Step => "kernel.step",
            SpanName::Finalize => "kernel.finalize",
            SpanName::Drain => "kernel.drain",
            SpanName::StreamNext => "stream.next",
            SpanName::Sched => "sched.schedule",
            SpanName::Admission => "admission.on_arrival",
        }
    }

    /// Whether the span is the serving loop's own call into the kernel.
    pub fn is_kernel(self) -> bool {
        matches!(
            self,
            SpanName::Inject | SpanName::Step | SpanName::Finalize | SpanName::Drain
        )
    }
}

/// One recorded call: times in clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call it covers.
    pub name: SpanName,
    /// Clock reading when the call started.
    pub start: u64,
    /// Clock reading when the call returned.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Ordinal of the request being served (1-based, 0 before the first).
    pub request: u32,
}

impl Span {
    /// Duration in clock nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    clock: fn() -> u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread with `clock`, discarding any spans a
/// previous recording left behind.
pub fn start(clock: fn() -> u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Stops recording and returns the spans in start order.
///
/// # Panics
///
/// Panics if no recording is running or a span is still open.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take().expect("span recorder not started");
        assert!(rec.open.is_empty(), "span still open at finish");
        rec.spans
    })
}

/// Sets the request ordinal stamped on spans opened from now on.
pub fn set_request(ordinal: u32) {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .expect("span recorder not started")
            .request = ordinal;
    });
}

/// Opens a span and returns its index.
///
/// # Panics
///
/// Panics if no recording is running.
pub fn enter(name: SpanName) -> u32 {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("span recorder not started");
        let index = u32::try_from(rec.spans.len()).expect("span count fits u32");
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        let request = rec.request;
        rec.open.push(index);
        // Read the clock last, so the bookkeeping above is not inside
        // the span.
        let start = (rec.clock)();
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        index
    })
}

/// Closes the span `index` opened by [`enter`].
///
/// # Panics
///
/// Panics if `index` is not the innermost open span.
pub fn exit(index: u32) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("span recorder not started");
        let end = (rec.clock)();
        assert_eq!(
            rec.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        rec.spans[index as usize].end = end;
    });
}

/// Runs `f` inside a span named `name`.
pub fn scoped<R>(name: SpanName, f: impl FnOnce() -> R) -> R {
    let index = enter(name);
    let out = f();
    exit(index);
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are subtracted once,
/// and a child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = spans[parent as usize];
        let mut covered = 0;
        // Cursor: the end of the union covered so far, clipped to the parent.
        let mut reach = p.start;
        while i < children.len() && children[i].0 == parent {
            let start = children[i].1.max(reach);
            let end = children[i].2.min(p.end);
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        out[parent as usize] -= covered;
    }
    out
}

/// Writes `spans` as tab-separated lines: index, name, start, end,
/// parent (`-` for a root) and request ordinal.
///
/// # Errors
///
/// Returns the first write error.
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name.as_str(),
            s.start,
            s.end,
            s.request
        )?;
    }
    Ok(())
}
