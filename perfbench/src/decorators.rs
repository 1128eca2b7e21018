//! Tracing decorators around the program's public trait objects.
//!
//! Each decorator forwards every call to the value it wraps unchanged and
//! records a span around it, so a wrapped run makes the same decisions
//! as an unwrapped one. The traced run uses them; the timed runs use the
//! bare types.

use amrm_baselines::{MetaScheduler, Regime};
use amrm_core::{AdmissionDirective, AdmissionPolicy, MmkpMdf, Scheduler, SchedulingContext};
use amrm_metrics::TelemetrySnapshot;
use amrm_model::{JobSet, Schedule};
use amrm_platform::Platform;

use crate::spans::{self, SpanName};

/// META's algorithm regime, read after each call; `None` for a scheduler
/// without regimes.
pub trait Regimes {
    /// The regime the last call ran in.
    fn regime(&self) -> Option<Regime> {
        None
    }

    /// Regime switches so far.
    fn switches(&self) -> usize {
        0
    }
}

impl Regimes for MmkpMdf {}

impl Regimes for MetaScheduler {
    fn regime(&self) -> Option<Regime> {
        Some(MetaScheduler::regime(self))
    }

    fn switches(&self) -> usize {
        MetaScheduler::switches(self)
    }
}

/// One scheduler call as the decorator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCall {
    /// Index of the call's span.
    pub span: u32,
    /// Jobs handed to the scheduler.
    pub jobs: usize,
    /// Whether it returned a schedule.
    pub feasible: bool,
    /// The regime it ran in (META only).
    pub regime: Option<Regime>,
}

/// A [`Scheduler`] that records a span and a [`SchedCall`] per call.
pub struct TracedScheduler<S> {
    inner: S,
    calls: Vec<SchedCall>,
}

impl<S> TracedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TracedScheduler {
            inner,
            calls: Vec::new(),
        }
    }

    /// The calls served so far.
    pub fn calls(&self) -> &[SchedCall] {
        &self.calls
    }
}

impl<S: Scheduler + Regimes> TracedScheduler<S> {
    fn traced(
        &mut self,
        jobs: &JobSet,
        f: impl FnOnce(&mut S) -> Option<Schedule>,
    ) -> Option<Schedule> {
        let span = spans::enter(SpanName::Sched);
        let out = f(&mut self.inner);
        spans::exit(span);
        self.calls.push(SchedCall {
            span,
            jobs: jobs.len(),
            feasible: out.is_some(),
            regime: self.inner.regime(),
        });
        out
    }
}

impl<S: Scheduler + Regimes> Scheduler for TracedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        self.traced(jobs, |s| s.schedule(jobs, platform, ctx))
    }

    fn schedule_at(&mut self, jobs: &JobSet, platform: &Platform, now: f64) -> Option<Schedule> {
        self.traced(jobs, |s| s.schedule_at(jobs, platform, now))
    }
}

impl<S: Regimes> Regimes for TracedScheduler<S> {
    fn regime(&self) -> Option<Regime> {
        self.inner.regime()
    }

    fn switches(&self) -> usize {
        self.inner.switches()
    }
}

/// An [`AdmissionPolicy`] that records a span per `on_arrival` call.
#[derive(Debug, Clone)]
pub struct TracedAdmission<A>(pub A);

impl<A: AdmissionPolicy> AdmissionPolicy for TracedAdmission<A> {
    fn on_arrival(&mut self, snapshot: &TelemetrySnapshot, now: f64) -> AdmissionDirective {
        spans::scoped(SpanName::Admission, || self.0.on_arrival(snapshot, now))
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }

    fn flush_at_stream_end(&self) -> bool {
        self.0.flush_at_stream_end()
    }
}

/// An iterator (the arrival stream) that records a span per `next` call.
#[derive(Debug, Clone)]
pub struct TracedStream<I>(pub I);

impl<I: Iterator> Iterator for TracedStream<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        spans::scoped(SpanName::StreamNext, || self.0.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}
