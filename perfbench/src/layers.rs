//! Per-layer metrics of one traced pass.
//!
//! Times come from the spans; counts come from the program's
//! `instrument` counters, the outcome and the journal snapshot. The
//! layer self times plus the residual add up to the traced wall time:
//! `stream.next_s + kernel.self_s + admission.on_arrival_s + sched.busy_s
//! + trace.residual_s = trace.wall_s`.

use amrm_baselines::Regime;
use amrm_metrics::{CounterSnapshot, RejectReason};
use amrm_sim::SimOutcome;

use crate::decorators::SchedCall;
use crate::spans::{self, Span, SpanName, NO_PARENT};
use crate::stats;
use crate::Metric;

/// Per-layer metric names and units, in report order. `trace.*` entries
/// other than the wall and residual are filled in by the run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("stream.next_calls", "count"),
    ("stream.next_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.self_ns_per_event", "ns"),
    ("kernel.events", "count"),
    ("kernel.heap_pushes", "count"),
    ("kernel.peak_queue_depth", "count"),
    ("admission.calls", "count"),
    ("admission.on_arrival_s", "s"),
    ("admission.flushes", "count"),
    ("admission.queue_deadline_drops", "count"),
    ("admission.activations_per_request", "ratio"),
    ("sched.calls", "count"),
    ("sched.busy_s", "s"),
    ("sched.share", "ratio"),
    ("sched.us_p50", "us"),
    ("sched.us_p99", "us"),
    ("sched.infeasible_share", "ratio"),
    ("sched.jobs_per_call", "count"),
    ("sched.meta.light.calls", "count"),
    ("sched.meta.light.busy_s", "s"),
    ("sched.meta.light.us_mean", "us"),
    ("sched.meta.heavy.calls", "count"),
    ("sched.meta.heavy.busy_s", "s"),
    ("sched.meta.heavy.us_mean", "us"),
    ("sched.meta.exact.calls", "count"),
    ("sched.meta.exact.busy_s", "s"),
    ("sched.meta.exact.us_mean", "us"),
    ("sched.meta.switches", "count"),
    ("exmem.memo_hits", "count"),
    ("journal.total", "count"),
    ("journal.dropped", "count"),
    ("journal.rejects.expired_before_flush", "count"),
    ("journal.rejects.infeasible_joint_schedule", "count"),
    ("journal.rejects.rollback_victim", "count"),
    ("journal.rejects.queue_deadline", "count"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Everything a traced pass observed.
pub struct TracedPass<'a> {
    /// The recorded spans.
    pub spans: &'a [Span],
    /// The scheduler calls, as the decorator saw them.
    pub calls: &'a [SchedCall],
    /// META's regime switches (0 for other schedulers).
    pub switches: usize,
    /// The `instrument` counters taken over the pass.
    pub counters: CounterSnapshot,
    /// The pass outcome.
    pub outcome: &'a SimOutcome,
    /// Host nanoseconds from the first pull to `run` returning.
    pub wall_ns: u64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of the pass, in [`PER_LAYER`] order except that
/// `trace.overhead_share` is left out: it compares against timed passes.
///
/// # Errors
///
/// Returns an error when a scheduler or admission span is not nested in
/// a kernel span, or the layers do not add up to the wall time.
pub fn layer_metrics(pass: &TracedPass<'_>) -> Result<Vec<Metric>, String> {
    let spans = pass.spans;
    let self_ns = spans::self_times(spans);
    let mut count = [0u64; 7];
    let mut total = [0u64; 7];
    let mut self_total = [0u64; 7];
    let mut roots = 0u64;
    for (s, own) in spans.iter().zip(&self_ns) {
        let k = s.name as usize;
        count[k] += 1;
        total[k] += s.duration();
        self_total[k] += own;
        if s.parent == NO_PARENT {
            roots += s.duration();
        }
        let nested_in_kernel = s.parent != NO_PARENT && spans[s.parent as usize].name.is_kernel();
        if matches!(s.name, SpanName::Sched | SpanName::Admission) && !nested_in_kernel {
            return Err(format!("{} span outside a kernel call", s.name.as_str()));
        }
    }
    let of = |name: SpanName| name as usize;
    let kernel_self: u64 = [
        SpanName::Inject,
        SpanName::Step,
        SpanName::Finalize,
        SpanName::Drain,
    ]
    .iter()
    .map(|&n| self_total[of(n)])
    .sum();
    let stream_ns = total[of(SpanName::StreamNext)];
    let sched_ns = total[of(SpanName::Sched)];
    let admission_ns = total[of(SpanName::Admission)];
    let residual = pass
        .wall_ns
        .checked_sub(roots)
        .ok_or("root spans outlast the traced wall time")?;
    if stream_ns + kernel_self + sched_ns + admission_ns + residual != pass.wall_ns {
        return Err("layer self times and residual do not sum to the wall time".into());
    }

    let mut call_ns: Vec<u64> = pass
        .calls
        .iter()
        .map(|c| spans[c.span as usize].duration())
        .collect();
    call_ns.sort_unstable();
    let (p50, p99) = if call_ns.is_empty() {
        (0.0, 0.0)
    } else {
        let tail = stats::tail_permille(call_ns.len(), 990);
        (
            stats::percentile(&call_ns, 500) as f64 * 1e-3,
            stats::percentile(&call_ns, tail) as f64 * 1e-3,
        )
    };
    let calls = pass.calls.len() as f64;
    let infeasible = pass.calls.iter().filter(|c| !c.feasible).count() as f64;
    let jobs: usize = pass.calls.iter().map(|c| c.jobs).sum();

    let outcome = pass.outcome;
    let c = &pass.counters;
    let wall = secs(pass.wall_ns);
    let mut values = vec![
        count[of(SpanName::StreamNext)] as f64,
        secs(stream_ns),
        secs(kernel_self),
        ratio(kernel_self as f64, c.events as f64),
        c.events as f64,
        c.heap_pushes as f64,
        c.peak_queue_depth as f64,
        count[of(SpanName::Admission)] as f64,
        secs(admission_ns),
        c.flushes as f64,
        outcome.queue_deadline_drops as f64,
        ratio(outcome.stats.activations as f64, outcome.offered as f64),
        calls,
        secs(sched_ns),
        ratio(secs(sched_ns), wall),
        p50,
        p99,
        ratio(infeasible, calls),
        ratio(jobs as f64, calls),
    ];
    for regime in [Regime::Light, Regime::Heavy, Regime::Exact] {
        let (n, ns) = pass
            .calls
            .iter()
            .filter(|c| c.regime == Some(regime))
            .fold((0u64, 0u64), |(n, ns), c| {
                (n + 1, ns + spans[c.span as usize].duration())
            });
        values.extend([n as f64, secs(ns), ratio(ns as f64 * 1e-3, n as f64)]);
    }
    values.push(pass.switches as f64);
    values.push(c.memo_hits as f64);
    let (journal_total, journal_dropped, rejects) = match &outcome.journal {
        Some(j) => (j.total(), j.dropped(), *j.reject_reasons()),
        None => (0, 0, [0; 4]),
    };
    values.extend([journal_total as f64, journal_dropped as f64]);
    values.extend(
        RejectReason::ALL
            .iter()
            .map(|&r| rejects[r as usize] as f64),
    );
    values.extend([wall, secs(residual)]);

    Ok(PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect())
}
