//! Closed-loop serving and the correctness gate.
//!
//! The loop feeds a [`Simulation::open`] kernel one request at a time
//! through the public `inject_request` → `advance_until` →
//! `close_stream` → `finalize` → `run` path: it injects the next request
//! only after the previous step has returned. Arrival instants are
//! simulated time from the seeded stream.

use amrm_core::{AdmissionPolicy, ReactivationPolicy, Scheduler, SearchBudget};
use amrm_metrics::JournalConfig;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_sim::{SimOutcome, Simulation};
use amrm_workload::ScenarioRequest;

use crate::spans::{self, SpanName};

/// How the serving loop observes itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Two clock reads around each step, nothing else.
    Timed,
    /// A span around every call into the kernel; no step samples.
    Traced,
}

/// The characterised platform and application library every run starts
/// from.
pub struct Setup {
    /// The Odroid XU4 model.
    pub platform: Platform,
    /// The `benchmark_suite` library, characterised on `platform`.
    pub library: Vec<AppRef>,
}

impl Setup {
    /// Builds the platform and characterises the library on it.
    pub fn characterise() -> Setup {
        let platform = Platform::odroid_xu4();
        let library = amrm_dataflow::apps::benchmark_suite(&platform);
        Setup { platform, library }
    }
}

/// An externally driven kernel with the benchmark's settings: the
/// online search budget, lean outcome mode unless `record_trace`, and
/// the default journal when `journal`.
pub fn open<S, A>(
    platform: Platform,
    scheduler: S,
    admission: A,
    journal: bool,
    record_trace: bool,
) -> Simulation<S, A>
where
    S: Scheduler,
    A: AdmissionPolicy,
{
    let sim = Simulation::open(
        platform,
        scheduler,
        ReactivationPolicy::OnArrival,
        admission,
    )
    .with_search_budget(SearchBudget::online());
    configure(sim, journal, record_trace)
}

/// The same run as [`open`], but the kernel pulls `stream` itself (open
/// loop): the reference the closed-loop outcome must equal.
pub fn open_loop<S, A, I>(
    platform: Platform,
    scheduler: S,
    admission: A,
    journal: bool,
    stream: I,
) -> SimOutcome
where
    S: Scheduler,
    A: AdmissionPolicy,
    I: Iterator<Item = ScenarioRequest> + Send + 'static,
{
    let sim = Simulation::from_stream(
        platform,
        scheduler,
        ReactivationPolicy::OnArrival,
        admission,
        stream,
    )
    .with_search_budget(SearchBudget::online());
    configure(sim, journal, false).run()
}

fn configure<S: Scheduler, A: AdmissionPolicy>(
    mut sim: Simulation<S, A>,
    journal: bool,
    record_trace: bool,
) -> Simulation<S, A> {
    if !record_trace {
        sim = sim.without_trace();
    }
    if journal {
        sim = sim.with_journal(JournalConfig::default());
    }
    sim
}

/// What one closed-loop serving run produced.
pub struct Served<S> {
    /// The simulation outcome.
    pub outcome: SimOutcome,
    /// The scheduler, handed back by `run_with_scheduler`.
    pub scheduler: S,
    /// Requests pulled from the stream and injected.
    pub requests: usize,
    /// Host nanoseconds of each step (requests − 1 of them), in
    /// [`Observe::Timed`] runs.
    pub steps_ns: Vec<u64>,
    /// Host nanoseconds from the first pull of the stream to `run`
    /// returning.
    pub wall_ns: u64,
}

/// Serves `stream` through `sim` one request at a time.
///
/// A step is the `advance_until(next arrival)` call after an inject: it
/// handles the injected request's arrival and admission decision, and
/// the completions before the next arrival. The last request is decided
/// in `finalize`, so a run of `n` requests has `n - 1` steps.
pub fn serve<S, A, I>(
    mut sim: Simulation<S, A>,
    mut stream: I,
    clock: fn() -> u64,
    observe: Observe,
) -> Served<S>
where
    S: Scheduler,
    A: AdmissionPolicy,
    I: Iterator<Item = ScenarioRequest>,
{
    let traced = observe == Observe::Traced;
    let mut steps_ns = Vec::with_capacity(if traced { 0 } else { stream.size_hint().0 });
    let mut requests = 0usize;
    let mut last_arrival = 0.0;
    let t_first = clock();
    let mut next = stream.next();
    while let Some(req) = next {
        requests += 1;
        last_arrival = req.arrival;
        if traced {
            spans::set_request(u32::try_from(requests).expect("request ordinal fits u32"));
            spans::scoped(SpanName::Inject, || sim.inject_request(req));
        } else {
            sim.inject_request(req);
        }
        next = stream.next();
        if let Some(following) = &next {
            let t = following.arrival;
            if traced {
                spans::scoped(SpanName::Step, || sim.advance_until(t));
            } else {
                let t0 = clock();
                sim.advance_until(t);
                steps_ns.push(clock() - t0);
            }
        }
    }
    let mut close = || {
        sim.close_stream();
        sim.finalize(last_arrival);
    };
    let (outcome, scheduler) = if traced {
        spans::scoped(SpanName::Finalize, close);
        spans::scoped(SpanName::Drain, || sim.run_with_scheduler())
    } else {
        close();
        sim.run_with_scheduler()
    };
    let wall_ns = clock() - t_first;
    Served {
        outcome,
        scheduler,
        requests,
        steps_ns,
        wall_ns,
    }
}

/// The checks every pass must pass: no deadline misses, every accepted
/// job completed, and every generated request decided.
///
/// # Errors
///
/// Returns a description of each failed check.
pub fn check_pass(outcome: &SimOutcome, generated: usize) -> Result<(), String> {
    let mut errors = Vec::new();
    let stats = &outcome.stats;
    if stats.deadline_misses != 0 {
        errors.push(format!("{} deadline misses", stats.deadline_misses));
    }
    if stats.completed != outcome.accepted() {
        errors.push(format!(
            "{} jobs completed but {} accepted",
            stats.completed,
            outcome.accepted()
        ));
    }
    if outcome.offered != generated {
        errors.push(format!(
            "{} requests offered but {generated} generated",
            outcome.offered
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Requests of a pass that did not end as they must: deadline misses,
/// accepted jobs that never completed, and generated requests that were
/// never decided.
pub fn failed_operations(outcome: &SimOutcome, generated: usize) -> u64 {
    let stats = &outcome.stats;
    (stats.deadline_misses
        + outcome.accepted().abs_diff(stats.completed)
        + generated.abs_diff(outcome.offered)) as u64
}

/// Checks a run with trace recording on: the executed trace satisfies
/// the paper's constraints (2b)–(2e) for the admitted jobs, and its
/// energy matches the metered total to 1e-9 relative.
///
/// # Errors
///
/// Returns the violated constraint or the energy mismatch.
pub fn check_trace(outcome: &SimOutcome, platform: &Platform) -> Result<(), String> {
    outcome
        .trace
        .validate(&outcome.admitted_jobs, platform, 0.0)
        .map_err(|e| format!("executed trace invalid: {e}"))?;
    let traced = outcome.trace.energy(&outcome.admitted_jobs);
    let metered = outcome.total_energy;
    let rel = (traced - metered).abs() / metered.abs().max(f64::MIN_POSITIVE);
    if rel > 1e-9 {
        return Err(format!(
            "trace energy {traced} differs from metered {metered} (relative {rel:e})"
        ));
    }
    Ok(())
}
