//! The serving loop: decorators are transparent, the traced layers add
//! up to the wall time, and the metric names match `BENCHMARK.json`.

use std::cell::Cell;
use std::path::Path;

use amrm_core::{AdmissionPolicy, Scheduler};
use amrm_metrics::instrument;
use amrm_perfbench::decorators::{Regimes, TracedAdmission, TracedScheduler, TracedStream};
use amrm_perfbench::layers::{self, TracedPass, PER_LAYER};
use amrm_perfbench::serve::{self, Observe, Setup};
use amrm_perfbench::workload::Visit;
use amrm_perfbench::{spans, Metric, Workload, END_TO_END};
use amrm_sim::SimOutcome;

/// Requests per test run: enough for queueing, flushes, regime switches
/// and rejections on every workload.
const REQUESTS: usize = 400;
const SEED: u64 = 2020;

thread_local! {
    static TICKS: Cell<u64> = const { Cell::new(0) };
}

fn ticking() -> u64 {
    TICKS.with(|t| {
        t.set(t.get() + 7);
        t.get()
    })
}

/// Everything of an outcome that is sim-time only, so must repeat bit
/// for bit (the telemetry summary also holds host-time latencies).
fn fingerprint(o: &SimOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        o.admissions.clone(),
        o.offered,
        o.accepted(),
        o.total_energy.to_bits(),
        o.end_time.to_bits(),
        o.stats,
        o.queue_deadline_drops,
        o.peak_live_requests,
        o.journal.clone(),
    )
}

/// What a bare and a decorated run of the same requests produced.
struct Pair {
    bare: SimOutcome,
    traced: SimOutcome,
    spans: usize,
    layers: Result<Vec<Metric>, String>,
}

/// Serves the workload's first [`REQUESTS`] requests bare and decorated.
struct BareAndTraced(Workload);

impl Visit for BareAndTraced {
    type Out = Pair;

    fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> Pair
    where
        S: Scheduler + Regimes,
        A: AdmissionPolicy + Clone,
    {
        let w = self.0;
        let setup = Setup::characterise();
        let bare = serve::serve(
            serve::open(
                setup.platform.clone(),
                scheduler(),
                admission.clone(),
                w.journal(),
                false,
            ),
            w.stream(&setup.library, REQUESTS, SEED),
            ticking,
            Observe::Timed,
        );
        assert!(
            bare.outcome.accepted() > 0,
            "{}: nothing accepted",
            w.name()
        );
        assert!(
            bare.outcome.rejected() > 0,
            "{}: nothing rejected",
            w.name()
        );
        assert_eq!(bare.steps_ns.len(), REQUESTS - 1);

        let _ = instrument::take();
        spans::start(ticking);
        let traced = serve::serve(
            serve::open(
                setup.platform,
                TracedScheduler::new(scheduler()),
                TracedAdmission(admission),
                w.journal(),
                false,
            ),
            TracedStream(w.stream(&setup.library, REQUESTS, SEED)),
            ticking,
            Observe::Traced,
        );
        let recorded = spans::finish();
        let layers = layers::layer_metrics(&TracedPass {
            spans: &recorded,
            calls: traced.scheduler.calls(),
            switches: traced.scheduler.switches(),
            counters: instrument::take(),
            outcome: &traced.outcome,
            wall_ns: traced.wall_ns,
        });
        Pair {
            bare: bare.outcome,
            traced: traced.outcome,
            spans: recorded.len(),
            layers,
        }
    }
}

#[test]
fn decorators_leave_every_workload_bit_identical() {
    for w in Workload::ALL {
        let pair = w.visit(BareAndTraced(w));
        assert_eq!(
            fingerprint(&pair.bare),
            fingerprint(&pair.traced),
            "{}: the traced run diverged",
            w.name()
        );
        assert!(pair.spans > REQUESTS);
    }
}

#[test]
fn closed_loop_matches_the_open_loop_kernel() {
    struct Both(Workload);
    impl Visit for Both {
        type Out = (SimOutcome, SimOutcome);
        fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> Self::Out
        where
            S: Scheduler + Regimes,
            A: AdmissionPolicy + Clone,
        {
            let w = self.0;
            let setup = Setup::characterise();
            let closed = serve::serve(
                serve::open(
                    setup.platform.clone(),
                    scheduler(),
                    admission.clone(),
                    w.journal(),
                    false,
                ),
                w.stream(&setup.library, REQUESTS, SEED),
                ticking,
                Observe::Timed,
            );
            let open = serve::open_loop(
                setup.platform,
                scheduler(),
                admission,
                w.journal(),
                w.stream(&setup.library, REQUESTS, SEED),
            );
            (closed.outcome, open)
        }
    }
    for w in Workload::ALL {
        let (closed, open) = w.visit(Both(w));
        assert_eq!(fingerprint(&closed), fingerprint(&open), "{}", w.name());
    }
}

#[test]
fn traced_layers_sum_to_the_wall_time() {
    for w in Workload::ALL {
        let pair = w.visit(BareAndTraced(w));
        let metrics = pair.layers.expect("layers nest and add up");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        let sum = get("stream.next_s")
            + get("kernel.self_s")
            + get("admission.on_arrival_s")
            + get("sched.busy_s")
            + get("trace.residual_s");
        assert!((sum - get("trace.wall_s")).abs() < 1e-12, "{}", w.name());
        assert_eq!(get("stream.next_calls"), (REQUESTS + 1) as f64);
        assert_eq!(get("admission.calls"), REQUESTS as f64);
        assert_eq!(get("sched.calls"), pair.traced.stats.activations as f64);
        // Every per-layer metric but the overhead share comes from the pass.
        assert_eq!(metrics.len(), PER_LAYER.len() - 1);
    }
}

#[test]
fn metric_names_match_the_manifest() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json beside perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (reason, (name, _)) in amrm_metrics::RejectReason::ALL
        .iter()
        .zip(&PER_LAYER[32..36])
    {
        assert_eq!(*name, format!("journal.rejects.{}", reason.name()));
    }
}
