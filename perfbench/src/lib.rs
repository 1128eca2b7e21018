//! Serving-loop benchmark of the amrm runtime manager.
//!
//! A run drives one [`Workload`] through the public `Simulation` API for
//! a fixed number of host seconds, in whole passes over the same seeded
//! stream, checks every pass for correctness and reports one JSON line.
//! A timed run (`--trace 0`) reports the end-to-end metrics in
//! [`END_TO_END`]; a traced run (`--trace 1`) alternates timed and
//! traced passes and reports the per-layer metrics in
//! [`layers::PER_LAYER`]. See `README.md` beside this crate.
//!
//! The library never reads the wall clock itself: the entry point in
//! `benches/serve.rs` passes it in as a `fn() -> u64` of nanoseconds.

pub mod decorators;
pub mod layers;
pub mod reference;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use amrm_core::{AdmissionPolicy, Scheduler};
use amrm_metrics::instrument;
use amrm_sim::Simulation;
use amrm_workload::ArrivalStream;

use crate::decorators::{Regimes, TracedAdmission, TracedScheduler, TracedStream};
use crate::layers::TracedPass;
use crate::serve::{Observe, Served, Setup};
pub use crate::workload::Workload;

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("decide_us_p50", "us"),
    ("decide_us_p99", "us"),
    ("energy_j_per_accepted", "J"),
    ("accepted_share", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Requests replayed with trace recording on for the trace check. The
/// check's cost grows faster than linearly in the admitted jobs.
pub const TRACE_CHECK_PREFIX: usize = 3_000;

/// Passes a run makes at least, even past its time budget.
const MIN_PASSES: usize = 3;

/// Set-ups a run times on their own before its passes; `setup_s` is the
/// median over these and the passes' own set-ups.
const SETUP_SAMPLES: usize = 40;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// The workload to serve.
    pub workload: Workload,
    /// Seed of the arrival stream.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`. A bare
    /// `--bench`, which `cargo bench` appends, is ignored.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed
    /// argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--bench" {
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                },
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let missing = |what: &str| format!("missing --{what}");
        Ok(Options {
            workload: workload.ok_or_else(|| missing("workload"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        })
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Requests served over all passes.
    pub attempted: u64,
    /// Requests that missed a deadline, never completed or were lost.
    pub failed: u64,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// The failed checks.
    pub errors: Vec<String>,
    /// Where and how the figures were measured.
    pub provenance: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "{}: {{\"value\": {:?}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line, with the failed checks.
    pub fn provenance_json(&self) -> String {
        let mut fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        fields.push(format!("\"errors\": [{}]", errors.join(", ")));
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

/// What one pass measured, reduced to what the run reports.
struct PassSummary {
    /// Rescales this pass's host times to the nominal host (see
    /// [`reference`]); 1 until the pass is bracketed.
    scale: f64,
    setup_ns: u64,
    wall_ns: u64,
    requests: usize,
    /// Step samples, and their median and tail in host nanoseconds.
    steps: usize,
    step_p50_ns: u64,
    step_tail_ns: u64,
    offered: usize,
    accepted: usize,
    energy: f64,
    failed: u64,
    check: Result<(), String>,
    layers: Option<Result<Vec<Metric>, String>>,
    spans: Vec<spans::Span>,
}

/// One pass: set up afresh, then serve the whole stream.
struct Pass {
    workload: Workload,
    seed: u64,
    clock: fn() -> u64,
    observe: Observe,
}

impl workload::Visit for Pass {
    type Out = PassSummary;

    fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> PassSummary
    where
        S: Scheduler + Regimes,
        A: AdmissionPolicy + Clone,
    {
        let (w, seed, clock) = (self.workload, self.seed, self.clock);
        match self.observe {
            Observe::Timed => {
                let (setup_ns, sim, stream) = set_up(w, seed, clock, || (scheduler(), admission));
                let served = serve::serve(sim, stream, clock, Observe::Timed);
                summarise(setup_ns, served, None, Vec::new())
            }
            Observe::Traced => {
                let (setup_ns, sim, stream) = set_up(w, seed, clock, || {
                    (
                        TracedScheduler::new(scheduler()),
                        TracedAdmission(admission),
                    )
                });
                let _ = instrument::take();
                spans::start(clock);
                let served = serve::serve(sim, TracedStream(stream), clock, Observe::Traced);
                let spans = spans::finish();
                let counters = instrument::take();
                let layers = layers::layer_metrics(&TracedPass {
                    spans: &spans,
                    calls: served.scheduler.calls(),
                    switches: served.scheduler.switches(),
                    counters,
                    outcome: &served.outcome,
                    wall_ns: served.wall_ns,
                });
                summarise(setup_ns, served, Some(layers), spans)
            }
        }
    }
}

/// Set-up as a user pays it: the platform, the characterised library,
/// the stream and the kernel. Returns its host nanoseconds with the
/// kernel and the stream.
fn set_up<S, A>(
    w: Workload,
    seed: u64,
    clock: fn() -> u64,
    make: impl FnOnce() -> (S, A),
) -> (u64, Simulation<S, A>, ArrivalStream)
where
    S: Scheduler,
    A: AdmissionPolicy,
{
    let t0 = clock();
    let setup = Setup::characterise();
    let stream = w.stream(&setup.library, w.requests(), seed);
    let (scheduler, admission) = make();
    let sim = serve::open(setup.platform, scheduler, admission, w.journal(), false);
    (clock() - t0, sim, stream)
}

/// Set-up alone, timed and dropped: extra `setup_s` samples.
struct SetUpOnly {
    workload: Workload,
    seed: u64,
    clock: fn() -> u64,
}

impl workload::Visit for SetUpOnly {
    type Out = u64;

    fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> u64
    where
        S: Scheduler + Regimes,
        A: AdmissionPolicy + Clone,
    {
        set_up(self.workload, self.seed, self.clock, || {
            (scheduler(), admission)
        })
        .0
    }
}

fn summarise<S>(
    setup_ns: u64,
    mut served: Served<S>,
    layers: Option<Result<Vec<Metric>, String>>,
    spans: Vec<spans::Span>,
) -> PassSummary {
    let steps = &mut served.steps_ns;
    steps.sort_unstable();
    let (step_p50_ns, step_tail_ns) = if steps.is_empty() {
        (0, 0)
    } else {
        (
            stats::percentile(steps, 500),
            stats::percentile(steps, stats::tail_permille(steps.len(), 990)),
        )
    };
    let o = &served.outcome;
    PassSummary {
        scale: 1.0,
        setup_ns,
        wall_ns: served.wall_ns,
        requests: served.requests,
        offered: o.offered,
        accepted: o.accepted(),
        energy: o.total_energy,
        failed: serve::failed_operations(o, served.requests),
        check: serve::check_pass(o, served.requests),
        layers,
        spans,
        steps: served.steps_ns.len(),
        step_p50_ns,
        step_tail_ns,
    }
}

/// The once-per-run checks, untimed: the closed-loop outcome equals the
/// open-loop `Simulation::from_stream` run on the same inputs, and a
/// prefix replayed with trace recording on passes [`serve::check_trace`].
struct Gate {
    workload: Workload,
    seed: u64,
    clock: fn() -> u64,
    accepted: usize,
    energy: f64,
}

impl workload::Visit for Gate {
    type Out = Vec<String>;

    fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> Vec<String>
    where
        S: Scheduler + Regimes,
        A: AdmissionPolicy + Clone,
    {
        let w = self.workload;
        let mut errors = Vec::new();
        let setup = Setup::characterise();
        let reference = serve::open_loop(
            setup.platform.clone(),
            scheduler(),
            admission.clone(),
            w.journal(),
            w.stream(&setup.library, w.requests(), self.seed),
        );
        if reference.accepted() != self.accepted
            || reference.total_energy.to_bits() != self.energy.to_bits()
        {
            errors.push(format!(
                "closed loop accepted {} with {} J, open loop {} with {} J",
                self.accepted,
                self.energy,
                reference.accepted(),
                reference.total_energy
            ));
        }
        let prefix = TRACE_CHECK_PREFIX.min(w.requests());
        let sim = serve::open(
            setup.platform.clone(),
            scheduler(),
            admission,
            w.journal(),
            true,
        );
        let stream = w.stream(&setup.library, prefix, self.seed);
        let served = serve::serve(sim, stream, self.clock, Observe::Timed);
        if let Err(e) = serve::check_pass(&served.outcome, prefix)
            .and_then(|()| serve::check_trace(&served.outcome, &setup.platform))
        {
            errors.push(format!("trace check on the first {prefix} requests: {e}"));
        }
        errors
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Directory the benchmark writes its span dumps to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(path: &Path, spans: &[spans::Span]) -> std::io::Result<()> {
    fs::create_dir_all(out_dir())?;
    let mut out = BufWriter::new(fs::File::create(path)?);
    spans::write_tsv(spans, &mut out)?;
    out.flush()
}

fn median_of(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a timed run, in [`END_TO_END`] order. Host
/// times are rescaled to the nominal host when `nominal`; `setups` are
/// `(host ns, scale)` pairs.
fn end_to_end(
    timed: &[PassSummary],
    setups: &[(u64, f64)],
    rss_mib: f64,
    nominal: bool,
) -> Vec<Metric> {
    let k = |scale: f64| if nominal { scale } else { 1.0 };
    let first = &timed[0];
    let setup: Vec<f64> = setups
        .iter()
        .map(|&(ns, scale)| ns as f64 * k(scale) * 1e-9)
        .collect();
    let values = [
        stats::median(&setup),
        median_of(timed, |p| {
            p.requests as f64 / (p.wall_ns as f64 * k(p.scale) * 1e-9)
        }),
        median_of(timed, |p| p.step_p50_ns as f64 * k(p.scale) * 1e-3),
        median_of(timed, |p| p.step_tail_ns as f64 * k(p.scale) * 1e-3),
        first.energy / first.accepted.max(1) as f64,
        first.accepted as f64 / first.offered.max(1) as f64,
        rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect()
}

/// The per-layer metrics of a traced run: those of the traced pass with
/// the median wall time, so that they add up, then the tracing overhead
/// against the timed passes.
fn median_pass_layers(timed: &[PassSummary], traced: &[PassSummary]) -> Vec<Metric> {
    let mut by_wall: Vec<&PassSummary> = traced.iter().collect();
    by_wall.sort_by_key(|p| p.wall_ns);
    // A failed pass is reported among the run's errors.
    let mut out = match &by_wall[by_wall.len() / 2].layers {
        Some(Ok(m)) => m.clone(),
        _ => Vec::new(),
    };
    let overhead =
        median_of(traced, |p| p.wall_ns as f64) / median_of(timed, |p| p.wall_ns as f64) - 1.0;
    let (name, unit) = layers::PER_LAYER[layers::PER_LAYER.len() - 1];
    out.push(Metric::new(name, unit, overhead));
    out
}

/// Runs `opts` with `clock` (host nanoseconds since any fixed origin).
pub fn run(opts: &Options, clock: fn() -> u64) -> RunResult {
    let w = opts.workload;
    let budget_ns = opts.seconds.saturating_mul(1_000_000_000);
    let t_run = clock();
    let mut timed: Vec<PassSummary> = Vec::new();
    let mut traced: Vec<PassSummary> = Vec::new();
    let pass = |observe| {
        w.visit(Pass {
            workload: w,
            seed: opts.seed,
            clock,
            observe,
        })
    };
    // Host speed is sampled by the reference kernel at the start, after
    // the set-up samples, and after every pass.
    let mut reference_ns = vec![reference::measure(clock)];
    let mut setups: Vec<(u64, f64)> = (0..SETUP_SAMPLES)
        .map(|_| {
            let ns = w.visit(SetUpOnly {
                workload: w,
                seed: opts.seed,
                clock,
            });
            (ns, 1.0)
        })
        .collect();
    reference_ns.push(reference::measure(clock));
    let setup_scale = reference::scale(reference_ns[0], reference_ns[1]);
    for s in &mut setups {
        s.1 = setup_scale;
    }
    // Start another round only if one more, as long as the last, still
    // ends within the budget.
    let mut round_ns = 0;
    while timed.len() < MIN_PASSES || clock() - t_run + round_ns <= budget_ns {
        let t_round = clock();
        let mut p = pass(Observe::Timed);
        let after = reference::measure(clock);
        p.scale = reference::scale(reference_ns[reference_ns.len() - 1], after);
        reference_ns.push(after);
        setups.push((p.setup_ns, p.scale));
        timed.push(p);
        if opts.trace {
            // Keep only the last traced pass's spans for the dump.
            if let Some(prev) = traced.last_mut() {
                prev.spans = Vec::new();
            }
            traced.push(pass(Observe::Traced));
            reference_ns.push(reference::measure(clock));
        }
        round_ns = clock() - t_round;
    }
    let rss = peak_rss_mib();

    let mut errors = Vec::new();
    let first = &timed[0];
    for (i, p) in timed.iter().chain(&traced).enumerate() {
        if let Err(e) = &p.check {
            errors.push(format!("pass {i}: {e}"));
        }
        if let Some(Err(e)) = &p.layers {
            errors.push(format!("pass {i}: {e}"));
        }
        if p.accepted != first.accepted || p.energy.to_bits() != first.energy.to_bits() {
            errors.push(format!(
                "pass {i}: accepted {} with {} J, first pass {} with {} J",
                p.accepted, p.energy, first.accepted, first.energy
            ));
        }
    }
    errors.extend(w.visit(Gate {
        workload: w,
        seed: opts.seed,
        clock,
        accepted: first.accepted,
        energy: first.energy,
    }));
    if rss.is_none() {
        errors.push("VmHWM not readable from /proc/self/status".into());
    }

    let metrics = if opts.trace {
        median_pass_layers(&timed, &traced)
    } else {
        end_to_end(&timed, &setups, rss.unwrap_or(0.0), true)
    };
    let host: Vec<String> = end_to_end(&timed, &setups, rss.unwrap_or(0.0), false)
        .iter()
        .take(4)
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    let step_samples = first.steps;
    let tail = stats::tail_permille(step_samples, 990);

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let mut provenance = vec![
        ("workload", w.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("run_seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("timed_passes", timed.len().to_string()),
        ("traced_passes", traced.len().to_string()),
        ("requests_per_pass", w.requests().to_string()),
        ("step_samples_per_pass", step_samples.to_string()),
        ("decide_tail_percentile", format!("p{}", tail as f64 / 10.0)),
        (
            "timed_pass_wall_s",
            timed
                .iter()
                .map(|p| format!("{:.4}", p.wall_ns as f64 * 1e-9))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("host_unscaled", host.join(" ")),
        (
            "reference_ms",
            reference_ns
                .iter()
                .map(|ns| format!("{:.3}", *ns as f64 * 1e-6))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        // Recorded by build.rs.
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("git_commit", git_commit(&root)),
    ];
    if let Some(last) = traced.last() {
        let path = out_dir().join(format!("{}.spans.tsv", w.name()));
        match write_spans(&path, &last.spans) {
            Ok(()) => provenance.push(("spans", path.display().to_string())),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
    }

    let passes = timed.iter().chain(&traced);
    RunResult {
        correct: errors.is_empty(),
        attempted: passes.clone().map(|p| p.requests as u64).sum(),
        failed: passes.map(|p| p.failed).sum(),
        metrics,
        errors,
        provenance,
    }
}
