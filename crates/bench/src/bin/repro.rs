//! Regenerates every table and figure of the paper and runs the extension
//! harnesses. `repro --help` lists the commands and options; that text,
//! the parser and every "flag does not apply to this command" rejection
//! come from the [`COMMANDS`] and [`FLAGS`] tables below.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use amrm_baselines::{standard_registry, EXMEM_NAME};
use amrm_bench::runner::{evaluate_suite, SuiteEvaluation};
use amrm_bench::{
    ablation, admission, baseline, exact, profile, reports, shard, sweep, trace, tune,
};
use amrm_core::{SchedulerRegistry, SearchBudget};
use amrm_dataflow::apps;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_workload::{generate_suite, save_suite, StreamSpec, SuiteSpec};
use serde::Serialize;

// Opt-in allocation accounting for `repro profile`: build with
// `--features count-alloc` to report per-run allocation tallies.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static COUNTING_ALLOCATOR: amrm_metrics::CountingAllocator = amrm_metrics::CountingAllocator;

/// Every command with its one-line help, in help order.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str)] = &[
    ("table2",     "Table II: motivational operating points"),
    ("motivation", "Table I + Figure 1: the three management scenarios"),
    ("table3",     "Table III: test-case counts"),
    ("fig2",       "Figure 2: scheduling rate (tight deadlines)"),
    ("table4",     "Table IV: geomean relative energy vs EX-MEM"),
    ("fig3",       "Figure 3: S-curves of relative energy"),
    ("fig4",       "Figure 4: search-time box plots"),
    ("ablation",   "job-order policy, online admission and DVFS ablations"),
    ("admission",  "stream x admission-policy x scheduler A/B grid"),
    ("sweep",      "acceptance/energy curves over an offered-load grid"),
    ("tune",       "parameter fitting: adaptive policies, META, EX-MEM caps"),
    ("profile",    "streaming-kernel throughput (1M requests; --quick: 20k)"),
    ("shard",      "sharded-federation weak scaling over routing policies"),
    ("trace",      "event-journal trace of a federated META run"),
    ("lint",       "determinism lint; exits non-zero on any violation"),
    ("exact",      "EX-MEM capped-ranking A/B and cold/warm cache replay"),
    ("all",        "table2, motivation, table3, fig2, table4, fig3, fig4 (default)"),
];

/// The value a flag takes.
enum Value {
    /// A bare switch.
    Switch,
    /// An unsigned integer no smaller than `min`.
    Number { min: u64 },
    /// Free text (a path or a list), shown as the given placeholder.
    Text(&'static str),
}

/// One command-line option.
struct Flag {
    name: &'static str,
    value: Value,
    /// The commands the flag applies to; empty means every command.
    commands: &'static [&'static str],
    help: &'static str,
}

/// Every option, in help order: name, value, the commands it applies to
/// (empty: every command) and help line.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--seed", Value::Number { min: 0 }, &[],
        "RNG seed of every generated workload (default 2020)"),
    flag("--threads", Value::Number { min: 1 }, &[],
        "worker threads (default: available parallelism)"),
    flag("--quick", Value::Switch, &[],
        "smoke run: Table III counts / 10, smaller grids and streams"),
    flag("--suite-out", Value::Text("FILE"), &["table3", "fig2", "table4", "fig3", "fig4", "all"],
        "save the generated suite as JSON"),
    flag("--json", Value::Text("FILE"),
        &["fig2", "table4", "fig3", "fig4", "all",
          "sweep", "tune", "profile", "shard", "trace", "lint", "exact"],
        "write the JSON artifact (suite commands: the perf baseline)"),
    flag("--schedulers", Value::Text("A,B,..."),
        &["fig2", "table4", "fig3", "fig4", "all", "ablation", "admission", "sweep"],
        "registry subset to evaluate (default: every scheduler)"),
    flag("--requests", Value::Number { min: 1 }, &["profile"],
        "profile stream length"),
    flag("--baseline", Value::Text("FILE"), &["profile"],
        "fail below the events/s floor recorded in baseline FILE"),
    flag("--sample", Value::Number { min: 0 }, &["trace"],
        "journal one request lifecycle in N (default 0 = all)"),
    flag("--out", Value::Text("FILE"), &["trace"],
        "write the Chrome trace-event (Perfetto) file"),
    flag("--cache-out", Value::Text("FILE"), &["exact"],
        "save the cold run's mapping cache (proofs only)"),
    flag("--warm-cache", Value::Text("FILE"), &["exact"],
        "replay warm from a saved mapping cache"),
    flag("--root", Value::Text("DIR"), &["lint"],
        "scan root (default: this workspace)"),
];

const fn flag(
    name: &'static str,
    value: Value,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        commands,
        help,
    }
}

/// A flag's checked value.
enum Given {
    Switch,
    Number(u64),
    Text(String),
}

/// A validated command line: a known command and the flags given to it.
struct Args {
    command: &'static str,
    values: BTreeMap<&'static str, Given>,
}

impl Args {
    fn get(&self, flag: &str) -> Option<&Given> {
        debug_assert!(FLAGS.iter().any(|f| f.name == flag), "unknown flag {flag}");
        self.values.get(flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.get(flag)? {
            Given::Text(text) => Some(text),
            _ => None,
        }
    }

    fn number(&self, flag: &str) -> Option<u64> {
        match self.get(flag)? {
            Given::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn seed(&self) -> u64 {
        self.number("--seed").unwrap_or(2020)
    }

    fn threads(&self) -> usize {
        self.number("--threads").map_or_else(
            || std::thread::available_parallelism().map_or(4, |n| n.get()),
            |n| usize::try_from(n).unwrap_or(usize::MAX),
        )
    }

    fn quick(&self) -> bool {
        self.get("--quick").is_some()
    }
}

/// Parses the command line against [`COMMANDS`] and [`FLAGS`]; `None`
/// means help was asked for.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut command = String::from("all");
    let mut values = BTreeMap::new();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        if !arg.starts_with('-') {
            command = arg;
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown option {arg}"))?;
        let value = match flag.value {
            Value::Switch => Given::Switch,
            Value::Number { min } => {
                let raw = argv
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value N"))?;
                let n: u64 = raw.parse().map_err(|e| format!("bad {arg} `{raw}`: {e}"))?;
                if n < min {
                    return Err(format!("{arg} must be at least {min}"));
                }
                Given::Number(n)
            }
            Value::Text(meta) => Given::Text(
                argv.next()
                    .ok_or_else(|| format!("{arg} needs a value {meta}"))?,
            ),
        };
        values.insert(flag.name, value);
    }
    let command = COMMANDS
        .iter()
        .map(|&(name, _)| name)
        .find(|&name| name == command)
        .ok_or_else(|| format!("unknown command `{command}`"))?;
    for flag in FLAGS.iter().filter(|f| values.contains_key(f.name)) {
        if !flag.commands.is_empty() && !flag.commands.contains(&command) {
            return Err(format!(
                "{} only applies to {}, not `{command}`",
                flag.name,
                flag.commands.join(", ")
            ));
        }
    }
    Ok(Some(Args { command, values }))
}

fn usage() -> String {
    let mut out = String::from("usage: repro [COMMAND] [OPTIONS]\n\nCOMMANDS\n");
    for (name, help) in COMMANDS {
        out += &format!("  {name:<12}{help}\n");
    }
    out += "\nOPTIONS\n";
    for flag in FLAGS {
        let head = match flag.value {
            Value::Switch => flag.name.to_string(),
            Value::Number { .. } => format!("{} N", flag.name),
            Value::Text(meta) => format!("{} {meta}", flag.name),
        };
        out += &format!("  {head:<24}{}\n", flag.help);
        if !flag.commands.is_empty() {
            out += &format!("  {:<24}(only {})\n", "", flag.commands.join(", "));
        }
    }
    out
}

fn main() -> ExitCode {
    let result = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let registry = resolve_registry(args.text("--schedulers"))?;
    let (seed, quick, threads) = (args.seed(), args.quick(), args.threads());
    let json = args.text("--json");
    match args.command {
        "table2" => println!("{}", reports::table2_report()),
        "motivation" => println!("{}", reports::motivation_report()),
        "ablation" => {
            let suite = ablation::ablation_suite(seed);
            let platform = amrm_workload::scenarios::platform();
            println!("{}", ablation::job_order_report(&suite, &platform));
            // An explicit --schedulers subset overrides the default online
            // registry (which is every scheduler except EX-MEM).
            let online = match args.text("--schedulers") {
                Some(_) => registry,
                None => ablation::online_registry(),
            };
            let platform = Platform::odroid_xu4();
            println!(
                "{}",
                ablation::online_admission_report(&platform, seed, &online)
            );
            println!("{}", ablation::dvfs_report());
        }
        "admission" => {
            let (platform, library) = characterize();
            let cells = run_admission_grid(&platform, &library, &registry, args);
            println!("{}", admission::admission_report(&cells));
        }
        "sweep" => run_sweep(args, &registry)?,
        "tune" => {
            let (platform, library) = characterize();
            let tune_opts = tune::TuneOptions {
                seed,
                quick,
                threads,
            };
            eprintln!(
                "fitting adaptive-policy and META parameters (seed {seed}, {threads} threads{}) ...",
                if quick { ", quick" } else { "" }
            );
            let t0 = std::time::Instant::now();
            let report = tune::tune_grid(&platform, &library, &tune_opts);
            eprintln!("search finished in {:.1} s", t0.elapsed().as_secs_f64());
            emit(&tune::tune_report(&report), json, &report)?;
        }
        "profile" => run_profile(args)?,
        "shard" => {
            eprintln!(
                "running sharded-federation bench: shard counts {:?} x 4 routing policies \
                 (seed {seed}, {threads} dispatcher threads{}) ...",
                shard::WEAK_SHARD_COUNTS,
                if quick { ", quick" } else { "" }
            );
            let report = shard::run_shard_bench(quick, seed, threads);
            emit(&shard::shard_report(&report), json, &report)?;
        }
        "trace" => {
            let sample = args.number("--sample").unwrap_or(0);
            eprintln!(
                "tracing federated META run: {} bursty requests over {} shards (seed {seed}) ...",
                if quick { 2_000 } else { 20_000 },
                trace::TRACE_SHARDS,
            );
            let run = trace::run_trace(quick, seed, sample);
            emit(&trace::trace_report(&run.report), json, &run.report)?;
            if let Some(path) = args.text("--out") {
                trace::write_chrome(path, &run.tracks)
                    .map_err(|e| format!("cannot write Chrome trace to {path}: {e}"))?;
                eprintln!("Chrome trace written to {path} (open at https://ui.perfetto.dev)");
            }
        }
        "exact" => {
            eprintln!(
                "running EX-MEM exact-path bench: ranking A/B on the bursty grid stream, \
                 cold-then-warm cache replay (seed {seed}) ..."
            );
            let report = exact::run_exact(
                quick,
                seed,
                args.text("--warm-cache").map(Path::new),
                args.text("--cache-out").map(Path::new),
            )
            .map_err(|e| format!("exact-path bench failed: {e}"))?;
            emit(&exact::exact_report(&report), json, &report)?;
        }
        "lint" => {
            // The binary is built from crates/bench, two levels below the
            // workspace root that holds the sources and `lint.allow`.
            let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
            let root = args
                .text("--root")
                .map(Path::new)
                .or(workspace)
                .expect("crates/bench sits two levels below the workspace root");
            let report = amrm_lint::run_lint(root).map_err(|e| format!("lint pass failed: {e}"))?;
            emit(&amrm_lint::report::render(&report), json, &report)?;
            if !report.is_clean() {
                return Err(format!("{} lint violation(s)", report.violations.len()));
            }
        }
        _ => run_suite(args, &registry)?,
    }
    Ok(())
}

/// Prints a rendered report and, when `--json` names a file, writes the
/// artifact there.
fn emit<T: Serialize>(rendered: &str, json: Option<&str>, artifact: &T) -> Result<(), String> {
    println!("{rendered}");
    if let Some(path) = json {
        amrm_bench::write_json(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("artifact written to {path}");
    }
    Ok(())
}

/// The paper's platform and its characterized application library.
fn characterize() -> (Platform, Vec<AppRef>) {
    let platform = Platform::odroid_xu4();
    eprintln!(
        "characterizing application library on {} ...",
        platform.name()
    );
    let library = apps::benchmark_suite(&platform);
    (platform, library)
}

/// Resolves the evaluation registry: the full standard registry, or the
/// `--schedulers` subset of it.
fn resolve_registry(list: Option<&str>) -> Result<SchedulerRegistry, String> {
    let standard = standard_registry();
    let Some(list) = list else {
        return Ok(standard);
    };
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    if let Some(name) = names.iter().find(|n| standard.index_of(n).is_none()) {
        return Err(format!(
            "unknown scheduler `{name}` (registered: {})",
            standard.names().join(", ")
        ));
    }
    Ok(standard.subset(&names))
}

/// Runs the stream × policy × scheduler admission grid for the `admission`
/// command and the `--json` baseline embedding (both report the same
/// cells). Every scheduler runs every stream — bursty included — under
/// the online [`SearchBudget`]: the anytime EX-MEM degrades to its MDF
/// fallback instead of hanging when bursts stack ~15 concurrent jobs.
/// EX-MEM — when present — still bounds the stream *length* (even
/// budgeted, thousands of exhaustive activations dominate the grid); an
/// explicit `--schedulers` subset without it unlocks full-length streams.
fn run_admission_grid(
    platform: &Platform,
    library: &[AppRef],
    registry: &SchedulerRegistry,
    args: &Args,
) -> Vec<admission::AdmissionCell> {
    let with_exmem = registry.index_of(EXMEM_NAME).is_some();
    let streams = admission::standard_streams(library, args.quick(), args.seed(), with_exmem);
    let policies = admission::standard_policies();
    let stream_refs: Vec<(&str, &[amrm_workload::ScenarioRequest])> = streams
        .iter()
        .map(|(label, stream)| (*label, stream.as_slice()))
        .collect();
    eprintln!(
        "running admission grid: {} streams x {} policies x {} schedulers ({}), {} requests each ...",
        streams.len(),
        policies.len(),
        registry.len(),
        registry.names().join(", "),
        streams.first().map_or(0, |(_, s)| s.len())
    );
    admission::admission_grid(
        platform,
        registry,
        &policies,
        &stream_refs,
        args.threads(),
        SearchBudget::online(),
    )
}

fn run_sweep(args: &Args, registry: &SchedulerRegistry) -> Result<(), String> {
    let (platform, library) = characterize();
    let quick = args.quick();
    let interarrivals: Vec<f64> = if quick {
        vec![1.0, 2.0, 4.0, 8.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    let spec = StreamSpec {
        requests: if quick { 40 } else { 150 },
        slack_range: (1.5, 3.0),
    };
    let policies = admission::standard_policies();
    eprintln!(
        "running load sweep: {} loads x {} policies x {} schedulers ({}), {} requests each ...",
        interarrivals.len(),
        policies.len(),
        registry.len(),
        registry.names().join(", "),
        spec.requests
    );
    let cells = sweep::sweep_grid(
        &platform,
        registry,
        &policies,
        &library,
        &interarrivals,
        &spec,
        args.seed(),
        args.threads(),
        SearchBudget::online(),
    );
    let rendered = sweep::sweep_report(&cells, &interarrivals);
    let report = sweep::SweepReport {
        seed: args.seed(),
        quick,
        requests_per_point: spec.requests,
        interarrivals,
        cells,
    };
    emit(&rendered, args.text("--json"), &report)
}

fn run_profile(args: &Args) -> Result<(), String> {
    let default = if args.quick() { 20_000 } else { 1_000_000 };
    let requests = args
        .number("--requests")
        .map_or(default, |n| usize::try_from(n).unwrap_or(usize::MAX));
    eprintln!(
        "profiling streaming kernel: {requests} diurnal requests per scheduler (seed {}) ...",
        args.seed()
    );
    let report = profile::run_profile(requests, args.seed());
    emit(
        &profile::profile_report(&report),
        args.text("--json"),
        &report,
    )?;
    let Some(path) = args.text("--baseline") else {
        return Ok(());
    };
    let recorded =
        baseline::read_json(path).map_err(|e| format!("cannot read baseline from {path}: {e}"))?;
    if recorded.profile.is_empty() {
        eprintln!("baseline {path} has no profile cells; floor check skipped");
        return Ok(());
    }
    profile::check_floor(&report.cells, &recorded.profile)
        .map_err(|msg| format!("throughput floor violated: {msg}"))?;
    eprintln!(
        "throughput floor satisfied against {path} ({}% of recorded events/s required)",
        (profile::FLOOR_FRACTION * 100.0) as u32
    );
    Ok(())
}

/// The suite commands: `table3`, `fig2`, `table4`, `fig3`, `fig4` and
/// `all`.
fn run_suite(args: &Args, registry: &SchedulerRegistry) -> Result<(), String> {
    let (seed, quick, threads) = (args.seed(), args.quick(), args.threads());
    if args.command == "all" {
        println!("{}", reports::table2_report());
        println!("{}", reports::motivation_report());
    }
    let (platform, library) = characterize();
    println!("{}", reports::library_report(&library));
    let mut spec = SuiteSpec::default();
    if quick {
        for c in spec.weak_counts.iter_mut().chain(&mut spec.tight_counts) {
            *c = (*c / 10).max(1);
        }
    }
    eprintln!("generating {} test cases (seed {seed}) ...", spec.total());
    let cases = generate_suite(&library, &spec, seed);
    if let Some(path) = args.text("--suite-out") {
        save_suite(path, &cases).map_err(|e| format!("cannot save suite to {path}: {e}"))?;
        eprintln!("suite saved to {path}");
    }
    if matches!(args.command, "table3" | "all") {
        println!("{}", reports::table3_report(&cases));
    }
    if args.command == "table3" {
        return Ok(());
    }

    eprintln!(
        "evaluating {} cases x {} schedulers ({}) on {threads} threads ...",
        cases.len(),
        registry.len(),
        registry.names().join(", "),
    );
    let t0 = std::time::Instant::now();
    let eval = evaluate_suite(&cases, &platform, threads, registry);
    let elapsed = t0.elapsed().as_secs_f64();
    eprintln!("evaluation finished in {elapsed:.1} s");

    let rendered = match args.command {
        "fig2" => reports::fig2_report(&eval),
        "table4" => reports::table4_report(&eval),
        "fig3" => reports::fig3_report(&eval),
        "fig4" => reports::fig4_report(&eval),
        _ => [
            reports::fig2_report(&eval),
            reports::table4_report(&eval),
            reports::fig3_report(&eval),
            reports::fig4_report(&eval),
        ]
        .join("\n"),
    };
    if let Some(path) = args.text("--json") {
        let summary = perf_baseline(args, &eval, elapsed, &platform, &library, registry)?;
        return emit(&rendered, Some(path), &summary);
    }
    println!("{rendered}");
    Ok(())
}

/// The `--json` perf baseline of a suite run: the suite aggregates plus
/// the admission grid, profile, shard, trace and exact-path cells.
fn perf_baseline(
    args: &Args,
    eval: &SuiteEvaluation,
    elapsed: f64,
    platform: &Platform,
    library: &[AppRef],
    registry: &SchedulerRegistry,
) -> Result<baseline::PerfBaseline, String> {
    let (seed, quick, threads) = (args.seed(), args.quick(), args.threads());
    let mut summary = baseline::summarize(eval, seed, threads, quick, elapsed);
    summary.admission = run_admission_grid(platform, library, registry, args);
    let profile_requests = if quick { 20_000 } else { 100_000 };
    eprintln!("profiling {profile_requests} requests per scheduler for the baseline ...");
    summary.profile = profile::run_profile(profile_requests, seed).cells;
    eprintln!("running sharded-federation bench for the baseline ...");
    summary.shard = shard::run_shard_bench(quick, seed, threads).cells;
    eprintln!("tracing federated META run for the baseline ...");
    summary.trace = trace::run_trace(quick, seed, 0).report.counts;
    eprintln!("running EX-MEM exact-path bench for the baseline ...");
    summary.exact = exact::run_exact(quick, seed, None, None)
        .map_err(|e| format!("exact-path bench failed: {e}"))?
        .cells;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (flag, commands) pairs `repro` accepts; an empty list means
    /// every command. Kept as literal data so an edit to [`FLAGS`] that
    /// changes what a command accepts fails here.
    const ACCEPTED: &[(&str, &[&str])] = &[
        ("--seed", &[]),
        ("--threads", &[]),
        ("--quick", &[]),
        (
            "--suite-out",
            &["table3", "fig2", "table4", "fig3", "fig4", "all"],
        ),
        (
            "--json",
            &[
                "fig2", "table4", "fig3", "fig4", "all", "sweep", "tune", "profile", "shard",
                "trace", "exact", "lint",
            ],
        ),
        (
            "--schedulers",
            &[
                "fig2",
                "table4",
                "fig3",
                "fig4",
                "all",
                "ablation",
                "admission",
                "sweep",
            ],
        ),
        ("--requests", &["profile"]),
        ("--baseline", &["profile"]),
        ("--sample", &["trace"]),
        ("--out", &["trace"]),
        ("--warm-cache", &["exact"]),
        ("--cache-out", &["exact"]),
        ("--root", &["lint"]),
    ];

    fn parse_line(line: &[&str]) -> Result<Option<Args>, String> {
        parse(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_flag_applies_to_exactly_its_commands() {
        assert_eq!(ACCEPTED.len(), FLAGS.len());
        for &(name, commands) in ACCEPTED {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name)
                .expect("flag in table");
            let value = match flag.value {
                Value::Switch => None,
                Value::Number { .. } => Some("3"),
                Value::Text(_) => Some("x"),
            };
            for &(command, _) in COMMANDS {
                let mut line = vec![command, name];
                line.extend(value);
                let parsed = parse_line(&line);
                if commands.is_empty() || commands.contains(&command) {
                    assert!(
                        matches!(parsed, Ok(Some(_))),
                        "{command} {name}: {:?}",
                        parsed.err()
                    );
                } else {
                    let err = parsed.err().unwrap_or_default();
                    assert!(err.contains(name), "{command} {name}: {err}");
                }
            }
        }
    }

    #[test]
    fn values_are_typed_when_parsed() {
        let args = parse_line(&["profile", "--requests", "7", "--seed", "9", "--quick"])
            .expect("valid")
            .expect("not help");
        assert_eq!(args.command, "profile");
        assert_eq!(args.number("--requests"), Some(7));
        assert_eq!(args.seed(), 9);
        assert!(args.quick());
        assert_eq!(
            parse_line(&[]).expect("valid").expect("not help").command,
            "all"
        );
        let err = |line: &[&str]| parse_line(line).err().unwrap_or_default();
        assert!(err(&["sweep", "--threads", "0"]).contains("--threads must be at least 1"));
        assert!(err(&["profile", "--requests", "0"]).contains("at least 1"));
        assert!(err(&["--seed", "x"]).contains("--seed"));
        assert!(err(&["--seed"]).contains("needs a value"));
        assert!(err(&["--bogus"]).contains("unknown option --bogus"));
        assert!(err(&["fgi2"]).contains("unknown command `fgi2`"));
        assert!(matches!(parse_line(&["fig2", "--help"]), Ok(None)));
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let text = usage();
        for (name, _) in COMMANDS {
            assert!(text.contains(name), "{name}");
        }
        for flag in FLAGS {
            assert!(text.contains(flag.name), "{}", flag.name);
        }
    }
}
