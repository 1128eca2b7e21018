//! The three reports of `repro ablation`: the job-order policy inside
//! Algorithm 1 ([`job_order_report`]), the value of adaptivity at
//! admission time under an online load ([`online_admission_report`]), and
//! DVFS-aware characterization ([`dvfs_report`]).

use amrm_baselines::{standard_registry, EXMEM_NAME, FIXED_NAME};
use amrm_core::{JobOrderPolicy, MmkpMdf, ReactivationPolicy, Scheduler, SchedulerRegistry};
use amrm_dataflow::{apps, characterize, characterize_dvfs, odroid_xu4_dvfs, CharacterizeConfig};
use amrm_metrics::{geometric_mean, TextTable};
use amrm_platform::Platform;
use amrm_sim::run_scenario;
use amrm_workload::{generate_suite, poisson_stream, scenarios, StreamSpec, SuiteSpec, TestCase};

/// Compares job-order policies (the "MDF" in MMKP-MDF) on a generated
/// suite: geometric-mean energy relative to the MDF policy over cases all
/// policies schedule.
pub fn job_order_report(cases: &[TestCase], platform: &Platform) -> String {
    let policies = JobOrderPolicy::ALL;
    let mut per_policy_energy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut scheduled = vec![0usize; policies.len()];
    for case in cases {
        let jobs = case.to_job_set();
        let schedules: Vec<Option<f64>> = policies
            .iter()
            .map(|&p| {
                MmkpMdf::with_order(p)
                    .schedule_at(&jobs, platform, 0.0)
                    .map(|s| s.energy(&jobs))
            })
            .collect();
        for (i, s) in schedules.iter().enumerate() {
            if s.is_some() {
                scheduled[i] += 1;
            }
        }
        if let Some(base) = schedules[0] {
            for (i, s) in schedules.iter().enumerate() {
                if let Some(e) = s {
                    per_policy_energy[i].push((e / base).max(1e-12));
                }
            }
        }
    }

    let mut out = String::from("Ablation: job-order policy inside Algorithm 1\n\n");
    let mut t = TextTable::new(vec!["Policy", "scheduled", "geomean energy vs MDF"]);
    for (i, p) in policies.iter().enumerate() {
        t.add_row(vec![
            p.name().to_string(),
            scheduled[i].to_string(),
            geometric_mean(&per_policy_energy[i])
                .map(|g| format!("{g:.4}"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nMDF ≤ 1.0 rows mean the alternative ordering wastes energy.\n");
    out
}

/// The registry for online-load ablations: every standard scheduler except
/// EX-MEM, whose exponential search is not an online candidate once more
/// than a handful of jobs overlap.
pub fn online_registry() -> SchedulerRegistry {
    let standard = standard_registry();
    let names: Vec<&str> = standard
        .names()
        .into_iter()
        .filter(|n| *n != EXMEM_NAME)
        .collect();
    standard.subset(&names)
}

/// Compares admission quality of the registered RM classes under an online
/// Poisson load (extension: the paper evaluates static snapshots).
///
/// The fixed mapper re-activates at completions as well (its Fig. 1(b)
/// best case); every other scheduler re-activates on arrivals only.
pub fn online_admission_report(
    platform: &Platform,
    seed: u64,
    registry: &SchedulerRegistry,
) -> String {
    let library = apps::benchmark_suite(platform);
    let spec = StreamSpec {
        requests: 40,
        slack_range: (1.2, 3.0),
    };
    let stream = poisson_stream(&library, 5.0, &spec, seed);

    let mut out = String::from("Ablation: online admission under Poisson load (mean 5 s)\n\n");
    let mut t = TextTable::new(vec!["RM class", "accepted", "energy/job [J]", "misses"]);
    for (name, scheduler) in registry.instantiate_all() {
        let policy = if name == FIXED_NAME {
            ReactivationPolicy::OnArrivalAndCompletion
        } else {
            ReactivationPolicy::OnArrival
        };
        let outcome = run_scenario(platform.clone(), scheduler, policy, &stream);
        t.add_row(vec![
            name.to_string(),
            format!("{}/{}", outcome.accepted(), stream.len()),
            format!("{:.2}", outcome.energy_per_job()),
            outcome.stats.deadline_misses.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

/// Compares fixed-frequency vs DVFS-swept characterization.
pub fn dvfs_report() -> String {
    let platform = odroid_xu4_dvfs();
    let cfg = CharacterizeConfig::default();
    let mut out = String::from("Ablation: DVFS-aware characterization (extension)\n\n");
    let mut t = TextTable::new(vec![
        "Application",
        "fixed-freq points",
        "DVFS points",
        "min ξ fixed [J]",
        "min ξ DVFS [J]",
    ]);
    for graph in apps::all_graphs() {
        let fixed = characterize(&graph, &platform, &cfg);
        let dvfs = characterize_dvfs(&graph, &platform, &cfg);
        let min_e = |a: &amrm_model::Application| {
            a.points()
                .iter()
                .map(|p| p.energy())
                .fold(f64::INFINITY, f64::min)
        };
        t.add_row(vec![
            graph.name().to_string(),
            fixed.num_points().to_string(),
            dvfs.num_points().to_string(),
            format!("{:.2}", min_e(&fixed)),
            format!("{:.2}", min_e(&dvfs)),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nDown-clocked clusters add strictly more frugal Pareto points.\n");
    out
}

/// Generates a small Table-II-based suite for the job-order ablation.
pub fn ablation_suite(seed: u64) -> Vec<TestCase> {
    let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
    let spec = SuiteSpec {
        weak_counts: [5, 40, 40, 25],
        tight_counts: [5, 40, 40, 25],
        ..SuiteSpec::default()
    };
    generate_suite(&lib, &spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_order_report_runs_and_mdf_is_reference() {
        let cases = ablation_suite(1)[..40].to_vec();
        let report = job_order_report(&cases, &scenarios::platform());
        assert!(report.contains("MDF"));
        assert!(report.contains("cheapest-first"));
    }

    #[test]
    fn online_registry_runs_everything_but_exmem() {
        let registry = online_registry();
        assert!(!registry.names().contains(&EXMEM_NAME));
        assert_eq!(registry.len(), standard_registry().len() - 1);
        let report =
            online_admission_report(&scenarios::platform(), 7, &registry.subset(&[FIXED_NAME]));
        assert!(report.contains("FIXED"));
    }

    #[test]
    fn dvfs_report_lists_all_apps() {
        let report = dvfs_report();
        assert!(report.contains("speaker_recognition"));
        assert!(report.contains("audio_filter"));
        assert!(report.contains("pedestrian_recognition"));
    }
}
