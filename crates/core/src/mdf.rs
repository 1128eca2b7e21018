//! MMKP-MDF — Algorithm 1 of the paper (the primary contribution).
//!
//! The scheduling problem is viewed as a Multiple-choice Multi-dimensional
//! Knapsack Problem: core types are knapsacks whose capacity is processing
//! time within the analysis horizon (`J = Θ × (max δ − t)`), and each job's
//! operating points form a group of items weighted by `θ · τ · ρ`. Jobs are
//! picked by Maximum-Difference-First and packed with
//! [`schedule_jobs`](crate::schedule_jobs) (Algorithm 2).
//!
//! [`MmkpMdf`] carries the job order as a [`JobOrderPolicy`]: the paper's
//! MDF by default, or one of the naive orders the `repro ablation`
//! job-order report compares it against. Every order shares the same
//! containers, configuration trials and SCHEDULEJOBS packing.

use std::collections::HashMap;

use amrm_model::{Job, JobId, JobSet, Schedule};
use amrm_platform::{CapacityVec, Platform, EPS};

use crate::{schedule_jobs, Scheduler, SchedulingContext};

/// How the next unmapped job is chosen in the Algorithm 1 outer loop.
///
/// The paper motivates Maximum-Difference-First by arguing it prioritizes
/// "the job that would cause the highest degradation if the best point is
/// not chosen in this iteration"; the other orders make that claim
/// testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrderPolicy {
    /// Maximum-Difference-First — the paper's policy.
    #[default]
    MaxDifference,
    /// Earliest deadline first.
    EarliestDeadline,
    /// The job whose best feasible point is cheapest goes first.
    CheapestFirst,
    /// Job-set order (arbitrary / arrival order) — the no-policy baseline.
    InsertionOrder,
}

impl JobOrderPolicy {
    /// Every policy, the paper's first.
    pub const ALL: [JobOrderPolicy; 4] = [
        JobOrderPolicy::MaxDifference,
        JobOrderPolicy::EarliestDeadline,
        JobOrderPolicy::CheapestFirst,
        JobOrderPolicy::InsertionOrder,
    ];

    /// Display name used by reports.
    pub fn name(self) -> &'static str {
        match self {
            JobOrderPolicy::MaxDifference => "MDF",
            JobOrderPolicy::EarliestDeadline => "EDF-order",
            JobOrderPolicy::CheapestFirst => "cheapest-first",
            JobOrderPolicy::InsertionOrder => "insertion-order",
        }
    }
}

/// The MMKP-MDF scheduler.
///
/// Stateless apart from its [`JobOrderPolicy`]; one instance can be reused
/// across RM activations.
///
/// # Examples
///
/// Scheduling the motivational example at `t = 1` produces the adaptive
/// schedule of Fig. 1(c):
///
/// ```
/// use amrm_core::{MmkpMdf, Scheduler};
/// use amrm_workload::scenarios;
///
/// let jobs = scenarios::s1_jobs_at_t1();
/// let schedule = MmkpMdf::new()
///     .schedule_at(&jobs, &scenarios::platform(), 1.0)
///     .expect("feasible");
/// let rho1 = 1.0 - 1.0 / 5.3;
/// assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
/// ```
///
/// Another job order, for ablation:
///
/// ```
/// use amrm_core::{JobOrderPolicy, MmkpMdf, Scheduler};
///
/// let edf = MmkpMdf::with_order(JobOrderPolicy::EarliestDeadline);
/// assert_eq!(edf.name(), "MMKP-EDF");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MmkpMdf {
    order: JobOrderPolicy,
}

impl MmkpMdf {
    /// Creates an MMKP-MDF scheduler (Maximum-Difference-First order).
    pub fn new() -> Self {
        MmkpMdf::default()
    }

    /// Creates the scheduler with another job order (ablation).
    pub fn with_order(order: JobOrderPolicy) -> Self {
        MmkpMdf { order }
    }
}

/// Result of the configuration filtering inside `NEXTJOBMDF`: the indices
/// of feasible points sorted by non-decreasing remaining energy.
pub(crate) fn feasible_configs(
    job: &Job,
    containers: &CapacityVec,
    platform: &Platform,
    now: f64,
) -> Vec<usize> {
    let mut list: Vec<usize> = (0..job.app().num_points())
        .filter(|&j| {
            let p = job.point(j);
            // (i) the point can meet the deadline when started now;
            // (ii) the platform has enough cores of each type;
            // (iii) the work θ·τ·ρ fits the remaining containers J.
            job.meets_deadline_with(j, now)
                && p.resources().fits_within(platform.counts())
                && p.resources()
                    .scale(p.time() * job.remaining())
                    .fits_within(containers)
        })
        .collect();
    list.sort_by(|&a, &b| {
        job.remaining_energy(a)
            .total_cmp(&job.remaining_energy(b))
            .then(a.cmp(&b))
    });
    list
}

/// `NEXTJOBMDF`: picks the next unmapped job in `order`, together with its
/// feasible points sorted by remaining energy.
///
/// Under [`JobOrderPolicy::MaxDifference`] the job whose best feasible
/// point beats its second best by the largest remaining-energy margin
/// wins (a job with a single feasible point has infinite margin; margins
/// within `EPS` tie). The deadline and cheapest-point orders take the
/// smallest key; insertion order takes the first unmapped job. Ties go to
/// the smaller [`JobId`]. Under every order a job with no feasible point
/// makes the whole activation infeasible (`None`).
fn next_job_mdf(
    order: JobOrderPolicy,
    jobs: &JobSet,
    assigned: &HashMap<JobId, usize>,
    containers: &CapacityVec,
    platform: &Platform,
    now: f64,
) -> Option<(JobId, Vec<usize>)> {
    let mut best: Option<(f64, JobId, Vec<usize>)> = None;
    for job in jobs.iter() {
        if assigned.contains_key(&job.id()) {
            continue;
        }
        let cl = feasible_configs(job, containers, platform, now);
        if cl.is_empty() {
            return None; // some job can no longer be scheduled at all
        }
        let key = match order {
            JobOrderPolicy::MaxDifference if cl.len() >= 2 => {
                job.remaining_energy(cl[1]) - job.remaining_energy(cl[0])
            }
            JobOrderPolicy::MaxDifference => f64::INFINITY,
            JobOrderPolicy::EarliestDeadline => job.deadline(),
            JobOrderPolicy::CheapestFirst => job.remaining_energy(cl[0]),
            JobOrderPolicy::InsertionOrder => 0.0,
        };
        let replace = match &best {
            None => true,
            Some((k, id, _)) => match order {
                JobOrderPolicy::MaxDifference => {
                    key > *k + EPS || (key >= *k - EPS && job.id() < *id)
                }
                JobOrderPolicy::EarliestDeadline | JobOrderPolicy::CheapestFirst => {
                    key.total_cmp(k).then(job.id().cmp(id)).is_lt()
                }
                JobOrderPolicy::InsertionOrder => false,
            },
        };
        if replace {
            best = Some((key, job.id(), cl));
        }
    }
    best.map(|(_, id, cl)| (id, cl))
}

impl Scheduler for MmkpMdf {
    fn name(&self) -> &str {
        match self.order {
            JobOrderPolicy::MaxDifference => "MMKP-MDF",
            JobOrderPolicy::EarliestDeadline => "MMKP-EDF",
            JobOrderPolicy::CheapestFirst => "MMKP-CHEAP",
            JobOrderPolicy::InsertionOrder => "MMKP-PLAIN",
        }
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        if jobs.is_empty() {
            return Some(Schedule::new());
        }
        let now = ctx.now;
        let horizon = jobs.max_deadline().expect("non-empty") - now;
        if horizon <= 0.0 {
            return None;
        }
        // Line 1: containers hold processing time per core type.
        let mut containers = platform.counts().scale(horizon);
        // Line 2: no configuration chosen yet.
        let mut assigned: HashMap<JobId, usize> = HashMap::new();
        let mut schedule = Schedule::new();

        // Line 3: iterate until every job has a configuration.
        while assigned.len() < jobs.len() {
            // Line 4: job selection (MDF by default) with filtered config list.
            let (target, mut cl) =
                next_job_mdf(self.order, jobs, &assigned, &containers, platform, now)?;
            let job = jobs.get(target).expect("selected from the set");

            // Lines 5–14: try configs in non-decreasing energy order.
            let mut placed = false;
            while !cl.is_empty() {
                let j_star = cl.remove(0); // argmin energy (list is sorted)
                let mut trial = assigned.clone();
                trial.insert(target, j_star);
                if let Some(built) = schedule_jobs(jobs, &trial, platform, now) {
                    // Lines 11–12: commit and charge the containers.
                    let p = job.point(j_star);
                    containers.consume(&p.resources().scale(p.time() * job.remaining()));
                    assigned = trial;
                    schedule = built;
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None; // line 6
            }
        }
        Some(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_model::{Application, Job, JobSet, OperatingPoint};
    use amrm_platform::ResourceVec;
    use amrm_workload::{generate_suite, scenarios, SuiteSpec};

    #[test]
    fn single_job_gets_cheapest_deadline_feasible_point() {
        // Scenario S1 at t = 0: σ1 alone must pick 2L1B (8.9 J).
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let schedule = MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .unwrap();
        schedule
            .validate(&jobs, &scenarios::platform(), 0.0)
            .unwrap();
        assert!((schedule.energy(&jobs) - 8.9).abs() < 1e-9);
        assert_eq!(schedule.num_segments(), 1);
        let mapping = schedule.segments()[0].mappings()[0];
        assert_eq!(
            jobs.get(JobId(1))
                .unwrap()
                .point(mapping.point)
                .resources()
                .as_slice(),
            &[2, 1]
        );
    }

    #[test]
    fn s1_at_t1_reproduces_fig1c() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        // Remaining-work energy 12.951 J; adding the 1.679 J prefix gives
        // the paper's 14.63 J overall.
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
        let total = schedule.energy(&jobs) + scenarios::fig1::PREFIX_J;
        assert!((total - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3);
        // σ2 runs [1,4) alone; σ1 is suspended then resumes.
        assert_eq!(schedule.num_segments(), 2);
        assert!(schedule.segments()[0].contains_job(JobId(2)));
        assert!(!schedule.segments()[0].contains_job(JobId(1)));
    }

    #[test]
    fn s2_at_t1_is_still_feasible_for_the_adaptive_mapper() {
        // A fixed mapper must reject S2 (Section III); MMKP-MDF finds the
        // same adaptive schedule as in S1.
        let jobs = scenarios::s2_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
        assert!(schedule.completion_time(JobId(2)).unwrap() <= 4.0 + 1e-9);
    }

    #[test]
    fn impossible_deadline_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1.0, // even the fastest point needs 4.7 s
            1.0,
        )]);
        assert!(MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn empty_job_set_yields_empty_schedule() {
        let schedule = MmkpMdf::new()
            .schedule_at(&JobSet::default(), &scenarios::platform(), 0.0)
            .unwrap();
        assert!(schedule.is_empty());
    }

    #[test]
    fn oversized_points_are_filtered_out() {
        // An app whose only fast point needs more cores than the platform
        // has must fall back to the feasible small point.
        let app = Application::shared(
            "fat",
            vec![
                OperatingPoint::new(ResourceVec::from_slice(&[4, 0]), 1.0, 1.0),
                OperatingPoint::new(ResourceVec::from_slice(&[1, 0]), 5.0, 3.0),
            ],
        );
        let jobs = JobSet::new(vec![Job::new(JobId(1), app, 0.0, 10.0, 1.0)]);
        let platform = scenarios::platform(); // only 2 little cores
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        assert!((schedule.energy(&jobs) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn past_deadline_horizon_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        assert!(MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 9.5)
            .is_none());
    }

    #[test]
    fn three_jobs_all_meet_deadlines() {
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 20.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 8.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 14.0, 0.7),
        ]);
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
    }

    #[test]
    fn mdf_prefers_job_with_larger_degradation() {
        // σ1's margin between best (7.22 J) and second best (8.60 J) is
        // 1.38 J; σ2's is 0.71 J → σ1 must be mapped first and get 2L1B.
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let containers = platform.counts().scale(8.0);
        let (first, cl) = next_job_mdf(
            JobOrderPolicy::MaxDifference,
            &jobs,
            &HashMap::new(),
            &containers,
            &platform,
            1.0,
        )
        .unwrap();
        assert_eq!(first, JobId(1));
        // Best config of σ1 is 2L1B (index 6).
        assert_eq!(cl[0], 6);
    }

    #[test]
    fn next_job_returns_none_when_a_job_is_stuck() {
        // Exhausted containers leave no feasible configs, whatever the order.
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let containers = CapacityVec::zeros(2);
        for order in JobOrderPolicy::ALL {
            let next = next_job_mdf(order, &jobs, &HashMap::new(), &containers, &platform, 1.0);
            assert!(next.is_none(), "{}", order.name());
        }
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        // The job-order suite of `repro ablation` (`ablation_suite` in
        // amrm-bench) at its default seed.
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = SuiteSpec {
            weak_counts: [5, 40, 40, 25],
            tight_counts: [5, 40, 40, 25],
            ..SuiteSpec::default()
        };
        let platform = scenarios::platform();
        let mut scheduled = [0usize; 4];
        for case in generate_suite(&lib, &spec, 2020) {
            let jobs = case.to_job_set();
            for (i, order) in JobOrderPolicy::ALL.into_iter().enumerate() {
                if let Some(schedule) =
                    MmkpMdf::with_order(order).schedule_at(&jobs, &platform, 0.0)
                {
                    schedule
                        .validate(&jobs, &platform, 0.0)
                        .unwrap_or_else(|e| panic!("{}: {e}", order.name()));
                    scheduled[i] += 1;
                }
            }
        }
        assert!(scheduled.iter().all(|&n| n > 0), "{scheduled:?}");
    }

    #[test]
    fn no_order_beats_mdf_on_the_motivational_example() {
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        let energy = |order| {
            MmkpMdf::with_order(order)
                .schedule_at(&jobs, &platform, 1.0)
                .unwrap()
                .energy(&jobs)
        };
        let mdf = energy(JobOrderPolicy::MaxDifference);
        for order in JobOrderPolicy::ALL {
            assert!(mdf <= energy(order) + 1e-9, "{}", order.name());
        }
    }

    #[test]
    fn default_order_is_mdf_and_names_are_distinct() {
        assert_eq!(MmkpMdf::new().name(), "MMKP-MDF");
        let schedulers = JobOrderPolicy::ALL.map(MmkpMdf::with_order);
        for mut names in [
            JobOrderPolicy::ALL.map(JobOrderPolicy::name).to_vec(),
            schedulers.iter().map(|s| s.name()).collect(),
        ] {
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), JobOrderPolicy::ALL.len());
        }
    }
}
