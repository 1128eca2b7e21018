//! MMKP-LR: the Lagrangian-relaxation baseline (Wildermann et al.,
//! ISORC'15, as adapted by the paper).
//!
//! For every mapping segment the algorithm (a) runs a subgradient method
//! (bounded at 100 iterations, as in the paper, and stopped early only at
//! the exact multiplier fixed point) on the Lagrangian relaxation of the
//! per-segment MMKP — multipliers `u ≥ 0` price the per-type core
//! constraint — then (b) greedily maps jobs in increasing order of their
//! minimum Lagrangian configuration cost `ξ·ρ + u·θ`. A configuration is
//! accepted if it fits the free resources and passes the *optimistic*
//! deadline check: the job finishes with it before its deadline, or could
//! still finish if reconfigured to its fastest point at the end of the
//! segment. The segment is cut at the earliest completion and the process
//! repeats — the analysis scope is a single segment, which is exactly the
//! limitation MMKP-MDF's full-horizon containers remove.

use std::cmp::Ordering;
use std::ops::Range;

use amrm_core::{Scheduler, SchedulingContext};
use amrm_model::{Job, JobMapping, JobSet, Schedule, Segment};
use amrm_platform::{Platform, EPS};

/// Remaining ratio below which a job counts as finished.
const RHO_EPS: f64 = 1e-9;

/// The MMKP-LR scheduler.
///
/// # Examples
///
/// ```
/// use amrm_baselines::MmkpLr;
/// use amrm_core::{Scheduler, SchedulingContext};
/// use amrm_workload::scenarios;
///
/// let jobs = scenarios::s1_jobs_at_t1();
/// let schedule = MmkpLr::new()
///     .schedule_at(&jobs, &scenarios::platform(), 1.0)
///     .expect("feasible");
/// schedule.validate(&jobs, &scenarios::platform(), 1.0).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MmkpLr {
    max_iterations: usize,
}

impl Default for MmkpLr {
    fn default() -> Self {
        MmkpLr::new()
    }
}

impl MmkpLr {
    /// Creates an MMKP-LR scheduler with the paper's subgradient budget of
    /// 100 iterations.
    pub fn new() -> Self {
        MmkpLr {
            max_iterations: 100,
        }
    }

    /// Overrides the subgradient iteration budget (ablation hook).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(iterations: usize) -> Self {
        assert!(iterations > 0, "at least one subgradient iteration");
        MmkpLr {
            max_iterations: iterations,
        }
    }
}

/// Per-job state while building segments.
#[derive(Debug, Clone)]
struct Pending {
    idx: usize,
    rho: f64,
}

/// The platform-feasible operating points ("options") of every job,
/// flattened once per activation so that the subgradient loop reads
/// contiguous rows instead of walking `Job → Application → OperatingPoint →
/// ResourceVec`. Options are numbered across jobs: job `i` owns
/// `span[i]..span[i + 1]`, in increasing point index.
struct Options {
    /// Number of resource types `m`, the width of a resource row.
    m: usize,
    span: Vec<usize>,
    /// Operating-point index `j` of each option.
    point: Vec<usize>,
    /// Execution time `τ` of each option.
    time: Vec<f64>,
    /// Energy `ξ` of each option.
    energy: Vec<f64>,
    /// Core counts `θ`, `m` per option.
    cores: Vec<u32>,
}

impl Options {
    /// Flattens the points of every job that fit the platform, or returns
    /// `None` if some job has none.
    fn new(jobs: &[Job], platform: &Platform) -> Option<Self> {
        let mut opts = Options {
            m: platform.num_types(),
            span: vec![0],
            point: Vec::new(),
            time: Vec::new(),
            energy: Vec::new(),
            cores: Vec::new(),
        };
        for job in jobs {
            for j in 0..job.app().num_points() {
                let point = job.point(j);
                if point.resources().fits_within(platform.counts()) {
                    opts.point.push(j);
                    opts.time.push(point.time());
                    opts.energy.push(point.energy());
                    opts.cores.extend(point.resources().iter());
                }
            }
            if opts.point.len() == opts.span[opts.span.len() - 1] {
                return None;
            }
            opts.span.push(opts.point.len());
        }
        Some(opts)
    }

    /// The options of job `i`.
    fn of(&self, i: usize) -> Range<usize> {
        self.span[i]..self.span[i + 1]
    }

    /// The core counts of option `o`.
    fn cores(&self, o: usize) -> &[u32] {
        &self.cores[o * self.m..(o + 1) * self.m]
    }

    /// Lagrangian cost `ξ·ρ + u·θ` of option `o`, given its `ξ·ρ`.
    fn cost(&self, o: usize, e_rho: f64, u: &[f64]) -> f64 {
        let penalty: f64 = self
            .cores(o)
            .iter()
            .zip(u)
            .map(|(&theta, ui)| f64::from(theta) * ui)
            .sum();
        e_rho + penalty
    }
}

impl Scheduler for MmkpLr {
    fn name(&self) -> &str {
        "MMKP-LR"
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let now = ctx.now;
        if jobs.is_empty() {
            return Some(Schedule::new());
        }
        let job_slice = jobs.jobs();

        // Static per-job data: feasible points and the fastest one.
        let opts = Options::new(job_slice, platform)?;
        let fastest: Vec<f64> = (0..job_slice.len())
            .map(|i| {
                opts.time[opts.of(i)]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();

        let mut pending: Vec<Pending> = (0..job_slice.len())
            .map(|idx| Pending {
                idx,
                rho: job_slice[idx].remaining(),
            })
            .collect();
        let mut t = now;
        let mut schedule = Schedule::new();
        // Per-option scratch, indexed like `opts` and written only for the
        // options of pending jobs: `ξ·ρ` and the Lagrangian cost.
        let mut e_rho = vec![0.0; opts.point.len()];
        let mut cost = vec![0.0; opts.point.len()];
        let mut sorted: Vec<usize> = Vec::new();

        while !pending.is_empty() {
            // Viability: every remaining job must still be salvageable.
            if pending
                .iter()
                .any(|p| t + fastest[p.idx] * p.rho > job_slice[p.idx].deadline() + EPS)
            {
                return None;
            }
            for p in &pending {
                for o in opts.of(p.idx) {
                    e_rho[o] = opts.energy[o] * p.rho;
                }
            }

            // (a) Subgradient on the per-segment relaxation.
            let u = self.subgradient(&opts, &pending, &e_rho, platform);

            // (b) Greedy mapping in increasing order of minimum cost.
            for p in &pending {
                for o in opts.of(p.idx) {
                    cost[o] = opts.cost(o, e_rho[o], &u);
                }
            }
            let min_cost: Vec<f64> = pending
                .iter()
                .map(|p| {
                    cost[opts.of(p.idx)]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by(|&a, &b| min_cost[a].total_cmp(&min_cost[b]).then(a.cmp(&b)));

            let mut free = platform.counts().as_slice().to_vec();
            let mut chosen: Vec<Option<usize>> = vec![None; pending.len()];
            // Earliest completion among mapped jobs = tentative segment end.
            let mut tentative_end = f64::INFINITY;
            for &pi in &order {
                let p = &pending[pi];
                let deadline = job_slice[p.idx].deadline();
                sorted.clear();
                sorted.extend(opts.of(p.idx));
                sorted.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
                for &o in &sorted {
                    if !opts.cores(o).iter().zip(&free).all(|(c, f)| c <= f) {
                        continue;
                    }
                    let completion = t + opts.time[o] * p.rho;
                    let seg_end = tentative_end.min(completion);
                    // Optimistic deadline check: finish with this point, or
                    // reconfigure to the fastest point at the segment end.
                    let ok = if completion <= deadline + EPS {
                        true
                    } else {
                        let progressed = (seg_end - t) / opts.time[o];
                        let rho_rest = (p.rho - progressed).max(0.0);
                        seg_end + fastest[p.idx] * rho_rest <= deadline + EPS
                    };
                    if ok {
                        for (f, c) in free.iter_mut().zip(opts.cores(o)) {
                            *f -= c;
                        }
                        chosen[pi] = Some(o);
                        tentative_end = seg_end;
                        break;
                    }
                }
            }

            if !tentative_end.is_finite() {
                return None; // nothing could be mapped: no progress possible
            }

            // Build the segment up to the earliest completion. A remaining
            // time below half an ulp of `t` rounds the segment to nothing:
            // no progress is possible either.
            let delta = tentative_end - t;
            if delta <= 0.0 {
                return None;
            }
            let mut mappings = Vec::new();
            for (pi, c) in chosen.iter().enumerate() {
                if let Some(o) = c {
                    mappings.push(JobMapping::new(
                        job_slice[pending[pi].idx].id(),
                        opts.point[*o],
                    ));
                }
            }
            schedule.push(Segment::new(t, tentative_end, mappings));

            // Advance progress, retire finished jobs.
            let mut next = Vec::with_capacity(pending.len());
            for (pi, p) in pending.iter().enumerate() {
                let rho2 = match chosen[pi] {
                    Some(o) => p.rho - delta / opts.time[o],
                    None => p.rho,
                };
                if rho2 > RHO_EPS {
                    next.push(Pending {
                        idx: p.idx,
                        rho: rho2,
                    });
                } else if tentative_end > job_slice[p.idx].deadline() + EPS {
                    return None;
                }
            }
            pending = next;
            t = tentative_end;
        }
        Some(schedule)
    }
}

impl MmkpLr {
    /// Runs the subgradient method on the relaxed per-segment MMKP and
    /// returns the final multipliers. `e_rho` holds `ξ·ρ` for the options of
    /// every pending job.
    ///
    /// The paper bounds the method at 100 iterations; `max_iterations` is
    /// an upper bound here. The loop stops as soon as an iteration leaves
    /// `u` bitwise unchanged, and that exit is exact: the remaining budget
    /// would return the same `u`.
    /// - Each job's relaxed argmin depends only on `u`, so an unchanged `u`
    ///   repeats `demand` and the subgradient `g` on the next iteration.
    /// - The step `scale / (iter + 1)` never grows (an infinite one stays
    ///   infinite), and rounding is monotone. So `fl(step·g_k)` keeps its
    ///   sign and does not grow in magnitude. If `fl(u_k + step·g_k)`
    ///   rounded back to `u_k`, the smaller step rounds back too, and the
    ///   clamp at 0 keeps a zero `u_k` at zero.
    /// - By induction, every remaining iteration leaves `u` as it is.
    fn subgradient(
        &self,
        opts: &Options,
        pending: &[Pending],
        e_rho: &[f64],
        platform: &Platform,
    ) -> Vec<f64> {
        let m = platform.num_types();
        let mut u = vec![0.0; m];
        // Scale: average remaining energy per core, so steps are unit-sane.
        let scale = pending
            .iter()
            .map(|p| {
                e_rho[opts.of(p.idx)]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            .max(1e-6)
            / f64::from(platform.total_cores());

        let mut demand = vec![0u32; m];
        for iter in 0..self.max_iterations {
            // Relaxed per-group argmin with current prices. The first
            // minimum wins, as with `Iterator::min_by`.
            demand.fill(0);
            for p in pending {
                let mut options = opts.of(p.idx);
                let mut best = options.next().expect("every job has an option");
                let mut best_cost = opts.cost(best, e_rho[best], &u);
                for o in options {
                    let c = opts.cost(o, e_rho[o], &u);
                    if c.total_cmp(&best_cost) == Ordering::Less {
                        best = o;
                        best_cost = c;
                    }
                }
                for (d, c) in demand.iter_mut().zip(opts.cores(best)) {
                    *d += c;
                }
            }
            // Subgradient g = demand − Θ with a diminishing step.
            let step = scale / (iter as f64 + 1.0);
            let mut moved = false;
            for (k, uk) in u.iter_mut().enumerate() {
                let g = f64::from(demand[k]) - f64::from(platform.counts()[k]);
                let next = (*uk + step * g).max(0.0);
                moved |= next.to_bits() != uk.to_bits();
                *uk = next;
            }
            if !moved {
                break;
            }
        }
        u
    }
}

/// MMKP-LR as it stood before the flattened cost rows and the fixed-point
/// exit, kept verbatim as a test oracle: `tests::matches_the_oracle` pins
/// the production scheduler to it bit for bit.
#[cfg(test)]
mod oracle {
    use amrm_core::{Scheduler, SchedulingContext};
    use amrm_model::{Job, JobMapping, JobSet, Schedule, Segment};
    use amrm_platform::{Platform, ResourceVec, EPS};

    use super::RHO_EPS;

    /// The reference scheduler with a subgradient budget of
    /// `max_iterations`.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct MmkpLr {
        pub(super) max_iterations: usize,
    }

    /// Per-job state while building segments.
    #[derive(Debug, Clone)]
    struct Pending {
        idx: usize,
        rho: f64,
    }

    impl Scheduler for MmkpLr {
        fn name(&self) -> &str {
            "MMKP-LR"
        }

        fn schedule(
            &mut self,
            jobs: &JobSet,
            platform: &Platform,
            ctx: &SchedulingContext,
        ) -> Option<Schedule> {
            let now = ctx.now;
            if jobs.is_empty() {
                return Some(Schedule::new());
            }
            let job_slice = jobs.jobs();

            // Static per-job data: feasible points and the fastest one.
            let mut options: Vec<Vec<usize>> = Vec::with_capacity(job_slice.len());
            let mut fastest: Vec<f64> = Vec::with_capacity(job_slice.len());
            for job in job_slice {
                let opts: Vec<usize> = (0..job.app().num_points())
                    .filter(|&j| job.point(j).resources().fits_within(platform.counts()))
                    .collect();
                if opts.is_empty() {
                    return None;
                }
                fastest.push(
                    opts.iter()
                        .map(|&j| job.point(j).time())
                        .fold(f64::INFINITY, f64::min),
                );
                options.push(opts);
            }

            let mut pending: Vec<Pending> = (0..job_slice.len())
                .map(|idx| Pending {
                    idx,
                    rho: job_slice[idx].remaining(),
                })
                .collect();
            let mut t = now;
            let mut schedule = Schedule::new();

            while !pending.is_empty() {
                // Viability: every remaining job must still be salvageable.
                if pending
                    .iter()
                    .any(|p| t + fastest[p.idx] * p.rho > job_slice[p.idx].deadline() + EPS)
                {
                    return None;
                }

                // (a) Subgradient on the per-segment relaxation.
                let u = self.subgradient(job_slice, &pending, &options, platform, t, &fastest);

                // (b) Greedy mapping in increasing order of minimum cost.
                let mut order: Vec<usize> = (0..pending.len()).collect();
                let min_cost = |p: &Pending| -> f64 {
                    options[p.idx]
                        .iter()
                        .map(|&j| lagr_cost(&job_slice[p.idx], j, p.rho, &u))
                        .fold(f64::INFINITY, f64::min)
                };
                order.sort_by(|&a, &b| {
                    min_cost(&pending[a])
                        .total_cmp(&min_cost(&pending[b]))
                        .then(a.cmp(&b))
                });

                let mut free = platform.counts().clone();
                let mut chosen: Vec<Option<usize>> = vec![None; pending.len()];
                // Earliest completion among mapped jobs = tentative segment end.
                let mut tentative_end = f64::INFINITY;
                for &pi in &order {
                    let p = &pending[pi];
                    let job = &job_slice[p.idx];
                    let mut sorted = options[p.idx].clone();
                    sorted.sort_by(|&a, &b| {
                        lagr_cost(job, a, p.rho, &u).total_cmp(&lagr_cost(job, b, p.rho, &u))
                    });
                    for j in sorted {
                        let point = job.point(j);
                        if !point.resources().fits_within(&free) {
                            continue;
                        }
                        let completion = t + point.time() * p.rho;
                        let seg_end = tentative_end.min(completion);
                        // Optimistic deadline check: finish with this point, or
                        // reconfigure to the fastest point at the segment end.
                        let ok = if completion <= job.deadline() + EPS {
                            true
                        } else {
                            let progressed = (seg_end - t) / point.time();
                            let rho_rest = (p.rho - progressed).max(0.0);
                            seg_end + fastest[p.idx] * rho_rest <= job.deadline() + EPS
                        };
                        if ok {
                            free = &free - point.resources();
                            chosen[pi] = Some(j);
                            tentative_end = seg_end;
                            break;
                        }
                    }
                }

                if !tentative_end.is_finite() {
                    return None; // nothing could be mapped: no progress possible
                }

                // Build the segment up to the earliest completion.
                let delta = tentative_end - t;
                debug_assert!(delta > 0.0);
                let mut mappings = Vec::new();
                for (pi, c) in chosen.iter().enumerate() {
                    if let Some(j) = c {
                        mappings.push(JobMapping::new(job_slice[pending[pi].idx].id(), *j));
                    }
                }
                schedule.push(Segment::new(t, tentative_end, mappings));

                // Advance progress, retire finished jobs.
                let mut next = Vec::with_capacity(pending.len());
                for (pi, p) in pending.iter().enumerate() {
                    let rho2 = match chosen[pi] {
                        Some(j) => p.rho - delta / job_slice[p.idx].point(j).time(),
                        None => p.rho,
                    };
                    if rho2 > RHO_EPS {
                        next.push(Pending {
                            idx: p.idx,
                            rho: rho2,
                        });
                    } else if tentative_end > job_slice[p.idx].deadline() + EPS {
                        return None;
                    }
                }
                pending = next;
                t = tentative_end;
            }
            Some(schedule)
        }
    }

    /// Lagrangian cost of point `j` for a job with remaining ratio `rho`.
    fn lagr_cost(job: &Job, j: usize, rho: f64, u: &[f64]) -> f64 {
        let p = job.point(j);
        let penalty: f64 = p
            .resources()
            .iter()
            .zip(u)
            .map(|(theta, ui)| f64::from(theta) * ui)
            .sum();
        p.energy() * rho + penalty
    }

    impl MmkpLr {
        /// Runs the subgradient method on the relaxed per-segment MMKP and
        /// returns the final multipliers.
        fn subgradient(
            &self,
            jobs: &[Job],
            pending: &[Pending],
            options: &[Vec<usize>],
            platform: &Platform,
            t: f64,
            fastest: &[f64],
        ) -> Vec<f64> {
            let m = platform.num_types();
            let mut u = vec![0.0; m];
            // Scale: average remaining energy per core, so steps are unit-sane.
            let scale = pending
                .iter()
                .map(|p| {
                    options[p.idx]
                        .iter()
                        .map(|&j| jobs[p.idx].point(j).energy() * p.rho)
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                .max(1e-6)
                / f64::from(platform.total_cores());

            for iter in 0..self.max_iterations {
                // Relaxed per-group argmin with current prices.
                let mut demand = ResourceVec::zeros(m);
                for p in pending {
                    let job = &jobs[p.idx];
                    let best = options[p.idx]
                        .iter()
                        .copied()
                        .filter(|&j| {
                            // Deadline-plausible points only.
                            let completion = t + job.point(j).time() * p.rho;
                            completion <= job.deadline() + EPS
                                || t + fastest[p.idx] * p.rho <= job.deadline() + EPS
                        })
                        .min_by(|&a, &b| {
                            lagr_cost(job, a, p.rho, &u).total_cmp(&lagr_cost(job, b, p.rho, &u))
                        });
                    if let Some(j) = best {
                        demand += job.point(j).resources();
                    }
                }
                // Subgradient g = demand − Θ. The oracle always runs the full
                // budget; the production loop stops at the exact fixed point.
                let step = scale / (iter as f64 + 1.0);
                for k in 0..m {
                    let g = f64::from(demand[k]) - f64::from(platform.counts()[k]);
                    u[k] = (u[k] + step * g).max(0.0);
                }
            }
            u
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use amrm_core::MmkpMdf;
    use amrm_dataflow::apps;
    use amrm_model::{AppRef, JobId, JobSet};
    use amrm_workload::scenarios;
    use proptest::prelude::*;

    #[test]
    fn single_job_is_optimal() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let platform = scenarios::platform();
        let schedule = MmkpLr::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        assert!((schedule.energy(&jobs) - 8.9).abs() < 1e-6);
    }

    #[test]
    fn s1_at_t1_feasible_but_not_better_than_mdf() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let lr = MmkpLr::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        lr.validate(&jobs, &platform, 1.0).unwrap();
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        // The single-segment scope costs energy: LR must not beat MDF here.
        assert!(lr.energy(&jobs) >= mdf.energy(&jobs) - 1e-9);
    }

    #[test]
    fn impossible_deadline_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1.0,
            1.0,
        )]);
        assert!(MmkpLr::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn multi_job_schedules_are_valid() {
        let platform = scenarios::platform();
        for (d1, d2, d3) in [(20.0, 9.0, 15.0), (30.0, 12.0, 18.0)] {
            let jobs = JobSet::new(vec![
                Job::new(JobId(1), scenarios::lambda1(), 0.0, d1, 1.0),
                Job::new(JobId(2), scenarios::lambda2(), 0.0, d2, 1.0),
                Job::new(JobId(3), scenarios::lambda2(), 0.0, d3, 0.8),
            ]);
            if let Some(s) = MmkpLr::new().schedule_at(&jobs, &platform, 0.0) {
                s.validate(&jobs, &platform, 0.0).unwrap();
            }
        }
    }

    #[test]
    fn iteration_budget_is_configurable() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let a = MmkpLr::with_iterations(1).schedule_at(&jobs, &platform, 1.0);
        let b = MmkpLr::new().schedule_at(&jobs, &platform, 1.0);
        // Both must produce valid schedules (possibly different energy).
        for s in [a, b].into_iter().flatten() {
            s.validate(&jobs, &platform, 1.0).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one subgradient iteration")]
    fn zero_iterations_rejected() {
        let _ = MmkpLr::with_iterations(0);
    }

    #[test]
    fn empty_set_is_trivially_feasible() {
        let schedule = MmkpLr::new()
            .schedule_at(&JobSet::default(), &scenarios::platform(), 0.0)
            .unwrap();
        assert!(schedule.is_empty());
    }

    #[test]
    fn sub_ulp_remaining_time_is_rejected() {
        // τ·ρ is below half an ulp of `now`, so the segment end rounds back
        // to its start.
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1e9 + 10.0,
            1.1e-9,
        )]);
        let platform = scenarios::platform();
        assert!(MmkpLr::new().schedule_at(&jobs, &platform, 1e9).is_none());
    }

    /// The benchmark suite characterized on the m=2 and the m=3 platform.
    fn suites() -> &'static [(Platform, Vec<AppRef>); 2] {
        static SUITES: OnceLock<[(Platform, Vec<AppRef>); 2]> = OnceLock::new();
        SUITES.get_or_init(|| {
            [scenarios::platform(), scenarios::three_cluster_platform()].map(|platform| {
                let library = apps::benchmark_suite(&platform);
                (platform, library)
            })
        })
    }

    /// A schedule with its times as bit patterns, so that equality is
    /// bitwise.
    fn bits(schedule: &Schedule) -> Vec<(u64, u64, Vec<JobMapping>)> {
        schedule
            .segments()
            .iter()
            .map(|s| {
                (
                    s.start().to_bits(),
                    s.end().to_bits(),
                    s.mappings().to_vec(),
                )
            })
            .collect()
    }

    /// One job: library index, remaining ratio, reference point and
    /// deadline slack factor on that point's remaining time.
    fn job_params() -> impl Strategy<Value = (usize, f64, usize, f64)> {
        (0usize..64, 0.001f64..=1.0, 0usize..64, 0.6f64..4.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 96,
            .. ProptestConfig::default()
        })]

        #[test]
        fn matches_the_oracle(
            now in 0.0f64..1000.0,
            params in prop::collection::vec(job_params(), 1..=9),
        ) {
            for (platform, library) in suites() {
                let jobs: Vec<Job> = params
                    .iter()
                    .enumerate()
                    .map(|(i, &(app, remaining, point, slack))| {
                        let app = library[app % library.len()].clone();
                        let point = point % app.num_points();
                        let deadline = now + app.point(point).time() * remaining * slack;
                        Job::new(JobId(i as u64 + 1), app, 0.0, deadline, remaining)
                    })
                    .collect();
                let jobs = JobSet::new(jobs);
                for n in [1, 2, 7, 100] {
                    let fast = MmkpLr::with_iterations(n).schedule_at(&jobs, platform, now);
                    let reference = oracle::MmkpLr { max_iterations: n }
                        .schedule_at(&jobs, platform, now);
                    prop_assert_eq!(
                        fast.as_ref().map(bits),
                        reference.as_ref().map(bits),
                        "m={} n={} now={} jobs={:?}",
                        platform.num_types(),
                        n,
                        now,
                        params
                    );
                }
            }
        }
    }
}
