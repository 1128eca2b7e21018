//! The paper's motivational example (Section III, Tables I–II, Figure 1).
//!
//! The numbers below are copied verbatim from Table II of the paper. They
//! are synthetic but "feature ratios similar to what we observed in real
//! applications". The module also provides the request scenarios S1/S2 of
//! Table I and the reference energies of Figure 1, plus a three-cluster
//! platform for checking that nothing assumes the big.LITTLE m = 2.

use amrm_model::{AppRef, Application, Job, JobId, JobSet, OperatingPoint};
use amrm_platform::{CoreType, Platform, PlatformBuilder, ResourceVec};

/// Builds application λ1 of Table II (full-execution values; progressed
/// states are derived by scaling with the remaining ratio).
pub fn lambda1() -> AppRef {
    let rows: [(u32, u32, f64, f64); 8] = [
        (1, 0, 16.8, 7.90),
        (2, 0, 10.3, 7.01),
        (0, 1, 11.2, 18.54),
        (0, 2, 6.3, 17.70),
        (1, 1, 8.1, 10.90),
        (1, 2, 7.9, 10.60),
        (2, 1, 5.3, 8.90),
        (2, 2, 4.7, 11.00),
    ];
    build_app("λ1", &rows)
}

/// Builds application λ2 of Table II.
pub fn lambda2() -> AppRef {
    let rows: [(u32, u32, f64, f64); 8] = [
        (1, 0, 10.0, 2.00),
        (2, 0, 7.0, 2.87),
        (0, 1, 5.0, 7.55),
        (0, 2, 3.5, 10.50),
        (1, 1, 3.5, 6.44),
        (1, 2, 3.0, 6.81),
        (2, 1, 3.0, 5.73),
        (2, 2, 2.0, 6.58),
    ];
    build_app("λ2", &rows)
}

fn build_app(name: &str, rows: &[(u32, u32, f64, f64)]) -> AppRef {
    Application::shared(
        name,
        rows.iter()
            .map(|&(l, b, t, e)| OperatingPoint::new(ResourceVec::from_slice(&[l, b]), t, e))
            .collect(),
    )
}

/// The 2-little + 2-big platform of the motivational example.
pub fn platform() -> Platform {
    Platform::motivational_2l2b()
}

/// A three-cluster platform (m = 3): four efficiency cores, three mid
/// cores and one performance core.
pub fn three_cluster_platform() -> Platform {
    PlatformBuilder::new("tri-cluster")
        .cluster(CoreType::new("eff", 1.0e9, 1.0, 0.15, 0.02), 4)
        .cluster(CoreType::new("mid", 1.8e9, 1.2, 0.70, 0.07), 3)
        .cluster(CoreType::new("perf", 2.6e9, 1.5, 2.20, 0.20), 1)
        .build()
}

/// One request row of Table I: the application, its arrival time and its
/// absolute deadline.
#[derive(Debug, Clone)]
pub struct ScenarioRequest {
    /// The requested application.
    pub app: AppRef,
    /// Arrival time of the request.
    pub arrival: f64,
    /// Absolute deadline of the request.
    pub deadline: f64,
}

/// Scenario S1 of Table I: σ1 = (λ1, arrival 0, deadline 9),
/// σ2 = (λ2, arrival 1, deadline 5).
pub fn scenario_s1() -> Vec<ScenarioRequest> {
    vec![
        ScenarioRequest {
            app: lambda1(),
            arrival: 0.0,
            deadline: 9.0,
        },
        ScenarioRequest {
            app: lambda2(),
            arrival: 1.0,
            deadline: 5.0,
        },
    ]
}

/// Scenario S2 of Table I: like S1 but σ2's deadline tightens to 4.
pub fn scenario_s2() -> Vec<ScenarioRequest> {
    let mut reqs = scenario_s1();
    reqs[1].deadline = 4.0;
    reqs
}

/// The job set visible to the RM at `t = 1` in scenario S1: σ1 has run for
/// 1 s under its initial 2L1B mapping (progress 1/5.3 ≈ 18.87%), σ2 has
/// just arrived.
pub fn s1_jobs_at_t1() -> JobSet {
    JobSet::new(vec![
        Job::new(JobId(1), lambda1(), 0.0, 9.0, 1.0 - 1.0 / 5.3),
        Job::new(JobId(2), lambda2(), 1.0, 5.0, 1.0),
    ])
}

/// Like [`s1_jobs_at_t1`] but with σ2's deadline at 4 (scenario S2).
pub fn s2_jobs_at_t1() -> JobSet {
    JobSet::new(vec![
        Job::new(JobId(1), lambda1(), 0.0, 9.0, 1.0 - 1.0 / 5.3),
        Job::new(JobId(2), lambda2(), 1.0, 4.0, 1.0),
    ])
}

/// Reference overall energies of Figure 1 (including the 1 s of σ1's
/// initial execution before the RM re-activation at `t = 1`).
pub mod fig1 {
    /// Fixed mapper, remapping at application start only (Fig. 1a).
    pub const FIXED_AT_START_J: f64 = 16.96;
    /// Fixed mapper, remapping at application start and finish (Fig. 1b).
    pub const FIXED_AT_START_AND_FINISH_J: f64 = 15.49;
    /// Adaptive mapper (Fig. 1c).
    pub const ADAPTIVE_J: f64 = 14.63;
    /// Energy σ1 consumes during [0, 1) on its initial 2L1B mapping.
    pub const PREFIX_J: f64 = 8.9 / 5.3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_pareto_filtered() {
        assert!(lambda1().is_pareto_filtered());
        assert!(lambda2().is_pareto_filtered());
    }

    #[test]
    fn lambda1_best_initial_choice_is_2l1b() {
        // At t = 0 with deadline 9 the cheapest feasible point is 2L1B, 8.9 J.
        let app = lambda1();
        let feasible: Vec<_> = app.points().iter().filter(|p| p.time() <= 9.0).collect();
        let best = feasible
            .iter()
            .min_by(|a, b| a.energy().total_cmp(&b.energy()))
            .unwrap();
        assert_eq!(best.resources().as_slice(), &[2, 1]);
        assert!((best.energy() - 8.9).abs() < 1e-12);
    }

    #[test]
    fn progressed_values_match_paper_triples() {
        // Table II lists λ1's remaining time/energy at 18.87% progress;
        // e.g. 1L: 16.8 → 13.63, 2L1B: 8.90 J → 7.22 J.
        let app = lambda1();
        let rho = 1.0 - 1.0 / 5.3; // 81.13% remaining
        let p1l = &app.points()[0];
        assert!((p1l.remaining_time(rho) - 13.63).abs() < 5e-3);
        let p2l1b = &app.points()[6];
        assert!((p2l1b.remaining_energy(rho) - 7.22).abs() < 5e-3);
        // And at 62.08% progress: 1L time 6.37, 2L energy 2.66.
        let rho2 = 1.0 - 0.6208;
        assert!((p1l.remaining_time(rho2) - 6.37).abs() < 5e-3);
        assert!((app.points()[1].remaining_energy(rho2) - 2.66).abs() < 5e-3);
    }

    #[test]
    fn s2_only_differs_in_sigma2_deadline() {
        let s1 = scenario_s1();
        let s2 = scenario_s2();
        assert_eq!(s1.len(), 2);
        assert!((s2[1].deadline - 4.0).abs() < 1e-12);
        assert!((s1[0].deadline - s2[0].deadline).abs() < 1e-12);
    }

    #[test]
    fn jobset_at_t1_has_expected_progress() {
        let jobs = s1_jobs_at_t1();
        let sigma1 = jobs.get(JobId(1)).unwrap();
        // 18.87% progress → 81.13% remaining.
        assert!((sigma1.remaining() - 0.8113).abs() < 1e-4);
        assert!((jobs.get(JobId(2)).unwrap().remaining() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig1_constants_are_ordered() {
        let (adaptive, fixed_both, fixed_start) = (
            fig1::ADAPTIVE_J,
            fig1::FIXED_AT_START_AND_FINISH_J,
            fig1::FIXED_AT_START_J,
        );
        assert!(adaptive < fixed_both);
        assert!(fixed_both < fixed_start);
    }
}
