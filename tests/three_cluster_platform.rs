//! The system model is parametric in the number of resource types `m`;
//! nothing in the stack may assume the big.LITTLE m = 2. These tests run
//! the full pipeline on a three-cluster platform.

use amrm::baselines::{ExMem, MmkpLr};
use amrm::core::{MmkpMdf, Scheduler};
use amrm::dataflow::{apps, characterize, CharacterizeConfig};
use amrm::model::{Job, JobId, JobSet};
use amrm::workload::scenarios;

#[test]
fn characterization_produces_m3_tables() {
    let platform = scenarios::three_cluster_platform();
    let app = characterize(
        &apps::pedestrian_recognition(),
        &platform,
        &CharacterizeConfig::default(),
    );
    assert!(app.is_pareto_filtered());
    assert!(app.num_points() >= 4);
    for p in app.points() {
        assert_eq!(p.resources().num_types(), 3);
    }
}

#[test]
fn schedulers_handle_three_resource_types() {
    let platform = scenarios::three_cluster_platform();
    let cfg = CharacterizeConfig::default();
    let a = characterize(&apps::audio_filter(), &platform, &cfg);
    let b = characterize(&apps::speaker_recognition(), &platform, &cfg);

    // Weak deadlines (factor ≥ 2 on the *slowest* point would be the
    // paper's "weak" class; ×5/×4 of the fastest is comfortably feasible).
    let jobs = JobSet::new(vec![
        Job::new(JobId(1), a.clone(), 0.0, a.min_time() * 5.0, 1.0),
        Job::new(JobId(2), b.clone(), 0.0, b.min_time() * 4.0, 1.0),
    ]);

    for mut s in [
        Box::new(MmkpMdf::new()) as Box<dyn Scheduler>,
        Box::new(MmkpLr::new()),
        Box::new(ExMem::new()),
    ] {
        let schedule = s
            .schedule_at(&jobs, &platform, 0.0)
            .unwrap_or_else(|| panic!("{} failed on m=3", s.name()));
        schedule
            .validate(&jobs, &platform, 0.0)
            .unwrap_or_else(|e| panic!("{} invalid on m=3: {e}", s.name()));
    }
}

#[test]
fn exmem_still_dominates_on_m3() {
    let platform = scenarios::three_cluster_platform();
    let cfg = CharacterizeConfig::default();
    let a = characterize(&apps::pedestrian_recognition(), &platform, &cfg);
    let jobs = JobSet::new(vec![
        Job::new(JobId(1), a.clone(), 0.0, a.min_time() * 4.0, 1.0),
        Job::new(JobId(2), a.clone(), 0.0, a.min_time() * 2.5, 0.7),
    ]);
    let opt = ExMem::new().schedule_at(&jobs, &platform, 0.0).unwrap();
    let heur = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
    assert!(opt.energy(&jobs) <= heur.energy(&jobs) + 1e-6);
}
