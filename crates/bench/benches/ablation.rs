//! Search-time ablations of the baselines, in two criterion groups (the
//! energy ablations are the reports of `repro ablation`):
//!
//! * EX-MEM with vs without the MDF incumbent seed (how much of its speed
//!   comes from branch-and-bound seeding rather than memoization);
//! * MMKP-LR's subgradient iteration budget (the paper fixes 100).

use amrm_baselines::{ExMem, MmkpLr};
use amrm_core::Scheduler;
use amrm_platform::Platform;
use amrm_workload::scenarios;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_ablation(c: &mut Criterion) {
    let platform = Platform::motivational_2l2b();
    let jobs = scenarios::s1_jobs_at_t1();

    let mut group = c.benchmark_group("exmem_seed");
    group.sample_size(30);
    group.bench_function("seeded", |b| {
        b.iter(|| ExMem::new().schedule_at(&jobs, &platform, 1.0))
    });
    group.bench_function("unseeded", |b| {
        b.iter(|| {
            ExMem::new()
                .without_seed()
                .schedule_at(&jobs, &platform, 1.0)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("lr_iterations");
    group.sample_size(40);
    for iters in [1usize, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &n| {
            b.iter(|| MmkpLr::with_iterations(n).schedule_at(&jobs, &platform, 1.0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
