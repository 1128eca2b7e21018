//! The four serving workloads.
//!
//! Every workload runs under `SearchBudget::online()` in lean outcome
//! mode, with deadline slack drawn from 1.5–3.0 times the fastest
//! execution. The benchmark's doc says why each one is here.

use amrm_baselines::MetaScheduler;
use amrm_core::{AdmissionPolicy, Immediate, MmkpMdf, Scheduler, WindowTau};
use amrm_model::AppRef;
use amrm_workload::{ArrivalStream, StreamSpec};

use crate::decorators::Regimes;

/// Deadline slack range of every workload.
const SLACK_RANGE: (f64, f64) = (1.5, 3.0);

/// One benchmark workload: a scheduler, an admission policy and a
/// seeded arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MMKP-MDF, `Immediate`, the diurnal overload stream.
    OverloadMdf,
    /// META, `Immediate`, the diurnal overload stream.
    OverloadMeta,
    /// META, `Immediate`, a Poisson stream at a moderate load.
    ModerateMeta,
    /// MMKP-MDF, `WindowTau(2.0)`, the bursty stream, journal on.
    BurstyWindowJournal,
}

/// Receives a workload's scheduler and admission types.
pub trait Visit {
    /// What the visit returns.
    type Out;

    /// Called with the workload's scheduler constructor and admission
    /// policy.
    fn visit<S, A>(self, scheduler: fn() -> S, admission: A) -> Self::Out
    where
        S: Scheduler + Regimes,
        A: AdmissionPolicy + Clone;
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::OverloadMdf,
        Workload::OverloadMeta,
        Workload::ModerateMeta,
        Workload::BurstyWindowJournal,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OverloadMdf => "overload-mdf",
            Workload::OverloadMeta => "overload-meta",
            Workload::ModerateMeta => "moderate-meta",
            Workload::BurstyWindowJournal => "bursty-window-journal",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests served in one pass. Sized so that one pass takes one to
    /// five seconds on a 2-core x86-64 host, and so that the seed-to-seed
    /// spread of acceptance, energy and peak memory stays small.
    pub fn requests(self) -> usize {
        match self {
            Workload::OverloadMdf => 120_000,
            Workload::OverloadMeta => 24_000,
            Workload::ModerateMeta => 90_000,
            Workload::BurstyWindowJournal => 50_000,
        }
    }

    /// Whether the event journal is attached.
    pub fn journal(self) -> bool {
        self == Workload::BurstyWindowJournal
    }

    /// The first `requests` requests of the workload's stream for `seed`.
    /// A shorter stream is a prefix of a longer one.
    pub fn stream(self, library: &[AppRef], requests: usize, seed: u64) -> ArrivalStream {
        let spec = StreamSpec {
            requests,
            slack_range: SLACK_RANGE,
        };
        match self {
            // The `repro profile` shape: mean 0.5 s, x3 peak, 600 s period.
            Workload::OverloadMdf | Workload::OverloadMeta => {
                ArrivalStream::diurnal(library, 0.5, 3.0, 600.0, &spec, seed)
            }
            Workload::ModerateMeta => ArrivalStream::poisson(library, 4.0, &spec, seed),
            // The `repro admission` bursty shape: ~1 s gaps for 15 s,
            // then ~8 s lulls.
            Workload::BurstyWindowJournal => {
                ArrivalStream::bursty_window(library, 1.0, 8.0, 15.0, &spec, seed)
            }
        }
    }

    /// Calls `v` with this workload's scheduler and admission policy.
    pub fn visit<V: Visit>(self, v: V) -> V::Out {
        match self {
            Workload::OverloadMdf => v.visit(MmkpMdf::new, Immediate),
            Workload::OverloadMeta | Workload::ModerateMeta => {
                v.visit(MetaScheduler::new, Immediate)
            }
            Workload::BurstyWindowJournal => v.visit(MmkpMdf::new, WindowTau(2.0)),
        }
    }
}
