//! Entry point of the amrm serving benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo bench --offline -q --manifest-path perfbench/Cargo.toml --bench serve -- \
//!     --workload overload-mdf --seed 2020 --seconds 10 --trace 0
//! ```
//!
//! Prints a provenance line, then the result line as the last line of
//! standard output. Exits 1 when a correctness check failed and 2 on a
//! usage error.

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use amrm_perfbench::{run, Options};

/// Host nanoseconds since the first reading. The only wall-clock read of
/// the benchmark; the library receives it as a function pointer.
fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).expect("run shorter than 584 years")
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("serve: {msg}");
            eprintln!("usage: serve --workload NAME --seed N --seconds N --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = run(&opts, now_ns);
    for e in &result.errors {
        eprintln!("serve: check failed: {e}");
    }
    println!("{}", result.provenance_json());
    println!("{}", result.result_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
