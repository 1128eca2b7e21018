//! A fixed reference kernel that measures the host's current speed.
//!
//! On a shared virtual machine the same pass can take twice as long
//! from one minute to the next, for reasons outside the guest. The
//! benchmark times this kernel before and after every pass and rescales
//! the pass's host times to a nominal host, one on which the kernel
//! takes [`NOMINAL_NS`]. The kernel is the benchmark's own code, so a
//! change to the program cannot move it.

/// Kernel time, in nanoseconds, on the nominal host.
pub const NOMINAL_NS: f64 = 10e6;

/// Repetitions per measurement; the median is kept.
const REPEATS: usize = 3;

/// Shuffle-and-sort rounds per repetition: about 10 ms on a 2 GHz
/// x86-64 core.
const ROUNDS: usize = 100;

/// One repetition: fills a 32 KiB array from an xorshift generator and
/// sorts it, `ROUNDS` times. A branchy, cache-resident integer load.
fn kernel() -> u64 {
    let mut v: Vec<u64> = vec![0; 4096];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
        acc ^= v[(x % 4096) as usize];
    }
    acc
}

/// Host nanoseconds the kernel takes now: the median of a few
/// repetitions.
pub fn measure(clock: fn() -> u64) -> u64 {
    let mut times: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let t0 = clock();
            std::hint::black_box(kernel());
            clock() - t0
        })
        .collect();
    times.sort_unstable();
    times[REPEATS / 2]
}

/// The factor that rescales host times measured between two kernel
/// timings to the nominal host.
pub fn scale(before_ns: u64, after_ns: u64) -> f64 {
    NOMINAL_NS * 2.0 / (before_ns + after_ns) as f64
}
