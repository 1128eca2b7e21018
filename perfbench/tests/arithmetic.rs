//! The benchmark's own arithmetic: the tail-percentile rule and span
//! self times.

use std::cell::Cell;

use amrm_perfbench::spans::{self, Span, SpanName, NO_PARENT};
use amrm_perfbench::stats::{median, percentile, tail_permille, MIN_BEYOND};

#[test]
fn tail_is_p99_only_with_ten_samples_beyond_it() {
    // 1000 samples: rank 990, so exactly 10 lie beyond p99.
    assert_eq!(tail_permille(1000, 990), 990);
    // 999 samples: rank 990 leaves 9 beyond p99, so fall back to p90.
    assert_eq!(tail_permille(999, 990), 900);
    // p90 needs 100 samples (rank 90, 10 beyond).
    assert_eq!(tail_permille(100, 990), 900);
    assert_eq!(tail_permille(99, 990), 500);
    // Below 20 samples nothing qualifies; the median is reported.
    assert_eq!(tail_permille(5, 990), 500);
    // The rule never reports above the nominal percentile.
    assert_eq!(tail_permille(1_000_000, 990), 990);
    assert_eq!(tail_permille(1_000_000, 900), 900);
}

#[test]
fn reported_tail_leaves_min_beyond_samples() {
    for n in [20usize, 57, 100, 101, 999, 1000, 1001, 12_345] {
        let sorted: Vec<u64> = (1..=n as u64).collect();
        let p = tail_permille(n, 990);
        let value = percentile(&sorted, p);
        let beyond = sorted.iter().filter(|&&v| v > value).count();
        assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
    }
}

#[test]
fn nearest_rank_percentiles_and_median() {
    let sorted: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile(&sorted, 500), 5);
    assert_eq!(percentile(&sorted, 900), 9);
    assert_eq!(percentile(&sorted, 990), 10);
    assert_eq!(percentile(&[7], 990), 7);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn span(name: SpanName, start: u64, end: u64, parent: u32) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 1,
    }
}

#[test]
fn overlapping_children_are_subtracted_once() {
    let spans = [
        span(SpanName::Step, 0, 100, NO_PARENT),
        // Two children overlapping on 20..30: their union is 10..40.
        span(SpanName::Sched, 10, 30, 0),
        span(SpanName::Admission, 20, 40, 0),
        // A child nested inside another child's interval adds nothing.
        span(SpanName::Sched, 25, 28, 0),
        // A disjoint child.
        span(SpanName::Sched, 60, 70, 0),
    ];
    let own = spans::self_times(&spans);
    assert_eq!(own[0], 100 - 30 - 10);
    assert_eq!(&own[1..], &[20, 20, 3, 10]);
}

#[test]
fn children_count_only_inside_their_parent() {
    let spans = [
        span(SpanName::Step, 50, 100, NO_PARENT),
        span(SpanName::Sched, 40, 60, 0),
        span(SpanName::Sched, 90, 120, 0),
    ];
    assert_eq!(spans::self_times(&spans)[0], 50 - 10 - 10);
}

#[test]
fn grandchildren_reduce_only_their_own_parent() {
    let spans = [
        span(SpanName::Step, 0, 100, NO_PARENT),
        span(SpanName::Sched, 10, 60, 0),
        span(SpanName::Admission, 20, 30, 1),
    ];
    assert_eq!(spans::self_times(&spans), vec![50, 40, 10]);
}

thread_local! {
    static TICKS: Cell<u64> = const { Cell::new(0) };
}

/// A clock that advances 10 ns per reading.
fn ticking() -> u64 {
    TICKS.with(|t| {
        t.set(t.get() + 10);
        t.get()
    })
}

#[test]
fn recorder_nests_spans_and_stamps_requests() {
    spans::start(ticking);
    spans::set_request(7);
    spans::scoped(SpanName::Step, || {
        spans::scoped(SpanName::Sched, || ());
    });
    spans::set_request(8);
    spans::scoped(SpanName::StreamNext, || ());
    let recorded = spans::finish();
    assert_eq!(recorded.len(), 3);
    assert_eq!(recorded[0].parent, NO_PARENT);
    assert_eq!(recorded[1].parent, 0);
    assert_eq!(recorded[2].parent, NO_PARENT);
    assert_eq!(
        recorded.iter().map(|s| s.request).collect::<Vec<_>>(),
        vec![7, 7, 8]
    );
    // Readings: step 10, sched 20..30, step ends 40.
    assert_eq!((recorded[0].start, recorded[0].end), (10, 40));
    assert_eq!((recorded[1].start, recorded[1].end), (20, 30));
    assert_eq!(spans::self_times(&recorded)[0], 20);
}
