//! The parallel sweep must be a pure reordering of the serial sweep.
//!
//! The work-stealing scheduler may claim tasks in any order and interleave
//! them across threads, but every (workload, scheme) replay consumes an
//! identical shared trace through a deterministic scheme — so the reports
//! it produces must be byte-identical, field for field, to a plain
//! single-threaded replay. If this test fails, the scheduler has introduced
//! cross-task state (or a scheme has hidden global state).

use esd_bench::Sweep;
use esd_core::SchemeKind;
use esd_trace::AppProfile;

fn test_sweep(threads: Option<usize>) -> Sweep {
    // Fixed parameters (`Sweep::new` reads no environment): the point is
    // to compare schedules, not configurations.
    let mut sweep = Sweep::new(AppProfile::all().into_iter().take(4).collect());
    sweep.accesses = 2_000;
    sweep.seed = 7;
    sweep.threads = threads;
    sweep
}

#[test]
fn parallel_sweep_equals_serial_replay() {
    let sweep = test_sweep(Some(4));
    let serial = sweep.run_serial(&SchemeKind::ALL);
    let parallel = sweep.run(&SchemeKind::ALL);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app.name, p.app.name, "row order must match app order");
        assert_eq!(
            s.reports, p.reports,
            "reports for {} diverged between serial and parallel runs",
            s.app.name
        );
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let one = test_sweep(Some(1)).run(&SchemeKind::ALL);
    let many = test_sweep(Some(8)).run(&SchemeKind::ALL);
    for (a, b) in one.iter().zip(&many) {
        assert_eq!(a.reports, b.reports, "thread count changed {}", a.app.name);
    }
}

#[test]
fn repeated_runs_are_identical() {
    let sweep = test_sweep(Some(3));
    let first = sweep.run(&SchemeKind::ALL);
    let second = sweep.run(&SchemeKind::ALL);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.reports, b.reports, "rerun changed {}", a.app.name);
    }
}
