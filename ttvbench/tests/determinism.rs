//! Determinism self-check: a short prefix of each workload, run twice —
//! the second time traced — must give identical verdicts and per-query
//! conflict counts, so the spread left in the timings comes from the
//! machine, and tracing does not change what it measures.

use ttvbench::instances::{generate, Workload, DEFAULT_INSTANCE_SEED};
use ttvbench::run::{run_pass, Guard};
use ttvbench::trace::Trace;

const PREFIX: usize = 3;

fn runs_identically(workload: Workload) {
    let instances: Vec<_> = generate(workload, DEFAULT_INSTANCE_SEED)
        .into_iter()
        .take(PREFIX)
        .collect();
    let guard = Guard::default();
    let plain = run_pass(&instances, &guard, &mut Trace::disabled());
    let mut trace = Trace::enabled();
    let traced = run_pass(&instances, &guard, &mut trace);
    assert!(!trace.spans.is_empty());
    for (a, b) in plain.outcomes.iter().zip(&traced.outcomes) {
        assert_eq!(a.failure, None, "{}: instance {}", workload.name(), a.id);
        assert_eq!(b.failure, None, "{}: instance {}", workload.name(), b.id);
        assert!(a.decided && !a.fingerprint.conflicts.is_empty());
        assert_eq!(
            a.fingerprint,
            b.fingerprint,
            "{}: instance {}",
            workload.name(),
            a.id
        );
    }
}

#[test]
fn graph_depth_repeats_exactly() {
    runs_identically(Workload::GraphDepth);
}

#[test]
fn oneshot_solve_repeats_exactly() {
    runs_identically(Workload::OneshotSolve);
}

#[test]
fn tfactory_fleet_repeats_exactly() {
    runs_identically(Workload::TfactoryFleet);
}
