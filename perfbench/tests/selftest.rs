//! The benchmark's own determinism check, at reduced sizes: two runs at
//! one seed give identical exact counts and final roots (traced and
//! untraced alike), and another seed changes the cluster's message
//! counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::engine_wl::{self, Kind, Scale};
use perfbench::report::Outcome;
use perfbench::{cluster_wl, trace_path};

fn assert_same(a: &Outcome, b: &Outcome, what: &str) {
    assert!(a.correct(), "{what}: checks failed: {:?}", a.checks);
    assert!(b.correct(), "{what}: checks failed: {:?}", b.checks);
    assert_eq!(a.exact, b.exact, "{what}: exact counts differ");
    assert_eq!(a.final_root, b.final_root, "{what}: final roots differ");
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{what}");
}

fn exact(o: &Outcome, name: &str) -> u64 {
    o.exact
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("no exact count {name}"))
}

#[test]
fn engine_workloads_repeat_exactly_at_a_seed() {
    for kind in [Kind::Ingest, Kind::Audit] {
        let scale = Scale::tiny(kind);
        let a = engine_wl::run(kind, &scale, 7, false);
        let b = engine_wl::run(kind, &scale, 7, false);
        assert_same(&a, &b, engine_wl::kind_name(kind));
        assert_eq!(a.failed, 0, "no engine op fails");
        // Tracing splits `AdvanceTo` off the batch; state must not move.
        let traced = engine_wl::run(kind, &scale, 7, true);
        assert_same(&a, &traced, "traced vs untraced");
        assert!(traced.layer("store.puts") > 0.0);
        let _ = std::fs::remove_file(trace_path(engine_wl::kind_name(kind), 7));
    }
    let audit = engine_wl::run(Kind::Audit, &Scale::tiny(Kind::Audit), 7, false);
    let tiny = Scale::tiny(Kind::Audit);
    assert_eq!(
        exact(&audit, "proofs_audited"),
        tiny.setup_blocks * tiny.adds_per_block * 3,
        "one proof cycle audits every replica once"
    );
}

#[test]
fn cluster_repeats_exactly_at_a_seed_and_varies_across_seeds() {
    let scale = cluster_wl::Scale::tiny();
    let a = cluster_wl::run(&scale, 11, false);
    let b = cluster_wl::run(&scale, 11, false);
    assert_same(&a, &b, "cluster_20k");
    let traced = cluster_wl::run(&scale, 11, true);
    assert_same(&a, &traced, "cluster_20k traced vs untraced");
    let _ = std::fs::remove_file(trace_path("cluster_20k", 11));
    let other = cluster_wl::run(&scale, 12, false);
    assert_ne!(
        exact(&a, "messages"),
        exact(&other, "messages"),
        "another seed must change the link draws"
    );
}

#[test]
fn traced_self_times_cover_the_wall_time() {
    let scale = Scale::tiny(Kind::Ingest);
    let out = engine_wl::run(Kind::Ingest, &scale, 3, true);
    let coverage = out.layer("trace.coverage");
    assert!(
        (0.9..=1.1).contains(&coverage),
        "self times sum to {coverage} of the wall time"
    );
    let _ = std::fs::remove_file(trace_path("ingest_100k", 3));
}
