//! The FileInsurer benchmark: seeded, deterministic workloads driven
//! through the public APIs of `fi-core`, `fi-store`, `fi-node` and
//! `fi-net`, measured end to end and, in a separate traced run, layer by
//! layer. See `perfbench/README.md`.

pub mod cluster_wl;
pub mod engine_wl;
pub mod host;
pub mod report;
pub mod trace;

use std::path::PathBuf;

use report::Outcome;
use trace::Tracer;

/// The workloads, by their `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 3] = ["ingest_100k", "audit_100k", "cluster_20k"];

/// Runs workload `name` at full size; `None` for an unknown name.
pub fn run_workload(name: &str, seed: u64, traced: bool) -> Option<Outcome> {
    use engine_wl::{Kind, Scale};
    Some(match name {
        "ingest_100k" => engine_wl::run(Kind::Ingest, &Scale::full(Kind::Ingest), seed, traced),
        "audit_100k" => engine_wl::run(Kind::Audit, &Scale::full(Kind::Audit), seed, traced),
        "cluster_20k" => cluster_wl::run(&cluster_wl::Scale::full(), seed, traced),
        _ => return None,
    })
}

/// Where a traced run writes its spans: `perfbench/out/` of the checkout
/// the benchmark was built in.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Writes a traced run's spans (see [`Tracer::write`]). A write failure
/// is reported on stderr and does not fail the run.
pub fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let path = trace_path(workload, seed);
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{}}}",
        tracer.spans().len()
    );
    if let Err(e) = tracer.write(&path, &header) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
