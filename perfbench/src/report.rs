//! What a workload run produces, and the fixed metric sets it is printed
//! as.

use fi_crypto::Hash256;

/// The run's user-visible figures. An untraced run prints the four gated
/// ones ([`EndToEnd::rows`]); `ops_per_s` and `commit_ratio` are printed
/// with the per-layer metrics (see [`LAYER_METRICS`]).
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median seconds to build the start state.
    pub setup_s: f64,
    /// Client ops committed per wall second of the timed phase.
    pub ops_per_s: f64,
    /// Median wall ms per block (per production slot on the cluster).
    pub block_ms_p50: f64,
    /// 90th-percentile wall ms per block.
    pub block_ms_p90: f64,
    /// `VmHWM` at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Client ops committed successfully / client ops attempted.
    pub commit_ratio: f64,
}

impl EndToEnd {
    /// The gated end-to-end metrics, `(name, value, unit)` in
    /// `BENCHMARK.json` order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("block_ms_p50", self.block_ms_p50, "ms"),
            ("block_ms_p90", self.block_ms_p90, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Every per-layer metric a traced run prints: `(name, unit, exact)`.
/// `exact` marks counts that repeat bit for bit at a fixed seed; every
/// other number is a time or a ratio and varies run to run. A workload
/// that does not exercise a layer reports 0 for it.
///
/// The first two are whole-run figures kept out of the gated end-to-end
/// set: on `cluster_20k` the client driver's load follows the program's
/// nonce-gap wedges, so they move by a factor of two across seeds.
pub const LAYER_METRICS: &[(&str, &str, bool)] = &[
    ("ops_per_s", "1/s", false),
    ("commit_ratio", "ratio", false),
    ("batch.ms", "ms", false),
    ("batch.stage_ms", "ms", false),
    ("batch.commit_ms", "ms", false),
    ("batch.fallbacks", "count", true),
    ("audit.verify_ms", "ms", false),
    ("audit.fold_ms", "ms", false),
    ("audit.proofs_audited", "count", true),
    ("advance.ms", "ms", false),
    ("advance.other_ms", "ms", false),
    ("state_root.ms", "ms", false),
    ("store.puts", "count", true),
    ("store.put_bytes", "bytes", true),
    ("store.gets", "count", true),
    ("store.put_ms", "ms", false),
    ("store.get_ms", "ms", false),
    ("store.bytes_retained", "bytes", true),
    ("chain.import_ms", "ms", false),
    ("chain.seal_ms", "ms", false),
    ("chain.reorgs", "count", true),
    ("engine.clone_ms", "ms", false),
    ("mempool.admit_ms", "ms", false),
    ("mempool.admitted", "count", true),
    ("mempool.rejected_nonce", "count", true),
    ("mempool.rejected_duplicate", "count", true),
    ("client.ms", "ms", false),
    ("node.other_ms", "ms", false),
    ("net.ms", "ms", false),
    ("net.messages", "count", true),
    ("net.lost", "count", true),
    ("harness.ms", "ms", false),
    ("trace.wall_ms", "ms", false),
    ("trace.self_sum_ms", "ms", false),
    ("trace.coverage", "ratio", false),
    ("trace.overhead_ms", "ms", false),
    ("host.probe_ms", "ms", false),
];

/// One workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Correctness checks, `(description, passed)`, all outside the timed
    /// phase.
    pub checks: Vec<(String, bool)>,
    /// Client ops attempted in the timed phase.
    pub attempted: u64,
    /// Of those, ops that did not commit successfully.
    pub failed: u64,
    /// End-to-end figures (`peak_rss_mb` is filled in by the caller).
    pub e2e: EndToEnd,
    /// Per-layer figures of a traced run, by [`LAYER_METRICS`] name.
    pub layers: Vec<(&'static str, f64)>,
    /// Exact counts that must repeat at a fixed seed (self-test).
    pub exact: Vec<(&'static str, u64)>,
    /// The final state root (self-test).
    pub final_root: Option<Hash256>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// A per-layer figure, 0 when the workload did not record it.
    pub fn layer(&self, name: &str) -> f64 {
        match name {
            "ops_per_s" => self.e2e.ops_per_s,
            "commit_ratio" => self.e2e.commit_ratio,
            _ => self
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0),
        }
    }
}
