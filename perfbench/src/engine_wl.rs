//! The single-node engine workloads, `ingest_100k` and `audit_100k`.
//!
//! Both drive one `fi_core::Engine` block by block, as a proposer seals:
//! the block's client ops go through `Engine::apply_batch` together with
//! the slot's `AdvanceTo`, then `Engine::state_root()` commits the state.
//! A block's wall time is those two calls; generating the ops (the
//! harness) is timed separately.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::Time;
use fi_core::engine::{Engine, StateView};
use fi_core::ops::{Op, Receipt};
use fi_core::params::ProtocolParams;
use fi_core::types::{FileId, SectorId};

use crate::host::{median, percentile};
use crate::report::Outcome;
use crate::trace::{CountingStore, Tracer};

const PROVIDER: AccountId = AccountId(42);
const CLIENT: AccountId = AccountId(43);
/// Ticks per block.
const BLOCK: Time = 10;
/// Replicas per file.
const K: u32 = 3;

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Grow a 20k-file network to 100k files: the write path.
    Ingest,
    /// Audit 100k live files over one proof cycle: the verify path.
    Audit,
}

/// Sizes of an engine workload run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Blocks of `adds_per_block` `File_Add`s that build the start state.
    pub setup_blocks: u64,
    /// Blocks in the timed phase.
    pub timed_blocks: u64,
    /// `File_Add`s per block (setup, and the ingest timed phase).
    pub adds_per_block: u64,
    /// Times the start state is built; `setup_s` is their median.
    pub setup_reps: usize,
    /// Sectors the provider registers.
    pub sectors: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full(kind: Kind) -> Scale {
        match kind {
            // 20k files at setup, 100 timed blocks of 800 adds: 100k.
            Kind::Ingest => Scale {
                setup_blocks: 25,
                timed_blocks: 100,
                adds_per_block: 800,
                setup_reps: 3,
                sectors: 64,
            },
            // 100k files at setup; the timed phase is one proof cycle of
            // 100 blocks, so every file is audited exactly once.
            Kind::Audit => Scale {
                setup_blocks: 100,
                timed_blocks: 100,
                adds_per_block: 1_000,
                // Each build takes seconds (100k files through the op
                // layer); two keep the run within its time budget.
                setup_reps: 2,
                sectors: 64,
            },
        }
    }

    /// A few-second version for the self-test.
    pub fn tiny(kind: Kind) -> Scale {
        match kind {
            Kind::Ingest => Scale {
                setup_blocks: 4,
                timed_blocks: 12,
                adds_per_block: 50,
                setup_reps: 1,
                sectors: 8,
            },
            Kind::Audit => Scale {
                setup_blocks: 12,
                timed_blocks: 12,
                adds_per_block: 50,
                setup_reps: 1,
                sectors: 8,
            },
        }
    }

    fn files(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Ingest => (self.setup_blocks + self.timed_blocks) * self.adds_per_block,
            Kind::Audit => self.setup_blocks * self.adds_per_block,
        }
    }
}

/// Protocol parameters, set field by field so no environment knob leaks
/// in. `(shards, ingest_threads) = (2, 2)` everywhere.
fn params(kind: Kind, scale: &Scale, seed: u64) -> ProtocolParams {
    // Audit: one proof cycle spans exactly the timed phase, and the setup
    // spreads the files' first audits evenly over it. Ingest: the cycle
    // is longer than the run, so no audit fires. (Not much longer: the
    // task wheel holds one bucket per block up to the latest task.)
    let proof_cycle = match kind {
        Kind::Audit => scale.setup_blocks * BLOCK,
        Kind::Ingest => 1_000 * BLOCK,
    };
    ProtocolParams {
        k: K,
        proof_cycle,
        proof_due: 2 * proof_cycle,
        proof_deadline: 4 * proof_cycle,
        // No location refresh within the run.
        avg_refresh: 1e9,
        // A size-1 transfer window of 2.5 blocks: confirms arrive one
        // block after the add, `Auto_CheckAlloc` fires two blocks later.
        delay_per_size: 25,
        block_interval: BLOCK,
        shards: 2,
        ingest_threads: 2,
        // The WindowPoSt-scale verification depth.
        audit_path_len: 64,
        seed,
        ..ProtocolParams::default()
    }
}

/// A replica an honest provider proves: `(file, index, holder)`.
type Replica = (FileId, u32, SectorId);

/// The engine plus the harness state that derives each block's ops.
struct Net {
    engine: Engine,
    store: Arc<CountingStore>,
    kind: Kind,
    seed: u64,
    files_added: u64,
    last_add_at: Time,
    /// `File_Confirm`s for the previous block's adds.
    confirms: Vec<Op>,
    /// Audit time → replicas audited then (audit workload only).
    due: BTreeMap<Time, Vec<Replica>>,
}

/// What one block did.
struct BlockRun {
    ms: f64,
    client_ops: u64,
    errors: u64,
}

impl Net {
    fn new(kind: Kind, scale: &Scale, seed: u64, traced: bool) -> Net {
        let store = CountingStore::new(traced);
        let p = params(kind, scale, seed);
        let mut engine = Engine::new_with_store(p, store.clone()).expect("valid parameters");
        engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
        engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
        // Twice the replica capacity the run needs, in minCapacity units.
        let need = 2 * scale.files(kind) * K as u64;
        let per_sector = need.div_ceil(scale.sectors).div_ceil(64).max(1) * 64;
        for _ in 0..scale.sectors {
            engine
                .sector_register(PROVIDER, per_sector)
                .expect("register sector");
        }
        Net {
            engine,
            store,
            kind,
            seed,
            files_added: 0,
            last_add_at: 0,
            confirms: Vec::new(),
            due: BTreeMap::new(),
        }
    }

    /// The next block's client ops: last block's confirms, the proofs of
    /// replicas audited in this block, then `adds` new files.
    fn next_ops(&mut self, adds: u64) -> Vec<Op> {
        let now = self.engine.now();
        let mut ops = std::mem::take(&mut self.confirms);
        let cycle = self.engine.params().proof_cycle;
        while let Some(entry) = self.due.first_entry() {
            if *entry.key() > now + BLOCK {
                break;
            }
            let at = *entry.key();
            let replicas = entry.remove();
            ops.extend(replicas.iter().map(|&(file, index, sector)| Op::FileProve {
                caller: PROVIDER,
                file,
                index,
                sector,
            }));
            self.due.insert(at + cycle, replicas);
        }
        let value = self.engine.params().min_value;
        for _ in 0..adds {
            let mut tag = [0u8; 16];
            tag[..8].copy_from_slice(&self.seed.to_le_bytes());
            tag[8..].copy_from_slice(&self.files_added.to_le_bytes());
            self.files_added += 1;
            ops.push(Op::FileAdd {
                client: CLIENT,
                size: 1,
                value,
                merkle_root: fi_crypto::sha256(&tag),
            });
        }
        if adds > 0 {
            self.last_add_at = now;
        }
        ops
    }

    /// Seals one block: harness, `apply_batch`, `state_root`. Traced, the
    /// block's `AdvanceTo` is applied on its own so its cost splits off
    /// (`apply_batch` is bit-identical to op-by-op `apply`).
    fn block(&mut self, adds: u64, tracer: &mut Tracer) -> BlockRun {
        let height = self.engine.chain().height();
        tracer.enter("block", height);
        tracer.enter("harness", height);
        let mut ops = self.next_ops(adds);
        tracer.exit();
        let client_ops = ops.len() as u64;
        let advance = Op::AdvanceTo {
            target: self.engine.now() + BLOCK,
        };
        let start = Instant::now();
        let results = if tracer.enabled() {
            let engine = &mut self.engine;
            let p0 = engine.phase_times();
            tracer.enter("batch", height);
            let results = engine.apply_batch(ops);
            let p1 = engine.phase_times();
            tracer.derived("batch.stage", height, p1.stage_s - p0.stage_s);
            tracer.derived("batch.commit", height, p1.commit_s - p0.commit_s);
            tracer.exit();
            tracer.enter("advance", height);
            engine.apply(advance).expect("AdvanceTo is infallible");
            let p2 = engine.phase_times();
            tracer.derived("audit.verify", height, p2.verify_s - p1.verify_s);
            tracer.derived("audit.fold", height, p2.fold_s - p1.fold_s);
            tracer.exit();
            tracer.enter("state_root", height);
            std::hint::black_box(engine.state_root());
            tracer.exit();
            results
        } else {
            ops.push(advance);
            let mut results = self.engine.apply_batch(ops);
            results.pop();
            std::hint::black_box(self.engine.state_root());
            results
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.enter("harness", height);
        let errors = self.harvest(&results);
        tracer.exit();
        tracer.exit();
        BlockRun {
            ms,
            client_ops,
            errors,
        }
    }

    /// Queues confirms (and, for the audit workload, future proofs) for
    /// the files this block added; returns the number of error receipts.
    fn harvest(&mut self, results: &[Result<Receipt, fi_core::EngineError>]) -> u64 {
        let now = self.engine.now();
        let window = self.engine.params().transfer_window(1);
        let cycle = self.engine.params().proof_cycle;
        let mut errors = 0;
        for result in results {
            match result {
                Ok(Receipt::FileAdded { file, .. }) => {
                    let pending = self.engine.pending_confirms(*file);
                    let add_at = now - BLOCK;
                    let mut replicas = Vec::with_capacity(pending.len());
                    for (index, sector) in pending {
                        self.confirms.push(Op::FileConfirm {
                            caller: PROVIDER,
                            file: *file,
                            index,
                            sector,
                        });
                        replicas.push((*file, index, sector));
                    }
                    if self.kind == Kind::Audit {
                        // `Auto_CheckAlloc` at add + window schedules the
                        // first audit one cycle later.
                        self.due
                            .entry(add_at + window + cycle)
                            .or_default()
                            .extend(replicas);
                    }
                }
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        errors
    }

    /// Empty blocks until every queued confirm has committed and every
    /// `Auto_CheckAlloc` has fired.
    fn drain(&mut self, tracer: &mut Tracer) -> u64 {
        let window = self.engine.params().transfer_window(1);
        let mut errors = 0;
        while !self.confirms.is_empty() || self.engine.now() < self.last_add_at + window {
            errors += self.block(0, tracer).errors;
        }
        errors
    }
}

/// Builds the start state: `setup_blocks` blocks of adds, then a drain.
fn setup(kind: Kind, scale: &Scale, seed: u64, traced: bool) -> (Net, f64, u64) {
    let start = Instant::now();
    let mut net = Net::new(kind, scale, seed, traced);
    let mut off = Tracer::new(false);
    let mut errors = 0;
    for _ in 0..scale.setup_blocks {
        errors += net.block(scale.adds_per_block, &mut off).errors;
    }
    errors += net.drain(&mut off);
    (net, start.elapsed().as_secs_f64(), errors)
}

/// The timed phase's raw figures.
struct Phase {
    wall_s: f64,
    block_ms: Vec<f64>,
    client_ops: u64,
    errors: u64,
}

fn timed_phase(net: &mut Net, kind: Kind, scale: &Scale, tracer: &mut Tracer) -> Phase {
    let adds = match kind {
        Kind::Ingest => scale.adds_per_block,
        Kind::Audit => 0,
    };
    let start = Instant::now();
    let mut out = Phase {
        wall_s: 0.0,
        block_ms: Vec::with_capacity(scale.timed_blocks as usize),
        client_ops: 0,
        errors: 0,
    };
    for _ in 0..scale.timed_blocks {
        let b = net.block(adds, tracer);
        out.block_ms.push(b.ms);
        out.client_ops += b.client_ops;
        out.errors += b.errors;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Runs one engine workload. Traced, it also runs the timed phase once
/// untraced on a fresh setup, to report tracing overhead.
pub fn run(kind: Kind, scale: &Scale, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Traced, first time the phase untraced on a setup of its own: the
    // difference to the traced wall time is the tracing overhead.
    let untraced_wall = traced.then(|| {
        let (mut plain, _, _) = setup(kind, scale, seed, false);
        timed_phase(&mut plain, kind, scale, &mut Tracer::new(false)).wall_s
    });
    let mut setup_times = Vec::new();
    let mut setup_errors = 0;
    let mut last = None;
    for _ in 0..scale.setup_reps.max(1) {
        // Drop the previous state first: one engine in memory at a time.
        drop(last.take());
        let (net, secs, errors) = setup(kind, scale, seed, traced);
        setup_times.push(secs);
        setup_errors += errors;
        last = Some(net);
    }
    let mut net = last.expect("at least one setup");
    out.check("setup: no error receipts", setup_errors == 0);
    let live_at_start = net.engine.file_ids().len() as u64;
    out.check(
        format!(
            "setup: {} files live",
            scale.setup_blocks * scale.adds_per_block
        ),
        live_at_start == scale.setup_blocks * scale.adds_per_block,
    );

    let mut tracer = Tracer::new(traced);
    tracer.set_store(net.store.clone());
    let stats0 = net.engine.stats();
    let phase0 = net.engine.phase_times();
    let store0 = net.store.counters();
    let timed = timed_phase(&mut net, kind, scale, &mut tracer);
    let store1 = net.store.counters();
    let stats1 = net.engine.stats();
    let phase1 = net.engine.phase_times();

    // Checks, outside the timed phase.
    let drain_errors = net.drain(&mut Tracer::new(false));
    let files = net.engine.file_ids();
    let stats = net.engine.stats();
    match kind {
        Kind::Ingest => {
            let want = scale.files(kind);
            out.check(
                format!("ingest: {want} files live"),
                files.len() as u64 == want,
            );
            out.check(
                "ingest: no error receipts",
                timed.errors + drain_errors == 0,
            );
            let pending = files
                .iter()
                .filter(|&&f| !net.engine.pending_confirms(f).is_empty())
                .count();
            out.check("ingest: no pending confirms", pending == 0);
        }
        Kind::Audit => {
            let want = scale.files(kind) * K as u64;
            let audited = stats1.proofs_audited - stats0.proofs_audited;
            out.check(
                format!("audit: {audited} replicas audited, want {want}"),
                audited == want,
            );
            out.check("audit: no error receipts", timed.errors == 0);
            out.check("audit: zero punishments", stats.punishments == 0);
            out.check(
                "audit: zero losses",
                stats.files_lost == 0 && stats.sectors_corrupted == 0,
            );
            out.check(
                "audit: every file still live",
                files.len() as u64 == scale.files(kind),
            );
        }
    }
    let root = net.engine.state_root();
    let mut pick = seed | 1;
    let mut proofs_ok = !files.is_empty();
    for _ in 0..16 {
        pick = pick
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let Some(&file) = files.get((pick >> 33) as usize % files.len().max(1)) else {
            break;
        };
        proofs_ok &= net
            .engine
            .prove_file(file)
            .ok()
            .and_then(|proof| proof.verify(root).ok())
            .is_some_and(|desc| desc.id == file);
    }
    out.check(
        "sampled prove_file proofs verify against state_root",
        proofs_ok,
    );

    out.attempted = timed.client_ops;
    out.failed = timed.errors;
    out.final_root = Some(root);
    out.e2e.setup_s = median(&setup_times);
    out.e2e.ops_per_s = timed.client_ops as f64 / timed.wall_s;
    out.e2e.block_ms_p50 = percentile(&timed.block_ms, 50.0);
    out.e2e.block_ms_p90 = percentile(&timed.block_ms, 90.0);
    out.e2e.commit_ratio = (timed.client_ops - timed.errors) as f64 / timed.client_ops as f64;

    let store = store1.since(store0);
    out.exact = vec![
        ("client_ops", timed.client_ops),
        ("errors", timed.errors),
        ("files", files.len() as u64),
        (
            "proofs_audited",
            stats1.proofs_audited - stats0.proofs_audited,
        ),
        (
            "fallbacks",
            stats1.batches_fell_back_sequential - stats0.batches_fell_back_sequential,
        ),
        ("store.puts", store.puts),
        ("store.put_bytes", store.put_bytes),
        ("store.bytes_retained", net.store.bytes_retained()),
    ];
    if traced {
        let ms = |s: f64| s * 1e3;
        let verify = ms(phase1.verify_s - phase0.verify_s);
        let fold = ms(phase1.fold_s - phase0.fold_s);
        let advance = tracer.total_ms("advance");
        let wall_ms = ms(timed.wall_s);
        let self_sum = tracer.self_sum_ms("block");
        out.layers = vec![
            ("batch.ms", tracer.total_ms("batch")),
            ("batch.stage_ms", ms(phase1.stage_s - phase0.stage_s)),
            ("batch.commit_ms", ms(phase1.commit_s - phase0.commit_s)),
            (
                "batch.fallbacks",
                (stats1.batches_fell_back_sequential - stats0.batches_fell_back_sequential) as f64,
            ),
            ("audit.verify_ms", verify),
            ("audit.fold_ms", fold),
            (
                "audit.proofs_audited",
                (stats1.proofs_audited - stats0.proofs_audited) as f64,
            ),
            ("advance.ms", advance),
            ("advance.other_ms", advance - verify - fold),
            ("state_root.ms", tracer.total_ms("state_root")),
            ("store.puts", store.puts as f64),
            ("store.put_bytes", store.put_bytes as f64),
            ("store.gets", store.gets as f64),
            ("store.put_ms", store.put_ns as f64 / 1e6),
            ("store.get_ms", store.get_ns as f64 / 1e6),
            ("store.bytes_retained", net.store.bytes_retained() as f64),
            ("harness.ms", tracer.total_ms("harness")),
            ("trace.wall_ms", wall_ms),
            ("trace.self_sum_ms", self_sum),
            ("trace.coverage", self_sum / wall_ms),
            (
                "trace.overhead_ms",
                wall_ms - ms(untraced_wall.unwrap_or(timed.wall_s)),
            ),
        ];
        crate::write_trace(kind_name(kind), seed, &tracer);
    }
    out
}

/// The workload's name in `BENCHMARK.json`.
pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Ingest => "ingest_100k",
        Kind::Audit => "audit_100k",
    }
}
