//! The networked workload, `cluster_20k`: three beacon-rotated fi-node
//! validators and the fi-node `ClientDriver` over a lossy fi-net link,
//! with a genesis prefilled with live files and a validator crash every
//! few slots.
//!
//! Blocks follow the world's virtual-time schedule, so the wall time of a
//! slot is pure processing cost. The timed phase steps
//! `World::run_until` one slot at a time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::{FileState, SectorId};
use fi_crypto::{Hash256, RandomBeacon};
use fi_net::link::LinkModel;
use fi_net::world::World;
use fi_node::{
    ClientDriver, ClientReport, ConsensusConfig, NodeMsg, NodeStart, ProposerSchedule, ReplayMode,
    Validator, ValidatorReport, WorkloadConfig,
};

use crate::host::{median, percentile};
use crate::report::Outcome;
use crate::trace::{Activity, CallbackLog, CountingStore, Role, StoreCounters, Timed, Tracer};

/// Ticks per slot, with `ConsensusConfig::with_interval`'s documented
/// timing: skip timeout one third of a slot, status exchange twice per
/// slot. The slot outlasts the link's worst delay (5 + 8 ticks plus
/// serialisation), so a live leader's block normally reaches its peers
/// before the fallback ranks fire.
const SLOT: u64 = 30;
const CLIENT: AccountId = AccountId(900);
const PROVIDERS: [AccountId; 3] = [AccountId(700), AccountId(701), AccountId(702)];
const SECTORS_PER_PROVIDER: u64 = 8;
/// One replay mode per validator: both follower paths run.
const MODES: [ReplayMode; 3] = [ReplayMode::OpByOp, ReplayMode::Batch, ReplayMode::OpByOp];
/// Size of the files the driver adds (prefill files have size 1).
const CLIENT_FILE_SIZE: u64 = 4;
/// Ticks a crashed validator stays down.
const CRASH_TICKS: u64 = 3 * SLOT;
/// Slots after production ends for anti-entropy to reconverge every node.
const DRAIN_SLOTS: u64 = 40;

/// Sizes of a cluster run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Live files in the genesis state.
    pub prefill: u64,
    /// Untimed slots at the start; the prefill's `Auto_CheckAlloc` bucket
    /// fires in them.
    pub warmup_slots: u64,
    /// Slots in each cluster's timed phase.
    pub timed_slots: u64,
    /// Independent clusters per run, each on its own seed derived from
    /// the run's seed. Their slots pool into one distribution, which
    /// dilutes a single seed's loss pattern; `setup_s` is the median of
    /// their setups.
    pub clusters: u64,
    /// A validator crashes once every this many slots.
    pub crash_every: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            prefill: 20_000,
            warmup_slots: 10,
            timed_slots: 50,
            clusters: 5,
            crash_every: 10,
        }
    }

    /// A few-second version for the self-test.
    pub fn tiny() -> Scale {
        Scale {
            prefill: 300,
            warmup_slots: 10,
            // The first client add (slot 11) finishes its 30-slot
            // transfer window at slot 41.
            timed_slots: 35,
            clusters: 2,
            crash_every: 10,
        }
    }

    fn slots(&self) -> u64 {
        self.warmup_slots + self.timed_slots
    }
}

/// Protocol parameters, set field by field so no environment knob leaks
/// in.
fn params(seed: u64) -> ProtocolParams {
    ProtocolParams {
        k: 3,
        // Proof sweeps are off (the driver would resubmit every held
        // replica), so neither an audit nor the rent distribution may fall
        // due within the run. Not much later either: the task wheel holds
        // one bucket per slot up to the latest task, and every engine
        // clone copies it.
        proof_cycle: 500 * SLOT,
        proof_due: 1_000 * SLOT,
        proof_deadline: 2_000 * SLOT,
        rent_period_cycles: 1,
        avg_refresh: 1e9,
        // Transfer windows: 30 slots for the client's size-4 files, room
        // for a lost confirm to be resubmitted twice (the driver retries
        // after `DEDUP_WINDOW_SLOTS`); under 8 slots for the size-1
        // prefill, whose `Auto_CheckAlloc` bucket fires in the warm-up.
        delay_per_size: SLOT * 15 / 2,
        block_interval: SLOT,
        shards: 2,
        ingest_threads: 2,
        seed,
        ..ProtocolParams::default()
    }
}

/// The link every node pair shares: 10% loss, 5-tick latency, up to
/// 8 ticks of jitter.
fn link() -> LinkModel {
    LinkModel {
        base_latency: 5,
        ticks_per_byte: 0.001,
        max_jitter: 8,
        loss: 0.1,
    }
}

/// The shared genesis: accounts funded, sectors registered and `prefill`
/// files added and confirmed, all through the op layer, then
/// checkpointed (op log truncated) as a node restarted from it would be.
fn genesis(
    scale: &Scale,
    seed: u64,
    store: Arc<CountingStore>,
) -> (Engine, HashMap<SectorId, AccountId>) {
    let mut engine = Engine::new_with_store(params(seed), store).expect("valid parameters");
    engine.fund(CLIENT, TokenAmount(1 << 80));
    let files = scale.prefill + scale.slots();
    let sectors = PROVIDERS.len() as u64 * SECTORS_PER_PROVIDER;
    let capacity = (2 * 3 * CLIENT_FILE_SIZE * files)
        .div_ceil(sectors)
        .div_ceil(64)
        .max(1)
        * 64;
    let mut owner = HashMap::new();
    for provider in PROVIDERS {
        engine.fund(provider, TokenAmount(1 << 100));
        for _ in 0..SECTORS_PER_PROVIDER {
            let sector = engine
                .sector_register(provider, capacity)
                .expect("genesis registration");
            owner.insert(sector, provider);
        }
    }
    let value = engine.params().min_value;
    let mut added = 0;
    while added < scale.prefill {
        let n = (scale.prefill - added).min(1_000);
        let adds = (added..added + n)
            .map(|i| {
                let mut tag = [0u8; 16];
                tag[..8].copy_from_slice(&seed.to_le_bytes());
                tag[8..].copy_from_slice(&i.to_le_bytes());
                Op::FileAdd {
                    client: CLIENT,
                    size: 1,
                    value,
                    merkle_root: fi_crypto::sha256(&tag),
                }
            })
            .collect();
        let mut confirms = Vec::new();
        for result in engine.apply_batch(adds) {
            let Ok(fi_core::ops::Receipt::FileAdded { file, .. }) = result else {
                panic!("prefill add failed: {result:?}");
            };
            for (index, sector) in engine.pending_confirms(file) {
                confirms.push(Op::FileConfirm {
                    caller: owner[&sector],
                    file,
                    index,
                    sector,
                });
            }
        }
        for result in engine.apply_batch(confirms) {
            result.expect("prefill confirm");
        }
        added += n;
    }
    engine.checkpoint();
    engine.take_events();
    (engine, owner)
}

/// A built cluster and the handles to its processes.
struct Cluster {
    world: World<NodeMsg>,
    validator_reports: Vec<Rc<RefCell<ValidatorReport>>>,
    client: Rc<RefCell<ClientDriver>>,
    client_report: Rc<RefCell<ClientReport>>,
    store: Arc<CountingStore>,
    log: Option<Rc<RefCell<CallbackLog>>>,
}

/// Builds the genesis and the world, as `fi_node::build_cluster` lays it
/// out (validators `0..3`, client `3`), but with every process wrapped in
/// a [`Timed`] so the benchmark can time callbacks and reach the
/// processes afterwards. Then runs the untimed warm-up slots.
fn setup(scale: &Scale, seed: u64, traced: bool) -> Cluster {
    let store = CountingStore::new(traced);
    let (genesis, owner) = genesis(scale, seed, store.clone());
    let log = traced.then(|| Rc::new(RefCell::new(CallbackLog::default())));
    let mut world = World::new(link(), seed);
    let schedule = ProposerSchedule::new(RandomBeacon::new(seed), (0..MODES.len()).collect(), 3);
    let consensus = ConsensusConfig {
        block_interval: SLOT,
        skip_timeout: SLOT / 3,
        sync_every: SLOT / 2,
        slots_total: scale.slots(),
        record_op_log: false,
        join_retry: 20,
    };
    let client_idx = MODES.len();
    let mut validator_reports = Vec::new();
    for (me, mode) in MODES.into_iter().enumerate() {
        let peers: Vec<usize> = (0..MODES.len()).filter(|&p| p != me).collect();
        let mut broadcast = peers.clone();
        broadcast.push(client_idx);
        let report = Rc::new(RefCell::new(ValidatorReport::default()));
        let validator = Rc::new(RefCell::new(Validator::new(
            me,
            NodeStart::Genesis(Box::new(genesis.clone())),
            schedule.clone(),
            mode,
            consensus.clone(),
            broadcast,
            peers,
            Vec::new(),
            Rc::clone(&report),
        )));
        let idx = world.add(Timed::new(validator.clone(), Role::Validator, log.clone()));
        assert_eq!(idx, me);
        validator_reports.push(report);
    }
    let workload = WorkloadConfig {
        add_every_slots: 1,
        max_files: u64::MAX,
        file_size: CLIENT_FILE_SIZE,
        prove_every_slots: 0,
        get_prob: 0.5,
        discard_prob: 0.02,
        lazy_providers: Vec::new(),
    };
    let client_report = Rc::new(RefCell::new(ClientReport::default()));
    let client = Rc::new(RefCell::new(ClientDriver::new(
        genesis,
        schedule,
        owner,
        CLIENT,
        seed,
        consensus.sync_every,
        workload,
        Rc::clone(&client_report),
    )));
    assert_eq!(
        world.add(Timed::new(client.clone(), Role::Client, log.clone())),
        client_idx
    );
    // One validator down at a time, rotating, starting after warm-up.
    let mut slot = scale.warmup_slots + scale.crash_every / 2;
    let mut victim = 0;
    while slot < scale.slots() {
        let at = slot * SLOT + 1;
        world.schedule_crash(victim % MODES.len(), at, at + CRASH_TICKS);
        victim += 1;
        slot += scale.crash_every;
    }
    world.run_until(scale.warmup_slots * SLOT);
    if let Some(log) = &log {
        log.borrow_mut().calls.clear();
    }
    Cluster {
        world,
        validator_reports,
        client,
        client_report,
        store,
        log,
    }
}

/// Span id of `slot` in cluster `i` of a run.
fn span_id(i: u64, slot: u64) -> u64 {
    i * 1_000_000 + slot
}

/// Per-slot wall times of the timed phase, and its wall time.
fn timed_phase(c: &mut Cluster, scale: &Scale, i: u64, tracer: &mut Tracer) -> (Vec<f64>, f64) {
    let mut slot_ms = Vec::with_capacity(scale.timed_slots as usize);
    let start = Instant::now();
    for slot in scale.warmup_slots + 1..=scale.slots() {
        let id = span_id(i, slot);
        tracer.enter("slot", id);
        let t = Instant::now();
        c.world.run_until(slot * SLOT);
        let end = Instant::now();
        slot_ms.push((end - t).as_secs_f64() * 1e3);
        if let Some(log) = &c.log {
            for (activity, s, e) in log.borrow_mut().calls.drain(..) {
                tracer.record(activity.name(), id, s, e);
            }
        }
        tracer.exit_at(end);
    }
    (slot_ms, start.elapsed().as_secs_f64())
}

/// What one cluster of a run contributed.
#[derive(Default)]
struct Totals {
    slot_ms: Vec<f64>,
    wall_s: f64,
    /// Files the client added that ended stored (`Normal`: every replica
    /// confirmed and `Auto_CheckAlloc` passed), all clusters.
    client_files_stored: u64,
    setup_s: Vec<f64>,
    attempted: u64,
    committed: u64,
    committed_timed: u64,
    reorgs: u64,
    messages: u64,
    lost: u64,
    store: StoreCounters,
    bytes_retained: u64,
    admitted: u64,
    rejected_nonce: u64,
    rejected_duplicate: u64,
}

/// Drains cluster `c` after its timed phase, checks it, and adds its
/// client-op counts to `t`. Returns the final state root.
fn finish(c: &mut Cluster, scale: &Scale, i: u64, t: &mut Totals, out: &mut Outcome) -> Hash256 {
    c.world.run_until((scale.slots() + DRAIN_SLOTS) * SLOT);
    let client = c.client.borrow();
    let report = c.client_report.borrow();
    let tip = (
        report.final_height,
        report.final_head,
        report.final_state_root,
    );
    for (v, r) in c.validator_reports.iter().enumerate() {
        let r = r.borrow();
        out.check(
            format!(
                "cluster {i}: validator {v} agrees with the client on (height, head, state_root)"
            ),
            (r.final_height, r.final_head, r.final_state_root) == tip,
        );
        out.check(
            format!(
                "cluster {i}: validator {v} holds {} >= prefill live files",
                r.final_files
            ),
            r.final_files >= scale.prefill,
        );
        t.reorgs += r.reorgs;
        if let Some(m) = &r.final_mempool {
            t.admitted += m.admitted;
            t.rejected_nonce += m.rejected_nonce;
            t.rejected_duplicate += m.rejected_duplicate;
        }
    }
    out.check(
        format!("cluster {i}: height {} >= slots - 5", report.final_height),
        report.final_height + 5 >= scale.slots(),
    );
    let tracker = client.tracker();
    let engine = tracker.engine();
    let root = engine.state_root();
    // Prefill files hold ids `0..prefill`; every later one is the client's.
    t.client_files_stored += engine
        .file_ids()
        .into_iter()
        .filter(|&f| f.0 >= scale.prefill)
        .filter(|&f| engine.file(f).is_some_and(|d| d.state == FileState::Normal))
        .count() as u64;
    out.check(
        format!("cluster {i}: the client's replica root is its reported root"),
        Some(root) == report.final_state_root,
    );
    // Client ops on the final chain: the replica's op log holds every op
    // since the genesis checkpoint, block by block.
    let log = engine.op_log();
    let timed = scale.warmup_slots + 1..=scale.slots();
    let mut at = 0;
    for block in tracker.blocks_above(0, usize::MAX) {
        let Some(records) = log.get(at..at + block.ops.len()) else {
            break;
        };
        at += block.ops.len();
        let ok = records
            .iter()
            .filter(|r| r.ok && !matches!(r.op, Op::AdvanceTo { .. }))
            .count() as u64;
        t.committed += ok;
        if timed.contains(&block.slot) {
            t.committed_timed += ok;
        }
    }
    out.check(
        format!("cluster {i}: the op log covers the final chain exactly"),
        at == log.len(),
    );
    out.check(
        format!("cluster {i}: the client submitted transactions"),
        report.txs_submitted > 0,
    );
    t.attempted += report.txs_submitted;
    root
}

/// Runs `cluster_20k`: `clusters` independent clusters, one after the
/// other. Traced, it first runs cluster 0's timed phase untraced as well,
/// to report tracing overhead.
pub fn run(scale: &Scale, seed: u64, traced: bool) -> Outcome {
    let sub_seed = |i: u64| seed.wrapping_mul(scale.clusters).wrapping_add(i);
    let mut out = Outcome::default();
    let untraced_wall = traced.then(|| {
        let mut plain = setup(scale, sub_seed(0), false);
        timed_phase(&mut plain, scale, 0, &mut Tracer::new(false)).1
    });
    let mut tracer = Tracer::new(traced);
    let mut t = Totals::default();
    let mut clone_ms = 0.0;
    let mut first_wall = 0.0;
    for i in 0..scale.clusters.max(1) {
        let start = Instant::now();
        let mut c = setup(scale, sub_seed(i), traced);
        t.setup_s.push(start.elapsed().as_secs_f64());
        let live = c.client.borrow().replica().file_ids().len() as u64;
        out.check(
            format!("cluster {i}: {live} >= prefill live files after warm-up"),
            live >= scale.prefill,
        );
        if traced && i == 0 {
            let client = c.client.borrow();
            let start = Instant::now();
            let copy = client.replica().clone();
            clone_ms = start.elapsed().as_secs_f64() * 1e3;
            drop(copy);
        }
        tracer.set_store(c.store.clone());
        let (msgs0, lost0, store0) = (
            c.world.messages_sent(),
            c.world.messages_lost(),
            c.store.counters(),
        );
        let (slot_ms, wall_s) = timed_phase(&mut c, scale, i, &mut tracer);
        t.slot_ms.extend(slot_ms);
        t.wall_s += wall_s;
        if i == 0 {
            first_wall = wall_s;
        }
        t.messages += c.world.messages_sent() - msgs0;
        t.lost += c.world.messages_lost() - lost0;
        let store = c.store.counters().since(store0);
        t.store.add(store);
        t.bytes_retained += c.store.bytes_retained();
        out.final_root = Some(finish(&mut c, scale, i, &mut t, &mut out));
    }

    out.attempted = t.attempted.max(1);
    out.failed = t.attempted.saturating_sub(t.committed);
    out.e2e.setup_s = median(&t.setup_s);
    out.e2e.ops_per_s = t.committed_timed as f64 / t.wall_s;
    out.e2e.block_ms_p50 = percentile(&t.slot_ms, 50.0);
    out.e2e.block_ms_p90 = percentile(&t.slot_ms, 90.0);
    out.e2e.commit_ratio = t.committed as f64 / t.attempted.max(1) as f64;
    out.check(
        format!("{} client-added files stored", t.client_files_stored),
        t.client_files_stored > 0,
    );
    out.exact = vec![
        ("txs_submitted", t.attempted),
        ("committed", t.committed),
        ("messages", t.messages),
        ("lost", t.lost),
        ("reorgs", t.reorgs),
        ("client_files_stored", t.client_files_stored),
        ("store.puts", t.store.puts),
    ];
    if traced {
        let wall_ms = t.wall_s * 1e3;
        let self_ns = tracer.self_ns();
        let net_ms: f64 = tracer
            .spans()
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == "slot")
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum();
        let self_sum = tracer.self_sum_ms("slot");
        let ms = |a: Activity| tracer.total_ms(a.name());
        out.layers = vec![
            ("store.puts", t.store.puts as f64),
            ("store.put_bytes", t.store.put_bytes as f64),
            ("store.gets", t.store.gets as f64),
            ("store.put_ms", t.store.put_ns as f64 / 1e6),
            ("store.get_ms", t.store.get_ns as f64 / 1e6),
            ("store.bytes_retained", t.bytes_retained as f64),
            ("chain.import_ms", ms(Activity::Import)),
            ("chain.seal_ms", ms(Activity::Seal)),
            ("chain.reorgs", t.reorgs as f64),
            ("engine.clone_ms", clone_ms),
            ("mempool.admit_ms", ms(Activity::Admit)),
            ("mempool.admitted", t.admitted as f64),
            ("mempool.rejected_nonce", t.rejected_nonce as f64),
            ("mempool.rejected_duplicate", t.rejected_duplicate as f64),
            ("client.ms", ms(Activity::Client)),
            ("node.other_ms", ms(Activity::NodeOther)),
            ("net.ms", net_ms),
            ("net.messages", t.messages as f64),
            ("net.lost", t.lost as f64),
            ("trace.wall_ms", wall_ms),
            ("trace.self_sum_ms", self_sum),
            ("trace.coverage", self_sum / wall_ms),
            (
                "trace.overhead_ms",
                (first_wall - untraced_wall.unwrap_or(first_wall)) * 1e3,
            ),
        ];
        crate::write_trace("cluster_20k", seed, &tracer);
    }
    out
}
