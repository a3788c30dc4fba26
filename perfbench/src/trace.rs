//! Tracing from outside the program: spans the benchmark records around
//! its own calls into each layer, a counting [`Blockstore`] injected
//! through `Engine::new_with_store`, and a [`Timed`] wrapper around every
//! fi-node process that times its callbacks.
//!
//! Spans stay in memory and are written out once, at the end of a traced
//! run. With tracing off, a [`Tracer`] records nothing and the store and
//! the process wrappers read no clock.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fi_crypto::Hash256;
use fi_net::world::{Ctx, NodeIdx, Process};
use fi_node::node::{RETX_TAG_BASE, TAG_SLOT_BASE};
use fi_node::NodeMsg;
use fi_store::{Blockstore, MemoryBlockstore, StoreError};

/// Blockstore counters at one instant (see [`CountingStore::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `put` calls.
    pub puts: u64,
    /// Bytes passed to `put`.
    pub put_bytes: u64,
    /// `get` and `has` calls.
    pub gets: u64,
    /// Nanoseconds inside `put` (traced runs only).
    pub put_ns: u64,
    /// Nanoseconds inside `get` and `has` (traced runs only).
    pub get_ns: u64,
}

impl StoreCounters {
    /// The traffic between `earlier` and `self`.
    pub fn since(self, earlier: StoreCounters) -> StoreCounters {
        StoreCounters {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            gets: self.gets - earlier.gets,
            put_ns: self.put_ns - earlier.put_ns,
            get_ns: self.get_ns - earlier.get_ns,
        }
    }

    /// Adds `other`'s traffic to `self`.
    pub fn add(&mut self, other: StoreCounters) {
        self.puts += other.puts;
        self.put_bytes += other.put_bytes;
        self.gets += other.gets;
        self.put_ns += other.put_ns;
        self.get_ns += other.get_ns;
    }
}

/// An in-memory blockstore that counts, and when `timed` also times, every
/// call. The counters are statistics only, so `Relaxed` ordering suffices.
#[derive(Debug)]
pub struct CountingStore {
    inner: MemoryBlockstore,
    timed: bool,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    gets: AtomicU64,
    put_ns: AtomicU64,
    get_ns: AtomicU64,
}

impl CountingStore {
    /// A fresh store; `timed` adds two clock reads per call.
    pub fn new(timed: bool) -> Arc<Self> {
        Arc::new(CountingStore {
            inner: MemoryBlockstore::new(),
            timed,
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
        })
    }

    /// The counters so far.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            put_ns: self.put_ns.load(Ordering::Relaxed),
            get_ns: self.get_ns.load(Ordering::Relaxed),
        }
    }

    /// Bytes of distinct blocks held (the store never frees a block).
    pub fn bytes_retained(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn timed_call<R>(&self, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Blockstore for CountingStore {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.timed_call(&self.get_ns, || self.inner.get(hash))
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed_call(&self.put_ns, || self.inner.put(bytes))
    }

    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.timed_call(&self.get_ns, || self.inner.has(hash))
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`block`, `batch`, `advance`, …).
    pub name: &'static str,
    /// The block height or slot the span belongs to; spans of one block
    /// share it.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Blockstore traffic inside the span, children included.
    pub store: StoreCounters,
    /// True when the program reported the duration (an accumulator
    /// delta) and the benchmark placed it inside its parent; its start is
    /// therefore nominal.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; a no-op when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Per open span: its index, the store counters at its start, and
    /// the end of the last derived child placed under it.
    open: Vec<(usize, StoreCounters, u64)>,
    store: Option<Arc<CountingStore>>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            store: None,
        }
    }

    /// Attributes blockstore traffic of later spans to `store`.
    pub fn set_store(&mut self, store: Arc<CountingStore>) {
        self.store = Some(store);
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn counters(&self) -> StoreCounters {
        self.store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().map(|o| o.0);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            store: StoreCounters::default(),
            derived: false,
        });
        let counters = self.counters();
        self.open.push((self.spans.len() - 1, counters, start_ns));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        self.exit_at(Instant::now());
    }

    /// Closes the innermost open span at `end`, an instant the caller
    /// took before recording the span's children.
    pub fn exit_at(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        let (idx, before, _) = self.open.pop().expect("exit matches an enter");
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let store = self.counters().since(before);
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.store = store;
    }

    /// Records a child of the innermost open span whose duration the
    /// program measured itself (an accumulator delta). Consecutive derived
    /// children are laid end to end from the parent's start.
    pub fn derived(&mut self, name: &'static str, id: u64, secs: f64) {
        if !self.on {
            return;
        }
        let (parent, _, cursor) = self.open.last_mut().expect("derived span needs a parent");
        let parent = *parent;
        let start_ns = *cursor;
        let end_ns = start_ns + (secs * 1e9) as u64;
        *cursor = end_ns;
        self.spans.push(Span {
            name,
            id,
            parent: Some(parent),
            start_ns,
            end_ns,
            store: StoreCounters::default(),
            derived: true,
        });
    }

    /// Records a finished interval measured by the caller, as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().map(|o| o.0),
            start_ns: at(start),
            end_ns: at(end),
            store: StoreCounters::default(),
            derived: false,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Sum of every span's self time whose root ancestor is named `root`,
    /// in milliseconds: the part of the root spans' wall time the layers
    /// account for.
    pub fn self_sum_ms(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let mut root_of = vec![usize::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
        }
        own.iter()
            .enumerate()
            .filter(|&(i, _)| self.spans[root_of[i]].name == root)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line, after a first line
    /// holding `header` (a JSON object).
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "{header}")?;
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"derived\":{},\"puts\":{},\"put_bytes\":{},\"gets\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, own[i], s.derived, s.store.puts, s.store.put_bytes, s.store.gets
            )?;
        }
        out.flush()
    }
}

/// What a fi-node callback did, for attributing its time to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Validator: a `Block` message (fork-choice insert and replay).
    Import,
    /// Validator: a slot timer (mempool selection and sealing).
    Seal,
    /// Validator: `SubmitTx` / `ForwardTx` (mempool admission).
    Admit,
    /// Validator: anything else (status, block requests, retransmits).
    NodeOther,
    /// The workload driver, any callback (generator cost).
    Client,
}

impl Activity {
    /// Span name of the activity.
    pub fn name(self) -> &'static str {
        match self {
            Activity::Import => "chain.import",
            Activity::Seal => "chain.seal",
            Activity::Admit => "mempool.admit",
            Activity::NodeOther => "node.other",
            Activity::Client => "client",
        }
    }
}

/// Whether a wrapped process is a validator or the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A `fi_node::Validator`.
    Validator,
    /// The `fi_node::ClientDriver`.
    Client,
}

/// Callback intervals collected by every [`Timed`] wrapper of one world.
#[derive(Debug, Default)]
pub struct CallbackLog {
    /// `(activity, start, end)` per callback since the last drain.
    pub calls: Vec<(Activity, Instant, Instant)>,
}

/// A benchmark-side process wrapping a fi-node process: it forwards every
/// callback and, when given a log, times it. The wrapped process stays
/// reachable through the shared handle after the world takes the wrapper.
pub struct Timed<P> {
    inner: Rc<RefCell<P>>,
    role: Role,
    log: Option<Rc<RefCell<CallbackLog>>>,
}

impl<P> Timed<P> {
    /// Wraps `inner`; `log` is `None` when tracing is off.
    pub fn new(inner: Rc<RefCell<P>>, role: Role, log: Option<Rc<RefCell<CallbackLog>>>) -> Self {
        Timed { inner, role, log }
    }

    fn run(&mut self, activity: Activity, f: impl FnOnce(&mut P)) {
        let mut inner = self.inner.borrow_mut();
        match &self.log {
            None => f(&mut inner),
            Some(log) => {
                let start = Instant::now();
                f(&mut inner);
                let end = Instant::now();
                log.borrow_mut().calls.push((activity, start, end));
            }
        }
    }

    fn other(&self) -> Activity {
        match self.role {
            Role::Validator => Activity::NodeOther,
            Role::Client => Activity::Client,
        }
    }
}

impl<P: Process<NodeMsg>> Process<NodeMsg> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let activity = self.other();
        self.run(activity, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NodeMsg>, from: NodeIdx, msg: NodeMsg) {
        let activity = match (self.role, &msg) {
            (Role::Client, _) => Activity::Client,
            (Role::Validator, NodeMsg::Block { .. }) => Activity::Import,
            (Role::Validator, NodeMsg::SubmitTx { .. } | NodeMsg::ForwardTx { .. }) => {
                Activity::Admit
            }
            (Role::Validator, _) => Activity::NodeOther,
        };
        self.run(activity, |p| p.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NodeMsg>, tag: u64) {
        let activity = match self.role {
            Role::Validator if (TAG_SLOT_BASE..RETX_TAG_BASE).contains(&tag) => Activity::Seal,
            _ => self.other(),
        };
        self.run(activity, |p| p.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let activity = self.other();
        self.run(activity, |p| p.on_restart(ctx));
    }
}
