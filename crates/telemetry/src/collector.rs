//! The central telemetry collector (§5.1, Fig. 7) — a sharded,
//! event-driven reactor.
//!
//! A TCP listener accepts connections from many agents and registers
//! each with one of a small, fixed number of reactor shards
//! (round-robin). Each shard thread owns its connections outright — the
//! per-connection [`StreamDecoder`] state machine and a shard-local
//! record store — and multiplexes them with nonblocking reads in a
//! readiness loop, so thousands of agent connections are served by a
//! handful of threads and no global mutex sits on the decode hot path
//! (the shard store's lock is only ever contended by the periodic
//! drain).
//!
//! The shard bins records by their message's `export_time_ms` as it
//! decodes, so every bucket is a run of records sharing one export
//! stamp: [`Collector::drain_buckets`] is one block copy per bucket, and
//! the stream layer places each run in its epoch window with one
//! judgement of that stamp. A shard keeps its bucket buffer: the drain
//! copies the records out into one exactly-sized vector per stamp and
//! hands the emptied buffer back, so in steady state a reactor thread
//! allocates nothing per epoch and nothing it allocated is freed by
//! another thread.
//!
//! The pending-record store is bounded: past
//! [`CollectorConfig::high_water`] records, newly decoded messages are
//! shed (counted in `dropped_records`) instead of growing without bound
//! when the consumer stalls. Throughput counters allow the Fig. 7
//! scalability experiment (connections/sec × records/conn) to be
//! reproduced against the real socket path.

use crate::flow::MonitoredFlow;
use crate::wire::{DecodeStep, ExportMessage, StreamDecoder, WireError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fault-injection hook run by each reactor shard once per readiness
/// pass (argument: shard index). Chaos harnesses install one to stall a
/// shard (sleep inside the hook) and prove the pipeline tolerates a
/// wedged reactor; production configs leave it `None`.
#[derive(Clone)]
pub struct ReactorHook(Arc<dyn Fn(usize) + Send + Sync>);

impl ReactorHook {
    /// Wrap a closure as a reactor-pass hook.
    pub fn new(f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        ReactorHook(Arc::new(f))
    }

    /// Invoke the hook for shard `idx`.
    pub fn call(&self, idx: usize) {
        (self.0)(idx)
    }
}

impl fmt::Debug for ReactorHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReactorHook(..)")
    }
}

/// Reactor sizing and back-pressure knobs.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Number of reactor shard threads multiplexing connections.
    pub shards: usize,
    /// High-water mark on buffered records: messages decoded while the
    /// store holds at least this many pending records are shed and
    /// counted in [`CollectorStats::dropped_records`].
    pub high_water: usize,
    /// Per-connection garbage budget: cumulative bytes discarded while
    /// resyncing before the connection is deliberately killed (counted in
    /// [`CollectorStats::decode_errors`]).
    pub max_resync_bytes: usize,
    /// Chaos hook run once per shard readiness pass; `None` in production.
    pub stall_hook: Option<ReactorHook>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        // More reactor threads than cores just adds scheduling pressure
        // (and on one core can starve the accept loop outright).
        let shards = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(4);
        CollectorConfig {
            shards,
            high_water: 1 << 22,
            max_resync_bytes: 64 * 1024,
            stall_hook: None,
        }
    }
}

/// Monotonic counters and gauges describing collector activity.
#[derive(Debug, Default)]
pub struct CollectorStats {
    /// Connections accepted (monotonic).
    pub connections: AtomicU64,
    /// Connections currently registered with a reactor shard (gauge).
    pub active_connections: AtomicU64,
    /// Connections closed — agent hangup, IO error, or decode error
    /// (monotonic).
    pub closed_connections: AtomicU64,
    /// Messages decoded.
    pub messages: AtomicU64,
    /// Flow records received (before high-water shedding).
    pub records: AtomicU64,
    /// Bytes read off sockets.
    pub bytes: AtomicU64,
    /// Connections deliberately killed after exhausting their
    /// quarantine/resync budget (the reactor's kill policy, not an
    /// implicit framing side effect).
    pub decode_errors: AtomicU64,
    /// Records shed because the store was at its high-water mark.
    pub dropped_records: AtomicU64,
    /// Decode faults classified as bad magic (resync causes).
    pub decode_bad_magic: AtomicU64,
    /// Decode faults classified as unsupported version.
    pub decode_bad_version: AtomicU64,
    /// Decode faults classified as header/content length mismatch.
    pub decode_length_mismatch: AtomicU64,
    /// Decode faults classified as truncated frames.
    pub decode_truncated: AtomicU64,
    /// Decode faults classified as oversized path attachments.
    pub decode_path_too_long: AtomicU64,
    /// Whole frames dropped with stream alignment intact.
    pub frames_quarantined: AtomicU64,
    /// Byte-wise resync events (garbage skipped to a frame boundary).
    pub resyncs: AtomicU64,
    /// Total bytes discarded across all resync events.
    pub resync_bytes: AtomicU64,
}

/// A point-in-time copy of [`CollectorStats`] as plain integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (monotonic).
    pub connections: u64,
    /// Connections currently registered (gauge).
    pub active_connections: u64,
    /// Connections closed (monotonic).
    pub closed_connections: u64,
    /// Messages decoded.
    pub messages: u64,
    /// Flow records received.
    pub records: u64,
    /// Bytes read off sockets.
    pub bytes: u64,
    /// Connections deliberately killed by the quarantine/resync budget.
    pub decode_errors: u64,
    /// Records shed at the high-water mark.
    pub dropped_records: u64,
    /// Decode faults: bad magic.
    pub decode_bad_magic: u64,
    /// Decode faults: unsupported version.
    pub decode_bad_version: u64,
    /// Decode faults: length mismatch.
    pub decode_length_mismatch: u64,
    /// Decode faults: truncated frame.
    pub decode_truncated: u64,
    /// Decode faults: oversized path attachment.
    pub decode_path_too_long: u64,
    /// Whole frames dropped with stream alignment intact.
    pub frames_quarantined: u64,
    /// Byte-wise resync events.
    pub resyncs: u64,
    /// Total bytes discarded while resyncing.
    pub resync_bytes: u64,
}

impl CollectorStats {
    /// Snapshot every counter and gauge.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            closed_connections: self.closed_connections.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            dropped_records: self.dropped_records.load(Ordering::Relaxed),
            decode_bad_magic: self.decode_bad_magic.load(Ordering::Relaxed),
            decode_bad_version: self.decode_bad_version.load(Ordering::Relaxed),
            decode_length_mismatch: self.decode_length_mismatch.load(Ordering::Relaxed),
            decode_truncated: self.decode_truncated.load(Ordering::Relaxed),
            decode_path_too_long: self.decode_path_too_long.load(Ordering::Relaxed),
            frames_quarantined: self.frames_quarantined.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            resync_bytes: self.resync_bytes.load(Ordering::Relaxed),
        }
    }

    /// Bump the per-cause decode-fault counter for `err`.
    fn count_cause(&self, err: &WireError) {
        let counter = match err {
            WireError::BadMagic(_) => &self.decode_bad_magic,
            WireError::BadVersion(_) => &self.decode_bad_version,
            WireError::LengthMismatch { .. } => &self.decode_length_mismatch,
            WireError::Truncated => &self.decode_truncated,
            WireError::PathTooLong(_) => &self.decode_path_too_long,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Liveness record for one exporting agent, keyed by `agent_id`.
#[derive(Debug, Clone)]
pub struct AgentSeen {
    /// The agent's wire identifier.
    pub agent_id: u32,
    /// `export_time_ms` of the most recent message.
    pub last_export_ms: u64,
    /// Wall-clock instant the most recent message decoded.
    pub last_seen: Instant,
    /// Messages decoded from this agent (monotonic).
    pub messages: u64,
}

/// Records drained from the collector, bucketed by export stamp.
#[derive(Debug, Default)]
pub struct DrainBatch {
    /// `(export_ms, records)` runs in ascending stamp order. The key is
    /// the `export_time_ms` of every message the run's records arrived
    /// in: a record's stamp is its run's key, by construction, so the
    /// records carry no stamp of their own.
    pub buckets: Vec<(u64, Vec<MonitoredFlow>)>,
}

impl DrainBatch {
    /// Total records in the batch.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|(_, b)| b.len()).sum()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|(_, b)| b.is_empty())
    }
}

/// One reactor shard's record store. Shared only between the shard
/// thread (producer) and the periodic drain (consumer).
#[derive(Debug, Default)]
struct ShardStore {
    /// Records by their message's `export_time_ms`.
    buckets: BTreeMap<u64, Vec<MonitoredFlow>>,
    /// An emptied bucket buffer handed back by the last drain; the next
    /// new bucket starts in it instead of growing one by doubling.
    spare: Vec<MonitoredFlow>,
}

/// A running collector. Dropping it (or calling [`Collector::shutdown`])
/// stops the accept loop and joins the reactor threads.
pub struct Collector {
    addr: SocketAddr,
    stores: Vec<Arc<Mutex<ShardStore>>>,
    pending: Arc<AtomicUsize>,
    stats: Arc<CollectorStats>,
    liveness: Arc<Mutex<HashMap<u32, AgentSeen>>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl Collector {
    /// Bind a collector to `addr` (use port 0 for an ephemeral port) with
    /// the default reactor configuration.
    pub fn bind(addr: SocketAddr) -> std::io::Result<Collector> {
        Self::bind_with(addr, CollectorConfig::default())
    }

    /// Bind a collector with explicit reactor sizing.
    pub fn bind_with(addr: SocketAddr, config: CollectorConfig) -> std::io::Result<Collector> {
        assert!(config.shards >= 1, "reactor needs at least one shard");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(CollectorStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let pending = Arc::new(AtomicUsize::new(0));
        let liveness: Arc<Mutex<HashMap<u32, AgentSeen>>> = Arc::new(Mutex::new(HashMap::new()));

        let mut stores = Vec::with_capacity(config.shards);
        let mut shard_threads = Vec::with_capacity(config.shards);
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let (tx, rx) = mpsc::channel();
            let store: Arc<Mutex<ShardStore>> = Arc::new(Mutex::new(ShardStore::default()));
            let thread = {
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let pending = Arc::clone(&pending);
                let liveness = Arc::clone(&liveness);
                let cfg = config.clone();
                std::thread::Builder::new()
                    .name(format!("flock-reactor-{i}"))
                    .spawn(move || shard_loop(i, rx, store, stats, stop, pending, liveness, cfg))
                    .expect("spawn collector reactor shard")
            };
            stores.push(store);
            shard_threads.push(thread);
            senders.push(tx);
        }

        let accept_thread = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("flock-collector-accept".into())
                .spawn(move || accept_loop(listener, senders, stats, stop))
                .expect("spawn collector accept thread")
        };

        Ok(Collector {
            addr: local,
            stores,
            pending,
            stats,
            liveness,
            stop,
            accept_thread: Some(accept_thread),
            shard_threads,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of reactor shard threads serving connections.
    pub fn reactor_shards(&self) -> usize {
        self.stores.len()
    }

    /// Drain all records received so far, discarding export stamps.
    pub fn drain(&self) -> Vec<MonitoredFlow> {
        self.drain_buckets()
            .buckets
            .into_iter()
            .flat_map(|(_, bucket)| bucket)
            .collect()
    }

    /// Drain all records received so far in runs that share one export
    /// stamp — the input of the epoch-windowing stream layer.
    pub fn drain_buckets(&self) -> DrainBatch {
        // Take every shard's records, holding each lock only for the
        // swap. The pending counter is adjusted while the shard lock is
        // held (on both the producer and consumer side): releasing the
        // freed capacity only after all stores were taken would leave
        // shards seeing a phantom-full store and shedding messages right
        // after a drain.
        let taken: Vec<_> = self
            .stores
            .iter()
            .map(|store| {
                let mut guard = store.lock();
                let buckets = std::mem::take(&mut guard.buckets);
                let count = buckets.values().map(Vec::len).sum::<usize>();
                self.pending.fetch_sub(count, Ordering::Relaxed);
                buckets
            })
            .collect();
        // One exactly-sized vector per stamp, allocated (and later
        // freed) by the draining thread; the shards' own buffers are
        // emptied into it and go back to their shard.
        let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for buckets in &taken {
            for (stamp, bucket) in buckets {
                *sizes.entry(*stamp).or_default() += bucket.len();
            }
        }
        let mut merged: BTreeMap<u64, Vec<MonitoredFlow>> = sizes
            .into_iter()
            .map(|(stamp, n)| (stamp, Vec::with_capacity(n)))
            .collect();
        for (store, buckets) in self.stores.iter().zip(taken) {
            let mut spare = Vec::new();
            for (stamp, mut bucket) in buckets {
                merged
                    .get_mut(&stamp)
                    .expect("every taken bucket was sized above")
                    .append(&mut bucket);
                if bucket.capacity() > spare.capacity() {
                    spare = bucket;
                }
            }
            let mut guard = store.lock();
            if spare.capacity() > guard.spare.capacity() {
                guard.spare = spare;
            }
        }
        DrainBatch {
            buckets: merged.into_iter().collect(),
        }
    }

    /// Number of records currently buffered across all shards.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Activity counters.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Per-agent liveness snapshot, sorted by agent id. An agent appears
    /// once its first message decodes and stays for the collector's
    /// lifetime; `last_seen` tells a live agent from a silent one.
    pub fn liveness(&self) -> Vec<AgentSeen> {
        let mut out: Vec<AgentSeen> = self.liveness.lock().values().cloned().collect();
        out.sort_by_key(|a| a.agent_id);
        out
    }

    /// Stop the collector and join its threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.shard_threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    stats: Arc<CollectorStats>,
    stop: Arc<AtomicBool>,
) {
    let mut next = 0usize;
    while !stop.load(Ordering::SeqCst) {
        // Drain every pending connection before sleeping: under a
        // connection storm (Fig. 7's 8K connections/sec) a
        // one-accept-per-poll loop becomes the bottleneck.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    stats.active_connections.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err()
                        || senders[next % senders.len()].send(stream).is_err()
                    {
                        // fcntl failure or shard gone (shutdown): the
                        // connection dies here — account for it so the
                        // gauges stay truthful.
                        stats.active_connections.fetch_sub(1, Ordering::Relaxed);
                        stats.closed_connections.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    next += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return,
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One registered connection: its socket, framing state, and its
/// consumption so far of the shard's quarantine/resync kill budget.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    resync_bytes: usize,
    quarantined_frames: u64,
}

enum Pump {
    /// Connection stays registered; `true` if any bytes were read.
    Open(bool),
    /// Connection is done (hangup, IO error, or kill-budget exhaustion).
    Closed,
}

#[allow(clippy::too_many_arguments)]
fn shard_loop(
    shard_idx: usize,
    rx: Receiver<TcpStream>,
    store: Arc<Mutex<ShardStore>>,
    stats: Arc<CollectorStats>,
    stop: Arc<AtomicBool>,
    pending: Arc<AtomicUsize>,
    liveness: Arc<Mutex<HashMap<u32, AgentSeen>>>,
    cfg: CollectorConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::SeqCst) {
        if let Some(hook) = &cfg.stall_hook {
            hook.call(shard_idx);
        }
        // Register connections handed over by the accept loop.
        loop {
            match rx.try_recv() {
                Ok(stream) => conns.push(Conn {
                    stream,
                    decoder: StreamDecoder::new(),
                    resync_bytes: 0,
                    quarantined_frames: 0,
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }

        // One readiness pass over every registered connection.
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            match pump(
                &mut conns[i],
                &mut buf,
                &store,
                &stats,
                &pending,
                &liveness,
                &cfg,
            ) {
                Pump::Open(read_any) => {
                    progress |= read_any;
                    i += 1;
                }
                Pump::Closed => {
                    stats.active_connections.fetch_sub(1, Ordering::Relaxed);
                    stats.closed_connections.fetch_add(1, Ordering::Relaxed);
                    conns.swap_remove(i);
                }
            }
        }
        if !progress {
            /// How long an idle shard sleeps between readiness passes.
            const IDLE_SLEEP: Duration = Duration::from_micros(200);
            std::thread::sleep(IDLE_SLEEP);
        } else {
            // A busy shard must not monopolize a core: on small machines
            // an un-yielding readiness loop starves the accept thread,
            // the listener backlog fills, and connecting agents eat SYN
            // retransmit timeouts.
            std::thread::yield_now();
        }
    }
    // Stop requested: the sockets still registered here are dropped as
    // the thread exits — move them through the gauges so a post-shutdown
    // snapshot doesn't report phantom live connections.
    stats
        .active_connections
        .fetch_sub(conns.len() as u64, Ordering::Relaxed);
    stats
        .closed_connections
        .fetch_add(conns.len() as u64, Ordering::Relaxed);
}

/// Read whatever one connection has ready (bounded per pass so a chatty
/// agent cannot starve its shard-mates), decode complete frames, and bin
/// the records into the shard store.
///
/// Decode faults no longer tear the connection down implicitly: framed
/// garbage is quarantined per message and unframed garbage is skipped via
/// resync, each under a per-connection budget. Only exhausting a budget
/// kills the connection — a deliberate policy decision, visible in
/// `decode_errors`.
fn pump(
    conn: &mut Conn,
    buf: &mut [u8],
    store: &Mutex<ShardStore>,
    stats: &CollectorStats,
    pending: &AtomicUsize,
    liveness: &Mutex<HashMap<u32, AgentSeen>>,
    cfg: &CollectorConfig,
) -> Pump {
    let mut read_any = false;
    for _ in 0..4 {
        match conn.stream.read(buf) {
            Ok(0) => return Pump::Closed, // agent closed
            Ok(n) => {
                read_any = true;
                stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
                conn.decoder.feed(&buf[..n]);
                loop {
                    match conn.decoder.next_step() {
                        DecodeStep::Message(msg) => {
                            store_message(msg, store, stats, pending, liveness, cfg)
                        }
                        DecodeStep::NeedMore => break,
                        DecodeStep::Quarantined(err) => {
                            /// Per-connection quarantine budget:
                            /// undecodable-but-framed messages tolerated
                            /// before the connection is deliberately killed.
                            const MAX_QUARANTINED_FRAMES: u64 = 32;
                            stats.count_cause(&err);
                            stats.frames_quarantined.fetch_add(1, Ordering::Relaxed);
                            conn.quarantined_frames += 1;
                            if conn.quarantined_frames > MAX_QUARANTINED_FRAMES {
                                stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                return Pump::Closed;
                            }
                        }
                        DecodeStep::Resynced { dropped, cause } => {
                            stats.count_cause(&cause);
                            stats.resyncs.fetch_add(1, Ordering::Relaxed);
                            stats
                                .resync_bytes
                                .fetch_add(dropped as u64, Ordering::Relaxed);
                            conn.resync_bytes += dropped;
                            if conn.resync_bytes > cfg.max_resync_bytes {
                                stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                return Pump::Closed;
                            }
                        }
                    }
                }
                if n < buf.len() {
                    return Pump::Open(true); // socket likely drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Pump::Closed,
        }
    }
    Pump::Open(read_any)
}

fn store_message(
    msg: ExportMessage,
    store: &Mutex<ShardStore>,
    stats: &CollectorStats,
    pending: &AtomicUsize,
    liveness: &Mutex<HashMap<u32, AgentSeen>>,
    cfg: &CollectorConfig,
) {
    stats.messages.fetch_add(1, Ordering::Relaxed);
    {
        let mut map = liveness.lock();
        let entry = map.entry(msg.agent_id).or_insert(AgentSeen {
            agent_id: msg.agent_id,
            last_export_ms: 0,
            last_seen: Instant::now(),
            messages: 0,
        });
        entry.last_export_ms = entry.last_export_ms.max(msg.export_time_ms);
        entry.last_seen = Instant::now();
        entry.messages += 1;
    }
    let n = msg.records.len();
    if n == 0 {
        return;
    }
    stats.records.fetch_add(n as u64, Ordering::Relaxed);
    let mut s = store.lock();
    // Back-pressure: shed whole messages once the store is at its
    // high-water mark instead of growing without bound while the
    // consumer stalls. Checked under the shard lock so the count is
    // exact per shard (cross-shard overshoot is bounded by one message
    // per shard). The counter is incremented only after the insert,
    // still under the lock: consumers polling `pending()` use it as an
    // all-records-visible barrier before draining.
    if pending.load(Ordering::Relaxed) + n > cfg.high_water {
        stats.dropped_records.fetch_add(n as u64, Ordering::Relaxed);
        return;
    }
    let ShardStore { buckets, spare } = &mut *s;
    buckets
        .entry(msg.export_time_ms)
        .or_insert_with(|| std::mem::take(spare))
        .extend(msg.records);
    pending.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
    use crate::flow::{FlowKey, TrafficClass};
    use crate::wire::encode_message;
    use flock_topology::NodeId;
    use std::io::Write;

    fn wait_for<F: Fn() -> bool>(cond: F, ms: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(ms);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    fn ephemeral() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn passive_sample(src: u32, port: u16) -> FlowSample {
        FlowSample {
            key: FlowKey::tcp(NodeId(src), NodeId(9999), port, 80),
            packets: 10,
            retransmissions: 0,
            bytes: 1_000,
            rtt_us: None,
            path: None,
            class: TrafficClass::Passive,
        }
    }

    #[test]
    fn agent_to_collector_roundtrip() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 7,
            ..Default::default()
        });
        for i in 0..10u32 {
            agent.observe(FlowSample {
                key: FlowKey::tcp(NodeId(i), NodeId(100), 4000 + i as u16, 80),
                packets: 100,
                retransmissions: u64::from(i % 3),
                bytes: 10_000,
                rtt_us: Some(250),
                path: None,
                class: TrafficClass::Passive,
            });
        }
        let records = agent.export();
        let msgs = agent.encode_export(1234, &records);
        let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
        for m in &msgs {
            exporter.send(m).unwrap();
        }
        exporter.finish().unwrap();

        assert!(wait_for(|| collector.pending() == 10, 2000));
        let got = collector.drain();
        assert_eq!(got.len(), 10);
        assert_eq!(collector.pending(), 0);
        let snap = collector.stats().snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.records, 10);
        assert!(snap.bytes > 0);
        assert_eq!(snap.decode_errors, 0);
        assert_eq!(snap.dropped_records, 0);
    }

    #[test]
    fn drain_buckets_preserves_export_metadata() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 42,
            ..Default::default()
        });
        agent.observe(FlowSample {
            key: FlowKey::tcp(NodeId(1), NodeId(2), 4000, 80),
            packets: 5,
            retransmissions: 0,
            bytes: 500,
            rtt_us: None,
            path: None,
            class: TrafficClass::Passive,
        });
        let records = agent.export();
        let msgs = agent.encode_export(90_500, &records);
        let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
        for m in &msgs {
            exporter.send(m).unwrap();
        }
        exporter.finish().unwrap();
        assert!(wait_for(|| collector.pending() == 1, 2000));
        let batch = collector.drain_buckets();
        assert_eq!(batch.len(), 1);
        // The export stamp survives as the bucket key; the record is the
        // one the agent exported, field for field.
        assert_eq!(batch.buckets[0].0, 90_500);
        assert_eq!(batch.buckets[0].1, records);
        assert_eq!(collector.liveness()[0].agent_id, 42);
    }

    #[test]
    fn multiple_agents_concurrently() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let addr = collector.local_addr();
        let n_agents = 8;
        let per_agent = 50u32;
        let handles: Vec<_> = (0..n_agents)
            .map(|a| {
                std::thread::spawn(move || {
                    let mut agent = AgentCore::new(AgentConfig {
                        agent_id: a,
                        ..Default::default()
                    });
                    for i in 0..per_agent {
                        agent.observe(FlowSample {
                            key: FlowKey::tcp(
                                NodeId(a * 1000 + i),
                                NodeId(9999),
                                (i % 60000) as u16,
                                80,
                            ),
                            packets: 1,
                            retransmissions: 0,
                            bytes: 64,
                            rtt_us: None,
                            path: None,
                            class: TrafficClass::Passive,
                        });
                    }
                    let recs = agent.export();
                    let msgs = agent.encode_export(0, &recs);
                    let mut exp = Exporter::connect(addr).unwrap();
                    for m in &msgs {
                        exp.send(m).unwrap();
                    }
                    exp.finish().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = (n_agents * per_agent) as usize;
        assert!(wait_for(|| collector.pending() == expected, 3000));
        assert_eq!(collector.stats().snapshot().connections, n_agents as u64);
    }

    #[test]
    fn malformed_stream_resyncs_and_classifies_instead_of_killing() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut s = TcpStream::connect(collector.local_addr()).unwrap();
        // Garbage, then a valid message on the SAME connection: the
        // reactor must resync and recover it rather than tear down.
        s.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        s.write_all(&[0u8; 60]).unwrap();
        s.write_all(&encode_message(1, 0, 0, &[])).unwrap();
        assert!(wait_for(
            || collector.stats().messages.load(Ordering::Relaxed) == 1,
            2000
        ));
        drop(s);
        assert!(wait_for(
            || collector.stats().snapshot().closed_connections == 1,
            2000
        ));
        let snap = collector.stats().snapshot();
        assert!(snap.resyncs >= 1, "garbage skipped via resync");
        assert!(snap.decode_bad_magic >= 1, "cause classified");
        assert_eq!(snap.resync_bytes, 64, "all garbage bytes accounted");
        assert_eq!(
            snap.decode_errors, 0,
            "within budget: no deliberate kill, connection survived to EOF"
        );
    }

    #[test]
    fn resync_budget_exhaustion_kills_deliberately() {
        let collector = Collector::bind_with(
            ephemeral(),
            CollectorConfig {
                shards: 1,
                max_resync_bytes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(collector.local_addr()).unwrap();
        // Far more garbage than the budget; the socket stays open so only
        // the kill policy (not EOF) can close the connection.
        s.write_all(&[0x5a; 4096]).unwrap();
        assert!(wait_for(
            || collector.stats().snapshot().decode_errors == 1,
            2000
        ));
        assert!(wait_for(
            || collector.stats().snapshot().closed_connections == 1,
            2000
        ));
        // A healthy agent still connects afterwards.
        let mut s2 = TcpStream::connect(collector.local_addr()).unwrap();
        s2.write_all(&encode_message(1, 0, 0, &[])).unwrap();
        assert!(wait_for(
            || collector.stats().snapshot().messages == 1,
            2000
        ));
        drop(s2);
        drop(s);
    }

    #[test]
    fn quarantined_frame_keeps_connection_and_later_messages() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let good = encode_message(1, 0, 0, &[]);
        let mut bad = good.to_vec();
        bad[4..6].copy_from_slice(&9u16.to_be_bytes()); // unknown version
        let mut s = TcpStream::connect(collector.local_addr()).unwrap();
        s.write_all(&bad).unwrap();
        s.write_all(&good).unwrap();
        assert!(wait_for(
            || collector.stats().snapshot().messages == 1,
            2000
        ));
        let snap = collector.stats().snapshot();
        assert_eq!(snap.frames_quarantined, 1);
        assert_eq!(snap.decode_bad_version, 1);
        assert_eq!(snap.decode_errors, 0);
        drop(s);
    }

    #[test]
    fn liveness_tracks_agents() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let addr = collector.local_addr();
        for id in [11u32, 22] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&encode_message(id, 5_000, 0, &[])).unwrap();
            drop(s);
        }
        assert!(wait_for(|| collector.liveness().len() == 2, 2000));
        let live = collector.liveness();
        assert_eq!(
            live.iter().map(|a| a.agent_id).collect::<Vec<_>>(),
            vec![11, 22]
        );
        assert_eq!(live[0].last_export_ms, 5_000);
        assert_eq!(live[0].messages, 1);

        // A reconnecting agent updates its one entry.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_message(11, 6_000, 1, &[])).unwrap();
        drop(s);
        assert!(wait_for(|| collector.liveness()[0].messages == 2, 2000));
        let live = collector.liveness();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].last_export_ms, 6_000);
    }

    #[test]
    fn stalled_reactor_shard_recovers() {
        use std::sync::atomic::AtomicU32;
        // A stall hook freezes the (single) reactor shard for a while;
        // messages written during the stall must still decode once it
        // unwedges — nothing is lost, the pipeline just sees them late.
        let stalls = Arc::new(AtomicU32::new(0));
        let hook = {
            let stalls = Arc::clone(&stalls);
            ReactorHook::new(move |_shard| {
                if stalls.fetch_add(1, Ordering::Relaxed) == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                }
            })
        };
        let collector = Collector::bind_with(
            ephemeral(),
            CollectorConfig {
                shards: 1,
                stall_hook: Some(hook),
                ..Default::default()
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(collector.local_addr()).unwrap();
        s.write_all(&encode_message(1, 0, 0, &[])).unwrap();
        assert!(wait_for(
            || collector.stats().snapshot().messages == 1,
            3000
        ));
        assert!(stalls.load(Ordering::Relaxed) >= 1);
        drop(s);
    }

    #[test]
    fn shutdown_joins_threads() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let addr = collector.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_message(1, 0, 0, &[])).unwrap();
        assert!(wait_for(
            || collector.stats().messages.load(Ordering::Relaxed) == 1,
            2000
        ));
        collector.shutdown();
        // Port should eventually be reusable / connections refused.
        // (We only assert shutdown() returned, i.e. threads joined.)
    }

    #[test]
    fn records_are_bucketed_by_export_stamp() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 3,
            ..Default::default()
        });
        let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
        // Three exports, the first two inside one 1 s window: buckets are
        // runs of one stamp, not of one window.
        for (export_ms, base) in [(1_500u64, 0u32), (1_700, 50), (4_250, 100)] {
            for i in 0..5u32 {
                agent.observe(passive_sample(base + i, 4000 + i as u16));
            }
            let records = agent.export();
            for m in &agent.encode_export(export_ms, &records) {
                exporter.send(m).unwrap();
            }
        }
        exporter.finish().unwrap();

        assert!(wait_for(|| collector.pending() == 15, 2000));
        let batch = collector.drain_buckets();
        // One bucket per stamp, each holding exactly its export's
        // records (the sources tell the three exports apart).
        let runs: Vec<(u64, Vec<u32>)> = batch
            .buckets
            .iter()
            .map(|(s, b)| (*s, b.iter().map(|r| r.key.src.0).collect()))
            .collect();
        assert_eq!(
            runs,
            vec![
                (1_500, (0..5).collect()),
                (1_700, (50..55).collect()),
                (4_250, (100..105).collect()),
            ]
        );
        assert_eq!(collector.pending(), 0);
    }

    #[test]
    fn drained_bucket_buffers_are_reused_empty() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 3,
            ..Default::default()
        });
        let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
        // Three epochs over one connection with a drain after each: from
        // the second on, the shard fills the buffer the drain handed
        // back. Every drain must see exactly its own export's records.
        for (seq, n) in [(1u64, 7u32), (2, 3), (3, 9)] {
            for i in 0..n {
                agent.observe(passive_sample(seq as u32 * 100 + i, 4000 + i as u16));
            }
            let records = agent.export();
            let export_ms = seq * 1_000 + 500;
            for m in &agent.encode_export(export_ms, &records) {
                exporter.send(m).unwrap();
            }
            assert!(wait_for(|| collector.pending() == n as usize, 2000));
            let batch = collector.drain_buckets();
            assert_eq!(batch.buckets.len(), 1);
            let (stamp, bucket) = &batch.buckets[0];
            assert_eq!(*stamp, export_ms);
            assert_eq!(bucket, &records);
            assert_eq!(collector.pending(), 0);
        }
        exporter.finish().unwrap();
    }

    #[test]
    fn slow_writer_one_byte_at_a_time() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 9,
            ..Default::default()
        });
        for i in 0..3u32 {
            agent.observe(passive_sample(i, 5000 + i as u16));
        }
        let records = agent.export();
        let mut wire = Vec::new();
        for m in agent.encode_export(1_200, &records) {
            wire.extend_from_slice(&m);
        }
        // A second message right behind the first, so a frame boundary
        // sits mid-stream.
        agent.observe(passive_sample(50, 6000));
        let records = agent.export();
        for m in agent.encode_export(1_300, &records) {
            wire.extend_from_slice(&m);
        }

        let mut s = TcpStream::connect(collector.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        for (i, b) in wire.iter().enumerate() {
            s.write_all(std::slice::from_ref(b)).unwrap();
            if i % 16 == 0 {
                // Force fragment delivery so the reactor sees partial
                // frames, not one coalesced buffer.
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        drop(s);

        assert!(wait_for(|| collector.pending() == 4, 3000));
        let batch = collector.drain_buckets();
        let runs: Vec<(u64, usize)> = batch.buckets.iter().map(|(s, b)| (*s, b.len())).collect();
        assert_eq!(runs, vec![(1_200, 3), (1_300, 1)], "one run per stamp");
        assert_eq!(collector.stats().snapshot().decode_errors, 0);
    }

    #[test]
    fn reconnect_mid_epoch_merges_buckets_and_moves_gauges() {
        let collector = Collector::bind(ephemeral()).unwrap();
        let addr = collector.local_addr();
        let mk_agent = |id| {
            AgentCore::new(AgentConfig {
                agent_id: id,
                ..Default::default()
            })
        };
        // The agent re-exports under the epoch's one stamp after it
        // reconnects.
        let export_ms = 3_500;

        // First connection: half the epoch's records, then hang up.
        let mut agent = mk_agent(5);
        for i in 0..4u32 {
            agent.observe(passive_sample(i, 7000 + i as u16));
        }
        let recs = agent.export();
        let msgs = agent.encode_export(export_ms, &recs);
        let mut e = Exporter::connect(addr).unwrap();
        for m in &msgs {
            e.send(m).unwrap();
        }
        e.finish().unwrap();
        assert!(wait_for(|| collector.pending() == 4, 2000));
        assert!(wait_for(
            || collector.stats().snapshot().closed_connections == 1,
            2000
        ));

        // Reconnect (fresh TCP stream, same agent) mid-epoch.
        let mut agent = mk_agent(5);
        for i in 4..7u32 {
            agent.observe(passive_sample(i, 7000 + i as u16));
        }
        let recs = agent.export();
        let msgs = agent.encode_export(export_ms, &recs);
        let mut e = Exporter::connect(addr).unwrap();
        for m in &msgs {
            e.send(m).unwrap();
        }
        e.finish().unwrap();

        assert!(wait_for(|| collector.pending() == 7, 2000));
        assert!(wait_for(
            || collector.stats().snapshot().closed_connections == 2,
            2000
        ));
        let snap = collector.stats().snapshot();
        assert_eq!(snap.connections, 2);
        assert_eq!(snap.active_connections, 0);

        // Both connections' records merged into the stamp's one bucket.
        let batch = collector.drain_buckets();
        assert_eq!(batch.buckets.len(), 1);
        assert_eq!(batch.buckets[0].0, export_ms);
        assert_eq!(batch.buckets[0].1.len(), 7);
    }

    #[test]
    fn high_water_mark_sheds_records() {
        let collector = Collector::bind_with(
            ephemeral(),
            CollectorConfig {
                shards: 1,
                high_water: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let mut agent = AgentCore::new(AgentConfig {
            agent_id: 1,
            max_records_per_message: 5,
            ..Default::default()
        });
        for i in 0..50u32 {
            agent.observe(passive_sample(i, (8000 + i) as u16));
        }
        let recs = agent.export();
        let msgs = agent.encode_export(0, &recs);
        assert_eq!(msgs.len(), 10, "50 records at 5/message");
        let mut e = Exporter::connect(collector.local_addr()).unwrap();
        for m in &msgs {
            e.send(m).unwrap();
        }
        e.finish().unwrap();

        assert!(wait_for(
            || collector.stats().snapshot().records == 50,
            3000
        ));
        let snap = collector.stats().snapshot();
        assert_eq!(snap.dropped_records, 40, "store capped at 2 messages");
        assert_eq!(collector.pending(), 10);
        // Draining reopens the store for new messages.
        assert_eq!(collector.drain_buckets().len(), 10);
        assert_eq!(collector.pending(), 0);
    }

    #[test]
    fn reactor_thread_count_is_fixed() {
        let collector = Collector::bind_with(
            ephemeral(),
            CollectorConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(collector.reactor_shards(), 2);
        let addr = collector.local_addr();
        // Many more connections than shards, all served.
        let mut socks = Vec::new();
        for i in 0..32u32 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&encode_message(i, 0, 0, &[])).unwrap();
            socks.push(s);
        }
        assert!(wait_for(
            || collector.stats().snapshot().messages == 32,
            3000
        ));
        assert_eq!(collector.stats().snapshot().active_connections, 32);
        drop(socks);
        assert!(wait_for(
            || collector.stats().snapshot().active_connections == 0,
            3000
        ));
        assert_eq!(collector.stats().snapshot().closed_connections, 32);
        collector.shutdown();
    }
}
