//! The end-host monitoring agent (§3.1, §5.1).
//!
//! The paper's agent dumps packet headers via PF_RING, aggregates them into
//! per-flow statistics and periodically exports 52-byte IPFIX records to a
//! collector. Here the capture backend is abstracted as a stream of
//! [`FlowSample`]s (the simulators produce them; a PF_RING/eBPF backend
//! would too), and the agent core is sans-IO: [`AgentCore::observe`] folds
//! samples into the flow table and [`AgentCore::export`] drains it into
//! records. [`Exporter`] ships records to a collector over TCP.

use crate::flow::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
use crate::wire::encode_message;
use flock_topology::LinkId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Identifier reported in export message headers.
    pub agent_id: u32,
    /// Flow sampling rate in `[0, 1]`: a flow is monitored iff
    /// `hash(key) mod 2^16 < rate * 2^16`. Sampling is by *flow*, not by
    /// packet, so a sampled flow's statistics stay complete (§3.1's
    /// "optionally randomly sampled to reduce volume").
    pub sample_rate: f64,
    /// Maximum records per export message, in `1..=u16::MAX`; larger
    /// exports are chunked.
    pub max_records_per_message: usize,
    /// Inert: nothing in the product reads it. A message's
    /// `export_time_ms` already places its records
    /// (`export_time_ms / epoch_ms`), so frames carry no epoch index.
    /// Kept only for the benchmark generator, which sets it; it goes with
    /// that write (ROADMAP 1(a)). No test or example sets it.
    pub epoch_hint_ms: Option<u64>,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            agent_id: 0,
            sample_rate: 1.0,
            max_records_per_message: 4096,
            epoch_hint_ms: None,
        }
    }
}

/// One monitoring observation delivered to the agent: a batch of packets
/// (or a whole flow) with optional RTT sample and known path.
#[derive(Debug, Clone)]
pub struct FlowSample {
    /// Flow identity.
    pub key: FlowKey,
    /// Packets newly observed.
    pub packets: u64,
    /// Retransmissions newly observed.
    pub retransmissions: u64,
    /// Bytes newly observed.
    pub bytes: u64,
    /// An RTT sample in microseconds, if one was measured.
    pub rtt_us: Option<u32>,
    /// Exact path if known to the monitor (probe or INT).
    pub path: Option<Vec<LinkId>>,
    /// Traffic class.
    pub class: TrafficClass,
}

#[derive(Debug)]
struct FlowEntry {
    stats: FlowStats,
    class: TrafficClass,
    /// Empty until a sample reveals the path.
    path: Vec<LinkId>,
}

/// Sans-IO agent core: a flow table keyed by [`FlowKey`].
#[derive(Debug)]
pub struct AgentCore {
    cfg: AgentConfig,
    table: HashMap<FlowKey, FlowEntry>,
    sequence: u64,
    samples_seen: u64,
    samples_kept: u64,
}

impl AgentCore {
    /// Create an agent core. Panics on a `sample_rate` outside `[0, 1]`
    /// or a `max_records_per_message` one message cannot carry.
    pub fn new(cfg: AgentConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.sample_rate));
        assert!(
            (1..=usize::from(u16::MAX)).contains(&cfg.max_records_per_message),
            "max_records_per_message {} outside 1..=65535",
            cfg.max_records_per_message
        );
        AgentCore {
            cfg,
            table: HashMap::new(),
            sequence: 0,
            samples_seen: 0,
            samples_kept: 0,
        }
    }

    /// Whether `key` passes the deterministic flow-sampling filter.
    pub fn sampled(&self, key: &FlowKey) -> bool {
        if self.cfg.sample_rate >= 1.0 {
            return true;
        }
        let h = fnv1a(key);
        ((h & 0xffff) as f64) < self.cfg.sample_rate * 65536.0
    }

    /// Fold a sample into the flow table (dropped if not sampled).
    pub fn observe(&mut self, sample: FlowSample) {
        self.samples_seen += 1;
        if !self.sampled(&sample.key) {
            return;
        }
        self.samples_kept += 1;
        let delta = FlowStats {
            packets: sample.packets,
            retransmissions: sample.retransmissions,
            bytes: sample.bytes,
            rtt_sum_us: sample.rtt_us.map_or(0, u64::from),
            rtt_count: sample.rtt_us.map_or(0, |_| 1),
            rtt_max_us: sample.rtt_us.unwrap_or(0),
        };
        match self.table.entry(sample.key) {
            Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                entry.stats.merge(&delta);
                if entry.path.is_empty() {
                    entry.path = sample.path.unwrap_or_default();
                }
                if sample.class == TrafficClass::Probe {
                    entry.class = TrafficClass::Probe;
                }
            }
            Entry::Vacant(v) => {
                v.insert(FlowEntry {
                    stats: delta,
                    class: sample.class,
                    path: sample.path.unwrap_or_default(),
                });
            }
        }
    }

    /// Number of flows currently tracked.
    pub fn active_flows(&self) -> usize {
        self.table.len()
    }

    /// Fraction of samples kept by the sampling filter so far.
    pub fn keep_ratio(&self) -> f64 {
        if self.samples_seen == 0 {
            1.0
        } else {
            self.samples_kept as f64 / self.samples_seen as f64
        }
    }

    /// Drain the flow table into export records (an empty `true_path`
    /// for a flow whose path no sample revealed).
    pub fn export(&mut self) -> Vec<MonitoredFlow> {
        let mut out: Vec<MonitoredFlow> = self
            .table
            .drain()
            .map(|(key, e)| MonitoredFlow {
                key,
                stats: e.stats,
                class: e.class,
                true_path: e.path,
            })
            .collect();
        // Deterministic export order (HashMap drain order is not).
        out.sort_by_key(|r| (r.key.src, r.key.dst, r.key.src_port, r.key.dst_port));
        out
    }

    /// Encode `records` into wire messages (chunked), advancing the
    /// sequence counter.
    pub fn encode_export(
        &mut self,
        export_time_ms: u64,
        records: &[MonitoredFlow],
    ) -> Vec<bytes::Bytes> {
        let mut msgs = Vec::new();
        for chunk in records.chunks(self.cfg.max_records_per_message) {
            msgs.push(encode_message(
                self.cfg.agent_id,
                export_time_ms,
                self.sequence,
                chunk,
            ));
            self.sequence += 1;
        }
        msgs
    }
}

/// TCP exporter: connects to a collector and ships encoded messages.
pub struct Exporter {
    stream: TcpStream,
}

impl Exporter {
    /// Connect to a collector.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Exporter { stream })
    }

    /// Send one encoded message.
    pub fn send(&mut self, msg: &[u8]) -> io::Result<()> {
        self.stream.write_all(msg)
    }

    /// Flush and close the connection.
    pub fn finish(mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn fnv1a(key: &FlowKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for b in key.src.0.to_be_bytes() {
        step(b);
    }
    for b in key.dst.0.to_be_bytes() {
        step(b);
    }
    for b in key.src_port.to_be_bytes() {
        step(b);
    }
    for b in key.dst_port.to_be_bytes() {
        step(b);
    }
    step(key.proto);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::NodeId;

    fn sample(src: u32, port: u16, retrans: u64) -> FlowSample {
        FlowSample {
            key: FlowKey::tcp(NodeId(src), NodeId(99), port, 80),
            packets: 10,
            retransmissions: retrans,
            bytes: 1000,
            rtt_us: Some(120),
            path: None,
            class: TrafficClass::Passive,
        }
    }

    #[test]
    fn observe_aggregates_by_key() {
        let mut agent = AgentCore::new(AgentConfig::default());
        agent.observe(sample(1, 1000, 0));
        agent.observe(sample(1, 1000, 2));
        agent.observe(sample(2, 1000, 1));
        assert_eq!(agent.active_flows(), 2);
        let recs = agent.export();
        assert_eq!(recs.len(), 2);
        let f1 = recs.iter().find(|r| r.key.src == NodeId(1)).unwrap();
        assert_eq!(f1.stats.packets, 20);
        assert_eq!(f1.stats.retransmissions, 2);
        assert_eq!(f1.stats.rtt_count, 2);
        assert_eq!(agent.active_flows(), 0, "export drains");
    }

    #[test]
    fn path_is_kept_once_known() {
        let mut agent = AgentCore::new(AgentConfig::default());
        let mut s = sample(1, 1000, 0);
        s.path = Some(vec![LinkId(5)]);
        agent.observe(s);
        agent.observe(sample(1, 1000, 0));
        let recs = agent.export();
        assert_eq!(recs[0].true_path, vec![LinkId(5)]);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let cfg = AgentConfig {
            sample_rate: 0.25,
            ..Default::default()
        };
        let mut agent = AgentCore::new(cfg);
        for i in 0..4000u32 {
            agent.observe(sample(i, (i % 50000) as u16, 0));
        }
        let ratio = agent.keep_ratio();
        assert!(
            (0.18..0.32).contains(&ratio),
            "keep ratio {ratio} too far from 0.25"
        );
        // Determinism: the same key always gets the same verdict.
        let a2 = AgentCore::new(AgentConfig {
            sample_rate: 0.25,
            ..Default::default()
        });
        for i in 0..4000u32 {
            let k = FlowKey::tcp(NodeId(i), NodeId(99), (i % 50000) as u16, 80);
            assert_eq!(a2.sampled(&k), a2.sampled(&k));
        }
    }

    #[test]
    fn export_chunks_messages() {
        let mut agent = AgentCore::new(AgentConfig {
            max_records_per_message: 2,
            ..Default::default()
        });
        for i in 0..5u32 {
            agent.observe(sample(i, 1000, 0));
        }
        let recs = agent.export();
        let msgs = agent.encode_export(0, &recs);
        assert_eq!(msgs.len(), 3, "5 records at 2/message = 3 messages");
        // Sequences advance per message.
        let m0 = crate::wire::decode_message(&msgs[0]).unwrap();
        let m2 = crate::wire::decode_message(&msgs[2]).unwrap();
        assert_eq!(m0.sequence, 0);
        assert_eq!(m2.sequence, 2);
    }

    #[test]
    fn message_size_is_validated_at_construction() {
        let max = usize::from(u16::MAX);
        for bad in [0, max + 1] {
            let built = std::panic::catch_unwind(|| {
                AgentCore::new(AgentConfig {
                    max_records_per_message: bad,
                    ..Default::default()
                })
            });
            assert!(built.is_err(), "max_records_per_message {bad} accepted");
        }
        // The largest legal size fills exactly one message that decodes.
        let mut agent = AgentCore::new(AgentConfig {
            max_records_per_message: max,
            ..Default::default()
        });
        let recs: Vec<MonitoredFlow> = (0..max as u32)
            .map(|i| MonitoredFlow {
                key: FlowKey::tcp(NodeId(i), NodeId(99), 1000, 80),
                stats: FlowStats::default(),
                class: TrafficClass::Passive,
                true_path: Vec::new(),
            })
            .collect();
        let msgs = agent.encode_export(0, &recs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(crate::wire::decode_message(&msgs[0]).unwrap().records, recs);
    }

    #[test]
    fn probe_class_upgrades_entry() {
        let mut agent = AgentCore::new(AgentConfig::default());
        agent.observe(sample(1, 1000, 0));
        let mut s = sample(1, 1000, 0);
        s.class = TrafficClass::Probe;
        agent.observe(s);
        let recs = agent.export();
        assert_eq!(recs[0].class, TrafficClass::Probe);
    }
}
