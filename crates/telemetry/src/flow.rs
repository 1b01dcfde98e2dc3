//! Flow identification and per-flow statistics.

use flock_topology::{LinkId, NodeId};
use serde::Serialize;

/// Identifies a monitored flow.
///
/// Endpoints are topology nodes: hosts for regular traffic, and the target
/// switch for host→spine active probes (A1), mirroring how NetBouncer's
/// IP-in-IP probes address a core switch directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FlowKey {
    /// Source endpoint (always a host in this suite).
    pub src: NodeId,
    /// Destination endpoint (host, or spine switch for A1 probes).
    pub dst: NodeId,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP for passive flows, 17 = UDP probes).
    pub proto: u8,
}

impl FlowKey {
    /// A TCP flow between two hosts.
    pub fn tcp(src: NodeId, dst: NodeId, src_port: u16, dst_port: u16) -> Self {
        FlowKey {
            src,
            dst,
            src_port,
            dst_port,
            proto: 6,
        }
    }

    /// A UDP probe flow towards a switch.
    pub fn probe(src: NodeId, dst: NodeId, seq: u16) -> Self {
        FlowKey {
            src,
            dst,
            src_port: 33434,
            dst_port: seq,
            proto: 17,
        }
    }
}

/// Aggregated per-flow statistics, as exported by the agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FlowStats {
    /// Data packets sent by the flow source.
    pub packets: u64,
    /// Retransmitted packets — the paper's proxy for "bad packets" in
    /// per-packet analysis (§3.2).
    pub retransmissions: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Sum of sampled RTTs, in microseconds.
    pub rtt_sum_us: u64,
    /// Number of RTT samples folded into `rtt_sum_us`.
    pub rtt_count: u32,
    /// Maximum sampled RTT, in microseconds. Drives the per-flow analysis
    /// mode (flow is "bad" when RTT exceeds a threshold, §3.2/§7.5).
    pub rtt_max_us: u32,
}

impl FlowStats {
    /// Merge another stats record into this one (same flow key).
    pub fn merge(&mut self, other: &FlowStats) {
        self.packets += other.packets;
        self.retransmissions += other.retransmissions;
        self.bytes += other.bytes;
        self.rtt_sum_us += other.rtt_sum_us;
        self.rtt_count += other.rtt_count;
        self.rtt_max_us = self.rtt_max_us.max(other.rtt_max_us);
    }

    /// Mean RTT in microseconds, if any samples were recorded.
    pub fn rtt_mean_us(&self) -> Option<f64> {
        if self.rtt_count == 0 {
            None
        } else {
            Some(self.rtt_sum_us as f64 / self.rtt_count as f64)
        }
    }
}

/// Whether a flow is an active probe or regular application traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TrafficClass {
    /// NetBouncer-style active probe with a pinned, known path (A1).
    Probe,
    /// Regular application traffic observed passively (P); its path is
    /// known only if revealed by A2 path tracing or INT.
    Passive,
}

/// One monitored flow: what the simulators produce, what an agent
/// exports, what the wire carries and what the collector hands to input
/// assembly — one record type from socket to assembler.
///
/// `true_path` is the flow's exact traversed path (all links, including
/// host attachment links) when it is known: always from the simulators,
/// and on the wire for probes and for passive flows under INT or after
/// A2 path tracing. An **empty `true_path` means "path unknown"** — a
/// record the exporter sent without a path attachment. Whether inference
/// gets to see a known path depends on the telemetry kind selected during
/// input assembly ([`crate::input`]); an unknown one falls back to the
/// flow's ECMP path set, or carries no evidence for a probe.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonitoredFlow {
    /// Flow identity.
    pub key: FlowKey,
    /// Aggregated statistics.
    pub stats: FlowStats,
    /// Traffic class.
    pub class: TrafficClass,
    /// Traversed path (all links, including host links); empty when
    /// unknown.
    pub true_path: Vec<LinkId>,
}

/// The wire record's former name, kept only because the benchmark
/// driver names it (`benchmark/src/{gen,probes}.rs`); it goes with that
/// pin. It is [`MonitoredFlow`] itself, not a second shape.
pub type FlowRecord = MonitoredFlow;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_maxes() {
        let mut a = FlowStats {
            packets: 10,
            retransmissions: 1,
            bytes: 1000,
            rtt_sum_us: 300,
            rtt_count: 3,
            rtt_max_us: 150,
        };
        let b = FlowStats {
            packets: 5,
            retransmissions: 2,
            bytes: 500,
            rtt_sum_us: 400,
            rtt_count: 1,
            rtt_max_us: 400,
        };
        a.merge(&b);
        assert_eq!(a.packets, 15);
        assert_eq!(a.retransmissions, 3);
        assert_eq!(a.bytes, 1500);
        assert_eq!(a.rtt_count, 4);
        assert_eq!(a.rtt_max_us, 400);
        assert!((a.rtt_mean_us().unwrap() - 175.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_mean_empty_is_none() {
        assert_eq!(FlowStats::default().rtt_mean_us(), None);
    }

    #[test]
    fn key_constructors() {
        let k = FlowKey::tcp(NodeId(1), NodeId(2), 4000, 80);
        assert_eq!(k.proto, 6);
        let p = FlowKey::probe(NodeId(1), NodeId(9), 7);
        assert_eq!(p.proto, 17);
        assert_eq!(p.dst_port, 7);
    }
}
