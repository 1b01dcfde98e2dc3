//! Packet-level discrete-event simulator — the substitute for the paper's
//! hardware testbed (§6.3–6.4, DESIGN.md S5).
//!
//! The simulator models per-link egress queues with configurable
//! discipline (FIFO tail-drop, or WRED with a length threshold and drop
//! probability — the misconfigured-queue fault sets threshold 0 and
//! p = 1%), serialization and propagation delay, silent per-link random
//! drops, link flaps that *buffer* traffic for their duration (latency
//! spike, no loss — matching the testbed observation in §6.4), and a
//! simplified TCP Reno sender per flow:
//!
//! * slow start / congestion avoidance with an initial window of 10;
//! * cumulative ACKs, triple-duplicate-ACK fast retransmit;
//! * retransmission timeout with SRTT/RTTVAR estimation and exponential
//!   backoff;
//! * RTT samples taken on non-retransmitted segments (Karn's rule).
//!
//! The output is the same [`MonitoredFlow`] stream the flow-level
//! simulator produces, so telemetry assembly and inference are oblivious
//! to which simulator generated a trace. Deliberate simplifications
//! (no delayed ACKs, no SACK, fixed per-flow ECMP path) are noted in
//! DESIGN.md; none affect the telemetry signal the evaluated faults
//! produce (retransmission counts and RTT spikes).

use crate::traffic::FlowDemand;
use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
use flock_topology::{LinkId, Router, Topology};
use rand::{Rng, RngExt};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DesConfig {
    /// Link rate in bits per second (testbed: 1 Gbps).
    pub link_rate_bps: f64,
    /// One-way propagation delay per link, nanoseconds.
    pub link_delay_ns: u64,
    /// Egress queue capacity in packets.
    pub queue_capacity: usize,
    /// Segment size in bytes.
    pub mss_bytes: u32,
    /// Initial congestion window (packets).
    pub init_cwnd: f64,
    /// Minimum retransmission timeout, nanoseconds.
    pub rto_min_ns: u64,
    /// Simulation horizon, nanoseconds; flows unfinished at the horizon
    /// still report their statistics so far.
    pub horizon_ns: u64,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            link_rate_bps: 1e9,
            link_delay_ns: 5_000,
            queue_capacity: 256,
            mss_bytes: 1500,
            init_cwnd: 10.0,
            rto_min_ns: 10_000_000,    // 10 ms
            horizon_ns: 2_000_000_000, // 2 s
        }
    }
}

/// WRED marking parameters for a misconfigured queue (§6.4: p = 1%,
/// threshold w = 0 — "the link works normally if the queue is empty").
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WredParams {
    /// Queue length (packets already waiting) at/above which arriving
    /// packets are dropped with `drop_prob`.
    pub threshold: usize,
    /// Drop probability once above the threshold.
    pub drop_prob: f64,
}

/// A link flap: the link stops serving for the window but keeps buffering.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Flap {
    /// Flapping link.
    pub link: LinkId,
    /// Flap start, nanoseconds.
    pub start_ns: u64,
    /// Flap duration, nanoseconds.
    pub duration_ns: u64,
}

/// Fault injection for a DES run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DesFaults {
    /// Silent random drop probability per link (sparse).
    pub silent_drop: Vec<(LinkId, f64)>,
    /// Misconfigured WRED queues per link (sparse).
    pub wred: Vec<(LinkId, WredParams)>,
    /// Link flaps.
    pub flaps: Vec<Flap>,
}

// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    flow: u32,
    seq: u32,
    is_ack: bool,
    /// Index of the next link to traverse on the flow's (forward or
    /// reverse) path.
    hop: u16,
    /// Send timestamp of the data packet this (or its ACK) tracks; 0 when
    /// the segment was retransmitted (Karn: no RTT sample).
    sent_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Depart(u32), // link id: head-of-line packet finished serialization
    Arrive,      // packet reaches a node
    FlowStart(u32),
    Rto(u32, u32), // flow id, epoch
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: u64,
    tiebreak: u64,
    kind: EventKind,
    packet: Option<Packet>,
    node: u32,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tiebreak).cmp(&(other.at, other.tiebreak))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct LinkState {
    queue: std::collections::VecDeque<Packet>,
    busy: bool,
    silent_drop: f64,
    wred: Option<WredParams>,
    flap: Option<(u64, u64)>, // [start, end)
}

struct TcpFlow {
    demand: FlowDemand,
    fwd_path: Vec<LinkId>,
    rev_path: Vec<LinkId>,
    total: u32,
    next_new: u32,
    /// Cumulative: all seq < high_acked are delivered.
    high_acked: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_flight: u32,
    /// Receiver state: which segments arrived.
    received: Vec<bool>,
    rcv_next: u32,
    srtt_ns: f64,
    rttvar_ns: f64,
    rto_ns: u64,
    rto_epoch: u32,
    retransmissions: u64,
    rtt_sum_us: u64,
    rtt_count: u32,
    rtt_max_us: u32,
    done: bool,
    needs_retx: Option<u32>,
}

/// Shared mutable simulation state threaded through the handlers.
struct Sim<'a, R: Rng + ?Sized> {
    topo: &'a Topology,
    cfg: &'a DesConfig,
    flows: Vec<TcpFlow>,
    links: Vec<LinkState>,
    events: BinaryHeap<Reverse<Event>>,
    tiebreak: u64,
    tx_ns: u64,
    ack_tx_ns: u64,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> Sim<'_, R> {
    fn push(&mut self, at: u64, kind: EventKind, packet: Option<Packet>, node: u32) {
        self.tiebreak += 1;
        self.events.push(Reverse(Event {
            at,
            tiebreak: self.tiebreak,
            kind,
            packet,
            node,
        }));
    }

    /// When the head-of-line packet finishes serialization, accounting for
    /// a flap window (the link buffers during the flap).
    fn service_completion(now: u64, tx_ns: u64, flap: Option<(u64, u64)>) -> u64 {
        let mut start = now;
        if let Some((fs, fe)) = flap {
            if start >= fs && start < fe {
                start = fe;
            }
        }
        start + tx_ns
    }

    /// Enqueue on a link's egress queue, applying WRED/tail-drop and
    /// starting service if idle.
    fn enqueue(&mut self, link_idx: usize, pkt: Packet, now: u64) {
        let cap = self.cfg.queue_capacity;
        let ls = &mut self.links[link_idx];
        if ls.queue.len() >= cap {
            return; // tail drop
        }
        if let Some(w) = ls.wred {
            if ls.queue.len() >= w.threshold && self.rng.random::<f64>() < w.drop_prob {
                return; // misconfigured WRED drop
            }
        }
        let tx = if pkt.is_ack {
            self.ack_tx_ns
        } else {
            self.tx_ns
        };
        ls.queue.push_back(pkt);
        if !ls.busy {
            ls.busy = true;
            let at = Self::service_completion(now, tx, ls.flap);
            self.push(at, EventKind::Depart(link_idx as u32), None, 0);
        }
    }

    /// Head-of-line departure: apply silent drop, propagate, schedule the
    /// next service.
    fn serve_link(&mut self, link_idx: usize, now: u64) {
        let ls = &mut self.links[link_idx];
        let Some(pkt) = ls.queue.pop_front() else {
            ls.busy = false;
            return;
        };
        let silent = ls.silent_drop;
        let flap = ls.flap;
        if let Some(next) = ls.queue.front() {
            let tx = if next.is_ack {
                self.ack_tx_ns
            } else {
                self.tx_ns
            };
            let at = Self::service_completion(now, tx, flap);
            self.push(at, EventKind::Depart(link_idx as u32), None, 0);
        } else {
            ls.busy = false;
        }
        // Silent drop happens on the wire: transmitted but never arrives,
        // and no counter records it.
        if silent > 0.0 && self.rng.random::<f64>() < silent {
            return;
        }
        let dst = self.topo.link(LinkId(link_idx as u32)).dst.0;
        self.push(
            now + self.cfg.link_delay_ns,
            EventKind::Arrive,
            Some(pkt),
            dst,
        );
    }

    /// Send whatever the window allows (plus a pending retransmit).
    fn pump_flow(&mut self, fi: u32, now: u64) {
        let f = &mut self.flows[fi as usize];
        if f.done {
            return;
        }
        let mut to_send: Vec<(u32, bool)> = Vec::new();
        if let Some(seq) = f.needs_retx.take() {
            if seq < f.total {
                to_send.push((seq, true));
            }
        }
        while (f.in_flight as f64) < f.cwnd && f.next_new < f.total {
            to_send.push((f.next_new, false));
            f.next_new += 1;
        }
        if to_send.is_empty() {
            return;
        }
        let first_link = f.fwd_path[0].idx();
        // (Re)arm the RTO.
        f.rto_epoch += 1;
        let rto_at = now + f.rto_ns;
        let epoch = f.rto_epoch;
        for &(seq, is_retx) in &to_send {
            let f = &mut self.flows[fi as usize];
            f.in_flight += 1;
            let pkt = Packet {
                flow: fi,
                seq,
                is_ack: false,
                hop: 1,
                sent_ns: if is_retx { 0 } else { now },
            };
            self.enqueue(first_link, pkt, now);
        }
        self.push(rto_at, EventKind::Rto(fi, epoch), None, 0);
    }

    /// Data packet reached the destination host: update receiver state and
    /// return a cumulative ACK along the reverse path.
    fn handle_data_arrival(&mut self, pkt: Packet, now: u64) {
        let f = &mut self.flows[pkt.flow as usize];
        if let Some(slot) = f.received.get_mut(pkt.seq as usize) {
            *slot = true;
        }
        while (f.rcv_next as usize) < f.received.len() && f.received[f.rcv_next as usize] {
            f.rcv_next += 1;
        }
        let ack = Packet {
            flow: pkt.flow,
            seq: f.rcv_next,
            is_ack: true,
            hop: 1,
            sent_ns: pkt.sent_ns,
        };
        let first_rev = f.rev_path[0].idx();
        self.enqueue(first_rev, ack, now);
    }

    /// ACK reached the sender: advance the window, detect duplicates,
    /// sample RTT, send more data.
    fn handle_ack(&mut self, pkt: Packet, now: u64) {
        let rto_min = self.cfg.rto_min_ns;
        let f = &mut self.flows[pkt.flow as usize];
        if f.done {
            return;
        }
        if pkt.sent_ns > 0 && now > pkt.sent_ns {
            let sample = (now - pkt.sent_ns) as f64;
            if f.rtt_count == 0 {
                f.srtt_ns = sample;
                f.rttvar_ns = sample / 2.0;
            } else {
                f.rttvar_ns = 0.75 * f.rttvar_ns + 0.25 * (f.srtt_ns - sample).abs();
                f.srtt_ns = 0.875 * f.srtt_ns + 0.125 * sample;
            }
            f.rto_ns = ((f.srtt_ns + 4.0 * f.rttvar_ns) as u64).max(rto_min);
            let us = (sample / 1000.0) as u64;
            f.rtt_sum_us += us;
            f.rtt_count += 1;
            f.rtt_max_us = f.rtt_max_us.max(us as u32);
        }

        if pkt.seq > f.high_acked {
            let newly = pkt.seq - f.high_acked;
            f.high_acked = pkt.seq;
            f.in_flight = f.in_flight.saturating_sub(newly);
            f.dup_acks = 0;
            if f.cwnd < f.ssthresh {
                f.cwnd += f64::from(newly); // slow start
            } else {
                f.cwnd += f64::from(newly) / f.cwnd; // congestion avoidance
            }
            if f.high_acked >= f.total {
                f.done = true;
                f.rto_epoch += 1; // cancel outstanding RTO
                return;
            }
        } else {
            f.dup_acks += 1;
            if f.dup_acks == 3 {
                f.retransmissions += 1;
                f.ssthresh = (f.cwnd / 2.0).max(2.0);
                f.cwnd = f.ssthresh;
                f.in_flight = f.in_flight.saturating_sub(1);
                f.needs_retx = Some(f.high_acked);
            }
        }
        self.pump_flow(pkt.flow, now);
    }

    fn handle_rto(&mut self, fi: u32, epoch: u32, now: u64) {
        let f = &mut self.flows[fi as usize];
        if f.done || epoch != f.rto_epoch || f.high_acked >= f.total {
            return;
        }
        f.retransmissions += 1;
        f.ssthresh = (f.cwnd / 2.0).max(2.0);
        f.cwnd = 1.0;
        f.rto_ns = (f.rto_ns * 2).min(2_000_000_000);
        f.in_flight = 0; // conservatively assume everything in flight lost
        f.needs_retx = Some(f.high_acked);
        self.pump_flow(fi, now);
    }
}

/// Run the packet-level simulation: each demand becomes a TCP flow with a
/// fixed (randomly chosen) ECMP path.
pub fn simulate_des<R: Rng + ?Sized>(
    topo: &Topology,
    router: &Router<'_>,
    cfg: &DesConfig,
    faults: &DesFaults,
    demands: &[FlowDemand],
    rng: &mut R,
) -> Vec<MonitoredFlow> {
    let tx_ns = (cfg.mss_bytes as f64 * 8.0 / cfg.link_rate_bps * 1e9) as u64;
    let ack_tx_ns = ((64.0 * 8.0 / cfg.link_rate_bps * 1e9) as u64).max(1);

    let mut links: Vec<LinkState> = (0..topo.link_count())
        .map(|_| LinkState {
            queue: std::collections::VecDeque::new(),
            busy: false,
            silent_drop: 0.0,
            wred: None,
            flap: None,
        })
        .collect();
    for (l, p) in &faults.silent_drop {
        links[l.idx()].silent_drop = *p;
    }
    for (l, w) in &faults.wred {
        links[l.idx()].wred = Some(*w);
    }
    for f in &faults.flaps {
        links[f.link.idx()].flap = Some((f.start_ns, f.start_ns + f.duration_ns));
    }

    let mut sim = Sim {
        topo,
        cfg,
        flows: Vec::with_capacity(demands.len()),
        links,
        events: BinaryHeap::new(),
        tiebreak: 0,
        tx_ns,
        ack_tx_ns,
        rng,
    };

    for d in demands {
        let paths = router.host_fabric_paths(d.src, d.dst);
        if paths.is_empty() {
            continue;
        }
        let pick = sim.rng.random_range(0..paths.len());
        let mut fwd = vec![topo.host_uplink(d.src)];
        fwd.extend_from_slice(&paths[pick].links);
        fwd.push(topo.host_downlink(d.dst));
        let rev: Vec<LinkId> = fwd.iter().rev().map(|l| topo.link(*l).reverse).collect();
        let total = d.packets.min(u32::MAX as u64) as u32;
        let fi = sim.flows.len() as u32;
        sim.flows.push(TcpFlow {
            demand: *d,
            fwd_path: fwd,
            rev_path: rev,
            total,
            next_new: 0,
            high_acked: 0,
            cwnd: cfg.init_cwnd,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            in_flight: 0,
            received: vec![false; total as usize],
            rcv_next: 0,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            rto_ns: cfg.rto_min_ns * 20,
            rto_epoch: 0,
            retransmissions: 0,
            rtt_sum_us: 0,
            rtt_count: 0,
            rtt_max_us: 0,
            done: false,
            needs_retx: None,
        });
        let start = sim.rng.random_range(0..cfg.horizon_ns / 4);
        sim.push(start, EventKind::FlowStart(fi), None, 0);
    }

    while let Some(Reverse(ev)) = sim.events.pop() {
        if ev.at > cfg.horizon_ns {
            break;
        }
        match ev.kind {
            EventKind::FlowStart(fi) => sim.pump_flow(fi, ev.at),
            EventKind::Rto(fi, epoch) => sim.handle_rto(fi, epoch, ev.at),
            EventKind::Depart(link_idx) => sim.serve_link(link_idx as usize, ev.at),
            EventKind::Arrive => {
                let pkt = ev.packet.expect("arrive carries a packet");
                let f = &sim.flows[pkt.flow as usize];
                let path = if pkt.is_ack { &f.rev_path } else { &f.fwd_path };
                if (pkt.hop as usize) < path.len() {
                    let l = path[pkt.hop as usize];
                    debug_assert_eq!(sim.topo.link(l).src.0, ev.node);
                    let next = Packet {
                        hop: pkt.hop + 1,
                        ..pkt
                    };
                    sim.enqueue(l.idx(), next, ev.at);
                } else if pkt.is_ack {
                    sim.handle_ack(pkt, ev.at);
                } else {
                    sim.handle_data_arrival(pkt, ev.at);
                }
            }
        }
    }

    sim.flows
        .iter()
        .enumerate()
        .map(|(i, f)| MonitoredFlow {
            key: FlowKey::tcp(f.demand.src, f.demand.dst, 1024 + (i % 60_000) as u16, 80),
            stats: FlowStats {
                packets: f.total as u64,
                retransmissions: f.retransmissions,
                bytes: f.total as u64 * cfg.mss_bytes as u64,
                rtt_sum_us: f.rtt_sum_us,
                rtt_count: f.rtt_count,
                rtt_max_us: f.rtt_max_us,
            },
            class: TrafficClass::Passive,
            true_path: f.fwd_path.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{leaf_spine, LeafSpineParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn testbed() -> Topology {
        leaf_spine(LeafSpineParams::testbed())
    }

    fn demands(topo: &Topology, n: usize, pkts: u64, seed: u64) -> Vec<FlowDemand> {
        let hosts = topo.hosts().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let s = hosts[rng.random_range(0..hosts.len())];
                let mut d = hosts[rng.random_range(0..hosts.len())];
                while d == s {
                    d = hosts[rng.random_range(0..hosts.len())];
                }
                FlowDemand {
                    src: s,
                    dst: d,
                    packets: pkts,
                }
            })
            .collect()
    }

    #[test]
    fn clean_run_completes_without_retransmissions() {
        let topo = testbed();
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(1);
        let ds = demands(&topo, 40, 50, 2);
        let flows = simulate_des(
            &topo,
            &router,
            &DesConfig::default(),
            &DesFaults::default(),
            &ds,
            &mut rng,
        );
        assert_eq!(flows.len(), 40);
        let total_retx: u64 = flows.iter().map(|f| f.stats.retransmissions).sum();
        assert_eq!(total_retx, 0, "clean uncongested run must not retransmit");
        assert!(flows.iter().all(|f| f.stats.rtt_count > 0));
        for f in &flows {
            assert!(f.stats.rtt_max_us < 5_000, "rtt {}", f.stats.rtt_max_us);
        }
    }

    #[test]
    fn silent_drops_cause_retransmissions_on_crossing_flows() {
        let topo = testbed();
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        let bad = topo.fabric_links()[1];
        let faults = DesFaults {
            silent_drop: vec![(bad, 0.05)],
            ..Default::default()
        };
        let ds = demands(&topo, 80, 80, 4);
        let flows = simulate_des(
            &topo,
            &router,
            &DesConfig::default(),
            &faults,
            &ds,
            &mut rng,
        );
        let (mut crossing_retx, mut crossing) = (0u64, 0usize);
        let mut clean_retx = 0u64;
        for f in &flows {
            if f.true_path.contains(&bad) || f.true_path.contains(&topo.link(bad).reverse) {
                crossing += 1;
                crossing_retx += f.stats.retransmissions;
            } else {
                clean_retx += f.stats.retransmissions;
            }
        }
        assert!(crossing > 0);
        assert!(
            crossing_retx > 0,
            "5% silent drop must trigger retransmissions"
        );
        assert_eq!(clean_retx, 0, "non-crossing flows stay clean");
    }

    #[test]
    fn wred_misconfiguration_drops_under_load() {
        let topo = testbed();
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(5);
        let bad = topo.fabric_links()[0];
        let faults = DesFaults {
            wred: vec![(
                bad,
                WredParams {
                    threshold: 0,
                    drop_prob: 0.05,
                },
            )],
            ..Default::default()
        };
        let ds = demands(&topo, 150, 150, 6);
        let flows = simulate_des(
            &topo,
            &router,
            &DesConfig::default(),
            &faults,
            &ds,
            &mut rng,
        );
        let crossing_retx: u64 = flows
            .iter()
            .filter(|f| f.true_path.contains(&bad))
            .map(|f| f.stats.retransmissions)
            .sum();
        assert!(
            crossing_retx > 0,
            "a loaded misconfigured WRED queue must drop"
        );
    }

    #[test]
    fn flap_spikes_latency_without_loss() {
        let topo = testbed();
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(7);
        let flapped = topo.fabric_links()[2];
        let cfg = DesConfig {
            horizon_ns: 500_000_000,
            ..Default::default()
        };
        let faults = DesFaults {
            flaps: vec![Flap {
                link: flapped,
                start_ns: 0,
                duration_ns: 400_000_000,
            }],
            ..Default::default()
        };
        let ds = demands(&topo, 60, 30, 8);
        let flows = simulate_des(&topo, &router, &cfg, &faults, &ds, &mut rng);
        let mut spiked = 0;
        for f in &flows {
            if f.true_path.contains(&flapped) && f.stats.rtt_max_us > 10_000 {
                spiked += 1;
            }
        }
        assert!(
            spiked > 0,
            "flows over the flapping link must see RTT spikes"
        );
    }

    #[test]
    fn telemetry_paths_are_contiguous() {
        let topo = testbed();
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(9);
        let ds = demands(&topo, 30, 20, 10);
        let flows = simulate_des(
            &topo,
            &router,
            &DesConfig::default(),
            &DesFaults::default(),
            &ds,
            &mut rng,
        );
        for f in &flows {
            let mut at = f.key.src;
            for l in &f.true_path {
                assert_eq!(topo.link(*l).src, at);
                at = topo.link(*l).dst;
            }
            assert_eq!(at, f.key.dst);
        }
    }
}
