//! Benchmark-owned, seeded workload generators.
//!
//! Everything the product sees is made here from `--seed`: the same seed
//! gives the same inputs, and `input_digest` (FNV-1a over every generated
//! flow and truth set) makes input drift between two commits visible in
//! the diff of two result files. The fixtures are adapted from
//! `flock-bench` but deliberately do not depend on it, so a refactor of
//! `crates/bench` cannot silently change what this benchmark measures.
//! All of this runs outside every end-to-end clock.

use flock::netsim::dist::Pareto;
use flock::netsim::failure::{FailureScenario, DEFAULT_NOISE_MAX};
use flock::netsim::flowsim::{run_probes, simulate_flows, FlowSimConfig};
use flock::netsim::traffic::{generate_demands, FlowDemand, TrafficConfig, TrafficPattern};
use flock::telemetry::agent::{AgentConfig, AgentCore, FlowSample};
use flock::telemetry::{plan_a1_probes, FlowRecord, MonitoredFlow, ProbeSpec, TrafficClass};
use flock::topology::clos::three_tier;
use flock::topology::{
    ClosParams, GroundTruth, LinkId, NodeId, NodeRole, Router, SpinePlanes, Topology,
};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};

/// Window length agents and pipeline agree on; one benchmark epoch is
/// one tumbling window.
pub const EPOCH_MS: u64 = 1_000;

/// Traffic shape of a streaming workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Uniform host pairs, Pareto sizes (the paper's traffic model).
    Uniform,
    /// Inter-pod only, four RPC message sizes: highly repetitive
    /// `(path set, sent, bad)` evidence.
    RpcInterPod,
    /// 90% Pareto(1.05) fan-in to one storage rack from other pods, 10%
    /// inter-pod background: almost no two flows share `(sent, bad)`.
    ParetoFanIn,
}

/// Which gray links are active at each position of the epoch cycle.
/// Every choice a seed makes is among links that are equivalent under
/// the workload's traffic by the fabric's symmetry, so that seeds differ
/// in their inputs but not in the work those inputs cause.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// One random ToR→agg uplink, persistent over the whole cycle.
    PodUplink,
    /// One random spine→agg downlink into the storage rack's pod (it
    /// carries the fan-in), persistent over the whole cycle.
    StorageDownlink,
    /// A 12-position timeline cycling 0–3 concurrent gray links: one in
    /// each of two spine planes and one ToR–agg link inside a pod.
    Churn,
}

/// Frozen parameters of one streaming workload.
pub struct StreamSpec {
    pub servers: u32,
    pub flows_per_epoch: usize,
    /// Epochs in the input cycle.
    pub k: usize,
    /// Records travel agents → loopback TCP → reactor; otherwise flows
    /// are handed to `submit_flows` in memory.
    pub socket: bool,
    pub traffic: Traffic,
    pub faults: Faults,
}

/// Active links per cycle position of [`Faults::Churn`], as a bitmask
/// over (plane-a link, plane-b link, pod link). Positions 2, 3 and 8
/// have both planes blaming at once, which fires the refinement pass;
/// the wrap 11 → 0 heals everything.
const CHURN: [u8; 12] = [
    0b000, 0b001, 0b011, 0b111, 0b110, 0b100, 0b000, 0b010, 0b011, 0b101, 0b001, 0b110,
];

/// One epoch of the cycle.
pub struct EpochInput {
    /// The flows as the simulator produced them (in-memory hand-over).
    pub flows: Vec<MonitoredFlow>,
    /// What each agent of [`StreamInputs::agents`] exports, in agent
    /// order (socket hand-over; empty for in-memory workloads).
    pub exports: Vec<Vec<FlowRecord>>,
    /// What is actually broken during this epoch.
    pub truth: GroundTruth,
}

impl EpochInput {
    /// Records one hand-over of this epoch delivers to the pipeline.
    pub fn records(&self, socket: bool) -> usize {
        if socket {
            self.exports.iter().map(Vec::len).sum()
        } else {
            self.flows.len()
        }
    }
}

/// A generated streaming workload.
pub struct StreamInputs {
    pub clos: ClosParams,
    pub epochs: Vec<EpochInput>,
    /// One exporting agent per host, ascending host id (socket
    /// workloads only).
    pub agents: Vec<AgentCore>,
    pub digest: Fnv,
}

impl StreamInputs {
    /// Encode the hand-over of cycle position `pos` as pipeline epoch
    /// `index`: every agent's export as wire-v2 messages stamped with
    /// that epoch, dealt round-robin over `conns` connections.
    pub fn encode(&mut self, pos: usize, index: u64, conns: usize) -> Vec<Vec<Vec<u8>>> {
        let export_ms = index * EPOCH_MS + EPOCH_MS / 2;
        let mut out = vec![Vec::new(); conns];
        for (i, (agent, records)) in self
            .agents
            .iter_mut()
            .zip(&self.epochs[pos].exports)
            .enumerate()
        {
            let msgs = agent.encode_export(export_ms, records);
            out[i % conns].extend(msgs.iter().map(|m| m.to_vec()));
        }
        out
    }
}

/// Drop rate of a gray link: 150× the noise ceiling.
const GRAY_RATE: f64 = 0.015;

/// The pod of the rack `ParetoFanIn` traffic converges on.
fn storage_pod(topo: &Topology) -> u16 {
    topo.node(topo.host_leaf(topo.hosts()[0])).pod
}

fn inter_pod_pair(topo: &Topology, hosts: &[NodeId], rng: &mut StdRng) -> (NodeId, NodeId) {
    let pod_of = |h: NodeId| topo.node(topo.host_leaf(h)).pod;
    let src = *hosts.choose(rng).expect("fabric has hosts");
    loop {
        let dst = *hosts.choose(rng).expect("fabric has hosts");
        if pod_of(dst) != pod_of(src) {
            return (src, dst);
        }
    }
}

fn demands(topo: &Topology, spec: &StreamSpec, rng: &mut StdRng) -> Vec<FlowDemand> {
    const RPC_PACKETS: [u64; 4] = [40, 80, 160, 320];
    let hosts = topo.hosts();
    match spec.traffic {
        Traffic::Uniform => generate_demands(
            topo,
            &TrafficConfig::paper(spec.flows_per_epoch, TrafficPattern::Uniform),
            rng,
        ),
        Traffic::RpcInterPod => (0..spec.flows_per_epoch)
            .map(|_| {
                let (src, dst) = inter_pod_pair(topo, hosts, rng);
                let packets = *RPC_PACKETS.choose(rng).expect("palette is non-empty");
                FlowDemand { src, dst, packets }
            })
            .collect(),
        Traffic::ParetoFanIn => {
            let storage_leaf = topo.host_leaf(hosts[0]);
            let storage_pod = storage_pod(topo);
            let storage: Vec<NodeId> = hosts
                .iter()
                .copied()
                .filter(|&h| topo.host_leaf(h) == storage_leaf)
                .collect();
            // Mean 20 MB at a 1500-byte MSS: the elephant tail spans
            // 600–1M packets, so `(sent, bad)` pairs rarely repeat.
            let sizes = Pareto::with_mean(20_000_000.0, 1.05);
            (0..spec.flows_per_epoch)
                .map(|_| {
                    let (src, dst) = if rng.random_range(0..10u32) < 9 {
                        let src = loop {
                            let h = *hosts.choose(rng).expect("fabric has hosts");
                            if topo.node(topo.host_leaf(h)).pod != storage_pod {
                                break h;
                            }
                        };
                        (src, *storage.choose(rng).expect("rack has hosts"))
                    } else {
                        inter_pod_pair(topo, hosts, rng)
                    };
                    let packets = (sizes.sample(rng) / 1500.0).ceil().clamp(1.0, 1e6) as u64;
                    FlowDemand { src, dst, packets }
                })
                .collect()
        }
    }
}

/// Per cycle position, the gray links that are on.
fn fault_timeline(topo: &Topology, spec: &StreamSpec, rng: &mut StdRng) -> Vec<Vec<LinkId>> {
    let role = |n: NodeId| topo.node(n).role;
    let links_where = |keep: &dyn Fn(NodeId, NodeId) -> bool| -> Vec<LinkId> {
        topo.fabric_links()
            .into_iter()
            .filter(|&l| keep(topo.link(l).src, topo.link(l).dst))
            .collect()
    };
    match spec.faults {
        Faults::PodUplink => {
            let pool =
                links_where(&|src, dst| role(src) == NodeRole::Leaf && role(dst) == NodeRole::Agg);
            vec![vec![*pool.choose(rng).expect("pods have uplinks")]; spec.k]
        }
        Faults::StorageDownlink => {
            let pod = storage_pod(topo);
            let pool = links_where(&|src, dst| {
                role(src) == NodeRole::Spine
                    && role(dst) == NodeRole::Agg
                    && topo.node(dst).pod == pod
            });
            vec![vec![*pool.choose(rng).expect("pod has spine downlinks")]; spec.k]
        }
        Faults::Churn => {
            assert_eq!(spec.k, CHURN.len(), "churn timeline is 12 positions");
            let planes = SpinePlanes::derive(topo);
            assert!(planes.n_planes() >= 2, "churn needs a striped spine");
            let a = rng.random_range(0..planes.n_planes()) as u16;
            let b = (a + 1 + rng.random_range(0..planes.n_planes() - 1) as u16)
                % planes.n_planes() as u16;
            let pod = links_where(&|src, dst| {
                role(src) != NodeRole::Spine && role(dst) != NodeRole::Spine
            });
            let links = [
                *planes
                    .incident_links(topo, a)
                    .choose(rng)
                    .expect("plane has links"),
                *planes
                    .incident_links(topo, b)
                    .choose(rng)
                    .expect("plane has links"),
                *pod.choose(rng).expect("pods have links"),
            ];
            CHURN
                .iter()
                .map(|mask| {
                    (0..3)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| links[i])
                        .collect()
                })
                .collect()
        }
    }
}

/// What each host's agent exports for one epoch: the daemon's A2 shape
/// (flagged flows carry their traced path, the rest only endpoints).
fn agent_exports(
    agents: &mut [AgentCore],
    agent_of_node: &[usize],
    flows: &[MonitoredFlow],
) -> Vec<Vec<FlowRecord>> {
    for f in flows {
        agents[agent_of_node[f.key.src.idx()]].observe(FlowSample {
            key: f.key,
            packets: f.stats.packets,
            retransmissions: f.stats.retransmissions,
            bytes: f.stats.bytes,
            rtt_us: Some(f.stats.rtt_max_us),
            path: (f.stats.retransmissions > 0).then(|| f.true_path.clone()),
            class: TrafficClass::Passive,
        });
    }
    agents.iter_mut().map(AgentCore::export).collect()
}

/// Generate a streaming workload's epoch cycle.
pub fn stream_inputs(spec: &StreamSpec, seed: u64) -> StreamInputs {
    let clos = ClosParams::with_servers(spec.servers);
    let topo = three_tier(clos);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = FailureScenario::noise_only(&topo, DEFAULT_NOISE_MAX, &mut rng);
    let timeline = fault_timeline(&topo, spec, &mut rng);
    let hosts = if spec.socket { topo.hosts() } else { &[] };
    let mut agents: Vec<AgentCore> = hosts
        .iter()
        .map(|h| {
            AgentCore::new(AgentConfig {
                agent_id: h.0,
                epoch_hint_ms: Some(EPOCH_MS),
                ..Default::default()
            })
        })
        .collect();
    let mut agent_of_node = vec![usize::MAX; topo.node_count()];
    for (i, h) in hosts.iter().enumerate() {
        agent_of_node[h.idx()] = i;
    }
    let mut digest = Fnv::new();
    let epochs = timeline
        .into_iter()
        .map(|active| {
            let mut scenario = noise.clone();
            for &link in &active {
                scenario.drop_rate[link.idx()] = GRAY_RATE;
                scenario.truth.failed_links.push(link);
            }
            scenario.truth.failed_links.sort_unstable();
            let demands = demands(&topo, spec, &mut rng);
            let flows = simulate_flows(
                &topo,
                &router,
                &scenario,
                &demands,
                &FlowSimConfig::default(),
                &mut rng,
            );
            digest.flows(&flows);
            digest.truth(&scenario.truth);
            let exports = if spec.socket {
                agent_exports(&mut agents, &agent_of_node, &flows)
            } else {
                Vec::new()
            };
            EpochInput {
                flows,
                exports,
                truth: scenario.truth,
            }
        })
        .collect();
    StreamInputs {
        clos,
        epochs,
        agents,
        digest,
    }
}

/// Frozen parameters of the offline workload.
pub struct OfflineSpec {
    pub servers: u32,
    pub flows: usize,
    pub faults: usize,
    pub drop_range: (f64, f64),
    /// Distinct traces before the cycle repeats.
    pub k: usize,
}

/// The part of the offline workload shared by every trace.
pub struct OfflineInputs {
    pub clos: ClosParams,
    pub topo: Topology,
    probes: Vec<ProbeSpec>,
    seed: u64,
}

/// One offline trace.
pub struct Trace {
    pub flows: Vec<MonitoredFlow>,
    pub truth: GroundTruth,
}

pub fn offline_inputs(spec: &OfflineSpec, seed: u64) -> OfflineInputs {
    let clos = ClosParams::with_servers(spec.servers);
    let topo = three_tier(clos);
    let probes = plan_a1_probes(&topo, &Router::new(&topo), 50, Some(4096));
    OfflineInputs {
        clos,
        topo,
        probes,
        seed,
    }
}

impl OfflineInputs {
    /// Trace `pos` of the cycle: a function of `(seed, pos)` only, so a
    /// second pass regenerates exactly what the first pass localized.
    /// `router` is the generator's own (its route cache stays warm over
    /// the run; the product gets a fresh one per operation).
    pub fn trace(&self, spec: &OfflineSpec, router: &Router<'_>, pos: usize) -> Trace {
        let topo = &self.topo;
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(pos as u64),
        );
        // Silent drops on `faults` random fabric links. Their rates come
        // from one evenly spaced ladder over `drop_range` spanning the whole
        // cycle — fault j of trace `pos` takes rung `pos + j·k`, so every
        // trace has a faint, a middling and a plain fault and every seed
        // scores accuracy on the same mix of rates.
        let mut scenario = FailureScenario::noise_only(topo, DEFAULT_NOISE_MAX, &mut rng);
        let mut links = topo.fabric_links();
        links.shuffle(&mut rng);
        let (lo, hi) = spec.drop_range;
        let rungs = (spec.k * spec.faults) as f64;
        for (j, &link) in links.iter().take(spec.faults).enumerate() {
            let rung = (pos + j * spec.k) as f64 + 0.5;
            scenario.drop_rate[link.idx()] = lo + (hi - lo) * rung / rungs;
            scenario.truth.failed_links.push(link);
        }
        scenario.truth.failed_links.sort_unstable();
        let demands = generate_demands(
            topo,
            &TrafficConfig::paper(spec.flows, TrafficPattern::Uniform),
            &mut rng,
        );
        let cfg = FlowSimConfig::default();
        let mut flows = simulate_flows(topo, router, &scenario, &demands, &cfg, &mut rng);
        flows.extend(run_probes(&scenario, &self.probes, &cfg, &mut rng));
        Trace {
            flows,
            truth: scenario.truth,
        }
    }
}

/// FNV-1a, 64 bit: the digest of generated inputs and of verdicts.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn flows(&mut self, flows: &[MonitoredFlow]) {
        for f in flows {
            self.u64(u64::from(f.key.src.0) << 32 | u64::from(f.key.dst.0));
            self.u64(u64::from(f.key.src_port) << 16 | u64::from(f.key.dst_port));
            self.u64(f.stats.packets);
            self.u64(f.stats.retransmissions);
            for l in &f.true_path {
                self.u64(u64::from(l.0));
            }
        }
    }

    pub fn truth(&mut self, truth: &GroundTruth) {
        for l in &truth.failed_links {
            self.u64(u64::from(l.0));
        }
    }

    /// The digest folded to 32 bits, exact as a JSON number.
    pub fn folded(&self) -> f64 {
        ((self.0 >> 32) ^ (self.0 & 0xffff_ffff)) as f64
    }
}
