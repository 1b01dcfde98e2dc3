//! Property-based tests of the wire codec: arbitrary record batches
//! round-trip exactly under any stream chunking, and the fault-tolerant
//! decoder ([`StreamDecoder::next_step`]) survives arbitrary adversarial
//! bytes — every step is a message, a typed quarantine, a resync, or a
//! request for more input; never a panic, never a livelock.

use flock_telemetry::wire::{
    decode_message, encode_message, DecodeStep, StreamDecoder, WireError, FLAG_HAS_PATH,
    HEADER_LEN, RECORD_LEN,
};
use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
use flock_topology::{LinkId, NodeId};
use proptest::prelude::*;

/// Any record in its canonical form: the path is known (non-empty, sent
/// as an attachment) or unknown (empty, sent without one).
fn arb_record() -> impl Strategy<Value = MonitoredFlow> {
    let key = (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    );
    let stats = (
        0u64..(1 << 48),
        0u64..(1 << 48),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
    );
    let extras = (prop::collection::vec(any::<u32>(), 0..32), any::<bool>());
    (key, stats, extras).prop_map(
        |(
            (src, dst, sp, dp, proto),
            (pkts, retx, bytes, rtt_sum, rtt_cnt, rtt_max),
            (path, probe),
        )| MonitoredFlow {
            key: FlowKey {
                src: NodeId(src),
                dst: NodeId(dst),
                src_port: sp,
                dst_port: dp,
                proto,
            },
            stats: FlowStats {
                packets: pkts,
                retransmissions: retx,
                bytes,
                rtt_sum_us: rtt_sum,
                rtt_count: rtt_cnt,
                rtt_max_us: rtt_max,
            },
            class: if probe {
                TrafficClass::Probe
            } else {
                TrafficClass::Passive
            },
            true_path: path.into_iter().map(LinkId).collect(),
        },
    )
}

/// `frame` re-laid in the retired version-2 layout: version 2 and an
/// 8-byte epoch field after the header (40 bytes), `msg_len` adjusted.
fn v2_frame(frame: &[u8]) -> Vec<u8> {
    let mut v2 = frame[..HEADER_LEN].to_vec();
    v2[4..6].copy_from_slice(&2u16.to_be_bytes());
    v2.extend_from_slice(&0u64.to_be_bytes());
    v2.extend_from_slice(&frame[HEADER_LEN..]);
    let len = v2.len() as u32;
    v2[8..12].copy_from_slice(&len.to_be_bytes());
    v2
}

/// A record flagged as carrying a path attachment of zero links decodes
/// to an empty (unknown) path, and re-encodes in the canonical form: no
/// attachment, the fixed 52 bytes.
#[test]
fn zero_link_attachment_decodes_to_an_empty_path() {
    let rec = MonitoredFlow {
        key: FlowKey::tcp(NodeId(3), NodeId(9), 4001, 80),
        stats: FlowStats {
            packets: 10,
            ..Default::default()
        },
        class: TrafficClass::Passive,
        true_path: Vec::new(),
    };
    let canonical = encode_message(1, 2, 3, std::slice::from_ref(&rec));
    assert_eq!(canonical.len(), HEADER_LEN + RECORD_LEN);

    // Set the record's flags byte (after src, dst, ports and proto) and
    // append a zero path length.
    let mut flagged = canonical.to_vec();
    flagged[HEADER_LEN + 13] |= FLAG_HAS_PATH;
    flagged.extend_from_slice(&0u16.to_be_bytes());
    let len = flagged.len() as u32;
    flagged[8..12].copy_from_slice(&len.to_be_bytes());

    let msg = decode_message(&flagged).unwrap();
    assert_eq!(msg.records, vec![rec]);
    assert_eq!(encode_message(1, 2, 3, &msg.records), canonical);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_any_batch(
        records in prop::collection::vec(arb_record(), 0..20),
        agent_id: u32,
        time: u64,
        seq: u64,
    ) {
        let bytes = encode_message(agent_id, time, seq, &records);
        let msg = decode_message(&bytes).unwrap();
        prop_assert_eq!(msg.agent_id, agent_id);
        prop_assert_eq!(msg.export_time_ms, time);
        prop_assert_eq!(msg.sequence, seq);
        prop_assert_eq!(msg.records, records);
    }

    #[test]
    fn stream_decoder_reassembles_any_chunking(
        records in prop::collection::vec(arb_record(), 1..8),
        chunk in 1usize..64,
        n_messages in 1usize..4,
        versions in prop::collection::vec(any::<bool>(), 1..4),
    ) {
        // Interleave current frames with frames in the retired version-2
        // layout: under any chunking the decoder delivers every current
        // frame and quarantines each version-2 frame whole.
        let mut all = Vec::new();
        for i in 0..n_messages {
            let frame = encode_message(7, i as u64, i as u64, &records);
            if versions[i % versions.len()] {
                all.extend_from_slice(&v2_frame(&frame));
            } else {
                all.extend_from_slice(&frame);
            }
        }
        let mut dec = StreamDecoder::new();
        let mut seen = 0usize;
        for piece in all.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_step() {
                    DecodeStep::Message(msg) => {
                        prop_assert!(!versions[seen % versions.len()]);
                        prop_assert_eq!(&msg.records, &records);
                        prop_assert_eq!(msg.export_time_ms, seen as u64);
                    }
                    DecodeStep::Quarantined(WireError::BadVersion(2)) => {
                        prop_assert!(versions[seen % versions.len()]);
                    }
                    DecodeStep::NeedMore => break,
                    other => panic!("aligned stream produced {other:?}"),
                }
                seen += 1;
            }
        }
        prop_assert_eq!(seen, n_messages);
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_always_progress(
        garbage in prop::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..257,
    ) {
        // Fully adversarial input: whatever the bytes decode to, every
        // step must be typed, and each non-NeedMore step must consume
        // at least one byte (no livelock on any input).
        let mut dec = StreamDecoder::new();
        for piece in garbage.chunks(chunk) {
            dec.feed(piece);
            loop {
                let before = dec.buffered();
                match dec.next_step() {
                    DecodeStep::NeedMore => break,
                    DecodeStep::Message(_)
                    | DecodeStep::Quarantined(_)
                    | DecodeStep::Resynced { .. } => {
                        prop_assert!(
                            dec.buffered() < before,
                            "step consumed nothing: {} -> {}",
                            before,
                            dec.buffered()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn valid_frames_survive_surrounding_garbage(
        records in prop::collection::vec(arb_record(), 1..5),
        pre in prop::collection::vec(any::<u8>(), 1..128),
        mid in prop::collection::vec(any::<u8>(), 1..128),
        chunk in 1usize..97,
    ) {
        // Garbage, frame, garbage, frame: the decoder must deliver both
        // messages, resyncing over every byte it cannot use.
        let frame_a = encode_message(3, 10, 0, &records);
        let frame_b = encode_message(3, 11, 1, &records);
        let mut stream = Vec::new();
        stream.extend_from_slice(&pre);
        stream.extend_from_slice(&frame_a);
        stream.extend_from_slice(&mid);
        stream.extend_from_slice(&frame_b);

        let mut dec = StreamDecoder::new();
        let mut times = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_step() {
                    DecodeStep::NeedMore => break,
                    DecodeStep::Message(m) => {
                        prop_assert_eq!(&m.records, &records);
                        times.push(m.export_time_ms);
                    }
                    DecodeStep::Quarantined(_) | DecodeStep::Resynced { .. } => {}
                }
            }
        }
        // Garbage may happen to embed a valid-looking frame header, in
        // which case bytes of a real frame can be consumed as that
        // phantom frame's payload — but the *aligned* case (garbage
        // containing no magic) must always deliver both messages.
        let magic = 0x464c_4b31u32.to_be_bytes();
        let clean = |g: &[u8]| !g.windows(4).any(|w| w == magic)
            && !g.iter().rev().take(3).any(|&b| b == magic[0]);
        if clean(&pre) && clean(&mid) {
            prop_assert_eq!(&times, &vec![10, 11],
                "both valid frames must survive garbage resync");
        }
    }

    #[test]
    fn truncation_never_panics(
        records in prop::collection::vec(arb_record(), 1..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = encode_message(1, 2, 3, &records);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        // Any prefix must decode to Ok or a clean error — never panic.
        let _ = decode_message(&bytes[..cut]);
    }
}
