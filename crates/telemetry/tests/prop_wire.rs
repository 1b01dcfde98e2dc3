//! Property-based tests of the wire codec: arbitrary record batches
//! round-trip exactly under any stream chunking, and the fault-tolerant
//! decoder ([`StreamDecoder::next_step`]) survives arbitrary adversarial
//! bytes — every step is a message, a typed quarantine, a resync, or a
//! request for more input; never a panic, never a livelock.

use flock_telemetry::wire::{
    decode_message, encode_message, encode_message_v2, DecodeStep, StreamDecoder,
};
use flock_telemetry::{FlowKey, FlowRecord, FlowStats, TrafficClass};
use flock_topology::{LinkId, NodeId};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
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
    let extras = (
        prop::option::of(prop::collection::vec(any::<u32>(), 0..32)),
        any::<bool>(),
    );
    (key, stats, extras).prop_map(
        |(
            (src, dst, sp, dp, proto),
            (pkts, retx, bytes, rtt_sum, rtt_cnt, rtt_max),
            (path, probe),
        )| FlowRecord {
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
            path: path.map(|v| v.into_iter().map(LinkId).collect()),
        },
    )
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
    fn v2_roundtrip_any_batch(
        records in prop::collection::vec(arb_record(), 0..20),
        agent_id: u32,
        time: u64,
        seq: u64,
        epoch_seq: u64,
    ) {
        let bytes = encode_message_v2(agent_id, time, seq, epoch_seq, &records);
        let msg = decode_message(&bytes).unwrap();
        prop_assert_eq!(msg.agent_id, agent_id);
        prop_assert_eq!(msg.export_time_ms, time);
        prop_assert_eq!(msg.sequence, seq);
        prop_assert_eq!(msg.epoch_seq, Some(epoch_seq));
        prop_assert_eq!(msg.records, records);
    }

    #[test]
    fn stream_decoder_reassembles_any_chunking(
        records in prop::collection::vec(arb_record(), 1..8),
        chunk in 1usize..64,
        n_messages in 1usize..4,
        versions in prop::collection::vec(any::<bool>(), 1..4),
    ) {
        // Interleave v1 and v2 frames on one stream: the decoder must
        // negotiate per message.
        let mut all = Vec::new();
        for i in 0..n_messages {
            let v2 = versions[i % versions.len()];
            if v2 {
                all.extend_from_slice(&encode_message_v2(7, i as u64, i as u64, i as u64 + 9, &records));
            } else {
                all.extend_from_slice(&encode_message(7, i as u64, i as u64, &records));
            }
        }
        let mut dec = StreamDecoder::new();
        let mut seen = 0usize;
        for piece in all.chunks(chunk) {
            dec.feed(piece);
            loop {
                let msg = match dec.next_step() {
                    DecodeStep::Message(msg) => msg,
                    DecodeStep::NeedMore => break,
                    other => panic!("clean stream produced {other:?}"),
                };
                prop_assert_eq!(&msg.records, &records);
                prop_assert_eq!(msg.export_time_ms, seen as u64);
                let expect_v2 = versions[seen % versions.len()];
                prop_assert_eq!(msg.epoch_seq, expect_v2.then(|| seen as u64 + 9));
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
        let frame_a = encode_message_v2(3, 10, 0, 7, &records);
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
        v2: bool,
    ) {
        let bytes = if v2 {
            encode_message_v2(1, 2, 3, 4, &records)
        } else {
            encode_message(1, 2, 3, &records)
        };
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        // Any prefix must decode to Ok or a clean error — never panic.
        let _ = decode_message(&bytes[..cut]);
    }
}
