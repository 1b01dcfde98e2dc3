//! The IPFIX-style export wire format.
//!
//! An export *message* carries a fixed header followed by a run of flow
//! records. Each record is a fixed 52-byte stats block — matching the
//! paper's "52 bytes per flow" (§5.1) — optionally followed by a
//! variable-length path attachment when the exporter knows the flow's
//! exact route (probes, INT, A2 traceroutes).
//!
//! One header version is spoken: the 32-byte v1 header. Its
//! `export_time_ms` is all the stream layer needs to window a record
//! (`export_time_ms / epoch_ms`), so the header carries no epoch field.
//! Every frame declares its version; a frame of any other version is
//! quarantined whole as [`WireError::BadVersion`].
//!
//! ```text
//! message   := header record*
//! header    := magic:u32 version:u16 record_count:u16 msg_len:u32
//!              agent_id:u32 export_time_ms:u64 sequence:u64       (32 B)
//! record    := src:u32 dst:u32 sport:u16 dport:u16 proto:u8 flags:u8
//!              packets:u48 retrans:u48 bytes:u64 rtt_sum_us:u64
//!              rtt_count:u32 rtt_max_us:u32 reserved:u16          (52 B)
//! path      := len:u16 link:u32{len}       (present iff flags & HAS_PATH)
//! ```
//!
//! All integers are big-endian. `msg_len` is the total encoded size of the
//! message including the header, which makes stream framing trivial: a
//! decoder buffers bytes until `msg_len` are available.

use crate::flow::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use flock_topology::{LinkId, NodeId};
use std::fmt;

/// Message magic: `"FLK1"`.
pub const MAGIC: u32 = 0x464c_4b31;
/// The wire protocol version.
pub const VERSION: u16 = 1;
/// Size of the message header in bytes.
pub const HEADER_LEN: usize = 32;
/// Size of the fixed flow-stats record in bytes.
pub const RECORD_LEN: usize = 52;

/// Record flag: a path attachment follows the fixed record.
pub const FLAG_HAS_PATH: u8 = 0b0000_0001;
/// Record flag: the flow is an active probe.
pub const FLAG_PROBE: u8 = 0b0000_0010;

const MAX_PATH_LEN: usize = 64;
const MAX_RECORDS: usize = u16::MAX as usize;

/// Largest `msg_len` a header can legitimately declare: a header plus
/// `MAX_RECORDS` records each carrying a maximal path attachment.
/// Anything larger is corruption — the framing layer refuses to buffer
/// toward it and resyncs instead.
pub const MAX_MSG_LEN: usize = HEADER_LEN + MAX_RECORDS * (RECORD_LEN + 2 + MAX_PATH_LEN * 4);

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Magic bytes did not match.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Header-declared length is inconsistent with the decoded content.
    LengthMismatch {
        /// Length the header declared.
        declared: u32,
        /// Length actually consumed.
        consumed: u32,
    },
    /// A path attachment exceeded `MAX_PATH_LEN` entries.
    PathTooLong(u16),
    /// The message was truncated mid-record.
    Truncated,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::LengthMismatch { declared, consumed } => {
                write!(
                    f,
                    "length mismatch: declared {declared}, consumed {consumed}"
                )
            }
            WireError::PathTooLong(n) => write!(f, "path attachment too long: {n}"),
            WireError::Truncated => write!(f, "message truncated"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded export message.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportMessage {
    /// Identifier of the exporting agent.
    pub agent_id: u32,
    /// Export timestamp, milliseconds since an agent-chosen epoch.
    pub export_time_ms: u64,
    /// Per-agent message sequence number.
    pub sequence: u64,
    /// The flow records; a record sent without a path attachment has an
    /// empty `true_path`.
    pub records: Vec<MonitoredFlow>,
}

/// Encode an export message. Panics if more than `u16::MAX` records are
/// passed (the agent's exporter chunks before calling this).
pub fn encode_message(
    agent_id: u32,
    export_time_ms: u64,
    sequence: u64,
    records: &[MonitoredFlow],
) -> Bytes {
    assert!(
        records.len() <= MAX_RECORDS,
        "too many records in one message"
    );
    let mut body = BytesMut::with_capacity(HEADER_LEN + records.len() * (RECORD_LEN + 8));
    body.put_u32(MAGIC);
    body.put_u16(VERSION);
    body.put_u16(records.len() as u16);
    body.put_u32(0); // msg_len backpatched below
    body.put_u32(agent_id);
    body.put_u64(export_time_ms);
    body.put_u64(sequence);
    debug_assert_eq!(body.len(), HEADER_LEN);

    for rec in records {
        encode_record(&mut body, rec);
    }
    let len = body.len() as u32;
    body[8..12].copy_from_slice(&len.to_be_bytes());
    body.freeze()
}

/// A record carries a path attachment iff its path is known (non-empty).
fn encode_record(out: &mut BytesMut, rec: &MonitoredFlow) {
    let path = &rec.true_path;
    let mut flags = 0u8;
    if !path.is_empty() {
        flags |= FLAG_HAS_PATH;
    }
    if rec.class == TrafficClass::Probe {
        flags |= FLAG_PROBE;
    }
    let start = out.len();
    out.put_u32(rec.key.src.0);
    out.put_u32(rec.key.dst.0);
    out.put_u16(rec.key.src_port);
    out.put_u16(rec.key.dst_port);
    out.put_u8(rec.key.proto);
    out.put_u8(flags);
    out.put_uint(rec.stats.packets.min((1 << 48) - 1), 6);
    out.put_uint(rec.stats.retransmissions.min((1 << 48) - 1), 6);
    out.put_u64(rec.stats.bytes);
    out.put_u64(rec.stats.rtt_sum_us);
    out.put_u32(rec.stats.rtt_count);
    out.put_u32(rec.stats.rtt_max_us);
    out.put_u16(0); // reserved
    debug_assert_eq!(out.len() - start, RECORD_LEN);

    if !path.is_empty() {
        assert!(path.len() <= MAX_PATH_LEN, "path longer than wire maximum");
        out.put_u16(path.len() as u16);
        for l in path {
            out.put_u32(l.0);
        }
    }
}

/// Decode one complete export message from `buf`.
///
/// `buf` must contain exactly one message (as framed by
/// [`StreamDecoder`] or a one-shot caller).
pub fn decode_message(mut buf: &[u8]) -> Result<ExportMessage, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let total = buf.len();
    let magic = buf.get_u32();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let record_count = buf.get_u16() as usize;
    let msg_len = buf.get_u32();
    let agent_id = buf.get_u32();
    let export_time_ms = buf.get_u64();
    let sequence = buf.get_u64();

    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        if buf.remaining() < RECORD_LEN {
            return Err(WireError::Truncated);
        }
        let src = NodeId(buf.get_u32());
        let dst = NodeId(buf.get_u32());
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let proto = buf.get_u8();
        let flags = buf.get_u8();
        let packets = buf.get_uint(6);
        let retransmissions = buf.get_uint(6);
        let bytes = buf.get_u64();
        let rtt_sum_us = buf.get_u64();
        let rtt_count = buf.get_u32();
        let rtt_max_us = buf.get_u32();
        let _reserved = buf.get_u16();

        let true_path = if flags & FLAG_HAS_PATH != 0 {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated);
            }
            let n = buf.get_u16();
            if n as usize > MAX_PATH_LEN {
                return Err(WireError::PathTooLong(n));
            }
            if buf.remaining() < n as usize * 4 {
                return Err(WireError::Truncated);
            }
            (0..n).map(|_| LinkId(buf.get_u32())).collect()
        } else {
            Vec::new()
        };

        records.push(MonitoredFlow {
            key: FlowKey {
                src,
                dst,
                src_port,
                dst_port,
                proto,
            },
            stats: FlowStats {
                packets,
                retransmissions,
                bytes,
                rtt_sum_us,
                rtt_count,
                rtt_max_us,
            },
            class: if flags & FLAG_PROBE != 0 {
                TrafficClass::Probe
            } else {
                TrafficClass::Passive
            },
            true_path,
        });
    }
    let consumed = (total - buf.remaining()) as u32;
    if consumed != msg_len {
        return Err(WireError::LengthMismatch {
            declared: msg_len,
            consumed,
        });
    }
    Ok(ExportMessage {
        agent_id,
        export_time_ms,
        sequence,
        records,
    })
}

/// Incremental stream decoder: feed arbitrary byte chunks, pop complete
/// messages. Used by the collector's per-connection readers.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: BytesMut,
}

impl StreamDecoder {
    /// Create an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Pop the next decode event without poisoning the stream.
    ///
    /// A malformed region of the stream does not discard everything
    /// buffered: a frame whose length field is trustworthy but whose
    /// content is not is dropped as a unit
    /// ([`DecodeStep::Quarantined`]), and garbage with no usable
    /// header is skipped byte-wise to the next plausible frame boundary
    /// ([`DecodeStep::Resynced`]). The caller decides when accumulated
    /// quarantine/resync volume crosses its kill threshold — teardown is
    /// a policy decision, not a framing side effect.
    pub fn next_step(&mut self) -> DecodeStep {
        if self.buf.len() < HEADER_LEN {
            return DecodeStep::NeedMore;
        }
        let magic = u32::from_be_bytes(self.buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            return self.resync(WireError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(self.buf[4..6].try_into().unwrap());
        let msg_len = u32::from_be_bytes(self.buf[8..12].try_into().unwrap()) as usize;
        // The declared length is only trusted inside sane bounds; an insane
        // length means the header itself is corrupt, so frame-skipping
        // would desynchronize us further — hunt for the next magic instead.
        if !(HEADER_LEN..=MAX_MSG_LEN).contains(&msg_len) {
            return self.resync(WireError::LengthMismatch {
                declared: msg_len as u32,
                consumed: HEADER_LEN as u32,
            });
        }
        if self.buf.len() < msg_len {
            return DecodeStep::NeedMore;
        }
        if version != VERSION {
            // Length-framed but undecodable: drop exactly this frame and
            // keep the boundary for the next one.
            let _ = self.buf.split_to(msg_len);
            return DecodeStep::Quarantined(WireError::BadVersion(version));
        }
        let frame = self.buf.split_to(msg_len);
        match decode_message(&frame) {
            Ok(msg) => DecodeStep::Message(msg),
            // The frame was consumed whole, so the stream position is
            // still aligned; only this message is lost.
            Err(e) => DecodeStep::Quarantined(e),
        }
    }

    /// Skip at least one byte, then scan for the next `MAGIC` occurrence.
    /// Keeps up to 3 tail bytes (a potential partial magic) buffered when
    /// no full match is found.
    fn resync(&mut self, cause: WireError) -> DecodeStep {
        let magic = MAGIC.to_be_bytes();
        let dropped = match self.buf[1..].windows(4).position(|w| w == magic) {
            Some(i) => 1 + i,
            None => self.buf.len().saturating_sub(3).max(1),
        };
        let _ = self.buf.split_to(dropped);
        DecodeStep::Resynced { dropped, cause }
    }

    /// Bytes currently buffered (for tests/diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// One step of fault-tolerant stream decoding ([`StreamDecoder::next_step`]).
///
/// `Quarantined` and `Resynced` are progress, not termination: the caller
/// should count them (per [`WireError`] cause) and keep stepping; the
/// stream stays usable unless the caller's own quarantine budget decides
/// otherwise.
#[derive(Debug)]
pub enum DecodeStep {
    /// A complete, valid message.
    Message(ExportMessage),
    /// Not enough buffered bytes for the next frame; feed more.
    NeedMore,
    /// A length-framed message failed decoding; the whole frame was
    /// discarded and the stream is still aligned on the next boundary.
    Quarantined(WireError),
    /// Garbage at the head of the stream: `dropped` bytes were skipped to
    /// the next plausible frame boundary (or to a 3-byte tail when no
    /// magic was found in the buffered window).
    Resynced {
        /// Bytes discarded while hunting for the next magic.
        dropped: usize,
        /// What made the head undecodable.
        cause: WireError,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `stream` in `chunk`-byte pieces and collect every message; a
    /// clean stream must never quarantine or resync.
    fn decode_chunked(dec: &mut StreamDecoder, stream: &[u8], chunk: usize) -> Vec<ExportMessage> {
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_step() {
                    DecodeStep::Message(msg) => out.push(msg),
                    DecodeStep::NeedMore => break,
                    other => panic!("clean stream produced {other:?}"),
                }
            }
        }
        out
    }

    fn sample_records() -> Vec<MonitoredFlow> {
        vec![
            MonitoredFlow {
                key: FlowKey::tcp(NodeId(3), NodeId(9), 4001, 80),
                stats: FlowStats {
                    packets: 1234,
                    retransmissions: 7,
                    bytes: 1_850_000,
                    rtt_sum_us: 55_000,
                    rtt_count: 11,
                    rtt_max_us: 9_000,
                },
                class: TrafficClass::Passive,
                true_path: Vec::new(),
            },
            MonitoredFlow {
                key: FlowKey::probe(NodeId(3), NodeId(40), 2),
                stats: FlowStats {
                    packets: 40,
                    retransmissions: 1,
                    bytes: 4_000,
                    rtt_sum_us: 2_000,
                    rtt_count: 39,
                    rtt_max_us: 80,
                },
                class: TrafficClass::Probe,
                true_path: vec![
                    LinkId(0),
                    LinkId(8),
                    LinkId(22),
                    LinkId(23),
                    LinkId(9),
                    LinkId(1),
                ],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records();
        let bytes = encode_message(42, 1111, 5, &recs);
        let msg = decode_message(&bytes).unwrap();
        assert_eq!(msg.agent_id, 42);
        assert_eq!(msg.export_time_ms, 1111);
        assert_eq!(msg.sequence, 5);
        assert_eq!(msg.records, recs);
    }

    /// A frame laid out as the retired version 2 did: the header with
    /// version 2, an 8-byte epoch field, then the records (40-byte
    /// header, `msg_len` covering all of it).
    fn v2_frame(recs: &[MonitoredFlow]) -> Vec<u8> {
        let v1 = encode_message(7, 1_500, 1, recs);
        let mut frame = v1[..HEADER_LEN].to_vec();
        frame[4..6].copy_from_slice(&2u16.to_be_bytes());
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.extend_from_slice(&v1[HEADER_LEN..]);
        let len = frame.len() as u32;
        frame[8..12].copy_from_slice(&len.to_be_bytes());
        frame
    }

    #[test]
    fn stream_decoder_handles_mixed_versions() {
        // A version-2 frame between two current ones, fed in chunks that
        // split all three: it is quarantined whole once its last byte
        // arrives, and both neighbours decode.
        let recs = sample_records();
        let mut all = Vec::new();
        all.extend_from_slice(&encode_message(1, 10, 0, &recs));
        all.extend_from_slice(&v2_frame(&recs[..1]));
        all.extend_from_slice(&encode_message(1, 20, 2, &recs));

        let mut dec = StreamDecoder::new();
        let mut steps = Vec::new();
        for piece in all.chunks(11) {
            dec.feed(piece);
            loop {
                match dec.next_step() {
                    DecodeStep::Message(m) => steps.push(Ok(m.sequence)),
                    DecodeStep::Quarantined(e) => steps.push(Err(e)),
                    DecodeStep::NeedMore => break,
                    other => panic!("aligned stream produced {other:?}"),
                }
            }
        }
        assert_eq!(steps, vec![Ok(0), Err(WireError::BadVersion(2)), Ok(2)]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stream_decoder_rejects_unknown_version_early() {
        let mut dec = StreamDecoder::new();
        let mut hdr = encode_message(1, 0, 0, &[]).to_vec();
        hdr[4..6].copy_from_slice(&9u16.to_be_bytes());
        dec.feed(&hdr);
        assert!(matches!(
            dec.next_step(),
            DecodeStep::Quarantined(WireError::BadVersion(9))
        ));
        assert_eq!(dec.buffered(), 0, "the frame is dropped as a unit");
    }

    #[test]
    fn record_is_exactly_52_bytes_without_path() {
        let recs = vec![MonitoredFlow {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats::default(),
            class: TrafficClass::Passive,
            true_path: Vec::new(),
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        assert_eq!(bytes.len(), HEADER_LEN + RECORD_LEN);
    }

    #[test]
    fn stream_decoder_reassembles_split_messages() {
        let recs = sample_records();
        let m1 = encode_message(1, 10, 0, &recs);
        let m2 = encode_message(1, 20, 1, &recs[..1]);
        let mut all = Vec::new();
        all.extend_from_slice(&m1);
        all.extend_from_slice(&m2);

        let mut dec = StreamDecoder::new();
        // Feed in awkward 7-byte chunks.
        let out = decode_chunked(&mut dec, &all, 7);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sequence, 0);
        assert_eq!(out[1].sequence, 1);
        assert_eq!(out[1].records.len(), 1);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut dec = StreamDecoder::new();
        dec.feed(&[0u8; HEADER_LEN]);
        assert!(matches!(
            dec.next_step(),
            DecodeStep::Resynced {
                cause: WireError::BadMagic(0),
                ..
            }
        ));
        assert_eq!(dec.buffered(), 3, "only a possible partial magic stays");
    }

    #[test]
    fn truncated_message_is_detected() {
        let recs = sample_records();
        let bytes = encode_message(42, 0, 0, &recs);
        // Chop the message: the one-shot decoder must not panic.
        for cut in [HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let err = decode_message(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::LengthMismatch { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn version_check() {
        let recs = sample_records();
        let bytes = encode_message(42, 0, 0, &recs);
        let mut bad = bytes.to_vec();
        bad[4..6].copy_from_slice(&99u16.to_be_bytes());
        assert_eq!(decode_message(&bad), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn oversized_path_rejected_on_decode() {
        let recs = vec![MonitoredFlow {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats::default(),
            class: TrafficClass::Passive,
            true_path: vec![LinkId(1); 4],
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        let mut bad = bytes.to_vec();
        // Overwrite the path length field with a huge value.
        let off = HEADER_LEN + RECORD_LEN;
        bad[off..off + 2].copy_from_slice(&1000u16.to_be_bytes());
        assert!(matches!(
            decode_message(&bad),
            Err(WireError::PathTooLong(1000)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn next_step_resyncs_across_garbage() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        let mut all = Vec::new();
        all.extend_from_slice(&good);
        all.extend_from_slice(&[0xde; 57]); // garbage, no magic
        all.extend_from_slice(&good);

        let mut dec = StreamDecoder::new();
        dec.feed(&all);
        let mut msgs = 0;
        let mut resyncs = 0;
        let mut dropped = 0;
        loop {
            match dec.next_step() {
                DecodeStep::Message(_) => msgs += 1,
                DecodeStep::Resynced { dropped: d, cause } => {
                    assert!(matches!(cause, WireError::BadMagic(_)));
                    resyncs += 1;
                    dropped += d;
                }
                DecodeStep::Quarantined(e) => panic!("unexpected quarantine: {e}"),
                DecodeStep::NeedMore => break,
            }
        }
        assert_eq!(msgs, 2, "both framed messages survive the garbage");
        assert!(resyncs >= 1);
        assert_eq!(dropped, 57, "exactly the garbage bytes are dropped");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_step_quarantines_bad_frame_and_keeps_alignment() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        // Corrupt the path-length field of the second record so the frame
        // decodes inconsistently but the outer length framing is intact.
        let mut bad = good.to_vec();
        let off = HEADER_LEN + RECORD_LEN * 2; // m2's path-length field
        bad[off..off + 2].copy_from_slice(&1000u16.to_be_bytes());

        let mut dec = StreamDecoder::new();
        dec.feed(&bad);
        dec.feed(&good);
        match dec.next_step() {
            DecodeStep::Quarantined(_) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        match dec.next_step() {
            DecodeStep::Message(m) => assert_eq!(m.records, recs),
            other => panic!("expected the following message, got {other:?}"),
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_step_quarantines_unknown_version_by_frame() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        let mut v9 = good.to_vec();
        v9[4..6].copy_from_slice(&9u16.to_be_bytes());

        // An unknown version on the current header, and a version-2
        // frame with its longer header: each is dropped as a unit.
        for (bad, version) in [(v9, 9), (v2_frame(&recs), 2)] {
            let mut dec = StreamDecoder::new();
            dec.feed(&bad);
            dec.feed(&good);
            assert!(matches!(
                dec.next_step(),
                DecodeStep::Quarantined(WireError::BadVersion(v)) if v == version
            ));
            match dec.next_step() {
                DecodeStep::Message(m) => assert_eq!(m.records, recs),
                other => panic!("expected the following message, got {other:?}"),
            }
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn next_step_resyncs_on_insane_length() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        let mut bad = good.to_vec();
        bad[8..12].copy_from_slice(&u32::MAX.to_be_bytes());

        let mut dec = StreamDecoder::new();
        dec.feed(&bad);
        dec.feed(&good);
        // The corrupt header is skipped via resync (possibly in several
        // hops), then the good message decodes.
        let mut saw_resync = false;
        loop {
            match dec.next_step() {
                DecodeStep::Resynced { cause, .. } => {
                    saw_resync = true;
                    assert!(matches!(
                        cause,
                        WireError::LengthMismatch { .. } | WireError::BadMagic(_)
                    ));
                }
                DecodeStep::Message(m) => {
                    assert_eq!(m.records, recs);
                    break;
                }
                DecodeStep::Quarantined(_) => {}
                DecodeStep::NeedMore => panic!("decoder stalled"),
            }
        }
        assert!(saw_resync);
    }

    #[test]
    fn u48_saturation() {
        let recs = vec![MonitoredFlow {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats {
                packets: u64::MAX,
                retransmissions: u64::MAX,
                ..Default::default()
            },
            class: TrafficClass::Passive,
            true_path: Vec::new(),
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        let msg = decode_message(&bytes).unwrap();
        assert_eq!(msg.records[0].stats.packets, (1 << 48) - 1);
    }
}
