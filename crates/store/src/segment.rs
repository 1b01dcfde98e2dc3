//! Tier 2: the append-only durable segment file.
//!
//! Layout (all integers big-endian, in the style of
//! `flock_telemetry::wire`):
//!
//! ```text
//! header   := magic u32 ("FLKV") | version u16 | reserved u16
//! frame    := payload_len u32 | checksum u32 (FNV-1a/32 of payload) | payload
//! payload  := epoch u64 | start_ms u64 | end_ms u64 | records u64 |
//!             observations u64 | hypotheses u64 | runtime_us u64 |
//!             health | n_verdicts u16 | verdict*
//! health   := degraded u8 | coverage f64 | n_reasons u8 |
//!             (reason_len u16 | reason utf8)*
//! verdict  := comp_tag u8 (0 link, 1 device) | comp_id u32 |
//!             score f64 | shard_len u8 | shard utf8 |
//!             super_flows u32 | raw_weight f64 | n_sets u8 | set_id u32*
//! ```
//!
//! One codec version is spoken, [`SEGMENT_VERSION`] (2: the version
//! that added the health block). A file whose header declares any other
//! version is refused whole as [`SegmentError::BadVersion`] and left as
//! it is.
//!
//! Appends are frame-at-a-time, so the only corruption a crash can
//! produce is a *torn tail*: a final frame whose length, payload, or
//! checksum is incomplete. [`Segment::open`] recovers by scanning
//! frames from the start, stopping at the first invalid one: the intact
//! prefix is fully indexed and readable, the torn tail is truncated
//! away (so the next append starts on a clean boundary), and the typed
//! reason is kept available via [`Segment::torn`].
//!
//! The in-memory footprint of an open segment is the compact index —
//! `(epoch, offset, len)` per record — never the records themselves;
//! reads seek.

use crate::record::{EpochRecord, Verdict};
use bytes::{Buf, BufMut};
use flock_stream::Provenance;
use flock_topology::{Component, LinkId, NodeId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// `"FLKV"` — flock verdict segment.
pub const SEGMENT_MAGIC: u32 = 0x464c_4b56;
/// The segment codec version: the only one written or read.
pub const SEGMENT_VERSION: u16 = 2;
/// Bytes of the file header.
pub const HEADER_LEN: u64 = 8;
/// Bytes of a frame header (`payload_len` + `checksum`).
pub const FRAME_HEADER_LEN: u64 = 8;

/// Why a segment (or one of its records) could not be read.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic(u32),
    /// The file's codec version is not [`SEGMENT_VERSION`].
    BadVersion(u16),
    /// The file ends inside the 8-byte header.
    TruncatedHeader {
        /// Actual file length.
        len: u64,
    },
    /// The file ends inside a frame — a torn tail write.
    TornFrame {
        /// Offset of the torn frame.
        offset: u64,
        /// Bytes present past the offset.
        have: u64,
        /// Bytes the frame claims to need.
        need: u64,
    },
    /// A frame's payload does not match its stored checksum.
    ChecksumMismatch {
        /// Offset of the bad frame.
        offset: u64,
        /// Checksum stored in the frame header.
        expected: u32,
        /// Checksum of the bytes actually present.
        found: u32,
    },
    /// A checksum-valid payload failed structural decoding.
    MalformedRecord {
        /// Offset of the bad frame.
        offset: u64,
        /// What the decoder ran into.
        detail: &'static str,
    },
    /// A lookup named a record index the segment does not have.
    NoSuchRecord {
        /// The out-of-range index.
        index: usize,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment io error: {e}"),
            SegmentError::BadMagic(m) => {
                write!(f, "bad segment magic {m:#010x} (want {SEGMENT_MAGIC:#010x})")
            }
            SegmentError::BadVersion(v) => {
                write!(f, "unsupported segment version {v} (want {SEGMENT_VERSION})")
            }
            SegmentError::TruncatedHeader { len } => {
                write!(f, "file too short for segment header ({len} < {HEADER_LEN} bytes)")
            }
            SegmentError::TornFrame { offset, have, need } => write!(
                f,
                "torn frame at offset {offset}: {have} of {need} bytes present"
            ),
            SegmentError::ChecksumMismatch {
                offset,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {expected:#010x}, computed {found:#010x}"
            ),
            SegmentError::MalformedRecord { offset, detail } => {
                write!(f, "malformed record at offset {offset}: {detail}")
            }
            SegmentError::NoSuchRecord { index } => {
                write!(f, "no record at index {index}")
            }
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// Index entry for one durable record.
#[derive(Debug, Clone, Copy)]
pub struct SegmentEntry {
    /// Epoch index of the record.
    pub epoch: u64,
    /// File offset of the frame (its frame header).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// An injectable append fault — the chaos harness's seam into the
/// store's durability path. Armed via [`Segment::inject_append_fault`]
/// (or [`crate::VerdictStore::inject_append_fault`]); the next append
/// consumes it and fails instead of (or after partially) writing.
#[derive(Debug, Clone, Copy)]
pub enum AppendFault {
    /// The append fails outright with an I/O error of this kind before
    /// writing a byte (EIO, disk-full, …). The file is untouched.
    Error(std::io::ErrorKind),
    /// The append writes only the first `keep_bytes` of the frame and
    /// then fails — a crash/disk-full mid-write. The file is left with
    /// a torn tail past the intact prefix, exactly what
    /// [`Segment::open`] recovery must truncate away.
    Torn {
        /// Frame bytes that reach the file before the failure.
        keep_bytes: usize,
    },
}

/// An open append-only verdict segment (see the module docs).
pub struct Segment {
    file: File,
    path: PathBuf,
    /// Compact index of the intact prefix, in file order.
    index: Vec<SegmentEntry>,
    /// Next append offset (end of the intact prefix).
    end: u64,
    /// The typed reason the tail was rejected, when recovery found one.
    torn: Option<SegmentError>,
    /// Armed fault for the next append, if a chaos harness set one.
    fault: Option<AppendFault>,
    /// Scratch buffer for encode/read.
    buf: Vec<u8>,
}

impl Segment {
    /// Create a fresh segment at `path`, truncating anything there.
    pub fn create(path: impl AsRef<Path>) -> Result<Segment, SegmentError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.put_u32(SEGMENT_MAGIC);
        header.put_u16(SEGMENT_VERSION);
        header.put_u16(0);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Segment {
            file,
            path,
            index: Vec::new(),
            end: HEADER_LEN,
            torn: None,
            fault: None,
            buf: Vec::new(),
        })
    }

    /// Open (or create) the segment at `path`, recovering from a torn
    /// tail: the intact prefix is indexed, the tail past the first
    /// invalid frame is truncated away, and the typed rejection reason
    /// is kept available via [`Segment::torn`].
    pub fn open(path: impl AsRef<Path>) -> Result<Segment, SegmentError> {
        let path_ref = path.as_ref();
        if !path_ref.exists() {
            return Segment::create(path_ref);
        }
        let path = path_ref.to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        if raw.is_empty() {
            drop(file);
            return Segment::create(&path);
        }
        if raw.len() < HEADER_LEN as usize {
            return Err(SegmentError::TruncatedHeader {
                len: raw.len() as u64,
            });
        }
        let mut cur: &[u8] = &raw;
        let magic = cur.get_u32();
        if magic != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic(magic));
        }
        let version = cur.get_u16();
        if version != SEGMENT_VERSION {
            return Err(SegmentError::BadVersion(version));
        }
        let _reserved = cur.get_u16();

        // Scan frames; the first invalid one ends the intact prefix.
        let mut index = Vec::new();
        let mut offset = HEADER_LEN;
        let mut torn = None;
        while offset < raw.len() as u64 {
            match scan_frame(&raw, offset) {
                Ok(entry) => {
                    offset = entry.offset + FRAME_HEADER_LEN + u64::from(entry.len);
                    index.push(entry);
                }
                Err(e) => {
                    torn = Some(e);
                    break;
                }
            }
        }
        if torn.is_some() {
            // Drop the torn tail so the next append starts on a clean
            // frame boundary.
            file.set_len(offset)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset))?;
        Ok(Segment {
            file,
            path,
            index,
            end: offset,
            torn,
            fault: None,
            buf: Vec::new(),
        })
    }

    /// Arm an [`AppendFault`] for the next append (single-shot: the
    /// failing append consumes it).
    pub fn inject_append_fault(&mut self, fault: AppendFault) {
        self.fault = Some(fault);
    }

    /// The typed reason the tail was rejected at open, if recovery
    /// found a torn write.
    pub fn torn(&self) -> Option<&SegmentError> {
        self.torn.as_ref()
    }

    /// File path of the segment.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of intact records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The compact in-memory index, in file order.
    pub fn index(&self) -> &[SegmentEntry] {
        &self.index
    }

    /// Total file size in bytes (header + intact frames).
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    /// Append one record; returns its index entry.
    pub fn append(&mut self, rec: &EpochRecord) -> Result<SegmentEntry, SegmentError> {
        self.buf.clear();
        encode_record(rec, &mut self.buf);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN as usize + self.buf.len());
        frame.put_u32(self.buf.len() as u32);
        frame.put_u32(fnv1a(&self.buf));
        frame.extend_from_slice(&self.buf);
        if let Some(fault) = self.fault.take() {
            match fault {
                AppendFault::Error(kind) => {
                    return Err(SegmentError::Io(std::io::Error::new(
                        kind,
                        "injected append fault",
                    )));
                }
                AppendFault::Torn { keep_bytes } => {
                    // Land a partial frame past the intact prefix —
                    // `end` and the index are NOT advanced, so in-process
                    // reads stay correct and a later successful append
                    // overwrites the torn bytes; a close + reopen
                    // exercises tail recovery instead.
                    let keep = keep_bytes.min(frame.len().saturating_sub(1));
                    self.file.seek(SeekFrom::Start(self.end))?;
                    self.file.write_all(&frame[..keep])?;
                    let _ = self.file.sync_data();
                    return Err(SegmentError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "injected torn append",
                    )));
                }
            }
        }
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        let entry = SegmentEntry {
            epoch: rec.epoch_index,
            offset: self.end,
            len: self.buf.len() as u32,
        };
        self.end += frame.len() as u64;
        self.index.push(entry);
        Ok(entry)
    }

    /// Flush appended frames to stable storage.
    pub fn sync(&mut self) -> Result<(), SegmentError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Read the `i`-th intact record (seeks; nothing stays resident).
    pub fn read(&mut self, i: usize) -> Result<EpochRecord, SegmentError> {
        let entry = *self
            .index
            .get(i)
            .ok_or(SegmentError::NoSuchRecord { index: i })?;
        self.file
            .seek(SeekFrom::Start(entry.offset + FRAME_HEADER_LEN))?;
        self.buf.clear();
        self.buf.resize(entry.len as usize, 0);
        self.file.read_exact(&mut self.buf)?;
        let mut cur: &[u8] = &self.buf;
        decode_record(&mut cur, entry.offset)
    }

    /// Read the record for `epoch`, if stored (last write wins when an
    /// epoch was somehow appended twice).
    pub fn read_epoch(&mut self, epoch: u64) -> Option<Result<EpochRecord, SegmentError>> {
        let i = self.index.iter().rposition(|e| e.epoch == epoch)?;
        Some(self.read(i))
    }

    /// Decode every intact record in file order, calling `f` on each —
    /// the store's reopen replay. One pass, nothing retained here.
    pub fn replay(&mut self, mut f: impl FnMut(EpochRecord)) -> Result<(), SegmentError> {
        for i in 0..self.index.len() {
            f(self.read(i)?);
        }
        Ok(())
    }
}

/// Validate the frame at `offset` of `raw` (length, checksum, and a
/// structural decode) and return its index entry.
fn scan_frame(raw: &[u8], offset: u64) -> Result<SegmentEntry, SegmentError> {
    let rest = &raw[offset as usize..];
    if (rest.len() as u64) < FRAME_HEADER_LEN {
        return Err(SegmentError::TornFrame {
            offset,
            have: rest.len() as u64,
            need: FRAME_HEADER_LEN,
        });
    }
    let mut cur = rest;
    let len = cur.get_u32();
    let expected = cur.get_u32();
    if (cur.remaining() as u64) < u64::from(len) {
        return Err(SegmentError::TornFrame {
            offset,
            have: FRAME_HEADER_LEN + cur.remaining() as u64,
            need: FRAME_HEADER_LEN + u64::from(len),
        });
    }
    let payload = &cur[..len as usize];
    let found = fnv1a(payload);
    if found != expected {
        return Err(SegmentError::ChecksumMismatch {
            offset,
            expected,
            found,
        });
    }
    let mut pcur = payload;
    let rec = decode_record(&mut pcur, offset)?;
    Ok(SegmentEntry {
        epoch: rec.epoch_index,
        offset,
        len,
    })
}

/// FNV-1a/32 — cheap, dependency-free torn-write detection (this guards
/// against partial writes, not adversarial corruption).
pub fn fnv1a(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Encode one record payload (frame header excluded).
pub fn encode_record(rec: &EpochRecord, out: &mut Vec<u8>) {
    out.put_u64(rec.epoch_index);
    out.put_u64(rec.start_ms);
    out.put_u64(rec.end_ms);
    out.put_u64(rec.records);
    out.put_u64(rec.observations);
    out.put_u64(rec.hypotheses_scanned);
    out.put_u64(rec.runtime_us);
    out.put_u8(u8::from(rec.degraded));
    out.put_u64(rec.evidence_coverage.to_bits());
    let n = rec.degrade_reasons.len().min(u8::MAX as usize);
    out.put_u8(n as u8);
    for reason in rec.degrade_reasons.iter().take(n) {
        let bytes = reason.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        out.put_u16(len as u16);
        out.put_slice(&bytes[..len]);
    }
    out.put_u16(rec.verdicts.len() as u16);
    for v in &rec.verdicts {
        let (tag, id) = match v.component {
            Component::Link(LinkId(id)) => (0u8, id),
            Component::Device(NodeId(id)) => (1u8, id),
        };
        out.put_u8(tag);
        out.put_u32(id);
        out.put_u64(v.score.to_bits());
        let shard = v.provenance.shard.as_bytes();
        out.put_u8(shard.len().min(u8::MAX as usize) as u8);
        out.put_slice(&shard[..shard.len().min(u8::MAX as usize)]);
        out.put_u32(v.provenance.super_flows);
        out.put_u64(v.provenance.raw_weight.to_bits());
        out.put_u8(v.provenance.sets.len().min(u8::MAX as usize) as u8);
        for &s in v.provenance.sets.iter().take(u8::MAX as usize) {
            out.put_u32(s);
        }
    }
}

/// Checked read helper: the `bytes` cursor panics when exhausted, so
/// every read goes through a remaining-length guard first.
macro_rules! need {
    ($cur:expr, $n:expr, $offset:expr, $what:expr) => {
        if $cur.remaining() < $n {
            return Err(SegmentError::MalformedRecord {
                offset: $offset,
                detail: $what,
            });
        }
    };
}

/// Decode one record payload. `offset` is only for error reporting.
pub fn decode_record(cur: &mut &[u8], offset: u64) -> Result<EpochRecord, SegmentError> {
    need!(cur, 56, offset, "payload shorter than fixed record head");
    let epoch_index = cur.get_u64();
    let start_ms = cur.get_u64();
    let end_ms = cur.get_u64();
    let records = cur.get_u64();
    let observations = cur.get_u64();
    let hypotheses_scanned = cur.get_u64();
    let runtime_us = cur.get_u64();
    need!(cur, 10, offset, "health block truncated");
    let degraded = cur.get_u8() != 0;
    let evidence_coverage = f64::from_bits(cur.get_u64());
    let n_reasons = cur.get_u8() as usize;
    let mut degrade_reasons = Vec::with_capacity(n_reasons);
    for _ in 0..n_reasons {
        need!(cur, 2, offset, "degrade reason length truncated");
        let len = cur.get_u16() as usize;
        need!(cur, len, offset, "degrade reason truncated");
        let reason = std::str::from_utf8(cur.take_bytes(len))
            .map_err(|_| SegmentError::MalformedRecord {
                offset,
                detail: "degrade reason is not UTF-8",
            })?
            .to_string();
        degrade_reasons.push(reason);
    }
    need!(cur, 2, offset, "verdict count truncated");
    let n_verdicts = cur.get_u16();
    let mut verdicts = Vec::with_capacity(n_verdicts as usize);
    for _ in 0..n_verdicts {
        need!(cur, 14, offset, "verdict head truncated");
        let tag = cur.get_u8();
        let id = cur.get_u32();
        let component = match tag {
            0 => Component::Link(LinkId(id)),
            1 => Component::Device(NodeId(id)),
            _ => {
                return Err(SegmentError::MalformedRecord {
                    offset,
                    detail: "unknown component tag",
                })
            }
        };
        let score = f64::from_bits(cur.get_u64());
        need!(cur, 1, offset, "shard label length truncated");
        let shard_len = cur.get_u8() as usize;
        need!(cur, shard_len, offset, "shard label truncated");
        let shard = std::str::from_utf8(cur.take_bytes(shard_len))
            .map_err(|_| SegmentError::MalformedRecord {
                offset,
                detail: "shard label is not UTF-8",
            })?
            .to_string();
        need!(cur, 13, offset, "provenance head truncated");
        let super_flows = cur.get_u32();
        let raw_weight = f64::from_bits(cur.get_u64());
        let n_sets = cur.get_u8() as usize;
        need!(cur, n_sets * 4, offset, "provenance sets truncated");
        let sets = (0..n_sets).map(|_| cur.get_u32()).collect();
        verdicts.push(Verdict {
            component,
            score,
            provenance: Provenance {
                component,
                shard,
                score,
                super_flows,
                raw_weight,
                sets,
            },
        });
    }
    Ok(EpochRecord {
        epoch_index,
        start_ms,
        end_ms,
        records,
        observations,
        hypotheses_scanned,
        runtime_us,
        degraded,
        evidence_coverage,
        degrade_reasons,
        verdicts,
    })
}
