//! The append-only, CRC-framed log both durable files are written in:
//! the batch [`journal`](crate::journal) and the `srtw-persist` spill
//! store. Each keeps only its magic, version, record codec and record
//! policy; everything below the record — header, framing, append, torn
//! tail, recovery scan, injected write faults — lives here once.
//!
//! ```text
//! header: 8-byte magic | u32 LE version | format-specific bytes
//! frame:  u32 LE payload length | u32 LE CRC-32 of payload | payload
//! ```
//!
//! A frame goes out in a single `write` on a file opened in append mode
//! (so processes sharing a file interleave whole frames). [`append`]
//! `sync_data`s it before reporting success; [`write()`] leaves the sync to
//! its caller, who may group several frames under one. A new file's
//! header is not synced on its own: the first append's sync flushes it,
//! and a crash before that leaves an empty or torn header, which every
//! reader treats as a fresh file. Reopening a file for append first cuts
//! a torn tail: the scan stops at a torn frame, so a frame appended after
//! one would be durable yet invisible. A scan never panics and pins every
//! warning to a byte offset:
//!
//! - missing or malformed header, or another version → the file is
//!   ignored;
//! - a frame whose declared length overruns the file → torn tail: stop,
//!   keep everything before it;
//! - a CRC mismatch with intact framing → skip that frame, keep scanning
//!   (a flipped bit loses one record, not the file);
//! - a payload with a valid CRC that does not decode → skip it.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Upper bound on a single payload; larger declared lengths are treated
/// as corruption (a random 4-byte length would otherwise make a scan
/// "wait" for gigabytes that never existed).
pub const MAX_RECORD_BYTES: usize = 1 << 26;

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) lookup table,
/// computed at compile time so the crate stays dependency-free.
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 checksum of `bytes` (IEEE polynomial, as used by gzip/zip).
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames a payload for append: `u32 LE len | u32 LE CRC-32 | payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One scanned frame from a `len | crc | payload` byte stream.
enum ScannedFrame<'a> {
    /// A structurally whole frame whose CRC matches.
    Payload {
        /// Byte offset of the frame's length word in the scanned image.
        offset: usize,
        /// The frame's payload bytes.
        payload: &'a [u8],
    },
    /// A structurally whole frame whose CRC does not match: skip one
    /// record, keep scanning — framing is still trustworthy.
    BadCrc {
        /// Byte offset of the frame's length word.
        offset: usize,
    },
    /// A frame whose declared length overruns the image (or is absurd):
    /// either a torn tail or a corrupt length word. Frame boundaries are
    /// unrecoverable from here; scanning stops after this item.
    Torn {
        /// Byte offset where the broken frame starts.
        offset: usize,
        /// The length the frame claimed.
        declared: usize,
        /// Payload bytes actually available past the frame header.
        available: usize,
    },
    /// Fewer than 8 trailing bytes — not even a frame header. Scanning
    /// stops after this item.
    Trailing {
        /// Byte offset of the trailing fragment.
        offset: usize,
        /// How many bytes were left over.
        bytes: usize,
    },
}

/// Iterator over the `len | crc | payload` frames of an on-disk image,
/// starting after the header.
struct FrameScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    stopped: bool,
}

impl<'a> FrameScanner<'a> {
    /// Scans `bytes` starting at `start` (the header length).
    fn new(bytes: &'a [u8], start: usize) -> FrameScanner<'a> {
        FrameScanner {
            bytes,
            pos: start,
            stopped: false,
        }
    }

    /// Byte length of the structurally valid prefix from `start`: every
    /// whole frame, stopping where scanning would stop (torn or trailing
    /// tail). CRC-mismatched frames are structurally whole and count.
    fn valid_end(bytes: &[u8], start: usize) -> usize {
        let mut scanner = FrameScanner::new(bytes, start);
        let mut end = start;
        while let Some(ScannedFrame::Payload { .. } | ScannedFrame::BadCrc { .. }) = scanner.next()
        {
            end = scanner.pos;
        }
        end
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = ScannedFrame<'a>;

    fn next(&mut self) -> Option<ScannedFrame<'a>> {
        if self.stopped || self.pos >= self.bytes.len() {
            return None;
        }
        let offset = self.pos;
        let rest = self.bytes.len() - offset;
        if rest < 8 {
            self.stopped = true;
            return Some(ScannedFrame::Trailing {
                offset,
                bytes: rest,
            });
        }
        let len = u32::from_le_bytes(self.bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(self.bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || len > rest - 8 {
            self.stopped = true;
            return Some(ScannedFrame::Torn {
                offset,
                declared: len,
                available: rest - 8,
            });
        }
        let payload = &self.bytes[offset + 8..offset + 8 + len];
        self.pos = offset + 8 + len;
        if crc32(payload) != crc {
            return Some(ScannedFrame::BadCrc { offset });
        }
        Some(ScannedFrame::Payload { offset, payload })
    }
}

/// The identity of one framed-log format: what its header must start
/// with, how long the header is, and what warnings call it.
#[derive(Debug, Clone, Copy)]
pub struct LogFormat {
    /// Name used in warnings (`journal`, `spill`).
    pub name: &'static str,
    /// Magic bytes opening every file.
    pub magic: &'static [u8; 8],
    /// On-disk format version; any other version is ignored.
    pub version: u32,
    /// Header length: magic + version + format-specific bytes.
    pub header_len: usize,
}

impl LogFormat {
    /// The header's magic + version prefix.
    pub fn header_prefix(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[..8].copy_from_slice(self.magic);
        out[8..].copy_from_slice(&self.version.to_le_bytes());
        out
    }
}

/// One warning from scanning a framed log, pinned to the file and byte
/// offset where the damage was found. Displays with the uniform
/// machine-greppable prefix `srtw-persist: PATH: byte OFFSET: MESSAGE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogWarning {
    /// The file involved (empty for an in-memory image).
    pub path: PathBuf,
    /// Byte offset in the file where the problem starts.
    pub offset: usize,
    /// What was skipped or truncated.
    pub message: String,
}

impl LogWarning {
    /// A warning about `path` at `offset`.
    pub fn new(path: &Path, offset: usize, message: impl Into<String>) -> LogWarning {
        LogWarning {
            path: path.to_path_buf(),
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for LogWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "srtw-persist: {}: byte {}: {}",
            self.path.display(),
            self.offset,
            self.message
        )
    }
}

/// What [`scan`] found past an accepted header.
#[derive(Debug)]
pub struct Scanned<T> {
    /// Each decoded payload with the byte offset of its frame.
    pub items: Vec<(usize, T)>,
    /// Byte length of the structurally whole prefix: the header and every
    /// whole frame, CRC-mismatched ones included. A torn tail starts here,
    /// and [`reopen`] cuts it.
    pub end: usize,
}

/// Scans the image of a `format` file at `path`: checks the header, then
/// decodes every intact frame. Returns the decoded payloads and the end
/// of the whole frames, or `None` when the header is rejected (the file
/// is ignored). Every skip and truncation lands in `warnings`.
pub fn scan<T>(
    path: &Path,
    bytes: &[u8],
    format: &LogFormat,
    warnings: &mut Vec<LogWarning>,
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> Option<Scanned<T>> {
    let name = format.name;
    if bytes.len() < format.header_len || &bytes[..8] != format.magic {
        warnings.push(LogWarning::new(
            path,
            0,
            format!("{name} header missing or malformed; file ignored"),
        ));
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != format.version {
        warnings.push(LogWarning::new(
            path,
            0,
            format!(
                "{name} format version {version}, expected {}; file ignored",
                format.version
            ),
        ));
        return None;
    }
    let mut items = Vec::new();
    let mut index = 0u64;
    let mut scanner = FrameScanner::new(bytes, format.header_len);
    let mut end = format.header_len;
    while let Some(item) = scanner.next() {
        index += 1;
        if !scanner.stopped {
            end = scanner.pos;
        }
        let (offset, message) = match item {
            ScannedFrame::Payload { offset, payload } => match decode(payload) {
                Some(record) => {
                    items.push((offset, record));
                    continue;
                }
                None => (
                    offset,
                    format!("record {index} has a valid CRC but does not decode — record skipped"),
                ),
            },
            ScannedFrame::Trailing { offset, bytes } => (
                offset,
                format!(
                    "torn tail: {bytes} trailing byte(s) after record {} — dropped",
                    index - 1
                ),
            ),
            ScannedFrame::Torn {
                offset,
                declared,
                available,
            } => (
                offset,
                format!(
                    "torn or corrupt frame at record {index} (declared {declared} bytes, \
                     {available} available) — {name} truncated here"
                ),
            ),
            ScannedFrame::BadCrc { offset } => (
                offset,
                format!("CRC mismatch on record {index} — record skipped"),
            ),
        };
        warnings.push(LogWarning::new(path, offset, message));
    }
    Some(Scanned { items, end })
}

/// Creates (or truncates) a log file and writes its header, unsynced:
/// the first [`append`] or sync of a frame flushes it too. The file is in
/// append mode, so every later frame lands at the end.
pub fn create(path: &Path, header: &[u8]) -> io::Result<File> {
    let mut file = OpenOptions::new().append(true).create(true).open(path)?;
    file.set_len(0)?;
    file.write_all(header)?;
    Ok(file)
}

/// Opens a log file for append. A file that does not exist, or whose
/// header differs from `header`, is created afresh; otherwise a torn tail
/// is cut off first. Frames with bad CRCs are kept: the scan skips past
/// them one by one.
pub fn open_append(path: &Path, header: &[u8]) -> io::Result<File> {
    match fs::read(path) {
        Ok(bytes) if bytes.starts_with(header) => {
            reopen(path, FrameScanner::valid_end(&bytes, header.len()))
        }
        Ok(_) => create(path, header),
        Err(err) if err.kind() == io::ErrorKind::NotFound => create(path, header),
        Err(err) => Err(err),
    }
}

/// Opens an existing log file for append after cutting it to `end` bytes,
/// the [`Scanned::end`] of its image: whatever lies past the last whole
/// frame is a torn tail.
pub fn reopen(path: &Path, end: usize) -> io::Result<File> {
    let file = OpenOptions::new().append(true).open(path)?;
    if (end as u64) < file.metadata()?.len() {
        file.set_len(end as u64)?;
        file.sync_data()?;
    }
    Ok(file)
}

/// Appends one framed payload with [`write()`], then one `sync_data`.
pub fn append(file: &File, payload: &[u8], fault: Option<WriteFault>, n: u64) -> io::Result<()> {
    write(file, payload, fault, n)?;
    file.sync_data()
}

/// Writes one framed payload with a single `write` and no sync. `n` is
/// the 1-based count of this append for the fault, if one is armed: when
/// `fault.at_record == n` the frame is broken as the fault says, synced,
/// and reported failed, exactly as the crash it simulates would leave the
/// file.
pub fn write(mut file: &File, payload: &[u8], fault: Option<WriteFault>, n: u64) -> io::Result<()> {
    let mut framed = frame(payload);
    let Some(fault) = fault.filter(|f| f.at_record == n) else {
        return file.write_all(&framed);
    };
    let fired = format!("injected write fault {fault} fired on append {n}");
    match fault.kind {
        // Stop mid-frame: keep the length word and roughly half the
        // payload, like a crash between write() and the final byte
        // reaching the disk.
        WriteFaultKind::Torn => framed.truncate((8 + payload.len() / 2).min(framed.len() - 1)),
        WriteFaultKind::Corrupt => framed[8 + payload.len() / 2] ^= 0x20,
        // The disk "fills up" at exactly this append: nothing lands.
        WriteFaultKind::Enospc => return Err(io::Error::new(io::ErrorKind::StorageFull, fired)),
    }
    file.write_all(&framed)?;
    file.sync_data()?;
    Err(io::Error::other(fired))
}

/// Which log an injected write fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLog {
    /// The batch journal (`torn@N`, `jcorrupt@N`).
    Journal,
    /// The spill store (`pers-torn@N`, `pers-corrupt@N`, `pers-enospc@N`).
    Spill,
}

/// How an injected write fault breaks the append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultKind {
    /// Truncate the frame mid-write: the tail of the file is torn.
    Torn,
    /// Flip one payload byte before writing the whole frame: framing is
    /// intact but the CRC no longer matches.
    Corrupt,
    /// Report `ENOSPC` without writing anything.
    Enospc,
}

/// Deterministic write fault: breaks the `at_record`-th append (1-based)
/// to its log and reports it failed, simulating a crash (journal) or a
/// failing disk (spill store) at exactly that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteFault {
    /// The log whose appends it counts.
    pub log: FaultLog,
    /// How to break the append.
    pub kind: WriteFaultKind,
    /// Which append (1-based) to break.
    pub at_record: u64,
}

/// The fault spellings accepted by `--fault`.
const SPELLINGS: [(&str, FaultLog, WriteFaultKind); 5] = [
    ("torn", FaultLog::Journal, WriteFaultKind::Torn),
    ("jcorrupt", FaultLog::Journal, WriteFaultKind::Corrupt),
    ("pers-torn", FaultLog::Spill, WriteFaultKind::Torn),
    ("pers-corrupt", FaultLog::Spill, WriteFaultKind::Corrupt),
    ("pers-enospc", FaultLog::Spill, WriteFaultKind::Enospc),
];

impl WriteFault {
    /// Parses `torn@N` | `jcorrupt@N` | `pers-torn@N` | `pers-corrupt@N`
    /// | `pers-enospc@N`. Returns `None` when the spec is not write-fault
    /// grammar at all (so other fault layers can claim it), `Some(Err)`
    /// when it is but the count is malformed.
    pub fn parse(spec: &str) -> Option<Result<WriteFault, String>> {
        let (kind_str, n) = spec.split_once('@')?;
        let &(_, log, kind) = SPELLINGS.iter().find(|(s, _, _)| *s == kind_str)?;
        Some(match n.parse::<u64>() {
            Ok(at) if at >= 1 => Ok(WriteFault {
                log,
                kind,
                at_record: at,
            }),
            _ => Err(format!(
                "bad write fault '{spec}': expected {kind_str}@N with N >= 1"
            )),
        })
    }
}

impl fmt::Display for WriteFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match SPELLINGS
            .iter()
            .find(|(_, log, kind)| (*log, *kind) == (self.log, self.kind))
        {
            Some((spelling, _, _)) => write!(f, "{spelling}@{}", self.at_record),
            None => write!(f, "{:?}-{:?}@{}", self.log, self.kind, self.at_record),
        }
    }
}

/// Reads a record payload field by field; every read is bounds-checked
/// and yields `None` past the end.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// `true` once every byte has been read — a decoder's last check.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A little-endian `u128`.
    pub fn take_u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    /// A `u32 LE` length-prefixed UTF-8 string (see [`put_str`]).
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_u32()? as usize;
        if len > MAX_RECORD_BYTES {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// An optional string: a `0`/`1` tag, then the string (see
    /// [`put_opt_str`]).
    pub fn take_opt_str(&mut self) -> Option<Option<String>> {
        match self.take_u8()? {
            0 => Some(None),
            1 => Some(Some(self.take_str()?)),
            _ => None,
        }
    }
}

/// Writes a `u32 LE` length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Writes an optional string: a `0`/`1` tag, then the string.
pub fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_parse_grammar() {
        let parsed = |spec: &str| WriteFault::parse(spec).unwrap().unwrap();
        for (spec, log, kind) in [
            ("torn@3", FaultLog::Journal, WriteFaultKind::Torn),
            ("jcorrupt@1", FaultLog::Journal, WriteFaultKind::Corrupt),
            ("pers-torn@3", FaultLog::Spill, WriteFaultKind::Torn),
            ("pers-corrupt@2", FaultLog::Spill, WriteFaultKind::Corrupt),
            ("pers-enospc@1", FaultLog::Spill, WriteFaultKind::Enospc),
        ] {
            let f = parsed(spec);
            assert_eq!((f.log, f.kind), (log, kind), "{spec}");
            assert_eq!(f.to_string(), spec, "display round-trips");
        }
        assert_eq!(parsed("torn@3").at_record, 3);
        assert!(WriteFault::parse("torn@0").unwrap().is_err());
        assert!(WriteFault::parse("torn@x").unwrap().is_err());
        assert!(WriteFault::parse("pers-torn@0").unwrap().is_err());
        assert!(WriteFault::parse("pers-corrupt@x").unwrap().is_err());
        // The journal has no enospc spelling.
        assert!(WriteFault::parse("enospc@1").is_none());
        assert!(WriteFault::parse("jenospc@1").is_none());
        assert!(WriteFault::parse("overflow@1").is_none());
        assert!(WriteFault::parse("abort").is_none());
    }
}
