//! The one CRC-framed line format behind every durable log in the
//! workspace: cache segments (`MMRS`), checkpoint journals (`MMRJ`) and
//! flight logs (`MMRE`, also streamed by `GET /events`).
//!
//! Every record is one line:
//!
//! ```text
//! MMRS <version> <kind> <crc32-8hex> <compact-json>\n    (also MMRJ)
//! MMRE <version> <crc32-8hex> <compact-json>\n
//! ```
//!
//! The CRC-32 ([`crc32`]) covers `"<version> <kind> <json>"`, or
//! `"<version> <json>"` for formats without kinds, and is written as
//! exactly eight lowercase hex digits. A line is a frame only if all of it
//! checks out: tag, field separators, canonical CRC text, CRC value, valid
//! UTF-8 and the terminating newline. So every frame re-frames to its
//! exact bytes.
//!
//! This module knows the layout and nothing else. What a frame *means*
//! stays with each format: which versions and kinds count, and what a
//! CRC-valid frame with bad JSON costs (flight logs stop there, cache
//! segments drop the record, the journal refuses the file).

use std::fmt::{Display, Write as _};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// A framed-log format: the tag opening its lines and whether they carry
/// a `<kind>` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Tag opening every line.
    pub tag: &'static str,
    /// Whether lines carry a `<kind>` field between version and CRC.
    pub kinded: bool,
}

/// Result-cache segments (`crates/store`).
pub const SEGMENT: Format = Format {
    tag: "MMRS",
    kinded: true,
};

/// Checkpoint journals (`mmr-bench`).
pub const JOURNAL: Format = Format {
    tag: "MMRJ",
    kinded: true,
};

/// Flight-event logs and the `GET /events` stream.
pub const FLIGHT: Format = Format {
    tag: "MMRE",
    kinded: false,
};

impl Format {
    /// Whether `bytes` can be a log of this format: empty, or opening with
    /// `"<tag> "` or a prefix of it (a first line torn inside its tag).
    /// [`repair`] never cuts a file this format does not claim.
    #[must_use]
    pub fn claims(&self, bytes: &[u8]) -> bool {
        let tag = self.tag.as_bytes();
        let n = bytes.len().min(tag.len());
        bytes[..n] == tag[..n] && bytes.get(tag.len()).is_none_or(|&b| b == b' ')
    }
}

/// One frame found by [`scan`], borrowed from the scanned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The version field, as written.
    pub version: &'a str,
    /// The kind field; `""` for formats without kinds.
    pub kind: &'a str,
    /// The JSON payload.
    pub json: &'a str,
    /// Byte offset of the line in the scanned bytes.
    pub offset: usize,
    /// Byte length of the line, newline included.
    pub len: usize,
}

/// What [`scan`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan<'a> {
    /// The frames of the valid prefix, in order. They tile
    /// `0..good_len` exactly.
    pub frames: Vec<Frame<'a>>,
    /// Byte length of the valid prefix.
    pub good_len: usize,
    /// Whether bytes follow the valid prefix (a torn or corrupt tail).
    pub torn: bool,
}

/// What [`repair`] did to a log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repair {
    /// Byte length of the valid prefix kept.
    pub kept: u64,
    /// Bytes cut off after it; 0 when the log was whole.
    pub cut: u64,
}

/// CRC-32 lookup table (zlib polynomial, reflected).
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Feeds `bytes` into a running (pre-inverted) CRC-32 state.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |c, &b| {
        TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// CRC-32 (zlib polynomial, reflected, init/xorout `0xFFFFFFFF`), so
/// frames are checkable with any standard tool.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Frames one record as a line, trailing newline included. `kind` must be
/// `""` for formats without kinds; neither `kind` nor `json` may hold a
/// newline, and `kind` holds no space.
#[must_use]
pub fn frame(format: Format, version: impl Display, kind: &str, json: &str) -> String {
    debug_assert!(
        format.kinded || kind.is_empty(),
        "{} lines carry no kind",
        format.tag
    );
    debug_assert!(!kind.contains([' ', '\n']) && !json.contains('\n'));
    let mut line = String::with_capacity(format.tag.len() + kind.len() + json.len() + 24);
    let _ = write!(line, "{} {version} ", format.tag);
    if format.kinded {
        line.push_str(kind);
        line.push(' ');
    }
    // The CRC covers everything between the tag and the CRC field, then
    // the JSON.
    let covered = update(!0, &line.as_bytes()[format.tag.len() + 1..]);
    let crc = !update(covered, json.as_bytes());
    let _ = writeln!(line, "{crc:08x} {json}");
    line
}

/// Parses one line (without its newline) starting at `offset`.
fn parse(format: Format, body: &[u8], offset: usize) -> Option<Frame<'_>> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix(format.tag)?.strip_prefix(' ')?;
    let (version, rest) = rest.split_once(' ')?;
    let (kind, rest) = if format.kinded {
        rest.split_once(' ')?
    } else {
        ("", rest)
    };
    let (crc_hex, json) = rest.split_once(' ')?;
    if crc_hex.len() != 8
        || !crc_hex
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return None;
    }
    let expected = u32::from_str_radix(crc_hex, 16).ok()?;
    let covered = &body[format.tag.len() + 1..body.len() - json.len() - 9];
    if !update(update(!0, covered), json.as_bytes()) != expected {
        return None;
    }
    Some(Frame {
        version,
        kind,
        json,
        offset,
        len: body.len() + 1,
    })
}

/// Walks `bytes` frame by frame and stops at the first line that is not a
/// frame, or at data with no terminating newline.
#[must_use]
pub fn scan(format: Format, bytes: &[u8]) -> Scan<'_> {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let Some(frame) = rest
            .iter()
            .position(|&b| b == b'\n')
            .and_then(|nl| parse(format, &rest[..nl], offset))
        else {
            break;
        };
        offset += frame.len;
        frames.push(frame);
    }
    Scan {
        frames,
        good_len: offset,
        torn: offset < bytes.len(),
    }
}

/// Reads the log at `path` and cuts it back to its valid prefix.
///
/// # Errors
///
/// Any error reading or truncating the file, and
/// [`std::io::ErrorKind::InvalidData`] when the file is not a log of this
/// format at all ([`Format::claims`]) — such a file is left untouched.
pub fn repair(path: &Path, format: Format) -> std::io::Result<Repair> {
    let bytes = std::fs::read(path)?;
    if !format.claims(&bytes) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not an {} log", path.display(), format.tag),
        ));
    }
    let kept = scan(format, &bytes).good_len;
    if kept < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(kept as u64)?;
    }
    Ok(Repair {
        kept: kept as u64,
        cut: (bytes.len() - kept) as u64,
    })
}

/// Tears an append on purpose: writes the first two thirds of `line` to
/// `file`, the append handle of `path`, then [`repair`]s `path`. This is
/// what a crash mid-append leaves followed by the recovery that runs after
/// it, so fault injection exercises the same code a `kill -9` relies on.
///
/// # Errors
///
/// Any error writing the partial frame or repairing the file.
pub fn tear(file: &mut File, path: &Path, format: Format, line: &str) -> std::io::Result<Repair> {
    file.write_all(&line.as_bytes()[..line.len() * 2 / 3])?;
    let _ = file.sync_data();
    repair(path, format)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn claims_tolerates_a_torn_tag_but_not_another_file() {
        for ok in [&b""[..], b"M", b"MMRS", b"MMRS ", b"MMRS 1 put"] {
            assert!(SEGMENT.claims(ok), "{ok:?}");
        }
        for foreign in [&b"X"[..], b"MMRSX", b"MMRJ 1", b"{\"legacy\":1}"] {
            assert!(!SEGMENT.claims(foreign), "{foreign:?}");
        }
    }

    #[test]
    fn non_canonical_crc_text_is_not_a_frame() {
        let line = frame(JOURNAL, 1, "exp", "{}");
        assert_eq!(line, "MMRJ 1 exp c36ecb31 {}\n");
        assert_eq!(scan(JOURNAL, line.as_bytes()).frames.len(), 1);
        // The same CRC value, spelled differently: a lenient hex parse
        // would let a flipped case bit through.
        for crc in ["C36ECB31", "0c36ecb31", "+c36ecb31"] {
            let other = line.replace("c36ecb31", crc);
            assert!(scan(JOURNAL, other.as_bytes()).frames.is_empty(), "{other}");
        }
    }
}
