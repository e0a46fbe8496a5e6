//! Property tests of the one framed-log implementation, run against each
//! of the three formats that use it: cache segments (`MMRS`), checkpoint
//! journals (`MMRJ`) and flight logs (`MMRE`).
//!
//! * On arbitrary bytes the scan never panics, `good_len` is a frame
//!   boundary, the next line (if any) is not a frame, and every frame
//!   re-frames to its exact bytes.
//! * A log truncated at any byte keeps exactly the frames that end by
//!   then, and is torn exactly when the cut is not a boundary.
//! * One flipped bit inside frame `i` keeps exactly the frames before it.
//! * Two logs spliced read as one; garbage between them hides the second.
//! * `repair`, then append, then scan yields the recovered prefix followed
//!   by the appended frames.

use obs::framelog::{self, Format, Scan, FLIGHT, JOURNAL, SEGMENT};
use proptest::collection::vec;
use proptest::prelude::*;

const FORMATS: [Format; 3] = [SEGMENT, JOURNAL, FLIGHT];

/// Characters payloads are drawn from: JSON punctuation, spaces, escapes,
/// hex digits and multi-byte UTF-8 — everything but a newline.
const ALPHABET: &[char] = &[
    '{', '}', '"', ':', ',', ' ', '\\', '\t', 'a', 'f', '0', '9', 'k', 'é', '漢', '\r',
];

/// One record: version, kind and JSON payload.
type Record = (String, String, String);

fn record() -> impl Strategy<Value = Record> {
    (
        0usize..4,
        0usize..4,
        vec(0usize..ALPHABET.len(), 0..40usize),
    )
        .prop_map(|(v, k, json)| {
            (
                ["1", "2", "99", "0"][v].to_owned(),
                ["put", "ctx", "exp", "note"][k].to_owned(),
                json.into_iter().map(|i| ALPHABET[i]).collect(),
            )
        })
}

fn records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    vec(record(), 0..max)
}

/// The kind a format writes for a record: none for formats without kinds.
fn kind(format: Format, rec: &Record) -> &str {
    if format.kinded {
        &rec.1
    } else {
        ""
    }
}

/// Frames `recs` into one log; returns its bytes and each frame's end.
fn build(format: Format, recs: &[Record]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for rec in recs {
        bytes.extend_from_slice(
            framelog::frame(format, &rec.0, kind(format, rec), &rec.2).as_bytes(),
        );
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// The records a scan recovered, in the shape [`build`] takes them.
fn recovered(format: Format, scan: &Scan<'_>) -> Vec<Record> {
    scan.frames
        .iter()
        .map(|f| {
            let kind = if format.kinded { f.kind } else { "" };
            (f.version.to_owned(), kind.to_owned(), f.json.to_owned())
        })
        .collect()
}

/// What `recs` look like after a round trip through `format`.
fn expected(format: Format, recs: &[Record]) -> Vec<Record> {
    recs.iter()
        .map(|r| (r.0.clone(), kind(format, r).to_owned(), r.2.clone()))
        .collect()
}

/// The invariants every scan must hold, whatever the bytes.
fn check_scan(format: Format, bytes: &[u8]) -> Result<(), TestCaseError> {
    let scan = framelog::scan(format, bytes);
    let mut end = 0;
    for f in &scan.frames {
        prop_assert_eq!(f.offset, end);
        end += f.len;
        let line = &bytes[f.offset..end];
        prop_assert_eq!(
            framelog::frame(format, f.version, f.kind, f.json).as_bytes(),
            line
        );
        let alone = framelog::scan(format, line);
        prop_assert_eq!(alone.frames, vec![framelog::Frame { offset: 0, ..*f }]);
    }
    prop_assert_eq!(scan.good_len, end);
    prop_assert_eq!(scan.torn, end < bytes.len());
    // The prefix is the longest one: the line after it is not a frame.
    let rest = &bytes[end..];
    if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        prop_assert!(framelog::scan(format, &rest[..=nl]).frames.is_empty());
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_yield_only_exact_frames(
        raw in vec(any::<u8>(), 0..256usize),
        recs in records(8),
        edits in vec((any::<usize>(), any::<u8>()), 0..4usize),
        noise in vec(any::<u8>(), 0..64usize),
    ) {
        for format in FORMATS {
            check_scan(format, &raw)?;
            let (mut bytes, _) = build(format, &recs);
            if !bytes.is_empty() {
                for &(at, byte) in &edits {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
            }
            bytes.extend_from_slice(&noise);
            check_scan(format, &bytes)?;
        }
    }

    #[test]
    fn truncation_keeps_exactly_the_whole_frames(recs in records(8), cut in any::<usize>()) {
        for format in FORMATS {
            let (bytes, ends) = build(format, &recs);
            let k = cut % (bytes.len() + 1);
            let scan = framelog::scan(format, &bytes[..k]);
            let whole = ends.iter().filter(|&&e| e <= k).count();
            prop_assert_eq!(recovered(format, &scan), expected(format, &recs[..whole]));
            prop_assert_eq!(scan.torn, k != 0 && !ends.contains(&k));
        }
    }

    #[test]
    fn a_flipped_bit_keeps_the_frames_before_it(
        recs in vec(record(), 1..8usize),
        which in any::<usize>(),
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        for format in FORMATS {
            let (mut bytes, ends) = build(format, &recs);
            let i = which % recs.len();
            let start = if i == 0 { 0 } else { ends[i - 1] };
            bytes[start + pos % (ends[i] - start)] ^= 1 << bit;
            let scan = framelog::scan(format, &bytes);
            prop_assert_eq!(recovered(format, &scan), expected(format, &recs[..i]));
            prop_assert!(scan.torn);
        }
    }

    #[test]
    fn spliced_logs_read_through_and_garbage_stops_them(
        a in records(6),
        b in records(6),
        garbage in vec(any::<u8>(), 1..32usize),
    ) {
        for format in FORMATS {
            let (log_a, _) = build(format, &a);
            let (log_b, _) = build(format, &b);
            let joined = [log_a.as_slice(), &log_b].concat();
            let both = framelog::scan(format, &joined);
            let ab: Vec<Record> = a.iter().chain(&b).cloned().collect();
            prop_assert_eq!(recovered(format, &both), expected(format, &ab));
            prop_assert!(!both.torn);

            let tail = [garbage.as_slice(), &log_b].concat();
            prop_assume!(framelog::scan(format, &tail).frames.is_empty());
            let joined = [log_a.as_slice(), &tail].concat();
            let broken = framelog::scan(format, &joined);
            prop_assert_eq!(recovered(format, &broken), expected(format, &a));
            prop_assert!(broken.torn);
        }
    }

    #[test]
    fn repair_then_append_reads_prefix_then_appended(
        prefix in records(6),
        torn in record(),
        torn_at in any::<usize>(),
        noise in vec(any::<u8>(), 0..16usize),
        appended in records(6),
        use_noise in any::<bool>(),
    ) {
        for format in FORMATS {
            let path = std::env::temp_dir().join(format!(
                "mmr-framelog-prop-{}-{}.log",
                std::process::id(),
                format.tag
            ));
            let (good, _) = build(format, &prefix);
            // The tail a crash leaves: part of a frame, or plain noise.
            let tail = if use_noise {
                noise.clone()
            } else {
                let line = framelog::frame(format, &torn.0, kind(format, &torn), &torn.2);
                line.as_bytes()[..torn_at % line.len()].to_vec()
            };
            let bytes = [good.as_slice(), &tail].concat();
            prop_assume!(framelog::scan(format, &tail).frames.is_empty());
            std::fs::write(&path, &bytes).unwrap();
            let repaired = framelog::repair(&path, format);
            if !format.claims(&bytes) {
                // Not this format's log at all: refused and left alone.
                let err = repaired.expect_err("a foreign file is refused");
                prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes);
                continue;
            }
            let repaired = repaired.unwrap();
            prop_assert_eq!(repaired.kept, good.len() as u64);
            prop_assert_eq!(repaired.cut, tail.len() as u64);
            let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            std::io::Write::write_all(&mut file, &build(format, &appended).0).unwrap();
            drop(file);
            let text = std::fs::read(&path).unwrap();
            let scan = framelog::scan(format, &text);
            let all: Vec<Record> = prefix.iter().chain(&appended).cloned().collect();
            prop_assert_eq!(recovered(format, &scan), expected(format, &all));
            prop_assert!(!scan.torn);
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// One line per format, computed by the framing code the formats used
/// before they shared this module: the bytes on disk and on the wire must
/// not change.
#[test]
fn golden_lines_are_byte_stable() {
    assert_eq!(
        framelog::frame(
            SEGMENT,
            1,
            "put",
            r#"{"key":"00112233445566778899aabbccddeeff","entry":null}"#
        ),
        "MMRS 1 put 63ebaae8 {\"key\":\"00112233445566778899aabbccddeeff\",\"entry\":null}\n"
    );
    assert_eq!(
        framelog::frame(
            JOURNAL,
            1,
            "ctx",
            r#"{"trials":20000,"seed":2011,"threads":2,"host_cores":4}"#
        ),
        "MMRJ 1 ctx 541e18c4 {\"trials\":20000,\"seed\":2011,\"threads\":2,\"host_cores\":4}\n"
    );
    assert_eq!(
        framelog::frame(
            FLIGHT,
            1,
            "",
            r#"{"seq":7,"t_us":1500,"tid":2,"kind":"chunk_retried","chunk":3,"attempt":2,"n":null,"value":0.25,"detail":"panic"}"#
        ),
        "MMRE 1 80b9b53e {\"seq\":7,\"t_us\":1500,\"tid\":2,\"kind\":\"chunk_retried\",\"chunk\":3,\"attempt\":2,\"n\":null,\"value\":0.25,\"detail\":\"panic\"}\n"
    );
}
