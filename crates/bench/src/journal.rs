//! Crash-safe checkpoint journal: append-only, CRC-framed, torn-tail
//! tolerant.
//!
//! A journal is a UTF-8 text file of one framed record per line:
//!
//! ```text
//! MMRJ <version> <kind> <crc32-8hex> <compact-json>\n
//! ```
//!
//! where the CRC-32 (reflected, polynomial `0xEDB88320`) covers
//! `"<version> <kind> <compact-json>"`. The first record is a `ctx` line
//! capturing the run context ([`CtxRecord`]); each completed experiment
//! appends one `exp` line ([`crate::ExperimentResult`] JSON). Records are
//! only ever appended, so a crash — including kill -9 mid-write — can
//! damage at most the final line. Recovery scans from the top, keeps the
//! longest valid prefix, truncates the torn tail (counted in
//! `mc.journal.torn_tails` and the fault ledger), and resumes appending.
//! Valid-CRC lines with an unknown version or kind are skipped, not
//! rejected, so journals survive mixed-version histories; a valid-CRC line
//! whose JSON fails to parse is corruption the frame vouched for and is a
//! hard [`Error::BadCheckpoint`].
//!
//! Legacy whole-file JSON checkpoints (the pre-journal `--checkpoint`
//! format, a pretty-printed [`crate::RunResult`]) are detected by their
//! leading `{` and converted in place on open.

use crate::{checkpoint, Ctx, Error, ExperimentResult, RunResult};
use obs::flight::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Frame tag opening every journal line.
const TAG: &str = "MMRJ";

/// Journal format version written by this build.
pub const VERSION: u32 = 1;

/// The run-context record heading every journal: enough to rebuild a full
/// [`RunResult`] and to refuse resuming under an incompatible context.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CtxRecord {
    /// Trial count of the run.
    pub trials: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads of the recording run (informational).
    pub threads: usize,
    /// Host parallelism of the recording run (informational).
    pub host_cores: usize,
}

/// Frames one record as a journal line (with trailing newline).
fn frame(kind: &str, json: &str) -> String {
    let crc = crc32(format!("{VERSION} {kind} {json}").as_bytes());
    format!("{TAG} {VERSION} {kind} {crc:08x} {json}\n")
}

/// What a journal scan recovered.
struct Scan {
    /// Byte length of the valid prefix (everything past it is torn).
    good_len: usize,
    /// True when bytes past `good_len` had to be discarded.
    torn: bool,
    ctx: Option<CtxRecord>,
    experiments: Vec<ExperimentResult>,
}

/// Scans journal bytes, keeping the longest valid prefix. Torn or
/// unframeable data ends the scan (everything from there is the tail);
/// valid-CRC records of unknown version/kind are skipped.
///
/// # Errors
///
/// [`Error::BadCheckpoint`] when a CRC-valid current-version record
/// carries unparseable JSON — the frame vouched for these bytes, so this
/// is real corruption (or a bug), not a torn write.
fn scan(path: &Path, bytes: &[u8]) -> Result<Scan, Error> {
    let bad = |detail: String| Error::BadCheckpoint {
        path: path.to_path_buf(),
        detail,
    };
    let mut out = Scan {
        good_len: 0,
        torn: false,
        ctx: None,
        experiments: Vec::new(),
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // No trailing newline: an append died mid-line.
            out.torn = true;
            break;
        };
        let Ok(line) = std::str::from_utf8(&bytes[offset..offset + nl]) else {
            out.torn = true;
            break;
        };
        let mut parts = line.splitn(5, ' ');
        let (tag, ver, kind, crc_hex, json) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        let framed = tag == TAG
            && u32::from_str_radix(crc_hex, 16)
                .is_ok_and(|crc| crc == crc32(format!("{ver} {kind} {json}").as_bytes()));
        if !framed {
            out.torn = true;
            break;
        }
        // The frame checks out; the line is authentic. Unknown versions
        // and kinds are other builds' records — tolerated, skipped.
        if ver.parse::<u32>().is_ok_and(|v| v == VERSION) {
            match kind {
                "ctx" => {
                    let rec: CtxRecord = serde_json::from_str(json)
                        .map_err(|e| bad(format!("CRC-valid ctx record with bad JSON: {e}")))?;
                    out.ctx.get_or_insert(rec);
                }
                "exp" => {
                    let rec: ExperimentResult = serde_json::from_str(json)
                        .map_err(|e| bad(format!("CRC-valid exp record with bad JSON: {e}")))?;
                    out.experiments.push(rec);
                }
                _ => {}
            }
        }
        offset += nl + 1;
        out.good_len = offset;
    }
    Ok(out)
}

/// Renders the journal content for a context and a list of completed
/// experiments — the canonical serialization [`Journal::open`] normalizes
/// to and [`checkpoint::save`] writes.
#[must_use]
pub fn render(ctx_rec: &CtxRecord, experiments: &[ExperimentResult]) -> String {
    let mut out = frame(
        "ctx",
        &serde_json::to_string(ctx_rec).expect("CtxRecord serialization is infallible"),
    );
    for e in experiments {
        out.push_str(&frame(
            "exp",
            &serde_json::to_string(e).expect("ExperimentResult serialization is infallible"),
        ));
    }
    out
}

/// Parses journal (or legacy JSON) bytes read-only into a [`RunResult`].
///
/// Used by [`checkpoint::load`]; returns `None` for an empty file (all
/// records torn away — indistinguishable from a fresh journal).
///
/// # Errors
///
/// [`Error::BadCheckpoint`] when the bytes are neither a journal, a legacy
/// JSON checkpoint, nor empty — or when a CRC-valid record is unparseable.
pub(crate) fn parse(path: &Path, bytes: &[u8]) -> Result<Option<RunResult>, Error> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.starts_with(b"{") {
        // Legacy whole-file JSON checkpoint.
        let bad = |detail: String| Error::BadCheckpoint {
            path: path.to_path_buf(),
            detail,
        };
        let text = std::str::from_utf8(bytes).map_err(|e| bad(e.to_string()))?;
        return serde_json::from_str(text)
            .map(Some)
            .map_err(|e| bad(e.to_string()));
    }
    if !bytes.starts_with(TAG.as_bytes()) {
        return Err(Error::BadCheckpoint {
            path: path.to_path_buf(),
            detail: format!("neither a {TAG} journal nor a JSON checkpoint"),
        });
    }
    let scan = scan(path, bytes)?;
    let Some(ctx) = scan.ctx else {
        return Ok(None);
    };
    Ok(Some(RunResult {
        trials: ctx.trials,
        seed: ctx.seed,
        threads: ctx.threads,
        host_cores: ctx.host_cores,
        experiments: scan.experiments,
    }))
}

/// An open, resumable checkpoint journal.
///
/// [`open`](Journal::open) recovers whatever previous runs left behind
/// (including torn tails and legacy-format files); [`append`](Journal::append)
/// durably adds one completed experiment per call. Completed records are
/// never rewritten, so no later crash can lose them.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    experiments: Vec<ExperimentResult>,
    records_written: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the given context,
    /// recovering any valid prefix a previous run left.
    ///
    /// Recovery policy, in order: a missing or empty file starts fresh; a
    /// legacy JSON checkpoint is converted to journal format; a torn tail
    /// is truncated (counted in `mc.journal.torn_tails` and the fault
    /// ledger); a context (trials/seed) mismatch discards the recovered
    /// state with a warning, exactly like the legacy resume path.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read or (re)written —
    /// including an unwritable path, surfaced here, before any experiment
    /// runs. [`Error::BadCheckpoint`] when the file exists but is not a
    /// journal or legacy checkpoint.
    pub fn open(path: &Path, ctx: &Ctx) -> Result<Journal, Error> {
        let io = |source: std::io::Error| Error::Io {
            path: path.to_path_buf(),
            source,
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(source) => return Err(io(source)),
        };

        let mut experiments = Vec::new();
        let mut ctx_rec = CtxRecord {
            trials: ctx.trials,
            seed: ctx.seed,
            threads: ctx.threads,
            host_cores: crate::default_threads(),
        };
        if !bytes.is_empty() {
            let mut prev = None;
            if bytes.starts_with(b"{") || !bytes.starts_with(TAG.as_bytes()) {
                // Legacy JSON (or garbage, which parse rejects as
                // BadCheckpoint before we touch the file).
                prev = parse(path, &bytes)?;
            } else {
                let scan = scan(path, &bytes)?;
                if scan.torn {
                    obs::global().counter("mc.journal.torn_tails").inc();
                    montecarlo::fault::ledger().note_journal_torn_tail();
                    obs::flight::event("journal_torn_tail")
                        .n((bytes.len() - scan.good_len) as u64)
                        .emit();
                    obs::info!(
                        "checkpoint {}: truncated torn tail ({} of {} bytes kept)",
                        path.display(),
                        scan.good_len,
                        bytes.len()
                    );
                }
                if let Some(rec) = scan.ctx {
                    prev = Some(RunResult {
                        trials: rec.trials,
                        seed: rec.seed,
                        threads: rec.threads,
                        host_cores: rec.host_cores,
                        experiments: scan.experiments,
                    });
                }
            }
            if let Some(prev) = prev {
                if checkpoint::matches_ctx(&prev, ctx) {
                    experiments = prev.experiments;
                    ctx_rec.threads = prev.threads;
                    ctx_rec.host_cores = prev.host_cores;
                } else {
                    obs::info!(
                        "checkpoint {} was recorded with trials = {}, seed = {}; ignoring it (current trials = {}, seed = {})",
                        path.display(),
                        prev.trials,
                        prev.seed,
                        ctx.trials,
                        ctx.seed
                    );
                }
            }
        }

        // Normalize on disk: recovered prefix (or fresh header) in journal
        // format, written atomically so a crash here cannot half-convert.
        let content = render(&ctx_rec, &experiments);
        if content.as_bytes() != bytes.as_slice() {
            crate::write_atomic(path, &content)?;
        }
        let file = OpenOptions::new().append(true).open(path).map_err(io)?;
        let records_written = 1 + experiments.len() as u64;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            experiments,
            records_written,
        })
    }

    /// Experiments recovered from (and appended to) this journal, in
    /// completion order.
    #[must_use]
    pub fn experiments(&self) -> &[ExperimentResult] {
        &self.experiments
    }

    /// Durably appends one completed experiment.
    ///
    /// Under an installed chaos plan this record's write may be torn: a
    /// partial frame is flushed first, then the *real* recovery path
    /// (rescan, truncate, count) runs before the full record is appended —
    /// so every chaos run exercises exactly the code a kill -9 relies on.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the append fails; completed records on disk are
    /// unaffected.
    pub fn append(&mut self, result: &ExperimentResult) -> Result<(), Error> {
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |source: std::io::Error| Error::Io { path, source }
        };
        let line = frame(
            "exp",
            &serde_json::to_string(result).expect("ExperimentResult serialization is infallible"),
        );
        let record_no = self.records_written;
        if let Some(plan) = montecarlo::fault::active() {
            if plan.torn_write(record_no) {
                montecarlo::fault::ledger().note_injected_torn_write();
                obs::flight::event("fault_fired").n(record_no).detail("torn_write").emit();
                // Tear the write: flush a partial frame, then recover it.
                let partial = &line.as_bytes()[..line.len() * 2 / 3];
                self.file.write_all(partial).map_err(io(&self.path))?;
                let _ = self.file.sync_data();
                self.recover_torn_tail()?;
            }
        }
        self.file.write_all(line.as_bytes()).map_err(io(&self.path))?;
        let _ = self.file.sync_data();
        obs::flight::event("journal_append").detail(&result.id).emit();
        self.records_written = record_no + 1;
        self.experiments.push(result.clone());
        Ok(())
    }

    /// Re-scans the file and truncates whatever invalid tail follows the
    /// valid prefix — the same recovery [`open`](Journal::open) performs,
    /// run in-process after an injected torn write.
    fn recover_torn_tail(&mut self) -> Result<(), Error> {
        let io = |source: std::io::Error| Error::Io {
            path: self.path.clone(),
            source,
        };
        let bytes = std::fs::read(&self.path).map_err(io)?;
        let scan = scan(&self.path, &bytes)?;
        if scan.torn {
            // The handle is in append mode, so later writes land at the
            // new, truncated end.
            self.file.set_len(scan.good_len as u64).map_err(io)?;
            obs::global().counter("mc.journal.torn_tails").inc();
            montecarlo::fault::ledger().note_journal_torn_tail();
            obs::flight::event("journal_torn_tail")
                .n((bytes.len() - scan.good_len) as u64)
                .emit();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montecarlo::fault;

    /// The fault ledger is process-global, so tests asserting exact
    /// ledger deltas (or installing plans) serialize on this lock.
    static LEDGER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn ledger_lock() -> std::sync::MutexGuard<'static, ()> {
        LEDGER_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmr-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn result(id: &str) -> ExperimentResult {
        ExperimentResult {
            id: id.into(),
            artifact: "test artifact".into(),
            reproduced: 3,
            mismatched: 0,
            elapsed_secs: 1.25,
            report: "line one\nline two: REPRODUCED\n".into(),
            diagnostics: Vec::new(),
            degraded: false,
            fault_ledger: crate::FaultLedger::default(),
        }
    }

    #[test]
    fn journal_roundtrips_appends_across_reopens() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("ck.journal");
        let ctx = Ctx::quick();
        {
            let mut j = Journal::open(&path, &ctx).unwrap();
            assert!(j.experiments().is_empty());
            j.append(&result("t1")).unwrap();
            j.append(&result("f2")).unwrap();
        }
        let j = Journal::open(&path, &ctx).unwrap();
        assert_eq!(j.experiments(), &[result("t1"), result("f2")]);
        // Read-only parse agrees and carries the context.
        let run = parse(&path, &std::fs::read(&path).unwrap()).unwrap().unwrap();
        assert_eq!(run.trials, ctx.trials);
        assert_eq!(run.seed, ctx.seed);
        assert_eq!(run.experiments.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let _serial = ledger_lock();
        let dir = tmp_dir("torn");
        let path = dir.join("ck.journal");
        let ctx = Ctx::quick();
        {
            let mut j = Journal::open(&path, &ctx).unwrap();
            j.append(&result("t1")).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        // Simulate a kill mid-append: half of a valid frame.
        let torn_line = frame("exp", &serde_json::to_string(&result("f2")).unwrap());
        let mut bytes = intact.clone();
        bytes.extend_from_slice(&torn_line.as_bytes()[..torn_line.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let before = fault::ledger().snapshot();
        let j = Journal::open(&path, &ctx).unwrap();
        assert_eq!(j.experiments(), &[result("t1")], "the torn record is gone, t1 survives");
        assert_eq!(std::fs::read(&path).unwrap(), intact, "file truncated back to the valid prefix");
        let delta = fault::ledger().snapshot().since(&before);
        assert_eq!(delta.journal_torn_tails, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_and_kind_records_are_skipped() {
        let _serial = ledger_lock();
        let dir = tmp_dir("mixed");
        let path = dir.join("ck.journal");
        let ctx = Ctx::quick();
        {
            let mut j = Journal::open(&path, &ctx).unwrap();
            j.append(&result("t1")).unwrap();
        }
        // A future-version record and an unknown kind, both CRC-valid.
        let future = format!(
            "{TAG} 99 exp {:08x} {}\n",
            crc32(b"99 exp {\"whatever\":true}"),
            "{\"whatever\":true}"
        );
        let strange = frame("note", "{\"free\":\"form\"}");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(future.as_bytes());
        bytes.extend_from_slice(strange.as_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let before = fault::ledger().snapshot();
        let j = Journal::open(&path, &ctx).unwrap();
        assert_eq!(j.experiments(), &[result("t1")]);
        assert_eq!(
            fault::ledger().snapshot().since(&before).journal_torn_tails,
            0,
            "skipping tolerated records is not torn-tail recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_json_checkpoint_is_converted_on_open() {
        let dir = tmp_dir("legacy");
        let path = dir.join("ck.journal");
        let ctx = Ctx::quick();
        let legacy = RunResult {
            trials: ctx.trials,
            seed: ctx.seed,
            threads: 3,
            host_cores: 8,
            experiments: vec![result("t1")],
        };
        std::fs::write(&path, serde_json::to_string_pretty(&legacy).unwrap()).unwrap();
        let j = Journal::open(&path, &ctx).unwrap();
        assert_eq!(j.experiments(), &[result("t1")]);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(TAG.as_bytes()), "converted to journal format");
        let back = parse(&path, &bytes).unwrap().unwrap();
        assert_eq!(back, legacy);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn context_mismatch_resets_recovered_state() {
        let dir = tmp_dir("ctxreset");
        let path = dir.join("ck.journal");
        {
            let mut j = Journal::open(&path, &Ctx::quick()).unwrap();
            j.append(&result("t1")).unwrap();
        }
        let mut other = Ctx::quick();
        other.seed += 1;
        let j = Journal::open(&path, &other).unwrap();
        assert!(j.experiments().is_empty(), "different seed discards the state");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_is_a_bad_checkpoint_and_unwritable_path_is_io() {
        let dir = tmp_dir("errors");
        let path = dir.join("ck.journal");
        std::fs::write(&path, "definitely not a journal\n").unwrap();
        let err = Journal::open(&path, &Ctx::quick()).unwrap_err();
        assert!(matches!(err, Error::BadCheckpoint { .. }), "{err}");

        let missing = dir.join("no-such-dir").join("ck.journal");
        let err = Journal::open(&missing, &Ctx::quick()).unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_recovers_and_loses_nothing() {
        let _serial = ledger_lock();
        let dir = tmp_dir("chaos-torn");
        let path = dir.join("ck.journal");
        let ctx = Ctx::quick();
        // Find a seed whose torn profile tears record 1 (the first exp
        // append): decisions are pure, so this search is deterministic.
        let seed = (0..512)
            .find(|&s| fault::FaultPlan::new(s, fault::Profile::TornWrites).torn_write(1))
            .expect("a tearing seed exists");
        let before = fault::ledger().snapshot();
        {
            let mut j = Journal::open(&path, &ctx).unwrap();
            fault::install(fault::FaultPlan::new(seed, fault::Profile::TornWrites));
            let appended = j.append(&result("t1"));
            fault::clear();
            appended.unwrap();
        }
        let delta = fault::ledger().snapshot().since(&before);
        assert_eq!(delta.injected_torn_writes, 1);
        assert_eq!(delta.journal_torn_tails, 1);
        let j = Journal::open(&path, &ctx).unwrap();
        assert_eq!(j.experiments(), &[result("t1")], "the record survived its torn write");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
