//! Crash-safe checkpoint journal: append-only, CRC-framed, torn-tail
//! tolerant.
//!
//! A journal is an [`obs::framelog`] log of the `MMRJ` format, one framed
//! record per line. The first record is a `ctx` line
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
use obs::framelog::{self, JOURNAL};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Frame tag opening every journal line.
const TAG: &str = JOURNAL.tag;

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
    framelog::frame(JOURNAL, VERSION, kind, json)
}

/// Reads the run the longest valid prefix of journal bytes holds (`None`
/// without a `ctx` record), and whether a torn tail follows that prefix.
/// Valid-CRC records of unknown version/kind are skipped.
///
/// # Errors
///
/// [`Error::BadCheckpoint`] when a CRC-valid current-version record
/// carries unparseable JSON — the frame vouched for these bytes, so this
/// is real corruption (or a bug), not a torn write.
fn scan(path: &Path, bytes: &[u8]) -> Result<(Option<RunResult>, bool), Error> {
    let bad = |detail: String| Error::BadCheckpoint {
        path: path.to_path_buf(),
        detail,
    };
    let log = framelog::scan(JOURNAL, bytes);
    let mut ctx: Option<CtxRecord> = None;
    let mut experiments = Vec::new();
    // The frame checks out; the line is authentic. Unknown versions and
    // kinds are other builds' records — tolerated, skipped.
    for f in log.frames.iter().filter(|f| f.version.parse::<u32>().is_ok_and(|v| v == VERSION)) {
        match f.kind {
            "ctx" => {
                let rec: CtxRecord = serde_json::from_str(f.json)
                    .map_err(|e| bad(format!("CRC-valid ctx record with bad JSON: {e}")))?;
                ctx.get_or_insert(rec);
            }
            "exp" => experiments.push(
                serde_json::from_str(f.json)
                    .map_err(|e| bad(format!("CRC-valid exp record with bad JSON: {e}")))?,
            ),
            _ => {}
        }
    }
    let run = ctx.map(|c| RunResult {
        trials: c.trials,
        seed: c.seed,
        threads: c.threads,
        host_cores: c.host_cores,
        experiments,
    });
    Ok((run, log.torn))
}

/// Counts one torn tail of `cut` bytes cut off a journal.
fn note_torn_tail(cut: u64) {
    obs::global().counter("mc.journal.torn_tails").inc();
    montecarlo::fault::ledger().note_journal_torn_tail();
    obs::flight::event("journal_torn_tail").n(cut).emit();
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
    if !JOURNAL.claims(bytes) {
        return Err(Error::BadCheckpoint {
            path: path.to_path_buf(),
            detail: format!("neither a {TAG} journal nor a JSON checkpoint"),
        });
    }
    Ok(scan(path, bytes)?.0)
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
        let mut bytes = match std::fs::read(path) {
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
            let prev = if !JOURNAL.claims(&bytes) {
                // Legacy JSON (or garbage, which parse rejects as
                // BadCheckpoint before we touch the file).
                parse(path, &bytes)?
            } else {
                let (run, torn) = scan(path, &bytes)?;
                if torn {
                    let repair = framelog::repair(path, JOURNAL).map_err(io)?;
                    note_torn_tail(repair.cut);
                    obs::info!(
                        "checkpoint {}: truncated torn tail ({} of {} bytes kept)",
                        path.display(),
                        repair.kept,
                        bytes.len()
                    );
                    bytes.truncate(repair.kept as usize);
                }
                run
            };
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
    /// ([`framelog::tear`]: rescan, truncate; then count) runs before the
    /// full record is appended — so every chaos run exercises exactly the
    /// code a kill -9 relies on.
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
                let repair = framelog::tear(&mut self.file, &self.path, JOURNAL, &line)
                    .map_err(io(&self.path))?;
                if repair.cut > 0 {
                    note_torn_tail(repair.cut);
                }
            }
        }
        self.file.write_all(line.as_bytes()).map_err(io(&self.path))?;
        let _ = self.file.sync_data();
        obs::flight::event("journal_append").detail(&result.id).emit();
        self.records_written = record_no + 1;
        self.experiments.push(result.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montecarlo::fault;
    use obs::framelog::crc32;

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
