//! Crash-safe campaign journaling: deterministic chunking, append-only
//! checkpoint records, and exact resume.
//!
//! Every campaign in the workspace (resilience fault sweeps, fuzz seed
//! sweeps, explore design-point sweeps) is byte-deterministic: the same
//! config produces the same report for any `--workers`×`--lanes`. That
//! contract makes *exact* crash/resume possible — if the campaign is split
//! into deterministic work units and each unit's result is persisted as it
//! completes, a restarted run can replay the finished units and recompute
//! only the missing ones, producing a report byte-identical to an
//! uninterrupted run.
//!
//! [`run_chunked`] is the one campaign loop. Without a journal directory it
//! runs the same chunks in memory and never touches JSON; [`run_items`] is
//! the per-item policy (watchdog, retry, quarantine) every chunk uses.
//!
//! Chunk results are journaled with their derived `Serialize` encoding and
//! replayed with the derived `Deserialize` decoding, which reads back
//! exactly the shapes the encoder writes: re-serializing a replayed chunk
//! reproduces its payload byte-for-byte, which is what makes a resumed
//! report byte-identical. A payload that passes its checksum but does not
//! decode strictly (an out-of-range or fractional integer, a missing field)
//! is a [`JournalError::Decode`] naming the field.
//!
//! # Journal format
//!
//! One file, `campaign.journal`, inside the `--resume` directory:
//!
//! ```text
//! header (24 bytes):
//!   magic        8 bytes  b"TLJRNL01"
//!   version      u32 LE   currently 1
//!   config_hash  u64 LE   FNV-1a of the canonicalized campaign config
//!   total_chunks u32 LE   number of work units in this campaign
//! record (repeated):
//!   chunk_index  u32 LE
//!   payload_len  u32 LE
//!   checksum     u64 LE   FNV-1a of the payload bytes
//!   payload      payload_len bytes (compact JSON of the chunk result)
//! ```
//!
//! Records are appended with an fsync each, so a completed chunk survives
//! `kill -9`. On open, the reader walks the records and truncates the file
//! at the first torn or corrupt one (short header, short record, checksum
//! mismatch, out-of-range index, non-UTF-8 payload) — a crash mid-append
//! costs exactly the chunk that was being written, never the journal.
//!
//! # Chunk keying
//!
//! The header's `config_hash` covers the campaign kind, the chunk size, the
//! total chunk count, and a canonical serialization of the config with
//! run-irrelevant knobs (worker count) zeroed. Resuming with a config whose
//! hash differs — different seed, different design, different `--lanes`
//! (lane width determines chunk boundaries) — fails loudly with
//! [`JournalError::ConfigMismatch`] rather than silently restarting or,
//! worse, splicing chunks from two different campaigns into one report.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tensorlib_linalg::par::{panic_message, par_map_catch_ctl, CatchOutcome, MapControl};

/// Journal file name inside the `--resume` directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

const MAGIC: &[u8; 8] = b"TLJRNL01";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
const RECORD_HEADER_LEN: usize = 16;

/// FNV-1a 64-bit hash — the checksum for journal records and the campaign
/// config fingerprint. Stable across platforms and releases by definition.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints a campaign for journal compatibility: the campaign kind
/// (`"faults"`, `"fuzz"`, `"explore"`), the chunk geometry, and a canonical
/// config serialization with run-irrelevant knobs (worker count) zeroed.
/// Two configs share a journal iff they would produce identical chunk
/// results at identical chunk indices.
pub fn config_hash(kind: &str, chunk_size: usize, total_chunks: usize, canonical: &str) -> u64 {
    let input = format!("{kind}|v{VERSION}|chunk={chunk_size}|total={total_chunks}|{canonical}");
    fnv1a64(input.as_bytes())
}

/// A journal open/append failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure reading or writing the journal.
    Io(String),
    /// The file at the journal path is not a campaign journal.
    BadMagic,
    /// The journal was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A journaled chunk payload that passed its checksum failed to decode
    /// back into typed results — version drift between the writer and this
    /// reader.
    Decode(String),
    /// The journal belongs to a different campaign configuration. Resuming
    /// it would splice results from two different campaigns into one
    /// report, so this is a hard error — never a silent restart.
    ConfigMismatch {
        /// Hash of the current campaign config.
        expected_hash: u64,
        /// Hash stored in the journal header.
        found_hash: u64,
        /// Chunk count of the current campaign.
        expected_chunks: u32,
        /// Chunk count stored in the journal header.
        found_chunks: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Decode(e) => write!(
                f,
                "journal record failed to decode ({e}); the journal was likely \
                 written by a different build — pass a fresh --resume directory"
            ),
            JournalError::BadMagic => write!(
                f,
                "resume directory holds a file that is not a campaign journal \
                 (bad magic); pass a fresh directory"
            ),
            JournalError::BadVersion { found } => write!(
                f,
                "journal format version {found} is not supported by this build \
                 (expected {VERSION})"
            ),
            JournalError::ConfigMismatch {
                expected_hash,
                found_hash,
                expected_chunks,
                found_chunks,
            } => write!(
                f,
                "journal was written for a different campaign config \
                 (journal hash {found_hash:#018x} over {found_chunks} chunks, current \
                 config hash {expected_hash:#018x} over {expected_chunks} chunks); \
                 refusing to resume — rerun with the original arguments or pass a \
                 fresh --resume directory"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

/// An open campaign journal: the chunk results recovered from disk plus an
/// append handle for new ones.
#[derive(Debug)]
pub struct Journal {
    file: File,
    entries: BTreeMap<u32, String>,
}

impl Journal {
    /// Opens (or creates) the journal in `dir` for a campaign with the
    /// given config fingerprint and chunk count.
    ///
    /// A fresh or torn-header file is initialized in place. An existing
    /// journal is validated (magic, version, config hash, chunk count) and
    /// its records are scanned; a torn or corrupt tail is truncated so the
    /// journal ends at the last intact record.
    ///
    /// # Errors
    ///
    /// [`JournalError::ConfigMismatch`] when the journal belongs to a
    /// different campaign; [`JournalError::BadMagic`] /
    /// [`JournalError::BadVersion`] for foreign files; [`JournalError::Io`]
    /// for filesystem failures.
    pub fn open(dir: &Path, config_hash: u64, total_chunks: u32) -> Result<Journal, JournalError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let path = dir.join(JOURNAL_FILE);
        let existing = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        // A file shorter than the header can only be a crash during initial
        // creation (the header is written with one fsynced write); treat it
        // as fresh. Anything longer must carry our magic.
        let fresh = existing.len() < HEADER_LEN;
        let mut entries = BTreeMap::new();
        let mut good_len = HEADER_LEN;
        if !fresh {
            if &existing[0..8] != MAGIC {
                return Err(JournalError::BadMagic);
            }
            let version = u32::from_le_bytes(existing[8..12].try_into().unwrap());
            if version != VERSION {
                return Err(JournalError::BadVersion { found: version });
            }
            let found_hash = u64::from_le_bytes(existing[12..20].try_into().unwrap());
            let found_chunks = u32::from_le_bytes(existing[20..24].try_into().unwrap());
            if found_hash != config_hash || found_chunks != total_chunks {
                return Err(JournalError::ConfigMismatch {
                    expected_hash: config_hash,
                    found_hash,
                    expected_chunks: total_chunks,
                    found_chunks,
                });
            }
            let mut off = HEADER_LEN;
            while off + RECORD_HEADER_LEN <= existing.len() {
                let idx = u32::from_le_bytes(existing[off..off + 4].try_into().unwrap());
                let len =
                    u32::from_le_bytes(existing[off + 4..off + 8].try_into().unwrap()) as usize;
                let sum = u64::from_le_bytes(existing[off + 8..off + 16].try_into().unwrap());
                let start = off + RECORD_HEADER_LEN;
                let Some(end) = start.checked_add(len) else {
                    break;
                };
                if end > existing.len() || idx >= total_chunks {
                    break;
                }
                let payload = &existing[start..end];
                if fnv1a64(payload) != sum {
                    break;
                }
                let Ok(text) = std::str::from_utf8(payload) else {
                    break;
                };
                entries.insert(idx, text.to_string());
                off = end;
                good_len = off;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        if fresh {
            file.set_len(0).map_err(io_err)?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&config_hash.to_le_bytes());
            header.extend_from_slice(&total_chunks.to_le_bytes());
            file.write_all(&header).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        } else if good_len < existing.len() {
            file.set_len(good_len as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(good_len as u64)).map_err(io_err)?;
        Ok(Journal { file, entries })
    }

    /// The chunk payloads recovered from disk when the journal was opened,
    /// keyed by chunk index.
    pub fn entries(&self) -> &BTreeMap<u32, String> {
        &self.entries
    }

    /// Appends a completed chunk's payload and fsyncs, so the record
    /// survives an immediate `kill -9`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write or sync fails.
    pub fn append(&mut self, chunk_index: u32, payload: &str) -> Result<(), JournalError> {
        let bytes = payload.as_bytes();
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + bytes.len());
        record.extend_from_slice(&chunk_index.to_le_bytes());
        record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
        record.extend_from_slice(bytes);
        self.file.write_all(&record).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        Ok(())
    }
}

/// Durability knobs threaded through every campaign entry point. The
/// default value runs a campaign in memory: no journal, no watchdog, the
/// campaign's default chunk geometry, one attempt per work item, and the
/// process-wide SIGINT flag as the interrupt latch.
#[derive(Clone, Default)]
pub struct DurabilityOptions {
    /// Journal directory (`--resume <dir>`). `None` runs the campaign in
    /// memory, without a journal or telemetry.
    pub dir: Option<PathBuf>,
    /// Per-chunk wall-clock watchdog (`--chunk-timeout`). Work items not
    /// yet started when a chunk's deadline passes are demoted to a typed
    /// `Degraded` outcome instead of stalling the campaign.
    pub chunk_timeout: Option<Duration>,
    /// Override the campaign's default chunk size (work items per journal
    /// record). Tests use small chunks to exercise record boundaries.
    pub chunk_size: Option<usize>,
    /// How many times a panicking work item is retried serially before
    /// being quarantined with its panic payload captured in the report.
    /// `0` (the default) means one attempt, no retries.
    pub panic_retries: usize,
    /// Interrupt latch. `None` uses the process-wide SIGINT flag
    /// ([`crate::interrupt::interrupted`]); tests install a local flag so
    /// parallel tests never race on the global one.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Test-only chaos hook: work items whose identity string contains one
    /// of these substrings panic before running, exercising the quarantine
    /// path deterministically.
    pub chaos_panic_targets: Vec<String>,
    /// Disables the campaign telemetry layer (`events.jsonl` /
    /// `status.json`) for journaled runs. Off by default — journaled
    /// campaigns stream telemetry unless the caller opts out (the perfgate
    /// uses this to A/B the telemetry overhead). Telemetry only ever
    /// activates when a journal directory is set.
    pub telemetry_off: bool,
}

impl DurabilityOptions {
    /// Default options with a journal directory set.
    pub fn with_dir(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: Some(dir.into()),
            ..DurabilityOptions::default()
        }
    }

    /// Panics if `identity` matches a chaos target. A no-op unless the test
    /// configured chaos.
    pub fn chaos_check(&self, identity: &str) {
        if self
            .chaos_panic_targets
            .iter()
            .any(|t| identity.contains(t.as_str()))
        {
            panic!("chaos hook tripped for {identity}");
        }
    }

    /// True once the run should stop starting new chunks: the local latch
    /// if one is installed, else the process-wide SIGINT flag.
    pub fn interrupted(&self) -> bool {
        match &self.interrupt {
            Some(flag) => flag.load(Ordering::SeqCst),
            None => crate::interrupt::interrupted(),
        }
    }

    /// The watchdog deadline for a chunk starting now, if one is set.
    pub fn chunk_deadline(&self) -> Option<Instant> {
        self.chunk_timeout.map(|t| Instant::now() + t)
    }

    /// Retry budget for panicking work items, clamped to at least the one
    /// initial attempt.
    pub fn panic_attempts(&self) -> usize {
        1 + self.panic_retries
    }
}

/// What the campaign policy made of one work item (see [`run_items`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome<R> {
    /// The item ran, possibly after serial retries, and returned a result.
    Done(R),
    /// The chunk's watchdog deadline passed before the item started.
    Degraded,
    /// Every attempt panicked; the item is quarantined with the last panic
    /// message.
    Quarantined {
        /// Attempts made (`1 + panic_retries`).
        attempts: usize,
        /// The last attempt's panic message.
        message: String,
    },
}

/// Renders a quarantined item's panic for a report: the bare message after
/// a single attempt, prefixed with the attempt count after retries.
pub fn quarantine_detail(attempts: usize, message: String) -> String {
    if attempts > 1 {
        format!("quarantined after {attempts} attempts: {message}")
    } else {
        message
    }
}

/// The per-item campaign policy every runner shares: maps `run` over
/// `items` on `workers` threads (handed out `par_chunk` at a time) with the
/// chunk watchdog from `durability` (items not started by the deadline come
/// back [`ItemOutcome::Degraded`]), per-item panic isolation with a bounded
/// serial retry before quarantine, and the test-only chaos hook, which
/// checks every identity `identities` returns for an item before it runs.
/// Outcomes are in item order for any worker count.
pub fn run_items<T, R, I, F>(
    items: &[T],
    workers: usize,
    par_chunk: usize,
    durability: &DurabilityOptions,
    identities: I,
    run: F,
) -> Vec<ItemOutcome<R>>
where
    T: Sync,
    R: Send,
    I: Fn(&T) -> Vec<String> + Sync,
    F: Fn(&T) -> R + Sync,
{
    let run_item = |item: &T| {
        if !durability.chaos_panic_targets.is_empty() {
            for identity in identities(item) {
                durability.chaos_check(&identity);
            }
        }
        run(item)
    };
    let ctl = MapControl {
        deadline: durability.chunk_deadline(),
        cancel: None,
    };
    let attempts = durability.panic_attempts();
    par_map_catch_ctl(items, workers, par_chunk, ctl, |_, item| run_item(item))
        .into_iter()
        .zip(items)
        .map(|(r, item)| match r {
            CatchOutcome::Done(x) => ItemOutcome::Done(x),
            CatchOutcome::Skipped => ItemOutcome::Degraded,
            CatchOutcome::Panicked(mut message) => {
                // A deterministic panic will recur, but an environmental one
                // (resource exhaustion under a full worker pool) gets another
                // chance on a quiet thread.
                for _ in 1..attempts {
                    match catch_unwind(AssertUnwindSafe(|| run_item(item))) {
                        Ok(x) => return ItemOutcome::Done(x),
                        Err(payload) => message = panic_message(payload),
                    }
                }
                ItemOutcome::Quarantined { attempts, message }
            }
        })
        .collect()
}

/// Replay/execution accounting for a chunked campaign run. Feeds the
/// `journal` provenance block — never the report body, because replay
/// counts legitimately differ between a clean run and a resumed run whose
/// results are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Work units the campaign was chunked into.
    pub chunks_total: usize,
    /// Chunks recovered from the journal instead of recomputed.
    pub chunks_replayed: usize,
    /// Chunks executed (and journaled, when a journal is open) by this run.
    pub chunks_executed: usize,
    /// True when the run stopped early on an interrupt; the report built
    /// from the returned chunks is partial and resumable.
    pub interrupted: bool,
}

/// Runs a campaign as `total_chunks` deterministic work units: the one
/// campaign loop behind every faults, fuzz and explore run.
///
/// Without a journal directory the chunks run in memory and their typed
/// results are returned as they are; nothing is encoded or decoded. With
/// one, chunks already in the journal are decoded instead of calling
/// `exec`, and each newly executed chunk is serialized once and appended
/// (and fsynced) before the next chunk starts; unless `opts.telemetry_off`,
/// the run also maintains `events.jsonl` and `status.json` in the directory
/// (see [`tensorlib_obs::events`]). `kind` (`"faults"`, `"fuzz"`,
/// `"explore"`) labels the telemetry, and `count_outcomes` counts one chunk
/// result's outcomes for it (e.g. `{"masked": 12, "sdc": 1}`), replayed
/// chunks included, so status counters cover the whole campaign.
///
/// Missing chunks run in ascending index order. The interrupt latch is
/// checked *between* chunks — an in-flight chunk always drains to
/// completion — so an interrupted run returns the completed prefix plus
/// `interrupted: true`, and a later resume picks up at the first missing
/// chunk. The returned chunks are always that prefix, in index order;
/// determinism of `exec` is what makes a resumed report byte-identical to
/// an uninterrupted one.
///
/// Telemetry is observational only and strictly best-effort: every
/// telemetry write failure is swallowed, and no wall-clock data ever
/// reaches the returned chunks (the report inputs).
///
/// # Errors
///
/// Journal open/append failures, and [`JournalError::Decode`] for a
/// replayed payload that does not decode. Without a journal directory the
/// run cannot fail.
pub fn run_chunked<C, N, F>(
    opts: &DurabilityOptions,
    config_hash: u64,
    total_chunks: usize,
    kind: &str,
    count_outcomes: N,
    mut exec: F,
) -> Result<(Vec<C>, RunStats), JournalError>
where
    C: Serialize + Deserialize,
    N: Fn(&C) -> BTreeMap<String, u64>,
    F: FnMut(usize) -> C,
{
    let mut journal = match &opts.dir {
        Some(dir) => Some(Journal::open(dir, config_hash, total_chunks as u32)?),
        None => None,
    };
    let mut slots: Vec<Option<C>> = (0..total_chunks).map(|_| None).collect();
    let mut stats = RunStats {
        chunks_total: total_chunks,
        ..RunStats::default()
    };
    if let Some(j) = &journal {
        for (&idx, payload) in j.entries() {
            let chunk = serde_json::from_str(payload)
                .map_err(|e| JournalError::Decode(format!("chunk {idx}: {e}")))?;
            slots[idx as usize] = Some(chunk);
            stats.chunks_replayed += 1;
        }
    }
    let mut telemetry = match &opts.dir {
        Some(dir) if !opts.telemetry_off => {
            let mut replayed = BTreeMap::new();
            for chunk in slots.iter().flatten() {
                merge_counts(&mut replayed, &count_outcomes(chunk));
            }
            Telemetry::begin(dir, kind, config_hash, &stats, replayed)
        }
        _ => None,
    };
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        if opts.interrupted() {
            stats.interrupted = true;
            break;
        }
        let chunk_started = Instant::now();
        let chunk = exec(i);
        if let Some(j) = &mut journal {
            let payload = serde_json::to_string(&chunk).expect("chunk results serialize");
            j.append(i as u32, &payload)?;
        }
        if let Some(t) = &mut telemetry {
            t.chunk_completed(i, count_outcomes(&chunk), chunk_started.elapsed());
        }
        *slot = Some(chunk);
        stats.chunks_executed += 1;
    }
    if let Some(t) = &mut telemetry {
        t.finish(stats.interrupted);
    }
    Ok((slots.into_iter().map_while(|s| s).collect(), stats))
}

/// Live telemetry state for one journaled campaign run: the open event log
/// plus the running counters behind `status.json`. All writes are
/// best-effort; a telemetry I/O failure never fails the campaign.
struct Telemetry<'a> {
    kind: &'a str,
    dir: PathBuf,
    log: tensorlib_obs::events::EventLog,
    config_hash: String,
    chunks_total: usize,
    chunks_replayed: usize,
    chunks_executed: usize,
    outcomes: BTreeMap<String, u64>,
    started: Instant,
    /// EWMA of executed-chunk wall time in ms (α = 0.3); 0 until the first
    /// chunk completes.
    ewma_chunk_ms: f64,
}

impl<'a> Telemetry<'a> {
    /// Opens the event log and announces the run; `replayed` holds the
    /// outcome counts of every chunk recovered from the journal.
    fn begin(
        dir: &Path,
        kind: &'a str,
        config_hash: u64,
        stats: &RunStats,
        replayed: BTreeMap<String, u64>,
    ) -> Option<Telemetry<'a>> {
        use tensorlib_obs::events::{Event, EventLog};
        let mut log = EventLog::open(dir).ok()?;
        let _ = log.append(
            Event::new("campaign_started")
                .str("kind", kind)
                .str("config_hash", &format!("{config_hash:016x}"))
                .u64("total_chunks", stats.chunks_total as u64)
                .u64("chunks_replayed", stats.chunks_replayed as u64)
                .u64("pid", std::process::id() as u64)
                .timing(&[]),
        );
        let t = Telemetry {
            kind,
            dir: dir.to_path_buf(),
            log,
            config_hash: format!("{config_hash:016x}"),
            chunks_total: stats.chunks_total,
            chunks_replayed: stats.chunks_replayed,
            chunks_executed: 0,
            outcomes: replayed,
            started: Instant::now(),
            ewma_chunk_ms: 0.0,
        };
        t.write_status("running");
        Some(t)
    }

    fn chunk_completed(&mut self, index: usize, counts: BTreeMap<String, u64>, wall: Duration) {
        use tensorlib_obs::events::Event;
        merge_counts(&mut self.outcomes, &counts);
        self.chunks_executed += 1;
        let wall_ms = wall.as_secs_f64() * 1e3;
        self.ewma_chunk_ms = if self.chunks_executed == 1 {
            wall_ms
        } else {
            0.3 * wall_ms + 0.7 * self.ewma_chunk_ms
        };
        let _ = self.log.append(
            Event::new("chunk_completed")
                .u64("chunk", index as u64)
                .counts("outcomes", &counts)
                .timing(&[("chunk_wall_ms", wall_ms)]),
        );
        if let Some(&n) = counts.get("degraded").filter(|&&n| n > 0) {
            let _ = self.log.append(
                Event::new("chunk_degraded")
                    .u64("chunk", index as u64)
                    .u64("degraded", n)
                    .timing(&[]),
            );
        }
        if let Some(&n) = counts.get("panicked").filter(|&&n| n > 0) {
            let _ = self.log.append(
                Event::new("panic_retry")
                    .u64("chunk", index as u64)
                    .u64("panicked", n)
                    .timing(&[]),
            );
        }
        self.write_status("running");
    }

    fn finish(&mut self, interrupted: bool) {
        use tensorlib_obs::events::Event;
        let (event, state) = if interrupted {
            ("campaign_interrupted", "interrupted")
        } else {
            ("campaign_finished", "finished")
        };
        let _ = self.log.append(
            Event::new(event)
                .u64("chunks_done", (self.chunks_replayed + self.chunks_executed) as u64)
                .u64("total_chunks", self.chunks_total as u64)
                .counts("outcomes", &self.outcomes)
                .timing(&[("elapsed_ms", self.started.elapsed().as_secs_f64() * 1e3)]),
        );
        self.write_status(state);
    }

    fn write_status(&self, state: &str) {
        use tensorlib_obs::events::{unix_ms, StatusSnapshot, StatusTiming};
        let done = self.chunks_replayed + self.chunks_executed;
        let remaining = self.chunks_total.saturating_sub(done);
        let eta_ms = if state == "running" && self.ewma_chunk_ms > 0.0 {
            (remaining as f64 * self.ewma_chunk_ms) as u64
        } else {
            0
        };
        let snapshot = StatusSnapshot {
            kind: self.kind.to_string(),
            state: state.to_string(),
            pid: std::process::id(),
            config_hash: self.config_hash.clone(),
            chunks_total: self.chunks_total as u64,
            chunks_done: done as u64,
            chunks_replayed: self.chunks_replayed as u64,
            chunks_executed: self.chunks_executed as u64,
            outcomes: self.outcomes.clone(),
            timing: StatusTiming {
                updated_unix_ms: unix_ms(),
                elapsed_ms: self.started.elapsed().as_millis() as u64,
                ewma_chunk_ms: self.ewma_chunk_ms,
                throughput_chunks_per_s: if self.ewma_chunk_ms > 0.0 {
                    1e3 / self.ewma_chunk_ms
                } else {
                    0.0
                },
                eta_ms,
            },
        };
        let _ = snapshot.write(&self.dir);
    }
}

fn merge_counts(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tl_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let dir = tmpdir("roundtrip");
        let hash = config_hash("faults", 4, 3, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 3).unwrap();
            assert!(j.entries().is_empty());
            j.append(0, "{\"a\":1}").unwrap();
            j.append(1, "{\"b\":2}").unwrap();
        }
        let j = Journal::open(&dir, hash, 3).unwrap();
        assert_eq!(j.entries().len(), 2);
        assert_eq!(j.entries()[&0], "{\"a\":1}");
        assert_eq!(j.entries()[&1], "{\"b\":2}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let dir = tmpdir("torn");
        let hash = config_hash("faults", 4, 2, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 2).unwrap();
            j.append(0, "{\"first\":true}").unwrap();
            j.append(1, "{\"second\":true}").unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let first_end =
            HEADER_LEN + RECORD_HEADER_LEN + "{\"first\":true}".len();
        // Truncate at every byte offset inside the second record: the first
        // record must always survive, the torn second must always be dropped.
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let j = Journal::open(&dir, hash, 2).unwrap();
            assert_eq!(j.entries().len(), 1, "cut={cut}");
            assert_eq!(j.entries()[&0], "{\"first\":true}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first_end as u64,
                "cut={cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_drops_the_tail() {
        let dir = tmpdir("cksum");
        let hash = config_hash("fuzz", 8, 2, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 2).unwrap();
            j.append(0, "payload-zero").unwrap();
            j.append(1, "payload-one").unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&dir, hash, 2).unwrap();
        assert_eq!(j.entries().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_is_loud() {
        let dir = tmpdir("mismatch");
        let hash = config_hash("faults", 4, 3, "cfg-a");
        Journal::open(&dir, hash, 3).unwrap();
        let other = config_hash("faults", 4, 3, "cfg-b");
        let err = Journal::open(&dir, other, 3).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("refusing to resume"));
        // Different chunk count with the same hash input is also a mismatch.
        let err = Journal::open(&dir, hash, 4).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = tmpdir("foreign");
        std::fs::write(dir.join(JOURNAL_FILE), b"this is not a journal, sorry!").unwrap();
        let err = Journal::open(&dir, 1, 1).unwrap_err();
        assert_eq!(err, JournalError::BadMagic);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Counts every chunk as `done`; chunk values of 100 and up also count
    /// as `degraded`.
    fn count_marks(chunk: &u64) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        counts.insert("done".to_string(), 1);
        if *chunk >= 100 {
            counts.insert("degraded".to_string(), 1);
        }
        counts
    }

    #[test]
    fn run_chunked_replays_and_drains_on_interrupt() {
        let dir = tmpdir("chunked");
        let hash = config_hash("faults", 1, 4, "cfg");
        let flag = Arc::new(AtomicBool::new(false));
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            interrupt: Some(flag.clone()),
            ..DurabilityOptions::default()
        };
        // First run: interrupt after chunk 1 executes.
        let flag2 = flag.clone();
        let (chunks, stats) = run_chunked(&opts, hash, 4, "faults", count_marks, |i| {
            if i == 1 {
                flag2.store(true, Ordering::SeqCst);
            }
            10 * i as u64
        })
        .unwrap();
        assert_eq!(chunks, [0, 10]);
        assert!(stats.interrupted);
        assert_eq!(stats.chunks_executed, 2);
        // Resume: chunks 0/1 replay, 2/3 execute, nothing re-runs.
        flag.store(false, Ordering::SeqCst);
        let mut ran = Vec::new();
        let (chunks, stats) = run_chunked(&opts, hash, 4, "faults", count_marks, |i| {
            ran.push(i);
            10 * i as u64
        })
        .unwrap();
        assert_eq!(ran, vec![2, 3]);
        assert_eq!(chunks, [0, 10, 20, 30]);
        assert_eq!(stats.chunks_replayed, 2);
        assert_eq!(stats.chunks_executed, 2);
        assert!(!stats.interrupted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends `payload` as chunk 0 of a fresh two-chunk journal (with a
    /// valid checksum) and returns the error replaying it as a `C` gives.
    fn replay_error<C: Serialize + Deserialize>(tag: &str, payload: &str, fill: C) -> String {
        let dir = tmpdir(tag);
        let hash = config_hash("faults", 1, 2, "cfg");
        Journal::open(&dir, hash, 2)
            .unwrap()
            .append(0, payload)
            .unwrap();
        let opts = DurabilityOptions::with_dir(&dir);
        let mut fill = Some(fill);
        let err = run_chunked(&opts, hash, 2, "faults", |_: &C| BTreeMap::new(), |_| {
            fill.take().unwrap()
        })
        .map(|_| ())
        .unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        match err {
            JournalError::Decode(msg) => msg,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_replay_is_a_decode_error() {
        let msg = replay_error("undecodable", "not a number", 0u64);
        assert!(msg.contains("chunk 0"), "{msg}");

        // Well-formed JSON whose values do not fit their fields must not be
        // coerced: a bit index past u32 is not bit 1, and a fractional STT
        // cell is not its truncation.
        use crate::resilience::{FaultClass, FaultOutcome};
        use crate::verify::{sample_pipeline, Finding, ModeReport};
        use tensorlib_hw::fault::FaultSpec;
        let outcome = FaultOutcome {
            fault: FaultSpec::stuck_at("pe_0_0.acc", 1, true),
            class: FaultClass::Masked,
            detectors: Vec::new(),
            error: None,
        };
        let payload = serde_json::to_string(&vec![outcome]).unwrap();
        assert!(payload.contains(r#""bit":1,"#), "{payload}");
        let bad = payload.replace(r#""bit":1,"#, r#""bit":4294967297,"#);
        let msg = replay_error("bad_bit", &bad, Vec::<FaultOutcome>::new());
        assert!(msg.contains("field `bit`: 4294967297 is out of range for u32"), "{msg}");

        let mut sample = sample_pipeline(3);
        sample.stt = [[1, 0, 0], [0, 1, 0], [1, 1, 1]];
        let report = ModeReport {
            seeds_run: 1,
            rejected: 0,
            degraded: 0,
            findings: vec![Finding {
                mode: "pipeline".into(),
                seed: 3,
                kind: "functional".into(),
                detail: "mismatch".into(),
                shrunk_nets: None,
                modules_json: None,
                rust_snippet: None,
                pipeline: Some(sample),
            }],
        };
        let payload = serde_json::to_string(&report).unwrap();
        let stt = r#""stt":[[1,0,0],[0,1,0],[1,1,1]]"#;
        assert!(payload.contains(stt), "{payload}");
        let bad = payload.replace(stt, r#""stt":[[1,0,0],[0,1.5,0],[1,1,1]]"#);
        let msg = replay_error("bad_stt", &bad, report);
        assert!(msg.contains("field `stt`: [1]: [1]: 1.5 is not an exact integer"), "{msg}");
    }

    #[test]
    fn telemetry_writes_events_and_status() {
        use tensorlib_obs::events::{read_events, StatusSnapshot};
        let dir = tmpdir("telemetry");
        let hash = config_hash("faults", 1, 3, "cfg");
        let opts = DurabilityOptions::with_dir(&dir);
        let (chunks, stats) = run_chunked(&opts, hash, 3, "faults", count_marks, |i| {
            if i == 2 {
                100
            } else {
                i as u64
            }
        })
        .unwrap();
        assert_eq!(chunks.len(), 3);
        assert!(!stats.interrupted);
        let events = read_events(&dir).unwrap();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("event").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "chunk_completed",
                "chunk_degraded",
                "campaign_finished"
            ]
        );
        // Wall-clock data only under `timing`.
        for e in &events {
            assert!(e.get("timing").is_some());
        }
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "finished");
        assert_eq!(status.kind, "faults");
        assert_eq!(status.config_hash, format!("{hash:016x}"));
        assert_eq!(status.chunks_total, 3);
        assert_eq!(status.chunks_done, 3);
        assert_eq!(status.chunks_executed, 3);
        assert_eq!(status.outcomes["done"], 3);
        assert_eq!(status.outcomes["degraded"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counts_replayed_chunks_on_resume() {
        use tensorlib_obs::events::{read_events, StatusSnapshot};
        let dir = tmpdir("telemetry_resume");
        let hash = config_hash("faults", 1, 4, "cfg");
        let flag = Arc::new(AtomicBool::new(false));
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            interrupt: Some(flag.clone()),
            ..DurabilityOptions::default()
        };
        let flag2 = flag.clone();
        let (_, stats) = run_chunked(&opts, hash, 4, "faults", count_marks, |i| {
            if i == 1 {
                flag2.store(true, Ordering::SeqCst);
            }
            i as u64
        })
        .unwrap();
        assert!(stats.interrupted);
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "interrupted");
        assert_eq!(status.chunks_done, 2);
        // Resume: replayed chunks count into the snapshot via the same
        // outcome counter, so the totals cover the whole campaign.
        flag.store(false, Ordering::SeqCst);
        let (_, stats) = run_chunked(&opts, hash, 4, "faults", count_marks, |i| i as u64).unwrap();
        assert_eq!(stats.chunks_replayed, 2);
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "finished");
        assert_eq!(status.chunks_done, 4);
        assert_eq!(status.chunks_replayed, 2);
        assert_eq!(status.chunks_executed, 2);
        assert_eq!(status.outcomes["done"], 4);
        // events.jsonl is append-only across resumes: both lifecycles are
        // recorded in order.
        let names: Vec<String> = read_events(&dir)
            .unwrap()
            .iter()
            .map(|e| e.get("event").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "campaign_interrupted",
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "campaign_finished"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_off_writes_no_telemetry_files() {
        use tensorlib_obs::events::{EVENTS_FILE, STATUS_FILE};
        let dir = tmpdir("telemetry_off");
        let hash = config_hash("faults", 1, 2, "cfg");
        let opts = DurabilityOptions {
            telemetry_off: true,
            ..DurabilityOptions::with_dir(&dir)
        };
        run_chunked(&opts, hash, 2, "faults", count_marks, |i| i as u64).unwrap();
        assert!(!dir.join(EVENTS_FILE).exists());
        assert!(!dir.join(STATUS_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_chunked_without_dir_runs_in_memory() {
        let opts = DurabilityOptions::default();
        let (chunks, stats) =
            run_chunked(&opts, 0, 3, "faults", count_marks, |i| i as u64).unwrap();
        assert_eq!(chunks, [0, 1, 2]);
        assert_eq!(stats.chunks_total, 3);
        assert_eq!(stats.chunks_executed, 3);
        assert_eq!(stats.chunks_replayed, 0);
        assert_eq!(DurabilityOptions::default().panic_attempts(), 1);
    }

    #[test]
    fn run_items_degrades_retries_and_quarantines() {
        let items: Vec<u64> = (0..6).collect();
        let ids = |x: &u64| vec![format!("item:{x}")];
        // Chaos on item 3: one retry, then quarantine; every other item runs.
        let chaos = DurabilityOptions {
            panic_retries: 1,
            chaos_panic_targets: vec!["item:3".into()],
            ..DurabilityOptions::default()
        };
        let out = run_items(&items, 2, 1, &chaos, ids, |x| x * 2);
        for (x, o) in items.iter().zip(&out) {
            if *x == 3 {
                let ItemOutcome::Quarantined { attempts, message } = o else {
                    panic!("item 3 was not quarantined: {o:?}");
                };
                assert_eq!(*attempts, 2);
                assert!(message.contains("chaos hook tripped for item:3"));
            } else {
                assert_eq!(*o, ItemOutcome::Done(x * 2));
            }
        }
        // An expired watchdog degrades every item before it starts.
        let expired = DurabilityOptions {
            chunk_timeout: Some(Duration::ZERO),
            ..DurabilityOptions::default()
        };
        let out = run_items(&items, 1, 1, &expired, ids, |x| x * 2);
        assert!(out.iter().all(|o| *o == ItemOutcome::Degraded));
        assert_eq!(quarantine_detail(1, "boom".into()), "boom");
        assert_eq!(
            quarantine_detail(3, "boom".into()),
            "quarantined after 3 attempts: boom"
        );
    }

    #[test]
    fn file_handle_is_positioned_at_tail() {
        let dir = tmpdir("tail");
        let hash = config_hash("explore", 2, 2, "cfg");
        let mut j = Journal::open(&dir, hash, 2).unwrap();
        j.append(0, "x").unwrap();
        let len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert_eq!(len as usize, HEADER_LEN + RECORD_HEADER_LEN + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
