//! Write-ahead journal of job lifecycles (DESIGN.md §11).
//!
//! The journal makes accepted work durable: every job transition is
//! appended as one checksummed record *before* the transition is
//! acknowledged, so a crashed daemon can replay the log, re-enqueue
//! accepted-but-incomplete jobs in their original order, rehydrate the
//! result cache from `completed` records, and resume half-finished GenObf
//! searches from their last `checkpoint` record.
//!
//! # On-disk format
//!
//! A journal directory holds numbered segments `seg-00000000.wal`,
//! `seg-00000001.wal`, … Each segment is a sequence of framed records:
//!
//! ```text
//! record  = len:u32-le  checksum:u64-le  payload[len]
//! payload = one JSON object, e.g.
//!   {"kind":"accepted","v":1,"seq":3,"op":"obfuscate","key":"…",
//!    "timeout_ms":5000,"spec":{…full request, graph inline…}}
//!   {"kind":"started","v":1,"seq":3}
//!   {"kind":"checkpoint","v":1,"seq":3,"data":"…opaque checkpoint…"}
//!   {"kind":"completed","v":1,"seq":3,"key":"…","digest":"…",
//!    "result":"…rendered result JSON…"}   (result absent for cache hits)
//!   {"kind":"failed","v":1,"seq":3,"code":"job_failed","error":"…"}
//!   {"kind":"cancelled","v":1,"seq":3}
//! ```
//!
//! The checksum is FNV-1a over the payload bytes. Records are
//! self-contained (the `completed` record carries its cache key), so
//! replay state is a pure fold over the records in segment order.
//!
//! # Corruption tolerance
//!
//! A crash can truncate the tail of the newest segment mid-record, and
//! storage can flip bits. Replay **never panics** on either: a framing
//! error (short header, short payload, absurd length) or a checksum
//! mismatch invalidates the rest of that segment — the corrupt suffix is
//! dropped and counted — while a record whose checksum passes but whose
//! payload is semantically malformed is skipped individually (the frame
//! boundary is still trustworthy). Both paths feed
//! `server.journal.records_dropped`.
//!
//! # Compaction
//!
//! On clean shutdown the daemon calls [`Journal::compact`]: segments that
//! no longer contain any *open* (accepted, not yet terminal) job are
//! deleted after a final flush + fsync, so a clean stop leaves a minimal
//! log and a clean restart replays zero jobs.

use crate::job::JobSpec;
use crate::protocol::{self, Request};
use chameleon_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Record-format version; bumped when the payload shape changes.
const RECORD_VERSION: u64 = 1;

/// Frame header: `u32` length + `u64` FNV-1a checksum.
const HEADER_BYTES: usize = 12;

/// Sanity cap on one record (a graph payload some orders of magnitude
/// beyond anything the request size limit admits). A length field above
/// this is treated as corruption, not an allocation request.
const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// How often `Interval`-mode journals are flushed to disk (driven by the
/// reactor tick calling [`Journal::maybe_sync`]).
const SYNC_INTERVAL: Duration = Duration::from_millis(200);

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalSync {
    /// fsync after every append: no acknowledged record is ever lost, at
    /// a per-append latency cost.
    Always,
    /// Buffer appends and flush + fsync on the reactor tick (roughly
    /// every 200 ms): bounded loss window, near-zero append overhead.
    Interval,
}

impl std::str::FromStr for JournalSync {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(JournalSync::Always),
            "interval" => Ok(JournalSync::Interval),
            other => Err(format!(
                "journal sync must be always|interval, got {other:?}"
            )),
        }
    }
}

/// One accepted-but-incomplete job recovered by replay.
#[derive(Debug, Clone)]
pub struct ReplayJob {
    /// The job's journal sequence number (reused for its remaining
    /// lifecycle records).
    pub seq: u64,
    /// What to compute.
    pub spec: JobSpec,
    /// The per-job timeout the original request carried.
    pub timeout_ms: Option<u64>,
    /// Latest checkpoint recorded for the job, if any (opaque to the
    /// journal; `server::job` feeds it to the search).
    pub checkpoint: Option<String>,
}

/// Everything replay recovered from an existing journal directory.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Accepted-but-incomplete jobs, in original acceptance order.
    pub jobs: Vec<ReplayJob>,
    /// `(cache key, rendered result)` pairs from `completed` records, in
    /// record order — rehydrates the result cache so repeated requests
    /// stay byte-identical across the restart.
    pub completed: Vec<(String, String)>,
    /// Records decoded successfully.
    pub records_read: u64,
    /// Corrupt or malformed records dropped (truncated tails, checksum
    /// mismatches, undecodable payloads).
    pub records_dropped: u64,
    /// Segments scanned.
    pub segments_scanned: u64,
}

/// Point-in-time journal statistics (for `status`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStats {
    /// Jobs accepted but not yet terminal.
    pub open_jobs: usize,
    /// Live segment files (including the one being written).
    pub segments: u64,
    /// Records appended since open.
    pub appends: u64,
    /// fsyncs issued since open.
    pub syncs: u64,
}

/// Per-job replay state, keyed by sequence number.
#[derive(Debug, Default)]
struct SeqState {
    accepted: Option<(JobSpec, Option<u64>)>,
    checkpoint: Option<String>,
    terminal: bool,
    order: u64,
}

/// The append side of the write-ahead log. One instance per daemon,
/// behind a [`crate::sync::RecoverableMutex`].
pub struct Journal {
    dir: PathBuf,
    sync: JournalSync,
    segment_bytes: u64,
    writer: BufWriter<File>,
    seg_index: u64,
    written: u64,
    next_seq: u64,
    dirty: bool,
    last_sync: Instant,
    appends: u64,
    syncs: u64,
    /// Open (non-terminal) jobs → index of the segment holding their
    /// `accepted` record; drives compaction.
    open_jobs: BTreeMap<u64, u64>,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replaying any
    /// existing segments first. Appends go to a fresh segment — never to
    /// a possibly-truncated tail.
    ///
    /// # Errors
    /// I/O errors creating the directory or the new segment. Corrupt
    /// *content* is never an error (see module docs).
    pub fn open(
        dir: &Path,
        sync: JournalSync,
        segment_bytes: u64,
    ) -> io::Result<(Journal, ReplaySummary)> {
        fs::create_dir_all(dir)?;
        let mut summary = ReplaySummary::default();
        let mut states: BTreeMap<u64, SeqState> = BTreeMap::new();
        let mut open_jobs: BTreeMap<u64, u64> = BTreeMap::new();
        let mut max_seg: Option<u64> = None;
        let mut max_seq: Option<u64> = None;
        let mut order = 0u64;
        for (seg, path) in segment_files(dir)? {
            max_seg = Some(max_seg.map_or(seg, |m: u64| m.max(seg)));
            summary.segments_scanned += 1;
            let bytes = fs::read(&path)?;
            let mut scan = ScanRecords::new(&bytes);
            while let Some(payload) = scan.next() {
                match apply_record(payload, &mut states, &mut order) {
                    Ok(applied) => {
                        summary.records_read += 1;
                        let seq = match applied {
                            Applied::Accepted(seq) => {
                                open_jobs.insert(seq, seg);
                                seq
                            }
                            Applied::Terminal(seq, completed) => {
                                open_jobs.remove(&seq);
                                if let Some(pair) = completed {
                                    summary.completed.push(pair);
                                }
                                seq
                            }
                            Applied::Progress(seq) => seq,
                        };
                        max_seq = Some(max_seq.map_or(seq, |m: u64| m.max(seq)));
                    }
                    Err(_) => summary.records_dropped += 1,
                }
            }
            summary.records_dropped += scan.dropped;
        }
        let mut ordered: Vec<(u64, u64, SeqState)> = states
            .into_iter()
            .filter(|(_, st)| !st.terminal && st.accepted.is_some())
            .map(|(seq, st)| (st.order, seq, st))
            .collect();
        ordered.sort_by_key(|(order, _, _)| *order);
        for (_, seq, st) in ordered {
            let (spec, timeout_ms) = st.accepted.expect("filtered on accepted");
            summary.jobs.push(ReplayJob {
                seq,
                spec,
                timeout_ms,
                checkpoint: st.checkpoint,
            });
        }
        // New sequence numbers must clear every seq ever journaled —
        // terminal ones included, or a fresh job could collide with an
        // old `completed` record and replay as already-done.
        let next_seq = max_seq.map_or(0, |m| m + 1);
        let seg_index = max_seg.map_or(0, |m| m + 1);
        let writer = open_segment(dir, seg_index)?;
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes: segment_bytes.max(4096),
                writer,
                seg_index,
                written: 0,
                next_seq,
                dirty: false,
                last_sync: Instant::now(),
                appends: 0,
                syncs: 0,
                open_jobs,
            },
            summary,
        ))
    }

    /// Records acceptance of a job, returning its sequence number. Under
    /// `JournalSync::Always` the record is on disk when this returns.
    pub fn accepted(&mut self, spec: &JobSpec, timeout_ms: Option<u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut payload = String::with_capacity(256);
        let _ = write!(
            payload,
            "{{\"kind\":\"accepted\",\"v\":{RECORD_VERSION},\"seq\":{seq},\"op\":\"{}\",\"key\":{}",
            spec.op(),
            json::string(&spec.cache_key()),
        );
        if let Some(t) = timeout_ms {
            let _ = write!(payload, ",\"timeout_ms\":{t}");
        }
        let _ = write!(payload, ",\"spec\":{}}}", encode_spec(spec));
        self.append(&payload);
        self.open_jobs.insert(seq, self.seg_index);
        seq
    }

    /// Records that a worker picked the job up.
    pub fn started(&mut self, seq: u64) {
        self.append(&format!(
            "{{\"kind\":\"started\",\"v\":{RECORD_VERSION},\"seq\":{seq}}}"
        ));
    }

    /// Records a search checkpoint (opaque payload from the durability
    /// sink).
    pub fn checkpoint(&mut self, seq: u64, data: &str) {
        self.append(&format!(
            "{{\"kind\":\"checkpoint\",\"v\":{RECORD_VERSION},\"seq\":{seq},\"data\":{}}}",
            json::string(data)
        ));
        chameleon_obs::counter!("server.journal.checkpoints").add(1);
    }

    /// Records successful completion. `result` is `None` for cache hits —
    /// the journal already holds (or never needed) the bytes.
    pub fn completed(&mut self, seq: u64, key: &str, result: Option<&str>) {
        let mut payload = String::with_capacity(result.map_or(96, |r| r.len() + 128));
        let _ = write!(
            payload,
            "{{\"kind\":\"completed\",\"v\":{RECORD_VERSION},\"seq\":{seq},\"key\":{}",
            json::string(key)
        );
        if let Some(result) = result {
            let _ = write!(
                payload,
                ",\"digest\":\"{:016x}\",\"result\":{}",
                crate::cache::fnv1a64(result.as_bytes()),
                json::string(result)
            );
        }
        payload.push('}');
        self.append(&payload);
        self.open_jobs.remove(&seq);
    }

    /// Records failure (the job ran and errored, or could not be
    /// re-enqueued on recovery).
    pub fn failed(&mut self, seq: u64, code: &str, error: &str) {
        self.append(&format!(
            "{{\"kind\":\"failed\",\"v\":{RECORD_VERSION},\"seq\":{seq},\"code\":{},\"error\":{}}}",
            json::string(code),
            json::string(error)
        ));
        self.open_jobs.remove(&seq);
    }

    /// Records cancellation (deadline, explicit cancel, or a recovery
    /// policy that chose not to re-run the job).
    pub fn cancelled(&mut self, seq: u64) {
        self.append(&format!(
            "{{\"kind\":\"cancelled\",\"v\":{RECORD_VERSION},\"seq\":{seq}}}"
        ));
        self.open_jobs.remove(&seq);
    }

    fn append(&mut self, payload: &str) {
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(HEADER_BYTES + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crate::cache::fnv1a64(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        if let Err(e) = self.writer.write_all(&frame) {
            chameleon_obs::counter!("server.journal.append_errors").add(1);
            eprintln!("journal: append failed: {e}");
            return;
        }
        self.written += frame.len() as u64;
        self.appends += 1;
        self.dirty = true;
        chameleon_obs::counter!("server.journal.appends").add(1);
        if self.sync == JournalSync::Always {
            self.sync_now();
        }
        if self.written >= self.segment_bytes {
            self.rotate();
        }
    }

    fn rotate(&mut self) {
        self.sync_now();
        match open_segment(&self.dir, self.seg_index + 1) {
            Ok(writer) => {
                self.seg_index += 1;
                self.writer = writer;
                self.written = 0;
                chameleon_obs::counter!("server.journal.rotations").add(1);
            }
            Err(e) => {
                chameleon_obs::counter!("server.journal.append_errors").add(1);
                eprintln!("journal: segment rotation failed: {e}");
            }
        }
    }

    /// Flushes buffered records and fsyncs the segment.
    pub(crate) fn sync_now(&mut self) {
        if !self.dirty {
            return;
        }
        let flushed = self
            .writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_data());
        match flushed {
            Ok(()) => {
                self.dirty = false;
                self.syncs += 1;
                chameleon_obs::counter!("server.journal.syncs").add(1);
            }
            Err(e) => {
                chameleon_obs::counter!("server.journal.append_errors").add(1);
                eprintln!("journal: sync failed: {e}");
            }
        }
    }

    /// Interval-mode housekeeping: flush + fsync when the last sync is
    /// older than the interval. Called from the reactor tick; a no-op
    /// when clean or in `Always` mode.
    pub(crate) fn maybe_sync(&mut self) {
        if self.dirty && self.last_sync.elapsed() >= SYNC_INTERVAL {
            self.sync_now();
            self.last_sync = Instant::now();
        }
    }

    /// Final flush + fsync, then deletes every segment that holds no open
    /// job's `accepted` record. Returns the number of segments removed.
    /// Called on clean shutdown so a clean restart replays nothing.
    pub fn compact(&mut self) -> u64 {
        self.sync_now();
        let min_keep = self
            .open_jobs
            .values()
            .copied()
            .min()
            .unwrap_or(self.seg_index)
            .min(self.seg_index);
        let mut removed = 0;
        if let Ok(segments) = segment_files(&self.dir) {
            for (seg, path) in segments {
                if seg < min_keep && fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            chameleon_obs::counter!("server.journal.compacted_segments").add(removed);
            // Make the deletions themselves durable (best-effort: not
            // every filesystem supports fsync on a directory handle).
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        removed
    }

    /// Current statistics for `status` responses.
    pub fn stats(&self) -> JournalStats {
        let segments = segment_files(&self.dir).map_or(0, |v| v.len() as u64);
        JournalStats {
            open_jobs: self.open_jobs.len(),
            segments,
            appends: self.appends,
            syncs: self.syncs,
        }
    }
}

/// What applying one replayed record did to the state fold.
enum Applied {
    Accepted(u64),
    Terminal(u64, Option<(String, String)>),
    Progress(u64),
}

fn apply_record(
    payload: &[u8],
    states: &mut BTreeMap<u64, SeqState>,
    order: &mut u64,
) -> Result<Applied, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let version = v.get("v").and_then(Json::as_u64).ok_or("missing version")?;
    if version != RECORD_VERSION {
        return Err(format!("unsupported record version {version}"));
    }
    let kind = v.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
    let seq = v.get("seq").and_then(Json::as_u64).ok_or("missing seq")?;
    match kind {
        "accepted" => {
            let spec = decode_spec(&v)?;
            let timeout_ms = v.get("timeout_ms").and_then(Json::as_u64);
            *order += 1;
            let st = states.entry(seq).or_default();
            st.accepted = Some((spec, timeout_ms));
            st.order = *order;
            Ok(Applied::Accepted(seq))
        }
        "started" => Ok(Applied::Progress(seq)),
        "checkpoint" => {
            let data = v
                .get("data")
                .and_then(Json::as_str)
                .ok_or("checkpoint record missing data")?;
            states.entry(seq).or_default().checkpoint = Some(data.to_string());
            Ok(Applied::Progress(seq))
        }
        "completed" => {
            let key = v
                .get("key")
                .and_then(Json::as_str)
                .ok_or("completed record missing key")?;
            states.entry(seq).or_default().terminal = true;
            // Result bytes are optional (cache hits); when present they
            // rehydrate the cache even if the accepted record was lost —
            // records are self-contained.
            let completed = v
                .get("result")
                .and_then(Json::as_str)
                .map(|r| (key.to_string(), r.to_string()));
            Ok(Applied::Terminal(seq, completed))
        }
        "failed" | "cancelled" => {
            states.entry(seq).or_default().terminal = true;
            Ok(Applied::Terminal(seq, None))
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

/// Scanner over the valid record payloads of one segment's bytes. Stops
/// at the first framing or checksum error (dropping the corrupt suffix)
/// and counts what it dropped in `dropped`.
struct ScanRecords<'a> {
    bytes: &'a [u8],
    pos: usize,
    dropped: u64,
    dead: bool,
}

impl<'a> ScanRecords<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            dropped: 0,
            dead: false,
        }
    }

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.dead || self.pos == self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.len() < HEADER_BYTES {
            self.dropped += 1;
            self.dead = true;
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if len as u32 > MAX_RECORD_BYTES || rest.len() < HEADER_BYTES + len {
            self.dropped += 1;
            self.dead = true;
            return None;
        }
        let payload = &rest[HEADER_BYTES..HEADER_BYTES + len];
        if crate::cache::fnv1a64(payload) != checksum {
            self.dropped += 1;
            self.dead = true;
            return None;
        }
        self.pos += HEADER_BYTES + len;
        Some(payload)
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

fn open_segment(dir: &Path, index: u64) -> io::Result<BufWriter<File>> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, index))?;
    Ok(BufWriter::new(file))
}

/// Journal segments in `dir`, sorted by index.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_by_key(|(index, _)| *index);
    Ok(out)
}

/// Renders a [`JobSpec`] as the wire-protocol job object it came from —
/// decode reuses [`protocol::parse_request`], so journal replay and the
/// network path share one parser (same defaults, same validation).
fn encode_spec(spec: &JobSpec) -> String {
    let mut out = String::with_capacity(160);
    match spec {
        JobSpec::Obfuscate {
            graph,
            k,
            epsilon,
            method,
            worlds,
            trials,
            threads,
            strip_worlds,
            seed,
        } => {
            let _ = write!(
                out,
                "{{\"op\":\"obfuscate\",\"graph\":{},\"k\":{k},\"epsilon\":{},\"method\":\"{}\",\
                 \"worlds\":{worlds},\"trials\":{trials},\"threads\":{threads},\
                 \"strip_worlds\":{strip_worlds},\"seed\":{seed}}}",
                json::string(graph),
                json::number(*epsilon),
                method.name(),
            );
        }
        JobSpec::Check {
            graph,
            k,
            epsilon,
            tolerance,
        } => {
            let _ = write!(
                out,
                "{{\"op\":\"check\",\"graph\":{},\"k\":{k},\"epsilon\":{},\"tolerance\":{tolerance}}}",
                json::string(graph),
                json::number(*epsilon),
            );
        }
        JobSpec::Reliability {
            graph,
            worlds,
            pairs,
            threads,
            seed,
        } => {
            let _ = write!(
                out,
                "{{\"op\":\"reliability\",\"graph\":{},\"worlds\":{worlds},\"pairs\":{pairs},\
                 \"threads\":{threads},\"seed\":{seed}}}",
                json::string(graph),
            );
        }
    }
    out
}

fn decode_spec(record: &Json) -> Result<JobSpec, String> {
    let spec = record.get("spec").ok_or("accepted record missing spec")?;
    let line = spec.render();
    match protocol::parse_request(&line) {
        Ok(Request::Job(job)) => Ok(job.spec),
        Ok(_) => Err("accepted record spec is not a job".into()),
        Err((_, msg)) => Err(format!("accepted record spec: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AnonymizeMethod;
    use chameleon_core::Method;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chameleon-journal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn obf_spec(seed: u64) -> JobSpec {
        JobSpec::Obfuscate {
            graph: "nodes 4\n0 1 0.5\n1 2 0.25\n2 3 0.75\n".into(),
            k: 2,
            epsilon: 0.125,
            method: AnonymizeMethod::Chameleon(Method::Me),
            worlds: 50,
            trials: 1,
            threads: 1,
            strip_worlds: 0,
            seed,
        }
    }

    fn open_fresh(dir: &Path) -> (Journal, ReplaySummary) {
        Journal::open(dir, JournalSync::Always, DEFAULT_SEGMENT_BYTES).unwrap()
    }

    #[test]
    fn lifecycle_round_trips_through_replay() {
        let dir = unique_dir("roundtrip");
        {
            let (mut j, summary) = open_fresh(&dir);
            assert!(summary.jobs.is_empty());
            let a = j.accepted(&obf_spec(1), Some(5000));
            let b = j.accepted(&obf_spec(2), None);
            let c = j.accepted(
                &JobSpec::Check {
                    graph: "0 1 0.5\n".into(),
                    k: 2,
                    epsilon: 0.0,
                    tolerance: 1,
                },
                None,
            );
            j.started(a);
            j.checkpoint(a, "cp-1");
            j.checkpoint(a, "cp-2");
            j.completed(b, "key-b", Some("{\"x\":1}"));
            assert_eq!((a, b, c), (0, 1, 2));
        }
        let (j, summary) = open_fresh(&dir);
        assert_eq!(summary.records_dropped, 0);
        assert_eq!(summary.jobs.len(), 2, "b completed, a and c still open");
        assert_eq!(summary.jobs[0].seq, 0);
        assert_eq!(summary.jobs[0].timeout_ms, Some(5000));
        assert_eq!(summary.jobs[0].checkpoint.as_deref(), Some("cp-2"));
        assert_eq!(summary.jobs[1].seq, 2);
        assert!(summary.jobs[1].checkpoint.is_none());
        assert_eq!(
            summary.completed,
            vec![("key-b".to_string(), "{\"x\":1}".to_string())]
        );
        // Replayed specs decode to the same cache key (same computation).
        assert_eq!(summary.jobs[0].spec.cache_key(), obf_spec(1).cache_key());
        // Sequence numbers continue past everything seen.
        assert_eq!(j.stats().open_jobs, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_sequence_numbers_never_collide_after_replay() {
        let dir = unique_dir("seq");
        {
            let (mut j, _) = open_fresh(&dir);
            j.accepted(&obf_spec(1), None);
            j.accepted(&obf_spec(2), None);
        }
        let (mut j, summary) = open_fresh(&dir);
        let next = j.accepted(&obf_spec(3), None);
        assert!(summary.jobs.iter().all(|job| job.seq != next));
        assert_eq!(next, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_at_the_byte_threshold() {
        let dir = unique_dir("rotate");
        let (mut j, _) = Journal::open(&dir, JournalSync::Always, 4096).unwrap();
        for i in 0..40 {
            j.accepted(&obf_spec(i), None);
        }
        let stats = j.stats();
        assert!(stats.segments > 1, "expected rotation, got {stats:?}");
        drop(j);
        let (_, summary) = open_fresh(&dir);
        assert_eq!(summary.jobs.len(), 40);
        assert_eq!(summary.records_dropped, 0);
        // Order survives rotation.
        let keys: Vec<String> = summary.jobs.iter().map(|r| r.spec.cache_key()).collect();
        let want: Vec<String> = (0..40).map(|i| obf_spec(i).cache_key()).collect();
        assert_eq!(keys, want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_at_every_offset_never_panics() {
        let dir = unique_dir("truncate");
        {
            let (mut j, _) = open_fresh(&dir);
            let a = j.accepted(&obf_spec(1), None);
            j.checkpoint(a, "cp");
            j.completed(a, "k", Some("{}"));
        }
        let seg = segment_files(&dir).unwrap()[0].1.clone();
        let full = fs::read(&seg).unwrap();
        // Offsets that fall exactly between records: a cut there is a
        // clean (shorter) journal, not corruption.
        let mut boundaries = vec![0usize];
        {
            let mut pos = 0usize;
            while pos + HEADER_BYTES <= full.len() {
                let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
                pos += HEADER_BYTES + len;
                boundaries.push(pos);
            }
        }
        for cut in 0..full.len() {
            fs::write(&seg, &full[..cut]).unwrap();
            let (_, summary) = open_fresh(&dir);
            // Whatever survives is a valid prefix; nothing panics, and a
            // mid-record cut is detected and counted.
            if !boundaries.contains(&cut) {
                assert!(summary.records_dropped >= 1, "cut={cut}");
            }
            // Remove the scratch segment the open created.
            for (seg_idx, path) in segment_files(&dir).unwrap() {
                if seg_idx != 0 {
                    fs::remove_file(path).unwrap();
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_dropped_not_panicked() {
        let dir = unique_dir("bitflip");
        {
            let (mut j, _) = open_fresh(&dir);
            let a = j.accepted(&obf_spec(1), None);
            j.completed(a, "k", Some("{\"y\":2}"));
        }
        let seg = segment_files(&dir).unwrap()[0].1.clone();
        let full = fs::read(&seg).unwrap();
        // Flip one bit at a sweep of offsets (every byte is too slow with
        // a fresh replay per flip; stride covers headers and payloads).
        for offset in (0..full.len()).step_by(7) {
            let mut corrupt = full.clone();
            corrupt[offset] ^= 0x10;
            fs::write(&seg, &corrupt).unwrap();
            let (_, summary) = open_fresh(&dir);
            assert!(
                summary.records_dropped >= 1 || summary.records_read >= 1,
                "offset={offset}"
            );
            for (seg_idx, path) in segment_files(&dir).unwrap() {
                if seg_idx != 0 {
                    fs::remove_file(path).unwrap();
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn valid_checksum_bad_payload_is_skipped_not_fatal() {
        let dir = unique_dir("semantic");
        {
            let (mut j, _) = open_fresh(&dir);
            // A frame whose checksum passes but whose payload is garbage
            // JSON: later records must still replay.
            j.append("this is not json");
            j.accepted(&obf_spec(9), None);
        }
        let (_, summary) = open_fresh(&dir);
        assert_eq!(summary.records_dropped, 1);
        assert_eq!(summary.jobs.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_unknown_files_are_tolerated() {
        let dir = unique_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 3), b"").unwrap();
        fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let (j, summary) = open_fresh(&dir);
        assert_eq!(summary.records_dropped, 0);
        assert!(summary.jobs.is_empty());
        // New segment opens past the stray index.
        assert_eq!(j.seg_index, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_for_unknown_seq_still_rehydrates_cache() {
        let dir = unique_dir("selfcontained");
        {
            let (mut j, _) = open_fresh(&dir);
            j.completed(77, "orphan-key", Some("{\"z\":3}"));
        }
        let (_, summary) = open_fresh(&dir);
        assert_eq!(
            summary.completed,
            vec![("orphan-key".to_string(), "{\"z\":3}".to_string())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_only_fully_terminal_segments() {
        let dir = unique_dir("compact");
        let (mut j, _) = Journal::open(&dir, JournalSync::Always, 4096).unwrap();
        let mut seqs = Vec::new();
        for i in 0..30 {
            seqs.push(j.accepted(&obf_spec(i), None));
        }
        assert!(j.stats().segments > 2);
        // Complete everything except the last accepted job: every segment
        // before the one holding its accepted record is deletable.
        let keep = *seqs.last().unwrap();
        let keep_seg = *j.open_jobs.get(&keep).unwrap();
        for &s in &seqs[..seqs.len() - 1] {
            j.completed(s, "k", None);
        }
        let removed = j.compact();
        assert!(removed >= 1);
        let remaining = segment_files(&dir).unwrap();
        assert!(remaining.iter().all(|(idx, _)| *idx >= keep_seg));
        // Replay still finds the open job.
        drop(j);
        let (_, summary) = open_fresh(&dir);
        assert_eq!(summary.jobs.len(), 1);
        assert_eq!(summary.jobs[0].seq, keep);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_after_all_jobs_complete_leaves_no_old_segments() {
        let dir = unique_dir("compact-clean");
        let (mut j, _) = Journal::open(&dir, JournalSync::Always, 4096).unwrap();
        for i in 0..30 {
            let s = j.accepted(&obf_spec(i), None);
            j.completed(s, "k", None);
        }
        j.compact();
        let remaining = segment_files(&dir).unwrap();
        assert!(
            remaining.iter().all(|(idx, _)| *idx == j.seg_index),
            "only the live segment remains: {remaining:?}"
        );
        drop(j);
        let (_, summary) = open_fresh(&dir);
        assert!(summary.jobs.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_mode_defers_syncs_to_maybe_sync() {
        let dir = unique_dir("interval");
        let (mut j, _) = Journal::open(&dir, JournalSync::Interval, DEFAULT_SEGMENT_BYTES).unwrap();
        j.accepted(&obf_spec(1), None);
        assert_eq!(j.stats().syncs, 0, "interval mode must not sync inline");
        j.sync_now();
        assert_eq!(j.stats().syncs, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_mode_parses() {
        assert_eq!("always".parse::<JournalSync>(), Ok(JournalSync::Always));
        assert_eq!("interval".parse::<JournalSync>(), Ok(JournalSync::Interval));
        assert!("sometimes".parse::<JournalSync>().is_err());
    }

    #[test]
    fn spec_encoding_round_trips_every_variant() {
        let specs = [
            obf_spec(7),
            JobSpec::Check {
                graph: "0 1 0.5\n".into(),
                k: 3,
                epsilon: 0.25,
                tolerance: 2,
            },
            JobSpec::Reliability {
                graph: "0 1 0.5\n1 2 0.5\n".into(),
                worlds: 77,
                pairs: 11,
                threads: 2,
                seed: 123,
            },
        ];
        for spec in specs {
            let encoded = encode_spec(&spec);
            let record = Json::parse(&format!("{{\"spec\":{encoded}}}")).unwrap();
            let decoded = decode_spec(&record).unwrap();
            assert_eq!(decoded.cache_key(), spec.cache_key());
            assert_eq!(decoded.op(), spec.op());
        }
    }
}
