//! Session snapshot persistence.
//!
//! A long-lived collection server must survive restarts without losing
//! the perturbed counts its clients streamed in. This module writes one
//! self-describing JSON document per session — schema, mechanism, seed,
//! and per-shard `(ingested, rng_state, counts)` — plus an append-only
//! *delta* file of sparse per-shard count increments, and reads them
//! back into a [`CollectionSession`] whose deterministic replay
//! contract still holds across the restart.
//!
//! ## Format (`frapp-session`, version 2)
//!
//! ```json
//! {"format":"frapp-session","version":2,"session":3,"seed":7,"flush_seq":4,
//!  "mechanism":{"kind":"det","gamma":19.0},
//!  "schema":[["age",8],["sex",2]],
//!  "shards":[{"ingested":2,"rng_draws":2,
//!             "rng_state":["0x1a2b...","0x...","0x...","0x..."],
//!             "counts":[0,1,...]}]}
//! ```
//!
//! `rng_state` holds each shard generator's native xoshiro state words
//! (hex strings — they exceed JSON's exact-integer range), so recovery
//! restores the stream position in O(1). `rng_draws` is carried for
//! observability only. Version-1 snapshots (no writer since PR 3) are
//! refused like any other unknown version.
//!
//! ## Incremental deltas (`session-<id>.delta.jsonl`)
//!
//! The periodic persister does not rewrite the whole count vector on
//! every tick. Its first flush of a session writes a full snapshot
//! (sequence number `flush_seq`) and turns on each shard's delta
//! tracking; each later tick appends one line per *dirty* shard:
//!
//! ```json
//! {"format":"frapp-session-delta","seq":4,"shard":0,"ingested":120,
//!  "rng_draws":180,"rng_state":["0x..","0x..","0x..","0x.."],
//!  "cells":[[3,2],[17,1]]}
//! ```
//!
//! `cells` are the sparse count increments since the shard's previous
//! flush; `ingested`/`rng_state` are the shard's absolute position
//! after them. Recovery loads the base snapshot and replays, in order,
//! every delta line whose `seq` matches the base's `flush_seq` — lines
//! from an older base (a truncation that failed mid-crash) and a torn
//! trailing line (a crash mid-append) are ignored. Any full snapshot
//! (eviction spill, on-demand `persist`, clean shutdown) folds the
//! deltas in, bumps `flush_seq` and removes the delta file.
//!
//! Delta tracking is the only in-memory persistence state, and one rule
//! governs it:
//!
//! * only the full base inside [`persist_session_incremental`] turns it
//!   on;
//! * every other full save restarts it relative to the new base if it
//!   is on, and leaves it off otherwise;
//! * any failed save or delta append turns it off on every shard.
//!
//! So "is every shard tracking?" decides whether the next periodic
//! flush may be a delta. A new, recovered or failed session is
//! untracked, and its next flush writes a full base. That keeps disk at
//! a prefix state of the live counts through every failure: a delta is
//! only ever appended on top of the base it was drained against.
//!
//! Counts are whole numbers by construction (every ingest adds exactly
//! 1.0 to one cell) and the JSON writer emits integral `f64`s without a
//! fraction, so the on-disk representation is exact. Files are written
//! to `<dir>/session-<id>.json` via a temp-file-and-rename so a crash
//! mid-write never corrupts the previous snapshot; after the rename
//! the parent directory is fsynced too, so the *entry* pointing at the
//! new base is as durable as its bytes. Every file operation can be
//! failed deterministically through an injected [`FaultPlan`] (the
//! `*_faulted` entry points). Unknown versions are
//! rejected at load; unreadable files are skipped by [`load_all`] (a
//! corrupt snapshot must not brick the whole server) and reported to
//! the caller.

use crate::error::{Result, ServiceError};
use crate::fault::{FaultPlan, FaultSite};
use crate::json::{self, object, Value};
use crate::session::{CollectionSession, Mechanism, ShardDump};
use crate::shard::ShardDelta;
use frapp_core::Schema;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The `format` discriminator written into every snapshot.
pub const FORMAT: &str = "frapp-session";
/// The `format` discriminator written into every delta line.
pub const DELTA_FORMAT: &str = "frapp-session-delta";
/// The snapshot format version this build writes and reads.
pub const VERSION: u64 = 2;

/// The snapshot file name for a session id.
pub fn session_file_name(id: u64) -> String {
    format!("session-{id}.json")
}

/// The snapshot path for a session id under `dir`.
pub fn session_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(session_file_name(id))
}

/// The delta file name for a session id.
pub fn delta_file_name(id: u64) -> String {
    format!("session-{id}.delta.jsonl")
}

/// The delta file path for a session id under `dir`.
pub fn delta_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(delta_file_name(id))
}

/// Fsyncs `dir` itself, making a rename, create or removal of an
/// entry inside it durable. Syncing the *file* is not enough: the
/// directory entry pointing at it lives in the directory's own
/// metadata, which the kernel flushes separately — after a crash, a
/// fully synced snapshot can still be unreachable under its final
/// name if the rename never hit the journal.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened as files on other platforms;
        // the rename itself is the best durability available there.
        let _ = dir;
        Ok(())
    }
}

/// The session id encoded in a snapshot file name
/// (`session-<id>.json`), or `None` for other files.
pub fn session_id_from_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("session-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn mechanism_value(mechanism: Mechanism) -> Value {
    match mechanism {
        Mechanism::Deterministic { gamma } => {
            object(vec![("kind", "det".into()), ("gamma", gamma.into())])
        }
        Mechanism::Randomized {
            gamma,
            alpha_fraction,
        } => object(vec![
            ("kind", "ran".into()),
            ("gamma", gamma.into()),
            ("alpha_fraction", alpha_fraction.into()),
        ]),
    }
}

fn parse_mechanism(v: &Value) -> Result<Mechanism> {
    let m = v
        .get("mechanism")
        .ok_or_else(|| ServiceError::Snapshot("missing `mechanism`".into()))?;
    let gamma = m
        .get("gamma")
        .and_then(Value::as_f64)
        .ok_or_else(|| ServiceError::Snapshot("mechanism is missing numeric `gamma`".into()))?;
    match m.get("kind").and_then(Value::as_str) {
        Some("det") => Ok(Mechanism::Deterministic { gamma }),
        Some("ran") => Ok(Mechanism::Randomized {
            gamma,
            alpha_fraction: m
                .get("alpha_fraction")
                .and_then(Value::as_f64)
                .ok_or_else(|| {
                    ServiceError::Snapshot(
                        "randomized mechanism is missing `alpha_fraction`".into(),
                    )
                })?,
        }),
        other => Err(ServiceError::Snapshot(format!(
            "unknown mechanism kind {other:?}"
        ))),
    }
}

/// RNG state words as an array of hex strings — they are full-range
/// `u64`s, beyond the 2^53 span JSON numbers can carry exactly.
fn state_words_value(words: [u64; 4]) -> Value {
    Value::Array(
        words
            .iter()
            .map(|w| Value::String(format!("{w:#x}")))
            .collect(),
    )
}

fn parse_state_words(v: &Value) -> Result<[u64; 4]> {
    let arr = v
        .as_array()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| ServiceError::Snapshot("`rng_state` must be a 4-word array".into()))?;
    let mut words = [0u64; 4];
    for (slot, value) in words.iter_mut().zip(arr) {
        let text = value
            .as_str()
            .and_then(|s| s.strip_prefix("0x"))
            .ok_or_else(|| {
                ServiceError::Snapshot("`rng_state` words must be 0x-prefixed hex strings".into())
            })?;
        *slot = u64::from_str_radix(text, 16)
            .map_err(|_| ServiceError::Snapshot("invalid `rng_state` hex word".into()))?;
    }
    Ok(words)
}

/// Serializes one session into its snapshot document.
fn snapshot_value(session: &CollectionSession, flush_seq: u64, dumps: &[ShardDump]) -> Value {
    let schema = Value::Array(
        session
            .schema()
            .attributes()
            .iter()
            .map(|a| Value::Array(vec![a.name().into(), a.cardinality().into()]))
            .collect(),
    );
    let shards = Value::Array(
        dumps
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("ingested", d.ingested.into()),
                    ("rng_draws", d.rng_draws.into()),
                    ("rng_state", state_words_value(d.rng_state)),
                    (
                        "counts",
                        Value::Array(d.counts.iter().copied().map(Value::Number).collect()),
                    ),
                ];
                // Only federated shards carry watermarks; standalone
                // snapshots keep the exact pre-federation layout.
                if !d.repl.is_empty() {
                    fields.push(("repl", repl_value(&d.repl)));
                }
                object(fields)
            })
            .collect(),
    );
    object(vec![
        ("format", FORMAT.into()),
        ("version", VERSION.into()),
        ("session", session.id().into()),
        ("seed", session.seed().into()),
        ("flush_seq", flush_seq.into()),
        ("mechanism", mechanism_value(session.mechanism())),
        ("schema", schema),
        ("shards", shards),
    ])
}

/// Replication watermarks as `[[origin, seq], ...]` pairs.
fn repl_value(repl: &[(u64, u64)]) -> Value {
    Value::Array(
        repl.iter()
            .map(|&(origin, seq)| Value::Array(vec![origin.into(), seq.into()]))
            .collect(),
    )
}

fn parse_repl(v: &Value) -> Result<Vec<(u64, u64)>> {
    let Some(arr) = v.get("repl").and_then(Value::as_array) else {
        return Ok(Vec::new()); // pre-federation state: no watermarks
    };
    arr.iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::Snapshot("`repl` entries must be [origin, seq] pairs".into())
            })?;
            match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(origin), Some(seq)) => Ok((origin, seq)),
                _ => Err(ServiceError::Snapshot(
                    "`repl` origins and seqs must be integers".into(),
                )),
            }
        })
        .collect()
}

/// One delta line: sparse increments of one shard since its previous
/// flush, plus the shard's absolute position after them.
fn delta_line_value(seq: u64, delta: &ShardDelta) -> Value {
    let mut fields = vec![
        ("format", DELTA_FORMAT.into()),
        ("seq", seq.into()),
        ("shard", delta.shard.into()),
        ("ingested", delta.ingested.into()),
        ("rng_draws", delta.rng_draws.into()),
        ("rng_state", state_words_value(delta.rng_state)),
        (
            "cells",
            Value::Array(
                delta
                    .cells
                    .iter()
                    .map(|&(cell, inc)| Value::Array(vec![cell.into(), inc.into()]))
                    .collect(),
            ),
        ),
    ];
    if !delta.repl.is_empty() {
        fields.push(("repl", repl_value(&delta.repl)));
    }
    object(fields)
}

/// Writes a session snapshot into `dir`, atomically (a uniquely named
/// temp file + rename). Returns the snapshot path.
///
/// This is a *full* snapshot: pending per-shard deltas are folded in,
/// the session's flush sequence is bumped and the delta file is
/// removed, so the base file alone describes the session. It restarts
/// delta tracking if the periodic persister had turned it on, but never
/// turns it on itself, and a failed save turns it off. Writes for one
/// session are serialized through the session's persist gate, so
/// concurrent writers (the periodic persister, an on-demand `persist`
/// op, an eviction spill) cannot interleave; and a session that was
/// explicitly closed refuses the write, so an in-flight periodic save
/// cannot resurrect a snapshot that `close_session` just deleted.
pub fn save_session(dir: &Path, session: &CollectionSession) -> Result<PathBuf> {
    save_session_faulted(dir, session, &FaultPlan::default())
}

/// [`save_session`] with a [`FaultPlan`] threaded through: the write,
/// the rename and the directory fsync each consult the plan first, so
/// tests and the soak harness can force deterministic persistence
/// failures at every stage of the snapshot protocol.
pub fn save_session_faulted(
    dir: &Path,
    session: &CollectionSession,
    fault: &FaultPlan,
) -> Result<PathBuf> {
    let _gate = session.persist_gate();
    save_session_locked(dir, session, fault, false)
}

/// [`save_session_faulted`] with the persist gate already held by the
/// caller; `track` turns delta tracking on relative to the new base.
fn save_session_locked(
    dir: &Path,
    session: &CollectionSession,
    fault: &FaultPlan,
    track: bool,
) -> Result<PathBuf> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if session.is_closed() {
        return Err(ServiceError::Snapshot(format!(
            "session {} is closed; not writing a snapshot",
            session.id()
        )));
    }
    let seq = session.persist_seq() + 1;
    // The dump rebases delta tracking under the shard locks: the new
    // base includes every pending increment, so later deltas are
    // relative to it.
    let dumps = session.dump_base(track);
    let write = (|| -> Result<PathBuf> {
        fault.inject_io(FaultSite::PersistWrite)?;
        std::fs::create_dir_all(dir)?;
        let path = session_path(dir, session.id());
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            session_file_name(session.id()),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(snapshot_value(session, seq, &dumps).to_json().as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        fault.inject_io(FaultSite::PersistRename)?;
        std::fs::rename(&tmp, &path)?;
        // The rename published the new base into the live filesystem,
        // but it is not crash-durable until the directory entry itself
        // is flushed.
        fault.inject_io(FaultSite::PersistSync)?;
        fsync_dir(dir)?;
        Ok(path)
    })();
    // Disk may now hold the old base or the new one: no delta can be
    // relative to both, so the next periodic flush writes a full base.
    let path = write.inspect_err(|_| session.drop_delta_tracking())?;
    session.set_persist_seq(seq);
    // The synced snapshot makes every watermark it carries durable;
    // advertise that so replication forwarders can truncate their
    // replay history.
    let marks: Vec<Vec<(u64, u64)>> = dumps.iter().map(|d| d.repl.clone()).collect();
    session.record_durable_repl(&marks);
    // The new base supersedes every prior delta. A failed removal is
    // harmless: stale lines carry an older `seq` and are ignored at
    // load.
    let _ = std::fs::remove_file(delta_path(dir, session.id()));
    Ok(path)
}

/// What one incremental flush did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Delta tracking was off (a new, recovered or failed session), so
    /// a full base was written and tracking turned on.
    FullSnapshot,
    /// This many dirty shards appended delta lines.
    Deltas(usize),
    /// Nothing to do — no shard was dirtied since the last flush.
    Clean,
}

/// The periodic persister's entry point: flushes a session
/// *incrementally*. While the session is not delta tracking it writes
/// a full base snapshot and turns tracking on; after that it appends
/// one sparse delta line per dirty shard (O(cells touched) on disk,
/// instead of rewriting the whole count vector; the in-memory scan per
/// dirty shard is O(domain), same as the count dump a full save would
/// pay). A failed append turns tracking off, so the retry is a full
/// base and no increment is appended twice or dropped.
///
/// A new, recovered or failed session is untracked, so its first flush
/// is full. After recovery that matters for durability: the delta file
/// may end in a torn line (a crash mid-append), and lines appended
/// *behind* a torn tail would be unreachable to every later recovery,
/// which stops reading there. The fresh base bumps the sequence and
/// removes the old delta file, so new deltas always land in a clean
/// stream.
pub fn persist_session_incremental(
    dir: &Path,
    session: &CollectionSession,
) -> Result<FlushOutcome> {
    persist_session_incremental_faulted(dir, session, &FaultPlan::default())
}

/// [`persist_session_incremental`] with a [`FaultPlan`] threaded
/// through (see [`save_session_faulted`]).
pub fn persist_session_incremental_faulted(
    dir: &Path,
    session: &CollectionSession,
    fault: &FaultPlan,
) -> Result<FlushOutcome> {
    let _gate = session.persist_gate();
    if session.is_closed() {
        return Err(ServiceError::Snapshot(format!(
            "session {} is closed; not writing a snapshot",
            session.id()
        )));
    }
    if !session.is_delta_tracking() {
        save_session_locked(dir, session, fault, true)?;
        return Ok(FlushOutcome::FullSnapshot);
    }
    let deltas = session.take_dirty_deltas();
    if deltas.is_empty() {
        return Ok(FlushOutcome::Clean);
    }
    let seq = session.persist_seq();
    let append = (|| -> Result<()> {
        fault.inject_io(FaultSite::PersistWrite)?;
        let mut text = String::new();
        for delta in &deltas {
            delta_line_value(seq, delta).write_json(&mut text);
            text.push('\n');
        }
        let path = delta_path(dir, session.id());
        let created = !path.exists();
        let mut file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(text.as_bytes())?;
        fault.inject_io(FaultSite::PersistSync)?;
        file.sync_all()?;
        if created {
            // The first append created the delta file; flush the
            // directory entry so the whole stream — not just its
            // bytes — survives a crash.
            fsync_dir(dir)?;
        }
        Ok(())
    })();
    // Some of the lines may have reached the file: only a fresh base
    // is known to hold each drained increment exactly once.
    append.inspect_err(|_| session.drop_delta_tracking())?;
    // Each synced delta line carries its shard's full watermark map:
    // those marks are durable now.
    let mut marks = vec![Vec::new(); session.num_shards()];
    for delta in &deltas {
        if let Some(slot) = marks.get_mut(delta.shard) {
            slot.clone_from(&delta.repl);
        }
    }
    session.record_durable_repl(&marks);
    Ok(FlushOutcome::Deltas(deltas.len()))
}

/// Deletes a session's snapshot and delta files (used when a session is
/// explicitly closed, so it does not resurrect on the next restart).
/// Returns whether a base snapshot was actually removed —
/// `close_session` uses this to report closure of a session that was
/// already LRU-evicted to disk.
pub fn remove_session_file(dir: &Path, id: u64) -> bool {
    let removed = std::fs::remove_file(session_path(dir, id)).is_ok();
    let cleaned = std::fs::remove_file(delta_path(dir, id)).is_ok();
    if removed || cleaned {
        // Durable deletion: flush the directory so a crash cannot
        // resurrect a closed session's snapshot from a stale entry.
        let _ = fsync_dir(dir);
    }
    removed
}

/// Deletes orphaned `.tmp` snapshot files left by a crash mid-write
/// (the rename never happened, so they are dead weight). Returns how
/// many were swept. Called by `Server::bind` before recovery.
pub fn sweep_temp_files(dir: &Path) -> usize {
    let mut swept = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(".session-")
            && name.ends_with(".tmp")
            && std::fs::remove_file(entry.path()).is_ok()
        {
            swept += 1;
        }
    }
    swept
}

/// Replays matching delta lines from `session-<id>.delta.jsonl` onto
/// the base dumps. Lines whose `seq` differs from the base's
/// `flush_seq` are skipped (stale — an older base's deltas whose
/// truncation was lost in a crash); parsing stops at the first
/// unparseable line (a torn tail from a crash mid-append).
fn apply_deltas(dir: &Path, id: u64, flush_seq: u64, dumps: &mut [ShardDump]) -> Result<()> {
    let text = match std::fs::read_to_string(delta_path(dir, id)) {
        Ok(text) => text,
        Err(_) => return Ok(()), // no deltas — the base stands alone
    };
    for line in text.lines() {
        let Ok(v) = json::parse(line.trim()) else {
            break; // torn tail
        };
        if v.get("format").and_then(Value::as_str) != Some(DELTA_FORMAT) {
            return Err(ServiceError::Snapshot(format!(
                "{} contains a non-delta line",
                delta_path(dir, id).display()
            )));
        }
        if v.get("seq").and_then(Value::as_u64) != Some(flush_seq) {
            continue; // stale line from a superseded base
        }
        let shard = v
            .get("shard")
            .and_then(Value::as_usize)
            .filter(|&s| s < dumps.len())
            .ok_or_else(|| {
                ServiceError::Snapshot("delta line has a missing or out-of-range `shard`".into())
            })?;
        let dump = &mut dumps[shard];
        for pair in v
            .get("cells")
            .and_then(Value::as_array)
            .ok_or_else(|| ServiceError::Snapshot("delta line is missing `cells`".into()))?
        {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::Snapshot("delta cells must be [cell, increment] pairs".into())
            })?;
            let cell = pair[0]
                .as_usize()
                .filter(|&c| c < dump.counts.len())
                .ok_or_else(|| {
                    ServiceError::Snapshot("delta cell index out of the schema domain".into())
                })?;
            let inc = pair[1].as_u64().ok_or_else(|| {
                ServiceError::Snapshot("delta increments must be integers".into())
            })?;
            dump.counts[cell] += inc as f64;
        }
        dump.ingested = v
            .get("ingested")
            .and_then(Value::as_u64)
            .ok_or_else(|| ServiceError::Snapshot("delta line is missing `ingested`".into()))?;
        dump.rng_draws = v
            .get("rng_draws")
            .and_then(Value::as_u64)
            .unwrap_or(dump.rng_draws);
        dump.rng_state =
            parse_state_words(v.get("rng_state").ok_or_else(|| {
                ServiceError::Snapshot("delta line is missing `rng_state`".into())
            })?)?;
        // Delta lines carry the full watermark map at flush time; the
        // newest applied line's view wins, matching the counts it rode
        // in with.
        let repl = parse_repl(&v)?;
        if !repl.is_empty() {
            dump.repl = repl;
        }
    }
    Ok(())
}

/// Loads one snapshot file (and, for v2 bases, its delta file) into a
/// session.
///
/// `max_session_domain` enforces the same memory bound `create_session`
/// applies: a snapshot whose schema exceeds it (written under a looser
/// previous config, or hand-placed) is rejected rather than allocating
/// past the cap the server was restarted to enforce.
pub fn load_session(
    path: &Path,
    max_dense_domain: usize,
    max_session_domain: usize,
) -> Result<CollectionSession> {
    let text = std::fs::read_to_string(path)?;
    let v = json::parse(text.trim())?;
    if v.get("format").and_then(Value::as_str) != Some(FORMAT) {
        return Err(ServiceError::Snapshot(format!(
            "{} is not a {FORMAT} snapshot",
            path.display()
        )));
    }
    let version = v.get("version").and_then(Value::as_u64);
    if version != Some(VERSION) {
        return Err(ServiceError::Snapshot(format!(
            "unsupported snapshot version {version:?} (this build reads {VERSION})"
        )));
    }
    let id = v
        .get("session")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServiceError::Snapshot("missing `session` id".into()))?;
    let seed = v
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServiceError::Snapshot("missing `seed`".into()))?;
    let mechanism = parse_mechanism(&v)?;
    let specs = v
        .get("schema")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Snapshot("missing `schema` array".into()))?
        .iter()
        .map(|attr| {
            let pair = attr.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::Snapshot("schema attributes must be [name, cardinality] pairs".into())
            })?;
            let name = pair[0]
                .as_str()
                .ok_or_else(|| ServiceError::Snapshot("attribute name must be a string".into()))?;
            let card = pair[1]
                .as_u64()
                .filter(|&c| c > 0 && c <= u32::MAX as u64)
                .ok_or_else(|| {
                    ServiceError::Snapshot("attribute cardinality must be a positive u32".into())
                })?;
            Ok((name, card as u32))
        })
        .collect::<Result<Vec<_>>>()?;
    let schema = Schema::new(specs)?;
    if schema.domain_size() > max_session_domain {
        return Err(ServiceError::Snapshot(format!(
            "snapshot domain size {} exceeds this server's limit of {} cells",
            schema.domain_size(),
            max_session_domain
        )));
    }
    let mut dumps =
        v.get("shards")
            .and_then(Value::as_array)
            .ok_or_else(|| ServiceError::Snapshot("missing `shards` array".into()))?
            .iter()
            .map(|s| {
                let counts = s
                    .get("counts")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ServiceError::Snapshot("shard is missing `counts`".into()))?
                    .iter()
                    .map(|c| {
                        c.as_f64()
                            .ok_or_else(|| ServiceError::Snapshot("counts must be numbers".into()))
                    })
                    .collect::<Result<Vec<f64>>>()?;
                Ok(ShardDump {
                    ingested: s.get("ingested").and_then(Value::as_u64).ok_or_else(|| {
                        ServiceError::Snapshot("shard is missing `ingested`".into())
                    })?,
                    rng_draws: s.get("rng_draws").and_then(Value::as_u64).ok_or_else(|| {
                        ServiceError::Snapshot("shard is missing `rng_draws`".into())
                    })?,
                    rng_state: parse_state_words(s.get("rng_state").ok_or_else(|| {
                        ServiceError::Snapshot("shard is missing `rng_state`".into())
                    })?)?,
                    counts,
                    repl: parse_repl(s)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
    let flush_seq = v.get("flush_seq").and_then(Value::as_u64).unwrap_or(0);
    if let Some(dir) = path.parent() {
        apply_deltas(dir, id, flush_seq, &mut dumps)?;
    }
    let session = CollectionSession::recover(id, schema, mechanism, seed, max_dense_domain, dumps)?;
    session.set_persist_seq(flush_seq);
    Ok(session)
}

/// Loads every parseable snapshot in `dir`, ordered oldest snapshot
/// first (by file modification time, ties broken by id).
///
/// The ordering lets a cap-limited recovery reconstruct the LRU
/// policy's intent from disk: snapshots written at clean shutdown are
/// newer than stale eviction spills, so a caller inserting in order
/// (each insert stamping a newer last-touched tick) leaves the most
/// recently active sessions most recently touched — and can skip the
/// *oldest* snapshots when the cap forces a choice.
///
/// Unreadable or invalid files are skipped and returned as
/// `(path, error)` pairs so the caller can report them; a missing
/// directory is simply an empty result.
pub fn load_all(
    dir: &Path,
    max_dense_domain: usize,
    max_session_domain: usize,
) -> (Vec<Arc<CollectionSession>>, Vec<(PathBuf, ServiceError)>) {
    let mut sessions: Vec<(std::time::SystemTime, Arc<CollectionSession>)> = Vec::new();
    let mut skipped = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return (Vec::new(), skipped),
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("session-") || !name.ends_with(".json") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        match load_session(&path, max_dense_domain, max_session_domain) {
            Ok(session) => sessions.push((modified, Arc::new(session))),
            Err(e) => skipped.push((path, e)),
        }
    }
    sessions.sort_unstable_by_key(|(modified, s)| (*modified, s.id()));
    (sessions.into_iter().map(|(_, s)| s).collect(), skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Placement, ReconstructionMethod};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // Same sandbox contract as tests/lifecycle.rs: CI routes all
        // snapshot churn into a throwaway mktemp dir.
        let base = std::env::var_os("FRAPP_PERSIST_TEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "frapp-persist-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_session(id: u64) -> CollectionSession {
        let schema = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
        let s = CollectionSession::new(
            id,
            schema,
            Mechanism::Deterministic { gamma: 19.0 },
            2,
            7,
            4096,
        )
        .unwrap();
        let records: Vec<Vec<u32>> = (0..200).map(|i| vec![i % 3, i % 2]).collect();
        s.ingest(Placement::Shard(0), &records, false).unwrap();
        s.ingest(Placement::Shard(1), &records[..50], true).unwrap();
        s
    }

    #[test]
    fn snapshot_roundtrip_restores_counts_and_rng_position() {
        let dir = temp_dir("roundtrip");
        let original = sample_session(3);
        let path = save_session(&dir, &original).unwrap();
        assert_eq!(path, session_path(&dir, 3));

        let recovered = load_session(&path, 4096, 1 << 24).unwrap();
        assert_eq!(recovered.id(), 3);
        assert_eq!(recovered.seed(), original.seed());
        assert_eq!(recovered.mechanism(), original.mechanism());
        assert_eq!(recovered.num_shards(), 2);
        assert_eq!(recovered.dump_shards(), original.dump_shards());
        assert_eq!(recovered.persist_seq(), original.persist_seq());
        assert_eq!(
            recovered
                .reconstruct(ReconstructionMethod::ClosedForm, false)
                .unwrap()
                .estimates,
            original
                .reconstruct(ReconstructionMethod::ClosedForm, false)
                .unwrap()
                .estimates
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_recovery_continues_the_stream_bit_exactly() {
        let dir = temp_dir("v2-replay");
        let more: Vec<Vec<u32>> = (0..300).map(|i| vec![(i + 1) % 3, i % 2]).collect();

        // Uninterrupted reference.
        let reference = sample_session(8);
        // Interrupted twin, persisted and recovered via state words.
        let twin = sample_session(8);
        let path = save_session(&dir, &twin).unwrap();
        let recovered = load_session(&path, 4096, 1 << 24).unwrap();

        reference.ingest(Placement::Shard(0), &more, false).unwrap();
        recovered.ingest(Placement::Shard(0), &more, false).unwrap();
        assert_eq!(
            recovered.snapshot().counts(),
            reference.snapshot().counts(),
            "post-restart raw ingest must replay the identical draws"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_flushes_append_deltas_instead_of_rewriting() {
        let dir = temp_dir("incremental");
        let session = sample_session(11);
        // First flush: not yet tracking → full base.
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::FullSnapshot
        );
        let base_len = std::fs::metadata(session_path(&dir, 11)).unwrap().len();
        // Clean session → nothing written.
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Clean
        );
        assert!(!delta_path(&dir, 11).exists());

        // Two dirty flushes append deltas; the base never changes.
        session
            .ingest(Placement::Shard(0), &[vec![1, 1], vec![2, 0]], true)
            .unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Deltas(1)
        );
        session
            .ingest(Placement::Shard(1), &[vec![0, 1]], false)
            .unwrap();
        session
            .ingest(Placement::Shard(0), &[vec![1, 0]], true)
            .unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Deltas(2)
        );
        assert_eq!(
            std::fs::metadata(session_path(&dir, 11)).unwrap().len(),
            base_len,
            "incremental flushes must not rewrite the base snapshot"
        );
        assert!(delta_path(&dir, 11).exists());

        // Recovery = base + deltas, bit-identical to the live session.
        let recovered = load_session(&session_path(&dir, 11), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());

        // A later full save folds the deltas in and removes the file.
        save_session(&dir, &session).unwrap();
        assert!(!delta_path(&dir, 11).exists());
        let recovered = load_session(&session_path(&dir, 11), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repl_watermarks_survive_snapshot_and_delta_recovery() {
        let dir = temp_dir("repl");
        let session = sample_session(21);
        let batch = [[1, 1]];
        let stamp = |seq| Placement::Replicated { origin: 4, seq };
        session.ingest(stamp(6), batch, true).unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::FullSnapshot
        );

        // Base-snapshot path: the recovered session still rejects the
        // forwarded batch a reconnecting peer might resend.
        let recovered = load_session(&session_path(&dir, 21), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        assert!(!recovered.ingest(stamp(6), batch, true).unwrap().fresh);

        // Delta path: a watermark advanced after the base snapshot
        // rides in on the delta line.
        session.ingest(stamp(8), batch, true).unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Deltas(1)
        );
        let recovered = load_session(&session_path(&dir, 21), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        assert!(!recovered.ingest(stamp(8), batch, true).unwrap().fresh);
        assert!(recovered.ingest(stamp(9), batch, true).unwrap().fresh);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_and_torn_delta_lines_are_ignored() {
        let dir = temp_dir("delta-robust");
        let session = sample_session(12);
        persist_session_incremental(&dir, &session).unwrap();
        session
            .ingest(Placement::Shard(0), &[vec![1, 1]], true)
            .unwrap();
        persist_session_incremental(&dir, &session).unwrap();
        let good_deltas = std::fs::read_to_string(delta_path(&dir, 12)).unwrap();

        // Simulate a crash that lost the delta-file truncation: a full
        // save supersedes the deltas, but the old file resurfaces.
        save_session(&dir, &session).unwrap();
        assert!(!delta_path(&dir, 12).exists());
        std::fs::write(delta_path(&dir, 12), &good_deltas).unwrap();
        let recovered = load_session(&session_path(&dir, 12), 4096, 1 << 24).unwrap();
        assert_eq!(
            recovered.dump_shards(),
            session.dump_shards(),
            "stale-seq delta lines must not be double-applied"
        );

        // A torn tail (crash mid-append) is ignored; lines before it
        // still apply.
        session
            .ingest(Placement::Shard(1), &[vec![2, 1]], true)
            .unwrap();
        persist_session_incremental(&dir, &session).unwrap();
        let mut text = std::fs::read_to_string(delta_path(&dir, 12)).unwrap();
        text.push_str("{\"format\":\"frapp-session-delta\",\"seq\":");
        std::fs::write(delta_path(&dir, 12), text).unwrap();
        let recovered = load_session(&session_path(&dir, 12), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_forces_a_fresh_base_so_torn_tails_cannot_swallow_new_deltas() {
        // Crash story: server A appends a delta and dies mid-append
        // (torn tail). Server B recovers — if B then appended new
        // deltas behind the torn line, every later recovery (which
        // stops reading at the torn line) would silently lose them.
        // B's first flush must therefore be a full snapshot that
        // removes the old delta file.
        let dir = temp_dir("torn-durability");
        let session = sample_session(14);
        persist_session_incremental(&dir, &session).unwrap();
        session
            .ingest(Placement::Shard(0), &[vec![1, 1]], true)
            .unwrap();
        persist_session_incremental(&dir, &session).unwrap();
        let mut text = std::fs::read_to_string(delta_path(&dir, 14)).unwrap();
        text.push_str("{\"format\":\"frapp-session-delta\",\"se"); // torn
        std::fs::write(delta_path(&dir, 14), text).unwrap();

        // Server B: recover, ingest, flush. The flush must be full.
        let recovered = load_session(&session_path(&dir, 14), 4096, 1 << 24).unwrap();
        assert!(!recovered.is_delta_tracking());
        recovered
            .ingest(Placement::Shard(1), &[vec![2, 0]], true)
            .unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &recovered).unwrap(),
            FlushOutcome::FullSnapshot
        );
        assert!(
            !delta_path(&dir, 14).exists(),
            "the fresh base must remove the torn delta file"
        );
        assert!(recovered.is_delta_tracking());

        // Later deltas land in a clean stream and survive recovery.
        recovered
            .ingest(Placement::Shard(0), &[vec![0, 1]], true)
            .unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &recovered).unwrap(),
            FlushOutcome::Deltas(1)
        );
        let again = load_session(&session_path(&dir, 14), 4096, 1 << 24).unwrap();
        assert_eq!(again.dump_shards(), recovered.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_all_skips_corrupt_files_and_orders_oldest_snapshot_first() {
        let dir = temp_dir("load-all");
        save_session(&dir, &sample_session(9)).unwrap();
        // Ensure a strictly newer mtime for the second snapshot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        save_session(&dir, &sample_session(2)).unwrap();
        std::fs::write(dir.join("session-5.json"), "not json").unwrap();
        std::fs::write(dir.join("unrelated.txt"), "ignored").unwrap();

        let (sessions, skipped) = load_all(&dir, 4096, 1 << 24);
        // Snapshot 9 was written first, so it is the oldest and comes
        // first; a cap-limited recovery drops from the front.
        assert_eq!(
            sessions.iter().map(|s| s.id()).collect::<Vec<_>>(),
            vec![9, 2]
        );
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].0.ends_with("session-5.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_file_sweep_removes_only_orphaned_tmp_files() {
        let dir = temp_dir("sweep");
        let path = save_session(&dir, &sample_session(1)).unwrap();
        std::fs::write(dir.join(".session-1.json.999.0.tmp"), "half a snapshot").unwrap();
        std::fs::write(dir.join(".session-7.json.999.1.tmp"), "").unwrap();
        std::fs::write(dir.join("keep.txt"), "not a temp file").unwrap();

        assert_eq!(sweep_temp_files(&dir), 2);
        assert!(path.exists(), "real snapshots must survive the sweep");
        assert!(dir.join("keep.txt").exists());
        assert_eq!(sweep_temp_files(&dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_enforces_the_session_domain_cap() {
        // A snapshot written under a looser config (or hand-placed)
        // must not bypass the memory bound `create_session` enforces.
        let dir = temp_dir("domain-cap");
        let path = save_session(&dir, &sample_session(1)).unwrap();
        // Domain size is 6; a cap of 4 must reject it, the real default
        // must accept it.
        let err = load_session(&path, 4096, 4).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(load_session(&path, 4096, 1 << 24).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let dir = temp_dir("version");
        let path = dir.join("session-1.json");
        // 1 is the draw-count format no build has written since PR 3.
        for version in [1, 99] {
            std::fs::write(
                &path,
                format!(
                    r#"{{"format":"frapp-session","version":{version},"session":1,"seed":0,
                       "mechanism":{{"kind":"det","gamma":19.0}},"schema":[["a",2]],
                       "shards":[{{"ingested":0,"rng_draws":0,"counts":[0,0]}}]}}"#
                ),
            )
            .unwrap();
            let err = load_session(&path, 4096, 1 << 24).unwrap_err();
            assert!(
                err.to_string().contains("unsupported snapshot version"),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn closed_sessions_refuse_snapshots() {
        // The close/persister race: once a session is marked closed, a
        // racing save must not resurrect a file that close just
        // deleted.
        let dir = temp_dir("closed");
        use crate::session::{Mechanism, SessionRegistry};
        let reg = SessionRegistry::new();
        let session = reg
            .create(
                Schema::new(vec![("a", 3), ("b", 2)]).unwrap(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap()
            .session;
        save_session(&dir, &session).unwrap();
        let closed = reg.remove(session.id()).unwrap();
        remove_session_file(&dir, closed.id());
        let err = save_session(&dir, &closed).unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
        assert!(!session_path(&dir, closed.id()).exists());
        // The incremental path refuses identically.
        let err = persist_session_incremental(&dir, &closed).unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_snapshot() {
        // The periodic persister, an on-demand persist op and an
        // eviction spill can all write the same session at once; every
        // interleaving must leave a parseable, complete snapshot.
        let dir = temp_dir("concurrent");
        let session = std::sync::Arc::new(sample_session(6));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = std::sync::Arc::clone(&session);
                let dir = dir.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        save_session(&dir, &session).unwrap();
                    }
                });
            }
        });
        let recovered = load_session(&session_path(&dir, 6), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_incremental_and_full_flushes_stay_consistent() {
        // The persist gate serializes delta appends with full saves, so
        // racing them must never lose an increment or double-apply one.
        let dir = temp_dir("concurrent-inc");
        let session = std::sync::Arc::new(sample_session(13));
        persist_session_incremental(&dir, &session).unwrap();
        std::thread::scope(|scope| {
            let ingest = std::sync::Arc::clone(&session);
            scope.spawn(move || {
                for i in 0..40u32 {
                    ingest
                        .ingest(Placement::Shard(0), &[vec![i % 3, i % 2]], true)
                        .unwrap();
                }
            });
            let flusher = std::sync::Arc::clone(&session);
            let flush_dir = dir.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    persist_session_incremental(&flush_dir, &flusher).unwrap();
                }
            });
            let saver = std::sync::Arc::clone(&session);
            let save_dir = dir.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    save_session(&save_dir, &saver).unwrap();
                }
            });
        });
        // Final flush captures any remaining dirty state.
        persist_session_incremental(&dir, &session).unwrap();
        let recovered = load_session(&session_path(&dir, 13), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_ids_parse_from_file_names() {
        assert_eq!(session_id_from_file_name("session-42.json"), Some(42));
        assert_eq!(session_id_from_file_name(&session_file_name(7)), Some(7));
        assert_eq!(session_id_from_file_name("session-.json"), None);
        assert_eq!(session_id_from_file_name("session-42.json.tmp"), None);
        // Delta files never parse as (and thus never shadow) a base.
        assert_eq!(session_id_from_file_name(&delta_file_name(42)), None);
        assert_eq!(session_id_from_file_name("other.json"), None);
    }

    #[test]
    fn injected_faults_surface_and_never_lose_an_increment() {
        let dir = temp_dir("faults");
        let session = sample_session(31);
        persist_session_incremental(&dir, &session).unwrap();

        // A failed delta append turns delta tracking off: the
        // fault-free retry writes a full base and recovery sees
        // everything.
        session
            .ingest(Placement::Shard(0), &[vec![1, 1]], true)
            .unwrap();
        let write_fault = FaultPlan::parse("seed=1,persist_write=io_error").unwrap();
        let err = persist_session_incremental_faulted(&dir, &session, &write_fault).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!session.is_delta_tracking());
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::FullSnapshot
        );
        let recovered = load_session(&session_path(&dir, 31), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());

        // So does a failed full save, before the rename published the
        // new base or after it.
        for site in ["persist_rename", "persist_sync"] {
            assert!(session.is_delta_tracking());
            session
                .ingest(Placement::Shard(0), &[vec![2, 0]], true)
                .unwrap();
            let fault = FaultPlan::parse(&format!("seed=1,{site}=io_error")).unwrap();
            assert!(save_session_faulted(&dir, &session, &fault).is_err());
            assert!(!session.is_delta_tracking(), "{site}");
            assert_eq!(
                persist_session_incremental(&dir, &session).unwrap(),
                FlushOutcome::FullSnapshot
            );
            let recovered = load_session(&session_path(&dir, 31), 4096, 1 << 24).unwrap();
            assert_eq!(recovered.dump_shards(), session.dump_shards());
        }

        // A delay fault is not an error: the flush just takes longer.
        session
            .ingest(Placement::Shard(0), &[vec![0, 0]], true)
            .unwrap();
        let slow = FaultPlan::parse("seed=1,persist_write=delay(1)").unwrap();
        assert_eq!(
            persist_session_incremental_faulted(&dir, &session, &slow).unwrap(),
            FlushOutcome::Deltas(1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_removes_snapshot_and_delta_files() {
        let dir = temp_dir("remove");
        let session = sample_session(4);
        persist_session_incremental(&dir, &session).unwrap();
        let path = session_path(&dir, 4);
        session
            .ingest(Placement::Shard(0), &[vec![0, 0]], true)
            .unwrap();
        persist_session_incremental(&dir, &session).unwrap();
        assert!(path.exists());
        assert!(delta_path(&dir, 4).exists());
        remove_session_file(&dir, 4);
        assert!(!path.exists());
        assert!(!delta_path(&dir, 4).exists());
        remove_session_file(&dir, 4); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_periodic_persister_turns_delta_tracking_on() {
        // `persist`, an eviction spill and shutdown all go through
        // `save_session`: a session saved only that way never pays the
        // second per-cell array.
        let dir = temp_dir("tracking-rule");
        let session = sample_session(15);
        assert!(!session.is_delta_tracking());
        save_session(&dir, &session).unwrap();
        session
            .ingest(Placement::Shard(0), &[vec![1, 0]], true)
            .unwrap();
        save_session(&dir, &session).unwrap();
        assert!(!session.is_delta_tracking());

        // The periodic persister's first flush is a full base that
        // turns tracking on; a full save afterwards keeps it on,
        // relative to the new base.
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::FullSnapshot
        );
        assert!(session.is_delta_tracking());
        session
            .ingest(Placement::Shard(1), &[vec![2, 1]], true)
            .unwrap();
        save_session(&dir, &session).unwrap();
        assert!(session.is_delta_tracking());
        session
            .ingest(Placement::Shard(1), &[vec![0, 1]], true)
            .unwrap();
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Deltas(1)
        );

        // A recovered session starts untracked, so its first flush is
        // full again.
        let recovered = load_session(&session_path(&dir, 15), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        assert!(!recovered.is_delta_tracking());
        assert_eq!(
            persist_session_incremental(&dir, &recovered).unwrap(),
            FlushOutcome::FullSnapshot
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_delta_append_whose_sync_fails_is_never_appended_twice() {
        // The lines reach the file before the fsync fails. Handing the
        // drained increments back for a retry would append them a
        // second time, and recovery would then refuse the shard: its
        // counts would total more than its `ingested`.
        let dir = temp_dir("sync-retry");
        let session = sample_session(32);
        persist_session_incremental(&dir, &session).unwrap();
        session
            .ingest(Placement::Shard(0), &[vec![1, 1], vec![2, 0]], true)
            .unwrap();
        let sync_fault = FaultPlan::parse("seed=1,persist_sync=io_error").unwrap();
        assert!(persist_session_incremental_faulted(&dir, &session, &sync_fault).is_err());
        persist_session_incremental(&dir, &session).unwrap();
        let recovered = load_session(&session_path(&dir, 32), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The three ways a session reaches disk.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SaveKind {
        /// `save_session_faulted`: `persist`, spill, shutdown.
        Full,
        /// The first `persist_session_incremental_faulted`, a full base.
        FirstIncremental,
        /// A later `persist_session_incremental_faulted`.
        DeltaAppend,
    }

    #[test]
    fn every_crash_point_leaves_a_prefix_state_on_disk() {
        // Fail each step of each save kind, then recover. Disk must
        // hold the state before or after the flush, bit for bit, with
        // RNG words that replay that state's next draws and durable
        // replication marks no higher than what came back.
        const ORIGIN: u64 = 5;
        let stamp = |seq| Placement::Replicated {
            origin: ORIGIN,
            seq,
        };
        let rows: Vec<Vec<u32>> = (0..40).map(|i| vec![i % 3, (i / 3) % 2]).collect();
        for kind in [
            SaveKind::Full,
            SaveKind::FirstIncremental,
            SaveKind::DeltaAppend,
        ] {
            for site in ["persist_write", "persist_rename", "persist_sync"] {
                let case = format!("{kind:?} x {site}");
                let dir = temp_dir("crash-point");
                let session = sample_session(41);
                session.ingest(stamp(1), &rows[..4], true).unwrap();
                session.ingest(stamp(2), &rows[4..6], true).unwrap();
                if kind == SaveKind::DeltaAppend {
                    persist_session_incremental(&dir, &session).unwrap();
                } else {
                    save_session(&dir, &session).unwrap();
                }
                let pre = session.dump_shards();
                // Dirty both shards; the raw batches advance the RNGs.
                session.ingest(stamp(3), &rows[6..11], true).unwrap();
                session.ingest(stamp(4), &rows[..7], false).unwrap();
                session.ingest(Placement::Shard(1), &rows, false).unwrap();
                let post = session.dump_shards();
                assert_ne!(pre, post);

                let fault = FaultPlan::parse(&format!("seed=1,{site}=io_error")).unwrap();
                let flushed = match kind {
                    SaveKind::Full => save_session_faulted(&dir, &session, &fault).map(|_| None),
                    _ => persist_session_incremental_faulted(&dir, &session, &fault).map(Some),
                };
                // A delta append has no rename step to fail.
                let fails = !(kind == SaveKind::DeltaAppend && site == "persist_rename");
                assert_eq!(flushed.is_err(), fails, "{case}: {flushed:?}");
                if !fails {
                    assert_eq!(flushed.unwrap(), Some(FlushOutcome::Deltas(2)), "{case}");
                }
                // The sync step fails after the bytes are in place.
                let expected = if fails && site != "persist_sync" {
                    &pre
                } else {
                    &post
                };

                let recovered = load_session(&session_path(&dir, 41), 4096, 1 << 24).unwrap();
                assert_eq!(&recovered.dump_shards(), expected, "{case}");
                let durable = session.durable_repl_status(ORIGIN);
                assert!(durable.iter().any(|&mark| mark > 0), "{case}");
                for (mark, back) in durable.iter().zip(recovered.repl_status(ORIGIN)) {
                    assert!(*mark <= back, "{case}: durable {mark} > recovered {back}");
                }
                let twin = CollectionSession::recover(
                    41,
                    session.schema().clone(),
                    session.mechanism(),
                    session.seed(),
                    4096,
                    expected.clone(),
                )
                .unwrap();
                for shard in 0..2 {
                    recovered
                        .ingest(Placement::Shard(shard), &rows, false)
                        .unwrap();
                    twin.ingest(Placement::Shard(shard), &rows, false).unwrap();
                }
                assert_eq!(recovered.dump_shards(), twin.dump_shards(), "{case}");

                // One fault-free flush recovers the live state; after a
                // failure it is a full base.
                let outcome = persist_session_incremental(&dir, &session).unwrap();
                let want = if fails {
                    FlushOutcome::FullSnapshot
                } else {
                    FlushOutcome::Clean
                };
                assert_eq!(outcome, want, "{case}");
                let recovered = load_session(&session_path(&dir, 41), 4096, 1 << 24).unwrap();
                assert_eq!(recovered.dump_shards(), session.dump_shards(), "{case}");
                assert_eq!(
                    session.durable_repl_status(ORIGIN),
                    session.repl_status(ORIGIN),
                    "{case}"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// A 2-shard session over 4^`attrs` cells with every cell counted
    /// once, the lower half of the domain on shard 0.
    fn loaded_session(id: u64, attrs: usize) -> CollectionSession {
        let names: Vec<String> = (0..attrs).map(|i| format!("a{i}")).collect();
        let schema = Schema::new(names.iter().map(|n| (n.as_str(), 4)).collect()).unwrap();
        let cells = schema.domain_size();
        let session = CollectionSession::new(
            id,
            schema,
            Mechanism::Deterministic { gamma: 19.0 },
            2,
            7,
            4096,
        )
        .unwrap();
        for start in (0..cells).step_by(1 << 14) {
            let batch = (start..cells.min(start + (1 << 14))).map(|c| session.schema().decode(c));
            let shard = Placement::Shard(2 * start / cells);
            session.ingest(shard, batch, true).unwrap();
        }
        session
    }

    /// Dirties 1 % of the session's cells, half on each shard.
    fn dirty_one_percent(session: &CollectionSession, offset: usize) {
        let cells = session.schema().domain_size();
        let dirty: Vec<Vec<u32>> = (0..cells / 100 + 1)
            .map(|k| session.schema().decode((k * 99 + offset) % cells))
            .collect();
        let (first, second) = dirty.split_at(dirty.len() / 2);
        session.ingest(Placement::Shard(0), first, true).unwrap();
        session.ingest(Placement::Shard(1), second, true).unwrap();
    }

    #[test]
    fn a_sparse_delta_is_a_small_fraction_of_the_base() {
        // 2^16 cells on 2 shards with 1 % of the cells dirty: the
        // appended lines are at most 1/20 of the base file's bytes.
        let dir = temp_dir("delta-size");
        let session = loaded_session(16, 8);
        assert_eq!(session.schema().domain_size(), 1 << 16);
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::FullSnapshot
        );
        dirty_one_percent(&session, 0);
        assert_eq!(
            persist_session_incremental(&dir, &session).unwrap(),
            FlushOutcome::Deltas(2)
        );
        let base = std::fs::metadata(session_path(&dir, 16)).unwrap().len();
        let delta = std::fs::metadata(delta_path(&dir, 16)).unwrap().len();
        assert!(delta * 20 <= base, "delta {delta} B vs base {base} B");
        let recovered = load_session(&session_path(&dir, 16), 4096, 1 << 24).unwrap();
        assert_eq!(recovered.dump_shards(), session.dump_shards());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[ignore = "timing table; run in release with --ignored --nocapture"]
    fn full_save_vs_delta_append_timings() {
        // Median of three full saves, three 1 %-dirty delta appends and
        // three loads of base + deltas, at 2^16, 2^20 and 2^22 cells.
        fn median(mut runs: Vec<f64>) -> f64 {
            runs.sort_by(f64::total_cmp);
            runs[runs.len() / 2]
        }
        fn ms(f: impl FnOnce()) -> f64 {
            let started = std::time::Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e3
        }
        println!("cells    full_save_ms delta_append_ms ratio base_B    delta_B load_ms");
        for attrs in [8, 10, 11] {
            let dir = temp_dir("save-costs");
            let session = loaded_session(17, attrs);
            persist_session_incremental(&dir, &session).unwrap();
            let full = median(
                (0..3)
                    .map(|_| ms(|| drop(save_session(&dir, &session).unwrap())))
                    .collect(),
            );
            let delta = median(
                (0..3)
                    .map(|round| {
                        dirty_one_percent(&session, round);
                        ms(|| {
                            let outcome = persist_session_incremental(&dir, &session).unwrap();
                            assert_eq!(outcome, FlushOutcome::Deltas(2));
                        })
                    })
                    .collect(),
            );
            let path = session_path(&dir, 17);
            let load = median(
                (0..3)
                    .map(|_| ms(|| drop(load_session(&path, 4096, 1 << 24).unwrap())))
                    .collect(),
            );
            println!(
                "{:<8} {full:>12.2} {delta:>15.2} {:>5.0} {:<9} {:<7} {load:>7.1}",
                session.schema().domain_size(),
                full / delta,
                std::fs::metadata(&path).unwrap().len(),
                std::fs::metadata(delta_path(&dir, 17)).unwrap().len() / 3,
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
