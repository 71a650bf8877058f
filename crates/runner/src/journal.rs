//! Crash-safe sweep journal: append-only completion log + tolerant
//! recovery.
//!
//! A journaled sweep appends one line per completed scenario *as it
//! completes*, each line self-checked by an FNV-1a hash, so a killed
//! process loses at most the in-flight scenarios. On resume the journal
//! is re-read tolerantly — corrupt or torn lines are dropped and simply
//! re-run — and only missing indices execute, each re-seeded by sweep
//! *position* (never by execution order), so a resumed report is
//! byte-identical to an uninterrupted one.
//!
//! # Format
//!
//! Plain text, one record per line:
//!
//! ```text
//! MTRJ1 <base_seed> <fingerprint-hex>
//! <index> <fnv1a64-hex of entry> <entry>
//! ```
//!
//! The header pins the base seed and a fingerprint of the expanded
//! scenario list and the shard size; resuming against a different spec,
//! seed or shard size is refused rather than silently mixed. `<entry>` is
//! the compact rendering of the
//! [`result_tree`](crate::report::result_tree) record; recovery parses it
//! back into that tree, and rendering is a fixed point of parsing, so the
//! reassembled report is byte-identical. Duplicate indices are legal —
//! the last valid record wins (a retried item may append twice; the
//! rendered entry is deterministic, so duplicates are byte-equal anyway).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use mithril_fasthash::fnv1a64;
use mithril_obs::json::Json;
use mithril_obs::FORMAT_VERSION;

use crate::scenarios::Scenario;

/// Magic tag of journal format v1.
pub(crate) const JOURNAL_MAGIC: &str = "MTRJ1";

/// Fingerprint of a sweep's identity: the report [`FORMAT_VERSION`], the
/// base seed, the effective shard size (each position's seed depends on
/// it, see [`position_seed`](crate::engine::position_seed), which runs a
/// zero size as 1) and every expanded
/// scenario's name and size knobs. Two sweeps with the same fingerprint
/// produce the same entry at every index, which is exactly what resuming
/// requires; a journal written under another report format or shard size
/// never splices its entries into this one.
pub fn fingerprint(base_seed: u64, shard_size: usize, scenarios: &[Scenario]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&base_seed.to_le_bytes());
    bytes.extend_from_slice(&(shard_size.max(1) as u64).to_le_bytes());
    for s in scenarios {
        bytes.extend_from_slice(s.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(s.cores as u64).to_le_bytes());
        bytes.extend_from_slice(&s.insts_per_core.to_le_bytes());
        bytes.extend_from_slice(&s.flip_th.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// What tolerant recovery found in a journal.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Recovered entries by scenario index (`None` = must run).
    pub entries: Vec<Option<Json>>,
    /// Lines dropped as corrupt, torn, or out of range.
    pub dropped_lines: usize,
}

/// Re-reads a journal tolerantly, validating its header strictly.
///
/// # Errors
///
/// I/O failure, a malformed header, or a header whose seed/fingerprint
/// disagrees with this sweep (resuming someone else's journal corrupts
/// silently — refuse instead). Body damage is *not* an error: corrupt,
/// torn, unparseable or out-of-range lines are dropped and counted.
pub fn load(
    path: &Path,
    base_seed: u64,
    fingerprint: u64,
    scenario_count: usize,
) -> Result<LoadedJournal, String> {
    let file =
        File::open(path).map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        Some(Ok(line)) => line,
        Some(Err(e)) => return Err(format!("cannot read journal {}: {e}", path.display())),
        None => return Err(format!("journal {} is empty", path.display())),
    };
    let mut parts = header.split(' ');
    if parts.next() != Some(JOURNAL_MAGIC) {
        return Err(format!(
            "journal {} is not a {JOURNAL_MAGIC} file",
            path.display()
        ));
    }
    let h_seed: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("journal {}: malformed header seed", path.display()))?;
    let h_fp = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("journal {}: malformed header fingerprint", path.display()))?;
    if h_seed != base_seed {
        return Err(format!(
            "journal {} was written for base seed {h_seed}, this sweep uses {base_seed}",
            path.display()
        ));
    }
    if h_fp != fingerprint {
        return Err(format!(
            "journal {} belongs to a different sweep spec, shard size or report format (fingerprint {h_fp:016x} != {fingerprint:016x})",
            path.display()
        ));
    }

    let mut out = LoadedJournal {
        entries: vec![None; scenario_count],
        dropped_lines: 0,
    };
    for line in lines {
        let line = match line {
            Ok(l) => l,
            // A read error mid-body (e.g. invalid UTF-8 in a torn tail)
            // ends recovery; everything after re-runs.
            Err(_) => {
                out.dropped_lines += 1;
                break;
            }
        };
        let mut fields = line.splitn(3, ' ');
        let parsed = (|| {
            let index: usize = fields.next()?.parse().ok()?;
            let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
            let entry = fields.next()?;
            if index >= scenario_count || fnv1a64(entry.as_bytes()) != hash {
                return None;
            }
            Json::parse(entry).ok().map(|entry| (index, entry))
        })();
        match parsed {
            Some((index, entry)) => out.entries[index] = Some(entry),
            None => out.dropped_lines += 1,
        }
    }
    Ok(out)
}

/// Concurrent append-side of the journal: workers record completions
/// through a shared mutex, one flushed line per completed scenario.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O failure as a displayable message.
    pub fn create(path: &Path, base_seed: u64, fingerprint: u64) -> Result<Self, String> {
        let mut file = File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        writeln!(file, "{JOURNAL_MAGIC} {base_seed} {fingerprint:016x}")
            .and_then(|_| file.flush())
            .map_err(|e| format!("cannot write journal {}: {e}", path.display()))?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }

    /// Reopens an existing journal for appending (resume path; the
    /// header was already validated by [`load`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failure as a displayable message.
    pub fn append(path: &Path) -> Result<Self, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }

    /// Appends one completed scenario and flushes it to the operating
    /// system before the sweep moves on, so the line survives a killed
    /// process. Nothing syncs the file to disk, so an OS crash or power
    /// loss can still lose it. `entry` must be a single line.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure or a multi-line entry; inside the robust
    /// engine the panic is caught and surfaces as that item's outcome
    /// instead of killing the sweep. An I/O panic poisons the file's
    /// mutex, so every later record panics too, naming that failure.
    pub fn record(&self, index: usize, entry: &str) {
        assert!(
            !entry.contains('\n'),
            "journal entries are single-line records"
        );
        let mut file = self
            .file
            .lock()
            .expect("journal unusable: an earlier append failed");
        writeln!(file, "{index} {:016x} {entry}", fnv1a64(entry.as_bytes()))
            .and_then(|_| file.flush())
            .unwrap_or_else(|e| panic!("cannot append to journal: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            scheme_label: "none".into(),
            scheme: mithril_sim::Scheme::None,
            workload: "mix-high".into(),
            geometry: mithril_dram::Geometry::default(),
            flip_th: 6_250,
            cores: 1,
            insts_per_core: 100,
            faults: None,
            qos: mithril_sim::QosPolicy::Off,
        }
    }

    #[test]
    fn roundtrips_entries_by_index() {
        let dir = std::env::temp_dir().join("mtrj-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.mtrj");
        let scenarios = vec![scenario("a"), scenario("b"), scenario("c")];
        let fp = fingerprint(7, 1, &scenarios);
        let w = JournalWriter::create(&path, 7, fp).unwrap();
        w.record(2, "{\"name\":\"c\"}");
        w.record(0, "{\"name\":\"a\"}");
        let loaded = load(&path, 7, fp, 3).unwrap();
        assert_eq!(loaded.entries.iter().flatten().count(), 2);
        assert_eq!(loaded.dropped_lines, 0);
        let name = |i: usize| {
            loaded.entries[i]
                .as_ref()
                .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
        };
        assert_eq!(name(0).as_deref(), Some("a"));
        assert!(loaded.entries[1].is_none());
        assert_eq!(name(2).as_deref(), Some("c"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drops_torn_and_corrupt_lines() {
        let dir = std::env::temp_dir().join("mtrj-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.mtrj");
        let scenarios = vec![scenario("a"), scenario("b")];
        let fp = fingerprint(1, 1, &scenarios);
        let w = JournalWriter::create(&path, 1, fp).unwrap();
        w.record(0, "\"entry-zero\"");
        w.record(1, "\"entry-one\"");
        // Hash-valid but not JSON: dropped like any other damage.
        w.record(1, "{\"torn");
        drop(w);
        // Corrupt record 1's payload and append a torn (truncated) line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled = text.replace("entry-one", "entry-0ne") + "1 deadbeef";
        std::fs::write(&path, mangled).unwrap();
        let loaded = load(&path, 1, fp, 2).unwrap();
        assert_eq!(loaded.entries[0], Some(Json::Str("entry-zero".into())));
        assert!(loaded.entries[1].is_none(), "hash mismatch must drop");
        assert_eq!(loaded.dropped_lines, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_after_a_failed_append_names_the_failure() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = std::env::temp_dir().join("mtrj-poisoned");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.mtrj");
        let w = JournalWriter::create(&path, 1, 0).unwrap();
        // A panic while the file is held, as a failed append leaves it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _file = w.file.lock().unwrap();
            panic!("append failed");
        }));
        let err = catch_unwind(AssertUnwindSafe(|| w.record(0, "{}"))).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("a poisoned lock panics with a message");
        assert!(msg.contains("an earlier append failed"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_journals() {
        let dir = std::env::temp_dir().join("mtrj-foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.mtrj");
        let a = vec![scenario("a")];
        let b = vec![scenario("b")];
        let fp_a = fingerprint(1, 1, &a);
        JournalWriter::create(&path, 1, fp_a).unwrap();
        assert!(load(&path, 2, fp_a, 1).unwrap_err().contains("base seed"));
        assert!(load(&path, 1, fingerprint(1, 1, &b), 1)
            .unwrap_err()
            .contains("fingerprint"));
        assert!(load(&path, 1, fp_a, 1).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    /// A journal written by a format-2 build (whose header fingerprint
    /// for the smoke spec at base seed 1 was `0a523d224a601bd8`) carries
    /// entries of another report shape: resuming it must be refused, not
    /// spliced into a report stamped with this build's version.
    #[test]
    fn refuses_journals_from_another_report_format() {
        const FORMAT_2_SMOKE_SEED_1: u64 = 0x0a52_3d22_4a60_1bd8;
        let dir = std::env::temp_dir().join("mtrj-format");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.mtrj");
        let scenarios = crate::scenarios::SweepSpec::smoke().scenarios();
        JournalWriter::create(&path, 1, FORMAT_2_SMOKE_SEED_1).unwrap();
        let err = load(&path, 1, fingerprint(1, 1, &scenarios), scenarios.len()).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_tracks_spec_identity() {
        let a = vec![scenario("a")];
        let mut bigger = a.clone();
        bigger[0].insts_per_core = 200;
        assert_ne!(fingerprint(1, 1, &a), fingerprint(2, 1, &a));
        assert_ne!(fingerprint(1, 1, &a), fingerprint(1, 1, &bigger));
        assert_ne!(fingerprint(1, 1, &a), fingerprint(1, 4, &a));
        // Shard sizes 0 and 1 seed and shard alike, so they share journals.
        assert_eq!(fingerprint(1, 0, &a), fingerprint(1, 1, &a));
        assert_eq!(fingerprint(1, 1, &a), fingerprint(1, 1, &a.clone()));
    }
}
