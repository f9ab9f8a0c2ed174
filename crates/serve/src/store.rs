//! Durable storage: the on-disk content-addressed cell cache and the
//! job files.
//!
//! Layout under the service root:
//!
//! ```text
//! <root>/cache/<address>.json    one cached cell result per file
//! <root>/jobs/<id>.json          a pending job's spec (removed on completion)
//! <root>/jobs/<id>.report.json   the finished job's full SweepReport
//! ```
//!
//! Every file is written **atomically**: the bytes go to a `.tmp`
//! sibling first, are fsynced, and the file is renamed into place.
//! A crash at any instant leaves either the old file or the new one,
//! never a torn mix — which is what lets a killed daemon trust
//! whatever it finds on restart.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fe_sim::json;
use fe_sim::{CellKey, CellStore, CellValue};

/// Writes `bytes` to `path` atomically: temp sibling, fsync, rename.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Content-addressed result cache on disk, one JSON file per cell
/// under `<dir>/<CellKey::address()>.json` — the durable twin of
/// [`fe_sim::MemoryCellStore`]. Safe for concurrent readers/writers:
/// lookups read whole files, stores rename complete ones into place,
/// and two daemons sharing a cache directory at worst redo a cell and
/// overwrite it with identical bytes (cells are deterministic in
/// their key).
pub struct DiskCellStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
}

impl DiskCellStore {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCellStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCellStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        })
    }

    fn path_of(&self, key: &CellKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.address()))
    }

    /// Whether a cell file for `key` is on disk — one `stat`, counted
    /// as neither a hit nor a miss and refreshing no recency. A file
    /// that is present may still fail to parse; [`CellStore::get`]
    /// then misses and the cell is recomputed.
    pub fn contains(&self, key: &CellKey) -> bool {
        self.path_of(key).is_file()
    }

    /// Cells currently on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a cached cell.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cells written.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Bounds the cache to `max_bytes` of cell files by evicting
    /// least-recently-used cells first — mtime order, and cache hits
    /// touch their file's mtime, so recency tracks *use*, not just
    /// writes. Returns the number of cells evicted.
    ///
    /// Eviction is as crash-safe as the cache itself: losing a clean
    /// cell file only costs a recompute, and a concurrently re-written
    /// cell that loses the race is re-put with identical bytes on the
    /// next sweep.
    pub fn gc(&self, max_bytes: u64) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut cells: Vec<(PathBuf, std::time::SystemTime, u64)> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                Some((e.path(), meta.modified().ok()?, meta.len()))
            })
            .collect();
        let mut total: u64 = cells.iter().map(|(_, _, size)| size).sum();
        if total <= max_bytes {
            return 0;
        }
        // Oldest first; path as tie-break so same-instant cells evict
        // deterministically.
        cells.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        let mut evicted = 0;
        for (path, _, size) in cells {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= size;
                evicted += 1;
            }
        }
        evicted
    }
}

impl CellStore for DiskCellStore {
    fn get(&self, key: &CellKey) -> Option<CellValue> {
        let path = self.path_of(key);
        let value = fs::read_to_string(&path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| CellValue::from_json(&doc).ok());
        match &value {
            Some(_) => {
                // Refresh mtime so [`Self::gc`]'s LRU order tracks use,
                // not just writes. Best-effort: a read-only cache
                // directory simply degrades to eviction by write age.
                if let Ok(f) = File::options().write(true).open(&path) {
                    // audit-allow(no-wallclock): LRU recency metadata only — the mtime orders eviction and never enters a report, cache key, or simulated result
                    let _ = f.set_modified(std::time::SystemTime::now());
                }
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    fn put(&self, key: &CellKey, value: &CellValue) {
        // A cache write failing (disk full, permissions) must not take
        // the sweep down — the result still reaches the report; only
        // reuse is lost. Same policy as a dropped clean cache line.
        let bytes = value.to_json().render();
        if write_atomic(&self.path_of(key), bytes.as_bytes()).is_ok() {
            self.puts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_model::MachineConfig;
    use fe_sim::{RunLength, SchemeSpec};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fe-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn a_key(seed: u64) -> CellKey {
        CellKey::for_cell(
            fe_sim::ProgramFingerprint {
                blocks: 7,
                digest: 7,
            },
            &MachineConfig::table3(),
            &SchemeSpec::shotgun(),
            RunLength::SMOKE,
            seed,
            None,
        )
    }

    fn a_value() -> CellValue {
        CellValue {
            stats: Default::default(),
            sampling: None,
        }
    }

    #[test]
    fn disk_store_round_trips_and_counts() {
        let dir = tmpdir("roundtrip");
        let store = DiskCellStore::open(&dir).unwrap();
        let key = a_key(1);
        assert!(store.get(&key).is_none());
        store.put(&key, &a_value());
        let back = store.get(&key).expect("served from disk");
        assert_eq!(back.to_json().render(), a_value().to_json().render());
        assert_eq!((store.hits(), store.misses(), store.puts()), (1, 1, 1));
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_until_under_budget() {
        use std::time::{Duration, SystemTime};
        let dir = tmpdir("gc");
        let store = DiskCellStore::open(&dir).unwrap();
        for seed in 1..=3 {
            store.put(&a_key(seed), &a_value());
        }
        let cell_bytes = fs::metadata(store.path_of(&a_key(1))).unwrap().len();
        assert_eq!(store.len(), 3);
        assert_eq!(store.gc(u64::MAX), 0, "under budget evicts nothing");

        // Pin distinct mtimes (oldest = seed 1) instead of sleeping.
        // audit-allow(no-wallclock): test pins file mtimes relative to now to force a known LRU order — nothing is asserted against wall-clock time
        let base = SystemTime::now() - Duration::from_secs(600);
        for seed in 1..=3 {
            let f = File::options()
                .write(true)
                .open(store.path_of(&a_key(seed)))
                .unwrap();
            f.set_modified(base + Duration::from_secs(60 * seed))
                .unwrap();
        }
        // A hit refreshes recency: the oldest cell becomes the newest.
        assert!(store.get(&a_key(1)).is_some());

        // Budget for one cell: the two *least recently used* (2, 3 —
        // cell 1 was just touched) must go.
        assert_eq!(store.gc(cell_bytes), 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(&a_key(1)).is_some(), "recently used survives");
        assert!(store.get(&a_key(2)).is_none());
        assert!(store.get(&a_key(3)).is_none());

        // Evicted cells recompute and re-enter cleanly.
        store.put(&a_key(2), &a_value());
        assert_eq!(store.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
