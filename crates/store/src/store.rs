//! The mask store proper: an in-memory LRU with a byte budget, versioned
//! entries, and optional spill-to-disk on eviction.

use std::collections::HashMap;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use ilt_grid::{RealGrid, Rect};
use ilt_telemetry as tele;

use crate::disk;
use crate::key::StoreKey;

/// Default in-memory budget when `ILT_STORE_BUDGET_MB` is unset (or not
/// a positive whole number).
const DEFAULT_BUDGET_MB: NonZeroU64 = NonZeroU64::new(64).unwrap();

fn mask_bytes(mask: &RealGrid) -> u64 {
    (mask.len() * std::mem::size_of::<f64>()) as u64
}

struct Entry {
    mask: RealGrid,
    version: u64,
    bytes: u64,
    /// Recency tick; larger = more recently touched.
    touched: u64,
}

/// Cumulative activity counters, mirrored into the telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub puts: u64,
    pub evictions: u64,
    pub spills: u64,
    pub disk_hits: u64,
    pub bytes: u64,
    pub entries: u64,
}

impl StoreStats {
    /// Fraction of lookups served (memory or disk); 0 when nothing was asked.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One row of the `/debug/store` entry listing.
#[derive(Debug, Clone)]
pub struct EntryView {
    pub digest: u64,
    pub geometry: u64,
    pub config: u64,
    pub method: &'static str,
    pub bytes: u64,
    pub version: u64,
}

struct Inner {
    entries: HashMap<StoreKey, Entry>,
    bytes: u64,
    clock: u64,
    stats: StoreStats,
}

/// Persistent, versioned mask store.
///
/// Lookup order is memory, then (if configured) disk. Evictions under byte
/// pressure pick the least-recently-touched entry; with a spill directory
/// configured the evicted mask is written out first, so it remains
/// retrievable — "persistent" means the budget bounds memory, not knowledge.
pub struct MaskStore {
    inner: Mutex<Inner>,
    budget: u64,
    dir: Option<PathBuf>,
    /// Global singleton publishes gauges/counters; ad-hoc test stores do not,
    /// so tests never fight over process-wide metric state.
    telemetry: bool,
}

impl MaskStore {
    pub fn new(budget_bytes: u64, dir: Option<PathBuf>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bytes: 0,
                clock: 0,
                stats: StoreStats::default(),
            }),
            budget: budget_bytes.max(1),
            dir,
            telemetry: false,
        }
    }

    /// Store configured from the environment: `ILT_STORE_BUDGET_MB` (default
    /// 64; anything but a positive whole number warns and keeps it) and
    /// `ILT_STORE_DIR` (spill disabled when unset). [`MaskStore::enabled`]
    /// reads `ILT_STORE`.
    fn from_env() -> Self {
        let budget_mb = tele::env_or_warn("ILT_STORE_BUDGET_MB", DEFAULT_BUDGET_MB).get();
        let dir = std::env::var("ILT_STORE_DIR")
            .ok()
            .filter(|raw| !raw.trim().is_empty())
            .map(PathBuf::from);
        let mut store = Self::new(budget_mb * 1024 * 1024, dir);
        store.telemetry = true;
        store
    }

    /// Whether `ILT_STORE` leaves the store on: `0`, `off`, `false` or `no`
    /// (any case) turn it off. Read once per process.
    pub fn enabled() -> bool {
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| parse_enabled(std::env::var("ILT_STORE").ok().as_deref()))
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    pub fn spill_dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// Look up a mask. Falls back to the spill directory on a memory miss;
    /// a verified disk hit is re-admitted to memory.
    pub fn get(&self, key: &StoreKey) -> Option<RealGrid> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let tick = inner.clock;
        if let Some(entry) = inner.entries.get_mut(key) {
            entry.touched = tick;
            let mask = entry.mask.clone();
            inner.stats.hits += 1;
            self.count("store.hits", 1);
            self.publish(&inner);
            return Some(mask);
        }
        if let Some(dir) = &self.dir {
            if let Ok(Some((version, mask))) = disk::read_spill(dir, key.digest()) {
                inner.stats.hits += 1;
                inner.stats.disk_hits += 1;
                self.count("store.hits", 1);
                self.count("store.disk_hits", 1);
                let bytes = mask_bytes(&mask);
                inner.entries.insert(
                    *key,
                    Entry {
                        mask: mask.clone(),
                        version,
                        bytes,
                        touched: tick,
                    },
                );
                inner.bytes += bytes;
                self.evict_over_budget(&mut inner, Some(*key));
                self.publish(&inner);
                return Some(mask);
            }
        }
        inner.stats.misses += 1;
        self.count("store.misses", 1);
        self.publish(&inner);
        None
    }

    /// Insert or overwrite a mask. Overwrites bump the entry version.
    pub fn put(&self, key: StoreKey, mask: RealGrid) -> u64 {
        let bytes = mask_bytes(&mask);
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let tick = inner.clock;
        inner.stats.puts += 1;
        self.count("store.puts", 1);
        let version = match inner.entries.remove(&key) {
            Some(old) => {
                inner.bytes -= old.bytes;
                old.version + 1
            }
            None => 1,
        };
        inner.entries.insert(
            key,
            Entry {
                mask,
                version,
                bytes,
                touched: tick,
            },
        );
        inner.bytes += bytes;
        self.evict_over_budget(&mut inner, Some(key));
        self.publish(&inner);
        version
    }

    /// Insert a tile's crop of a full layout: crops `rect` out of `layout`
    /// and stores it under `key`. The streaming flows store tiles straight
    /// from the assembled layout, so only the single tile-sized crop is ever
    /// materialised — never a second full-layout copy.
    ///
    /// # Panics
    ///
    /// Panics if `rect` escapes `layout` (same contract as
    /// [`Grid::crop`](ilt_grid::Grid::crop)).
    pub fn put_crop(&self, key: StoreKey, layout: &RealGrid, rect: Rect) -> u64 {
        self.put(key, layout.crop(rect))
    }

    /// Evict least-recently-touched entries until the budget holds. `keep`
    /// protects the entry just inserted so a single oversized mask is still
    /// usable for the current job (it goes when the next entry arrives).
    fn evict_over_budget(&self, inner: &mut Inner, keep: Option<StoreKey>) {
        while inner.bytes > self.budget && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(key, _)| Some(**key) != keep)
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.bytes -= entry.bytes;
            inner.stats.evictions += 1;
            self.count("store.evictions", 1);
            if let Some(dir) = &self.dir {
                if disk::write_spill(dir, victim.digest(), entry.version, &entry.mask).is_ok() {
                    inner.stats.spills += 1;
                    self.count("store.spills", 1);
                }
            }
        }
    }

    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap();
        let mut stats = inner.stats;
        stats.bytes = inner.bytes;
        stats.entries = inner.entries.len() as u64;
        stats
    }

    /// Resident entries, most recently touched first, capped at `limit`.
    pub fn entries(&self, limit: usize) -> Vec<EntryView> {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<(u64, EntryView)> = inner
            .entries
            .iter()
            .map(|(key, entry)| {
                (
                    entry.touched,
                    EntryView {
                        digest: key.digest(),
                        geometry: key.geometry,
                        config: key.config,
                        method: key.method,
                        bytes: entry.bytes,
                        version: entry.version,
                    },
                )
            })
            .collect();
        rows.sort_by_key(|(touched, _)| std::cmp::Reverse(*touched));
        rows.into_iter().take(limit).map(|(_, view)| view).collect()
    }

    /// Mirror the current occupancy into the telemetry gauges, where
    /// `/metrics` exposes them as `ilt_store_bytes` / `ilt_store_entries`.
    /// Only the shared singleton publishes; ad-hoc test stores stay silent.
    fn publish(&self, inner: &Inner) {
        if !self.telemetry {
            return;
        }
        tele::gauge_set("store.bytes", inner.bytes as f64);
        tele::gauge_set("store.entries", inner.entries.len() as f64);
    }

    /// Bump a telemetry counter (`ilt_store_hits_total`, ... on `/metrics`),
    /// again only from the shared singleton.
    fn count(&self, name: &'static str, delta: u64) {
        if self.telemetry {
            tele::counter_add(name, delta);
        }
    }
}

/// The `ILT_STORE` grammar: `0`, `off`, `false` or `no` turn the store
/// off, `1`, `on`, `true` or `yes` leave it on (case-insensitive,
/// surrounding whitespace ignored); unset it is on, and anything else warns
/// and leaves it on.
fn parse_enabled(raw: Option<&str>) -> bool {
    let Some(raw) = raw else { return true };
    match raw.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" => false,
        "1" | "on" | "true" | "yes" => true,
        _ => tele::warn_invalid("ILT_STORE", raw, true),
    }
}

/// Process-wide shared store, configured once from the environment.
pub fn shared_store() -> &'static MaskStore {
    static STORE: OnceLock<MaskStore> = OnceLock::new();
    STORE.get_or_init(MaskStore::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;

    fn mask(w: usize, h: usize, seed: f64) -> RealGrid {
        Grid::from_fn(w, h, |x, y| seed + x as f64 + 10.0 * y as f64)
    }

    fn key(geometry: u64) -> StoreKey {
        StoreKey::new(geometry, 42, "ours:pixel")
    }

    #[test]
    fn store_switch_grammar_is_trimmed_case_insensitive_and_warns() {
        for off in ["0", "off", "OFF", " 0", "no", "False "] {
            assert!(!parse_enabled(Some(off)), "{off:?} turns the store off");
        }
        for on in ["1", "on", "Yes", " true "] {
            assert!(parse_enabled(Some(on)), "{on:?} leaves the store on");
        }
        assert!(parse_enabled(None));
        // Malformed values warn and keep the default, which is on.
        for bad in ["", "disable", "00"] {
            assert!(parse_enabled(Some(bad)), "{bad:?} falls back to on");
        }
    }

    #[test]
    fn put_crop_stores_exactly_the_tile_slice() {
        let store = MaskStore::new(1 << 20, None);
        let layout = mask(32, 32, 0.25);
        let rect = Rect::new(8, 4, 24, 20);
        store.put_crop(key(7), &layout, rect);
        let got = store.get(&key(7)).expect("hit");
        assert_eq!((got.width(), got.height()), (16, 16));
        assert_eq!(got.as_slice(), layout.crop(rect).as_slice());
        // Only the crop's bytes are accounted, not the full layout's.
        assert_eq!(store.stats().bytes, 16 * 16 * 8);
    }

    #[test]
    fn get_after_put_round_trips() {
        let store = MaskStore::new(1 << 20, None);
        let m = mask(8, 4, 0.5);
        store.put(key(1), m.clone());
        let got = store.get(&key(1)).expect("hit");
        assert_eq!(got.as_slice(), m.as_slice());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 8 * 4 * 8);
    }

    #[test]
    fn miss_on_unknown_key_and_hit_ratio() {
        let store = MaskStore::new(1 << 20, None);
        assert!(store.get(&key(9)).is_none());
        store.put(key(9), mask(4, 4, 0.0));
        assert!(store.get(&key(9)).is_some());
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overwrite_bumps_version() {
        let store = MaskStore::new(1 << 20, None);
        assert_eq!(store.put(key(3), mask(4, 4, 0.0)), 1);
        assert_eq!(store.put(key(3), mask(4, 4, 1.0)), 2);
        assert_eq!(store.stats().entries, 1);
        let got = store.get(&key(3)).unwrap();
        assert!((got.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Budget fits exactly two 4×4 masks (128 bytes each).
        let store = MaskStore::new(256, None);
        store.put(key(1), mask(4, 4, 1.0));
        store.put(key(2), mask(4, 4, 2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get(&key(1)).is_some());
        store.put(key(3), mask(4, 4, 3.0));
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(store.stats().bytes <= 256);
        assert!(store.get(&key(2)).is_none(), "LRU entry should be gone");
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(3)).is_some());
    }

    #[test]
    fn eviction_spills_to_disk_and_get_reloads() {
        let dir = std::env::temp_dir().join(format!("ilt-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = MaskStore::new(256, Some(dir.clone()));
        store.put(key(1), mask(4, 4, 1.0));
        store.put(key(2), mask(4, 4, 2.0));
        store.put(key(3), mask(4, 4, 3.0)); // evicts + spills key(1)
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.spills, 1);
        let reloaded = store.get(&key(1)).expect("disk hit");
        assert!((reloaded.get(0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(store.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_file_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("ilt-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = MaskStore::new(256, Some(dir.clone()));
        store.put(key(1), mask(4, 4, 1.0));
        store.put(key(2), mask(4, 4, 2.0));
        store.put(key(3), mask(4, 4, 3.0)); // spills key(1)
        let path = disk::spill_path(&dir, key(1).digest());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get(&key(1)).is_none(), "corrupt spill must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_view_lists_most_recent_first() {
        let store = MaskStore::new(1 << 20, None);
        store.put(key(1), mask(4, 4, 1.0));
        store.put(key(2), mask(4, 4, 2.0));
        assert!(store.get(&key(1)).is_some());
        let rows = store.entries(10);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].geometry, 1, "touched last, listed first");
        assert_eq!(rows[0].method, "ours:pixel");
        assert_eq!(rows[0].bytes, 128);
    }
}
