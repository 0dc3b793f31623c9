//! Simulation-as-a-service: a warm-pool batch server with a
//! content-addressed result cache.
//!
//! A sweep used to pay full simulator construction — page-table
//! allocation, component building, workload build — for every cell. This
//! module turns that around: a [`BatchServer`] is a result cache keyed by
//! [`CellKey`] in front of one supervised fan-out
//! ([`run_cells_supervised`]). Submitting a batch looks every key up once;
//! the misses are drained by the sweep's workers, and each run checks a
//! [`WarmSlot`] (one reusable [`Gpu`] instance) out of an idle list *by
//! value*, binds its cell onto it via [`Gpu::reset_bind`] instead of
//! building a fresh one, and checks it back in when it returns. A run that
//! finds the list empty starts a fresh slot.
//!
//! A panicking cell drops the slot it holds while unwinding, so the
//! `Gpu`'s drop hook records the crash context (simulated cycle, recent
//! trace events) for its [`CrashReport`](crate::sweep::CrashReport), and
//! the pool never hands out a half-run instance.
//!
//! Cache correctness is a bit-identity contract, not a heuristic: a key
//! incorporates [`GpuConfig::content_hash`] (every artifact-relevant
//! config field) *and* [`GpuConfig::budget_hash`] (the deterministic
//! cut-short knobs), so two cells with equal keys provably produce equal
//! outcomes — pinned by the differential tests in `engine_equivalence`.
//! `Ok` results are always cached, and a typed error is cached if and only
//! if it is deterministic ([`SimError::is_deterministic`]): a cycle cap or
//! a validation failure repeats on every host, a wall-clock deadline or a
//! cancellation does not. Crashes always re-run.
//!
//! The cache is optionally size-bounded ([`BatchServer::with_cache_limit`])
//! with least-recently-used eviction, and its contents can be drained and
//! restored across processes ([`export_cache`](BatchServer::export_cache) /
//! [`preload`](BatchServer::preload)) — the persistence layer in
//! `gpu-serve` rides on that pair.
//!
//! The lookup happens once per batch, before fan-out, so the hit and miss
//! counts are deterministic. A key submitted twice in one batch misses
//! twice and runs twice, with identical results. A caller that wants to
//! answer a hit without forming a batch (the daemon, at admission) probes
//! with [`BatchServer::lookup`] first.

// The result cache is consulted per batch, outside any simulated cycle;
// a keyed store is what it is.
#![allow(clippy::disallowed_types)]

use crate::config::GpuConfig;
use crate::sweep::{run_cells_supervised, CellOutcome};
use crate::{Gpu, SimError};
use gpu_isa::Program;
use gpu_trace::MetricsRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Content address of one sweep cell: everything that determines the
/// outcome a run produces — including the deterministic cut-short knobs,
/// so a cached typed error is as trustworthy as a cached `Ok`.
///
/// * `config_hash` — [`GpuConfig::content_hash`] of the *post-variant*
///   config (after e.g. ideal latencies or coalescing knobs are applied).
/// * `budget_hash` — [`GpuConfig::budget_hash`] of the same config: the
///   deterministic limits (`max_cycles`, watchdog window, cycle/heap
///   caps) that decide *whether* a cell completes or trips a typed error.
///   Splitting this out of `config_hash` keeps the artifact contract
///   intact while making error caching sound: two configs that differ
///   only in `cycle_cap` produce different keys, so a cached
///   `DeadlineExceeded` can never leak to a run that would have finished.
/// * `workload` — the benchmark / program identity.
/// * `seed` — the workload-data generation seed, for harnesses whose data
///   is not fully determined by the workload name.
/// * `variant` — the launch-mode variant label (Flat/CDP/DTBL/...).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Hash of every artifact-relevant config field.
    pub config_hash: u64,
    /// Hash of the deterministic cut-short knobs ([`GpuConfig::budget_hash`]).
    pub budget_hash: u64,
    /// Workload (benchmark) identity.
    pub workload: String,
    /// Workload-data generation seed.
    pub seed: u64,
    /// Variant label.
    pub variant: String,
}

/// One pooled simulator instance. `bind` hands out a [`Gpu`] bound to the
/// requested `(config, program)`: a warm rebind ([`Gpu::reset_bind`]) when
/// the slot already holds an instance, a cold build the first time.
///
/// Rebinding reinitializes every mutable field, so whatever the previous
/// run left behind never reaches the next one.
#[derive(Debug, Default)]
pub struct WarmSlot {
    gpu: Option<Box<Gpu>>,
    warm_binds: u64,
    cold_builds: u64,
}

impl WarmSlot {
    /// An empty slot; the first `bind` pays the cold build.
    pub fn new() -> Self {
        WarmSlot::default()
    }

    /// Binds the slot's instance to `(cfg, program)` and returns it ready
    /// to run, reusing the pooled instance when one exists.
    pub fn bind(&mut self, cfg: GpuConfig, program: Program) -> &mut Gpu {
        match self.gpu {
            Some(ref mut gpu) => {
                gpu.reset_bind(cfg, program);
                self.warm_binds += 1;
            }
            None => {
                self.gpu = Some(Box::new(Gpu::new(cfg, program)));
                self.cold_builds += 1;
            }
        }
        self.gpu.as_mut().expect("slot bound above")
    }

    /// Warm rebinds served by this slot.
    pub fn warm_binds(&self) -> u64 {
        self.warm_binds
    }

    /// Cold builds paid by this slot (at most 1).
    pub fn cold_builds(&self) -> u64 {
        self.cold_builds
    }
}

/// One cached outcome plus the recency stamp LRU eviction sorts by.
#[derive(Debug)]
struct CacheEntry<T> {
    value: Result<T, SimError>,
    last_used: u64,
}

/// The keyed result store behind one mutex: entries plus the logical
/// clock that stamps every hit and insert.
#[derive(Debug)]
struct CacheState<T> {
    entries: HashMap<CellKey, CacheEntry<T>>,
    tick: u64,
}

impl<T> CacheState<T> {
    fn new() -> Self {
        CacheState {
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Looks up `key`, bumping its recency stamp on a hit.
    fn touch(&mut self, key: &CellKey) -> Option<&Result<T, SimError>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    fn insert(&mut self, key: CellKey, value: Result<T, SimError>) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(
            key,
            CacheEntry {
                value,
                last_used: tick,
            },
        );
    }

    /// Evicts least-recently-used entries until at most `limit` remain;
    /// returns how many were dropped.
    fn evict_to(&mut self, limit: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > limit {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > limit >= 0 implies non-empty");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Locks `m`, recovering the data if a panicking thread poisoned it: every
/// critical section in this module leaves its data consistent.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Warm-pool batch server: submit batches of cells, get supervised
/// outcomes back, with repeated cells served from the result cache.
///
/// Generic over the result type `T` so the crate stays independent of any
/// particular report shape — the bench layer instantiates it with its
/// `RunReport`. A cell fails with a [`SimError`]. `T: Clone` is required
/// to serve a cached outcome while keeping it cached.
#[derive(Debug)]
pub struct BatchServer<T> {
    jobs: usize,
    retries: u32,
    /// Slots no run has checked out, most recently returned last.
    idle: Mutex<Vec<WarmSlot>>,
    cache: Mutex<CacheState<T>>,
    cache_limit: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warm_binds: AtomicU64,
    cold_builds: AtomicU64,
}

impl<T: Clone + Send> BatchServer<T> {
    /// A server with `jobs` pool workers and `retries` supervised
    /// re-attempts for panicking cells. `jobs == 0` selects the machine's
    /// available parallelism. The cache starts unbounded; see
    /// [`with_cache_limit`](Self::with_cache_limit).
    pub fn new(jobs: usize, retries: u32) -> Self {
        let jobs = if jobs == 0 {
            crate::sweep::default_jobs()
        } else {
            jobs
        };
        BatchServer {
            jobs,
            retries,
            idle: Mutex::new(Vec::new()),
            cache: Mutex::new(CacheState::new()),
            cache_limit: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_binds: AtomicU64::new(0),
            cold_builds: AtomicU64::new(0),
        }
    }

    /// Bounds the cache to `limit` entries with least-recently-used
    /// eviction (each evicted entry bumps
    /// [`cache_evictions`](Self::cache_evictions)). Unbounded by default.
    pub fn with_cache_limit(mut self, limit: usize) -> Self {
        self.cache_limit = Some(limit);
        self
    }

    /// Width of the worker pool.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one batch of cells and returns `(cell, outcome)` in input
    /// order.
    ///
    /// `key_of` gives each cell its content address (`None` = uncacheable,
    /// always executed). Every key is looked up once, before anything
    /// runs: a cached `Ok` is served as [`CellOutcome::Ok`], a memoized
    /// deterministic error as [`CellOutcome::Err`]. `run` executes each
    /// other cell on a checked-out [`WarmSlot`]; it is called under the
    /// supervised sweep machinery, so a panicking cell becomes
    /// [`CellOutcome::Crashed`] (its report naming the cell's index in
    /// `cells`) instead of taking the batch down. Each keyed `Ok` and each
    /// deterministic error ([`SimError::is_deterministic`]) is then cached.
    /// A host-dependent error or a crash never is: replaying it would pass
    /// a transient off as the cell's answer.
    pub fn run_batch<C, F>(
        &self,
        cells: Vec<C>,
        key_of: impl Fn(&C) -> Option<CellKey>,
        run: F,
    ) -> Vec<(C, CellOutcome<T, SimError>)>
    where
        C: Send + Sync,
        F: Fn(&C, &mut WarmSlot) -> Result<T, SimError> + Sync,
    {
        let keys: Vec<Option<CellKey>> = cells.iter().map(&key_of).collect();
        let mut outcomes: Vec<Option<CellOutcome<T, SimError>>> = Vec::with_capacity(cells.len());
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut cache = lock(&self.cache);
            for (i, key) in keys.iter().enumerate() {
                let cached = key.as_ref().and_then(|k| cache.touch(k));
                match cached {
                    Some(Ok(v)) => outcomes.push(Some(CellOutcome::Ok(v.clone()))),
                    Some(Err(e)) => outcomes.push(Some(CellOutcome::Err(e.clone()))),
                    None => {
                        outcomes.push(None);
                        misses.push(i);
                    }
                }
            }
        }
        self.hits
            .fetch_add((cells.len() - misses.len()) as u64, Ordering::Relaxed);
        self.misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);

        let ran = run_cells_supervised(misses, self.jobs, self.retries, |&i: &usize| {
            let mut slot = self.checkout();
            let result = run(&cells[i], &mut slot);
            self.check_in(slot);
            result
        });
        let mut fresh = Vec::new();
        for (i, mut outcome) in ran {
            let memo = match &mut outcome {
                CellOutcome::Ok(result) => Some(Ok(result.clone())),
                CellOutcome::Err(e) if e.is_deterministic() => Some(Err(e.clone())),
                CellOutcome::Err(_) => None,
                // The sweep numbered the misses; report the batch index.
                CellOutcome::Crashed(crash) => {
                    crash.cell = i;
                    None
                }
            };
            if let (Some(key), Some(value)) = (&keys[i], memo) {
                fresh.push((key.clone(), value));
            }
            outcomes[i] = Some(outcome);
        }
        self.insert_all(fresh);

        cells
            .into_iter()
            .zip(outcomes)
            .map(|(c, o)| (c, o.expect("every cell resolved")))
            .collect()
    }

    /// Probes the cache for `key` without running anything: a cached `Ok`
    /// or memoized deterministic error is returned (bumping its recency
    /// and counting a hit), and `None` counts nothing. A caller that runs
    /// the cell after a `None` does so through [`run_batch`](Self::run_batch),
    /// which counts the miss, so every cell is still counted exactly once.
    pub fn lookup(&self, key: &CellKey) -> Option<Result<T, SimError>> {
        let hit = lock(&self.cache).touch(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Takes an idle slot, or a fresh one when every slot is checked out.
    fn checkout(&self) -> WarmSlot {
        lock(&self.idle).pop().unwrap_or_default()
    }

    /// Returns a slot to the idle list, folding its bind counts into the
    /// server's. A slot whose run panicked never comes back: it is dropped
    /// during the unwind, its last bind uncounted.
    fn check_in(&self, mut slot: WarmSlot) {
        self.warm_binds
            .fetch_add(std::mem::take(&mut slot.warm_binds), Ordering::Relaxed);
        self.cold_builds
            .fetch_add(std::mem::take(&mut slot.cold_builds), Ordering::Relaxed);
        lock(&self.idle).push(slot);
    }

    /// Inserts entries in order, then enforces the LRU bound.
    fn insert_all(&self, entries: Vec<(CellKey, Result<T, SimError>)>) {
        let mut cache = lock(&self.cache);
        for (key, value) in entries {
            cache.insert(key, value);
        }
        if let Some(limit) = self.cache_limit {
            let evicted = cache.evict_to(limit);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drains a snapshot of the cache in least-recently-used-first order,
    /// so replaying it through [`preload`](Self::preload) reconstructs the
    /// same eviction priority. The live cache is untouched.
    pub fn export_cache(&self) -> Vec<(CellKey, Result<T, SimError>)> {
        let cache = lock(&self.cache);
        let mut entries: Vec<(&CellKey, &CacheEntry<T>)> = cache.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Seeds the cache with previously-exported entries (oldest first),
    /// enforcing the LRU bound after the load. Counters are untouched —
    /// preloaded entries count as neither hits nor misses until used.
    pub fn preload(&self, entries: Vec<(CellKey, Result<T, SimError>)>) {
        self.insert_all(entries);
    }

    /// Cells served from the cache so far (including memoized
    /// deterministic errors).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells actually executed so far.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by LRU eviction so far.
    pub fn cache_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct outcomes currently cached.
    pub fn cached_results(&self) -> usize {
        lock(&self.cache).entries.len()
    }

    /// Drops every cached outcome (the counters keep their totals).
    pub fn clear_cache(&self) {
        lock(&self.cache).entries.clear();
    }

    /// Warm rebinds by runs that returned their slot.
    pub fn warm_binds(&self) -> u64 {
        self.warm_binds.load(Ordering::Relaxed)
    }

    /// Cold simulator builds by runs that returned their slot.
    pub fn cold_builds(&self) -> u64 {
        self.cold_builds.load(Ordering::Relaxed)
    }

    /// Snapshot of the server counters as a metrics registry:
    /// `server.cache_hits`, `server.cache_misses`, `server.cache_evictions`,
    /// `server.warm_binds`, `server.cold_builds` counters plus a
    /// `server.cached_results` gauge.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("server.cache_hits", self.cache_hits());
        reg.inc("server.cache_misses", self.cache_misses());
        reg.inc("server.cache_evictions", self.cache_evictions());
        reg.inc("server.warm_binds", self.warm_binds());
        reg.inc("server.cold_builds", self.cold_builds());
        reg.set_gauge("server.cached_results", self.cached_results() as f64);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};

    fn key(name: &str) -> CellKey {
        CellKey {
            config_hash: 0xfeed,
            budget_hash: 0xcafe,
            workload: name.to_string(),
            seed: 0,
            variant: "flat".to_string(),
        }
    }

    /// A deterministic failure: the same cell hits the same cap anywhere.
    fn cycle_limit() -> SimError {
        SimError::CycleLimit { cycles: 7 }
    }

    /// A host-dependent failure: operator action, never the cell's answer.
    fn cancelled() -> SimError {
        SimError::Cancelled {
            cycle: 3,
            stats: Box::default(),
        }
    }

    fn is_cycle_limit(o: &CellOutcome<u64, SimError>) -> bool {
        matches!(o, CellOutcome::Err(SimError::CycleLimit { cycles: 7 }))
    }

    #[test]
    fn duplicates_each_run_once_and_a_repeat_batch_is_all_hits() {
        let server: BatchServer<u64> = BatchServer::new(4, 0);
        // 4 unique keys, each submitted twice: every copy misses and runs.
        let cells: Vec<u32> = (0..8).collect();
        let out = server.run_batch(
            cells,
            |c| Some(key(&format!("w{}", c % 4))),
            |c, _slot| Ok(u64::from(c % 4) * 10),
        );
        assert_eq!(out.len(), 8);
        for (c, o) in &out {
            match o {
                CellOutcome::Ok(v) => assert_eq!(*v, u64::from(c % 4) * 10),
                other => panic!("cell {c}: {other:?}"),
            }
        }
        assert_eq!(server.cache_hits(), 0, "the lookup precedes the fan-out");
        assert_eq!(server.cache_misses(), 8, "each duplicate runs once");
        assert_eq!(server.cached_results(), 4);

        // A repeat batch is served entirely from cache.
        let out2 = server.run_batch(
            (0..8).collect(),
            |c| Some(key(&format!("w{}", c % 4))),
            |_, _| -> Result<u64, SimError> { panic!("must not execute") },
        );
        assert_eq!(out2.len(), 8);
        assert_eq!(server.cache_hits(), 8);
        assert_eq!(server.cache_misses(), 8);
    }

    #[test]
    fn errors_are_memoized_iff_deterministic() {
        let server: BatchServer<u64> = BatchServer::new(2, 0);
        let out = server.run_batch(
            vec![0u32],
            |_| Some(key("det")),
            |_, _| Err::<u64, _>(cycle_limit()),
        );
        assert!(is_cycle_limit(&out[0].1));
        assert_eq!(server.cached_results(), 1, "deterministic error cached");

        // The next batch is served the same error without running.
        let out = server.run_batch(
            vec![1u32],
            |_| Some(key("det")),
            |_, _| -> Result<u64, SimError> { panic!("must not execute") },
        );
        assert!(is_cycle_limit(&out[0].1));
        assert_eq!((server.cache_misses(), server.cache_hits()), (1, 1));

        // The resubmission is served from cache, not re-executed.
        let out = server.run_batch(
            vec![2u32],
            |_| Some(key("det")),
            |_, _| -> Result<u64, SimError> { panic!("must not execute") },
        );
        assert!(is_cycle_limit(&out[0].1));
        assert_eq!(server.cache_hits(), 2);

        // A host-dependent error re-runs every time.
        for expected_misses in [2, 3] {
            let out = server.run_batch(
                vec![3u32],
                |_| Some(key("transient")),
                |_, _| Err::<u64, _>(cancelled()),
            );
            assert!(matches!(
                out[0].1,
                CellOutcome::Err(SimError::Cancelled { .. })
            ));
            assert_eq!(server.cache_misses(), expected_misses);
        }
        assert_eq!(server.cached_results(), 1, "transient error never cached");
    }

    #[test]
    fn lru_eviction_respects_limit_and_recency() {
        let server: BatchServer<u64> = BatchServer::new(1, 0).with_cache_limit(2);
        for (name, v) in [("a", 1u64), ("b", 2)] {
            let _ = server.run_batch(vec![0u32], |_| Some(key(name)), |_, _| Ok(v));
        }
        // Touch "a" so "b" is now the least recently used…
        let _ = server.run_batch(
            vec![0u32],
            |_| Some(key("a")),
            |_, _| -> Result<u64, SimError> { panic!("cached") },
        );
        // …then a third key must evict "b", not "a".
        let _ = server.run_batch(vec![0u32], |_| Some(key("c")), |_, _| Ok(3));
        assert_eq!(server.cached_results(), 2);
        assert_eq!(server.cache_evictions(), 1);
        let cached: Vec<String> = server
            .export_cache()
            .into_iter()
            .map(|(k, _)| k.workload)
            .collect();
        assert!(cached.contains(&"a".to_string()), "recently-used survives");
        assert!(cached.contains(&"c".to_string()));
        assert!(!cached.contains(&"b".to_string()), "LRU entry evicted");
    }

    #[test]
    fn export_preload_round_trip_preserves_recency() {
        let server: BatchServer<u64> = BatchServer::new(1, 0);
        for (name, out) in [
            ("old", Ok(1u64)),
            ("err", Err(cycle_limit())),
            ("hot", Ok(3)),
        ] {
            let _ = server.run_batch(vec![0u32], |_| Some(key(name)), |_, _| out.clone());
        }
        let exported = server.export_cache();
        assert_eq!(exported.len(), 3);
        assert_eq!(exported[0].0.workload, "old", "LRU-first order");
        assert_eq!(exported[2].0.workload, "hot");

        // A bounded restored server keeps the most recent entries.
        let restored: BatchServer<u64> = BatchServer::new(1, 0).with_cache_limit(2);
        restored.preload(exported);
        assert_eq!(restored.cached_results(), 2);
        assert_eq!(restored.cache_evictions(), 1);
        let out = restored.run_batch(
            vec![0u32],
            |_| Some(key("hot")),
            |_, _| -> Result<u64, SimError> { panic!("preloaded") },
        );
        assert!(matches!(out[0].1, CellOutcome::Ok(3)));
        let out = restored.run_batch(
            vec![0u32],
            |_| Some(key("err")),
            |_, _| -> Result<u64, SimError> { panic!("preloaded") },
        );
        assert!(is_cycle_limit(&out[0].1));
        assert_eq!(restored.cache_hits(), 2);
    }

    /// A probe counts hits only, so probe-then-run counts each cell once,
    /// and a probed entry is as recent as a served one.
    #[test]
    fn lookup_counts_hits_only_and_refreshes_recency() {
        let server: BatchServer<u64> = BatchServer::new(1, 0).with_cache_limit(2);
        assert!(server.lookup(&key("a")).is_none());
        assert_eq!((server.cache_hits(), server.cache_misses()), (0, 0));
        for (name, out) in [("a", Ok(1u64)), ("b", Err(cycle_limit()))] {
            let _ = server.run_batch(vec![0u32], |_| Some(key(name)), |_, _| out.clone());
        }
        assert_eq!((server.cache_hits(), server.cache_misses()), (0, 2));

        assert!(matches!(
            server.lookup(&key("b")),
            Some(Err(SimError::CycleLimit { cycles: 7 }))
        ));
        assert!(matches!(server.lookup(&key("a")), Some(Ok(1))));
        assert_eq!((server.cache_hits(), server.cache_misses()), (2, 2));

        // "a" was inserted first but probed last, so a third key evicts "b".
        let _ = server.run_batch(vec![0u32], |_| Some(key("c")), |_, _| Ok(3));
        assert!(server.lookup(&key("b")).is_none(), "LRU entry evicted");
        assert!(server.lookup(&key("a")).is_some(), "probed entry survives");
        assert_eq!((server.cache_hits(), server.cache_misses()), (3, 3));
    }

    #[test]
    fn keyless_cells_always_execute() {
        let server: BatchServer<u64> = BatchServer::new(1, 0);
        for _ in 0..2 {
            let out = server.run_batch(vec![7u32], |_| None, |c, _| Ok(u64::from(*c)));
            assert!(matches!(out[0].1, CellOutcome::Ok(7)));
        }
        assert_eq!(server.cache_hits(), 0);
        assert_eq!(server.cache_misses(), 2);
        assert_eq!(server.cached_results(), 0);
    }

    #[test]
    fn crashed_cells_surface_and_are_not_cached() {
        let server: BatchServer<u64> = BatchServer::new(2, 0);
        let out = server.run_batch(
            vec![0u32],
            |_| Some(key("boom")),
            |_, _| -> Result<u64, SimError> { panic!("cell panic") },
        );
        assert!(out[0].1.is_crashed());
        assert_eq!(server.cached_results(), 0);
        // The crashed run's slot is gone; the next batch starts a fresh one.
        let out = server.run_batch(vec![1u32], |_| Some(key("fine")), |_, _| Ok(1));
        assert!(matches!(out[0].1, CellOutcome::Ok(1)));
    }

    #[test]
    fn crash_report_names_the_batch_index() {
        let server: BatchServer<u64> = BatchServer::new(1, 0);
        let _ = server.run_batch(vec![0u32], |_| Some(key("cached")), |_, _| Ok(1));
        let names = ["cached", "boom"];
        let out = server.run_batch(
            vec![0usize, 1],
            |&c| Some(key(names[c])),
            |_, _| -> Result<u64, SimError> { panic!("cell panic") },
        );
        assert!(matches!(out[0].1, CellOutcome::Ok(1)));
        let CellOutcome::Crashed(report) = &out[1].1 else {
            panic!("expected a crash report, got {:?}", out[1].1);
        };
        assert_eq!(report.cell, 1, "the index in the batch, not among misses");
    }

    /// out[i] = i over two thread blocks — the doc-example program.
    fn iota_program() -> (Program, gpu_isa::KernelId) {
        let mut prog = Program::new();
        let mut b = KernelBuilder::new("iota", Dim3::x(32), 1);
        let gtid = b.global_tid();
        let base = b.ld_param(0);
        let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
        b.st(Space::Global, addr, 0, Op::Reg(gtid));
        let k = prog.add(b.build().expect("valid kernel"));
        (prog, k)
    }

    fn run_iota(gpu: &mut Gpu, k: gpu_isa::KernelId) -> (crate::Stats, Vec<u32>) {
        let out = gpu.malloc(64 * 4).expect("heap");
        gpu.launch(k, 2, &[out], 0).expect("launch");
        gpu.run_to_idle().expect("run");
        (gpu.stats().clone(), gpu.mem().read_vec_u32(out, 64))
    }

    #[test]
    fn warm_rebind_is_bit_identical_to_cold_build() {
        let (prog, k) = iota_program();
        let cfg = GpuConfig::test_small();

        let mut fresh = Gpu::new(cfg.clone(), prog.clone());
        let (cold_stats, cold_mem) = run_iota(&mut fresh, k);

        let mut slot = WarmSlot::new();
        {
            let gpu = slot.bind(cfg.clone(), prog.clone());
            let _ = run_iota(gpu, k);
        }
        let gpu = slot.bind(cfg.clone(), prog.clone());
        assert!(
            gpu.program().shares_kernels(&prog),
            "rebind reuses the built kernels, no rebuild"
        );
        let (warm_stats, warm_mem) = run_iota(gpu, k);

        assert_eq!(cold_stats, warm_stats, "stats bit-identical after rebind");
        assert_eq!(cold_mem, warm_mem);
        assert_eq!(slot.cold_builds(), 1);
        assert_eq!(slot.warm_binds(), 1);
    }

    /// A cell that panics on its pooled instance drops the slot while
    /// unwinding, so the `Gpu` drop hook stashes the crash context.
    #[test]
    fn pooled_crash_keeps_its_context() {
        let (prog, k) = iota_program();
        let mut cfg = GpuConfig::test_small();
        cfg.trace = gpu_trace::TraceConfig::all();
        let server: BatchServer<u64> = BatchServer::new(1, 0);
        let out = server.run_batch(
            vec![0u32],
            |_| Some(key("traced")),
            |_, slot| -> Result<u64, SimError> {
                let _ = run_iota(slot.bind(cfg.clone(), prog.clone()), k);
                panic!("crash after a traced run");
            },
        );
        let CellOutcome::Crashed(report) = &out[0].1 else {
            panic!("expected a crash report, got {:?}", out[0].1);
        };
        assert_eq!(report.payload, "crash after a traced run");
        assert!(report.cycle.is_some(), "the pooled Gpu's drop hook ran");
        assert!(
            !report.recent_events.is_empty(),
            "the recorder's ring came along"
        );

        // The next run builds a fresh instance, and only its bind counts.
        let out = server.run_batch(
            vec![1u32],
            |_| Some(key("after")),
            |_, slot| Ok(run_iota(slot.bind(cfg.clone(), prog.clone()), k).0.cycles),
        );
        assert!(matches!(out[0].1, CellOutcome::Ok(_)));
        assert_eq!((server.cold_builds(), server.warm_binds()), (1, 0));
    }

    #[test]
    fn metrics_snapshot_matches_counters() {
        let server: BatchServer<u64> = BatchServer::new(2, 0);
        for _ in 0..2 {
            let _ = server.run_batch(vec![0u32], |_| Some(key("m")), |_, _| Ok(9));
        }
        let reg = server.metrics();
        assert_eq!(reg.counter("server.cache_hits"), 1);
        assert_eq!(reg.counter("server.cache_misses"), 1);
        assert_eq!(reg.counter("server.cache_evictions"), 0);
        assert_eq!(reg.gauge("server.cached_results"), Some(1.0));
    }
}
