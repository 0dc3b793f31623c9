//! Simulation-as-a-service: a warm-pool batch server with a
//! content-addressed result cache.
//!
//! A sweep used to pay full simulator construction — page-table
//! allocation, component building, workload decode — for every cell. This
//! module turns that around: a [`BatchServer`] owns a pool of
//! [`WarmSlot`]s (each holding one reusable [`Gpu`] instance) and a result
//! cache keyed by [`CellKey`]. Submitting a batch drains the cells through
//! the supervised sweep machinery ([`run_cells_supervised`]) — the shared
//! work-stealing cursor *is* the submission queue, and the pool workers
//! are the drain — while each worker binds its cell onto a pooled
//! instance via [`Gpu::reset_bind`] instead of building a fresh one.
//!
//! Cache correctness is a bit-identity contract, not a heuristic: a key
//! incorporates [`GpuConfig::content_hash`] (every artifact-relevant
//! config field) *and* [`GpuConfig::budget_hash`] (the deterministic
//! cut-short knobs), so two cells with equal keys provably produce equal
//! outcomes — pinned by the differential tests in `engine_equivalence`.
//! `Ok` results are always cached; typed errors are cached only when an
//! [error-cache predicate](BatchServer::with_error_cache) declares them
//! deterministic (see [`SimError::is_deterministic`](crate::SimError::is_deterministic)).
//! Crashes always re-run.
//!
//! The cache is optionally size-bounded ([`BatchServer::with_cache_limit`])
//! with least-recently-used eviction, and its contents can be drained and
//! restored across processes ([`export_cache`](BatchServer::export_cache) /
//! [`preload`](BatchServer::preload)) — the persistence layer in
//! `gpu-serve` rides on that pair.
//!
//! Duplicate keys *within* one batch are deduplicated before fan-out
//! (one leader runs, followers clone its cached result), so the hit rate
//! on a batch with duplicates is deterministic rather than a race.

// The result cache and leader election run per batch, outside any
// simulated cycle; a keyed store is what they are.
#![allow(clippy::disallowed_types)]

use crate::config::GpuConfig;
use crate::sweep::{run_cells_supervised, CellOutcome};
use crate::Gpu;
use gpu_isa::Program;
use gpu_trace::MetricsRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

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
/// Rebinding reinitializes every mutable field, so a slot whose previous
/// run panicked (and abandoned the instance mid-cycle) is safe to reuse.
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

    /// Cold builds paid by this slot (at most 1 unless the pool shrank).
    pub fn cold_builds(&self) -> u64 {
        self.cold_builds
    }
}

/// One cached outcome plus the recency stamp LRU eviction sorts by.
#[derive(Debug)]
struct CacheEntry<T, E> {
    value: Result<T, E>,
    last_used: u64,
}

/// The keyed result store behind one mutex: entries plus the logical
/// clock that stamps every hit and insert.
#[derive(Debug)]
struct CacheState<T, E> {
    entries: HashMap<CellKey, CacheEntry<T, E>>,
    tick: u64,
}

impl<T, E> CacheState<T, E> {
    fn new() -> Self {
        CacheState {
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Looks up `key`, bumping its recency stamp on a hit.
    fn touch(&mut self, key: &CellKey) -> Option<&Result<T, E>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    fn insert(&mut self, key: CellKey, value: Result<T, E>) {
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

/// Warm-pool batch server: submit batches of cells, get supervised
/// outcomes back, with repeated cells served from the result cache.
///
/// Generic over the result type `T` and the error type `E` (defaulting to
/// [`SimError`](crate::SimError)) so the crate stays independent of any
/// particular report shape — the bench layer instantiates it with its
/// `RunReport`. `T: Clone` and `E: Clone` are required to serve a cached
/// outcome while keeping it cached.
#[derive(Debug)]
pub struct BatchServer<T, E = crate::SimError> {
    jobs: usize,
    retries: u32,
    slots: Vec<Mutex<WarmSlot>>,
    cache: Mutex<CacheState<T, E>>,
    cache_limit: Option<usize>,
    cache_errors: Option<fn(&E) -> bool>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    slot_contention: AtomicU64,
}

impl<T: Clone + Send, E: Clone + Send> BatchServer<T, E> {
    /// A server with `jobs` pool workers (and warm slots) and `retries`
    /// supervised re-attempts for panicking cells. `jobs == 0` selects the
    /// machine's available parallelism. The cache starts unbounded and
    /// caches only `Ok` results; see [`with_cache_limit`](Self::with_cache_limit)
    /// and [`with_error_cache`](Self::with_error_cache).
    pub fn new(jobs: usize, retries: u32) -> Self {
        let jobs = if jobs == 0 {
            crate::sweep::default_jobs()
        } else {
            jobs
        };
        BatchServer {
            jobs,
            retries,
            slots: (0..jobs).map(|_| Mutex::new(WarmSlot::new())).collect(),
            cache: Mutex::new(CacheState::new()),
            cache_limit: None,
            cache_errors: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            slot_contention: AtomicU64::new(0),
        }
    }

    /// Bounds the cache to `limit` entries with least-recently-used
    /// eviction (each evicted entry bumps
    /// [`cache_evictions`](Self::cache_evictions)). Unbounded by default.
    pub fn with_cache_limit(mut self, limit: usize) -> Self {
        self.cache_limit = Some(limit);
        self
    }

    /// Enables memoizing typed errors for which `pred` returns true.
    /// Pass a determinism check (e.g.
    /// [`SimError::is_deterministic`](crate::SimError::is_deterministic)):
    /// a cached error must be a pure function of the cell or the cache
    /// would replay a host-dependent transient as if it were truth.
    /// Disabled by default — only `Ok` results are cached.
    pub fn with_error_cache(mut self, pred: fn(&E) -> bool) -> Self {
        self.cache_errors = Some(pred);
        self
    }

    /// Width of the worker/slot pool.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Claims a free warm slot. With as many slots as workers a slot is
    /// always available up to a transient race, so contention is rare —
    /// but under a daemon's sustained load "rare" still adds up, so a
    /// fully-locked pool parks the thread with bounded exponential
    /// backoff (1 µs doubling to a 1 ms cap) instead of spinning, and
    /// each full-pool miss bumps [`slot_contention`](Self::slot_contention).
    /// A slot poisoned by a panicking run is recovered whole (the next
    /// `bind` reinitializes the instance anyway).
    fn acquire_slot(&self) -> MutexGuard<'_, WarmSlot> {
        let mut backoff_us: u64 = 1;
        loop {
            for slot in &self.slots {
                match slot.try_lock() {
                    Ok(guard) => return guard,
                    Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                    Err(TryLockError::WouldBlock) => {}
                }
            }
            self.slot_contention.fetch_add(1, Ordering::Relaxed);
            // park_timeout may wake spuriously; the loop re-scans either way.
            std::thread::park_timeout(Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(1024);
        }
    }

    /// Runs one batch of cells and returns `(cell, outcome)` in input
    /// order.
    ///
    /// `key_of` gives each cell its content address (`None` = uncacheable,
    /// always executed). Cells whose key is already cached are served
    /// without running — an `Ok` as [`CellOutcome::Ok`], a memoized
    /// deterministic error as [`CellOutcome::Err`]; duplicate keys within
    /// the batch elect one leader per key and the followers clone the
    /// leader's cached outcome. `run` executes one cell on a claimed
    /// [`WarmSlot`]; it is called under the supervised sweep machinery, so
    /// a panicking cell becomes [`CellOutcome::Crashed`] instead of taking
    /// the batch down.
    pub fn run_batch<C, F>(
        &self,
        cells: Vec<C>,
        key_of: impl Fn(&C) -> Option<CellKey>,
        run: F,
    ) -> Vec<(C, CellOutcome<T, E>)>
    where
        C: Send + Sync,
        F: Fn(&C, &mut WarmSlot) -> Result<T, E> + Sync,
    {
        let keys: Vec<Option<CellKey>> = cells.iter().map(&key_of).collect();
        let mut outcomes: Vec<Option<CellOutcome<T, E>>> = (0..cells.len()).map(|_| None).collect();

        // Phase 1: serve keys cached by earlier batches, and elect one
        // leader per fresh key so duplicates within this batch run once.
        let mut leaders: Vec<usize> = Vec::new();
        let mut followers: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            let mut elected: HashMap<&CellKey, usize> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                match key {
                    Some(k) => {
                        if let Some(cached) = cache.touch(k) {
                            outcomes[i] = Some(Self::outcome_of(cached));
                            self.hits.fetch_add(1, Ordering::Relaxed);
                        } else if elected.contains_key(k) {
                            followers.push(i);
                        } else {
                            elected.insert(k, i);
                            leaders.push(i);
                        }
                    }
                    None => leaders.push(i),
                }
            }
        }

        // Phase 2: drain the leaders through the supervised worker pool.
        self.execute(&cells, &keys, leaders, &mut outcomes, &run);

        // Phase 3: followers clone their leader's now-cached outcome;
        // those whose leader left no cache entry (crash, or an error the
        // predicate rejects) re-run.
        let mut orphaned: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            for i in followers {
                let key = keys[i].as_ref().expect("followers are keyed");
                match cache.touch(key) {
                    Some(cached) => {
                        outcomes[i] = Some(Self::outcome_of(cached));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    None => orphaned.push(i),
                }
            }
        }
        self.execute(&cells, &keys, orphaned, &mut outcomes, &run);

        cells
            .into_iter()
            .zip(outcomes)
            .map(|(c, o)| (c, o.expect("every cell resolved")))
            .collect()
    }

    fn outcome_of(cached: &Result<T, E>) -> CellOutcome<T, E> {
        match cached {
            Ok(v) => CellOutcome::Ok(v.clone()),
            Err(e) => CellOutcome::Err(e.clone()),
        }
    }

    /// Runs the cells at `indices` on the warm pool, caching cacheable
    /// outcomes under their key and writing outcomes back in place.
    fn execute<C, F>(
        &self,
        cells: &[C],
        keys: &[Option<CellKey>],
        indices: Vec<usize>,
        outcomes: &mut [Option<CellOutcome<T, E>>],
        run: &F,
    ) where
        C: Send + Sync,
        F: Fn(&C, &mut WarmSlot) -> Result<T, E> + Sync,
    {
        if indices.is_empty() {
            return;
        }
        self.misses
            .fetch_add(indices.len() as u64, Ordering::Relaxed);
        let (ran, _) = run_cells_supervised(indices, self.jobs, self.retries, |&i: &usize| {
            let mut slot = self.acquire_slot();
            run(&cells[i], &mut slot)
        });
        for (i, outcome) in ran {
            if let Some(key) = &keys[i] {
                let cacheable = match &outcome {
                    CellOutcome::Ok(result) => Some(Ok(result.clone())),
                    CellOutcome::Err(e) => match self.cache_errors {
                        Some(pred) if pred(e) => Some(Err(e.clone())),
                        _ => None,
                    },
                    CellOutcome::Crashed(_) => None,
                };
                if let Some(value) = cacheable {
                    self.store(key.clone(), value);
                }
            }
            outcomes[i] = Some(outcome);
        }
    }

    /// Inserts one entry, enforcing the LRU bound.
    fn store(&self, key: CellKey, value: Result<T, E>) {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        cache.insert(key, value);
        if let Some(limit) = self.cache_limit {
            let evicted = cache.evict_to(limit);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Drains a snapshot of the cache in least-recently-used-first order,
    /// so replaying it through [`preload`](Self::preload) reconstructs the
    /// same eviction priority. The live cache is untouched.
    pub fn export_cache(&self) -> Vec<(CellKey, Result<T, E>)> {
        let cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        let mut entries: Vec<(&CellKey, &CacheEntry<T, E>)> = cache.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Seeds the cache with previously-exported entries (oldest first),
    /// enforcing the LRU bound after the load. Counters are untouched —
    /// preloaded entries count as neither hits nor misses until used.
    pub fn preload(&self, entries: Vec<(CellKey, Result<T, E>)>) {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        for (key, value) in entries {
            cache.insert(key, value);
        }
        if let Some(limit) = self.cache_limit {
            let evicted = cache.evict_to(limit);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Cells served from the cache so far (including intra-batch
    /// followers and memoized deterministic errors).
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

    /// Full-pool scans that found every slot busy and parked.
    pub fn slot_contention(&self) -> u64 {
        self.slot_contention.load(Ordering::Relaxed)
    }

    /// Number of distinct outcomes currently cached.
    pub fn cached_results(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entries
            .len()
    }

    /// Drops every cached outcome (the counters keep their totals).
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        cache.entries.clear();
    }

    /// Warm rebinds across the slot pool.
    pub fn warm_binds(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).warm_binds())
            .sum()
    }

    /// Cold simulator builds across the slot pool.
    pub fn cold_builds(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).cold_builds())
            .sum()
    }

    /// Snapshot of the server counters as a metrics registry:
    /// `server.cache_hits`, `server.cache_misses`, `server.cache_evictions`,
    /// `server.slot_contention`, `server.warm_binds`, `server.cold_builds`
    /// counters plus a `server.cached_results` gauge.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("server.cache_hits", self.cache_hits());
        reg.inc("server.cache_misses", self.cache_misses());
        reg.inc("server.cache_evictions", self.cache_evictions());
        reg.inc("server.slot_contention", self.slot_contention());
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

    #[test]
    fn duplicates_in_one_batch_hit_deterministically() {
        let server: BatchServer<u64, ()> = BatchServer::new(4, 0);
        // 4 unique keys, each submitted twice.
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
        assert_eq!(server.cache_hits(), 4, "one follower per key");
        assert_eq!(server.cache_misses(), 4, "one leader per key");
        assert_eq!(server.cached_results(), 4);

        // A repeat batch is served entirely from cache.
        let out2 = server.run_batch(
            (0..8).collect(),
            |c| Some(key(&format!("w{}", c % 4))),
            |_, _| -> Result<u64, ()> { panic!("must not execute") },
        );
        assert_eq!(out2.len(), 8);
        assert_eq!(server.cache_hits(), 12);
        assert_eq!(server.cache_misses(), 4);
    }

    #[test]
    fn failed_leaders_are_not_cached_and_followers_rerun() {
        let server: BatchServer<u64, &'static str> = BatchServer::new(2, 0);
        // Both cells share a key; the leader errs, so the follower must
        // execute instead of inheriting the failure.
        let out = server.run_batch(
            vec![0u32, 1u32],
            |_| Some(key("shared")),
            |c, _| if *c == 0 { Err("leader down") } else { Ok(42) },
        );
        assert!(matches!(out[0].1, CellOutcome::Err("leader down")));
        assert!(matches!(out[1].1, CellOutcome::Ok(42)));
        assert_eq!(server.cache_misses(), 2, "follower re-ran");
        assert_eq!(server.cache_hits(), 0);
        assert_eq!(
            server.cached_results(),
            1,
            "the follower's Ok is cached for next time"
        );
    }

    #[test]
    fn deterministic_errors_are_memoized_when_enabled() {
        let server: BatchServer<u64, &'static str> =
            BatchServer::new(2, 0).with_error_cache(|e| *e == "deterministic");
        let out = server.run_batch(
            vec![0u32],
            |_| Some(key("det")),
            |_, _| Err::<u64, _>("deterministic"),
        );
        assert!(matches!(out[0].1, CellOutcome::Err("deterministic")));
        assert_eq!(server.cached_results(), 1, "deterministic error cached");

        // The resubmission is served from cache, not re-executed.
        let out = server.run_batch(
            vec![1u32],
            |_| Some(key("det")),
            |_, _| -> Result<u64, &'static str> { panic!("must not execute") },
        );
        assert!(matches!(out[0].1, CellOutcome::Err("deterministic")));
        assert_eq!(server.cache_hits(), 1);

        // An error the predicate rejects still re-runs every time.
        for expected_misses in [2, 3] {
            let out = server.run_batch(
                vec![2u32],
                |_| Some(key("transient")),
                |_, _| Err::<u64, _>("wall-clock"),
            );
            assert!(matches!(out[0].1, CellOutcome::Err("wall-clock")));
            assert_eq!(server.cache_misses(), expected_misses);
        }
        assert_eq!(server.cached_results(), 1, "transient error never cached");
    }

    #[test]
    fn lru_eviction_respects_limit_and_recency() {
        let server: BatchServer<u64, ()> = BatchServer::new(1, 0).with_cache_limit(2);
        for (name, v) in [("a", 1u64), ("b", 2)] {
            let _ = server.run_batch(vec![0u32], |_| Some(key(name)), |_, _| Ok(v));
        }
        // Touch "a" so "b" is now the least recently used…
        let _ = server.run_batch(
            vec![0u32],
            |_| Some(key("a")),
            |_, _| -> Result<u64, ()> { panic!("cached") },
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
        let server: BatchServer<u64, &'static str> =
            BatchServer::new(1, 0).with_error_cache(|_| true);
        for (name, out) in [("old", Ok(1u64)), ("err", Err("det")), ("hot", Ok(3))] {
            let _ = server.run_batch(vec![0u32], |_| Some(key(name)), |_, _| out);
        }
        let exported = server.export_cache();
        assert_eq!(exported.len(), 3);
        assert_eq!(exported[0].0.workload, "old", "LRU-first order");
        assert_eq!(exported[2].0.workload, "hot");

        // A bounded restored server keeps the most recent entries.
        let restored: BatchServer<u64, &'static str> = BatchServer::new(1, 0).with_cache_limit(2);
        restored.preload(exported);
        assert_eq!(restored.cached_results(), 2);
        assert_eq!(restored.cache_evictions(), 1);
        let out = restored.run_batch(
            vec![0u32],
            |_| Some(key("hot")),
            |_, _| -> Result<u64, &'static str> { panic!("preloaded") },
        );
        assert!(matches!(out[0].1, CellOutcome::Ok(3)));
        let out = restored.run_batch(
            vec![0u32],
            |_| Some(key("err")),
            |_, _| -> Result<u64, &'static str> { panic!("preloaded") },
        );
        assert!(matches!(out[0].1, CellOutcome::Err("det")));
        assert_eq!(restored.cache_hits(), 2);
    }

    #[test]
    fn keyless_cells_always_execute() {
        let server: BatchServer<u64, ()> = BatchServer::new(1, 0);
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
        let server: BatchServer<u64, ()> = BatchServer::new(2, 0);
        let out = server.run_batch(
            vec![0u32],
            |_| Some(key("boom")),
            |_, _| -> Result<u64, ()> { panic!("cell panic") },
        );
        assert!(out[0].1.is_crashed());
        assert_eq!(server.cached_results(), 0);
        // The poisoned slot recovers: the next batch reuses the pool.
        let out = server.run_batch(vec![1u32], |_| Some(key("fine")), |_, _| Ok(1));
        assert!(matches!(out[0].1, CellOutcome::Ok(1)));
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
            "rebind reuses the decoded kernels, no re-decode"
        );
        let (warm_stats, warm_mem) = run_iota(gpu, k);

        assert_eq!(cold_stats, warm_stats, "stats bit-identical after rebind");
        assert_eq!(cold_mem, warm_mem);
        assert_eq!(slot.cold_builds(), 1);
        assert_eq!(slot.warm_binds(), 1);
    }

    #[test]
    fn metrics_snapshot_matches_counters() {
        let server: BatchServer<u64, ()> = BatchServer::new(2, 0);
        let _ = server.run_batch(vec![0u32, 0u32], |_| Some(key("m")), |_, _| Ok(9));
        let reg = server.metrics();
        assert_eq!(reg.counter("server.cache_hits"), 1);
        assert_eq!(reg.counter("server.cache_misses"), 1);
        assert_eq!(reg.counter("server.cache_evictions"), 0);
        assert_eq!(reg.gauge("server.cached_results"), Some(1.0));
    }
}
