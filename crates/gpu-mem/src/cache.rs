//! Set-associative cache timing model with LRU replacement.
//!
//! Used for both the per-SMX L1 (write-through, no write-allocate, as
//! Kepler treats global stores) and the per-partition L2 slices
//! (write-back, write-allocate). The cache is a *timing* structure only:
//! it tracks tags and dirty bits, never data — values live in the
//! functional [`BackingStore`](crate::BackingStore).

use crate::geometry::Divisor;
use std::fmt;

/// Geometry and policy of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (must divide `size_bytes`).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Write-back with write-allocate when true; write-through with
    /// no-write-allocate when false.
    pub write_back: bool,
}

impl CacheConfig {
    /// Kepler-style 16 KiB L1: 128-byte lines, 4-way, write-through.
    pub fn l1_16kb() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            ways: 4,
            write_back: false,
        }
    }

    /// One 256 KiB L2 slice: 128-byte lines, 8-way, write-back.
    pub fn l2_slice_256kb() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 128,
            ways: 8,
            write_back: true,
        }
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent; if a dirty victim was evicted its base address
    /// is returned so the caller can issue the write-back.
    Miss {
        /// Base address of the evicted dirty line, if any.
        writeback: Option<u32>,
    },
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty evictions (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, LRU, tag-only cache.
///
/// # Example
///
/// ```
/// use gpu_mem::{Cache, CacheConfig, Lookup};
///
/// let mut c = Cache::new(CacheConfig::l1_16kb());
/// assert!(matches!(c.access_read(0x1000), Lookup::Miss { .. }));
/// assert_eq!(c.access_read(0x1000), Lookup::Hit);
/// assert_eq!(c.access_read(0x1040), Lookup::Hit, "same 128B line");
/// ```
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Geometry, derived once: `addr → line address → (tag, set)`.
    line: Divisor,
    sets: Divisor,
    num_sets: u32,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry. A capacity below
    /// one full set is rounded up to one set.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` or `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        let line = Divisor::new(cfg.line_bytes, "CacheConfig::line_bytes");
        assert!(cfg.ways != 0, "CacheConfig::ways must be non-zero");
        let num_sets = (cfg.size_bytes / cfg.line_bytes / cfg.ways).max(1);
        Cache {
            cfg,
            line,
            sets: Divisor::new(num_sets, "set count"),
            num_sets,
            lines: vec![Line::default(); (num_sets * cfg.ways) as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Base address of the line holding `addr`.
    pub(crate) fn line_of(&self, addr: u32) -> u32 {
        addr - self.line.div_rem(addr).1
    }

    /// `(set, tag)` of the line holding `addr`.
    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let (line_addr, _) = self.line.div_rem(addr);
        let (tag, set) = self.sets.div_rem(line_addr);
        (set, tag)
    }

    /// The ways of `set`.
    fn ways_of(&mut self, set: u32) -> &mut [Line] {
        let ways = self.cfg.ways as usize;
        &mut self.lines[set as usize * ways..][..ways]
    }

    /// Base address of the line `set_and_tag` maps to `(set, tag)`.
    fn line_base(&self, set: u32, tag: u32) -> u32 {
        (tag * self.num_sets + set) * self.cfg.line_bytes
    }

    /// Read access: allocates the line on miss.
    pub fn access_read(&mut self, addr: u32) -> Lookup {
        self.access(addr, false)
    }

    /// Write access. Write-back caches allocate and dirty the line;
    /// write-through caches update the line only if present (no-write-
    /// allocate) and never produce write-backs.
    pub fn access_write(&mut self, addr: u32) -> Lookup {
        if self.cfg.write_back {
            self.access(addr, true)
        } else {
            // Write-through no-allocate: a hit keeps the line valid (data
            // is written through), a miss does not allocate.
            self.tick += 1;
            let (set, tag) = self.set_and_tag(addr);
            let tick = self.tick;
            for line in self.ways_of(set) {
                if line.valid && line.tag == tag {
                    line.lru = tick;
                    self.stats.hits += 1;
                    return Lookup::Hit;
                }
            }
            self.stats.misses += 1;
            Lookup::Miss { writeback: None }
        }
    }

    /// Invalidates a line if present (used by the L1 on atomics, which
    /// are performed at the L2, so a subsequent load refetches through
    /// it; stores go through [`access_write`](Self::access_write)).
    pub fn invalidate(&mut self, addr: u32) {
        let (set, tag) = self.set_and_tag(addr);
        for line in self.ways_of(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
            }
        }
    }

    fn access(&mut self, addr: u32, write: bool) -> Lookup {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let tick = self.tick;

        for line in self.ways_of(set) {
            if line.valid && line.tag == tag {
                line.lru = tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return Lookup::Hit;
            }
        }
        self.stats.misses += 1;

        // Choose victim: invalid way first, else LRU.
        let ways = self.ways_of(set);
        let slot = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("cache set is never empty")
        });
        let victim = std::mem::replace(
            &mut ways[slot],
            Line {
                tag,
                valid: true,
                dirty: write,
                lru: tick,
            },
        );
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            self.line_base(set, victim.tag)
        });
        Lookup::Miss { writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rand::{Rng, SeedableRng, StdRng};

    /// The precomputed shift/mask (or reciprocal) split equals the
    /// division form it replaced, and the write-back address inverts it,
    /// under the K20c geometries and non-power-of-two ones.
    #[test]
    fn derived_geometry_equals_the_division_form() {
        let mut rng = StdRng::seed_from_u64(0x6E0);
        let odd = |size_bytes, line_bytes, ways| CacheConfig {
            size_bytes,
            line_bytes,
            ways,
            write_back: true,
        };
        for cfg in [
            CacheConfig::l1_16kb(),
            CacheConfig::l2_slice_256kb(),
            odd(48 * 1024, 128, 3), // 128 sets of 3 ways
            odd(36 * 1024, 96, 4),  // 96 sets, 96-byte lines
            odd(7 * 5 * 64, 64, 5), // 7 sets
            odd(64, 128, 2),        // below one set: rounded up to one
        ] {
            let c = Cache::new(cfg);
            let sets = (cfg.size_bytes / cfg.line_bytes / cfg.ways).max(1);
            assert_eq!(c.lines.len(), (sets * cfg.ways) as usize);
            for _ in 0..20_000 {
                let addr: u32 = rng.gen();
                let line_addr = addr / cfg.line_bytes;
                let (set, tag) = c.set_and_tag(addr);
                assert_eq!(
                    (set, tag),
                    (line_addr % sets, line_addr / sets),
                    "{cfg:?} {addr:#x}"
                );
                assert_eq!(c.line_base(set, tag), addr - addr % cfg.line_bytes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "CacheConfig::line_bytes must be non-zero")]
    fn zero_line_bytes_is_rejected_at_construction() {
        let _ = Cache::new(CacheConfig {
            line_bytes: 0,
            ..CacheConfig::l1_16kb()
        });
    }

    #[test]
    #[should_panic(expected = "CacheConfig::ways must be non-zero")]
    fn zero_ways_is_rejected_at_construction() {
        let _ = Cache::new(CacheConfig {
            ways: 0,
            ..CacheConfig::l1_16kb()
        });
    }

    fn tiny_wb() -> Cache {
        // 4 sets x 2 ways x 128B lines = 1 KiB.
        Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 128,
            ways: 2,
            write_back: true,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_wb();
        assert!(matches!(c.access_read(0), Lookup::Miss { writeback: None }));
        assert_eq!(c.access_read(0), Lookup::Hit);
        assert_eq!(c.access_read(127), Lookup::Hit, "same line");
        assert!(
            matches!(c.access_read(128), Lookup::Miss { .. }),
            "next line"
        );
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny_wb();
        // Set 0 holds lines whose line-address % 4 == 0: 0, 512, 1024, ...
        c.access_read(0);
        c.access_read(512);
        c.access_read(0); // make 512 the LRU
        assert!(matches!(c.access_read(1024), Lookup::Miss { .. })); // evicts 512
        assert_eq!(c.access_read(0), Lookup::Hit, "0 must have survived");
        assert!(matches!(c.access_read(512), Lookup::Miss { .. }));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny_wb();
        c.access_write(512); // dirty line in set 0
        c.access_write(1024); // second way of set 0
        let r = c.access_read(1536); // evicts LRU = 512 (dirty)
        assert_eq!(
            r,
            Lookup::Miss {
                writeback: Some(512)
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny_wb();
        c.access_read(512);
        c.access_read(1024);
        assert_eq!(c.access_read(1536), Lookup::Miss { writeback: None });
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = Cache::new(CacheConfig::l1_16kb());
        assert!(matches!(
            c.access_write(0x100),
            Lookup::Miss { writeback: None }
        ));
        assert!(
            matches!(c.access_read(0x100), Lookup::Miss { .. }),
            "store must not have allocated the line"
        );
        // But a write to a resident line hits.
        assert_eq!(c.access_write(0x100), Lookup::Hit);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(CacheConfig::l1_16kb());
        c.access_read(0x100);
        assert_eq!(c.access_read(0x100), Lookup::Hit);
        c.invalidate(0x100);
        assert!(matches!(c.access_read(0x100), Lookup::Miss { .. }));
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = tiny_wb();
        c.access_read(0);
        c.access_read(0);
        c.access_read(0);
        c.access_read(0);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny_wb();
        for i in 0..4 {
            c.access_read(i * 128);
        }
        for i in 0..4 {
            assert_eq!(c.access_read(i * 128), Lookup::Hit);
        }
    }
}
