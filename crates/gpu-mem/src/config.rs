//! Memory-subsystem configuration.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use crate::geometry::Divisor;

/// Geometry and latencies of the whole memory subsystem, defaulting to a
/// Tesla K20c-like arrangement (13 SMXs, 5 64-bit memory partitions with
/// 256 KiB of L2 each — 1.25 MiB total, matching the K20c's 320-bit bus).
///
/// Latencies are in core-clock cycles and chosen to land in the ranges
/// microbenchmarks report for Kepler: ~30 cycles L1 hit, ~190 cycles L2
/// hit, ~330+ cycles DRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of SMXs (each owns one L1).
    pub num_smx: usize,
    /// Number of memory partitions (each owns one L2 slice + DRAM channel).
    pub num_partitions: usize,
    /// Per-SMX L1 geometry.
    pub l1: CacheConfig,
    /// Per-partition L2 slice geometry.
    pub l2_slice: CacheConfig,
    /// L1 hit latency.
    pub l1_hit_latency: u64,
    /// Interconnect latency SMX → partition.
    pub icnt_fwd: u64,
    /// Interconnect latency partition → SMX.
    pub icnt_back: u64,
    /// L2 lookup-to-data latency within the partition.
    pub l2_latency: u64,
    /// DRAM controller timing.
    pub dram: DramConfig,
    /// Partition interleaving granularity in bytes.
    pub partition_interleave: u32,
    /// L2 lookups served per partition per cycle.
    pub l2_ports: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            num_smx: 13,
            num_partitions: 5,
            l1: CacheConfig::l1_16kb(),
            l2_slice: CacheConfig::l2_slice_256kb(),
            l1_hit_latency: 32,
            icnt_fwd: 24,
            icnt_back: 24,
            l2_latency: 110,
            dram: DramConfig::default(),
            partition_interleave: 256,
            l2_ports: 2,
        }
    }
}

impl MemConfig {
    /// Maps a global byte address to `(partition, partition-local address)`.
    /// Derives the interleave geometry on every call; the subsystem
    /// derives it once and routes through that.
    ///
    /// # Panics
    ///
    /// Panics if `partition_interleave` or `num_partitions` is zero.
    pub fn partition_of(&self, addr: u32) -> (usize, u32) {
        PartitionMap::new(self).locate(addr)
    }
}

/// [`MemConfig::partition_of`] with the interleave geometry derived once;
/// the subsystem builds one at construction and routes every transaction
/// through it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PartitionMap {
    interleave: Divisor,
    partitions: Divisor,
    interleave_bytes: u32,
}

impl PartitionMap {
    /// # Panics
    ///
    /// Panics if `partition_interleave` or `num_partitions` is zero, or
    /// if `num_partitions` does not fit the 32-bit address arithmetic.
    pub(crate) fn new(cfg: &MemConfig) -> Self {
        let partitions = u32::try_from(cfg.num_partitions)
            .expect("MemConfig::num_partitions must fit in 32 bits");
        PartitionMap {
            interleave: Divisor::new(cfg.partition_interleave, "MemConfig::partition_interleave"),
            partitions: Divisor::new(partitions, "MemConfig::num_partitions"),
            interleave_bytes: cfg.partition_interleave,
        }
    }

    #[inline]
    pub(crate) fn locate(&self, addr: u32) -> (usize, u32) {
        let (chunk, offset) = self.interleave.div_rem(addr);
        let (local_chunk, p) = self.partitions.div_rem(chunk);
        (p as usize, local_chunk * self.interleave_bytes + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_mapping_interleaves_at_256b() {
        let cfg = MemConfig::default();
        let (p0, _) = cfg.partition_of(0);
        let (p1, _) = cfg.partition_of(256);
        let (p2, _) = cfg.partition_of(512);
        assert_eq!(p0, 0);
        assert_eq!(p1, 1);
        assert_eq!(p2, 2);
        // Same 256-byte chunk stays in one partition.
        assert_eq!(cfg.partition_of(255).0, 0);
    }

    #[test]
    fn local_addresses_are_dense_per_partition() {
        let cfg = MemConfig::default();
        // Consecutive chunks hitting partition 0 get consecutive local addrs.
        let (_, l0) = cfg.partition_of(0);
        let (_, l1) = cfg.partition_of(256 * cfg.num_partitions as u32);
        assert_eq!(l1, l0 + 256);
    }

    #[test]
    #[should_panic(expected = "MemConfig::partition_interleave must be non-zero")]
    fn zero_interleave_is_rejected_where_it_is_derived() {
        let cfg = MemConfig {
            partition_interleave: 0,
            ..MemConfig::default()
        };
        let _ = PartitionMap::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "MemConfig::num_partitions must be non-zero")]
    fn zero_partitions_is_rejected_where_it_is_derived() {
        let cfg = MemConfig {
            num_partitions: 0,
            ..MemConfig::default()
        };
        let _ = PartitionMap::new(&cfg);
    }

    #[test]
    fn offsets_within_chunk_preserved() {
        let cfg = MemConfig::default();
        let (_, l) = cfg.partition_of(256 * 5 + 100);
        assert_eq!(l % 256, 100);
    }
}
