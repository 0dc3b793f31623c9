//! Functional global-memory backing store and a bump allocator.

const PAGE_BITS: u32 = 16;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const NUM_PAGES: usize = 1 << (32 - PAGE_BITS);

/// Sparse, paged, byte-addressed functional memory covering the full 32-bit
/// (4 GiB) device address space.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero, which keeps workload setup cheap and deterministic. The
/// page table is a direct-mapped array (64 Ki pointers, one per possible
/// 64 KiB page), so every access is a single indexed load with no hashing
/// — this sits under every simulated lane's load/store and is one of the
/// hottest paths in the whole simulator. The table itself is materialized
/// by the first write, so an empty store costs no allocation (and moving
/// a pooled store out with `std::mem::take` costs none either).
///
/// # Example
///
/// ```
/// use gpu_mem::BackingStore;
///
/// let mut mem = BackingStore::new();
/// mem.write_u32(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u32(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u32(0x2000), 0, "untouched memory reads as zero");
/// ```
#[derive(Clone, Default)]
pub struct BackingStore {
    pages: Vec<Option<Box<[u8]>>>,
    allocated: usize,
}

impl std::fmt::Debug for BackingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackingStore")
            .field("pages_allocated", &self.allocated)
            .finish()
    }
}

impl BackingStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BackingStore::default()
    }

    fn page_mut(&mut self, page: u32) -> &mut [u8] {
        if self.pages.is_empty() {
            // A zeroed allocation: the table's untouched pages are never
            // faulted in, where filling it would make all 1 MiB resident.
            self.pages = vec![None; NUM_PAGES];
        }
        let slot = &mut self.pages[page as usize];
        if slot.is_none() {
            *slot = Some(vec![0u8; PAGE_SIZE].into_boxed_slice());
            self.allocated += 1;
        }
        slot.as_mut().unwrap()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get((addr >> PAGE_BITS) as usize) {
            Some(Some(p)) => p[(addr as usize) & (PAGE_SIZE - 1)],
            _ => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr >> PAGE_BITS)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads a little-endian 32-bit word (any alignment; wraps at 2^32).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            match self.pages.get((addr >> PAGE_BITS) as usize) {
                Some(Some(p)) => u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                _ => 0,
            }
        } else {
            // Page-straddling word: fall back to per-byte reads.
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 32-bit word (any alignment; wraps at 2^32).
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            self.page_mut(addr >> PAGE_BITS)[off..off + 4].copy_from_slice(&v.to_le_bytes());
        } else {
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads an `f32` stored by [`BackingStore::write_f32`].
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Copies a slice of 32-bit words to consecutive addresses starting at
    /// `addr` (the analogue of `cudaMemcpy` host→device).
    pub fn write_slice_u32(&mut self, addr: u32, data: &[u32]) {
        for (i, v) in data.iter().enumerate() {
            self.write_u32(addr.wrapping_add((i * 4) as u32), *v);
        }
    }

    /// Reads `len` consecutive 32-bit words starting at `addr` (the
    /// analogue of `cudaMemcpy` device→host).
    pub fn read_vec_u32(&self, addr: u32, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.read_u32(addr.wrapping_add((i * 4) as u32)))
            .collect()
    }

    /// Number of 64 KiB pages materialized so far (for footprint tests).
    pub fn pages_allocated(&self) -> usize {
        self.allocated
    }

    /// Restores fresh-store read semantics (every address reads as zero)
    /// while keeping already-materialized pages allocated. This is the
    /// warm-pool reset: a reused simulator instance pays a `memset` over
    /// the pages the previous run touched instead of re-allocating the
    /// 64 Ki-slot page table and faulting pages back in one by one.
    /// `pages_allocated` intentionally does not go back down — the pages
    /// are still resident, which is the point.
    pub fn clear(&mut self) {
        for p in self.pages.iter_mut().flatten() {
            p.fill(0);
        }
    }
}

/// A bump allocator over the device address space, used for `cudaMalloc`
/// and device-runtime parameter buffers.
///
/// Allocations are aligned to 256 bytes like the CUDA allocator, so every
/// allocation starts on a transaction-segment boundary.
///
/// # Example
///
/// ```
/// use gpu_mem::LinearAllocator;
///
/// let mut alloc = LinearAllocator::new(0x1000, 0x10_0000);
/// let a = alloc.alloc(100).unwrap();
/// let b = alloc.alloc(4).unwrap();
/// assert_eq!(a % 256, 0);
/// assert!(b >= a + 100);
/// ```
#[derive(Clone, Debug)]
pub struct LinearAllocator {
    next: u32,
    end: u32,
    live_bytes: u64,
    peak_bytes: u64,
}

impl LinearAllocator {
    /// Alignment of every allocation, matching the CUDA allocator.
    pub const ALIGN: u32 = 256;

    /// Creates an allocator handing out addresses in `[base, base + size)`.
    pub fn new(base: u32, size: u32) -> Self {
        let aligned = base.next_multiple_of(Self::ALIGN);
        LinearAllocator {
            next: aligned,
            end: base.saturating_add(size),
            live_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Allocates `bytes` bytes, returning the base address, or `None` when
    /// the region is exhausted.
    pub fn alloc(&mut self, bytes: u32) -> Option<u32> {
        let base = self.next;
        let size = bytes.max(1).next_multiple_of(Self::ALIGN);
        let end = base.checked_add(size)?;
        if end > self.end {
            return None;
        }
        self.next = end;
        self.live_bytes += u64::from(size);
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        Some(base)
    }

    /// Releases `bytes` previously allocated (bump allocators cannot reuse
    /// the space, but footprint accounting — which the paper's Figure 10
    /// measures — must go down when pending launches are consumed).
    pub fn free_accounting(&mut self, bytes: u32) {
        let size = u64::from(bytes.max(1).next_multiple_of(Self::ALIGN));
        self.live_bytes = self.live_bytes.saturating_sub(size);
    }

    /// Bytes currently accounted as live.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of live bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Next address that would be returned (for tests).
    pub fn watermark(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = BackingStore::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u8(u32::MAX), 0);
    }

    #[test]
    fn the_page_table_is_materialized_by_the_first_write() {
        let mut m = BackingStore::new();
        assert!(m.pages.is_empty(), "an empty store allocates nothing");
        assert_eq!(m.read_u32(0x1234), 0);
        m.write_u32(0x1234, 5);
        assert_eq!((m.pages.len(), m.read_u32(0x1234)), (NUM_PAGES, 5));
    }

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut m = BackingStore::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 0x01);
        assert_eq!(m.read_u8(0x103), 0x04);
        assert_eq!(m.read_u32(0x100), 0x0403_0201);
    }

    #[test]
    fn unaligned_and_page_crossing_access() {
        let mut m = BackingStore::new();
        let boundary = (1u32 << 16) - 2; // crosses the first page
        m.write_u32(boundary, 0xaabb_ccdd);
        assert_eq!(m.read_u32(boundary), 0xaabb_ccdd);
        assert_eq!(m.pages_allocated(), 2);
    }

    #[test]
    fn clear_zeroes_but_keeps_pages_resident() {
        let mut m = BackingStore::new();
        m.write_u32(0x100, 0xdead_beef);
        m.write_u32(1 << 20, 7);
        let resident = m.pages_allocated();
        assert_eq!(resident, 2);
        m.clear();
        assert_eq!(m.read_u32(0x100), 0, "cleared memory reads as zero");
        assert_eq!(m.read_u32(1 << 20), 0);
        assert_eq!(
            m.pages_allocated(),
            resident,
            "pages stay materialized for the next run"
        );
        m.write_u32(0x100, 3);
        assert_eq!(m.pages_allocated(), resident, "rewrite reuses the page");
    }

    #[test]
    fn float_roundtrip() {
        let mut m = BackingStore::new();
        m.write_f32(0x40, -1.5);
        assert_eq!(m.read_f32(0x40), -1.5);
    }

    #[test]
    fn slice_copy_roundtrip() {
        let mut m = BackingStore::new();
        let data: Vec<u32> = (0..100).map(|i| i * 3).collect();
        m.write_slice_u32(0x2000, &data);
        assert_eq!(m.read_vec_u32(0x2000, 100), data);
    }

    #[test]
    fn allocator_alignment_and_exhaustion() {
        let mut a = LinearAllocator::new(10, 1024);
        let x = a.alloc(1).unwrap();
        assert_eq!(x % LinearAllocator::ALIGN, 0);
        let y = a.alloc(300).unwrap();
        assert_eq!(y, x + 256);
        // 256 + 512 used of the ~1024-byte arena; a 512-byte ask must fail.
        assert!(a.alloc(512).is_none());
    }

    #[test]
    fn allocator_footprint_accounting() {
        let mut a = LinearAllocator::new(0, 1 << 20);
        a.alloc(100).unwrap();
        a.alloc(100).unwrap();
        assert_eq!(a.live_bytes(), 512);
        assert_eq!(a.peak_bytes(), 512);
        a.free_accounting(100);
        assert_eq!(a.live_bytes(), 256);
        assert_eq!(a.peak_bytes(), 512, "peak is a high-water mark");
    }
}
