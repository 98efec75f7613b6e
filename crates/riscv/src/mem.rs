//! Flat sparse memory for the RV32IM interpreter.
//!
//! A 32-bit address space backed by 4 KiB pages allocated on first write and
//! found through a flat two-level page table: the top 10 address bits index a
//! directory of leaf tables, the next 10 a leaf's page slots. A lookup is
//! three array indexings with no search and no hashing (the workspace's
//! simlint D1 rule bans `HashMap` in library code). Reads from unmapped pages
//! return zero, matching how the kernels use the space: every program
//! initializes its own data region before reading it, and zero-filled fresh
//! memory is the conventional user-mode contract anyway.
//!
//! Alignment is *not* checked here — the [`Cpu`](crate::cpu::Cpu) traps on
//! misaligned accesses before they reach the memory, so halfword and word
//! accessors can assume they never straddle a page (the page size is a
//! multiple of four).
//!
//! # Decoded text pages
//!
//! A page the interpreter fetches from also carries a table of decoded
//! instructions with their trace templates, one slot per word, each filled
//! on the word's first fetch. This is exact because decoding is a pure
//! function of the word, and every write to a page — the interpreter's
//! stores and anything written through
//! [`Cpu::mem_mut`](crate::cpu::Cpu::mem_mut) alike — goes through the one
//! accessor that drops the page's table. The table is a cache, not state:
//! equality compares page contents only, and a fetch from an unmapped page
//! maps nothing.

use crate::cpu::Decoded;

/// Bytes per page. A power of two and a multiple of 4, so aligned word
/// accesses never cross a page boundary.
pub const PAGE_SIZE: u32 = 4096;

/// Page-offset bits of an address.
const PAGE_BITS: u32 = PAGE_SIZE.trailing_zeros();

/// Instruction words per page: the slots of a decoded table.
const PAGE_WORDS: usize = PAGE_SIZE as usize / 4;

/// Address bits resolved by each of the two page-table levels
/// (2 × 10 + 12 page-offset bits = 32).
const LEVEL_BITS: u32 = 10;
const LEVEL_ENTRIES: usize = 1 << LEVEL_BITS;

/// A leaf table: the page slots of one 4 MiB region.
type Leaf = [Option<Box<Page>>; LEVEL_ENTRIES];

/// The decoded words of one page; `None` until the word is first fetched
/// (and for a word that is not a legal instruction).
type DecodedTable = [Option<Decoded>; PAGE_WORDS];

/// One mapped page.
#[derive(Clone)]
struct Page {
    bytes: [u8; PAGE_SIZE as usize],
    /// Present once an instruction was fetched from this page, dropped by
    /// every store to it.
    decoded: Option<Box<DecodedTable>>,
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Page {}

/// Sparse byte-addressable memory over the full 32-bit address space.
#[derive(Clone, PartialEq, Eq)]
pub struct SparseMemory {
    /// Directory indexed by address bits 31..22. A leaf exists exactly when
    /// one of its pages is mapped (pages are never unmapped), so the derived
    /// equality holds exactly when both memories map the same pages with
    /// the same bytes.
    dir: Box<[Option<Box<Leaf>>; LEVEL_ENTRIES]>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            dir: Box::new([const { None }; LEVEL_ENTRIES]),
        }
    }
}

impl std::fmt::Debug for SparseMemory {
    /// The mapped pages by base address, in address order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.pages().map(|(base, page)| (base, &page.bytes)))
            .finish()
    }
}

fn dir_index(addr: u32) -> usize {
    (addr >> (32 - LEVEL_BITS)) as usize
}

fn leaf_index(addr: u32) -> usize {
    ((addr >> PAGE_BITS) as usize) & (LEVEL_ENTRIES - 1)
}

fn page_offset(addr: u32) -> usize {
    (addr & (PAGE_SIZE - 1)) as usize
}

impl SparseMemory {
    /// An empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages that have been materialized by writes.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.pages().count()
    }

    /// Every mapped page with its base address, in address order.
    fn pages(&self) -> impl Iterator<Item = (u32, &Page)> {
        self.dir.iter().enumerate().flat_map(|(d, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter().enumerate().filter_map(move |(l, page)| {
                    let base = ((d << LEVEL_BITS | l) as u32) << PAGE_BITS;
                    page.as_deref().map(|page| (base, page))
                })
            })
        })
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        self.dir[dir_index(addr)].as_ref()?[leaf_index(addr)].as_deref()
    }

    /// The page holding `addr` for a write, materialized if needed. Every
    /// write goes through here, and this drops the page's decoded table.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let leaf = self.dir[dir_index(addr)].get_or_insert_with(new_leaf);
        let page = leaf[leaf_index(addr)].get_or_insert_with(new_page);
        page.decoded = None;
        page
    }

    /// Reads one byte; unmapped addresses read as zero.
    #[must_use]
    #[inline]
    pub fn load_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |page| page.bytes[page_offset(addr)])
    }

    /// Reads an aligned little-endian halfword (the caller guarantees
    /// 2-byte alignment).
    #[must_use]
    #[inline]
    pub fn load_u16(&self, addr: u32) -> u16 {
        self.page(addr).map_or(0, |page| {
            let o = page_offset(addr);
            u16::from_le_bytes([page.bytes[o], page.bytes[o + 1]])
        })
    }

    /// Reads an aligned little-endian word (the caller guarantees 4-byte
    /// alignment).
    #[must_use]
    #[inline]
    pub fn load_u32(&self, addr: u32) -> u32 {
        self.page(addr)
            .map_or(0, |page| word_at(&page.bytes, page_offset(addr)))
    }

    /// The decoded instruction at the word-aligned `pc`, decoded on its
    /// first fetch since the page was last written; `None` if the word is
    /// not a legal instruction (an unmapped page reads as the illegal word
    /// zero and stays unmapped).
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u32) -> Option<Decoded> {
        let leaf = self.dir[dir_index(pc)].as_mut()?;
        let page = leaf[leaf_index(pc)].as_deref_mut()?;
        let o = page_offset(pc);
        let slot = &mut page.decoded.get_or_insert_with(new_decoded_table)[o / 4];
        if slot.is_none() {
            *slot = Decoded::new(word_at(&page.bytes, o));
        }
        *slot
    }

    /// Writes one byte, materializing the page if needed.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr).bytes[page_offset(addr)] = value;
    }

    /// Writes an aligned little-endian halfword.
    #[inline]
    pub fn store_u16(&mut self, addr: u32, value: u16) {
        let o = page_offset(addr);
        self.page_mut(addr).bytes[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Writes an aligned little-endian word.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, value: u32) {
        let o = page_offset(addr);
        self.page_mut(addr).bytes[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }
}

// The allocators of the three table kinds are kept out of line: each builds
// its table on the stack first, and inlined into `fetch` or `page_mut` that
// frame (up to 16 KiB, probed page by page) would be set up on every call.

#[cold]
#[inline(never)]
fn new_leaf() -> Box<Leaf> {
    Box::new([const { None }; LEVEL_ENTRIES])
}

#[cold]
#[inline(never)]
fn new_page() -> Box<Page> {
    Box::new(Page {
        bytes: [0; PAGE_SIZE as usize],
        decoded: None,
    })
}

#[cold]
#[inline(never)]
fn new_decoded_table() -> Box<DecodedTable> {
    Box::new([None; PAGE_WORDS])
}

/// The little-endian word at byte offset `o` of a page.
fn word_at(bytes: &[u8; PAGE_SIZE as usize], o: usize) -> u32 {
    u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.load_u8(0), 0);
        assert_eq!(mem.load_u16(0x1234_5678 & !1), 0);
        assert_eq!(mem.load_u32(0xffff_fffc), 0);
        assert_eq!(mem.mapped_pages(), 0);
    }

    #[test]
    fn round_trips_all_widths() {
        let mut mem = SparseMemory::new();
        mem.store_u8(0x10, 0xab);
        mem.store_u16(0x20, 0xbeef);
        mem.store_u32(0x30, 0xdead_beef);
        assert_eq!(mem.load_u8(0x10), 0xab);
        assert_eq!(mem.load_u16(0x20), 0xbeef);
        assert_eq!(mem.load_u32(0x30), 0xdead_beef);
        assert_eq!(mem.mapped_pages(), 1);
    }

    #[test]
    fn words_are_little_endian_bytes() {
        let mut mem = SparseMemory::new();
        mem.store_u32(0x100, 0x0403_0201);
        assert_eq!(mem.load_u8(0x100), 0x01);
        assert_eq!(mem.load_u8(0x103), 0x04);
        assert_eq!(mem.load_u16(0x102), 0x0403);
    }

    #[test]
    fn pages_are_independent_and_sparse() {
        let mut mem = SparseMemory::new();
        mem.store_u32(0x0000_0ffc, 1); // last word of page 0
        mem.store_u32(0x0000_1000, 2); // first word of page 1
        mem.store_u32(0x8000_0000, 3); // far away
        assert_eq!(mem.mapped_pages(), 3);
        assert_eq!(mem.load_u32(0x0000_0ffc), 1);
        assert_eq!(mem.load_u32(0x0000_1000), 2);
        assert_eq!(mem.load_u32(0x8000_0000), 3);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = SparseMemory::new();
        a.store_u32(0x40, 7);
        let b = a.clone();
        a.store_u32(0x40, 9);
        assert_eq!(b.load_u32(0x40), 7);
        assert_eq!(a.load_u32(0x40), 9);
    }
}
