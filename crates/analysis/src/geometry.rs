//! Cache array geometry used by the probability analysis.
//!
//! The analysis of Section IV of the paper only needs to know, for a cache array,
//! how many blocks it has (`d` in the paper) and how many SRAM cells each block
//! spans (`k`): data bits plus tag bits plus the valid bit. The running example of
//! the paper is a 32 KB, 8-way, 64 B/block L1 with a 24-bit tag and one valid bit,
//! giving `d = 512` and `k = 64*8 + 24 + 1 = 537`.

use crate::error::AnalysisError;

/// Geometry of a cache data+tag array, as seen by the fault analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Number of blocks (`d` in the paper).
    blocks: u64,
    /// Data bits per block (e.g. `64 * 8 = 512` for a 64-byte block).
    data_bits_per_block: u64,
    /// Tag bits per block (24 in the paper's running example).
    tag_bits_per_block: u64,
    /// Metadata bits per block protected together with the block (valid bit etc.).
    meta_bits_per_block: u64,
}

impl ArrayGeometry {
    /// Creates a new geometry.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidGeometry`] if `blocks` is zero or the block
    /// has no cells at all.
    pub fn new(
        blocks: u64,
        data_bits_per_block: u64,
        tag_bits_per_block: u64,
        meta_bits_per_block: u64,
    ) -> Result<Self, AnalysisError> {
        if blocks == 0 {
            return Err(AnalysisError::InvalidGeometry(
                "an array must contain at least one block".into(),
            ));
        }
        if data_bits_per_block + tag_bits_per_block + meta_bits_per_block == 0 {
            return Err(AnalysisError::InvalidGeometry(
                "a block must contain at least one cell".into(),
            ));
        }
        Ok(Self {
            blocks,
            data_bits_per_block,
            tag_bits_per_block,
            meta_bits_per_block,
        })
    }

    /// Geometry derived from cache organization parameters.
    ///
    /// `size_bytes` is the total data capacity, `block_bytes` the block size and
    /// `tag_bits`/`meta_bits` the per-block tag and metadata widths.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidGeometry`] if the size is not a multiple of
    /// the block size, or any parameter is zero.
    pub fn from_cache_organization(
        size_bytes: u64,
        block_bytes: u64,
        tag_bits: u64,
        meta_bits: u64,
    ) -> Result<Self, AnalysisError> {
        if block_bytes == 0 {
            return Err(AnalysisError::InvalidGeometry(
                "block size must be non-zero".into(),
            ));
        }
        if size_bytes == 0 || !size_bytes.is_multiple_of(block_bytes) {
            return Err(AnalysisError::InvalidGeometry(format!(
                "cache size {size_bytes} is not a positive multiple of block size {block_bytes}"
            )));
        }
        Self::new(size_bytes / block_bytes, block_bytes * 8, tag_bits, meta_bits)
    }

    /// The paper's running-example L1: 32 KB, 64 B/block, 24-bit tag, 1 valid bit
    /// (`d = 512`, `k = 537`).
    #[must_use]
    pub fn ispass2010_l1() -> Self {
        Self {
            blocks: 512,
            data_bits_per_block: 64 * 8,
            tag_bits_per_block: 24,
            meta_bits_per_block: 1,
        }
    }

    /// The paper's unified L2: 2 MB, 64 B/block, 18-bit tag, 1 valid bit
    /// (`d = 32768`, `k = 531`). The closed-form capacity and failure models
    /// apply to it unchanged — only the block count and per-block cell count
    /// differ from the L1.
    #[must_use]
    pub fn ispass2010_l2() -> Self {
        Self {
            blocks: 32 * 1024,
            data_bits_per_block: 64 * 8,
            tag_bits_per_block: 18,
            meta_bits_per_block: 1,
        }
    }

    /// The paper's 16-entry fully-associative victim cache (64 B blocks, 31 bits of
    /// tag+metadata per entry, matching Table I's `31 + 16 * 512` accounting).
    #[must_use]
    pub fn ispass2010_victim_cache() -> Self {
        Self {
            blocks: 16,
            data_bits_per_block: 64 * 8,
            tag_bits_per_block: 30,
            meta_bits_per_block: 1,
        }
    }

    /// Number of blocks in the array (`d`).
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Number of data bits per block.
    #[must_use]
    pub fn data_bits_per_block(&self) -> u64 {
        self.data_bits_per_block
    }

    /// Number of tag bits per block.
    #[must_use]
    pub fn tag_bits_per_block(&self) -> u64 {
        self.tag_bits_per_block
    }

    /// Number of metadata (valid, etc.) bits per block.
    #[must_use]
    pub fn meta_bits_per_block(&self) -> u64 {
        self.meta_bits_per_block
    }

    /// Number of cells per block that the disabling scheme must protect (`k`).
    #[must_use]
    pub fn cells_per_block(&self) -> u64 {
        self.data_bits_per_block + self.tag_bits_per_block + self.meta_bits_per_block
    }

    /// Number of *data* cells per block only (used by word-disable analysis, where
    /// tags live in robust 10T cells and are assumed fault free).
    #[must_use]
    pub fn data_cells_per_block(&self) -> u64 {
        self.data_bits_per_block
    }

    /// Total number of cells in the array (`d * k`).
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.blocks * self.cells_per_block()
    }

    /// Returns a copy of this geometry with a different block size (in bytes) while
    /// keeping total data capacity constant, as done for Fig. 6 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidGeometry`] if the current data capacity is not
    /// a multiple of the new block size.
    pub fn with_block_bytes(&self, block_bytes: u64) -> Result<Self, AnalysisError> {
        let total_data_bits = self.blocks * self.data_bits_per_block;
        let new_block_bits = block_bytes
            .checked_mul(8)
            .ok_or_else(|| AnalysisError::InvalidGeometry("block size overflow".into()))?;
        if new_block_bits == 0 || !total_data_bits.is_multiple_of(new_block_bits) {
            return Err(AnalysisError::InvalidGeometry(format!(
                "total data bits {total_data_bits} not divisible by block bits {new_block_bits}"
            )));
        }
        Ok(Self {
            blocks: total_data_bits / new_block_bits,
            data_bits_per_block: new_block_bits,
            tag_bits_per_block: self.tag_bits_per_block,
            meta_bits_per_block: self.meta_bits_per_block,
        })
    }
}

impl Default for ArrayGeometry {
    fn default() -> Self {
        Self::ispass2010_l1()
    }
}

impl std::fmt::Display for ArrayGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} blocks x {} cells/block ({} data + {} tag + {} meta)",
            self.blocks,
            self.cells_per_block(),
            self.data_bits_per_block,
            self.tag_bits_per_block,
            self.meta_bits_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_matches_running_example() {
        let g = ArrayGeometry::ispass2010_l1();
        assert_eq!(g.blocks(), 512);
        assert_eq!(g.cells_per_block(), 537);
        assert_eq!(g.total_cells(), 274_944);
    }

    #[test]
    fn paper_l2_matches_the_cache_view() {
        let g = ArrayGeometry::ispass2010_l2();
        assert_eq!(g.blocks(), 32 * 1024);
        assert_eq!(g.cells_per_block(), 531);
        assert_eq!(
            g,
            ArrayGeometry::from_cache_organization(2 * 1024 * 1024, 64, 18, 1).unwrap()
        );
    }

    #[test]
    fn from_cache_organization_computes_blocks() {
        let g = ArrayGeometry::from_cache_organization(32 * 1024, 64, 24, 1).unwrap();
        assert_eq!(g.blocks(), 512);
        assert_eq!(g.data_bits_per_block(), 512);
        assert_eq!(g, ArrayGeometry::ispass2010_l1());
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(ArrayGeometry::new(0, 512, 24, 1).is_err());
        assert!(ArrayGeometry::new(512, 0, 0, 0).is_err());
        assert!(ArrayGeometry::from_cache_organization(0, 64, 24, 1).is_err());
        assert!(ArrayGeometry::from_cache_organization(100, 64, 24, 1).is_err());
        assert!(ArrayGeometry::from_cache_organization(32 * 1024, 0, 24, 1).is_err());
    }

    #[test]
    fn with_block_bytes_preserves_total_capacity() {
        let g = ArrayGeometry::ispass2010_l1();
        let g32 = g.with_block_bytes(32).unwrap();
        let g128 = g.with_block_bytes(128).unwrap();
        assert_eq!(g32.blocks(), 1024);
        assert_eq!(g128.blocks(), 256);
        assert_eq!(
            g32.blocks() * g32.data_bits_per_block(),
            g.blocks() * g.data_bits_per_block()
        );
        assert_eq!(
            g128.blocks() * g128.data_bits_per_block(),
            g.blocks() * g.data_bits_per_block()
        );
    }

    #[test]
    fn with_block_bytes_rejects_non_divisible_sizes() {
        let g = ArrayGeometry::ispass2010_l1();
        assert!(g.with_block_bytes(0).is_err());
        assert!(g.with_block_bytes(100).is_err());
    }

    #[test]
    fn display_mentions_all_components() {
        let s = ArrayGeometry::ispass2010_l1().to_string();
        assert!(s.contains("512 blocks"));
        assert!(s.contains("537"));
    }
}
