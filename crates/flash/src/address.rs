//! Physical flash addresses.

#![deny(clippy::as_conversions)]

use std::fmt;

/// Identifier of an erase block, global across the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl From<u32> for BlockId {
    fn from(v: u32) -> Self {
        BlockId(v)
    }
}

/// Physical page address: an erase block plus a page index within it.
///
/// This is the unit every simulated read and program operates on — the
/// "PPA" that the paper's level lists, meta segments and value-log pointers
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppa {
    /// The erase block.
    pub block: BlockId,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Creates a physical page address from a raw block id and page index.
    pub fn new(block: u32, page: u32) -> Self {
        Self {
            block: BlockId(block),
            page,
        }
    }

    /// The address `n` pages after this one **within the same block**.
    ///
    /// Data segment groups span physically consecutive pages of one block
    /// (paper Section 4.1), so group page addresses are derived this way
    /// from the group's first-page PPA.
    pub fn offset(self, n: u32) -> Self {
        Self {
            block: self.block,
            page: self.page + n,
        }
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_stays_in_block() {
        let p = Ppa::new(7, 3);
        let q = p.offset(5);
        assert_eq!(q.block, BlockId(7));
        assert_eq!(q.page, 8);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Ppa::new(2, 9).to_string(), "B2:9");
    }

    #[test]
    fn ordering_is_block_major() {
        assert!(Ppa::new(1, 100) < Ppa::new(2, 0));
        assert!(Ppa::new(1, 1) < Ppa::new(1, 2));
    }
}
