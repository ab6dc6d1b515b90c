//! Device-internal DRAM budgeting.
//!
//! Both engines plan their DRAM the same way: the write buffer gets a fixed
//! reservation, and whatever remains is the *metadata budget* that level
//! lists, PinK meta segments, and AnyKey hash lists compete for, top level
//! first. The whole point of AnyKey is that its mandatory metadata (level
//! lists) always fits this budget while PinK's does not under low-v/k
//! workloads.

use crate::audit::AuditError;

/// A DRAM budget: total capacity with a write-buffer reservation carved
/// out, and an accounting of what the metadata placement currently uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramBudget {
    /// Total device DRAM in bytes.
    pub capacity: u64,
    /// Bytes reserved for the write buffer (L0).
    pub write_buffer: u64,
    /// Bytes currently used by DRAM-resident metadata.
    pub metadata_used: u64,
}

impl DramBudget {
    /// A budget with the given capacity and write-buffer reservation.
    ///
    /// # Panics
    ///
    /// Panics if the reservation exceeds the capacity.
    pub fn new(capacity: u64, write_buffer: u64) -> Self {
        assert!(
            write_buffer <= capacity,
            "write buffer {write_buffer} exceeds DRAM {capacity}"
        );
        Self {
            capacity,
            write_buffer,
            metadata_used: 0,
        }
    }

    /// Bytes available for metadata in total.
    pub fn metadata_budget(&self) -> u64 {
        self.capacity - self.write_buffer
    }

    /// Bytes of the metadata budget still unclaimed.
    pub fn metadata_free(&self) -> u64 {
        self.metadata_budget().saturating_sub(self.metadata_used)
    }

    /// Total DRAM in use (reservation plus resident metadata).
    pub fn used(&self) -> u64 {
        self.write_buffer + self.metadata_used
    }

    /// Attempts to claim `bytes` of the metadata budget; returns whether
    /// the claim fit (callers spill to flash or drop the structure when it
    /// does not).
    pub fn try_claim(&mut self, bytes: u64) -> bool {
        if self.metadata_free() >= bytes {
            self.metadata_used += bytes;
            true
        } else {
            false
        }
    }

    /// Releases all metadata claims (placement is recomputed from scratch
    /// after every structural change).
    pub fn clear_claims(&mut self) {
        self.metadata_used = 0;
    }

    /// Audits the claims against `expected`, the byte sum of the
    /// structures the engine currently marks DRAM-resident, and against
    /// the metadata budget.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::DramMismatch`] when the claims differ from
    /// `expected`, else [`AuditError::DramOverBudget`] when they exceed the
    /// budget.
    pub fn audit(&self, expected: u64) -> Result<(), AuditError> {
        let used = self.metadata_used;
        if used != expected {
            return Err(AuditError::DramMismatch { used, expected });
        }
        let budget = self.metadata_budget();
        if used > budget {
            return Err(AuditError::DramOverBudget { used, budget });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_math() {
        let mut b = DramBudget::new(100, 40);
        assert_eq!(b.metadata_budget(), 60);
        assert!(b.try_claim(50));
        assert_eq!(b.metadata_free(), 10);
        assert!(!b.try_claim(11));
        assert!(b.try_claim(10));
        assert_eq!(b.used(), 100);
        b.clear_claims();
        assert_eq!(b.metadata_free(), 60);
    }

    #[test]
    #[should_panic(expected = "exceeds DRAM")]
    fn oversized_reservation_panics() {
        let _ = DramBudget::new(10, 11);
    }
}
