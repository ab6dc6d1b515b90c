//! The byte-packed, append-only flash area both engines keep values in:
//! AnyKey's value log (paper Section 4.3) and PinK's data area.
//!
//! Values are packed byte-continuously into pages; a value may span pages
//! but never blocks. The log's [`crate::ledger::Ledger`] keeps each
//! block's valid bytes, so the owner can pick a GC victim from it or erase
//! every fully-invalid block at once
//! ([`ByteLog::reclaim`](crate::bytelog::ByteLog::reclaim)).

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, OpCause, Ppa};

use crate::error::KvError;
use crate::ledger::Ledger;

/// Where a value lives: the page it starts in and how many pages it
/// touches (values never span blocks). The default touches no page.
///
/// It packs into 8 bytes: a block has at most 65,536 pages, which
/// `DeviceConfigBuilder::build` asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extent {
    /// The block holding the value.
    pub block: BlockId,
    /// First page of the value within the block.
    pub page: u16,
    /// Number of pages the value touches (> 1 only when it crosses a page
    /// boundary or exceeds the page payload).
    pub pages: u8,
}

const _: () = assert!(std::mem::size_of::<Extent>() == 8);

impl Extent {
    /// The flash pages the value occupies.
    pub fn pages(self) -> impl Iterator<Item = Ppa> {
        let first = Ppa {
            block: self.block,
            page: u32::from(self.page),
        };
        (0..u32::from(self.pages)).map(move |i| first.offset(i))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct OpenBlock {
    id: BlockId,
    next_page: u32,
    page_fill: u64,
}

/// A byte-packed, append-only area over the blocks of one allocator.
///
/// Page programs carry the cause the owner fixed at construction.
#[derive(Debug, Clone)]
pub struct ByteLog {
    /// The area's blocks. PinK's meta pages draw from the same pool.
    pub(crate) alloc: BlockAllocator,
    /// Valid bytes per block.
    pub(crate) ledger: Ledger,
    open: Option<OpenBlock>,
    page_payload: u64,
    pages_per_block: u32,
    cause: OpCause,
}

impl ByteLog {
    /// An area over `alloc`'s blocks whose page programs count as `cause`,
    /// named `owner` in errors and audits.
    pub fn new(
        alloc: BlockAllocator,
        page_payload: u64,
        pages_per_block: u32,
        cause: OpCause,
        owner: &'static str,
    ) -> Self {
        let payload = page_payload * u64::from(pages_per_block);
        Self {
            ledger: Ledger::new(alloc.range(), payload, owner),
            alloc,
            open: None,
            page_payload,
            pages_per_block,
            cause,
        }
    }

    fn block_payload(&self) -> u64 {
        self.page_payload * u64::from(self.pages_per_block)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.alloc.len() as u64 * self.block_payload()
    }

    /// Bytes of live values currently stored.
    pub fn valid_bytes(&self) -> u64 {
        self.ledger.total_live()
    }

    /// Bytes still appendable without reclaiming anything.
    pub fn free_bytes(&self) -> u64 {
        let open_remaining = self.open.map_or(0, |o| self.room(o));
        self.alloc.free_count() as u64 * self.block_payload() + open_remaining
    }

    fn room(&self, o: OpenBlock) -> u64 {
        u64::from(self.pages_per_block - o.next_page) * self.page_payload - o.page_fill
    }

    fn open_block(&mut self) -> Result<OpenBlock, KvError> {
        if let Some(o) = self.open {
            return Ok(o);
        }
        let id = self.alloc.alloc().ok_or(KvError::DeviceFull)?;
        self.ledger.open(id);
        let o = OpenBlock {
            id,
            ..OpenBlock::default()
        };
        self.open = Some(o);
        Ok(o)
    }

    /// Programs the open block's next page at `at`, folding its completion
    /// into `done`; returns whether the program succeeded. A failed page
    /// stays consumed.
    fn program_next(&self, flash: &mut FlashSim, o: &mut OpenBlock, at: Ns, done: &mut Ns) -> bool {
        let r = flash.program(
            Ppa {
                block: o.id,
                page: o.next_page,
            },
            self.cause,
            at,
        );
        *done = (*done).max(r.done);
        o.next_page += 1;
        r.status.is_ok()
    }

    /// Programs the partial open page, if any, and seals the open block.
    /// A failed program retries the tail on the next page while the block
    /// has room; if it runs out, the tail stays on its marginal page (the
    /// co-packed approximation — see DESIGN.md §9).
    fn seal(&mut self, flash: &mut FlashSim, at: Ns) -> Ns {
        let Some(mut o) = self.open.take() else {
            return at;
        };
        self.ledger.seal(o.id);
        let mut done = at;
        if o.page_fill > 0 {
            while o.next_page < self.pages_per_block {
                if self.program_next(flash, &mut o, at, &mut done) {
                    break;
                }
            }
        }
        done
    }

    /// Appends a value of `bytes` bytes at time `at`; returns its extent
    /// and the completion time of any page programs this caused.
    ///
    /// A page-program failure breaks the value's contiguity, so the whole
    /// value is re-placed from the next page (rolling into a fresh block
    /// when the current one runs out); the failed attempt's pages stay
    /// dead and the failed program remains visible in the counters.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when no block is available.
    ///
    /// # Panics
    ///
    /// Panics on empty values or values larger than an erase block's
    /// payload (tombstones are never stored).
    pub fn append(
        &mut self,
        flash: &mut FlashSim,
        bytes: u64,
        at: Ns,
    ) -> Result<(Extent, Ns), KvError> {
        assert!(bytes > 0, "empty values are never stored");
        assert!(
            bytes <= self.block_payload(),
            "value of {bytes} bytes exceeds the erase-block payload {}",
            self.block_payload()
        );
        let mut done = at;
        // Each retry consumes at least one page, so the loop ends in
        // [`KvError::DeviceFull`] at worst.
        let (ext, end_page) = 'place: loop {
            let mut o = self.open_block()?;
            if bytes > self.room(o) {
                done = done.max(self.seal(flash, at));
                o = self.open_block()?;
            }
            let start_page = o.next_page;
            let mut left = bytes;
            let mut pages = 0u8;
            while left > 0 {
                let take = left.min(self.page_payload - o.page_fill);
                o.page_fill += take;
                left -= take;
                pages += 1;
                if o.page_fill == self.page_payload {
                    o.page_fill = 0;
                    if !self.program_next(flash, &mut o, at, &mut done) {
                        self.open = Some(o);
                        continue 'place;
                    }
                }
            }
            self.open = Some(o);
            // The value starts inside the block, and a block has at most
            // 65,536 pages, so its first page fits 16 bits.
            let ext = Extent {
                block: o.id,
                page: start_page as u16,
                pages,
            };
            break (ext, o.next_page);
        };
        self.ledger.credit(ext.block, 0, bytes)?;
        if end_page == self.pages_per_block {
            done = done.max(self.seal(flash, at));
        }
        Ok((ext, done))
    }

    /// Marks `bytes` of the value at `ext` invalid. The count saturates at
    /// zero: PinK can invalidate a stale entry's bytes twice.
    pub fn invalidate(&mut self, ext: Extent, bytes: u64) {
        if let Some((_, valid)) = self.ledger.get(ext.block) {
            debug_assert!(valid >= bytes, "byte-log block accounting underflow");
            // Within the block's count, the debit cannot fail.
            let _ = self.ledger.debit(ext.block, 0, bytes.min(valid));
        }
    }

    /// Erases every sealed, fully-invalid block in ascending id (each
    /// erase's fault draw follows the op order); returns the bytes freed
    /// and the erase completion time. A block whose erase fails is retired
    /// (its capacity is lost, not freed).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::BlockFree`] if the allocator rejects a free or
    /// retire.
    pub fn reclaim(&mut self, flash: &mut FlashSim, at: Ns) -> Result<(u64, Ns), KvError> {
        let sealed = self.ledger.sealed();
        let empty: Vec<BlockId> = sealed.filter(|&(_, v)| v == 0).map(|(b, _)| b).collect();
        let mut done = at;
        let mut freed = 0u64;
        for id in empty {
            let (t, ok) = self.ledger.erase(flash, &mut self.alloc, id, at)?;
            done = done.max(t);
            if ok {
                freed += self.block_payload();
            }
        }
        Ok((freed, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::{FaultModel, FlashConfig};

    /// A value log as AnyKey builds it: `blocks` blocks of 128 pages of
    /// 8128 B payload, its page programs counted as `LogWrite`.
    fn log(blocks: u32) -> ByteLog {
        let alloc = BlockAllocator::new(0..blocks);
        ByteLog::new(alloc, 8128, 128, OpCause::LogWrite, "value log")
    }

    fn setup() -> (FlashSim, ByteLog) {
        (FlashSim::new(FlashConfig::small_test()), log(4))
    }

    #[test]
    fn append_returns_pointers_within_capacity() {
        let (mut flash, mut log) = setup();
        let (ptr, _) = log.append(&mut flash, 100, 0).unwrap();
        assert_eq!(ptr.page, 0);
        assert_eq!(ptr.pages, 1);
        assert_eq!(log.valid_bytes(), 100);
    }

    #[test]
    fn small_values_share_pages() {
        let (mut flash, mut log) = setup();
        let (a, _) = log.append(&mut flash, 100, 0).unwrap();
        let (b, _) = log.append(&mut flash, 100, 0).unwrap();
        assert_eq!(a.block, b.block);
        assert_eq!(a.page, b.page, "two 100B values fit one 8128B page");
        // No page has been programmed yet (page not full).
        assert_eq!(flash.counters().total_writes(), 0);
    }

    #[test]
    fn page_programs_happen_when_pages_fill() {
        let (mut flash, mut log) = setup();
        for _ in 0..100 {
            log.append(&mut flash, 4000, 0).unwrap();
        }
        // 400 KB over 8128-byte pages: ~49 page programs.
        let w = flash.counters().writes(OpCause::LogWrite);
        assert!((45..=55).contains(&w), "got {w} log writes");
    }

    #[test]
    fn values_span_pages_but_not_blocks() {
        let (mut flash, mut log) = setup();
        // Fill most of the first page so the next value spans.
        log.append(&mut flash, 8000, 0).unwrap();
        let (spanning, _) = log.append(&mut flash, 1000, 0).unwrap();
        assert_eq!(spanning.pages, 2);

        // Now nearly exhaust the block and check block sealing.
        let block_payload = 8128 * 128u64;
        let mut used = 9000u64;
        while used + 8000 < block_payload {
            log.append(&mut flash, 8000, 0).unwrap();
            used += 8000;
        }
        let (next, _) = log.append(&mut flash, 8000, 0).unwrap();
        assert_ne!(next.block.0, 0, "value must not span into a new block");
    }

    #[test]
    fn free_bytes_decreases_and_reclaim_recovers() {
        let (mut flash, mut log) = setup();
        let before = log.free_bytes();
        let mut ptrs = Vec::new();
        let block_payload = 8128 * 128u64;
        let mut used = 0;
        while used + 4000 <= block_payload {
            ptrs.push(log.append(&mut flash, 4000, 0).unwrap().0);
            used += 4000;
        }
        assert!(log.free_bytes() < before);
        // Invalidate everything in the first block and reclaim.
        let first = ptrs[0].block;
        for p in &ptrs {
            if p.block == first {
                log.invalidate(*p, 4000);
            }
        }
        // Push the open block to seal by continuing to append.
        while ptrs.last().is_some_and(|p| p.block == first) {
            ptrs.push(log.append(&mut flash, 4000, 0).unwrap().0);
        }
        let (freed, _) = log.reclaim(&mut flash, 0).unwrap();
        assert_eq!(freed, block_payload);
        assert_eq!(flash.counters().erases(), 1);
    }

    #[test]
    fn exhaustion_reports_device_full() {
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let mut log = log(1);
        let block_payload = 8128 * 128u64;
        let mut used = 0;
        while used + 8000 <= block_payload {
            log.append(&mut flash, 8000, 0).unwrap();
            used += 8000;
        }
        assert_eq!(
            log.append(&mut flash, 8000, 0).unwrap_err(),
            KvError::DeviceFull
        );
    }

    #[test]
    fn would_overflow_tracks_free_bytes() {
        let (mut flash, mut log) = setup();
        assert!(log.free_bytes() >= 1000);
        assert!(log.free_bytes() < log.capacity_bytes() + 1);
        log.append(&mut flash, 8128, 0).unwrap();
        assert_eq!(log.free_bytes(), log.capacity_bytes() - 8128);
    }

    #[test]
    fn erased_blocks_return_least_worn_first_only_under_faults() {
        // A read-only fault model: wear matters, but no erase fails.
        let mut faulty = FlashConfig::small_test();
        faulty.fault = FaultModel {
            read_error_ppm: 1,
            ..FaultModel::disabled()
        };
        for (cfg, next) in [(FlashConfig::small_test(), 0), (faulty, 1)] {
            let mut flash = FlashSim::new(cfg);
            let mut alloc = BlockAllocator::new(0..2);
            let mut ledger = Ledger::new(0..2, 1, "value log");
            let b0 = alloc.alloc().unwrap();
            ledger.open(b0);
            let (_, freed) = ledger.erase(&mut flash, &mut alloc, b0, 0).unwrap();
            assert!(freed, "a clean erase frees the block");
            assert_eq!(flash.block_wear(b0), 1);
            // Block 0 now has one P/E cycle and block 1 none.
            assert_eq!(alloc.alloc(), Some(BlockId(next)));
        }
    }

    #[test]
    fn reclaim_retires_the_same_blocks_every_run() {
        // Half of all erases fail, so the erase order decides which blocks
        // retire; every run must retire the same set.
        let mut cfg = FlashConfig::small_test();
        cfg.fault = FaultModel {
            seed: 7,
            erase_fail_ppm: 500_000,
            ..FaultModel::disabled()
        };
        let retired = || {
            let mut flash = FlashSim::new(cfg);
            let mut log = log(16);
            let mut exts = Vec::new();
            while exts.last().is_none_or(|e: &Extent| e.block.0 < 9) {
                exts.push(log.append(&mut flash, 8128 * 64, 0).unwrap().0);
            }
            for e in exts.iter().filter(|e| e.block.0 < 9) {
                log.invalidate(*e, 8128 * 64);
            }
            log.reclaim(&mut flash, 0).unwrap();
            (0..16)
                .filter(|&b| log.alloc.is_retired(BlockId(b)))
                .collect::<Vec<_>>()
        };
        let first = retired();
        assert!(!first.is_empty(), "the fault model must retire some block");
        for _ in 0..20 {
            assert_eq!(retired(), first);
        }
    }
}
