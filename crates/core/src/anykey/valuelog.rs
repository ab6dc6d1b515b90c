//! Tests of the value log (paper Section 4.3) as AnyKey builds it: a
//! [`ByteLog`] over its own block range whose page programs count as
//! `LogWrite`.

mod tests {
    use anykey_flash::{BlockAllocator, FlashConfig, FlashSim, OpCause};

    use crate::bytelog::ByteLog;
    use crate::error::KvError;

    fn log(blocks: u32) -> ByteLog {
        // Blocks of 128 pages x 8128B payload.
        ByteLog::new(BlockAllocator::new(0..blocks), 8128, 128, OpCause::LogWrite)
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
        assert!(!log.would_overflow(1000));
        assert!(log.would_overflow(log.capacity_bytes() + 1));
        log.append(&mut flash, 8128, 0).unwrap();
        assert_eq!(log.free_bytes(), log.capacity_bytes() - 8128);
    }
}
