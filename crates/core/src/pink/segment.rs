//! PinK's meta segments.
//!
//! PinK (the state-of-the-art baseline the paper compares against) keeps a
//! sorted array of `(key, PPA)` pairs — a *meta segment* — per page-sized
//! unit of its LSM-tree levels, plus a *level list* entry (first key +
//! location) per segment. Upper-level meta segments are pinned in DRAM;
//! the rest live in flash, in meta pages of a
//! [`PageArea`](crate::pagearea::PageArea), and cost a flash read per
//! probe. KV pairs themselves are packed into *data segments* (plain flash
//! pages) of a [`ByteLog`](crate::bytelog::ByteLog), the data area.

use anykey_flash::Ppa;

use crate::bytelog::Extent;

/// Fixed per-entry overhead in a meta segment beyond the key bytes: a
/// 4-byte PPA and 2 bytes of length/flags.
pub const SEG_ENTRY_OVERHEAD: u64 = 6;
/// Bytes per level-list entry beyond the first key: segment location.
pub const LIST_ENTRY_OVERHEAD: u64 = 5;

/// One sorted entry of a meta segment: 24 bytes on the host, the key
/// being its id (the length is the device's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEntry {
    /// The key id.
    pub id: u64,
    /// Value length (0 for tombstones).
    pub value_len: u32,
    /// Where the KV pair lives in the data area (no pages for tombstones).
    pub ptr: Extent,
    /// Deletion marker.
    pub tombstone: bool,
}

const _: () = assert!(std::mem::size_of::<SegEntry>() == 24);

impl SegEntry {
    /// Logical KV bytes of this entry, its key being `key_len` bytes long.
    pub fn kv_bytes(&self, key_len: u16) -> u64 {
        if self.tombstone {
            u64::from(key_len)
        } else {
            u64::from(key_len) + self.value_len as u64
        }
    }

    /// Bytes an entry with a `key_len`-byte key occupies in its meta
    /// segment: every entry of a device takes the same.
    pub fn seg_bytes(key_len: u16) -> u64 {
        u64::from(key_len) + SEG_ENTRY_OVERHEAD
    }

    /// Bytes the KV pair occupies in the data area.
    pub fn data_bytes(&self, key_len: u16) -> u64 {
        if self.tombstone {
            0
        } else {
            u64::from(key_len) + self.value_len as u64 + SEG_ENTRY_OVERHEAD
        }
    }
}

/// A page-sized slice of a level's key-ordered entry run (see
/// [`PinkLevel::entries`](crate::pink::PinkLevel::entries)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The key id of the segment's first entry, cached when the segment
    /// is cut: its level-list key, which the level search compares against
    /// without touching the run.
    pub first: u64,
    /// Index of the segment's first entry in its level's run.
    pub start: usize,
    /// One past the segment's last entry.
    pub end: usize,
    /// Bytes of the segment's entries ([`SegEntry::seg_bytes`] summed),
    /// cached when the segment is cut.
    pub bytes: u64,
    /// Flash location when spilled; `None` exactly when the segment is
    /// pinned in DRAM.
    pub ppa: Option<Ppa>,
}

impl Segment {
    /// The segment's entries within its level's run.
    pub fn entries<'a>(&self, run: &'a [SegEntry]) -> &'a [SegEntry] {
        &run[self.start..self.end]
    }

    /// Bytes of this segment's entries.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Cuts a key-ordered run of entries with `key_len`-byte keys into
/// page-sized segments of as many entries as fit `payload` bytes (at least
/// one), none placed yet: the next DRAM rebalance pins or spills each.
pub fn cut_segments(run: &[SegEntry], payload: u64, key_len: u16) -> Vec<Segment> {
    let sz = SegEntry::seg_bytes(key_len);
    let per = (payload / sz).max(1) as usize;
    let starts = (0..run.len()).step_by(per);
    starts
        .map(|start| {
            let end = (start + per).min(run.len());
            Segment {
                first: run[start].id,
                start,
                end,
                bytes: (end - start) as u64 * sz,
                ppa: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytelog::ByteLog;
    use crate::error::KvError;
    use crate::pagearea::PageArea;
    use crate::pink::PinkLevel;
    use anykey_flash::{BlockAllocator, BlockId, FlashConfig, FlashSim, OpCause};

    /// A flash device and a data area built the way PinK builds it.
    fn setup() -> (FlashSim, ByteLog) {
        (
            FlashSim::new(FlashConfig::small_test()),
            ByteLog::new(
                BlockAllocator::new(0..8),
                8128,
                128,
                OpCause::CompactionWrite,
                "data area",
            ),
        )
    }

    #[test]
    fn data_append_packs_pages() {
        let (mut flash, mut data) = setup();
        let (a, _) = data.append(&mut flash, 100, 0).unwrap();
        let (b, _) = data.append(&mut flash, 100, 0).unwrap();
        assert_eq!(a.block, b.block);
        assert_eq!(a.page, b.page);
        assert_eq!(data.valid_bytes(), 200);
    }

    #[test]
    fn data_pairs_span_pages() {
        let (mut flash, mut data) = setup();
        data.append(&mut flash, 8000, 0).unwrap();
        let (p, _) = data.append(&mut flash, 1000, 0).unwrap();
        assert_eq!(p.pages, 2);
        assert_eq!(p.pages().count(), 2);
    }

    #[test]
    fn data_victim_prefers_least_valid() {
        let (mut flash, mut data) = setup();
        // Fill one block and invalidate most of it.
        let block_payload = 8128 * 128u64;
        let mut first = None;
        let mut used = 0;
        while used + 8000 <= block_payload + 8000 {
            let (p, _) = data.append(&mut flash, 8000, 0).unwrap();
            if first.is_none() {
                first = Some(p.block);
            }
            if p.block == first.unwrap() {
                data.invalidate(p, 8000);
            }
            used += 8000;
        }
        let (victim, valid) = data.ledger.victim().unwrap();
        assert_eq!(victim, first.unwrap());
        assert_eq!(valid, 0);
    }

    /// Writes one meta page in stream 0 the way PinK does.
    fn write_page(meta: &mut PageArea, alloc: &mut BlockAllocator, flash: &mut FlashSim) -> Ppa {
        let cause = OpCause::CompactionWrite;
        meta.write(alloc, flash, 0, 1, cause, 0).unwrap().0
    }

    #[test]
    fn meta_area_allocates_and_recycles_pages() {
        let (mut flash, mut data) = setup();
        let alloc = &mut data.alloc;
        let mut meta = PageArea::new(0..8, 128, "meta area");
        let pages: Vec<Ppa> = (0..130)
            .map(|_| write_page(&mut meta, alloc, &mut flash))
            .collect();
        // 130 pages span two blocks.
        assert_eq!(alloc.allocated_count(), 2);
        assert_ne!(pages[0].block, pages[129].block);
        // Free the first block's pages; it should be erased.
        let freed = alloc.free_count();
        for p in &pages[..128] {
            meta.free(alloc, &mut flash, p.block, 1, 0).unwrap();
        }
        assert_eq!(alloc.free_count(), freed + 1);
        assert_eq!(flash.counters().erases(), 1);
    }

    #[test]
    fn meta_page_double_free_is_an_error() {
        let (mut flash, mut data) = setup();
        let alloc = &mut data.alloc;
        let mut meta = PageArea::new(0..8, 128, "meta area");
        let p = write_page(&mut meta, alloc, &mut flash);
        meta.free(alloc, &mut flash, p.block, 1, 0).unwrap();
        assert_eq!(
            meta.free(alloc, &mut flash, p.block, 1, 0),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "meta area",
            })
        );
        assert_eq!(meta.units_in(p.block), 0);
    }

    #[test]
    fn forgetting_a_live_meta_block_is_an_error() {
        // Relocating a block without naming its live page would erase it.
        let (mut flash, mut data) = setup();
        let alloc = &mut data.alloc;
        let mut meta = PageArea::new(0..8, 128, "meta area");
        let p = write_page(&mut meta, alloc, &mut flash);
        assert!(matches!(
            meta.relocate(alloc, &mut flash, p.block, &[], 0, |_, _| {}),
            Err(KvError::LiveCountSkew { .. })
        ));
        assert_eq!(meta.units_in(p.block), 1, "the block stays tracked");
        assert_eq!(flash.counters().erases(), 0);
    }

    fn entry(id: u64) -> SegEntry {
        SegEntry {
            id,
            value_len: 50,
            ptr: Extent {
                block: BlockId(0),
                page: 0,
                pages: 1,
            },
            tombstone: false,
        }
    }

    /// Every field reads back as built at the extremes of the 24-byte
    /// layout (a tombstone, a 0-byte live value, the last page of a
    /// 65,536-page block, the most pages an extent holds), and the byte
    /// counts take the key length from the caller.
    #[test]
    fn entries_round_trip_at_the_extremes() {
        let cases = [
            (u64::MAX, u32::MAX, 65_535, u8::MAX, false),
            (0, 0, 0, 0, true),
            (7, 0, 9, 1, false),
            (8, 4096, 65_535, 1, false),
        ];
        for (id, value_len, page, pages, tombstone) in cases {
            let ptr = Extent {
                block: BlockId(u32::MAX - 1),
                page,
                pages,
            };
            let e = SegEntry {
                id,
                value_len,
                ptr,
                tombstone,
            };
            let copy = e;
            assert_eq!(
                (copy.id, copy.value_len, copy.ptr, copy.tombstone),
                (id, value_len, ptr, tombstone)
            );
            let value = if tombstone { 0 } else { u64::from(value_len) };
            assert_eq!(e.kv_bytes(24), 24 + value);
            let data = if tombstone {
                0
            } else {
                24 + value + SEG_ENTRY_OVERHEAD
            };
            assert_eq!(e.data_bytes(24), data);
        }
        assert_eq!(SegEntry::seg_bytes(24), 24 + SEG_ENTRY_OVERHEAD);
    }

    /// A level over `run` with `key_len`-byte keys, cut by
    /// [`cut_segments`].
    fn level(run: Vec<SegEntry>, payload: u64, key_len: u16) -> PinkLevel {
        let mut level = PinkLevel::default();
        level.set_run(run, payload, key_len);
        level
    }

    #[test]
    fn segment_find_is_exact() {
        // Two segments over one run: a key is found only inside its own
        // segment's range.
        let run: Vec<SegEntry> = (0..100u64).map(|id| entry(id * 2)).collect();
        let l = level(run, 50 * (16 + SEG_ENTRY_OVERHEAD), 16);
        assert_eq!(l.segs.len(), 2);
        let find = |id| {
            let (si, pos) = l.seek(id);
            (si, l.entry_at(pos, id).map(|e| e.id))
        };
        assert_eq!(find(42), (Some(0), Some(42)));
        assert_eq!(find(43), (Some(0), None));
        assert_eq!(find(100), (Some(1), Some(100)));
        assert_eq!(find(101), (Some(1), None));
        assert_eq!(find(199), (Some(1), None));
        assert_eq!(l.segs[1].first, 100);
        assert_eq!(l.segs[1].entries(&l.entries)[0].id, 100);
        assert_eq!(l.segs[0].bytes(), 50 * (16 + SEG_ENTRY_OVERHEAD));
    }

    /// Reference lookup: the level-list search over each segment's first
    /// entry in the run, then a binary search of the candidate segment, as
    /// levels were searched before segments cached their first keys.
    /// Returns the candidate segment, the hit's index in the run and the
    /// scan start (first segment that can hold keys ≥ `key`, first entry ≥
    /// `key`).
    fn reference_seek(l: &PinkLevel, id: u64) -> (Option<usize>, Option<usize>, (usize, usize)) {
        let run = &l.entries;
        let candidate = l
            .segs
            .partition_point(|s| run[s.start].id <= id)
            .checked_sub(1);
        let hit = candidate.and_then(|si| {
            let seg = &l.segs[si];
            let at = seg.entries(run).binary_search_by(|e| e.id.cmp(&id));
            at.ok().map(|i| seg.start + i)
        });
        let first = match candidate {
            Some(i) if run[l.segs[i].end - 1].id >= id => i,
            Some(i) => i + 1,
            None => 0,
        };
        let from = l.segs.get(first).map_or(run.len(), |seg| {
            seg.start + seg.entries(run).partition_point(|e| e.id < id)
        });
        (candidate, hit, (first, from))
    }

    #[test]
    fn seek_matches_reference_on_seeded_runs() {
        let mut rng = anykey_workload::SplitMix64::new(0x5EE);
        for seed in 0..16u64 {
            let n = [0, 1, 2, 40, 3_000][seed as usize % 5] + rng.next_bounded(200) as usize;
            let key_len = [16u16, 24, 48][seed as usize % 3];
            let payload = [64u64, 2048, 8128][seed as usize % 3];
            // Gaps of 1..=4 ids, with a few wide jumps between clusters.
            let mut id = rng.next_bounded(50);
            let run: Vec<SegEntry> = (0..n)
                .map(|_| {
                    id += 1 + rng.next_bounded(4);
                    if rng.next_bounded(100) == 0 {
                        id += 10_000;
                    }
                    entry(id)
                })
                .collect();
            let l = level(run, payload, key_len);
            // Present keys and their neighbours (gaps inside segments),
            // keys around every segment's first key (gaps between
            // segments), keys before the first and after the last, and a
            // few random ids.
            let last = l.entries.last().map_or(0, |e| e.id);
            let mut ids = std::collections::BTreeSet::from([0, last + 1, last + 2]);
            for e in &l.entries {
                ids.extend(e.id.saturating_sub(1)..=e.id + 1);
            }
            for s in &l.segs {
                ids.extend(s.first.saturating_sub(2)..=s.first + 2);
            }
            ids.extend((0..200).map(|_| rng.next_bounded(last + 3)));
            for id in ids {
                let ctx = format!("seed {seed}: {n} entries, payload {payload}, key {id}");
                let (candidate, hit, scan) = reference_seek(&l, id);
                let (si, pos) = l.seek(id);
                assert_eq!(si, candidate, "{ctx}: segment");
                let got_hit = l.entry_at(pos, id).map(|_| pos);
                assert_eq!(got_hit, hit, "{ctx}: hit");
                assert_eq!(l.scan_from(id), scan, "{ctx}: scan start");
            }
        }
    }

    /// Reference cut: each segment's entries copied into a `Vec` of its
    /// own, as segments were stored before the level's run became one
    /// array.
    fn reference_cut(run: &[SegEntry], payload: u64, key_len: u16) -> Vec<Vec<SegEntry>> {
        let mut segs: Vec<Vec<SegEntry>> = Vec::new();
        let mut cur: Vec<SegEntry> = Vec::new();
        let mut cur_bytes = 0u64;
        for &e in run {
            let sz = SegEntry::seg_bytes(key_len);
            if !cur.is_empty() && cur_bytes + sz > payload {
                segs.push(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            cur_bytes += sz;
            cur.push(e);
        }
        if !cur.is_empty() {
            segs.push(cur);
        }
        segs
    }

    #[test]
    fn cut_matches_reference_on_seeded_runs() {
        let mut rng = anykey_workload::SplitMix64::new(0x5E6);
        for seed in 0..12u64 {
            let n = [0, 1, 2, 3, 500, 20_000][seed as usize % 6] + rng.next_bounded(300) as usize;
            let key_len = [8u16, 24, 48, 128][seed as usize % 4];
            let payload = [64u64, 2048, 8128][seed as usize % 3];
            let mut id = 0u64;
            let run: Vec<SegEntry> = (0..n)
                .map(|_| {
                    id += 1 + rng.next_bounded(5);
                    entry(id)
                })
                .collect();
            let got = cut_segments(&run, payload, key_len);
            let want = reference_cut(&run, payload, key_len);
            let ctx = format!("seed {seed}: {n} entries, key {key_len} B, payload {payload}");
            assert_eq!(got.len(), want.len(), "{ctx}: segment count");
            let mut next = 0;
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.start, next, "{ctx}: segment {i} start");
                assert_eq!(g.entries(&run), &w[..], "{ctx}: segment {i} entries");
                let bytes = w.len() as u64 * SegEntry::seg_bytes(key_len);
                assert_eq!(g.bytes(), bytes, "{ctx}: segment {i} bytes");
                assert!(g.ppa.is_none(), "{ctx}: segment {i} placement");
                next = g.end;
            }
            assert_eq!(next, run.len(), "{ctx}: segments tile the run");
        }
    }
}
