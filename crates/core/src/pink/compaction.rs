//! PinK's tree compaction and DRAM placement, behind the flush of
//! `PinkStore`'s engine hooks.
//!
//! PinK compaction merges *meta segments* only: KV pairs stay where the
//! L0 flush wrote them in the data area, and only the `(key, PPA)` index
//! moves. Under low-v/k workloads the index itself is huge and mostly
//! flash-resident, so even this "metadata-only" compaction reads and
//! rewrites large amounts of flash (the paper's Table 3).

use anykey_flash::{Ns, OpCause, Ppa};

use crate::device::{merge_newest, Source};
use crate::engine::Engine;
use crate::error::KvError;
use crate::level::{Entry, Level};
use crate::pink::segment::{self, SegEntry};
use crate::pink::{PinkLevel, PinkStore};

impl PinkStore {
    /// Merges `src` into level `dst`, rebuilding `dst`'s meta segments and
    /// re-planning DRAM placement.
    pub(crate) fn merge_levels(
        &mut self,
        src: Source<SegEntry>,
        dst: usize,
        at: Ns,
    ) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // Old meta generations are freed before the new one is written, so
        // the transient need is the destination's *growth* (the source's
        // meta volume) plus slack.
        let key_len = self.core.cfg.key_len;
        let growth = match src {
            Source::Level(si) => {
                self.levels[si].run.ents.len() as u64 * SegEntry::seg_bytes(key_len)
            }
            Source::Flush(_) => 0,
        };
        let t_head = self.open_compaction(growth, at)?;
        #[cfg(debug_assertions)]
        self.boundary_audit()?;

        // --- 1. Take inputs; read and free their spilled meta pages. ----
        let mut read_ppas: Vec<Ppa> = Vec::new();
        let mut freed_pages: Vec<Ppa> = Vec::new();
        let (upper, lower) = {
            let mut take_level = |level: &mut PinkLevel| -> Vec<SegEntry> {
                let PinkLevel { run, list_pages } = std::mem::take(level);
                for ppa in run.units.into_iter().flat_map(|s| s.ppa) {
                    read_ppas.push(ppa);
                    freed_pages.push(ppa);
                }
                freed_pages.extend(list_pages);
                run.ents
            };
            let upper = match src {
                Source::Level(si) => take_level(&mut self.levels[si]),
                Source::Flush(ents) => ents,
            };
            (upper, take_level(&mut self.levels[dst]))
        };
        let t_read = self
            .core
            .flash
            .read_many(read_ppas, OpCause::CompactionRead, t_head);
        let mut t_erase = t_read;
        for ppa in freed_pages {
            let (alloc, flash) = (&mut self.data.alloc, &mut self.core.flash);
            t_erase = t_erase.max(self.meta.free(alloc, flash, ppa.block, 1, t_read)?);
        }

        // --- 2. Merge newest-wins; dead pairs free data bytes. ---------
        let is_bottom = self.is_bottom(dst);
        // The spare input array is dead; it is freed before the merged
        // run is cut.
        let mut kv_bytes = 0;
        let (merged, _) = merge_newest(
            upper,
            lower,
            is_bottom,
            |dead| {
                self.data.invalidate(dead.ptr, dead.data_bytes(key_len));
                Ok(())
            },
            |e| {
                kv_bytes += e.kv_bytes(key_len);
                e
            },
        )?;

        // --- 3. Cut the merged run into page-sized segments. ------------
        let merged_count = merged.len() as u64;
        let segs = segment::cut_segments(&merged, self.core.page_payload, key_len);
        self.levels[dst].run = Level::with_kv_bytes(merged, segs, kv_bytes);

        // --- 4. Re-plan DRAM placement (charging spills/loads). ---------
        let t_place = self.rebalance(dst, t_read)?;

        self.close_compaction(snap, "merge", dst, at, t_place.max(t_erase), merged_count)
    }

    /// Recomputes which level lists and meta segments are DRAM-resident
    /// (write buffer first, then level lists in level order, then meta
    /// segments in level order), charging flash traffic for every
    /// structure that spills out of — or loads into — DRAM. A structure is
    /// resident exactly when it has no flash copy.
    ///
    /// `rebuilt`'s structures are brand new (its old pages were freed when
    /// the merge took its inputs): their spills are part of the compaction
    /// (CompactionWrite); other levels' spills are background metadata
    /// traffic (MetaWrite).
    pub(crate) fn rebalance(&mut self, rebuilt: usize, at: Ns) -> Result<Ns, KvError> {
        self.core.dram.clear_claims();
        let mut t = at;
        let cause = |li| {
            if li == rebuilt {
                OpCause::CompactionWrite
            } else {
                OpCause::MetaWrite
            }
        };

        // Pass 1: level lists.
        for li in 0..self.levels.len() {
            let want = self.levels[li].list_bytes(self.core.cfg.key_len);
            if want == 0 || self.core.dram.try_claim(want) {
                // Load into DRAM: read and release any flash copy.
                for ppa in std::mem::take(&mut self.levels[li].list_pages) {
                    t = t.max(self.load_page(ppa, at)?);
                }
            } else if self.levels[li].list_pages.is_empty() {
                let pages_needed = want.div_ceil(self.core.page_payload).max(1);
                let mut pages = Vec::with_capacity(pages_needed as usize);
                for _ in 0..pages_needed {
                    let (ppa, td) = self.spill_page(li, cause(li), at)?;
                    t = t.max(td);
                    pages.push(ppa);
                }
                self.levels[li].list_pages = pages;
            }
        }

        // Pass 2: meta segments, level order.
        let key_len = self.core.cfg.key_len;
        for li in 0..self.levels.len() {
            for si in 0..self.levels[li].run.units.len() {
                let bytes = self.levels[li].run.units[si].bytes(key_len);
                if self.core.dram.try_claim(bytes) {
                    if let Some(ppa) = self.levels[li].run.units[si].ppa.take() {
                        t = t.max(self.load_page(ppa, at)?);
                    }
                } else if self.levels[li].run.units[si].ppa.is_none() {
                    let (ppa, td) = self.spill_page(li, cause(li), at)?;
                    t = t.max(td);
                    self.levels[li].run.units[si].ppa = Some(ppa);
                }
            }
        }
        Ok(t)
    }

    /// Loads one spilled page back into DRAM from `at`: reads its flash
    /// copy, then frees the page. Returns when both are done.
    fn load_page(&mut self, ppa: Ppa, at: Ns) -> Result<Ns, KvError> {
        let read = self.core.flash.read(ppa, OpCause::MetaRead, at).done;
        let (alloc, flash) = (&mut self.data.alloc, &mut self.core.flash);
        Ok(read.max(self.meta.free(alloc, flash, ppa.block, 1, at)?))
    }

    /// Spills one page of level `li` from `at`: programs a page in the
    /// level's stream. Returns the page and when its program is done.
    fn spill_page(&mut self, li: usize, cause: OpCause, at: Ns) -> Result<(Ppa, Ns), KvError> {
        let (alloc, flash) = (&mut self.data.alloc, &mut self.core.flash);
        self.meta.write(alloc, flash, li, 1, cause, at)
    }
}
