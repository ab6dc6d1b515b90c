//! PinK's garbage collection: the data- and meta-block relocation steps
//! its `Engine::collect` hook picks between.
//!
//! PinK's out-of-place updates strand dead KV pairs in the data area;
//! reclaiming a block means reading it, re-appending its live pairs, and
//! patching every meta segment that pointed at them — the dominant cost
//! the paper measures for PinK under update-heavy workloads (Table 3 shows
//! hundreds of millions of GC page reads where AnyKey has none).

use std::collections::BTreeSet;

use anykey_flash::{BlockId, Ns, OpCause, Ppa};

use crate::bytelog::Extent;
use crate::error::KvError;
use crate::pink::PinkStore;

impl PinkStore {
    /// Collects a data block: reads it, re-inserts its live pairs through
    /// the write path (so meta segments are updated by normal compaction
    /// rather than patched in place — the reason the paper's Table 3 shows
    /// PinK with enormous GC *reads* but no GC writes), and erases it.
    pub(crate) fn relocate_data_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // The device reads the whole victim block to identify live pairs.
        let pages = self.core.flash.geometry().pages_per_block;
        let read_ppas = (0..pages).map(|p| Ppa {
            block: victim,
            page: p,
        });
        let t_read = self.core.flash.read_many(read_ppas, OpCause::GcRead, at);

        // Live pairs (not shadowed by a buffered newer version) go back
        // through the write buffer; their stale lower-level entries are
        // superseded immediately and dropped at the next merge.
        let mut reinsert: Vec<(crate::key::Key, u32)> = Vec::new();
        let mut seen = BTreeSet::new();
        for e in self.levels.iter().flat_map(|l| &l.entries) {
            if !e.tombstone && e.ptr.block == victim && seen.insert(e.key) {
                // Only the newest version of a key counts as live; deeper
                // duplicates are garbage already.
                if self.newest_ptr(e.key).is_some_and(|p| p.block == victim)
                    && self.core.buffer.get(&e.key).is_none()
                {
                    reinsert.push((e.key, e.value_len));
                }
            }
        }
        for (key, value_len) in reinsert {
            self.core.buffer.insert(
                key,
                crate::buffer::BufEntry {
                    value_len,
                    tombstone: false,
                },
            );
        }
        let (done, _) = self.data.erase(&mut self.core.flash, victim, t_read)?;
        self.core
            .push_span(snap, "gc", "relocate-data", 0, at, done);
        Ok(done)
    }

    /// The data pointer of the newest (shallowest) version of `key`, if
    /// any.
    fn newest_ptr(&self, key: crate::key::Key) -> Option<Extent> {
        for level in &self.levels {
            if let Some(si) = level.candidate(key) {
                if let Some(e) = level.segs[si].find(&level.entries, key) {
                    if e.tombstone {
                        return None;
                    }
                    return Some(e.ptr);
                }
            }
        }
        None
    }

    /// Relocates the live meta pages of a meta block and erases it.
    pub(crate) fn relocate_meta_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // Owners: spilled segments and spilled level-list pages, each with
        // the victim page it holds.
        let mut seg_owners: Vec<(usize, usize, Ppa)> = Vec::new();
        let mut list_owners: Vec<(usize, usize, Ppa)> = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (si, seg) in level.segs.iter().enumerate() {
                if let Some(p) = seg.ppa.filter(|p| p.block == victim) {
                    seg_owners.push((li, si, p));
                }
            }
            for (pi, &p) in level.list_pages.iter().enumerate() {
                if p.block == victim {
                    list_owners.push((li, pi, p));
                }
            }
        }
        let read_ppas = seg_owners.iter().chain(&list_owners).map(|o| o.2);
        let t_read = self.core.flash.read_many(read_ppas, OpCause::GcRead, at);
        let mut t = t_read;
        for (li, si, old) in seg_owners {
            t = t.max(self.free_meta_page(old, t_read)?);
            let (new, td) = self.program_meta_page(li, OpCause::GcWrite, t_read)?;
            t = t.max(td);
            self.levels[li].segs[si].ppa = Some(new);
        }
        for (li, pi, old) in list_owners {
            t = t.max(self.free_meta_page(old, t_read)?);
            let (new, td) = self.program_meta_page(li, OpCause::GcWrite, t_read)?;
            t = t.max(td);
            self.levels[li].list_pages[pi] = new;
        }
        // `free_meta_page` erased and freed the victim once its last live
        // page was released.
        self.core.push_span(snap, "gc", "relocate-meta", 0, at, t);
        Ok(t)
    }
}
