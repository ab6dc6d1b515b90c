//! PinK's garbage collection: the data- and meta-block relocation steps
//! its `Engine::collect` hook picks between. A meta block's pages move
//! through [`PageArea::relocate`](crate::pagearea::PageArea::relocate).
//!
//! PinK's out-of-place updates strand dead KV pairs in the data area;
//! reclaiming a block means reading it, re-appending its live pairs, and
//! patching every meta segment that pointed at them — the dominant cost
//! the paper measures for PinK under update-heavy workloads (Table 3 shows
//! hundreds of millions of GC page reads where AnyKey has none).

use std::collections::BTreeSet;

use anykey_flash::{BlockId, Ns, OpCause, Ppa};

use crate::buffer::BufEntry;
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
        let mut reinsert: Vec<(u64, u32)> = Vec::new();
        let mut seen = BTreeSet::new();
        for e in self.levels.iter().flat_map(|l| &l.run.ents) {
            if !e.tombstone && e.ptr.block == victim && seen.insert(e.id) {
                // Only the newest version of a key counts as live; deeper
                // duplicates are garbage already.
                if self.newest_ptr(e.id).is_some_and(|p| p.block == victim)
                    && self.core.buffer.get(e.id).is_none()
                {
                    reinsert.push((e.id, e.value_len));
                }
            }
        }
        for (id, value_len) in reinsert {
            let entry = BufEntry {
                value_len,
                tombstone: false,
            };
            self.core.buffer.insert(id, entry, self.core.cfg.key_len);
        }
        let (flash, alloc) = (&mut self.core.flash, &mut self.data.alloc);
        let (done, _) = self.data.ledger.erase(flash, alloc, victim, t_read)?;
        self.core
            .push_span(snap, "gc", "relocate-data", 0, at, done);
        Ok(done)
    }

    /// The data pointer of the newest (shallowest) version of key `id`, if
    /// any.
    fn newest_ptr(&self, id: u64) -> Option<Extent> {
        for level in self.levels.iter().map(|l| &l.run) {
            if let Some(e) = level.entry_at(level.seek(id).1, id) {
                return (!e.tombstone).then_some(e.ptr);
            }
        }
        None
    }

    /// Relocates the live meta pages of a meta block, patches their
    /// owners and erases it.
    pub(crate) fn relocate_meta_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // Owners: spilled segments, then spilled level-list pages; a copy
        // goes to its owner's level stream.
        let (mut owners, mut lists) = (Vec::new(), Vec::new());
        for (li, level) in self.levels.iter_mut().enumerate() {
            let on_victim = |p: &&mut Ppa| p.block == victim;
            let segs = level.run.units.iter_mut().filter_map(|s| s.ppa.as_mut());
            owners.extend(segs.filter(on_victim).map(|p| (li, p)));
            let list = level.list_pages.iter_mut().filter(on_victim);
            lists.extend(list.map(|p| (li, p)));
        }
        owners.append(&mut lists);
        let units: Vec<_> = owners.iter().map(|(li, p)| (*li, **p, 1)).collect();
        let (alloc, flash) = (&mut self.data.alloc, &mut self.core.flash);
        let done = self
            .meta
            .relocate(alloc, flash, victim, &units, at, |i, ppa| {
                *owners[i].1 = ppa
            })?;
        self.core
            .push_span(snap, "gc", "relocate-meta", 0, at, done);
        Ok(done)
    }
}
