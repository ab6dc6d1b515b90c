//! Tree-triggered and log-triggered compaction (paper Sections 4.4.2–4.4.3
//! and the Section 4.7 AnyKey+ enhancement), behind the flush of
//! `AnyKeyStore`'s engine hooks.

use anykey_flash::{Ns, OpCause, Ppa};

use crate::anykey::entity::{Entity, ValueLoc};
use crate::anykey::gc::GROUP_STREAM;
use crate::anykey::group::{Group, GroupPacker};
use crate::anykey::level::Level;
use crate::anykey::AnyKeyStore;
use crate::device::{merge_newest, Source};
use crate::engine::Engine;
use crate::error::KvError;
use crate::level::Entry;

/// What a compaction does with values that live in the value log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum InlinePolicy {
    /// Tree-triggered compaction: pointers are copied, values stay put.
    Keep,
    /// Log-triggered compaction: every logged value of both levels is
    /// merged into the new data segment groups.
    InlineAll,
}

impl AnyKeyStore {
    /// Log-triggered compaction (Section 4.4.3): relieve the value log by
    /// moving logged values back into groups, then reclaim fully-invalid
    /// log blocks. AnyKey merges the level with the most logged bytes down
    /// with its values inlined. AnyKey+ avoids compaction chains (Section
    /// 4.7) by rewriting levels in place instead, deepest first.
    pub(crate) fn log_triggered_compaction(&mut self, at: Ns) -> Result<Ns, KvError> {
        if self.levels.iter().all(|l| l.logged_bytes() == 0) {
            // The log is full but no level references it — nothing can be
            // reclaimed.
            return Err(KvError::DeviceFull);
        }
        let mut t = at;
        if self.is_plus() {
            // Every level's pointer-holding groups are rebuilt with their
            // values inlined, deepest (oldest log content) first. No level
            // merge happens, so no destination can overflow its threshold —
            // the compaction chain of Figure 9a is avoided entirely, which
            // is the goal of the paper's θ-capped variant.
            let goal = self.log.as_ref().map_or(0, |l| l.capacity_bytes() / 2);
            for li in (0..self.levels.len()).rev() {
                if self.levels[li].logged_bytes() > 0 {
                    t = self.inline_rewrite_level(li, t)?;
                    t = self.reclaim_log(t)?;
                    // Deep levels own the oldest log blocks; stop as soon
                    // as enough space is free so the hot upper-level
                    // values can keep dying in the log instead of being
                    // inlined and re-copied by every tree merge.
                    if self.log.as_ref().is_some_and(|l| l.free_bytes() >= goal) {
                        break;
                    }
                }
            }
        } else {
            let src = self
                .levels
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| l.logged_bytes())
                .map_or(0, |(i, _)| i);
            // Merging the deepest level "down" would deepen the tree with a
            // whole-dataset rewrite; it is rewritten in place instead. Base
            // AnyKey rewrites the whole level — the expensive behaviour that
            // motivates the Section 4.7 enhancement.
            let last = self.levels.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
            let dst = if src >= last { src } else { src + 1 };
            t = self.compact(Source::Level(src), dst, InlinePolicy::InlineAll, t)?;
            t = self.reclaim_log(t)?;
        }
        // Base AnyKey: the inlined values may push the destination over its
        // threshold, immediately triggering a tree compaction — the
        // "compaction chain" of Figure 9a.
        let done = self.maintain(t)?;
        #[cfg(debug_assertions)]
        self.boundary_audit()?;
        Ok(done)
    }

    /// Erases the value-log blocks that hold no valid bytes.
    fn reclaim_log(&mut self, at: Ns) -> Result<Ns, KvError> {
        let log = self.log.as_mut().ok_or(KvError::Internal {
            context: "log-triggered compaction requires a log",
        })?;
        Ok(log.reclaim(&mut self.core.flash, at)?.1)
    }

    /// Marks the value of a logged entity dead in the value log.
    fn drop_logged(&mut self, e: &Entity) -> Result<(), KvError> {
        let ValueLoc::Logged(ptr) = e.loc() else {
            return Ok(());
        };
        let log = self.log.as_mut().ok_or(KvError::Internal {
            context: "logged value without a log",
        })?;
        log.invalidate(ptr, u64::from(e.value_len));
        Ok(())
    }

    /// Frees the pages of `groups`, erasing each block that empties;
    /// returns when the last erase completes (`at` if none ran).
    fn release_groups<'a>(
        &mut self,
        groups: impl IntoIterator<Item = &'a Group>,
        at: Ns,
    ) -> Result<Ns, KvError> {
        let mut done = at;
        for g in groups {
            let (alloc, flash) = (&mut self.group_alloc, &mut self.core.flash);
            let (block, pages) = (g.first_ppa.block, g.total_pages());
            done = done.max(self.area.free(alloc, flash, block, pages, at)?);
        }
        Ok(done)
    }

    /// A packer cutting groups of at most `group_pages` pages from index
    /// `start` of a level's array.
    fn packer(&self, start: usize) -> GroupPacker {
        let cfg = &self.core.cfg;
        let (payload, pages) = (self.core.page_payload, cfg.group_pages.max(2));
        GroupPacker::new(payload, pages, cfg.key_len, start)
    }

    /// Places and programs the packer's `groups`; returns when the last
    /// program completes.
    fn write_groups(&mut self, groups: &mut [Group], at: Ns) -> Result<Ns, KvError> {
        let mut done = at;
        for g in groups {
            let (alloc, flash) = (&mut self.group_alloc, &mut self.core.flash);
            let (pages, cause) = (g.total_pages(), OpCause::CompactionWrite);
            let (ppa, td) = self
                .area
                .write(alloc, flash, GROUP_STREAM, pages, cause, at)?;
            done = done.max(td);
            g.first_ppa = ppa;
        }
        Ok(done)
    }

    /// Rewrites, in place, every group of level `li` that references the
    /// value log, inlining those values. Inlining moves no entity, so each
    /// such group's range of the level's array is inlined where it lies and
    /// cut again on its own. Untouched groups (the vast majority in steady
    /// state) keep their records and their built layouts.
    pub(crate) fn inline_rewrite_level(&mut self, li: usize, at: Ns) -> Result<Ns, KvError> {
        let touched = |g: &Group| g.logged_bytes > 0;
        if !self.levels[li].units.iter().any(touched) {
            return Ok(at);
        }
        let snap = self.core.span_snapshot();
        let level = std::mem::take(&mut self.levels[li]);
        let kv_bytes = level.kv_bytes();
        let (mut ents, groups) = (level.ents, level.units);
        let read_ppas = groups
            .iter()
            .filter(|g| touched(g))
            .flat_map(|g| g.all_ppas().chain(log_pages(g.ents(&ents))));
        let (t_read, _) = self.core.read_set(read_ppas, OpCause::CompactionRead, at);

        // Inline each touched group's entities, marking their values dead
        // in the value log, cut them on their own, and free the group.
        let mut cuts: Vec<Vec<Group>> = Vec::new();
        let (mut count, mut t_erase) = (0u64, t_read);
        for g in groups.iter().filter(|g| touched(g)) {
            let range = &mut ents[g.start..g.end];
            for e in range.iter_mut() {
                self.drop_logged(e)?;
                e.set_loc(ValueLoc::Inline);
            }
            count += range.len() as u64;
            let mut packer = self.packer(g.start);
            range.iter().for_each(|e| packer.push(e));
            cuts.push(packer.finish());
            t_erase = t_erase.max(self.release_groups([g], t_read)?);
        }
        // Place each touched group's cuts where it stood.
        let placed = groups.len() + cuts.iter().map(Vec::len).sum::<usize>();
        let (mut out, mut cuts) = (Vec::with_capacity(placed), cuts.into_iter());
        let mut t_write = t_read;
        for g in groups {
            if !touched(&g) {
                out.push(g);
                continue;
            }
            let mut cut = cuts.next().ok_or(KvError::Internal {
                context: "a touched group without its cut",
            })?;
            t_write = t_write.max(self.write_groups(&mut cut, t_read)?);
            out.append(&mut cut);
        }
        // No seal: partial rewrites happen every log cycle, and sealing
        // here would strand block tails faster than GC reclaims them.
        // Inlining moves values, not logical bytes.
        self.levels[li] = Level::with_kv_bytes(ents, out, kv_bytes);
        self.rebalance_dram();
        self.close_compaction(snap, "inline-rewrite", li, at, t_write.max(t_erase), count)
    }

    /// Merges `src` into level `dst`, rebuilding `dst` as one new entity
    /// array cut into new data segment groups.
    pub(crate) fn compact(
        &mut self,
        src: Source<Entity>,
        dst: usize,
        policy: InlinePolicy,
        at: Ns,
    ) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        let span_label = match policy {
            InlinePolicy::Keep => "keep",
            InlinePolicy::InlineAll => "inline-all",
        };
        // Source blocks are freed before the output is written, so the
        // transient headroom need is modest: room for inlined values plus
        // packing slack.
        let growth = match &src {
            Source::Flush(ents) => {
                let key_len = self.core.cfg.key_len;
                ents.iter().map(|e| e.stored_bytes(key_len)).sum()
            }
            Source::Level(si) => self.levels[*si].logged_bytes(),
        };
        let at = self.open_compaction(growth, at)?;

        // --- 1. Gather inputs and their flash pages. -------------------
        // For an in-place rewrite of the deepest level, the lower input is
        // empty (the level was already taken as the upper input).
        let (upper, upper_groups, src_level) = match src {
            Source::Flush(ents) => (ents, Vec::new(), None),
            Source::Level(si) => {
                let level = std::mem::take(&mut self.levels[si]);
                (level.ents, level.units, Some(si))
            }
        };
        let lower = std::mem::take(&mut self.levels[dst]);
        let read_ppas = upper_groups.iter().chain(&lower.units);
        let read_ppas = read_ppas.flat_map(Group::all_ppas);
        let t_read = self
            .core
            .flash
            .read_many(read_ppas, OpCause::CompactionRead, at);

        // --- 2. Merge, newest-wins, tombstone elimination at the bottom. -
        // The merge writes over the input array with the larger capacity,
        // grown once by the other's length, with the inline policy applied:
        // log-triggered compaction moves every logged value inline, and
        // its log slot dies once the merge is done. The packer then cuts
        // the array.
        let is_bottom = self.is_bottom(dst);
        let key_len = self.core.cfg.key_len;
        let mut log_read_ppas: Vec<Ppa> = Vec::new();
        let mut inlined: Vec<Entity> = Vec::new();
        let mut kv_bytes = 0;
        let (ents, spare) = merge_newest(
            upper,
            lower.ents,
            is_bottom,
            |dead| self.drop_logged(dead),
            |mut e| {
                kv_bytes += e.kv_bytes(key_len);
                if let (InlinePolicy::InlineAll, ValueLoc::Logged(ptr)) = (policy, e.loc()) {
                    log_read_ppas.extend(ptr.pages());
                    inlined.push(e);
                    e.set_loc(ValueLoc::Inline);
                }
                e
            },
        )?;
        let mut packer = self.packer(0);
        ents.iter().for_each(|e| packer.push(e));
        let mut groups = packer.finish();

        // --- 3. Retire the inlined values' log slots. ------------------
        for e in &inlined {
            self.drop_logged(e)?;
        }
        // Value reads on behalf of a compaction are compaction traffic
        // (Table 3 semantics) and run at background priority.
        let (t_log, _) = self
            .core
            .read_set(log_read_ppas, OpCause::CompactionRead, t_read);
        let t_inputs = t_read.max(t_log);

        // --- 4. Free the source blocks before writing output. ----------
        let t_erase = self.release_groups(&upper_groups, t_inputs)?;
        let t_erase = t_erase.max(self.release_groups(&lower.units, t_inputs)?);
        // An emptied source level keeps the spare array for its next fill,
        // so level arrays are reused instead of being freed and allocated
        // again (DESIGN.md §4).
        if let Some(si) = src_level.filter(|&si| si != dst) {
            self.levels[si].ents = spare;
        }

        // --- 5. Place the new groups. ----------------------------------
        let t_write = self.write_groups(&mut groups, t_inputs)?;
        self.area.seal(GROUP_STREAM); // keep blocks single-level (Section 4.4.4)

        // --- 6. Install the new level. ---------------------------------
        let merged_count = ents.len() as u64;
        self.levels[dst] = Level::with_kv_bytes(ents, groups, kv_bytes);
        self.rebalance_dram();

        // --- 7. CPU merge-sort cost and GC headroom. --------------------
        let done = t_write.max(t_erase);
        self.close_compaction(snap, span_label, dst, at, done, merged_count)
    }
}

/// The value-log pages holding the logged values among `ents`.
fn log_pages(ents: &[Entity]) -> impl Iterator<Item = Ppa> + '_ {
    ents.iter()
        .filter_map(|e| match e.loc() {
            ValueLoc::Logged(ptr) => Some(ptr.pages()),
            ValueLoc::Inline => None,
        })
        .flatten()
}
