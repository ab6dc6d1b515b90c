//! Flush, tree-triggered and log-triggered compaction (paper Sections
//! 4.4.2–4.4.3 and the Section 4.7 AnyKey+ enhancement).

use anykey_flash::{Ns, OpCause, Ppa};

use crate::anykey::entity::{Entity, ValueLoc};
use crate::anykey::gc::GROUP_STREAM;
use crate::anykey::group::{pack_groups, Group};
use crate::anykey::level::Level;
use crate::anykey::AnyKeyStore;
use crate::config::{LEVEL_RATIO, SORT_NS_PER_ENTITY, THETA};
use crate::device::merge_newest;
use crate::error::KvError;

/// What a compaction does with values that live in the value log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum InlinePolicy {
    /// Tree-triggered compaction: pointers are copied, values stay put.
    Keep,
    /// Log-triggered compaction: every logged value of both levels is
    /// merged into the new data segment groups.
    InlineAll,
}

/// Where the upper input of a compaction comes from.
pub(crate) enum Source {
    /// An L0 flush: entities assembled from the write buffer.
    Flush(Vec<Entity>),
    /// A whole LSM level.
    Level(usize),
}

impl AnyKeyStore {
    /// Flushes the write buffer into L1 (an L0→L1 compaction), securing
    /// value-log space first and cascading tree compactions afterwards.
    pub(crate) fn flush(&mut self, at: Ns) -> Result<Ns, KvError> {
        if self.core.buffer.is_empty() {
            return Ok(at);
        }
        let snap = self.core.span_snapshot();
        let mut t = self.gc_if_needed(at)?;

        // Secure log space for the incoming values (log-triggered
        // compaction trigger, Section 4.4.3).
        let need = self.core.buffer.pending_value_bytes();
        if self.log.is_some() && need > 0 {
            let mut rounds = 0usize;
            while self.log.as_ref().is_some_and(|l| l.would_overflow(need)) {
                rounds += 1;
                if rounds > self.levels.len() + 2 {
                    return Err(KvError::DeviceFull);
                }
                // AnyKey+ escalates from in-place rewrites to a level
                // merge if they are not reclaiming enough space.
                t = self.log_triggered_compaction(t, rounds > 2)?;
            }
        }

        // Assemble entities; values go to the value log first (Section
        // 4.4.2), or inline for AnyKey−.
        let entries = self.core.buffer.drain();
        let mut ents = Vec::with_capacity(entries.len());
        let mut t_log = t;
        for (key, be) in entries {
            let loc = match self.log.as_mut() {
                Some(log) if !be.tombstone && be.value_len > 0 => {
                    let (ptr, done) =
                        log.append(&mut self.core.flash, u64::from(be.value_len), t)?;
                    t_log = t_log.max(done);
                    ValueLoc::Logged(ptr)
                }
                _ => ValueLoc::Inline,
            };
            ents.push(Entity {
                key,
                hash: key.hash32(),
                value_len: be.value_len,
                loc,
                tombstone: be.tombstone,
                span_extra: 0,
            });
        }
        let t_ack = self.compact(Source::Flush(ents), 0, InlinePolicy::Keep, t_log)?;
        // Deeper tree compactions run pipelined in the background: they
        // consume chip time (and therefore delay future flushes through
        // the background queues), but the buffer is available again once
        // the L0->L1 merge lands.
        self.maintain(t_ack)?;
        self.core.push_span(snap, "flush", "buffer", 0, at, t_ack);
        #[cfg(debug_assertions)]
        self.verify_invariants()?;
        Ok(t_ack)
    }

    /// Cascades tree-triggered compactions while any level exceeds its
    /// threshold.
    pub(crate) fn maintain(&mut self, at: Ns) -> Result<Ns, KvError> {
        let mut t = at;
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].over_threshold() {
                self.ensure_next_level(i);
                t = self.compact(Source::Level(i), i + 1, InlinePolicy::Keep, t)?;
            } else {
                i += 1;
            }
        }
        Ok(t)
    }

    fn ensure_next_level(&mut self, i: usize) {
        if i + 1 == self.levels.len() {
            let threshold = self.levels[i].threshold * LEVEL_RATIO;
            self.levels.push(Level::new(threshold));
        }
    }

    /// Log-triggered compaction (Section 4.4.3): pick a source level, merge
    /// it down with its values inlined, then reclaim fully-invalid log
    /// blocks. AnyKey selects the level with the most *valid* logged bytes.
    /// AnyKey+ avoids compaction chains (Section 4.7) by rewriting levels in
    /// place; only an escalated round merges, picking the source level whose
    /// dead log bytes plus θ-scored absorbable live bytes are largest.
    pub(crate) fn log_triggered_compaction(
        &mut self,
        at: Ns,
        escalate: bool,
    ) -> Result<Ns, KvError> {
        let last_idx = self.levels.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
        if self.is_plus() && !escalate {
            // AnyKey+ relieves the log with in-place partial rewrites:
            // every level's pointer-holding groups are rebuilt with their
            // values inlined, deepest (oldest log content) first. No level
            // merge happens, so no destination can overflow its threshold —
            // the compaction chain of Figure 9a is avoided entirely, which
            // is the goal of the paper's θ-capped variant.
            if self.levels.iter().all(|l| l.logged_bytes == 0) {
                return Err(KvError::DeviceFull);
            }
            let mut t = at;
            let goal = self
                .log
                .as_ref()
                .map(|l| l.capacity_bytes() / 2)
                .unwrap_or(0);
            for li in (0..self.levels.len()).rev() {
                if self.levels[li].logged_bytes > 0 {
                    t = self.inline_rewrite_level(li, t)?;
                    let log = self.log.as_mut().ok_or(KvError::Internal {
                        context: "log-triggered compaction requires a log",
                    })?;
                    let (_, tr) = log.reclaim(&mut self.core.flash, t)?;
                    t = tr;
                    // Deep levels own the oldest log blocks; stop as soon
                    // as enough space is free so the hot upper-level
                    // values can keep dying in the log instead of being
                    // inlined and re-copied by every tree merge.
                    if self.log.as_ref().is_some_and(|l| l.free_bytes() >= goal) {
                        break;
                    }
                }
            }
            let done = self.maintain(t)?;
            #[cfg(debug_assertions)]
            self.verify_invariants()?;
            return Ok(done);
        }
        let pick = if self.is_plus() {
            // AnyKey+ targets reclaimable log space (Section 4.7): the dead
            // bytes a level's updates stranded in the log, plus the live
            // bytes its destination can absorb below θ × threshold — a
            // level whose destination already sits there scores nothing.
            let mut best: Option<(u64, usize)> = None;
            for (i, l) in self.levels.iter().enumerate() {
                if l.logged_bytes == 0 && l.invalid_logged == 0 {
                    continue;
                }
                let inlineable = if i >= last_idx {
                    // In-place partial rewrite of the deepest level: no
                    // threshold interaction.
                    l.logged_bytes
                } else {
                    let dst = &self.levels[i + 1];
                    let room = ((THETA * dst.threshold as f64) as u64)
                        .saturating_sub(l.phys_bytes + dst.phys_bytes);
                    room.min(l.logged_bytes + dst.logged_bytes)
                };
                // A level whose live values cannot be absorbed reclaims
                // nothing, however many dead bytes it left in the log.
                if inlineable == 0 {
                    continue;
                }
                let score = inlineable + l.invalid_logged;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, i));
                }
            }
            best.map(|(_, i)| i)
        } else {
            None
        };
        let fallback = self
            .levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.logged_bytes > 0)
            .max_by_key(|(_, l)| l.logged_bytes)
            .map(|(i, _)| i);
        // When no destination can absorb anything, AnyKey+ falls back to
        // rewriting the most-logged level's affected groups in place — a
        // log-relieving move with no threshold interaction.
        let target = pick.or(fallback);
        let Some(src) = target else {
            // The log is full but no level references it — nothing can be
            // reclaimed.
            return Err(KvError::DeviceFull);
        };
        // Merging the deepest level "down" would deepen the tree with a
        // whole-dataset rewrite; instead, rewrite in place only the groups
        // of that level that still reference the log — same reclaim, a
        // fraction of the work.
        let last = last_idx.max(src.min(last_idx));
        let t = if src >= last {
            if self.is_plus() {
                // AnyKey+ rewrites only the groups that reference the log.
                self.inline_rewrite_level(src, at)?
            } else {
                // Base AnyKey rewrites the whole level — the expensive
                // behaviour that motivates the Section 4.7 enhancement.
                self.compact(Source::Level(src), src, InlinePolicy::InlineAll, at)?
            }
        } else {
            self.compact(Source::Level(src), src + 1, InlinePolicy::InlineAll, at)?
        };
        let log = self.log.as_mut().ok_or(KvError::Internal {
            context: "log-triggered compaction requires a log",
        })?;
        let (_, t) = log.reclaim(&mut self.core.flash, t)?;
        // Base AnyKey: the inlined values may push the destination over its
        // threshold, immediately triggering a tree compaction — the
        // "compaction chain" of Figure 9a.
        let done = self.maintain(t)?;
        #[cfg(debug_assertions)]
        self.verify_invariants()?;
        Ok(done)
    }

    /// Marks the value of a logged entity dead in the value log; returns
    /// the bytes it held there (0 for an inline value).
    fn drop_logged(&mut self, e: &Entity) -> Result<u64, KvError> {
        let ValueLoc::Logged(ptr) = e.loc else {
            return Ok(0);
        };
        let log = self.log.as_mut().ok_or(KvError::Internal {
            context: "logged value without a log",
        })?;
        log.invalidate(ptr, u64::from(e.value_len));
        Ok(u64::from(e.value_len))
    }

    /// Rewrites, in place, every group of level `li` that references the
    /// value log, inlining those values. Used when the log-triggered
    /// target is the deepest level: untouched groups (the vast majority in
    /// steady state) are not rewritten.
    pub(crate) fn inline_rewrite_level(&mut self, li: usize, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // Pass 1: collect pages to read.
        let mut read_ppas: Vec<Ppa> = Vec::new();
        for g in &self.levels[li].groups {
            if g.content.logged_bytes > 0 {
                read_ppas.extend(g.all_ppas());
                for e in &g.content.ents {
                    if let ValueLoc::Logged(ptr) = e.loc {
                        read_ppas.extend(ptr.pages());
                    }
                }
            }
        }
        if read_ppas.is_empty() {
            return Ok(at);
        }
        read_ppas.sort_unstable();
        read_ppas.dedup();
        let t_read = self
            .core
            .flash
            .read_many(read_ppas, OpCause::CompactionRead, at);

        // Pass 2: free the touched groups and collect their entities.
        let old = std::mem::take(&mut self.levels[li].groups);
        let mut out: Vec<Group> = Vec::with_capacity(old.len());
        let mut runs: Vec<Vec<Entity>> = Vec::new();
        let mut t_erase = t_read;
        let mut count = 0u64;
        for g in old {
            if g.content.logged_bytes == 0 {
                out.push(g);
                continue;
            }
            let mut ents: Vec<Entity> = g.content.iter_key_order().copied().collect();
            for e in &mut ents {
                self.drop_logged(e)?;
                e.loc = ValueLoc::Inline;
            }
            count += ents.len() as u64;
            let pages = g.content.total_pages();
            runs.push(ents);
            if self.area.release(g.first_ppa.block, pages)? {
                t_erase = t_erase.max(self.area.erase_empty(
                    &mut self.group_alloc,
                    &mut self.core.flash,
                    g.first_ppa.block,
                    t_read,
                )?);
            }
        }

        // Pass 3: rebuild and place.
        let mut t_write = t_read;
        for ents in runs {
            for c in pack_groups(
                &ents,
                self.core.page_payload,
                self.core.cfg.group_pages.max(2),
            ) {
                let (ppa, td) =
                    self.place_group(c.total_pages(), OpCause::CompactionWrite, t_read)?;
                t_write = t_write.max(td);
                out.push(Group::new(c, ppa));
            }
        }
        // No seal: partial rewrites happen every log cycle, and sealing
        // here would strand block tails faster than GC reclaims them.
        out.sort_by_key(|g| g.content.smallest());
        self.levels[li].groups = out;
        self.levels[li].recount();
        self.levels[li].invalid_logged = 0;
        self.rebalance_dram();
        let done = t_write.max(t_erase) + count * SORT_NS_PER_ENTITY;
        let done = done.max(self.gc_if_needed(done)?);
        self.core
            .push_span(snap, "compaction", "inline-rewrite", li as u32, at, done);
        Ok(done)
    }

    /// Merges `src` into level `dst`, rebuilding `dst`'s data segment
    /// groups.
    pub(crate) fn compact(
        &mut self,
        src: Source,
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
        let growth_blocks = match &src {
            Source::Flush(ents) => {
                let bytes: u64 = ents.iter().map(Entity::stored_bytes).sum();
                (bytes / self.core.flash.geometry().block_bytes()) as usize + 2
            }
            Source::Level(si) => {
                (self.levels[*si].logged_bytes / self.core.flash.geometry().block_bytes()) as usize
                    + 2
            }
        };
        let at = self.gc_for_headroom(at, growth_blocks)?.max(at);

        // --- 1. Gather inputs and their flash pages. -------------------
        let mut read_ppas: Vec<Ppa> = Vec::new();
        let (upper, src_groups, src_idx, src_inv) = match src {
            Source::Flush(ents) => (ents, None, None, 0),
            Source::Level(si) => {
                let groups = std::mem::take(&mut self.levels[si].groups);
                for g in &groups {
                    read_ppas.extend(g.all_ppas());
                }
                let ents = key_order_entities(&groups);
                let inv = std::mem::take(&mut self.levels[si].invalid_logged);
                (ents, Some(groups), Some(si), inv)
            }
        };
        // For an in-place rewrite of the deepest level, the "lower" input
        // is empty (its groups were already taken as the upper input).
        let dst_groups = if src_idx == Some(dst) {
            Vec::new()
        } else {
            std::mem::take(&mut self.levels[dst].groups)
        };
        for g in &dst_groups {
            read_ppas.extend(g.all_ppas());
        }
        let lower = key_order_entities(&dst_groups);
        let dst_inv = std::mem::take(&mut self.levels[dst].invalid_logged);
        let t_read = self
            .core
            .flash
            .read_many(read_ppas, OpCause::CompactionRead, at);

        // --- 2. Merge, newest-wins, tombstone elimination at the bottom. -
        let is_bottom = self.levels[dst + 1..].iter().all(Level::is_empty);
        let mut discarded_logged = 0u64;
        let mut merged = merge_newest(
            upper,
            lower,
            is_bottom,
            |e| (e.key, e.tombstone),
            |dead| {
                discarded_logged += self.drop_logged(dead)?;
                Ok(())
            },
        )?;

        // --- 3. Apply the inline policy. -------------------------------
        let mut log_read_ppas: Vec<Ppa> = Vec::new();
        if let InlinePolicy::InlineAll = policy {
            for e in &mut merged {
                if let ValueLoc::Logged(ptr) = e.loc {
                    log_read_ppas.extend(ptr.pages());
                    self.drop_logged(e)?;
                    e.loc = ValueLoc::Inline;
                }
            }
        }
        log_read_ppas.sort_unstable();
        log_read_ppas.dedup();
        // Value reads on behalf of a compaction are compaction traffic
        // (Table 3 semantics) and run at background priority.
        let t_log = self
            .core
            .flash
            .read_many(log_read_ppas, OpCause::CompactionRead, t_read);
        let t_inputs = t_read.max(t_log);

        // --- 4. Free the source blocks before writing output. ----------
        let mut t_erase = t_inputs;
        let free_groups =
            |store: &mut AnyKeyStore, groups: Vec<Group>, t: Ns| -> Result<Ns, KvError> {
                let mut done = t;
                for g in groups {
                    let pages = g.content.total_pages();
                    if store.area.release(g.first_ppa.block, pages)? {
                        done = done.max(store.area.erase_empty(
                            &mut store.group_alloc,
                            &mut store.core.flash,
                            g.first_ppa.block,
                            t,
                        )?);
                    }
                }
                Ok(done)
            };
        if let Some(groups) = src_groups {
            t_erase = t_erase.max(free_groups(self, groups, t_inputs)?);
        }
        t_erase = t_erase.max(free_groups(self, dst_groups, t_inputs)?);

        // --- 5. Build and place the new groups. ------------------------
        let merged_count = merged.len() as u64;
        let contents = pack_groups(
            &merged,
            self.core.page_payload,
            self.core.cfg.group_pages.max(2),
        );
        let mut t_write = t_inputs;
        let mut new_groups = Vec::with_capacity(contents.len());
        for c in contents {
            let (ppa, td) =
                self.place_group(c.total_pages(), OpCause::CompactionWrite, t_inputs)?;
            t_write = t_write.max(td);
            new_groups.push(Group::new(c, ppa));
        }
        self.area.seal(GROUP_STREAM); // keep blocks single-level (Section 4.4.4)

        // --- 6. Update the level and its accounting. -------------------
        self.levels[dst].groups = new_groups;
        self.levels[dst].recount();
        let remaining_logged = self.levels[dst].logged_bytes;
        self.levels[dst].invalid_logged = (src_inv + dst_inv)
            .saturating_sub(discarded_logged)
            .min(remaining_logged);
        if let Some(si) = src_idx {
            self.levels[si].recount();
        }
        self.rebalance_dram();

        // --- 7. CPU merge-sort cost and GC headroom. --------------------
        let done = t_write.max(t_erase) + merged_count * SORT_NS_PER_ENTITY;
        let done = done.max(self.gc_if_needed(done)?);
        self.core
            .push_span(snap, "compaction", span_label, dst as u32, at, done);
        Ok(done)
    }
}

/// The entities of a run of key-ordered groups, in key order, gathered
/// into one vector sized up front.
fn key_order_entities(groups: &[Group]) -> Vec<Entity> {
    let mut out = Vec::with_capacity(groups.iter().map(|g| g.content.entity_count()).sum());
    for g in groups {
        out.extend(g.content.iter_key_order().copied());
    }
    out
}
