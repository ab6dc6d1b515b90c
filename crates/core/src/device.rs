//! The device scaffold both engines share.
//!
//! PinK and AnyKey run on the same device: one flash array, one DRAM write
//! buffer (a double-buffered L0), and one DRAM budget. Only the metadata
//! layout differs (paper Sections 2–4). [`DeviceCore`] owns the shared
//! part — configuration, flash, buffer, DRAM budget, the live-bytes
//! ledger, the flush stall, and trace-span bookkeeping — and each engine
//! embeds it as a field, keeping only its own levels, flash areas,
//! compaction, GC, and level walks. The request front end over both, the
//! one `KvEngine` implementation, is in [`crate::engine`].
//! [`DeviceCore::scan`] is the range-scan merge both engines run over
//! their own per-level candidates.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use anykey_flash::{BlockAllocator, FlashSim, Ns, OpCause, Ppa};
use anykey_metrics::timeline::StateSample;
use anykey_metrics::trace::TraceEvent;

use crate::buffer::{BufEntry, WriteBuffer};
use crate::config::DeviceConfig;
use crate::dram::DramBudget;
use crate::engine::MetadataStats;
use crate::error::KvError;
use crate::key::Key;

/// Flash, write buffer, DRAM budget, and the bookkeeping around them.
#[derive(Debug)]
pub(crate) struct DeviceCore {
    pub(crate) cfg: DeviceConfig,
    pub(crate) flash: FlashSim,
    pub(crate) buffer: WriteBuffer,
    pub(crate) dram: DramBudget,
    pub(crate) page_payload: u64,
    /// Live logical state: key id → value length (for unique-byte
    /// accounting; the engines' query paths never consult this, and
    /// nothing iterates it, so its hasher need not resist collisions).
    live: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    live_bytes: u64,
    /// Completion time of the in-flight flush (L0 is double-buffered: a
    /// put that fills the buffer stalls only if the previous flush is
    /// still running).
    pub(crate) flush_done: Ns,
    /// Recorded background spans (flush/compaction/GC) while tracing.
    spans: Vec<TraceEvent>,
    /// Next span id (unique per tracing session).
    span_seq: u64,
}

/// A multiplicative hasher for the `u64` key ids of the live-bytes ledger:
/// one multiply by 2^64 / φ, with the high half folded into the low bits
/// the table indexes by, so ids sharing low bits still spread.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Only `write_u64` runs for `u64` keys; other input folds in per byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One version of a key that a level offers to a scan. `payload` is the
/// engine's handle on where the value lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanCand<P> {
    pub(crate) key: Key,
    pub(crate) tombstone: bool,
    pub(crate) payload: P,
}

/// What a scan emits, in key order: each key with the payload of the level
/// version it came from (`None` when the write buffer holds the value),
/// plus the index pages the final candidate collection touched.
#[derive(Debug)]
pub(crate) struct ScanPlan<P> {
    pub(crate) index_pages: Vec<Ppa>,
    pub(crate) hits: Vec<(Key, Option<P>)>,
}

/// Where the upper input of a compaction comes from, in either engine.
pub(crate) enum Source<E> {
    /// An L0 flush: entries assembled from the write buffer.
    Flush(Vec<E>),
    /// A whole LSM level.
    Level(usize),
}

/// The newest-wins two-way merge both engines' compactions run over
/// key-sorted runs, `upper` being the newer. Each run is a sequence of
/// slices read in place (a PinK level's one entry array, or an AnyKey
/// level's per-group entity arrays), so no input is copied before the
/// merge. On an equal key the upper entry wins and the shadowed lower one
/// goes to `shadowed`. With `drop_tombstones` (the output is the bottom
/// level) tombstones are dropped, as nothing below remains for them to
/// shadow. `entry` gives an entry's key and whether it is a tombstone.
/// The merged run streams out through `emit`, in key order.
pub(crate) fn merge_newest<T: Copy>(
    upper: &[&[T]],
    lower: &[&[T]],
    drop_tombstones: bool,
    entry: impl Fn(&T) -> (Key, bool),
    mut shadowed: impl FnMut(&T) -> Result<(), KvError>,
    mut emit: impl FnMut(T),
) -> Result<(), KvError> {
    let keep = |e: &T| !(drop_tombstones && entry(e).1);
    let (mut up, mut lo) = (Cursor::new(upper), Cursor::new(lower));
    // One key compare per step while both runs have heads.
    while let (Some(a), Some(b)) = (up.head(), lo.head()) {
        let e = match entry(a).0.cmp(&entry(b).0) {
            Ordering::Less => {
                up.advance();
                a
            }
            Ordering::Greater => {
                lo.advance();
                b
            }
            Ordering::Equal => {
                shadowed(b)?;
                up.advance();
                lo.advance();
                a
            }
        };
        if keep(e) {
            emit(*e);
        }
    }
    // At most one run still has a tail.
    for tail in up.rest().chain(lo.rest()) {
        tail.iter().filter(|e| keep(e)).for_each(|&e| emit(e));
    }
    Ok(())
}

/// A read position in a key-sorted run stored as consecutive slices.
struct Cursor<'a, T> {
    /// What is left of the current slice.
    cur: &'a [T],
    /// The slices after it.
    next: &'a [&'a [T]],
}

impl<'a, T> Cursor<'a, T> {
    fn new(runs: &'a [&'a [T]]) -> Self {
        let mut c = Cursor {
            cur: &[],
            next: runs,
        };
        c.skip_empty();
        c
    }

    fn head(&self) -> Option<&'a T> {
        self.cur.first()
    }

    fn advance(&mut self) {
        self.cur = &self.cur[1..];
        self.skip_empty();
    }

    fn skip_empty(&mut self) {
        while self.cur.is_empty() {
            let Some((first, rest)) = self.next.split_first() else {
                return;
            };
            (self.cur, self.next) = (first, rest);
        }
    }

    /// The unread remainder, slice by slice.
    fn rest(self) -> impl Iterator<Item = &'a [T]> {
        std::iter::once(self.cur).chain(self.next.iter().copied())
    }
}

impl DeviceCore {
    /// A fresh device: empty flash, buffer, and ledger. The write buffer's
    /// DRAM reservation is capped at half the device DRAM.
    pub(crate) fn new(cfg: DeviceConfig) -> Self {
        Self {
            flash: FlashSim::new(cfg.flash),
            buffer: WriteBuffer::new(cfg.write_buffer_bytes),
            dram: DramBudget::new(
                cfg.dram_bytes,
                cfg.write_buffer_bytes.min(cfg.dram_bytes / 2),
            ),
            page_payload: cfg.page_payload() as u64,
            live: HashMap::default(),
            live_bytes: 0,
            flush_done: 0,
            spans: Vec::new(),
            span_seq: 0,
            cfg,
        }
    }

    /// A block allocator over `blocks`. Under a fault model wear matters,
    /// so it allocates least-erased-first to level P/E cycles (and the
    /// wear-dependent error rates) across blocks.
    pub(crate) fn allocator(&self, blocks: Range<u32>) -> BlockAllocator {
        let mut alloc = BlockAllocator::new(blocks);
        alloc.set_wear_aware(self.cfg.flash.fault.is_enabled());
        alloc
    }

    /// The fixed-length key for `id`.
    pub(crate) fn make_key(&self, id: u64) -> Result<Key, KvError> {
        Key::new(id, self.cfg.key_len)
    }

    /// Buffers a PUT (or, with `tombstone`, a DELETE) and updates the
    /// live-bytes ledger. Returns `Some(start)` when the buffer filled:
    /// the caller must flush from `start` and record the completion in
    /// `flush_done`. With a double-buffered L0 the put stalls only while
    /// the previous flush is still in flight, so `start` is `at` unless
    /// that flush ends later.
    pub(crate) fn buffer_put(
        &mut self,
        key: Key,
        value_len: u32,
        tombstone: bool,
        at: Ns,
    ) -> Option<Ns> {
        self.buffer.insert(
            key,
            BufEntry {
                value_len,
                tombstone,
            },
        );
        let id = key.id();
        if tombstone {
            if let Some(old) = self.live.remove(&id) {
                self.live_bytes -= key.len() as u64 + old as u64;
            }
        } else {
            match self.live.insert(id, value_len) {
                Some(old) => {
                    self.live_bytes = self.live_bytes - old as u64 + value_len as u64;
                }
                None => self.live_bytes += key.len() as u64 + value_len as u64,
            }
        }
        self.buffer.is_full().then(|| at.max(self.flush_done))
    }

    /// Issues the distinct pages of `ppas` (in page order) at `at`;
    /// returns when the last completes and how many were read.
    pub(crate) fn read_set(&mut self, mut ppas: Vec<Ppa>, cause: OpCause, at: Ns) -> (Ns, u32) {
        ppas.sort_unstable();
        ppas.dedup();
        let n = ppas.len() as u32;
        (self.flash.read_many(ppas, cause, at), n)
    }

    /// The range-scan merge of both engines: up to `want` live keys ≥
    /// `start`, newest version winning across the write buffer and
    /// `levels` levels (lower index = newer).
    ///
    /// `collect(level, budget, cands, pages)` appends, in key order, up to
    /// `budget` candidates ≥ `start` from one level, pushes the index pages
    /// it touched onto `pages`, and returns how many it took. Tombstones
    /// and cross-level duplicates consume candidates, so a level capped at
    /// its budget could hide keys the merge needs: the merge never emits
    /// past a capped level's last candidate, and the collection reruns
    /// with a doubled budget (up to 64× `want`) until the keys below every
    /// capped frontier hold `want` survivors.
    pub(crate) fn scan<P: Copy>(
        &self,
        start: Key,
        want: usize,
        levels: usize,
        mut collect: impl FnMut(
            usize,
            usize,
            &mut Vec<ScanCand<P>>,
            &mut Vec<Ppa>,
        ) -> Result<usize, KvError>,
    ) -> Result<ScanPlan<P>, KvError> {
        let mut budget = want;
        let mut cands: Vec<ScanCand<P>> = Vec::new();
        let mut pages: Vec<Ppa> = Vec::new();
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(levels);
        loop {
            cands.clear();
            pages.clear();
            runs.clear();
            let mut limit: Option<Key> = None;
            for li in 0..levels {
                let from = cands.len();
                if collect(li, budget, &mut cands, &mut pages)? >= budget {
                    if let Some(c) = cands.last() {
                        limit = Some(limit.map_or(c.key, |l| l.min(c.key)));
                    }
                }
                runs.push(from..cands.len());
            }
            // The walk emits the survivors up to the limit and stops at
            // `want`, so fewer than `want` hits means the keys below the
            // frontier hold fewer than `want` survivors.
            let hits = self.merge_runs(start, want, limit, &cands, &mut runs)?;
            if limit.is_none() || hits.len() >= want || budget >= want * 64 {
                return Ok(ScanPlan {
                    index_pages: pages,
                    hits,
                });
            }
            budget *= 2;
        }
    }

    /// One k-way walk over the write buffer from `start` and the per-level
    /// key-sorted `runs` of `cands`: on each key the buffer wins, then the
    /// lowest level, and a live winner becomes a hit. It stops after
    /// `want` hits or past `limit` (a capped level's frontier: its
    /// unexplored range could hide smaller keys). Advances `runs`.
    fn merge_runs<P: Copy>(
        &self,
        start: Key,
        want: usize,
        limit: Option<Key>,
        cands: &[ScanCand<P>],
        runs: &mut [Range<usize>],
    ) -> Result<Vec<(Key, Option<P>)>, KvError> {
        let mut hits: Vec<(Key, Option<P>)> = Vec::new();
        let mut buf_iter = self.buffer.range_from(start).peekable();
        while hits.len() < want {
            let next_buf_key = buf_iter.peek().map(|(k, _)| **k);
            let key = runs
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| cands[r.start].key)
                .chain(next_buf_key)
                .min();
            let Some(key) = key else { break };
            if limit.is_some_and(|l| key > l) {
                break;
            }
            // The newest version: `(tombstone, payload)`, with no payload
            // when the write buffer holds the value.
            let mut newest: Option<(bool, Option<P>)> = None;
            if next_buf_key == Some(key) {
                let (_, e) = buf_iter.next().ok_or(KvError::Internal {
                    context: "peeked buffer entry vanished mid-scan",
                })?;
                newest = Some((e.tombstone, None));
            }
            for r in runs.iter_mut() {
                while r.start < r.end && cands[r.start].key == key {
                    let c = &cands[r.start];
                    newest.get_or_insert((c.tombstone, Some(c.payload)));
                    r.start += 1;
                }
            }
            if let Some((false, payload)) = newest {
                hits.push((key, payload));
            }
        }
        Ok(hits)
    }

    /// The metadata fields every engine fills the same way: DRAM, live
    /// bytes, and fault counters. Engines fill in the rest.
    pub(crate) fn metadata(&self) -> MetadataStats {
        let c = self.flash.counters();
        MetadataStats {
            dram_capacity: self.dram.capacity,
            dram_used: self.dram.used(),
            live_unique_bytes: self.live_bytes,
            retry_reads: c.total_retry_reads(),
            program_fails: c.program_fails(),
            erase_fails: c.erase_fails(),
            ..MetadataStats::default()
        }
    }

    /// The engine-state half of a timeline sample that follows from the
    /// engine's metadata snapshot `meta`, plus flash wear. Engines fill in
    /// level occupancy and group counts.
    pub(crate) fn sample_state(&self, meta: &MetadataStats) -> StateSample {
        let wear = self.flash.sample_state();
        StateSample {
            dram_capacity: meta.dram_capacity,
            dram_used: meta.dram_used,
            level_list_bytes: meta.level_list_bytes,
            hash_list_total_bytes: meta.hash_list_total_bytes,
            hash_list_resident_bytes: meta.hash_list_resident_bytes,
            meta_segment_dram_bytes: meta.meta_segment_dram_bytes,
            meta_segment_flash_bytes: meta.meta_segment_flash_bytes,
            value_log_live_bytes: meta.value_log_used_bytes,
            free_blocks: meta.free_blocks,
            wear_min: wear.wear_min,
            wear_max: wear.wear_max,
            wear_total: wear.wear_total,
            ..StateSample::default()
        }
    }

    /// Starts (`on`) or stops trace recording; starting clears the spans
    /// of any earlier session.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.flash.set_tracing(on);
        if on {
            self.spans.clear();
            self.span_seq = 0;
        }
    }

    /// Drains the flash-op events and background spans, converted to the
    /// metrics model and sorted by timestamp.
    pub(crate) fn take_trace(&mut self) -> Vec<TraceEvent> {
        let geometry = self.cfg.flash.geometry;
        let mut out: Vec<TraceEvent> = self
            .flash
            .take_trace_events()
            .into_iter()
            .map(|e| TraceEvent::FlashOp {
                op: e.op.as_str().to_string(),
                cause: e.cause_str().to_string(),
                chip: e.chip,
                channel: geometry.channel_of_chip(e.chip),
                issued: e.issued,
                start: e.start,
                done: e.done,
                retries: e.retries,
            })
            .collect();
        out.append(&mut self.spans);
        anykey_metrics::trace::sort_events(&mut out);
        out
    }

    /// Snapshot of total flash page reads/writes, taken at the start of a
    /// background span; `None` when tracing is off so span bookkeeping
    /// costs nothing on untraced runs.
    pub(crate) fn span_snapshot(&self) -> Option<(u64, u64)> {
        self.flash.is_tracing().then(|| {
            let c = self.flash.counters();
            (c.total_reads(), c.total_writes())
        })
    }

    /// Records a completed background span against a [`Self::span_snapshot`]
    /// taken before the work; a `None` snapshot (tracing off) is a no-op.
    pub(crate) fn push_span(
        &mut self,
        snap: Option<(u64, u64)>,
        kind: &str,
        label: &str,
        level: u32,
        start: Ns,
        end: Ns,
    ) {
        let Some((r0, w0)) = snap else { return };
        let id = self.span_seq;
        self.span_seq += 1;
        let c = self.flash.counters();
        self.spans.push(TraceEvent::Span {
            kind: kind.to_string(),
            label: label.to_string(),
            level,
            id,
            start,
            end,
            pages_read: c.total_reads().saturating_sub(r0),
            pages_written: c.total_writes().saturating_sub(w0),
        });
    }
}

#[cfg(test)]
mod tests;
