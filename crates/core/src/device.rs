//! The device scaffold both engines share.
//!
//! PinK and AnyKey run on the same device: one flash array, one DRAM write
//! buffer (a double-buffered L0), and one DRAM budget. Only the metadata
//! layout differs (paper Sections 2–4). [`DeviceCore`] owns the shared
//! part — configuration, flash, buffer, DRAM budget, the flush stall, and
//! trace-span bookkeeping — and each engine embeds it as a field, keeping
//! only its own levels, flash areas, compaction, GC, and level walks. The
//! request front end over both, the one `KvEngine` implementation, is in
//! [`crate::engine`]. [`DeviceCore::scan`] is the range-scan merge both
//! engines run over their own per-level entry runs, and
//! [`DeviceCore::live_bytes`] walks the same merge over the whole tree.

use std::cmp::Ordering;
use std::iter::Peekable;

use anykey_flash::{FlashGeometry, FlashSim, Ns, OpCause, Ppa};
use anykey_metrics::timeline::StateSample;
use anykey_metrics::trace::TraceEvent;

use crate::anykey::entity::ENTITY_HEADER_BYTES;
use crate::buffer::{self, BufEntry, WriteBuffer};
use crate::config::DeviceConfig;
use crate::dram::DramBudget;
use crate::engine::MetadataStats;
use crate::error::KvError;
use crate::key::Key;
use crate::pink::segment::SEG_ENTRY_OVERHEAD;

/// Flash, write buffer, DRAM budget, and the bookkeeping around them.
#[derive(Debug)]
pub(crate) struct DeviceCore {
    pub(crate) cfg: DeviceConfig,
    pub(crate) flash: FlashSim,
    pub(crate) buffer: WriteBuffer,
    pub(crate) dram: DramBudget,
    pub(crate) page_payload: u64,
    /// The longest value the device stores ([`max_value_len`]).
    pub(crate) max_value_len: u32,
    /// Completion time of the in-flight flush (L0 is double-buffered: a
    /// put that fills the buffer stalls only if the previous flush is
    /// still running).
    pub(crate) flush_done: Ns,
    /// Recorded background spans (flush/compaction/GC) while tracing.
    spans: Vec<TraceEvent>,
    /// Next span id (unique per tracing session).
    span_seq: u64,
    /// The pages [`Self::read_set`] gathers; empty between calls.
    read_marks: PageMarks,
}

/// A set of flash pages that hands its members back in page order: one bit
/// per page of the device, numbered block-major, plus one summary bit per
/// 64-page word that holds a member. Inserting deduplicates and draining
/// sorts, both without comparisons; draining visits only the summary and
/// the words it marks. The bits are allocated on the first insert, so a
/// device that never reads a page set pays nothing for them.
#[derive(Debug)]
struct PageMarks {
    pages_per_block: u32,
    pages: u64,
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl PageMarks {
    fn new(geometry: FlashGeometry) -> Self {
        Self {
            pages_per_block: geometry.pages_per_block,
            pages: geometry.pages(),
            words: Vec::new(),
            summary: Vec::new(),
        }
    }

    fn insert(&mut self, ppa: Ppa) {
        if self.words.is_empty() {
            let words = self.pages.div_ceil(64) as usize;
            self.words = vec![0; words];
            self.summary = vec![0; words.div_ceil(64)];
        }
        let i = ppa.block.0 as usize * self.pages_per_block as usize + ppa.page as usize;
        self.words[i / 64] |= 1 << (i % 64);
        self.summary[i / 4096] |= 1 << (i / 64 % 64);
    }

    /// Passes every member to `f` in page order and empties the set.
    fn drain(&mut self, mut f: impl FnMut(Ppa)) {
        let ppb = u64::from(self.pages_per_block);
        for (si, summary) in self.summary.iter_mut().enumerate() {
            let mut s = std::mem::take(summary);
            while s != 0 {
                let wi = si * 64 + s.trailing_zeros() as usize;
                s &= s - 1;
                let mut w = std::mem::take(&mut self.words[wi]);
                while w != 0 {
                    let i = (wi * 64) as u64 + u64::from(w.trailing_zeros());
                    w &= w - 1;
                    f(Ppa::new((i / ppb) as u32, (i % ppb) as u32));
                }
            }
        }
    }
}

/// Where a scan hit's version lives: its level, the owner its slice came
/// from (an AnyKey group; PinK's one entry run is owner 0), and its index
/// in that owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanPos {
    pub(crate) level: usize,
    pub(crate) owner: usize,
    pub(crate) index: usize,
}

/// What a scan emits, in key order: each key id with where its version
/// lives (`None` when the write buffer holds the value), plus the index
/// pages the final budget walk touched.
#[derive(Debug)]
pub(crate) struct ScanPlan {
    pub(crate) index_pages: Vec<Ppa>,
    pub(crate) hits: Vec<(u64, Option<ScanPos>)>,
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
/// shadow. `entry` gives an entry's key id and whether it is a tombstone.
/// The merged run streams out through `emit`, in key order.
pub(crate) fn merge_newest<'a, T: Copy>(
    upper: &'a [&'a [T]],
    lower: &'a [&'a [T]],
    drop_tombstones: bool,
    entry: impl Fn(&T) -> (u64, bool),
    mut shadowed: impl FnMut(&T) -> Result<(), KvError>,
    mut emit: impl FnMut(T),
) -> Result<(), KvError> {
    let keep = |e: &T| !(drop_tombstones && entry(e).1);
    let whole = |runs: &'a [&'a [T]]| runs.iter().map(|&run| (0, 0, run));
    let (mut up, mut lo) = (Cursor::new(whole(upper)), Cursor::new(whole(lower)));
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

/// A read position in a key-sorted run stored as consecutive slices. Each
/// slice comes tagged `(owner, base, slice)`: the owner it belongs to and
/// the index its first entry has there, so the position of the head is
/// always known (a scan hit names it).
struct Cursor<'a, T, I> {
    /// What is left of the current slice.
    cur: &'a [T],
    /// The owner of `cur` and the index of its head there.
    at: (usize, usize),
    /// The slices after it.
    next: I,
}

impl<'a, T, I: Iterator<Item = (usize, usize, &'a [T])>> Cursor<'a, T, I> {
    fn new(next: I) -> Self {
        let mut c = Cursor {
            cur: &[],
            at: (0, 0),
            next,
        };
        c.skip_empty();
        c
    }

    fn head(&self) -> Option<&'a T> {
        self.cur.first()
    }

    fn advance(&mut self) {
        self.cur = &self.cur[1..];
        self.at.1 += 1;
        self.skip_empty();
    }

    fn skip_empty(&mut self) {
        while self.cur.is_empty() {
            let Some((owner, base, slice)) = self.next.next() else {
                return;
            };
            (self.cur, self.at) = (slice, (owner, base));
        }
    }

    /// The unread remainder, slice by slice.
    fn rest(self) -> impl Iterator<Item = &'a [T]> {
        std::iter::once(self.cur).chain(self.next.map(|(_, _, slice)| slice))
    }
}

/// The newest-wins k-way merge under [`DeviceCore::scan`] and
/// [`DeviceCore::live_bytes`]: write-buffer entries in key order (a
/// [`WriteBuffer::range`] read, which walks the buffer's sorted id index and
/// probes its hash table once per entry) and one [`Cursor`] per level run
/// (lower index = newer), read one key at a time in two steps.
/// [`Self::next_key`] finds the smallest key at any head, and
/// [`Self::take`] consumes every version of it, so a caller can stop
/// between them.
struct Merge<'a, T, I, F> {
    buf: Peekable<buffer::Range<'a>>,
    runs: Vec<Cursor<'a, T, I>>,
    /// Reads an entry as `(key id, tombstone, value_len)`.
    entry: F,
}

impl<'a, T: 'a, I, F> Merge<'a, T, I, F>
where
    I: Iterator<Item = (usize, usize, &'a [T])>,
    F: Fn(&T) -> (u64, bool, u32),
{
    fn new(buf: buffer::Range<'a>, runs: impl IntoIterator<Item = I>, entry: F) -> Self {
        let runs = runs.into_iter().map(Cursor::new).collect();
        Self {
            buf: buf.peekable(),
            runs,
            entry,
        }
    }

    /// The smallest key id at the head of the buffer or of any run.
    fn next_key(&mut self) -> Option<u64> {
        let buf = self.buf.peek().map(|(k, _)| **k);
        let heads = self.runs.iter().filter_map(|r| r.head());
        heads.map(|e| (self.entry)(e).0).chain(buf).min()
    }

    /// Consumes every version of `key`, the key [`Self::next_key`] found,
    /// and returns the newest as `(tombstone, value_len, position)`: the
    /// buffer's (no position), else the one in the newest level.
    fn take(&mut self, key: u64) -> Option<(bool, u32, Option<ScanPos>)> {
        let buffered = self.buf.next_if(|(k, _)| **k == key);
        let mut newest = buffered.map(|(_, e)| (e.tombstone, e.value_len, None));
        for (level, run) in self.runs.iter_mut().enumerate() {
            while let Some((k, tombstone, value_len)) = run.head().map(&self.entry) {
                if k != key {
                    break;
                }
                let (owner, index) = run.at;
                let pos = ScanPos {
                    level,
                    owner,
                    index,
                };
                newest.get_or_insert((tombstone, value_len, Some(pos)));
                run.advance();
            }
        }
        newest
    }
}

/// The longest value a device of `cfg`'s geometry and key length stores.
/// Its record (the key, the larger per-record header of the two engines'
/// and the value) must, alone in a group, fit one erase block behind one
/// directory page, which also fits it in one byte-log block. And it must
/// touch at most 255 pages wherever it starts, the most an [`Extent`] or a
/// layout span counts: at most `254 × payload + 1` bytes.
///
/// [`Extent`]: crate::bytelog::Extent
fn max_value_len(cfg: &DeviceConfig) -> u32 {
    let payload = u64::from(cfg.page_payload());
    let pages = u64::from(cfg.flash.geometry.pages_per_block);
    let record = (pages.saturating_sub(1) * payload).min(254 * payload + 1);
    let header = ENTITY_HEADER_BYTES.max(SEG_ENTRY_OVERHEAD);
    let value = record.saturating_sub(u64::from(cfg.key_len) + header);
    u32::try_from(value).unwrap_or(u32::MAX)
}

impl DeviceCore {
    /// A fresh device: empty flash and buffer. The write buffer's
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
            max_value_len: max_value_len(&cfg),
            flush_done: 0,
            spans: Vec::new(),
            span_seq: 0,
            read_marks: PageMarks::new(cfg.flash.geometry),
            cfg,
        }
    }

    /// The fixed-length key for `id`.
    pub(crate) fn make_key(&self, id: u64) -> Result<Key, KvError> {
        Key::new(id, self.cfg.key_len)
    }

    /// Buffers a PUT (or, with `tombstone`, a DELETE) of key `id`.
    /// Returns `Some(start)` when the buffer filled: the caller must flush
    /// from `start` and record the completion in `flush_done`. With a
    /// double-buffered L0 the put stalls only while the previous flush is
    /// still in flight, so `start` is `at` unless that flush ends later.
    pub(crate) fn buffer_put(
        &mut self,
        id: u64,
        value_len: u32,
        tombstone: bool,
        at: Ns,
    ) -> Option<Ns> {
        let entry = BufEntry {
            value_len,
            tombstone,
        };
        self.buffer.insert(id, entry, self.cfg.key_len);
        self.buffer.is_full().then(|| at.max(self.flush_done))
    }

    /// Issues the distinct pages of `ppas` (in page order) at `at`;
    /// returns when the last completes and how many were read.
    pub(crate) fn read_set(
        &mut self,
        ppas: impl IntoIterator<Item = Ppa>,
        cause: OpCause,
        at: Ns,
    ) -> (Ns, u32) {
        for ppa in ppas {
            self.read_marks.insert(ppa);
        }
        let (flash, mut done, mut n) = (&mut self.flash, at, 0);
        self.read_marks.drain(|ppa| {
            done = done.max(flash.read(ppa, cause, at).done);
            n += 1;
        });
        (done, n)
    }

    /// The range-scan merge of both engines: up to `want` live key ids ≥
    /// `start`, newest version winning across the write buffer and the
    /// levels of `runs` (lower index = newer).
    ///
    /// Each run is one level's entries from `start` on, as key-sorted
    /// `(owner, base, slice)` slices (see [`Cursor`]); `entry` reads an
    /// entry as `(key id, tombstone, value_len)`. The merge streams over the
    /// runs and the buffer once and copies no entry.
    ///
    /// What a scan charges for index pages depends on a per-level budget.
    /// `walk(level, budget, pages)` pushes the index pages an engine reads
    /// to reach `budget` entries ≥ `start` in that level and returns the
    /// level's frontier: the key id of its `budget`-th such entry, when it
    /// holds that many. Tombstones and cross-level duplicates consume
    /// budget, so a level capped at its frontier could hide keys the
    /// merge needs: the merge never emits past the lowest frontier, and
    /// when the stream passes it (or runs dry while one is set) with fewer
    /// than `want` hits, every level is walked again at double the budget,
    /// up to 64× `want`. A frontier only rises with the budget, so the
    /// hits found below the old one stand and the stream goes on; the
    /// index pages are those of the final budget.
    pub(crate) fn scan<'a, T: 'a, I>(
        &'a self,
        start: u64,
        want: usize,
        runs: impl IntoIterator<Item = I>,
        entry: impl Fn(&T) -> (u64, bool, u32),
        mut walk: impl FnMut(usize, usize, &mut Vec<Ppa>) -> Option<u64>,
    ) -> ScanPlan
    where
        I: Iterator<Item = (usize, usize, &'a [T])>,
    {
        let mut merge = Merge::new(self.buffer.range(start), runs, entry);
        let levels = merge.runs.len();
        let mut frontier = |budget: usize, pages: &mut Vec<Ppa>| {
            pages.clear();
            (0..levels).filter_map(|li| walk(li, budget, pages)).min()
        };
        let mut budget = want;
        let mut index_pages: Vec<Ppa> = Vec::new();
        let mut limit = frontier(budget, &mut index_pages);
        let mut hits: Vec<(u64, Option<ScanPos>)> = Vec::with_capacity(want);
        while hits.len() < want {
            let next = merge.next_key();
            while let Some(l) = limit {
                if next.is_some_and(|k| k <= l) || budget >= want * 64 {
                    break;
                }
                budget *= 2;
                limit = frontier(budget, &mut index_pages);
            }
            let Some(key) = next else { break };
            if limit.is_some_and(|l| key > l) {
                break;
            }
            if let Some((false, _, pos)) = merge.take(key) {
                hits.push((key, pos));
            }
        }
        ScanPlan { index_pages, hits }
    }

    /// [`MetadataStats::live_unique_bytes`]: the key and value of each
    /// key's newest version across the write buffer and the levels of
    /// `runs`, tombstones excepted. Each run is one level's whole run, read
    /// as by [`Self::scan`]; the walk allocates only its cursors.
    pub(crate) fn live_bytes<'a, T: 'a, I>(
        &'a self,
        runs: impl IntoIterator<Item = I>,
        entry: impl Fn(&T) -> (u64, bool, u32),
    ) -> u64
    where
        I: Iterator<Item = (usize, usize, &'a [T])>,
    {
        let mut merge = Merge::new(self.buffer.range(0), runs, entry);
        let key_len = u64::from(self.cfg.key_len);
        let mut bytes = 0;
        while let Some(key) = merge.next_key() {
            if let Some((false, len, _)) = merge.take(key) {
                bytes += key_len + u64::from(len);
            }
        }
        bytes
    }

    /// The metadata fields every engine fills the same way: DRAM and
    /// fault counters. Engines fill in the rest, and the front end the
    /// live bytes.
    pub(crate) fn metadata(&self) -> MetadataStats {
        let c = self.flash.counters();
        MetadataStats {
            dram_capacity: self.dram.capacity,
            dram_used: self.dram.used(),
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
