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
//! engines run over their levels' entry arrays, and
//! [`DeviceCore::live_bytes`] walks the same merge over the whole tree.

use std::cmp::Ordering;
use std::marker::PhantomData;

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
use crate::level::{Entry, Level, Unit};
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
    /// The last scan's plan, its arrays kept for the next scan.
    pub(crate) scan_plan: ScanPlan,
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

/// Where a scan hit's version lives: its level, and its index in that
/// level's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanPos {
    pub(crate) level: usize,
    pub(crate) index: usize,
}

/// A scan's working buffers and what it emits. The device keeps one
/// between scans, so a scan grows no new arrays; [`DeviceCore::scan`]
/// clears it, which leaves the last scan's hits readable until the next.
#[derive(Debug, Default)]
pub(crate) struct ScanPlan {
    /// Each level's start ([`Level::scan_from`]): its first unit and first
    /// entry ≥ the scan's start key.
    pub(crate) starts: Vec<(usize, usize)>,
    /// The merge's level read positions.
    heads: Vec<Head>,
    /// The index pages the final budget walk touched.
    pub(crate) index_pages: Vec<Ppa>,
    /// Each key id emitted, in key order, with where its version lives
    /// (`None` when the write buffer holds the value).
    pub(crate) hits: Vec<(u64, Option<ScanPos>)>,
    /// The data pages an engine gathers for the hits.
    pub(crate) data_pages: Vec<Ppa>,
    /// The value-log pages an engine gathers for the hits.
    pub(crate) log_pages: Vec<Ppa>,
}

/// Where the upper input of a compaction comes from, in either engine.
pub(crate) enum Source<E> {
    /// An L0 flush: entries assembled from the write buffer.
    Flush(Vec<E>),
    /// A whole LSM level.
    Level(usize),
}

/// The newest-wins two-way merge both engines' compactions run over
/// key-sorted runs, `upper` being the newer. On an equal key the upper
/// entry wins and the shadowed lower one goes to `shadowed`. With
/// `drop_tombstones` (the output is the bottom level) tombstones are
/// dropped, as nothing below remains for them to shadow.
///
/// No input is copied to a new array. The output is written over the
/// input array with the larger capacity (the upper's on a tie), grown by
/// exactly the other's length, and the merge fills it from the back,
/// never below its next unread entry, so an insert-only merge moves each
/// entry once; what the merge drops is closed up at the end. The other
/// array comes back emptied, with its capacity, as the spare. So a merge
/// into an empty level takes the upper array whole, and level arrays are
/// reused merge after merge, grown in place where the allocator can
/// (DESIGN.md §4). The merge runs from the largest key down: `shadowed`
/// and `emit` see entries in descending key order, and `emit` returns
/// what to store. Returns `(merged, spare)`.
pub(crate) fn merge_newest<T: Entry>(
    upper: Vec<T>,
    lower: Vec<T>,
    drop_tombstones: bool,
    mut shadowed: impl FnMut(&T) -> Result<(), KvError>,
    mut emit: impl FnMut(T) -> T,
) -> Result<(Vec<T>, Vec<T>), KvError> {
    let keep = |e: &T| !(drop_tombstones && e.tombstone());
    // `out` is the array written over, `other` the one read beside it.
    let upper_out = upper.capacity() >= lower.capacity();
    let (mut other, mut out) = if upper_out {
        (lower, upper)
    } else {
        (upper, lower)
    };
    let (mut i, mut j) = (other.len(), out.len());
    out.reserve_exact(i);
    out.extend_from_slice(&other);
    let buf = &mut out[..];
    let mut w = buf.len();
    // One key compare per step while both runs have heads.
    while i > 0 && j > 0 {
        let (a, b) = (other[i - 1], buf[j - 1]);
        let e = match a.id().cmp(&b.id()) {
            Ordering::Greater => {
                i -= 1;
                a
            }
            Ordering::Less => {
                j -= 1;
                b
            }
            Ordering::Equal => {
                let (newer, older) = if upper_out { (b, a) } else { (a, b) };
                shadowed(&older)?;
                (i, j) = (i - 1, j - 1);
                newer
            }
        };
        if keep(&e) {
            w -= 1;
            buf[w] = emit(e);
        }
    }
    // At most one run still has a head.
    for &e in other[..i].iter().rev() {
        if keep(&e) {
            w -= 1;
            buf[w] = emit(e);
        }
    }
    for k in (0..j).rev() {
        let e = buf[k];
        if keep(&e) {
            w -= 1;
            buf[w] = emit(e);
        }
    }
    out.drain(..w);
    other.clear();
    Ok((out, other))
}

/// A level run's read position in [`Merge`]: the level, the index of its
/// head entry in the level's array, and that entry's key id.
#[derive(Debug, Clone, Copy)]
struct Head {
    key: u64,
    level: usize,
    at: usize,
}

/// The newest-wins k-way merge under [`DeviceCore::scan`] and
/// [`DeviceCore::live_bytes`]. Its sources are the write-buffer entries in
/// key order (a [`WriteBuffer::range`] read, which walks the buffer's
/// sorted id index and probes its hash table once per entry) and one read
/// position per level (lower index = newer) in the level's entry array.
/// Each source's head key is cached, and so is the smallest of them, the
/// key the merge emits next: a step compares each head once and advances
/// only the sources on the emitted key. A run read to its end leaves the
/// heads, so no key stands for "exhausted".
struct Merge<'a, E, U, L> {
    levels: &'a [L],
    /// The runs not read to their end, newest level first.
    heads: Vec<Head>,
    buf: buffer::Range<'a>,
    /// The buffer's next entry.
    buf_head: Option<(u64, BufEntry)>,
    /// The smallest key at any head.
    min: Option<u64>,
    level: PhantomData<&'a Level<E, U>>,
}

impl<'a, E: Entry, U, L: AsRef<Level<E, U>>> Merge<'a, E, U, L> {
    /// The merge of `buf` and `levels`, each level read from its index in
    /// `starts`; `heads` is an emptied array to reuse.
    fn new(
        mut buf: buffer::Range<'a>,
        levels: &'a [L],
        starts: impl IntoIterator<Item = usize>,
        mut heads: Vec<Head>,
    ) -> Self {
        heads.clear();
        for (level, at) in starts.into_iter().enumerate() {
            if let Some(e) = levels[level].as_ref().ents.get(at) {
                heads.push(Head {
                    key: e.id(),
                    level,
                    at,
                });
            }
        }
        let buf_head = buf.next().map(|(&k, &e)| (k, e));
        let min = heads.iter().map(|h| h.key).chain(buf_head.map(|h| h.0));
        Self {
            min: min.min(),
            levels,
            heads,
            buf,
            buf_head,
            level: PhantomData,
        }
    }

    /// The key [`Self::next`] emits: the smallest at any head.
    fn peek(&self) -> Option<u64> {
        self.min
    }

    /// Consumes every version of the smallest head key and returns the key
    /// with its newest version, as `(key, tombstone, value_len, position)`:
    /// the buffer's (no position), else the one in the newest level.
    /// Inlined into the scan loop, so the version it returns stays in
    /// registers instead of passing through the stack on every key.
    #[inline(always)]
    fn next(&mut self) -> Option<(u64, bool, u32, Option<ScanPos>)> {
        let key = self.min?;
        let mut newest = None;
        if let Some((_, e)) = self.buf_head.filter(|h| h.0 == key) {
            newest = Some((e.tombstone, e.value_len, None));
            self.buf_head = self.buf.next().map(|(&k, &e)| (k, e));
        }
        let mut min = self.buf_head.map(|h| h.0);
        let mut i = 0;
        while let Some(h) = self.heads.get_mut(i) {
            if h.key == key {
                let ents = &self.levels[h.level].as_ref().ents;
                if newest.is_none() {
                    let (e, level, index) = (&ents[h.at], h.level, h.at);
                    let pos = Some(ScanPos { level, index });
                    newest = Some((e.tombstone(), e.value_len(), pos));
                }
                h.at += 1;
                let Some(e) = ents.get(h.at) else {
                    self.heads.remove(i);
                    continue;
                };
                h.key = e.id();
            }
            min = Some(min.map_or(h.key, |m| m.min(h.key)));
            i += 1;
        }
        self.min = min;
        newest.map(|(tombstone, len, pos)| (key, tombstone, len, pos))
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
            scan_plan: ScanPlan::default(),
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
    /// `start`, newest version winning across the write buffer and
    /// `levels` (lower index = newer).
    ///
    /// Each level's entry array is read in place from its first entry ≥
    /// `start` ([`Level::scan_from`]). The merge streams over the levels and
    /// the buffer once and copies no entry. The plan it returns is the
    /// device's own, taken out and cleared, so the caller hands it back to
    /// [`Self::scan_plan`] when it has read the hits' pages.
    ///
    /// What a scan charges for index pages depends on a per-level budget.
    /// `walk(level, (unit, entry), budget, pages)` pushes the index pages
    /// an engine reads to reach `budget` entries ≥ `start` in that level,
    /// walking from its first unit and entry ≥ `start`, and returns the
    /// level's frontier: the key id of its `budget`-th such entry, when it
    /// holds that many. Tombstones and cross-level
    /// duplicates consume budget, so a level capped at its frontier could
    /// hide keys the merge needs: the merge never emits past the lowest
    /// frontier, and when the stream passes it (or runs dry while one is
    /// set) with fewer than `want` hits, every level is walked again at
    /// double the budget, up to 64× `want`. A frontier only rises with the
    /// budget, so the hits found below the old one stand and the stream
    /// goes on; the index pages are those of the final budget.
    pub(crate) fn scan<E: Entry, U: Unit, L: AsRef<Level<E, U>>>(
        &mut self,
        start: u64,
        want: usize,
        levels: &[L],
        mut walk: impl FnMut(usize, (usize, usize), usize, &mut Vec<Ppa>) -> Option<u64>,
    ) -> ScanPlan {
        let mut plan = std::mem::take(&mut self.scan_plan);
        let starts = levels.iter().map(|l| l.as_ref().scan_from(start));
        plan.starts.clear();
        plan.starts.extend(starts);
        plan.hits.clear();
        let heads = std::mem::take(&mut plan.heads);
        let from = plan.starts.iter().map(|s| s.1);
        let mut merge = Merge::new(self.buffer.range(start), levels, from, heads);
        let mut frontier = |budget: usize, pages: &mut Vec<Ppa>| {
            pages.clear();
            let mut level = |(li, &s)| walk(li, s, budget, pages);
            plan.starts.iter().enumerate().filter_map(&mut level).min()
        };
        let mut budget = want;
        let mut limit = frontier(budget, &mut plan.index_pages);
        while plan.hits.len() < want {
            let next = merge.peek();
            while let Some(l) = limit {
                if next.is_some_and(|k| k <= l) || budget >= want * 64 {
                    break;
                }
                budget *= 2;
                limit = frontier(budget, &mut plan.index_pages);
            }
            let Some(key) = next else { break };
            if limit.is_some_and(|l| key > l) {
                break;
            }
            if let Some((key, false, _, pos)) = merge.next() {
                plan.hits.push((key, pos));
            }
        }
        plan.heads = merge.heads;
        plan
    }

    /// [`MetadataStats::live_unique_bytes`]: the key and value of each
    /// key's newest version across the write buffer and `levels`,
    /// tombstones excepted. Each level's whole entry array is read as by
    /// [`Self::scan`]; the walk allocates only its read positions.
    pub(crate) fn live_bytes<E: Entry, U, L: AsRef<Level<E, U>>>(&self, levels: &[L]) -> u64 {
        let starts = levels.iter().map(|_| 0);
        let mut merge = Merge::new(self.buffer.range(0), levels, starts, Vec::new());
        let key_len = u64::from(self.cfg.key_len);
        let mut bytes = 0;
        while let Some((_, tombstone, len, _)) = merge.next() {
            if !tombstone {
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
