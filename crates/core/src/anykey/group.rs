//! Data segment groups (paper Section 4.1).
//!
//! A group is a set of physically-consecutive flash pages inside one erase
//! block. Across groups, a level is partitioned by key range; *within* a
//! group, KV entities are sorted by the 32-bit xxHash of their key. The
//! first page(s) of a group hold a key-sorted `{page, offset}` directory so
//! range queries can walk keys in order without re-sorting (Section 4.4.5).
//!
//! The host keeps that layout as an index rather than a copy: the entities
//! sit in key (directory) order, and a
//! [`Layout`](crate::anykey::group::Layout) lists them in hash order, cut
//! into data pages. Everything placement, level thresholds, DRAM
//! accounting, GC and compaction need is known without the layout (the
//! byte-continuous packing fills `ceil(stored bytes / payload)` data
//! pages), so the layout is built on the first read of the group — a GET's
//! page search, a scan's page numbers or the audit — and cached. A group
//! that no read reaches before a compaction replaces it never pays for
//! one. Either way the modeled bytes are the paper's.
//!
//! The level-list entry for a group (what lives in DRAM) is: the group's
//! smallest key, the PPA of its first page, a 16-bit hash prefix of the
//! first key of every data page, and 2 hash-collision bits per page
//! (Figure 7).

use std::cell::OnceCell;

use anykey_flash::Ppa;

use crate::anykey::entity::Entity;
use crate::audit::AuditError;
use crate::key;

/// Bytes per directory entry in the group's first page(s): target page +
/// page offset.
pub const DIR_ENTRY_BYTES: u64 = 4;

/// Bytes per hash-list entry: one 32-bit key hash per entity.
pub const HASH_ENTRY_BYTES: u64 = 4;

/// The DRAM footprint of one level-list entry of a group with a
/// `key_len`-byte smallest key and `data_pages` data pages: the smallest
/// key + 4-byte PPA + 2 bytes of hash prefix per data page + 2 collision
/// bits per data page + 16 bytes of fixed bookkeeping.
#[inline]
pub fn level_list_entry_bytes(key_len: u64, data_pages: u64) -> u64 {
    key_len + 4 + 2 * data_pages + data_pages.div_ceil(4) + 16
}

/// The two hash-collision bits of a data page (Figure 7): whether the last
/// hash value of this page continues into the next page, and whether the
/// first hash continues from the previous page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionBits {
    /// `01`: the page's last hash value continues into the next page.
    pub continues_next: bool,
    /// `10`: the page's first hash value continues from the previous page.
    pub continued_prev: bool,
}

/// The content of a data segment group, before (or after) placement in
/// flash.
#[derive(Debug, Clone)]
pub struct GroupContent {
    /// The group's entities in key order, which is the directory's order.
    /// Never changed while the group lives, so its layout stays valid.
    pub(crate) ents: Vec<Entity>,
    /// Number of leading pages holding the directory.
    pub dir_pages: u32,
    /// Number of data pages: the stored bytes packed byte-continuously.
    data_pages: u32,
    /// Logical KV bytes (keys + values) in this group.
    pub kv_bytes: u64,
    /// Value bytes referenced in the value log.
    pub logged_bytes: u64,
    /// Physical flash footprint (directory + data pages × page payload) —
    /// what level thresholds are measured against.
    pub phys_bytes: u64,
    /// Smallest key id, cached at build time: the level-list entry the
    /// DRAM search compares against.
    pub(crate) smallest: u64,
    /// Largest key id, cached at build time.
    pub(crate) largest: u64,
    /// Usable bytes per page, which the layout is packed to.
    payload: u64,
    /// The device's key length, which the layout's entity sizes count.
    key_len: u16,
    /// The hash-order layout, built on first read.
    layout: OnceCell<Layout>,
}

/// A group's hash-order layout on flash: a pure function of its
/// key-ordered entities and the page payload.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The flash slot order: `slots[k]` is the `ents` index of the `k`-th
    /// entity by `(hash, key)`, cut into data pages by `page_start`.
    pub slots: Vec<u32>,
    /// Index in `slots` of each data page's first slot, plus a final
    /// `slots.len()`: data page `p` holds the slots from `page_start[p]`
    /// up to `page_start[p + 1]` (none for a page holding only a previous
    /// entity's spill).
    pub page_start: Vec<u32>,
    /// The data page each entity starts in (the directory's page field):
    /// `ents[i]` sits in data page `page_of[i]`.
    pub page_of: Vec<u16>,
    /// Extra pages each entity spills into beyond its start page: entities
    /// are packed byte-continuously, so a large inline value can span
    /// pages. `ents[i]` spans `span[i]` more pages.
    pub span: Vec<u8>,
    /// First hash per data page (a spill-only page carries its owner's
    /// hash), never decreasing. Its top 16 bits are the DRAM routing
    /// prefix of [`GroupContent::route_page`]; the full hash is page
    /// *content*, read from flash.
    pub page_first_hash: Vec<u32>,
    /// Collision bits per data page.
    pub collision: Vec<CollisionBits>,
    /// Sorted hashes of every entity (the hash-list content), in slot
    /// order: `hashes[k] == ents[slots[k] as usize].hash`.
    pub hashes: Vec<u32>,
}

/// A placed data segment group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Physical address of the group's first page.
    pub first_ppa: Ppa,
    /// Whether this group's hash list is DRAM-resident.
    pub hash_list_resident: bool,
    /// The group's content.
    pub content: GroupContent,
}

impl GroupContent {
    /// A group of a **key-sorted** run of entities with `key_len`-byte
    /// keys, packed into data pages of `payload` usable bytes behind a
    /// key-sorted directory. The hash-order [`Layout`] is left to the
    /// first read.
    ///
    /// # Panics
    ///
    /// Panics if `ents` is empty, not key-sorted, or longer than
    /// `u32::MAX`.
    pub fn new(ents: Vec<Entity>, payload: u64, key_len: u16) -> Self {
        assert!(!ents.is_empty(), "group must contain entities");
        debug_assert!(
            ents.windows(2).all(|w| w[0].id < w[1].id),
            "group input must be strictly key-sorted"
        );
        let count = ents.len() as u64;
        assert!(u32::try_from(count).is_ok(), "group index must fit 32 bits");
        let (mut kv_bytes, mut logged_bytes, mut stored) = (0, 0, 0);
        for e in &ents {
            kv_bytes += e.kv_bytes(key_len);
            logged_bytes += e.logged_bytes();
            stored += e.stored_bytes(key_len);
        }
        let data_pages = stored.div_ceil(payload);
        let dir_pages = (count * DIR_ENTRY_BYTES).div_ceil(payload).max(1);
        Self {
            smallest: ents[0].id,
            largest: ents[ents.len() - 1].id,
            ents,
            dir_pages: dir_pages as u32,
            data_pages: data_pages as u32,
            kv_bytes,
            logged_bytes,
            phys_bytes: (dir_pages + data_pages) * payload,
            payload,
            key_len,
            layout: OnceCell::new(),
        }
    }

    /// The hash-order layout, built on the first call.
    pub fn layout(&self) -> &Layout {
        self.layout
            .get_or_init(|| Layout::build(&self.ents, self.payload, self.key_len))
    }

    /// Whether the layout has been built.
    #[cfg(test)]
    pub(crate) fn layout_built(&self) -> bool {
        self.layout.get().is_some()
    }

    /// Runs `edit` on the layout, built first if missing (the audit's
    /// corruption hooks).
    pub(crate) fn layout_mut<R>(&mut self, edit: impl FnOnce(&mut Layout) -> R) -> R {
        let mut layout = self
            .layout
            .take()
            .unwrap_or_else(|| Layout::build(&self.ents, self.payload, self.key_len));
        let out = edit(&mut layout);
        self.layout = OnceCell::from(layout);
        out
    }

    /// Number of entities in the group.
    pub fn entity_count(&self) -> usize {
        self.ents.len()
    }

    /// Number of data pages.
    pub fn data_pages(&self) -> u32 {
        self.data_pages
    }

    /// Total flash pages occupied (directory + data).
    pub fn total_pages(&self) -> u32 {
        self.dir_pages + self.data_pages
    }

    /// The group's smallest key id (what the level-list entry stores).
    pub fn smallest(&self) -> u64 {
        self.smallest
    }

    /// The group's largest key id.
    pub fn largest(&self) -> u64 {
        self.largest
    }

    /// Whether `hash` appears in the group's hash list.
    pub fn contains_hash(&self, hash: u32) -> bool {
        self.layout().hashes.binary_search(&hash).is_ok()
    }

    /// The data page a lookup for `hash` is routed to via the 16-bit
    /// page-first hash prefixes: the last page whose prefix is ≤ the
    /// target's prefix.
    pub fn route_page(&self, hash: u32) -> usize {
        let h16 = hash >> 16;
        let first = &self.layout().page_first_hash;
        first.partition_point(|&p| p >> 16 <= h16).saturating_sub(1)
    }

    /// Searches one data page for an exact `(hash, key id)` match: a
    /// binary search of the page's stretch of the hash list, then a key
    /// check of each slot in its equal-hash run. Returns the entity's index
    /// in key order.
    pub fn search_page(&self, page: usize, hash: u32, id: u64) -> Option<usize> {
        let l = self.layout();
        let (lo, hi) = (l.page_start[page] as usize, l.page_start[page + 1] as usize);
        let start = lo + l.hashes[lo..hi].partition_point(|&h| h < hash);
        l.hashes[start..hi]
            .iter()
            .zip(&l.slots[start..hi])
            .take_while(|&(&h, _)| h == hash)
            .map(|(_, &i)| i as usize)
            .find(|&i| self.ents[i].id == id)
    }

    /// First directory index whose key id is ≥ `id` (for range scans): an
    /// interpolation search between the cached fences
    /// ([`key::lower_bound`]).
    pub fn dir_lower_bound(&self, id: u64) -> usize {
        key::lower_bound(&self.ents, id, self.smallest, self.largest, |e| e.id)
    }

    /// The DRAM footprint of this group's level-list entry
    /// ([`level_list_entry_bytes`]).
    pub fn meta_bytes(&self) -> u64 {
        level_list_entry_bytes(u64::from(self.key_len), self.data_pages() as u64)
    }

    /// The DRAM footprint of this group's hash list
    /// ([`HASH_ENTRY_BYTES`] per entity).
    pub fn hash_list_bytes(&self) -> u64 {
        HASH_ENTRY_BYTES * self.entity_count() as u64
    }

    /// Audits the group, naming it group `group` of level `level`: its
    /// layout (page starts, slot index, hash list, routing prefixes), then
    /// directory order and key fences. A layout no read has built yet is
    /// skipped, not built. The slot and hash-list checks index entities
    /// through the page starts, so those go first.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize, group: usize) -> Result<(), AuditError> {
        if let Some(layout) = self.layout.get() {
            self.audit_layout(layout, level, group)?;
        }
        let ents = &self.ents;
        if ents.windows(2).any(|w| w[0].id >= w[1].id) {
            return Err(AuditError::DirectoryOrder { level, group });
        }
        if ents.first().map(|e| e.id) != Some(self.smallest)
            || ents.last().map(|e| e.id) != Some(self.largest)
        {
            return Err(AuditError::FenceMismatch { level, group });
        }
        Ok(())
    }

    /// The layout checks of [`Self::audit`].
    fn audit_layout(&self, l: &Layout, level: usize, group: usize) -> Result<(), AuditError> {
        let (ents, starts) = (&self.ents, &l.page_start);
        if starts.len() != self.data_pages as usize + 1
            || starts.first() != Some(&0)
            || starts.last().map(|&e| e as usize) != Some(ents.len())
            || starts.windows(2).any(|w| w[0] > w[1])
        {
            return Err(AuditError::PageStartSkew { level, group });
        }
        if !l.slot_index_holds(ents.len()) {
            return Err(AuditError::SlotIndexSkew { level, group });
        }
        if l.hashes.len() != ents.len()
            || l.hashes.windows(2).any(|w| w[0] > w[1])
            || l.hashes
                .iter()
                .zip(&l.slots)
                .any(|(&h, &i)| h != ents[i as usize].hash)
        {
            return Err(AuditError::HashListMismatch { level, group });
        }
        if l.page_first_hash.windows(2).any(|w| w[0] > w[1]) {
            return Err(AuditError::RoutingOrder { level, group });
        }
        Ok(())
    }
}

impl Layout {
    /// Lays out a key-sorted run of entities with `key_len`-byte keys in
    /// hash order.
    ///
    /// Entities are ordered by `(hash, key)` and packed byte-continuously
    /// into data pages of `payload` usable bytes.
    fn build(ents: &[Entity], payload: u64, key_len: u16) -> Self {
        let count = ents.len();
        let order = hash_order(ents);
        let slots: Vec<u32> = order.iter().map(|&w| w as u32).collect();
        let hashes: Vec<u32> = order.iter().map(|&w| (w >> 32) as u32).collect();
        drop(order);

        // Pack byte-continuously in slot order: an entity belongs to the
        // page its header starts in and may spill into following pages, so
        // no page capacity is wasted even for values comparable to the
        // page size. Pages that contain only the spill of a previous
        // entity hold no slots. The walk keeps the current page and the
        // bytes used in it, so it divides nothing.
        let mut page_of = vec![0u16; count];
        let mut span = vec![0u8; count];
        let mut page_start: Vec<u32> = vec![0];
        let (mut page, mut used) = (0usize, 0u64);
        for (k, &i) in slots.iter().enumerate() {
            while page_start.len() <= page {
                page_start.push(k as u32);
            }
            let i = i as usize;
            page_of[i] = page as u16;
            let mut end = used + ents[i].stored_bytes(key_len);
            let mut extra = 0usize;
            while end > payload {
                end -= payload;
                extra += 1;
            }
            span[i] = extra as u8;
            page += extra;
            used = end;
            if used == payload {
                page += 1;
                used = 0;
            }
        }
        let data_pages = page + usize::from(used > 0);
        page_start.resize(data_pages + 1, count as u32);

        // Per-page first/last hashes (spill-only pages physically contain
        // the previous entity's continuation, so they carry its hash) and
        // collision bits (Figure 7).
        let mut page_first_hash: Vec<u32> = Vec::with_capacity(data_pages);
        let mut page_last_hash: Vec<u32> = Vec::with_capacity(data_pages);
        let mut carry = hashes[0];
        for w in page_start.windows(2) {
            let page = &hashes[w[0] as usize..w[1] as usize];
            page_first_hash.push(page.first().copied().unwrap_or(carry));
            carry = page.last().copied().unwrap_or(carry);
            page_last_hash.push(carry);
        }
        let mut collision = vec![CollisionBits::default(); data_pages];
        for i in 0..data_pages.saturating_sub(1) {
            if page_last_hash[i] == page_first_hash[i + 1] {
                collision[i].continues_next = true;
                collision[i + 1].continued_prev = true;
            }
        }

        Self {
            slots,
            page_start,
            page_of,
            span,
            page_first_hash,
            collision,
            hashes,
        }
    }

    /// The slots of data page `page`: `ents` indices in `(hash, key)`
    /// order.
    pub fn page(&self, page: usize) -> &[u32] {
        &self.slots[self.page_start[page] as usize..self.page_start[page + 1] as usize]
    }

    /// Whether the slot index is a permutation of `n` entities that lists
    /// each in the data page `page_of` records for it. Assumes the page
    /// starts rise from 0 to `n`.
    fn slot_index_holds(&self, n: usize) -> bool {
        if self.slots.len() != n || self.page_of.len() != n || self.span.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        (0..self.page_start.len() - 1).all(|p| {
            self.page(p).iter().all(|&i| {
                let i = i as usize;
                i < n && !std::mem::replace(&mut seen[i], true) && usize::from(self.page_of[i]) == p
            })
        })
    }
}

/// The hash order of a key-sorted run as `(hash << 32) | index` words,
/// ascending: a stable LSD radix sort on the hash, one byte per pass. The
/// input is in index (key) order, so stability breaks hash ties by key and
/// collision runs come out contiguous and deterministic.
fn hash_order(ents: &[Entity]) -> Vec<u64> {
    let mut words: Vec<u64> = ents
        .iter()
        .enumerate()
        .map(|(i, e)| (u64::from(e.hash) << 32) | i as u64)
        .collect();
    let digit = |w: u64, pass: usize| ((w >> (32 + 8 * pass)) & 0xFF) as usize;
    let mut counts = [[0usize; 256]; 4];
    for &w in &words {
        for (pass, c) in counts.iter_mut().enumerate() {
            c[digit(w, pass)] += 1;
        }
    }
    let mut out = vec![0u64; words.len()];
    for (pass, c) in counts.iter().enumerate() {
        // A byte every hash shares leaves the order as it is.
        if c.contains(&words.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (n, &k) in next.iter_mut().zip(c) {
            *n = sum;
            sum += k;
        }
        for &w in &words {
            let d = digit(w, pass);
            out[next[d]] = w;
            next[d] += 1;
        }
        std::mem::swap(&mut words, &mut out);
    }
    words
}

impl Group {
    /// Places content at a physical address.
    pub fn new(content: GroupContent, first_ppa: Ppa) -> Self {
        Self {
            first_ppa,
            hash_list_resident: false,
            content,
        }
    }

    /// PPA of the `i`-th **data** page.
    pub fn data_ppa(&self, i: usize) -> Ppa {
        self.first_ppa.offset(self.content.dir_pages + i as u32)
    }

    /// PPA of the directory page covering directory index `idx`.
    pub fn dir_ppa(&self, idx: usize, payload: u64) -> Ppa {
        let per_page = (payload / DIR_ENTRY_BYTES) as usize;
        let page = (idx / per_page.max(1)) as u32;
        self.first_ppa.offset(page.min(self.content.dir_pages - 1))
    }

    /// All PPAs of the group (directory + data pages) — what compaction and
    /// GC read.
    pub fn all_ppas(&self) -> impl Iterator<Item = Ppa> + '_ {
        (0..self.content.total_pages()).map(move |i| self.first_ppa.offset(i))
    }
}

/// Cuts a key-sorted entity stream into group contents, each targeting at
/// most `max_total_pages` flash pages (directory pages included) of
/// `payload` usable bytes, so groups tile erase blocks without structural
/// waste.
#[derive(Debug)]
pub struct GroupPacker {
    payload: u64,
    max_total_pages: u32,
    /// The device's key length.
    key_len: u16,
    /// The open chunk: the entities of the group being filled, in a
    /// buffer reused from group to group.
    chunk: Vec<Entity>,
    /// Stored bytes of the open chunk.
    bytes: u64,
    /// Directory pages of the open chunk plus one more entry.
    dir_pages: u64,
    /// Stored bytes the open chunk may hold at `dir_pages`.
    max_bytes: u64,
    /// The groups cut so far.
    groups: Vec<GroupContent>,
}

impl GroupPacker {
    /// A packer of entities with `key_len`-byte keys, holding none yet.
    pub fn new(payload: u64, max_total_pages: u32, key_len: u16) -> Self {
        let mut packer = Self {
            payload,
            max_total_pages,
            key_len,
            chunk: Vec::new(),
            bytes: 0,
            dir_pages: 1,
            max_bytes: 0,
            groups: Vec::new(),
        };
        packer.max_bytes = packer.limit();
        packer
    }

    /// A chunk fits when `bytes.div_ceil(payload) + dir_pages <=
    /// max_total_pages`, that is when `bytes` is at most this limit, which
    /// moves only when the chunk's directory grows by a page.
    fn limit(&self) -> u64 {
        u64::from(self.max_total_pages).saturating_sub(self.dir_pages) * self.payload
    }

    /// Appends the next entity of the stream (keys strictly ascending).
    pub fn push(&mut self, e: Entity) {
        let sz = e.stored_bytes(self.key_len);
        // Projected footprint if `e` joins the chunk: byte-continuous data
        // pages plus the key-sorted directory pages.
        let dir_bytes = (self.chunk.len() as u64 + 1) * DIR_ENTRY_BYTES;
        while dir_bytes > self.dir_pages * self.payload {
            self.dir_pages += 1;
            self.max_bytes = self.limit();
        }
        if !self.chunk.is_empty() && self.bytes + sz > self.max_bytes {
            self.cut();
            (self.bytes, self.dir_pages) = (0, 1);
            self.max_bytes = self.limit();
        }
        self.bytes += sz;
        self.chunk.push(e);
    }

    /// Closes the open chunk as a group. The group gets an exactly-sized
    /// copy and the chunk buffer is reused, which leaves the allocator
    /// less fragmented than trimming each chunk in place.
    fn cut(&mut self) {
        self.groups.push(GroupContent::new(
            self.chunk.to_vec(),
            self.payload,
            self.key_len,
        ));
        self.chunk.clear();
    }

    /// Closes the last chunk; returns the groups in key order.
    pub fn finish(mut self) -> Vec<GroupContent> {
        if !self.chunk.is_empty() {
            self.cut();
        }
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anykey::entity::ValueLoc;
    use crate::key::Key;

    fn entities(n: u64, key_len: u16, value_len: u32) -> Vec<Entity> {
        (0..n)
            .map(|id| {
                let hash = Key::new(id, key_len).unwrap().hash32();
                Entity::new(id, hash, value_len, ValueLoc::Inline, false)
            })
            .collect()
    }

    /// Packs a key-sorted run through the streamed packer.
    fn pack(
        ents: &[Entity],
        payload: u64,
        max_total_pages: u32,
        key_len: u16,
    ) -> Vec<GroupContent> {
        let mut packer = GroupPacker::new(payload, max_total_pages, key_len);
        for &e in ents {
            packer.push(e);
        }
        packer.finish()
    }

    const PAYLOAD: u64 = 8128;

    #[test]
    fn build_preserves_every_entity() {
        let g = GroupContent::new(entities(500, 48, 43), PAYLOAD, 48);
        assert_eq!(g.entity_count(), 500);
        let keys: Vec<u64> = g.ents.iter().map(|e| e.id).collect();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn pages_are_hash_sorted_across_boundaries() {
        let g = GroupContent::new(entities(2000, 48, 43), PAYLOAD, 48);
        let mut prev = 0u32;
        for p in 0..g.data_pages() as usize {
            for &i in g.layout().page(p) {
                let e = &g.ents[i as usize];
                assert!(e.hash >= prev);
                prev = e.hash;
            }
        }
    }

    #[test]
    fn packing_is_byte_continuous() {
        let g = GroupContent::new(entities(2000, 48, 43), PAYLOAD, 48);
        let total: u64 = g.ents.iter().map(|e| e.stored_bytes(48)).sum();
        assert_eq!(g.data_pages() as u64, total.div_ceil(PAYLOAD));
        // The layout fills exactly the pages counted without it.
        assert_eq!(g.layout().page_start.len(), g.data_pages() as usize + 1);
        // Small entities never span more than one boundary.
        assert!(g.layout().span.iter().all(|&s| s <= 1));
    }

    #[test]
    fn huge_inline_values_span_pages() {
        // Values comparable to the page size must not halve capacity.
        let g = GroupContent::new(entities(100, 16, 4096), PAYLOAD, 16);
        let total: u64 = g.ents.iter().map(|e| e.stored_bytes(16)).sum();
        assert_eq!(g.data_pages() as u64, total.div_ceil(PAYLOAD));
        let spanning = g.layout().span.iter().filter(|&&s| s > 0).count();
        assert!(spanning > 0, "4KB values in 8KB pages must span sometimes");
        // Routing still finds every entity via the backward walk.
        for e in &g.ents {
            let mut p = g.route_page(e.hash);
            loop {
                if g.search_page(p, e.hash, e.id).is_some() {
                    break;
                }
                assert!(p > 0, "entity {} unreachable", e.id);
                p -= 1;
            }
        }
    }

    #[test]
    fn routing_finds_every_entity_with_local_search() {
        let g = GroupContent::new(entities(3000, 48, 43), PAYLOAD, 48);
        for e in &g.ents {
            let mut p = g.route_page(e.hash);
            // Device-style backward walk on prefix ambiguity.
            loop {
                if g.search_page(p, e.hash, e.id).is_some() {
                    break;
                }
                assert!(p > 0, "entity {} unreachable by routing", e.id);
                let first = g.ents[g.layout().page(p)[0] as usize].hash;
                assert!(
                    e.hash < first || (e.hash == first && g.layout().collision[p].continued_prev),
                    "backward walk not justified for {}",
                    e.id
                );
                p -= 1;
            }
        }
    }

    #[test]
    fn collision_bits_mark_hash_runs_spanning_pages() {
        // Force duplicate hashes by constructing entities manually.
        let mut ents = entities(100, 48, 43);
        // Give a run of 60 entities the same hash: they will span a page.
        for e in ents.iter_mut().take(60) {
            e.hash = 0x7777_7777;
            e.value_len = 400; // bigger so the run spans pages
        }
        let g = GroupContent::new(ents, 2048, 48);
        let spans: usize = g
            .layout()
            .collision
            .iter()
            .filter(|c| c.continues_next || c.continued_prev)
            .count();
        assert!(spans >= 2, "expected a cross-page hash run");
    }

    #[test]
    fn hash_list_membership_is_exact() {
        let ents = entities(1000, 48, 43);
        let g = GroupContent::new(ents.clone(), PAYLOAD, 48);
        for e in &ents {
            assert!(g.contains_hash(e.hash));
        }
        // A hash not in the set (probability of accidental collision with
        // 1000 entries is negligible; pick until absent).
        let absent = (0..100u32)
            .map(|i| 0xDEAD_0000 ^ i)
            .find(|h| g.layout().hashes.binary_search(h).is_err())
            .unwrap();
        assert!(!g.contains_hash(absent));
    }

    #[test]
    fn dir_pages_scale_with_entity_count() {
        let few = GroupContent::new(entities(100, 24, 10), PAYLOAD, 24);
        assert_eq!(few.dir_pages, 1);
        let many = GroupContent::new(entities(5000, 24, 10), PAYLOAD, 24);
        assert!(many.dir_pages >= 2, "5000 * 4B of directory needs 3 pages");
    }

    #[test]
    fn pack_groups_covers_all_entities_in_order() {
        let ents = entities(20_000, 48, 43);
        let groups = pack(&ents, PAYLOAD, 32, 48);
        let total: usize = groups.iter().map(|g| g.entity_count()).sum();
        assert_eq!(total, 20_000);
        // Groups are key-range partitioned and ordered.
        for w in groups.windows(2) {
            assert!(w[0].largest() < w[1].smallest());
        }
        // Data page targets are respected (±1 for hash-order repack).
        for g in &groups {
            assert!(g.total_pages() <= 32, "group has {} pages", g.total_pages());
        }
    }

    #[test]
    fn meta_bytes_are_group_granular() {
        let g = GroupContent::new(entities(1000, 48, 43), PAYLOAD, 48);
        // ~48 + 4 + 2/page + collision bits + fixed: a few hundred bytes
        // for a 1000-entity group — the entire point of AnyKey (vs ~52 KB
        // for PinK's per-pair metadata on the same 1000 pairs).
        assert!(g.meta_bytes() < 200);
        assert_eq!(g.hash_list_bytes(), 4000);
    }

    #[test]
    fn smallest_and_largest_bound_the_group() {
        let g = GroupContent::new(entities(100, 48, 43), PAYLOAD, 48);
        assert_eq!(g.smallest(), 0);
        assert_eq!(g.largest(), 99);
    }

    /// A group as the reference builds it: one `Vec` per data page of
    /// each entity with the extra pages it spans.
    struct RefGroup {
        pages: Vec<Vec<(Entity, u8)>>,
        dir: Vec<(u16, u16)>,
        dir_pages: u32,
        page_first_hash: Vec<u32>,
        collision: Vec<CollisionBits>,
        hashes: Vec<u32>,
        kv_bytes: u64,
        logged_bytes: u64,
        phys_bytes: u64,
        smallest: u64,
        largest: u64,
    }

    /// Reference group build with comparison sorts: entities sorted by
    /// `(hash, key)` into per-page `Vec`s, the directory sorted by key
    /// through the pages, and the hash list re-sorted.
    /// `GroupContent` and its lazy [`Layout`] must match it field for
    /// field.
    fn reference_build(entities: Vec<Entity>, payload: u64, key_len: u16) -> RefGroup {
        let count = entities.len();
        let kv_bytes = entities.iter().map(|e| e.kv_bytes(key_len)).sum();
        let logged_bytes = entities.iter().map(Entity::logged_bytes).sum();
        let mut by_hash = entities;
        by_hash.sort_by(|a, b| a.hash.cmp(&b.hash).then(a.id.cmp(&b.id)));
        let mut pages: Vec<Vec<(Entity, u8)>> = Vec::new();
        let mut cur: Vec<(Entity, u8)> = Vec::new();
        let mut offset = 0u64;
        for e in by_hash {
            let sz = e.stored_bytes(key_len);
            let start_page = offset / payload;
            let end_page = (offset + sz - 1) / payload;
            while (pages.len() as u64) < start_page {
                pages.push(std::mem::take(&mut cur));
            }
            cur.push((e, (end_page - start_page) as u8));
            offset += sz;
        }
        pages.push(cur);
        while (pages.len() as u64) < offset.div_ceil(payload) {
            pages.push(Vec::new());
        }
        let mut page_first_hash: Vec<u32> = Vec::new();
        let mut page_last_hash: Vec<u32> = Vec::new();
        let mut carry = pages[0].first().map(|(e, _)| e.hash).unwrap_or(0);
        for p in &pages {
            page_first_hash.push(p.first().map(|(e, _)| e.hash).unwrap_or(carry));
            carry = p.last().map(|(e, _)| e.hash).unwrap_or(carry);
            page_last_hash.push(carry);
        }
        let mut collision = vec![CollisionBits::default(); pages.len()];
        for i in 0..pages.len().saturating_sub(1) {
            if page_last_hash[i] == page_first_hash[i + 1] {
                collision[i].continues_next = true;
                collision[i + 1].continued_prev = true;
            }
        }
        let mut dir: Vec<(u16, u16)> = pages
            .iter()
            .enumerate()
            .flat_map(|(p, page)| (0..page.len()).map(move |s| (p as u16, s as u16)))
            .collect();
        dir.sort_by(|&(pa, sa), &(pb, sb)| {
            pages[pa as usize][sa as usize]
                .0
                .id
                .cmp(&pages[pb as usize][sb as usize].0.id)
        });
        let mut hashes: Vec<u32> = pages.iter().flatten().map(|(e, _)| e.hash).collect();
        hashes.sort_unstable();
        let dir_pages = ((count as u64 * DIR_ENTRY_BYTES).div_ceil(payload)).max(1) as u32;
        let phys_bytes = (dir_pages as u64 + pages.len() as u64) * payload;
        let key_at = |(p, s): (u16, u16)| pages[p as usize][s as usize].0.id;
        let (smallest, largest) = (key_at(dir[0]), key_at(dir[count - 1]));
        RefGroup {
            pages,
            dir,
            dir_pages,
            page_first_hash,
            collision,
            hashes,
            kv_bytes,
            logged_bytes,
            phys_bytes,
            smallest,
            largest,
        }
    }

    /// Reference packing: every entity copied into a fresh chunk `Vec`,
    /// each chunk built by [`reference_build`].
    fn reference_pack(
        entities: Vec<Entity>,
        payload: u64,
        max_total_pages: u32,
        key_len: u16,
    ) -> Vec<RefGroup> {
        let mut out = Vec::new();
        let mut chunk: Vec<Entity> = Vec::new();
        let mut bytes = 0u64;
        for e in entities {
            let sz = e.stored_bytes(key_len);
            let data_pages = (bytes + sz).div_ceil(payload);
            let dir_pages = ((chunk.len() as u64 + 1) * DIR_ENTRY_BYTES)
                .div_ceil(payload)
                .max(1);
            if !chunk.is_empty() && data_pages + dir_pages > max_total_pages as u64 {
                out.push(reference_build(
                    std::mem::take(&mut chunk),
                    payload,
                    key_len,
                ));
                bytes = 0;
            }
            bytes += sz;
            chunk.push(e);
        }
        if !chunk.is_empty() {
            out.push(reference_build(chunk, payload, key_len));
        }
        out
    }

    /// Asserts a group equals the reference in every field, its flat
    /// entity run cut at `page_start` matching the reference's per-page
    /// `Vec`s. The group-level fields are checked before the layout is
    /// built, so they are known without it. The destructuring is
    /// exhaustive, so a field added to `GroupContent` or `Layout` must be
    /// added here.
    fn assert_same_group(
        got: &GroupContent,
        want: &RefGroup,
        (payload, key_len): (u64, u16),
        ctx: &str,
    ) {
        assert!(!got.layout_built(), "{ctx}: layout built before a read");
        let GroupContent {
            ents,
            dir_pages,
            data_pages,
            kv_bytes,
            logged_bytes,
            phys_bytes,
            smallest,
            largest,
            payload: packed_to,
            key_len: packed_key_len,
            layout: _,
        } = got;
        assert_eq!(*packed_to, payload, "{ctx}: payload");
        assert_eq!(*packed_key_len, key_len, "{ctx}: key length");
        assert_eq!(*data_pages as usize, want.pages.len(), "{ctx}: data pages");
        assert_eq!(dir_pages, &want.dir_pages, "{ctx}: directory pages");
        assert_eq!(kv_bytes, &want.kv_bytes, "{ctx}: kv bytes");
        assert_eq!(logged_bytes, &want.logged_bytes, "{ctx}: logged bytes");
        assert_eq!(phys_bytes, &want.phys_bytes, "{ctx}: physical bytes");
        assert_eq!(smallest, &want.smallest, "{ctx}: smallest fence");
        assert_eq!(largest, &want.largest, "{ctx}: largest fence");

        let Layout {
            slots,
            page_start,
            page_of,
            span,
            page_first_hash,
            collision,
            hashes,
        } = got.layout();
        assert!(got.layout_built(), "{ctx}: layout kept after a read");
        assert_eq!(page_start.len(), want.pages.len() + 1, "{ctx}: page count");
        for (p, page) in want.pages.iter().enumerate() {
            let (lo, hi) = (page_start[p] as usize, page_start[p + 1] as usize);
            let got: Vec<(Entity, u8)> = slots[lo..hi]
                .iter()
                .map(|&i| (ents[i as usize], span[i as usize]))
                .collect();
            assert_eq!(got, page[..], "{ctx}: page {p} (with spans)");
        }
        assert_eq!(
            page_start.last().map(|&e| e as usize),
            Some(ents.len()),
            "{ctx}: page starts end at the entity count"
        );
        // Entity `i` is the reference directory's `i`-th entry: its page
        // is `page_of[i]` and its slot there points back at `i`.
        assert_eq!(slots.len(), want.dir.len(), "{ctx}: slot count");
        assert_eq!(page_of.len(), want.dir.len(), "{ctx}: page-of count");
        assert_eq!(span.len(), want.dir.len(), "{ctx}: span count");
        for (i, &(p, s)) in want.dir.iter().enumerate() {
            assert_eq!(page_of[i], p, "{ctx}: page of entity {i}");
            let k = page_start[p as usize] as usize + s as usize;
            assert_eq!(slots[k] as usize, i, "{ctx}: slot {s} of page {p}");
            assert_eq!(
                (ents[i], span[i]),
                want.pages[p as usize][s as usize],
                "{ctx}: entity {i} in key order"
            );
        }
        assert_eq!(
            page_first_hash, &want.page_first_hash,
            "{ctx}: page first hashes"
        );
        assert_eq!(collision, &want.collision, "{ctx}: collision bits");
        assert_eq!(hashes, &want.hashes, "{ctx}: hash list");
    }

    /// Builds `ents` alone and packed at several group sizes, with both the
    /// current and the reference code, and asserts identical results
    /// including the chunk boundaries.
    fn assert_matches_reference(ents: &[Entity], payload: u64, key_len: u16, ctx: &str) {
        assert_same_group(
            &GroupContent::new(ents.to_vec(), payload, key_len),
            &reference_build(ents.to_vec(), payload, key_len),
            (payload, key_len),
            &format!("{ctx}: single group"),
        );
        for max_pages in [2, 8, 32] {
            let got = pack(ents, payload, max_pages, key_len);
            let want = reference_pack(ents.to_vec(), payload, max_pages, key_len);
            assert_eq!(
                got.iter()
                    .map(GroupContent::entity_count)
                    .collect::<Vec<_>>(),
                want.iter().map(|w| w.dir.len()).collect::<Vec<_>>(),
                "{ctx}: chunk boundaries at {max_pages} pages"
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same_group(
                    g,
                    w,
                    (payload, key_len),
                    &format!("{ctx}: group {i} of {max_pages}-page packing"),
                );
            }
        }
    }

    /// A seeded key-sorted run mixing inline, logged and tombstone
    /// entities, with occasional 4–8 KiB inline values.
    fn random_run(seed: u64, n: usize, key_len: u16) -> Vec<Entity> {
        use crate::bytelog::Extent;
        use anykey_flash::BlockId;
        let mut rng = anykey_workload::SplitMix64::new(seed);
        let mut id = 0u64;
        (0..n)
            .map(|_| {
                id += 1 + rng.next_bounded(5);
                let (value_len, loc, tombstone) = match rng.next_bounded(20) {
                    0 => (0, ValueLoc::Inline, true),
                    1 => (
                        4096 + rng.next_bounded(4097) as u32,
                        ValueLoc::Inline,
                        false,
                    ),
                    2..=9 => {
                        let ptr = Extent {
                            block: BlockId(rng.next_bounded(64) as u32),
                            page: rng.next_bounded(128) as u16,
                            pages: 1 + rng.next_bounded(2) as u8,
                        };
                        (
                            1 + rng.next_bounded(2000) as u32,
                            ValueLoc::Logged(ptr),
                            false,
                        )
                    }
                    _ => (rng.next_bounded(300) as u32, ValueLoc::Inline, false),
                };
                let hash = Key::new(id, key_len).unwrap().hash32();
                Entity::new(id, hash, value_len, loc, tombstone)
            })
            .collect()
    }

    #[test]
    fn build_matches_reference_on_seeded_runs() {
        let mut rng = anykey_workload::SplitMix64::new(0xB01D);
        let mut lens = vec![1, 2, 3, 17, 200, 1_000, 5_000, 20_000];
        lens.extend((0..6).map(|_| 1 + rng.next_bounded(20_000) as usize));
        for (seed, &n) in lens.iter().enumerate() {
            for (payload, key_len) in [(PAYLOAD, 24), (2048, 48), (PAYLOAD, 8)] {
                let ents = random_run(seed as u64, n, key_len);
                assert_matches_reference(
                    &ents,
                    payload,
                    key_len,
                    &format!("seed {seed}, {n} entities, payload {payload}"),
                );
            }
        }
    }

    /// Equal hashes spanning page boundaries, as in
    /// `collision_bits_mark_hash_runs_spanning_pages`, interleaved with
    /// tombstones, logged values and page-sized inline values.
    fn forced_hash_runs() -> Vec<Entity> {
        let mut ents = random_run(7, 3_000, 24);
        for (i, e) in ents.iter_mut().enumerate() {
            match i % 10 {
                0..=3 => e.hash = 0x7777_7777,
                4 => e.hash = 0x7777_7778,
                5 => e.hash = 0x0000_0001,
                _ => {}
            }
        }
        ents
    }

    #[test]
    fn build_matches_reference_on_forced_hash_runs() {
        let ents = forced_hash_runs();
        assert_matches_reference(&ents, 2048, 24, "forced runs, 2 KiB payload");
        assert_matches_reference(&ents, PAYLOAD, 24, "forced runs, 8 KiB payload");
        let mut same = entities(500, 48, 400);
        for e in &mut same {
            e.hash = 0xABCD_0000;
        }
        assert_matches_reference(&same, 2048, 48, "one hash for every entity");
        // The radix sort skips a pass whose byte every hash shares: runs
        // whose hashes differ only in the lowest byte, and only in the
        // highest, sort on that one byte (with ties, since 3,000 entities
        // share 256 values).
        let mut rng = anykey_workload::SplitMix64::new(0x4AD1);
        for (shift, ctx) in [(0, "lowest byte"), (24, "highest byte")] {
            let mut ents = random_run(11, 3_000, 24);
            for e in &mut ents {
                let byte = rng.next_bounded(256) as u32;
                e.hash = (0x5A5A_5A5A & !(0xFF << shift)) | (byte << shift);
            }
            let ctx = format!("hashes differ in the {ctx}");
            assert_matches_reference(&ents, 2048, 24, &ctx);
            assert_matches_reference(&ents, PAYLOAD, 24, &ctx);
        }
    }

    /// GET's page walk (`AnyKeyStore::get_levels`): search the routed page,
    /// then step back while the page's first hash says the run may start
    /// earlier.
    fn walk_lookup(g: &GroupContent, hash: u32, id: u64) -> Option<&Entity> {
        let mut p = g.route_page(hash);
        loop {
            if let Some(i) = g.search_page(p, hash, id) {
                return Some(&g.ents[i]);
            }
            let l = g.layout();
            let first = l.page_first_hash[p];
            if p > 0 && (hash < first || (hash == first && l.collision[p].continued_prev)) {
                p -= 1;
            } else {
                return None;
            }
        }
    }

    /// Checks the page walk and `dir_lower_bound` against a brute-force
    /// scan of the key-sorted input for every id up to past the last one:
    /// present keys under their own hash, absent keys under their own hash
    /// and under the hash of the entity before them (so they land inside
    /// equal-hash runs).
    fn assert_lookups_match_brute_force(ents: &[Entity], payload: u64, key_len: u16, ctx: &str) {
        let mut groups = pack(ents, payload, u32::MAX, key_len);
        assert_eq!(groups.len(), 1, "{ctx}: an unbounded packer cuts one group");
        let g = groups.remove(0);
        let last = ents[ents.len() - 1].id;
        for id in 0..=last + 2 {
            let below = ents.partition_point(|e| e.id < id);
            assert_eq!(g.dir_lower_bound(id), below, "{ctx}: lower bound of {id}");
            match ents.get(below).filter(|e| e.id == id) {
                Some(want) => {
                    let got = walk_lookup(&g, want.hash, id)
                        .unwrap_or_else(|| panic!("{ctx}: present key {id} not found"));
                    assert_eq!(got, want, "{ctx}: key {id}");
                }
                None => {
                    let mut probes = vec![Key::new(id, key_len).unwrap().hash32()];
                    probes.extend(below.checked_sub(1).map(|b| ents[b].hash));
                    for hash in probes {
                        assert!(
                            walk_lookup(&g, hash, id).is_none(),
                            "{ctx}: absent key {id} found under hash {hash:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn page_search_and_lower_bound_match_brute_force() {
        for seed in 0..4u64 {
            for (payload, key_len) in [(PAYLOAD, 24), (2048, 48)] {
                let ents = random_run(0x5EA7 + seed, 1_500, key_len);
                assert_lookups_match_brute_force(
                    &ents,
                    payload,
                    key_len,
                    &format!("seed {seed}, payload {payload}"),
                );
            }
        }
        let ents = forced_hash_runs();
        assert_lookups_match_brute_force(&ents, 2048, 24, "forced runs, 2 KiB payload");
        assert_lookups_match_brute_force(&ents, PAYLOAD, 24, "forced runs, 8 KiB payload");
    }
}
