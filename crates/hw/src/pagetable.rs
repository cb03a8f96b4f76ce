//! Simulated x86-64-style page tables with refcounted, shareable nodes.
//!
//! Page-table nodes live in an arena ([`PageTables`]) and carry a
//! reference count, so the paper's key mechanism — *"mapping becomes
//! changing a single pointer in a page table to refer to existing page
//! tables"* (§3.1/§4.1) — is implemented literally by [`PageTables::share`]:
//! a single entry write that points one address space's interior node
//! at a subtree owned by a file or by another address space.
//!
//! Levels follow x86-64: level 3 is the root (PML4), level 0 the leaf
//! page table. Leaf entries may live at level 0 (4 KiB), level 1
//! (2 MiB huge) or level 2 (1 GiB huge).
//!
//! The arena charges simulated costs for every entry write and node
//! allocation, and bumps the corresponding [`PerfCounters`] fields, so
//! experiments can report exactly how many per-page operations each
//! design performed.
//!
//! [`PerfCounters`]: crate::perf::PerfCounters

use core::fmt;
use o1_obs::CostKind;

use crate::addr::{FrameNo, PageSize, PhysAddr, VirtAddr, PAGE_SIZE, PT_ENTRIES, PT_LEVELS};
use crate::machine::Machine;
use crate::mmu::span_within;

/// Page-table entry permission / status bits.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Entry allows writes.
    pub const WRITE: PteFlags = PteFlags(1 << 0);
    /// Entry allows instruction fetch.
    pub const EXEC: PteFlags = PteFlags(1 << 1);
    /// Entry is user-accessible.
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Hardware-set: the page was referenced.
    pub const ACCESSED: PteFlags = PteFlags(1 << 3);
    /// Hardware-set: the page was written.
    pub const DIRTY: PteFlags = PteFlags(1 << 4);
    /// Copy-on-write marker (software bit).
    pub const COW: PteFlags = PteFlags(1 << 5);

    /// Empty flag set (read-only kernel mapping).
    pub const fn empty() -> PteFlags {
        PteFlags(0)
    }

    /// Typical read-write user data mapping.
    pub const fn user_rw() -> PteFlags {
        PteFlags(Self::WRITE.0 | Self::USER.0)
    }

    /// Typical read-only user mapping.
    pub const fn user_ro() -> PteFlags {
        PteFlags(Self::USER.0)
    }

    /// Union of two flag sets.
    #[inline]
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Remove `other`'s bits.
    #[inline]
    pub const fn difference(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }

    /// True if all bits of `other` are set.
    #[inline]
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        for (bit, ch) in [
            (Self::WRITE, 'W'),
            (Self::EXEC, 'X'),
            (Self::USER, 'U'),
            (Self::ACCESSED, 'A'),
            (Self::DIRTY, 'D'),
            (Self::COW, 'C'),
        ] {
            s.push(if self.contains(bit) { ch } else { '-' });
        }
        write!(f, "PteFlags({s})")
    }
}

/// Identifier of a page-table node in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PtNodeId(u32);

/// One page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Entry {
    /// Not present.
    #[default]
    None,
    /// Pointer to a lower-level node.
    Table(PtNodeId),
    /// Terminal mapping. The page size is implied by the node level.
    Leaf {
        /// First frame of the mapping.
        frame: FrameNo,
        /// Permission and status bits.
        flags: PteFlags,
    },
}

#[derive(Debug)]
struct Node {
    level: u8,
    /// Number of parents (plus explicit retains) referencing this node.
    /// Zero marks a free arena slot: its `entries` buffer is all
    /// [`Entry::None`] and is handed back out by the next allocation.
    refs: u32,
    /// Number of non-`None` entries, for cheap emptiness checks.
    live: u16,
    entries: Box<[Entry]>,
}

impl Node {
    fn new(level: u8) -> Node {
        Node {
            level,
            refs: 1,
            live: 0,
            entries: vec![Entry::None; PT_ENTRIES].into_boxed_slice(),
        }
    }
}

/// Errors from mapping operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapError {
    /// The target slot already holds a mapping.
    AlreadyMapped,
    /// The walk hit a leaf (huge page) above the requested level, or a
    /// table where a leaf was requested.
    Conflict,
    /// Address or frame not aligned to the requested page size.
    Misaligned,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped => write!(f, "slot already mapped"),
            MapError::Conflict => write!(f, "conflicting mapping granularity"),
            MapError::Misaligned => write!(f, "misaligned address or frame"),
        }
    }
}

impl std::error::Error for MapError {}

/// Result of a successful translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Flags of the leaf entry.
    pub flags: PteFlags,
    /// Page size of the leaf entry.
    pub size: PageSize,
    /// Number of node references the walk touched (for cost charging).
    pub levels_touched: u8,
}

/// The leaves one [`PageTables::unmap_leaves`] step cleared: a run
/// from one node, so all of one page size, in VA order. Held inline
/// (one node's worth), so a range unmap allocates nothing on the host.
#[derive(Clone, Debug)]
pub struct ClearedLeaves {
    size: PageSize,
    len: usize,
    vas: [VirtAddr; PT_ENTRIES],
    frames: [FrameNo; PT_ENTRIES],
}

impl Default for ClearedLeaves {
    fn default() -> Self {
        ClearedLeaves {
            size: PageSize::Base,
            len: 0,
            vas: [VirtAddr(0); PT_ENTRIES],
            frames: [FrameNo(0); PT_ENTRIES],
        }
    }
}

impl ClearedLeaves {
    /// Page size of every leaf in the run.
    pub fn size(&self) -> PageSize {
        self.size
    }

    /// Where each leaf was met, ascending.
    pub fn vas(&self) -> &[VirtAddr] {
        &self.vas[..self.len]
    }

    /// `(va, first frame)` of each leaf, in VA order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtAddr, FrameNo)> + '_ {
        self.vas()
            .iter()
            .copied()
            .zip(self.frames[..self.len].iter().copied())
    }
}

/// Arena of refcounted page-table nodes shared by all address spaces.
///
/// A freed node keeps its slot and its (cleared) entry buffer, marked
/// free by `refs == 0`; allocation pops `free_ids` LIFO and reuses the
/// slot in place, so steady-state launch and teardown touch no host
/// allocator.
#[derive(Debug, Default)]
pub struct PageTables {
    nodes: Vec<Node>,
    /// Free slots, most recently freed last.
    free_ids: Vec<u32>,
    /// Bumped on every structural change (entry writes, node
    /// allocation/free). Flag-only updates ([`mark_accessed`],
    /// [`test_and_clear_accessed`]) do not bump it. Software walk
    /// caches key their validity on this counter.
    ///
    /// [`mark_accessed`]: Self::mark_accessed
    /// [`test_and_clear_accessed`]: Self::test_and_clear_accessed
    epoch: u64,
}

impl PageTables {
    /// Empty arena.
    pub fn new() -> PageTables {
        PageTables::default()
    }

    /// Current structural-mutation epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_ids.len()
    }

    /// Bytes of page-table metadata currently allocated (each node is
    /// one 4 KiB frame, as on real hardware).
    pub fn metadata_bytes(&self) -> u64 {
        self.node_count() as u64 * PAGE_SIZE
    }

    /// Check the arena's slot invariants (test/debug support;
    /// O(arena)): every live node's `live` equals its count of
    /// non-`None` entries, every free (`refs == 0`) slot holds an
    /// all-`None` buffer, and `free_ids` lists exactly the free slots.
    pub fn check_consistency(&self) -> bool {
        let slots_ok = self.nodes.iter().all(|n| {
            let used = n
                .entries
                .iter()
                .filter(|e| !matches!(e, Entry::None))
                .count();
            used == usize::from(n.live) && (n.refs > 0 || used == 0)
        });
        let mut listed = self.free_ids.clone();
        listed.sort_unstable();
        let free: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].refs == 0)
            .collect();
        slots_ok && listed == free
    }

    fn node(&self, id: PtNodeId) -> &Node {
        let n = &self.nodes[id.0 as usize];
        assert!(n.refs > 0, "stale PtNodeId: node was freed");
        n
    }

    fn node_mut(&mut self, id: PtNodeId) -> &mut Node {
        let n = &mut self.nodes[id.0 as usize];
        assert!(n.refs > 0, "stale PtNodeId: node was freed");
        n
    }

    /// Level of `id` (0 = leaf page table, 3 = root).
    pub fn level(&self, id: PtNodeId) -> u8 {
        self.node(id).level
    }

    /// Current reference count of `id`.
    pub fn refs(&self, id: PtNodeId) -> u32 {
        self.node(id).refs
    }

    /// Number of live entries in `id`.
    pub fn live_entries(&self, id: PtNodeId) -> u16 {
        self.node(id).live
    }

    /// Allocate a fresh node at `level`, charging one node allocation.
    /// The caller holds the initial reference.
    pub fn create_node(&mut self, m: &mut Machine, level: u8) -> PtNodeId {
        m.charge_kind(CostKind::PtNodeAlloc);
        m.perf.pt_nodes_alloced += 1;
        self.create_node_uncharged(level)
    }

    /// State-only node allocation: identical arena and epoch effects
    /// to [`create_node`](Self::create_node) but no cost or perf
    /// charge (the node-creating descent charges in aggregate).
    fn create_node_uncharged(&mut self, level: u8) -> PtNodeId {
        assert!(level < crate::addr::PT_LEVELS, "bad page-table level");
        self.epoch += 1;
        match self.free_ids.pop() {
            Some(i) => {
                // The freed slot's buffer is already all `None`.
                let n = &mut self.nodes[i as usize];
                debug_assert!(n.refs == 0 && n.live == 0);
                n.level = level;
                n.refs = 1;
                PtNodeId(i)
            }
            None => {
                self.nodes.push(Node::new(level));
                PtNodeId((self.nodes.len() - 1) as u32)
            }
        }
    }

    /// Allocate a root (level-3) node for a new address space.
    pub fn create_root(&mut self, m: &mut Machine) -> PtNodeId {
        self.create_node(m, crate::addr::PT_LEVELS - 1)
    }

    /// Take an additional reference on `id`.
    pub fn retain(&mut self, id: PtNodeId) {
        self.node_mut(id).refs += 1;
    }

    /// Drop one reference on `id`; when the count reaches zero the node
    /// and (recursively) its exclusively-owned children are freed.
    ///
    /// Leaf entries are *not* freed here: the frames they map are owned
    /// by the allocator or file layer.
    pub fn release(&mut self, m: &mut Machine, id: PtNodeId) {
        let node = self.node_mut(id);
        node.refs -= 1;
        if node.refs > 0 {
            return;
        }
        // Free this node first, then clear its live entries in index
        // order, releasing child tables as they are met (depth is
        // bounded by PT_LEVELS). The scan stops at the last live entry
        // and leaves the slot's buffer all `None` for reuse.
        self.free_ids.push(id.0);
        self.epoch += 1;
        m.charge_kind(CostKind::PtNodeFree);
        m.perf.pt_nodes_freed += 1;
        for idx in 0..PT_ENTRIES {
            let n = &mut self.nodes[id.0 as usize];
            if n.live == 0 {
                break;
            }
            if matches!(n.entries[idx], Entry::None) {
                continue;
            }
            n.live -= 1;
            if let Entry::Table(child) = core::mem::take(&mut n.entries[idx]) {
                self.release(m, child);
            }
        }
    }

    /// Read the raw entry at (`node`, `index`).
    pub fn entry(&self, node: PtNodeId, index: usize) -> Entry {
        self.node(node).entries[index]
    }

    fn set_entry(&mut self, m: &mut Machine, node: PtNodeId, index: usize, e: Entry) {
        m.charge_kind(CostKind::PteWrite);
        m.perf.pte_writes += 1;
        self.set_entry_uncharged(node, index, e);
    }

    /// State-only entry write: identical node and epoch effects to
    /// [`set_entry`] but no cost or perf charge (installs charge in
    /// aggregate).
    fn set_entry_uncharged(&mut self, node: PtNodeId, index: usize, e: Entry) {
        self.epoch += 1;
        let n = self.node_mut(node);
        let old_live = !matches!(n.entries[index], Entry::None);
        let new_live = !matches!(e, Entry::None);
        match (old_live, new_live) {
            (false, true) => n.live += 1,
            (true, false) => n.live -= 1,
            _ => {}
        }
        n.entries[index] = e;
    }

    /// Walk from `root` to the node at `target_level` for `va`,
    /// creating missing intermediate nodes: the one descent that
    /// creates nodes. State only — it returns the node and how many
    /// nodes it created, and the caller charges them with
    /// [`charge_installs`](Self::charge_installs). A descent that
    /// fails (it met a huge-page leaf) has created nothing, because a
    /// freshly created node holds no leaf.
    fn descend_create(
        &mut self,
        root: PtNodeId,
        va: VirtAddr,
        target_level: u8,
    ) -> Result<(PtNodeId, u64), MapError> {
        let mut cur = root;
        let mut level = self.node(cur).level;
        debug_assert_eq!(level, crate::addr::PT_LEVELS - 1);
        let mut created = 0u64;
        while level > target_level {
            let idx = va.pt_index(level);
            match self.entry(cur, idx) {
                Entry::Table(child) => cur = child,
                Entry::None => {
                    let child = self.create_node_uncharged(level - 1);
                    self.set_entry_uncharged(cur, idx, Entry::Table(child));
                    created += 1;
                    cur = child;
                }
                Entry::Leaf { .. } => return Err(MapError::Conflict),
            }
            level -= 1;
        }
        Ok((cur, created))
    }

    /// Charge `nodes` node creations and `entries` further entry
    /// writes: one `PtNodeAlloc` per node, and one `PteWrite` per
    /// node link and per entry. The ledger sums `(phase, kind)` rows
    /// and the clock is a sum, so one block charged after an install
    /// is identical to charging each write as it happens; zero counts
    /// charge nothing, so no ledger row appears that per-write
    /// charging would not have created.
    pub fn charge_installs(m: &mut Machine, nodes: u64, entries: u64) {
        m.charge_opn(CostKind::PtNodeAlloc, nodes);
        m.perf.pt_nodes_alloced += nodes;
        m.charge_opn(CostKind::PteWrite, nodes + entries);
        m.perf.pte_writes += nodes + entries;
    }

    /// Map one page of `size` at `va` to `frame`.
    ///
    /// Charges node allocations for any intermediate tables created and
    /// one PTE write for the leaf.
    pub fn map(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
        frame: FrameNo,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MapError> {
        let created = self.map_uncharged(root, va, frame, size, flags)?;
        Self::charge_installs(m, created, 1);
        Ok(())
    }

    /// Map a contiguous physical extent of `npages` base pages starting
    /// at `frame` to virtual address `va`, greedily using 1 GiB and
    /// 2 MiB mappings where alignment allows (when `use_huge`).
    ///
    /// Returns the number of leaf entries written — the measure of
    /// per-page work that the paper's Figure 1a plots. The whole
    /// extent is charged in one block after its entries are written
    /// (see [`charge_installs`](Self::charge_installs)). On a
    /// mid-extent error the entries already written are charged, as
    /// per-page [`map`](Self::map) calls would have been, and the
    /// error is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn map_extent(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
        frame: FrameNo,
        npages: u64,
        flags: PteFlags,
        use_huge: bool,
    ) -> Result<u64, MapError> {
        if !va.is_aligned(PAGE_SIZE) {
            return Err(MapError::Misaligned);
        }
        let (mut va, mut frame, mut left) = (va, frame, npages);
        let (mut entries, mut created) = (0u64, 0u64);
        let result = loop {
            if left == 0 {
                break Ok(entries);
            }
            let size = if use_huge {
                Self::best_size(va, frame, left)
            } else {
                PageSize::Base
            };
            match self.map_uncharged(root, va, frame, size, flags) {
                Ok(n) => created += n,
                Err(e) => break Err(e),
            }
            let pages = size.bytes() / PAGE_SIZE;
            va += size.bytes();
            frame = frame + pages;
            left -= pages;
            entries += 1;
        };
        Self::charge_installs(m, created, entries);
        result
    }

    /// Map one page of `size` with the same arena mutations, epoch
    /// bumps and failure modes as [`map`](Self::map) but **no**
    /// cost/perf charges. Returns the number of intermediate nodes
    /// created so the caller can charge them with
    /// [`charge_installs`](Self::charge_installs). A failed call
    /// changes nothing.
    pub fn map_uncharged(
        &mut self,
        root: PtNodeId,
        va: VirtAddr,
        frame: FrameNo,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<u64, MapError> {
        if !va.is_aligned(size.bytes()) || !frame.base().is_aligned(size.bytes()) {
            return Err(MapError::Misaligned);
        }
        let leaf_level = size.leaf_level();
        let (node, created) = self.descend_create(root, va, leaf_level)?;
        let idx = va.pt_index(leaf_level);
        if !matches!(self.entry(node, idx), Entry::None) {
            return Err(MapError::AlreadyMapped);
        }
        self.set_entry_uncharged(node, idx, Entry::Leaf { frame, flags });
        Ok(created)
    }

    /// Prove that none of the `len` accesses `va`, `va + stride`, …
    /// (byte stride, `|stride| ≥ PAGE_SIZE`, so each access is on its
    /// own page) has an entry installed: the absence proof of every
    /// miss-side prover. An [`Entry::None`] found in a level-`l` node
    /// covers an aligned `PAGE_SIZE << 9l`-byte region with nothing
    /// mapped below it, so one probe skips every access inside that
    /// region; any leaf (base or huge) ends the provable prefix, and
    /// so does address overflow. Returns how many leading accesses
    /// are provably absent. Read-only and charge-free: refusal costs
    /// nothing.
    pub fn absent_run(&self, root: PtNodeId, va: VirtAddr, stride: i64, len: u64) -> u64 {
        debug_assert!(stride.unsigned_abs() >= PAGE_SIZE);
        let mut proved = 0u64;
        let mut at = va.0;
        while proved < len {
            // Descend to the absent region covering `at`, if any.
            let mut cur = root;
            let mut level = self.node(cur).level;
            let region = loop {
                match self.entry(cur, VirtAddr(at).pt_index(level)) {
                    Entry::None => {
                        let bytes = PAGE_SIZE << (9 * u32::from(level));
                        let lo = at & !(bytes - 1);
                        break lo.checked_add(bytes).map(|hi| (lo, hi));
                    }
                    Entry::Table(child) => {
                        cur = child;
                        level -= 1;
                    }
                    Entry::Leaf { .. } => break None,
                }
            };
            let Some((lo, hi)) = region else { break };
            let step = span_within(at, stride, len - proved, lo, hi);
            proved += step;
            // Move to the first access past the region.
            let next = i64::try_from(step)
                .ok()
                .and_then(|s| stride.checked_mul(s))
                .and_then(|delta| at.checked_add_signed(delta));
            match next {
                Some(next) if proved < len => at = next,
                _ => break,
            }
        }
        proved
    }

    fn best_size(va: VirtAddr, frame: FrameNo, pages_left: u64) -> PageSize {
        for size in [PageSize::Huge1G, PageSize::Huge2M] {
            let pages = size.bytes() / PAGE_SIZE;
            if pages_left >= pages
                && va.is_aligned(size.bytes())
                && frame.base().is_aligned(size.bytes())
            {
                return size;
            }
        }
        PageSize::Base
    }

    /// Remove the mapping covering `va`. Returns the removed leaf and
    /// its size. Intermediate nodes that become empty (and are not
    /// shared) are freed on the way back up.
    pub fn unmap(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
    ) -> Option<(FrameNo, PteFlags, PageSize)> {
        // Record the walk path so empty nodes can be pruned.
        let mut path = [(root, 0usize); PT_LEVELS as usize];
        let mut depth = 0;
        let mut cur = root;
        let mut level = self.node(cur).level;
        let (frame, flags, size) = loop {
            let idx = va.pt_index(level);
            match self.entry(cur, idx) {
                Entry::None => return None,
                Entry::Table(child) => {
                    path[depth] = (cur, idx);
                    depth += 1;
                    cur = child;
                    level -= 1;
                }
                Entry::Leaf { frame, flags } => {
                    let size = PageSize::at_leaf_level(level);
                    self.set_entry(m, cur, idx, Entry::None);
                    break (frame, flags, size);
                }
            }
        };
        self.prune(m, root, &path[..depth], cur);
        Some((frame, flags, size))
    }

    /// Free `node` if it is empty and unshared, then each ancestor on
    /// `path` (root first, as recorded by a descent) that this leaves
    /// empty and unshared, bottom-up. The root itself is never freed.
    fn prune(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        path: &[(PtNodeId, usize)],
        node: PtNodeId,
    ) {
        let mut child = node;
        for &(parent, idx) in path.iter().rev() {
            if child == root || self.node(child).live > 0 || self.node(child).refs > 1 {
                break;
            }
            self.set_entry(m, parent, idx, Entry::None);
            self.release(m, child);
            child = parent;
        }
    }

    /// One step of a range unmap: clear the next run of leaves that
    /// overlap `[*cursor, end)`, report them in `out`, advance
    /// `*cursor` past them, and return false once none is left.
    ///
    /// A run is the leaves of one node, in VA order, up to the range
    /// end or the node's next interior entry. A step descends from
    /// `root`, and an absent entry at any level skips its whole
    /// region, so a range unmap visits each node holding its leaves
    /// once instead of descending per page. Nodes a run empties are
    /// pruned as [`unmap`](Self::unmap) prunes them, and the run's
    /// entry writes are charged as one block.
    ///
    /// Calling it until it returns false is equivalent to `unmap` at
    /// every page of the range in VA order: the same entries, epoch,
    /// node-recycle order, clock and ledger rows. Each reported VA is
    /// the page at which that loop would have met the leaf: its base,
    /// or the range start for a huge leaf straddling it.
    pub fn unmap_leaves(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        cursor: &mut VirtAddr,
        end: VirtAddr,
        out: &mut ClearedLeaves,
    ) -> bool {
        out.len = 0;
        // The root's entries cover the whole 48-bit space once; a VA
        // past it would alias low addresses.
        let end = end.0.min(Self::node_span(PT_LEVELS - 1));
        let mut at = cursor.0;
        'descend: while at < end {
            let mut path = [(root, 0usize); PT_LEVELS as usize];
            let mut depth = 0;
            let mut cur = root;
            let mut level = self.node(cur).level;
            loop {
                let entry_bytes = PAGE_SIZE << (9 * u32::from(level));
                let node_lo = at & !(Self::node_span(level) - 1);
                let stop = end.min(node_lo + Self::node_span(level));
                let last = VirtAddr(stop - 1).pt_index(level);
                let entries = &self.node(cur).entries;
                let Some(idx) = (VirtAddr(at).pt_index(level)..=last)
                    .find(|&i| !matches!(entries[i], Entry::None))
                else {
                    at = stop;
                    continue 'descend;
                };
                at = at.max(node_lo + idx as u64 * entry_bytes);
                if let Entry::Table(child) = entries[idx] {
                    path[depth] = (cur, idx);
                    depth += 1;
                    cur = child;
                    level -= 1;
                    continue;
                }
                out.size = PageSize::at_leaf_level(level);
                let mut i = idx;
                while i <= last {
                    match self.entry(cur, i) {
                        Entry::Table(_) => break,
                        Entry::Leaf { frame, .. } => {
                            self.set_entry_uncharged(cur, i, Entry::None);
                            out.vas[out.len] = VirtAddr(at.max(node_lo + i as u64 * entry_bytes));
                            out.frames[out.len] = frame;
                            out.len += 1;
                        }
                        Entry::None => {}
                    }
                    i += 1;
                }
                at = if i <= last {
                    node_lo + i as u64 * entry_bytes
                } else {
                    stop
                };
                m.charge_opn(CostKind::PteWrite, out.len as u64);
                m.perf.pte_writes += out.len as u64;
                self.prune(m, root, &path[..depth], cur);
                *cursor = VirtAddr(at);
                return true;
            }
        }
        *cursor = VirtAddr(at);
        false
    }

    /// Pure lookup without cost charging (for assertions and kernel
    /// bookkeeping that would not touch the hardware walker).
    pub fn lookup(&self, root: PtNodeId, va: VirtAddr) -> Option<Translation> {
        let (node, index, levels_touched) = self.leaf_slot(root, va)?;
        let Entry::Leaf { frame, flags } = self.entry(node, index) else {
            unreachable!("leaf_slot found a non-leaf entry");
        };
        let size = PageSize::at_leaf_level(self.level(node));
        Some(Translation {
            pa: PhysAddr(frame.base().0 + (va.0 & (size.bytes() - 1))),
            flags,
            size,
            levels_touched,
        })
    }

    /// Locate the node and entry index of the leaf covering `va`, plus
    /// the number of levels a hardware walk would touch to reach it.
    /// Pure and uncharged, like [`lookup`](Self::lookup) — this is the
    /// handle a software page-walk cache stores so later walks can
    /// re-read the live PTE without traversing the tree.
    pub fn leaf_slot(&self, root: PtNodeId, va: VirtAddr) -> Option<(PtNodeId, usize, u8)> {
        let mut cur = root;
        let mut level = self.node(cur).level;
        let mut touched = 1u8;
        loop {
            let idx = va.pt_index(level);
            match self.entry(cur, idx) {
                Entry::None => return None,
                Entry::Table(child) => {
                    cur = child;
                    level -= 1;
                    touched += 1;
                }
                Entry::Leaf { .. } => return Some((cur, idx, touched)),
            }
        }
    }

    /// Hardware page walk: like [`lookup`](Self::lookup) but charges
    /// one memory reference per level touched and counts the walk.
    pub fn walk(&self, m: &mut Machine, root: PtNodeId, va: VirtAddr) -> Option<Translation> {
        let t = self.lookup(root, va);
        let touched = t.map_or(crate::addr::PT_LEVELS, |t| t.levels_touched);
        m.perf.page_walks += 1;
        m.charge_opn(o1_obs::CostKind::PtwLevelRef, u64::from(touched));
        t
    }

    /// Replace the flags of the leaf covering `va` with `update(old)`
    /// and return the old flags. Flag-only: no charge and no epoch
    /// bump, like the hardware's in-place A/D updates.
    fn update_leaf_flags(
        &mut self,
        root: PtNodeId,
        va: VirtAddr,
        update: impl FnOnce(PteFlags) -> PteFlags,
    ) -> Option<PteFlags> {
        let (node, index, _) = self.leaf_slot(root, va)?;
        Some(self.update_slot_flags(node, index, update))
    }

    /// [`update_leaf_flags`](Self::update_leaf_flags) for the leaf at
    /// a slot [`leaf_slot`](Self::leaf_slot) returned.
    fn update_slot_flags(
        &mut self,
        node: PtNodeId,
        index: usize,
        update: impl FnOnce(PteFlags) -> PteFlags,
    ) -> PteFlags {
        let entry = &mut self.node_mut(node).entries[index];
        let Entry::Leaf { frame, flags } = *entry else {
            unreachable!("leaf slot holds a non-leaf entry");
        };
        *entry = Entry::Leaf {
            frame,
            flags: update(flags),
        };
        flags
    }

    /// Set the ACCESSED (and, for writes, DIRTY) bits on the leaf entry
    /// covering `va`, as the hardware walker does on a TLB fill.
    pub fn mark_accessed(&mut self, root: PtNodeId, va: VirtAddr, write: bool) {
        if let Some((node, index, _)) = self.leaf_slot(root, va) {
            self.mark_slot_accessed(node, index, write);
        }
    }

    /// [`mark_accessed`](Self::mark_accessed) for the leaf at a slot
    /// [`leaf_slot`](Self::leaf_slot) returned, without descending
    /// the tree again. Flag-only, like every A/D update.
    pub fn mark_slot_accessed(&mut self, node: PtNodeId, index: usize, write: bool) {
        let set = if write {
            PteFlags::ACCESSED.union(PteFlags::DIRTY)
        } else {
            PteFlags::ACCESSED
        };
        self.update_slot_flags(node, index, |f| f.union(set));
    }

    /// Clear the ACCESSED bit on the leaf covering `va`, returning its
    /// previous value (used by the clock reclaim algorithm).
    pub fn test_and_clear_accessed(&mut self, root: PtNodeId, va: VirtAddr) -> Option<bool> {
        self.update_leaf_flags(root, va, |f| f.difference(PteFlags::ACCESSED))
            .map(|old| old.contains(PteFlags::ACCESSED))
    }

    /// Write a leaf entry directly into a standalone node — used to
    /// *pre-create* page tables for a file before any process maps it
    /// (§3.1: "pre-created page tables can be stored persistently, so
    /// that even when mapping a file the first time, an existing page
    /// table can be re-used").
    ///
    /// # Panics
    /// Panics if the node's level cannot hold a leaf or the index is
    /// out of range.
    pub fn set_leaf(
        &mut self,
        m: &mut Machine,
        node: PtNodeId,
        index: usize,
        frame: FrameNo,
        flags: PteFlags,
    ) {
        assert!(index < PT_ENTRIES, "entry index out of range");
        let level = self.node(node).level;
        assert!(level <= 2, "leaves live at levels 0–2");
        self.set_entry(m, node, index, Entry::Leaf { frame, flags });
    }

    /// Interior node of `root`'s tree covering `va` at `level`, if one
    /// exists. This is the handle used to share subtrees.
    pub fn subtree(&self, root: PtNodeId, va: VirtAddr, level: u8) -> Option<PtNodeId> {
        let mut cur = root;
        let mut cur_level = self.node(cur).level;
        while cur_level > level {
            match self.entry(cur, va.pt_index(cur_level)) {
                Entry::Table(child) => {
                    cur = child;
                    cur_level -= 1;
                }
                _ => return None,
            }
        }
        (cur_level == level).then_some(cur)
    }

    /// Virtual span in bytes covered by one node at `level`.
    pub fn node_span(level: u8) -> u64 {
        PAGE_SIZE << (9 * (level as u32 + 1))
    }

    /// Attach an existing subtree `node` into `root`'s tree so that it
    /// covers `va` — the paper's O(1) "pointer swing" shared mapping.
    ///
    /// `va` must be aligned to the subtree's span (2 MiB for a level-0
    /// node, 1 GiB for level-1, …) and the slot must be empty. The
    /// subtree gains a reference. Only the intermediate nodes above the
    /// attach point are created; the cost is independent of how many
    /// pages the subtree maps.
    pub fn share(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
        node: PtNodeId,
    ) -> Result<(), MapError> {
        let node_level = self.node(node).level;
        assert!(
            node_level < crate::addr::PT_LEVELS - 1,
            "cannot share a root node"
        );
        if !va.is_aligned(Self::node_span(node_level)) {
            return Err(MapError::Misaligned);
        }
        let (parent, created) = self.descend_create(root, va, node_level + 1)?;
        let idx = va.pt_index(node_level + 1);
        if !matches!(self.entry(parent, idx), Entry::None) {
            return Err(MapError::AlreadyMapped);
        }
        self.retain(node);
        self.set_entry_uncharged(parent, idx, Entry::Table(node));
        Self::charge_installs(m, created, 1);
        m.perf.pt_shares += 1;
        Ok(())
    }

    /// Detach a subtree previously attached with [`share`](Self::share)
    /// at `va`. Returns the detached node id. The subtree loses one
    /// reference (and is freed if that was the last).
    pub fn unshare(
        &mut self,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
        level: u8,
    ) -> Option<PtNodeId> {
        let parent = self.subtree(root, va, level + 1)?;
        let idx = va.pt_index(level + 1);
        match self.entry(parent, idx) {
            Entry::Table(child) => {
                self.set_entry(m, parent, idx, Entry::None);
                self.release(m, child);
                Some(child)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HUGE_1G, HUGE_2M};

    fn setup() -> (Machine, PageTables, PtNodeId) {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        (m, pt, root)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut m, mut pt, root) = setup();
        let va = VirtAddr(0x4000_1000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(42),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let t = pt.lookup(root, va + 0x123).unwrap();
        assert_eq!(t.pa, PhysAddr(42 * PAGE_SIZE + 0x123));
        assert_eq!(t.size, PageSize::Base);
        assert!(t.flags.contains(PteFlags::WRITE));
        assert!(pt.lookup(root, VirtAddr(0x9999_0000)).is_none());
    }

    #[test]
    fn map_charges_per_entry() {
        let (mut m, mut pt, root) = setup();
        let before = m.perf.pte_writes;
        // First map creates 3 intermediate links + 1 leaf = 4 writes.
        pt.map(
            &mut m,
            root,
            VirtAddr(0),
            FrameNo(1),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(m.perf.pte_writes - before, 4);
        assert_eq!(m.perf.pt_nodes_alloced, 1 + 3); // root + 3 levels
                                                    // Second map in the same leaf node: 1 write.
        let before = m.perf.pte_writes;
        pt.map(
            &mut m,
            root,
            VirtAddr(PAGE_SIZE),
            FrameNo(2),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(m.perf.pte_writes - before, 1);
    }

    #[test]
    fn double_map_rejected() {
        let (mut m, mut pt, root) = setup();
        let va = VirtAddr(0x1000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(1),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(
            pt.map(
                &mut m,
                root,
                va,
                FrameNo(2),
                PageSize::Base,
                PteFlags::user_rw()
            ),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn misaligned_rejected() {
        let (mut m, mut pt, root) = setup();
        assert_eq!(
            pt.map(
                &mut m,
                root,
                VirtAddr(0x1000),
                FrameNo(512),
                PageSize::Huge2M,
                PteFlags::user_rw()
            ),
            Err(MapError::Misaligned)
        );
        assert_eq!(
            pt.map(
                &mut m,
                root,
                VirtAddr(HUGE_2M),
                FrameNo(3),
                PageSize::Huge2M,
                PteFlags::user_rw()
            ),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn huge_pages_translate() {
        let (mut m, mut pt, root) = setup();
        pt.map(
            &mut m,
            root,
            VirtAddr(HUGE_2M),
            FrameNo(512),
            PageSize::Huge2M,
            PteFlags::user_rw(),
        )
        .unwrap();
        let t = pt.lookup(root, VirtAddr(HUGE_2M + 0x12_3456)).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert_eq!(t.pa, PhysAddr(512 * PAGE_SIZE + 0x12_3456));
        // Conflicting base-page map inside the huge mapping fails.
        assert_eq!(
            pt.map(
                &mut m,
                root,
                VirtAddr(HUGE_2M + PAGE_SIZE),
                FrameNo(9),
                PageSize::Base,
                PteFlags::user_rw()
            ),
            Err(MapError::Conflict)
        );
    }

    #[test]
    fn huge_1g_translate() {
        let (mut m, mut pt, root) = setup();
        let frame = FrameNo(HUGE_1G / PAGE_SIZE);
        pt.map(
            &mut m,
            root,
            VirtAddr(HUGE_1G),
            frame,
            PageSize::Huge1G,
            PteFlags::user_ro(),
        )
        .unwrap();
        let t = pt.lookup(root, VirtAddr(HUGE_1G + 0x3fff_ffff)).unwrap();
        assert_eq!(t.size, PageSize::Huge1G);
        assert_eq!(t.pa, PhysAddr(HUGE_1G + 0x3fff_ffff));
    }

    #[test]
    fn map_extent_uses_huge_pages() {
        let (mut m, mut pt, root) = setup();
        // 4 MiB extent, 2 MiB-aligned on both sides: 2 huge entries.
        let entries = pt
            .map_extent(
                &mut m,
                root,
                VirtAddr(HUGE_2M),
                FrameNo(512),
                1024,
                PteFlags::user_rw(),
                true,
            )
            .unwrap();
        assert_eq!(entries, 2);
        // Without huge pages the same extent takes 1024 entries.
        let entries = pt
            .map_extent(
                &mut m,
                root,
                VirtAddr(16 * HUGE_2M),
                FrameNo(512),
                1024,
                PteFlags::user_rw(),
                false,
            )
            .unwrap();
        assert_eq!(entries, 1024);
    }

    #[test]
    fn map_extent_unaligned_falls_back() {
        let (mut m, mut pt, root) = setup();
        // Misaligned start forces base pages until a 2 MiB boundary.
        let entries = pt
            .map_extent(
                &mut m,
                root,
                VirtAddr(HUGE_2M - 2 * PAGE_SIZE),
                FrameNo(510),
                512 + 2,
                PteFlags::user_rw(),
                true,
            )
            .unwrap();
        // 2 base pages + 1 huge page.
        assert_eq!(entries, 3);
    }

    /// The per-leaf reference [`PageTables::map_extent`] must match:
    /// one charged `map` per leaf, stopping at the first error.
    fn map_each_leaf(
        pt: &mut PageTables,
        m: &mut Machine,
        root: PtNodeId,
        va: VirtAddr,
        frame: FrameNo,
        npages: u64,
        use_huge: bool,
    ) -> Result<u64, MapError> {
        let (mut va, mut frame, mut left, mut entries) = (va, frame, npages, 0);
        while left > 0 {
            let size = if use_huge {
                PageTables::best_size(va, frame, left)
            } else {
                PageSize::Base
            };
            pt.map(m, root, va, frame, size, PteFlags::user_rw())?;
            let pages = size.bytes() / PAGE_SIZE;
            va += size.bytes();
            frame = frame + pages;
            left -= pages;
            entries += 1;
        }
        Ok(entries)
    }

    #[test]
    fn map_extent_charges_like_per_leaf_maps() {
        let p = PAGE_SIZE;
        // (va, first frame, pages, use_huge, base page mapped first)
        let cases = [
            // Base leaves across a 2 MiB edge: a second leaf table.
            (HUGE_2M - 8 * p, 100, 600, false, None),
            // Base head below a 1 GiB edge, two 2 MiB leaves, base
            // tail: new nodes on both sides of the edge.
            (HUGE_1G - 3 * p, HUGE_1G / p - 3, 3 + 1024 + 5, true, None),
            // AlreadyMapped mid-extent on base leaves.
            (HUGE_2M - 8 * p, 100, 600, false, Some(HUGE_2M + 20 * p)),
            // AlreadyMapped mid-extent on the second 2 MiB leaf.
            (
                HUGE_1G - 3 * p,
                HUGE_1G / p - 3,
                3 + 1024 + 5,
                true,
                Some(HUGE_1G + HUGE_2M + 7 * p),
            ),
        ];
        for (va, frame, pages, use_huge, premapped) in cases {
            let run = |extent: bool| {
                let mut m = Machine::from_config(crate::machine::MachineConfig {
                    dram_bytes: 64 << 20,
                    obs: crate::machine::ObsMode::On,
                    ..Default::default()
                });
                let mut pt = PageTables::new();
                let root = pt.create_root(&mut m);
                let flags = PteFlags::user_rw();
                if let Some(at) = premapped {
                    let at = VirtAddr(at);
                    pt.map(&mut m, root, at, FrameNo(1), PageSize::Base, flags)
                        .unwrap();
                }
                let (va, frame) = (VirtAddr(va), FrameNo(frame));
                let got = if extent {
                    pt.map_extent(&mut m, root, va, frame, pages, flags, use_huge)
                } else {
                    map_each_leaf(&mut pt, &mut m, root, va, frame, pages, use_huge)
                };
                let mapped: Vec<Option<PhysAddr>> = (0..pages)
                    .map(|i| pt.lookup(root, va + i * PAGE_SIZE).map(|t| t.pa))
                    .collect();
                let rows = m.take_trace().expect("ledger on").rows;
                (got, m.now(), m.perf, rows, mapped, pt.node_count())
            };
            let (extent, reference) = (run(true), run(false));
            assert_eq!(extent, reference, "extent at {va:#x}, huge {use_huge}");
            assert_eq!(extent.0.is_err(), premapped.is_some());
            // The pages before the error were installed (and charged).
            assert!(extent.4[0].is_some());
        }
    }

    #[test]
    fn unmap_prunes_empty_nodes() {
        let (mut m, mut pt, root) = setup();
        pt.map(
            &mut m,
            root,
            VirtAddr(0x1000),
            FrameNo(1),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(pt.node_count(), 4);
        let (f, _, size) = pt.unmap(&mut m, root, VirtAddr(0x1000)).unwrap();
        assert_eq!(f, FrameNo(1));
        assert_eq!(size, PageSize::Base);
        assert_eq!(pt.node_count(), 1, "interior nodes pruned, root kept");
        assert!(pt.unmap(&mut m, root, VirtAddr(0x1000)).is_none());
    }

    #[test]
    fn share_is_one_pointer_swing() {
        let (mut m, mut pt, root_a) = setup();
        let root_b = pt.create_root(&mut m);
        let va = VirtAddr(4 * HUGE_2M);
        // Process A maps 512 pages.
        for i in 0..512u64 {
            pt.map(
                &mut m,
                root_a,
                va + i * PAGE_SIZE,
                FrameNo(1000 + i),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let leaf = pt.subtree(root_a, va, 0).unwrap();
        // Process B attaches the whole 2 MiB subtree.
        let writes_before = m.perf.pte_writes;
        pt.share(&mut m, root_b, va, leaf).unwrap();
        let writes = m.perf.pte_writes - writes_before;
        assert!(writes <= 4, "share wrote {writes} entries, want O(1)");
        assert_eq!(m.perf.pt_shares, 1);
        // B sees A's mappings.
        let t = pt.lookup(root_b, va + 5 * PAGE_SIZE).unwrap();
        assert_eq!(t.pa, PhysAddr((1000 + 5) * PAGE_SIZE));
        assert_eq!(pt.refs(leaf), 2);
    }

    #[test]
    fn share_misaligned_rejected() {
        let (mut m, mut pt, root_a) = setup();
        let root_b = pt.create_root(&mut m);
        pt.map(
            &mut m,
            root_a,
            VirtAddr(HUGE_2M),
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let leaf = pt.subtree(root_a, VirtAddr(HUGE_2M), 0).unwrap();
        assert_eq!(
            pt.share(&mut m, root_b, VirtAddr(HUGE_2M + PAGE_SIZE), leaf),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn unshare_releases_reference() {
        let (mut m, mut pt, root_a) = setup();
        let root_b = pt.create_root(&mut m);
        let va = VirtAddr(HUGE_2M);
        pt.map(
            &mut m,
            root_a,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let leaf = pt.subtree(root_a, va, 0).unwrap();
        pt.share(&mut m, root_b, va, leaf).unwrap();
        assert_eq!(pt.refs(leaf), 2);
        let got = pt.unshare(&mut m, root_b, va, 0).unwrap();
        assert_eq!(got, leaf);
        assert_eq!(pt.refs(leaf), 1);
        assert!(pt.lookup(root_b, va).is_none());
        // A's view is untouched.
        assert!(pt.lookup(root_a, va).is_some());
    }

    #[test]
    fn release_frees_recursively() {
        let (mut m, mut pt, root) = setup();
        for i in 0..4u64 {
            pt.map(
                &mut m,
                root,
                VirtAddr(i * HUGE_1G),
                FrameNo(i),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        assert!(pt.node_count() > 4);
        pt.release(&mut m, root);
        assert_eq!(pt.node_count(), 0);
        assert_eq!(m.perf.pt_nodes_freed, m.perf.pt_nodes_alloced);
        assert!(pt.check_consistency());
    }

    #[test]
    fn released_nodes_recycle_lifo_in_preorder() {
        let (mut m, mut pt, root) = setup();
        // Three populated leaf tables: two under one level-1 node, one
        // under another. Ids: root 0, L2 1, L1 2, L0 3, L0 4, L1 5, L0 6.
        for va in [0, HUGE_2M, HUGE_1G] {
            pt.map(
                &mut m,
                root,
                VirtAddr(va),
                FrameNo(va / PAGE_SIZE),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        assert_eq!(pt.node_count(), 7);
        pt.release(&mut m, root);
        assert!(pt.check_consistency());
        // Release frees each node before its children, in entry order,
        // and allocation pops the most recently freed slot first.
        let ids: Vec<PtNodeId> = (0..8).map(|_| pt.create_node(&mut m, 0)).collect();
        let want: Vec<PtNodeId> = [6, 5, 4, 3, 2, 1, 0, 7].map(PtNodeId).to_vec();
        assert_eq!(ids, want);
        // Recycled slots come back empty.
        assert!(ids.iter().all(|&id| pt.live_entries(id) == 0));
        assert!(pt.check_consistency());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_and_entry_sizes_are_pinned() {
        // fig_hostmem and fig_service's host-live gauges read the real
        // heap, so these sizes are part of the committed figure bytes.
        assert_eq!(core::mem::size_of::<Node>(), 24);
        assert_eq!(core::mem::size_of::<Entry>(), 16);
    }

    #[test]
    #[should_panic(expected = "stale PtNodeId")]
    fn freed_node_id_is_stale() {
        let (mut m, mut pt, root) = setup();
        pt.release(&mut m, root);
        pt.level(root);
    }

    #[test]
    fn shared_subtree_survives_owner_release() {
        let (mut m, mut pt, root_a) = setup();
        let root_b = pt.create_root(&mut m);
        let va = VirtAddr(HUGE_2M);
        pt.map(
            &mut m,
            root_a,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let leaf = pt.subtree(root_a, va, 0).unwrap();
        pt.share(&mut m, root_b, va, leaf).unwrap();
        pt.release(&mut m, root_a);
        // B still translates through the shared leaf node.
        assert_eq!(pt.lookup(root_b, va).unwrap().pa, PhysAddr(7 * PAGE_SIZE));
        pt.release(&mut m, root_b);
        assert_eq!(pt.node_count(), 0);
    }

    #[test]
    fn accessed_dirty_bits() {
        let (mut m, mut pt, root) = setup();
        let va = VirtAddr(0x7000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(3),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(pt.test_and_clear_accessed(root, va), Some(false));
        pt.mark_accessed(root, va, false);
        assert_eq!(pt.test_and_clear_accessed(root, va), Some(true));
        assert_eq!(pt.test_and_clear_accessed(root, va), Some(false));
        pt.mark_accessed(root, va, true);
        assert!(pt.lookup(root, va).unwrap().flags.contains(PteFlags::DIRTY));
        assert_eq!(
            pt.test_and_clear_accessed(root, VirtAddr(0x0dea_d000)),
            None
        );
    }

    #[test]
    fn walk_charges_per_level() {
        let (mut m, mut pt, root) = setup();
        let va = VirtAddr(0x5000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(3),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let (t, ns) = m.timed(|m| pt.walk(m, root, va));
        assert!(t.is_some());
        assert_eq!(ns, m.cost.walk(4));
        assert_eq!(m.perf.page_walks, 1);
    }

    #[test]
    fn node_span_values() {
        assert_eq!(PageTables::node_span(0), HUGE_2M);
        assert_eq!(PageTables::node_span(1), HUGE_1G);
        assert_eq!(PageTables::node_span(2), 512 * HUGE_1G);
    }

    #[test]
    fn metadata_accounting() {
        let (mut m, mut pt, root) = setup();
        assert_eq!(pt.metadata_bytes(), PAGE_SIZE);
        pt.map(
            &mut m,
            root,
            VirtAddr(0),
            FrameNo(1),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        assert_eq!(pt.metadata_bytes(), 4 * PAGE_SIZE);
    }
}
