//! The simulated MMU: ties together the range TLB, the page TLB, the
//! range table and the page-table walker.
//!
//! Translation order on each access (when range translations are
//! enabled, per the Gandhi et al. proposal the paper adopts):
//!
//! 1. probe the **range TLB** (fully associative, small);
//! 2. probe the **page TLB**;
//! 3. walk the **range table** (≈ 2 memory references);
//! 4. walk the **page tables** (up to 4 memory references), filling
//!    the page TLB and setting ACCESSED/DIRTY bits;
//! 5. otherwise raise a translation fault for the kernel to handle.
//!
//! Every step charges its modelled cost and bumps the perf counters,
//! so experiments can attribute time to translation machinery exactly.

use crate::addr::{FrameNo, PageNo, PageSize, PhysAddr, VirtAddr};
use crate::fasthash::FastMap;
use crate::machine::{CpuId, Machine};
use crate::pagetable::{Entry, PageTables, PtNodeId, PteFlags, Translation};
use crate::range::{RangeTable, RangeTlb};
use crate::tlb::{Asid, Tlb};
use o1_obs::CostKind;

/// Kind of memory access being translated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Data load.
    Read,
    /// Data store.
    Write,
}

/// Translation failure, to be turned into a page fault by the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslateError {
    /// No mapping covers the address.
    NotMapped,
    /// A mapping exists but forbids this access.
    Protection,
}

impl core::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TranslateError::NotMapped => write!(f, "address not mapped"),
            TranslateError::Protection => write!(f, "protection violation"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Which structure satisfied a translation (for diagnostics/tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Satisfied {
    /// Range-TLB hit.
    RangeTlb,
    /// Page-TLB hit.
    PageTlb,
    /// Range-table walk.
    RangeWalk,
    /// Page-table walk.
    PageWalk,
}

/// A successful translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translated {
    /// Resulting physical address.
    pub pa: PhysAddr,
    /// Which structure produced it.
    pub by: Satisfied,
}

/// How deep the hardware translation is — §2 of the paper: "Intel
/// recently introduced 5-level address translation, which can address
/// 4PB of physical memory but requires up to 35 memory references in
/// virtualized systems." The mode scales the cost of every TLB-miss
/// walk; the structures walked stay the same (we model the extra
/// levels/nesting as pure reference-count overhead).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WalkMode {
    /// Native 4-level paging: up to 4 references per walk.
    #[default]
    Native4,
    /// Native 5-level paging: up to 5 references per walk.
    Native5,
    /// 4-level guest under 4-level EPT: up to 24 references.
    Virtualized4,
    /// 5-level guest under 5-level EPT: up to 35 references.
    Virtualized5,
}

impl WalkMode {
    /// Memory references charged for a walk that touched `levels`
    /// guest levels (4 on a leaf hit at the bottom).
    pub fn refs(self, levels: u8) -> u64 {
        let l = u64::from(levels);
        match self {
            WalkMode::Native4 => l,
            WalkMode::Native5 => l + 1,
            // Nested translation: each guest level costs a host walk
            // plus itself — (n+1)² − 1 total for a full n-level walk.
            WalkMode::Virtualized4 => l * 6,     // 24 at l = 4
            WalkMode::Virtualized5 => l * 8 + 3, // 35 at l = 4
        }
    }

    /// References beyond the native-4-level baseline (already charged
    /// by the walker itself).
    fn extra_refs(self, levels: u8) -> u64 {
        self.refs(levels) - u64::from(levels)
    }
}

/// One remembered leaf slot in the software page-walk cache: where
/// the leaf PTE for a page lives, and how many levels the hardware
/// walk touched to find it. Frame and flags are re-read from the live
/// PTE on every hit, so hardware A/D updates are always visible.
#[derive(Clone, Copy, Debug)]
struct WalkSlot {
    node: PtNodeId,
    index: u16,
    levels_touched: u8,
    size: PageSize,
}

impl WalkSlot {
    /// The slot of the leaf covering `va` in `root`'s tree, if any.
    fn find(pt: &PageTables, root: PtNodeId, va: VirtAddr) -> Option<WalkSlot> {
        let (node, index, levels_touched) = pt.leaf_slot(root, va)?;
        Some(WalkSlot {
            node,
            index: index as u16,
            levels_touched,
            size: PageSize::at_leaf_level(pt.level(node)),
        })
    }
}

/// Private translation state of one simulated CPU: its page TLB,
/// range TLB, and software page-walk cache.
#[derive(Debug)]
struct CpuMmu {
    /// Page TLB.
    tlb: Tlb,
    /// Range TLB.
    rtlb: RangeTlb,
    /// Software page-walk cache: `(root, base page)` → leaf slot. A
    /// pure host-side accelerator — hits charge exactly what the full
    /// walk would (one [`CostKind::PtwLevelRef`] per cached level plus
    /// one [`PerfCounters::page_walks`]), so simulated time and
    /// counters are unchanged. Valid only while the page tables'
    /// structural [`PageTables::epoch`] matches `walk_epoch`; any
    /// map/unmap/share/free empties it on the next walk. An `Mmu` must
    /// always be driven with the same [`PageTables`] arena.
    ///
    /// [`PerfCounters::page_walks`]: crate::perf::PerfCounters
    walk_cache: FastMap<(PtNodeId, PageNo), WalkSlot>,
    /// Epoch the walk-cache contents were built at.
    walk_epoch: u64,
    /// Broadcast-invalidation epoch this CPU last synchronised with.
    /// Every interpreted translate syncs; the fast-forward prover
    /// refuses to span an invalidation the CPU has not yet observed.
    synced_epoch: u64,
}

impl CpuMmu {
    fn new(tlb_geometry: Option<(usize, usize)>) -> CpuMmu {
        CpuMmu {
            tlb: tlb_geometry.map_or_else(Tlb::default, |(sets, assoc)| Tlb::new(sets, assoc)),
            rtlb: RangeTlb::default(),
            walk_cache: FastMap::default(),
            walk_epoch: 0,
            synced_epoch: 0,
        }
    }
}

/// The per-machine MMU state: one private translation-cache set per
/// simulated CPU, plus the cross-CPU invalidation machinery.
///
/// Invalidations are *broadcasts*: they drop the affected entries on
/// every CPU and charge the initiating CPU a local cost plus one IPI
/// ([`CostKind::TlbShootdownPercpu`]) per **responding** CPU — a CPU
/// whose presence bit for the target ASID is set. Presence bits are
/// set when a CPU translates for an ASID and cleared by a full ASID
/// flush, mirroring how Linux maintains `mm_cpumask`. On a one-CPU
/// machine there are never responders, so every broadcast degenerates
/// to exactly the historical local charge.
#[derive(Debug)]
pub struct Mmu {
    /// Per-CPU translation caches, indexed by [`CpuId`].
    cpus: Vec<CpuMmu>,
    /// CPU issuing translations right now.
    current: CpuId,
    /// Whether the range-translation hardware extension is present.
    pub ranges_enabled: bool,
    /// Translation depth / virtualization mode.
    pub walk_mode: WalkMode,
    /// Per-CPU ASID-presence bitmaps, interleaved: word
    /// `(asid / 64) · cpus + c` holds CPU `c`'s bits for 64 ASIDs. A
    /// set bit means the CPU may hold translations for that ASID (set
    /// on translate, cleared by a full ASID-flush broadcast). Grows,
    /// zero-filled, to the highest ASID translated so far, so it stays
    /// a few words until ASIDs run high.
    presence: Vec<u64>,
    /// Bumped by every broadcast invalidation; per-CPU `synced_epoch`
    /// trails it until the CPU next observes the world.
    inval_epoch: u64,
    /// VA extent `[lo, hi)` of the entry behind the most recent
    /// successful translation (a range entry's bounds, or the leaf's
    /// page-size-aligned region), emptied by every broadcast. A hint
    /// for the run engine, never a proof: see
    /// [`last_extent`](Self::last_extent).
    last_extent: (u64, u64),
}

impl Default for Mmu {
    fn default() -> Self {
        Mmu::smp(false, 1, None)
    }
}

impl Mmu {
    /// Fully-configured MMU: `cpus` private translation-cache sets,
    /// each with the given page-TLB geometry (`None` = default) and a
    /// default-sized range TLB.
    ///
    /// # Panics
    /// Panics if `cpus` is zero or exceeds [`crate::machine::MAX_CPUS`]
    /// (presence masks are 64-bit).
    pub fn smp(ranges_enabled: bool, cpus: u32, tlb_geometry: Option<(usize, usize)>) -> Mmu {
        assert!(cpus > 0, "MMU needs at least one CPU");
        assert!(
            cpus <= crate::machine::MAX_CPUS,
            "MMU supports at most {} CPUs",
            crate::machine::MAX_CPUS
        );
        Mmu {
            cpus: (0..cpus).map(|_| CpuMmu::new(tlb_geometry)).collect(),
            current: CpuId::BOOT,
            ranges_enabled,
            walk_mode: WalkMode::Native4,
            presence: Vec::new(),
            inval_epoch: 0,
            last_extent: (0, 0),
        }
    }

    /// Number of CPUs this MMU models.
    pub fn cpu_count(&self) -> u32 {
        self.cpus.len() as u32
    }

    /// CPU whose translation caches the next access will use.
    #[inline]
    pub fn current_cpu(&self) -> CpuId {
        self.current
    }

    /// Switch subsequent translations to `cpu`'s caches.
    ///
    /// # Panics
    /// Panics if `cpu` is out of range for this machine.
    #[inline]
    pub fn set_cpu(&mut self, cpu: CpuId) {
        assert!(
            cpu.index() < self.cpus.len(),
            "CPU {} out of range (machine has {})",
            cpu.0,
            self.cpus.len()
        );
        self.current = cpu;
    }

    /// The current CPU's page TLB.
    #[inline]
    pub fn tlb(&self) -> &Tlb {
        &self.cpus[self.current.index()].tlb
    }

    /// The current CPU's page TLB, mutably. Direct mutation bypasses
    /// broadcast charging — kernel code should prefer the
    /// invalidation methods.
    #[inline]
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.cpus[self.current.index()].tlb
    }

    /// The current CPU's range TLB.
    #[inline]
    pub fn rtlb(&self) -> &RangeTlb {
        &self.cpus[self.current.index()].rtlb
    }

    /// The current CPU's range TLB, mutably.
    #[inline]
    pub fn rtlb_mut(&mut self) -> &mut RangeTlb {
        &mut self.cpus[self.current.index()].rtlb
    }

    /// Append this MMU's gauge readings (for the timeline sampler):
    /// TLB / range-TLB / walk-cache occupancy summed across CPUs,
    /// total ASID presence-mask population, and the broadcast
    /// invalidation epoch.
    pub fn gauges(&self, out: &mut Vec<(&'static str, u64)>) {
        let (mut tlb, mut rtlb, mut walk) = (0u64, 0u64, 0u64);
        for cpu in &self.cpus {
            tlb += cpu.tlb.occupancy() as u64;
            rtlb += cpu.rtlb.occupancy() as u64;
            walk += cpu.walk_cache.len() as u64;
        }
        let presence: u64 = self
            .presence
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        out.push(("mmu.tlb_entries", tlb));
        out.push(("mmu.rtlb_entries", rtlb));
        out.push(("mmu.walk_cache_entries", walk));
        out.push(("mmu.asid_presence", presence));
        out.push(("mmu.inval_epoch", self.inval_epoch));
    }

    /// Remote CPUs that would respond to a broadcast for `asid`: those
    /// whose presence bit is set, excluding the initiating (current)
    /// CPU.
    fn responders(&self, asid: Asid) -> u64 {
        let mask = self.present_cpus(asid);
        u64::from((mask & !(1u64 << self.current.index())).count_ones())
    }

    /// Mask of the CPUs whose presence bit for `asid` is set (bit `c`
    /// for CPU `c`): one word read per CPU.
    fn present_cpus(&self, asid: Asid) -> u64 {
        let (words, bit) = self.presence_words(asid);
        self.presence
            .get(words)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .filter(|(_, w)| *w & bit != 0)
            .fold(0, |mask, (c, _)| mask | 1u64 << c)
    }

    /// Note that the current CPU translates for `asid` (sets its
    /// presence bit, making it a responder to future broadcasts).
    #[inline]
    fn note_presence(&mut self, asid: Asid) {
        let (words, bit) = self.presence_words(asid);
        if self.presence.len() < words.end {
            self.presence.resize(words.end, 0);
        }
        self.presence[words.start + self.current.index()] |= bit;
    }

    /// The `presence` words holding `asid`'s bits (one per CPU) and
    /// its bit within each.
    #[inline]
    fn presence_words(&self, asid: Asid) -> (core::ops::Range<usize>, u64) {
        let start = usize::from(asid.0 / 64) * self.cpus.len();
        (start..start + self.cpus.len(), 1u64 << (asid.0 % 64))
    }

    /// Fast-forward obligation check: true when the current CPU has
    /// observed every broadcast invalidation, i.e. the prover may
    /// assume "no concurrent invalidation overlaps this span". When
    /// false the CPU syncs (so the *next* probe may pass) and the
    /// caller must interpret — which is charge-identical, merely
    /// slower on the host.
    pub fn run_prover_ready(&mut self) -> bool {
        let cur = &mut self.cpus[self.current.index()];
        if cur.synced_epoch == self.inval_epoch {
            true
        } else {
            cur.synced_epoch = self.inval_epoch;
            false
        }
    }

    /// VA extent of the entry behind the most recent successful
    /// [`translate`](Self::translate) or [`translate_run`](Self::translate_run),
    /// on whichever CPU; empty after any broadcast invalidation.
    ///
    /// The run engine reads it to pick which prover can pay at an
    /// access `a` of a run: the hit prover only when `a` and the next
    /// access both lie inside it, the miss prover only when `a` lies
    /// outside it (inside, `a` is mapped). It is a hint, not a proof:
    /// a stale extent costs one refusal or one access interpreted
    /// instead of fused, never a different simulated result.
    #[inline]
    pub fn last_extent(&self) -> core::ops::Range<u64> {
        self.last_extent.0..self.last_extent.1
    }

    /// Note the extent `[lo, lo + bytes)` behind a successful
    /// translation.
    #[inline]
    fn note_extent(&mut self, lo: u64, bytes: u64) {
        self.last_extent = (lo, lo.saturating_add(bytes));
    }

    /// Translate `va` for `asid`, charging all hardware costs.
    ///
    /// `root` is the address space's page-table root; `ranges` its
    /// range table (ignored unless the extension is enabled).
    #[allow(clippy::too_many_arguments)] // one parameter per hardware structure
    pub fn translate(
        &mut self,
        m: &mut Machine,
        pt: &mut PageTables,
        root: PtNodeId,
        ranges: &RangeTable,
        asid: Asid,
        va: VirtAddr,
        access: Access,
    ) -> Result<Translated, TranslateError> {
        // An interpreted translate observes the world as it is: the
        // CPU is synchronised with every broadcast so far, becomes a
        // responder for this ASID, and revalidates against live TLB
        // state entry by entry.
        let cur = self.current.index();
        self.cpus[cur].synced_epoch = self.inval_epoch;
        self.note_presence(asid);

        // 1. Range TLB.
        if self.ranges_enabled {
            if let Some(entry) = self.cpus[cur].rtlb.lookup(asid, va) {
                m.perf.rtlb_hits += 1;
                m.charge_kind(CostKind::RtlbHit);
                check_prot(entry.prot, access)?;
                self.note_extent(entry.base.0, entry.limit.0 - entry.base.0);
                return Ok(Translated {
                    pa: entry.translate(va),
                    by: Satisfied::RangeTlb,
                });
            }
            m.perf.rtlb_misses += 1;
        }

        // 2. Page TLB.
        if let Some((frame, size, flags)) = self.cpus[cur].tlb.lookup(asid, va) {
            m.perf.tlb_hits += 1;
            m.charge_kind(CostKind::TlbHit);
            check_prot(flags, access)?;
            // Hardware sets the dirty bit on the first write through a
            // clean TLB entry; modelling that requires a PT update.
            if access == Access::Write {
                pt.mark_accessed(root, va, true);
            }
            self.note_extent(va.align_down(size.bytes()).0, size.bytes());
            let off = va.0 & (size.bytes() - 1);
            return Ok(Translated {
                pa: PhysAddr(frame.base().0 + off),
                by: Satisfied::PageTlb,
            });
        }
        m.perf.tlb_misses += 1;

        // 3. Range-table walk.
        if self.ranges_enabled {
            m.charge_kind(CostKind::RangeWalk);
            if let Some(entry) = ranges.lookup(va).copied() {
                check_prot(entry.prot, access)?;
                m.charge_kind(CostKind::RtlbFill);
                self.cpus[cur].rtlb.insert(asid, entry);
                self.note_extent(entry.base.0, entry.limit.0 - entry.base.0);
                return Ok(Translated {
                    pa: entry.translate(va),
                    by: Satisfied::RangeWalk,
                });
            }
        }

        // 4. Page-table walk (charges native refs; deeper/virtualized
        // modes charge the extra references on top).
        match self.cached_walk(m, pt, root, va) {
            Some((t, frame, slot)) => {
                m.charge_opn(
                    CostKind::PtwLevelRef,
                    self.walk_mode.extra_refs(t.levels_touched),
                );
                check_prot(t.flags, access)?;
                m.charge_kind(CostKind::TlbFill);
                self.cpus[cur].tlb.insert(asid, va, frame, t.size, t.flags);
                pt.mark_slot_accessed(slot.node, slot.index.into(), access == Access::Write);
                self.note_extent(va.align_down(t.size.bytes()).0, t.size.bytes());
                Ok(Translated {
                    pa: t.pa,
                    by: Satisfied::PageWalk,
                })
            }
            None => {
                m.charge_opn(
                    CostKind::PtwLevelRef,
                    self.walk_mode.extra_refs(crate::addr::PT_LEVELS),
                );
                Err(TranslateError::NotMapped)
            }
        }
    }

    /// Fast-forward probe + commit: try to prove that the next `len`
    /// accesses of an arithmetic run (`va`, `va + stride`, …, byte
    /// stride) are *uniform* — every one hits the same resident
    /// range-TLB entry or the same resident page-TLB entry, with the
    /// same protection outcome and the same memory tier — and, if at
    /// least 2 qualify, charge them all in one step.
    ///
    /// On success returns `(translation of va, span)` where `span ≥ 2`
    /// is how many leading accesses were charged: `span ×` the exact
    /// per-access hit cost (`RtlbHit` or `TlbHit`), the matching
    /// hit/miss counters bumped by `span`, one LRU refresh of the hit
    /// entry (relative stamp order — and therefore every future
    /// eviction — is identical to `span` refreshes of the same entry),
    /// and for page-TLB writes the single idempotent A/D update the
    /// interpreter would redo per access. The caller still owes the
    /// per-access memory charge for each of the `span` accesses.
    ///
    /// Returns `None` — charging nothing and mutating no simulated
    /// state — when the run cannot be proven uniform (TLB miss,
    /// protection fault, tier boundary, entry boundary, or an
    /// unobserved concurrent invalidation): the caller falls back to
    /// the per-access interpreter for at least one access.
    ///
    /// A refusal is cheap but not free on the host (a set probe per
    /// page size), so the run engine calls this only when `va` and
    /// `va + stride` lie in [`last_extent`](Self::last_extent), the
    /// one place a span can start; a success moves the extent to the
    /// entry it proved against.
    #[allow(clippy::too_many_arguments)] // mirrors `translate`
    pub fn translate_run(
        &mut self,
        m: &mut Machine,
        pt: &mut PageTables,
        root: PtNodeId,
        asid: Asid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        access: Access,
    ) -> Option<(PhysAddr, u64)> {
        if len < 2 {
            return None;
        }
        // Obligation: no broadcast invalidation the current CPU has
        // not observed may overlap the span. Refusing costs nothing —
        // the interpreter is charge-identical — and the refusal syncs
        // the CPU, so the next run fast-forwards again.
        if !self.run_prover_ready() {
            return None;
        }
        // The prover translates for `asid` on this CPU exactly as the
        // interpreter would, so presence (and thus future responder
        // counts) must not depend on which execution mode ran.
        self.note_presence(asid);
        let cur = self.current.index();
        // Range-TLB-resident span (only reachable when the extension
        // is enabled; a resident entry always wins over the page TLB,
        // exactly as in `translate`).
        if self.ranges_enabled {
            if let Some(entry) = self.cpus[cur].rtlb.peek(asid, va) {
                check_prot(entry.prot, access).ok()?;
                let span = span_within(va.0, stride, len, entry.base.0, entry.limit.0);
                if span < 2 {
                    return None;
                }
                let pa0 = entry.translate(va);
                let pa_last = run_end(pa0, stride, span)?;
                if m.phys.tier(pa0.frame()) != m.phys.tier(pa_last.frame()) {
                    return None;
                }
                // Commit. One real lookup refreshes the entry's LRU
                // stamp to the newest tick, as `span` hits would.
                let looked = self.cpus[cur].rtlb.lookup(asid, va);
                debug_assert_eq!(looked, Some(entry));
                m.perf.rtlb_hits += span;
                m.charge_opn(CostKind::RtlbHit, span);
                self.note_extent(entry.base.0, entry.limit.0 - entry.base.0);
                return Some((pa0, span));
            }
            // Every fast-forwarded page-TLB hit below would first miss
            // the range TLB, which costs nothing but is counted.
        }
        // Page-TLB-resident span, confined to one mapping region.
        let (frame, size, flags) = self.cpus[cur].tlb.peek(asid, va)?;
        check_prot(flags, access).ok()?;
        let region = va.align_down(size.bytes()).0;
        let span = span_within(va.0, stride, len, region, region + size.bytes());
        if span < 2 {
            return None;
        }
        let pa0 = PhysAddr(frame.base().0 + (va.0 & (size.bytes() - 1)));
        let pa_last = run_end(pa0, stride, span)?;
        if m.phys.tier(pa0.frame()) != m.phys.tier(pa_last.frame()) {
            return None;
        }
        // Commit.
        let looked = self.cpus[cur].tlb.lookup(asid, va);
        debug_assert!(looked.is_some());
        if self.ranges_enabled {
            m.perf.rtlb_misses += span;
        }
        m.perf.tlb_hits += span;
        m.charge_opn(CostKind::TlbHit, span);
        if access == Access::Write {
            // The interpreter re-marks A/D on every write through the
            // TLB entry; the update is idempotent and free, so once
            // per run is the identical outcome.
            pt.mark_accessed(root, va, true);
        }
        self.note_extent(region, size.bytes());
        Some((pa0, span))
    }

    /// Fast-forward **miss** probe — the dual of
    /// [`translate_run`](Self::translate_run): prove that none of the
    /// next `len` accesses of the arithmetic run (`va`, `va + stride`,
    /// …) has any translation installed, so every one would miss the
    /// TLB, walk to an absent entry, and fault. Charges nothing and
    /// mutates no simulated state beyond the same presence note an
    /// interpreted translate would make; the caller (the kernel's
    /// bulk-fault path) replays the aggregate miss/fault charges.
    ///
    /// Proof obligations:
    ///
    /// * the current CPU has observed every broadcast invalidation
    ///   ([`run_prover_ready`](Self::run_prover_ready); refusal syncs,
    ///   so the next probe may pass);
    /// * range translations are **disabled** — a range entry could
    ///   satisfy an access the page tables know nothing about;
    /// * `|stride| ≥ PAGE_SIZE`, so successive accesses touch
    ///   strictly monotone, pairwise-distinct pages (a mapping the
    ///   caller installs for access *k* can never satisfy access
    ///   *k+1* of the same run);
    /// * absence is proven from the page tables
    ///   ([`PageTables::absent_run`]);
    /// * page-TLB absence follows from the invariant TLB ⊆ page
    ///   tables (every unmap path invalidates eagerly), re-checked
    ///   per page in debug builds.
    ///
    /// Returns `Some(span)` with `span ≥ 2` — a shorter provable
    /// prefix is not worth fusing — or `None`.
    pub fn translate_miss_run(
        &mut self,
        pt: &PageTables,
        root: PtNodeId,
        asid: Asid,
        va: VirtAddr,
        stride: i64,
        len: u64,
    ) -> Option<u64> {
        if len < 2 || stride.unsigned_abs() < crate::addr::PAGE_SIZE || self.ranges_enabled {
            return None;
        }
        if !self.run_prover_ready() {
            return None;
        }
        let span = pt.absent_run(root, va, stride, len);
        if span < 2 {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            let c = self.current.index();
            let mut a = va.0;
            for _ in 0..span {
                debug_assert!(
                    self.cpus[c].tlb.peek(asid, VirtAddr(a)).is_none(),
                    "TLB ⊄ page tables: resident entry for an unmapped page"
                );
                a = a.wrapping_add_signed(stride);
            }
        }
        // The interpreter's faulting translates would note presence on
        // this CPU; the fused replay must leave the same mask.
        self.note_presence(asid);
        Some(span)
    }

    /// Leave the current CPU's software page-walk cache exactly as an
    /// interpreted bulk-fault run would have. Per faulted page the
    /// interpreter walks once to prove absence (caching nothing),
    /// installs the mapping (bumping the page-table epoch), and walks
    /// again successfully — so each page's cache fill is flushed by
    /// the next page's install, and the run ends with precisely one
    /// slot cached: the final page's. The cache is a pure host-side
    /// accelerator, but its occupancy is a timeline gauge
    /// (`mmu.walk_cache_entries`), so the fused replay must converge
    /// to the same contents. Charge-free by construction.
    pub fn replay_fault_run_walk_cache(
        &mut self,
        pt: &PageTables,
        root: PtNodeId,
        last_va: VirtAddr,
    ) {
        let Some(slot) = WalkSlot::find(pt, root, last_va) else {
            debug_assert!(false, "bulk-fault replay: final page must be mapped");
            return;
        };
        self.walk_cache(pt).insert((root, last_va.page()), slot);
    }

    /// The current CPU's software page-walk cache, emptied first if
    /// the page tables changed structure since it was filled.
    fn walk_cache(&mut self, pt: &PageTables) -> &mut FastMap<(PtNodeId, PageNo), WalkSlot> {
        let cpu = &mut self.cpus[self.current.index()];
        if cpu.walk_epoch != pt.epoch() {
            cpu.walk_cache.clear();
            cpu.walk_epoch = pt.epoch();
        }
        &mut cpu.walk_cache
    }

    /// Hardware page walk through the software page-walk cache.
    ///
    /// Returns the same [`Translation`] the raw [`PageTables::walk`]
    /// would produce, plus the leaf's frame (what the TLB fill needs)
    /// and its slot (where the A/D update lands, with no second
    /// descent), while charging the identical cost: one page-walk
    /// count and one `PtwLevelRef` per level touched. On a cache hit the host
    /// skips the tree traversal and re-reads the live leaf PTE
    /// directly, so A/D-bit updates done in place remain visible.
    /// Structural page-table changes bump [`PageTables::epoch`], which
    /// empties the cache here before it can serve a stale slot.
    fn cached_walk(
        &mut self,
        m: &mut Machine,
        pt: &PageTables,
        root: PtNodeId,
        va: VirtAddr,
    ) -> Option<(Translation, FrameNo, WalkSlot)> {
        let cache = self.walk_cache(pt);
        let key = (root, va.page());
        let slot = match cache.get(&key) {
            Some(&slot) => slot,
            None => match WalkSlot::find(pt, root, va) {
                Some(slot) => {
                    cache.insert(key, slot);
                    slot
                }
                None => {
                    // Exactly what `PageTables::walk` charges for a
                    // failed walk: one counted walk at full depth.
                    m.perf.page_walks += 1;
                    m.charge_opn(CostKind::PtwLevelRef, u64::from(crate::addr::PT_LEVELS));
                    return None;
                }
            },
        };
        let (frame, flags) = match pt.entry(slot.node, slot.index as usize) {
            Entry::Leaf { frame, flags } => (frame, flags),
            _ => unreachable!("walk-cache slot went stale within an epoch"),
        };
        m.perf.page_walks += 1;
        m.charge_opn(CostKind::PtwLevelRef, u64::from(slot.levels_touched));
        let off = va.0 & (slot.size.bytes() - 1);
        let t = Translation {
            pa: PhysAddr(frame.base().0 + off),
            flags,
            size: slot.size,
            levels_touched: slot.levels_touched,
        };
        Some((t, frame, slot))
    }

    /// `rounds` SMP broadcasts for `asid`, delivered as one: `charge`
    /// the initiator's cost with the responding CPU count, bump the
    /// invalidation epoch once per round, apply `on_cpu` (the union of
    /// the rounds' invalidations) to every CPU that may hold the
    /// ASID's entries, forget the last translation's extent, and mark
    /// the current CPU synced. Only CPUs whose presence bit is set can
    /// hold the entries (set on translate, cleared with the entries by
    /// a full flush), so the broadcast walks just those.
    #[inline]
    fn broadcast(
        &mut self,
        m: &mut Machine,
        asid: Asid,
        rounds: u64,
        charge: impl FnOnce(&mut Machine, u64),
        on_cpu: impl Fn(&mut CpuMmu),
    ) {
        charge(m, self.responders(asid));
        self.inval_epoch += rounds;
        self.last_extent = (0, 0);
        let mut bits = self.present_cpus(asid);
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            on_cpu(&mut self.cpus[c]);
        }
        self.cpus[self.current.index()].synced_epoch = self.inval_epoch;
    }

    /// Broadcast a single-page invalidation (INVLPG): drop the entry
    /// on every CPU, charging the local `invlpg` plus one IPI per
    /// responding remote CPU. On a one-CPU machine this is exactly
    /// the historical local invalidation.
    pub fn invalidate_page(&mut self, m: &mut Machine, asid: Asid, va: VirtAddr) {
        self.broadcast(
            m,
            asid,
            1,
            |m, r| m.charge_invlpg_broadcast(1, r),
            |cpu| cpu.tlb.invalidate_page(asid, va),
        );
    }

    /// [`invalidate_page`](Self::invalidate_page) at each of `vas`
    /// (ascending), as one aggregated broadcast: the charges, the
    /// shootdown count and the epoch of one broadcast per page, and on
    /// each responding CPU the same entries dropped
    /// ([`Tlb::invalidate_pages`]). Nothing reads TLB state between
    /// the per-page broadcasts it stands for, so the outcome is
    /// theirs.
    pub fn invalidate_pages(&mut self, m: &mut Machine, asid: Asid, vas: &[VirtAddr]) {
        let rounds = vas.len() as u64;
        if rounds == 0 {
            return;
        }
        self.broadcast(
            m,
            asid,
            rounds,
            |m, r| m.charge_invlpg_broadcast(rounds, r),
            |cpu| cpu.tlb.invalidate_pages(asid, vas),
        );
    }

    /// Broadcast one cached-range invalidation — the O(1) unmap path:
    /// one shootdown per *range*, however many pages it spans.
    pub fn invalidate_range(&mut self, m: &mut Machine, asid: Asid, base: VirtAddr) {
        self.broadcast(
            m,
            asid,
            1,
            |m, r| m.charge_invlpg_broadcast(1, r),
            |cpu| cpu.rtlb.invalidate(asid, base),
        );
    }

    /// Broadcast a full ASID flush: drop every translation for the
    /// address space on every CPU, charge the local flush plus one IPI
    /// per responding CPU, and clear the ASID's presence mask (no CPU
    /// holds it any more).
    pub fn flush_asid(&mut self, m: &mut Machine, asid: Asid) {
        self.broadcast(m, asid, 1, Machine::charge_shootdown, |cpu| {
            cpu.tlb.flush_asid(asid);
            cpu.rtlb.flush_asid(asid);
        });
        let (words, bit) = self.presence_words(asid);
        for w in self.presence.get_mut(words).unwrap_or_default() {
            *w &= !bit;
        }
    }

    /// Charge (only) an end-of-operation shootdown round for `asid`:
    /// the initiating CPU's flush cost plus one IPI per responding
    /// CPU. TLB state is untouched — per-entry invalidation has
    /// already been applied by the per-page/per-range broadcasts this
    /// round summarises.
    pub fn charge_shootdown(&self, m: &mut Machine, asid: Asid) {
        m.charge_shootdown(self.responders(asid));
    }
}

/// How many leading accesses of the arithmetic run `va, va+stride, …`
/// (at most `len`) stay inside `[lo, hi)`. `va` itself must be inside.
/// Public because the kernels' fast-forward paths clamp provable runs
/// to VMA/extent bounds with exactly this rule.
pub fn span_within(va: u64, stride: i64, len: u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= va && va < hi);
    if stride == 0 {
        return len;
    }
    let steps = if stride > 0 {
        (hi - 1 - va) / stride.unsigned_abs()
    } else {
        (va - lo) / stride.unsigned_abs()
    };
    steps.saturating_add(1).min(len)
}

/// Address of the run's last access: `start + stride·(span−1)`, or
/// `None` if the offset arithmetic would overflow (no such run can be
/// uniform, so the caller just falls back).
fn run_end(start: PhysAddr, stride: i64, span: u64) -> Option<PhysAddr> {
    let delta = stride.checked_mul(i64::try_from(span - 1).ok()?)?;
    Some(PhysAddr(start.0.wrapping_add_signed(delta)))
}

fn check_prot(flags: PteFlags, access: Access) -> Result<(), TranslateError> {
    match access {
        Access::Read => Ok(()),
        Access::Write if flags.contains(PteFlags::WRITE) => Ok(()),
        Access::Write => Err(TranslateError::Protection),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{FrameNo, PageSize, PAGE_SIZE};
    use crate::range::RangeEntry;

    const A: Asid = Asid(1);

    struct Fix {
        m: Machine,
        pt: PageTables,
        root: PtNodeId,
        rt: RangeTable,
        mmu: Mmu,
    }

    fn fix(ranges: bool) -> Fix {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        Fix {
            m,
            pt,
            root,
            rt: RangeTable::new(),
            mmu: Mmu::smp(ranges, 1, None),
        }
    }

    #[test]
    fn walk_then_tlb_hit() {
        let mut f = fix(false);
        let va = VirtAddr(0x10_0000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(77),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let t1 = f
            .mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(t1.by, Satisfied::PageWalk);
        assert_eq!(t1.pa, PhysAddr(77 * PAGE_SIZE));
        let t2 = f
            .mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va + 8, Access::Read)
            .unwrap();
        assert_eq!(t2.by, Satisfied::PageTlb);
        assert_eq!(t2.pa, PhysAddr(77 * PAGE_SIZE + 8));
        assert_eq!(f.m.perf.tlb_misses, 1);
        assert_eq!(f.m.perf.tlb_hits, 1);
        assert_eq!(f.m.perf.page_walks, 1);
    }

    #[test]
    fn unmapped_faults() {
        let mut f = fix(false);
        let err = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                VirtAddr(0x5000),
                Access::Read,
            )
            .unwrap_err();
        assert_eq!(err, TranslateError::NotMapped);
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut f = fix(false);
        let va = VirtAddr(0x3000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(3),
            PageSize::Base,
            PteFlags::user_ro(),
        )
        .unwrap();
        assert!(f
            .mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .is_ok());
        assert_eq!(
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
                .unwrap_err(),
            TranslateError::Protection
        );
        // Protection also enforced on the TLB-hit path.
        assert_eq!(
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
                .unwrap_err(),
            TranslateError::Protection
        );
    }

    #[test]
    fn accessed_dirty_set_by_hardware() {
        let mut f = fix(false);
        let va = VirtAddr(0x8000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(8),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        f.mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        let flags = f.pt.lookup(f.root, va).unwrap().flags;
        assert!(flags.contains(PteFlags::ACCESSED));
        assert!(!flags.contains(PteFlags::DIRTY));
        // A write through the now-cached TLB entry sets DIRTY.
        f.mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
            .unwrap();
        assert!(f
            .pt
            .lookup(f.root, va)
            .unwrap()
            .flags
            .contains(PteFlags::DIRTY));
    }

    #[test]
    fn range_translation_path() {
        let mut f = fix(true);
        let base = VirtAddr(0x100_0000);
        f.rt.insert(RangeEntry::new(
            base,
            1 << 20,
            PhysAddr(0x40_0000),
            PteFlags::user_rw(),
        ))
        .unwrap();
        // First access: range-table walk.
        let t1 = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                base + 0x1234,
                Access::Read,
            )
            .unwrap();
        assert_eq!(t1.by, Satisfied::RangeWalk);
        assert_eq!(t1.pa, PhysAddr(0x40_1234));
        // Second access anywhere in the megabyte: range-TLB hit.
        let t2 = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                base + 0xf_0000,
                Access::Write,
            )
            .unwrap();
        assert_eq!(t2.by, Satisfied::RangeTlb);
        assert_eq!(f.m.perf.rtlb_hits, 1);
        assert_eq!(f.m.perf.rtlb_misses, 1);
        // No page walk ever happened.
        assert_eq!(f.m.perf.page_walks, 0);
    }

    #[test]
    fn range_miss_falls_back_to_paging() {
        let mut f = fix(true);
        let va = VirtAddr(0x9000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(9),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let t = f
            .mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(t.by, Satisfied::PageWalk);
    }

    #[test]
    fn range_protection_enforced() {
        let mut f = fix(true);
        let base = VirtAddr(0x100_0000);
        f.rt.insert(RangeEntry::new(
            base,
            PAGE_SIZE,
            PhysAddr(0x40_0000),
            PteFlags::user_ro(),
        ))
        .unwrap();
        assert_eq!(
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Write)
                .unwrap_err(),
            TranslateError::Protection
        );
    }

    #[test]
    fn invalidate_range_forces_rewalk() {
        let mut f = fix(true);
        let base = VirtAddr(0x200_0000);
        f.rt.insert(RangeEntry::new(
            base,
            PAGE_SIZE,
            PhysAddr(0x40_0000),
            PteFlags::user_rw(),
        ))
        .unwrap();
        f.mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
            .unwrap();
        f.mmu.invalidate_range(&mut f.m, A, base);
        f.rt.remove(base).unwrap();
        assert_eq!(
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
                .unwrap_err(),
            TranslateError::NotMapped
        );
    }

    #[test]
    fn flush_asid_clears_both_tlbs() {
        let mut f = fix(true);
        let va = VirtAddr(0x9000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(9),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        f.rt.insert(RangeEntry::new(
            VirtAddr(0x100_0000),
            PAGE_SIZE,
            PhysAddr(0x40_0000),
            PteFlags::user_rw(),
        ))
        .unwrap();
        f.mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        f.mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                VirtAddr(0x100_0000),
                Access::Read,
            )
            .unwrap();
        f.mmu.flush_asid(&mut f.m, A);
        assert_eq!(f.mmu.tlb().occupancy(), 0);
        assert_eq!(f.mmu.rtlb().occupancy(), 0);
    }

    #[test]
    fn per_cpu_tlbs_are_private_and_broadcasts_reach_all() {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        let rt = RangeTable::new();
        let mut mmu = Mmu::smp(false, 4, None);
        let va = VirtAddr(0x10_0000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();

        // CPU 0 walks and fills its private TLB.
        mmu.set_cpu(CpuId(0));
        mmu.translate(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(mmu.tlb().occupancy(), 1);
        // CPU 1's TLB is cold: same address walks again.
        mmu.set_cpu(CpuId(1));
        assert_eq!(mmu.tlb().occupancy(), 0);
        let t = mmu
            .translate(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(t.by, Satisfied::PageWalk, "private caches: cold on CPU 1");
        assert_eq!(m.perf.page_walks, 2);

        // CPU 3 never touched the ASID: two responders (0 and 1).
        mmu.set_cpu(CpuId(3));
        let t0 = m.now();
        mmu.invalidate_page(&mut m, A, va);
        assert_eq!(
            m.now().since(t0),
            m.cost.unit(CostKind::TlbInvlpg) + 2 * m.cost.unit(CostKind::TlbShootdownPercpu),
            "local invlpg + one IPI per responding CPU"
        );
        // The broadcast dropped the entry everywhere.
        for cpu in [CpuId(0), CpuId(1)] {
            mmu.set_cpu(cpu);
            assert_eq!(mmu.tlb().occupancy(), 0, "broadcast reached {cpu:?}");
        }

        // A full flush clears presence: no responders afterwards.
        mmu.set_cpu(CpuId(0));
        mmu.flush_asid(&mut m, A);
        let t1 = m.now();
        mmu.flush_asid(&mut m, A);
        assert_eq!(
            m.now().since(t1),
            m.cost.unit(CostKind::TlbFlushAsid),
            "mask cleared"
        );
    }

    #[test]
    fn prover_refuses_across_unobserved_invalidation() {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        let rt = RangeTable::new();
        let mut mmu = Mmu::smp(false, 2, None);
        let va = VirtAddr(0x10_0000);
        pt.map(
            &mut m,
            root,
            va,
            FrameNo(77),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        mmu.translate(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        // Warm: the run fast-forwards on CPU 0.
        assert!(mmu
            .translate_run(&mut m, &mut pt, root, A, va, 8, 10, Access::Read)
            .is_some());
        // CPU 1 invalidates a *different* page. CPU 0 has not observed
        // the broadcast, so its next run must refuse once (falling
        // back to the charge-identical interpreter)...
        mmu.set_cpu(CpuId(1));
        mmu.invalidate_page(&mut m, A, VirtAddr(0x20_0000));
        mmu.set_cpu(CpuId(0));
        assert!(mmu
            .translate_run(&mut m, &mut pt, root, A, va, 8, 10, Access::Read)
            .is_none());
        // ...and the refusal synced CPU 0, so the run proves again.
        assert!(mmu
            .translate_run(&mut m, &mut pt, root, A, va, 8, 10, Access::Read)
            .is_some());
        // The *initiating* CPU observes its own broadcast: CPU 1 can
        // fast-forward immediately after invalidating.
        mmu.set_cpu(CpuId(1));
        mmu.translate(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        mmu.invalidate_page(&mut m, A, VirtAddr(0x30_0000));
        assert!(mmu
            .translate_run(&mut m, &mut pt, root, A, va, 8, 10, Access::Read)
            .is_some());
    }

    #[test]
    fn fast_forward_page_tlb_matches_interpreter() {
        let mut interp = fix(false);
        let mut ff = fix(false);
        let va = VirtAddr(0x10_0000);
        for f in [&mut interp, &mut ff] {
            f.pt.map(
                &mut f.m,
                f.root,
                va,
                FrameNo(77),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
            // Warm the TLB (a cold entry can never fast-forward).
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
                .unwrap();
        }
        let n = 100u64;
        for k in 0..n {
            interp
                .mmu
                .translate(
                    &mut interp.m,
                    &mut interp.pt,
                    interp.root,
                    &interp.rt,
                    A,
                    va + k * 8,
                    Access::Write,
                )
                .unwrap();
        }
        let (pa, span) = ff
            .mmu
            .translate_run(&mut ff.m, &mut ff.pt, ff.root, A, va, 8, n, Access::Write)
            .unwrap();
        assert_eq!(span, n, "whole run fits the one base page");
        assert_eq!(pa, PhysAddr(77 * PAGE_SIZE));
        assert_eq!(ff.m.now(), interp.m.now(), "identical simulated cost");
        assert_eq!(ff.m.perf.tlb_hits, interp.m.perf.tlb_hits);
        assert_eq!(ff.m.perf.tlb_misses, interp.m.perf.tlb_misses);
        assert_eq!(ff.m.perf.page_walks, interp.m.perf.page_walks);
        // DIRTY set exactly as the interpreter's writes left it.
        assert_eq!(
            ff.pt.lookup(ff.root, va).unwrap().flags,
            interp.pt.lookup(interp.root, va).unwrap().flags
        );
    }

    #[test]
    fn fast_forward_range_matches_interpreter() {
        let mut interp = fix(true);
        let mut ff = fix(true);
        let base = VirtAddr(0x100_0000);
        for f in [&mut interp, &mut ff] {
            f.rt.insert(RangeEntry::new(
                base,
                1 << 20,
                PhysAddr(0x40_0000),
                PteFlags::user_rw(),
            ))
            .unwrap();
            f.mmu
                .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
                .unwrap();
        }
        let n = 200u64;
        let stride = PAGE_SIZE as i64;
        for k in 1..=n {
            interp
                .mmu
                .translate(
                    &mut interp.m,
                    &mut interp.pt,
                    interp.root,
                    &interp.rt,
                    A,
                    base + k * PAGE_SIZE,
                    Access::Read,
                )
                .unwrap();
        }
        let (pa, span) = ff
            .mmu
            .translate_run(
                &mut ff.m,
                &mut ff.pt,
                ff.root,
                A,
                base + PAGE_SIZE,
                stride,
                n,
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, n, "megabyte entry covers the whole run");
        assert_eq!(pa, PhysAddr(0x40_0000 + PAGE_SIZE));
        assert_eq!(ff.m.now(), interp.m.now());
        assert_eq!(ff.m.perf.rtlb_hits, interp.m.perf.rtlb_hits);
        assert_eq!(ff.m.perf.rtlb_misses, interp.m.perf.rtlb_misses);
    }

    #[test]
    fn fast_forward_refuses_what_it_cannot_prove() {
        let mut f = fix(false);
        let va = VirtAddr(0x10_0000);
        // Cold TLB: nothing resident, no fast-forward.
        assert!(f
            .mmu
            .translate_run(&mut f.m, &mut f.pt, f.root, A, va, 8, 10, Access::Read)
            .is_none());
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_ro(),
        )
        .unwrap();
        f.mmu
            .translate(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        let t0 = f.m.now();
        // Write through a read-only entry: protection is not uniform-ok.
        assert!(f
            .mmu
            .translate_run(&mut f.m, &mut f.pt, f.root, A, va, 8, 10, Access::Write)
            .is_none());
        // Page-crossing stride: only the in-page prefix fast-forwards.
        let (_, span) = f
            .mmu
            .translate_run(
                &mut f.m,
                &mut f.pt,
                f.root,
                A,
                va,
                (PAGE_SIZE / 2) as i64,
                10,
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, 2, "third access leaves the page");
        // A single-access remainder is not worth a fast-forward.
        assert!(f
            .mmu
            .translate_run(&mut f.m, &mut f.pt, f.root, A, va, 8, 1, Access::Read)
            .is_none());
        // Refusals charge nothing (the successful span charged 2 hits).
        assert_eq!(f.m.now().since(t0), 2 * f.m.cost.unit(CostKind::TlbHit));
    }

    #[test]
    fn span_within_clips_at_bounds() {
        // Forward stride inside [0, 100): from 10 by 30 → 10, 40, 70.
        assert_eq!(span_within(10, 30, 100, 0, 100), 3);
        // Backward stride: 70, 40, 10 then out.
        assert_eq!(span_within(70, -30, 100, 0, 100), 3);
        // Zero stride never leaves.
        assert_eq!(span_within(50, 0, 1000, 0, 100), 1000);
        // Len caps the span.
        assert_eq!(span_within(0, 1, 5, 0, 100), 5);
        // Exactly at the upper edge.
        assert_eq!(span_within(99, 1, 10, 0, 100), 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn tlb_and_cpu_mmu_sizes_are_pinned() {
        // fig_hostmem's committed host-heap bytes include one `CpuMmu`
        // per CPU (the `Mmu::cpus` Vec), each holding a `Tlb` inline,
        // so these sizes are part of GOLDEN (see also
        // `pagetable::tests::node_and_entry_sizes_are_pinned`).
        assert_eq!(core::mem::size_of::<Tlb>(), 328);
        assert_eq!(core::mem::size_of::<CpuMmu>(), 416);
    }

    #[test]
    fn walk_mode_reference_counts() {
        assert_eq!(WalkMode::Native4.refs(4), 4);
        assert_eq!(WalkMode::Native5.refs(4), 5);
        assert_eq!(WalkMode::Virtualized4.refs(4), 24);
        assert_eq!(WalkMode::Virtualized5.refs(4), 35, "the paper's §2 number");
        // Monotone in depth.
        for l in 1..=4u8 {
            assert!(WalkMode::Virtualized5.refs(l) > WalkMode::Virtualized4.refs(l));
            assert!(WalkMode::Virtualized4.refs(l) > WalkMode::Native5.refs(l));
        }
    }

    #[test]
    fn virtualized_walks_cost_more() {
        let cost = |mode: WalkMode| {
            let mut f = fix(false);
            f.mmu.walk_mode = mode;
            let va = VirtAddr(0x10_0000);
            f.pt.map(
                &mut f.m,
                f.root,
                va,
                FrameNo(7),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| mmu.translate(m, pt, root, rt, A, va, Access::Read).unwrap())
                .1
        };
        let native = cost(WalkMode::Native4);
        let virt = cost(WalkMode::Virtualized5);
        // 35 vs 4 references: the miss penalty scales accordingly.
        assert!(virt > 5 * native, "native {native} vs virtualized {virt}");
        // TLB hits are unaffected by the walk mode.
        let mut f = fix(false);
        f.mmu.walk_mode = WalkMode::Virtualized5;
        let va = VirtAddr(0x10_0000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();
        let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
        f.m.timed(|m| mmu.translate(m, pt, root, rt, A, va, Access::Read).unwrap());
        let (_, hit) =
            f.m.timed(|m| mmu.translate(m, pt, root, rt, A, va, Access::Read).unwrap());
        assert_eq!(hit, f.m.cost.unit(CostKind::TlbHit));
    }

    #[test]
    fn translation_cost_ordering() {
        // rtlb hit < tlb hit+pt update < range walk < page walk.
        let mut f = fix(true);
        let base = VirtAddr(0x100_0000);
        f.rt.insert(RangeEntry::new(
            base,
            1 << 20,
            PhysAddr(0x40_0000),
            PteFlags::user_rw(),
        ))
        .unwrap();
        let va_pt = VirtAddr(0x9000);
        f.pt.map(
            &mut f.m,
            f.root,
            va_pt,
            FrameNo(9),
            PageSize::Base,
            PteFlags::user_rw(),
        )
        .unwrap();

        let (_, walk_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate(m, pt, root, rt, A, va_pt, Access::Read)
                    .unwrap()
            })
        };
        let (_, tlb_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate(m, pt, root, rt, A, va_pt, Access::Read)
                    .unwrap()
            })
        };
        let (_, rwalk_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate(m, pt, root, rt, A, base, Access::Read)
                    .unwrap()
            })
        };
        let (_, rtlb_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate(m, pt, root, rt, A, base, Access::Read)
                    .unwrap()
            })
        };
        assert!(rtlb_ns <= tlb_ns);
        assert!(tlb_ns < rwalk_ns && tlb_ns < walk_ns);
        assert!(rwalk_ns < walk_ns);
    }
}
