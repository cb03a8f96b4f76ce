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

use crate::addr::{FrameNo, PageNo, PageSize, PhysAddr, VirtAddr, PAGE_SIZE};
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

impl Satisfied {
    /// The hit each access after the first of a span is charged when
    /// the translation walked and filled an entry ([`Mmu::translate`]),
    /// so the first access's latency differs from theirs: a range-TLB
    /// hit after a range walk, a page-TLB hit after a page walk. `None`
    /// for a TLB hit, whose span is uniform.
    pub fn fill_hit(self) -> Option<CostKind> {
        match self {
            Satisfied::RangeWalk => Some(CostKind::RtlbHit),
            Satisfied::PageWalk => Some(CostKind::TlbHit),
            Satisfied::RangeTlb | Satisfied::PageTlb => None,
        }
    }
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
    /// Every translate syncs, and since the whole-batch prover's
    /// deletion only [`Mmu::run_prover_ready`] reads it. It stays
    /// because `fig_hostmem`'s committed host-heap bytes pin this
    /// struct's size (`tlb_and_cpu_mmu_sizes_are_pinned`); it goes
    /// with the walk cache, in the change that may move those bytes.
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

    /// Fast-forward obligation check for a prover that does not
    /// translate: true when the current CPU has observed every
    /// broadcast invalidation, i.e. the prover may assume "no
    /// concurrent invalidation overlaps this span". When false the CPU
    /// syncs (so the *next* probe may pass) and the caller must
    /// interpret — which is charge-identical, merely slower on the
    /// host. No such prover is left: [`translate`](Self::translate)
    /// syncs on entry, so neither its hit span (across runs too) nor
    /// a fault run the kernel enters from its failed walk needs this
    /// check. It stays with `CpuMmu`'s `synced_epoch`, whose size is
    /// pinned by `fig_hostmem`'s host-heap bytes, and both go with the
    /// walk cache.
    pub fn run_prover_ready(&mut self) -> bool {
        let cur = &mut self.cpus[self.current.index()];
        if cur.synced_epoch == self.inval_epoch {
            true
        } else {
            cur.synced_epoch = self.inval_epoch;
            false
        }
    }

    /// Translate `va` for `asid`, charging all hardware costs, and
    /// return how many accesses of the batch from `va` on the
    /// translation covers.
    ///
    /// `root` is the address space's page-table root; `ranges` its
    /// range table (ignored unless the extension is enabled). The
    /// current run is `len ≥ 1` accesses at `va`, `va + stride`, …
    /// (byte stride), all of kind `access`; `rest` holds the runs that
    /// follow it in its batch, page-indexed from `base`. On a range-TLB
    /// or page-TLB hit, the leading accesses that hit the same entry
    /// with the same protection outcome and land on one memory tier
    /// are charged here too, exactly as many hits as an
    /// access-by-access loop would charge: `span ×` the hit cost and
    /// counters, one LRU refresh of the entry (the relative stamp
    /// order, and so every later eviction, is that of `span`
    /// refreshes), and for a page-TLB write the one idempotent A/D
    /// update. A hit that covers the whole current run goes on to
    /// cover each following whole run that lies inside the entry,
    /// stopping at the first that does not, so `span` may exceed
    /// `len`. The second access is tested against the entry first, so
    /// a hit whose run leaves the entry costs one compare.
    ///
    /// A walk that fills an entry covers the same hit span after it:
    /// the accesses that follow inside the new entry are the hits an
    /// access-by-access loop makes on it, charged through the same
    /// code as above (`span − 1` hits). The entry is already the
    /// newest, so no LRU refresh is owed, and the walk has set A/D.
    /// The walk's span starts only when the current run has at least
    /// three accesses and its second lies inside the entry, tested
    /// inline before the span is measured. Its first access paid the
    /// walk and the fill, which its hits do not share
    /// ([`Satisfied::fill_hit`] names their kind). A fault, a failed
    /// walk or a lone access outside the entry covers 1. The caller
    /// owes the memory half of every covered access: the entry maps
    /// VA to PA in order, so a covered access at `a` lands at
    /// `pa + (a − va)`.
    ///
    /// No broadcast can land between the covered accesses: this call
    /// syncs the CPU with every invalidation so far, as each of them
    /// would, and nothing else runs until it returns.
    #[allow(clippy::too_many_arguments)] // one parameter per hardware structure
    pub fn translate(
        &mut self,
        m: &mut Machine,
        pt: &mut PageTables,
        root: PtNodeId,
        ranges: &RangeTable,
        asid: Asid,
        va: VirtAddr,
        stride: i64,
        len: u64,
        base: VirtAddr,
        rest: &[AccessRun],
        access: Access,
    ) -> Result<(Translated, u64), TranslateError> {
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
                let pa = entry.translate(va);
                let allowed = check_prot(entry.prot, access);
                let span = match allowed {
                    Ok(()) => {
                        let bounds = entry.base.0..entry.limit.0;
                        hit_span(m, va.0, pa, stride, len, base.0, rest, bounds)
                    }
                    Err(_) => 1,
                };
                self.charge_hits(m, CostKind::RtlbHit, span);
                allowed?;
                let by = Satisfied::RangeTlb;
                return Ok((Translated { pa, by }, span));
            }
        }

        // 2. Page TLB.
        if let Some((frame, size, flags)) = self.cpus[cur].tlb.lookup(asid, va) {
            let region = va.align_down(size.bytes()).0;
            let pa = PhysAddr(frame.base().0 + (va.0 - region));
            let allowed = check_prot(flags, access);
            let span = match allowed {
                Ok(()) => {
                    let page = region..region + size.bytes();
                    hit_span(m, va.0, pa, stride, len, base.0, rest, page)
                }
                Err(_) => 1,
            };
            self.charge_hits(m, CostKind::TlbHit, span);
            allowed?;
            // Hardware sets the dirty bit on the first write through a
            // clean TLB entry; modelling that requires a PT update.
            if access == Access::Write {
                pt.mark_accessed(root, va, true);
            }
            let by = Satisfied::PageTlb;
            return Ok((Translated { pa, by }, span));
        }
        if self.ranges_enabled {
            m.perf.rtlb_misses += 1;
        }
        m.perf.tlb_misses += 1;

        // 3. Range-table walk, filling the range TLB.
        let range_fill = if self.ranges_enabled {
            m.charge_kind(CostKind::RangeWalk);
            ranges.lookup(va).copied()
        } else {
            None
        };
        let (pa, by, entry) = match range_fill {
            Some(entry) => {
                check_prot(entry.prot, access)?;
                m.charge_kind(CostKind::RtlbFill);
                self.cpus[cur].rtlb.insert(asid, entry);
                let bounds = entry.base.0..entry.limit.0;
                (entry.translate(va), Satisfied::RangeWalk, bounds)
            }
            // 4. Page-table walk (charges native refs; deeper/virtualized
            // modes charge the extra references on top), filling the
            // page TLB.
            None => {
                let Some((t, frame, slot)) = self.cached_walk(m, pt, root, va) else {
                    m.charge_opn(
                        CostKind::PtwLevelRef,
                        self.walk_mode.extra_refs(crate::addr::PT_LEVELS),
                    );
                    return Err(TranslateError::NotMapped);
                };
                m.charge_opn(
                    CostKind::PtwLevelRef,
                    self.walk_mode.extra_refs(t.levels_touched),
                );
                check_prot(t.flags, access)?;
                m.charge_kind(CostKind::TlbFill);
                self.cpus[cur].tlb.insert(asid, va, frame, t.size, t.flags);
                pt.mark_slot_accessed(slot.node, slot.index.into(), access == Access::Write);
                let region = va.align_down(t.size.bytes()).0;
                (t.pa, Satisfied::PageWalk, region..region + t.size.bytes())
            }
        };

        // The hit span on the entry just filled. Most walks start none
        // (a scattered access, a page-crossing stride), so they are
        // refused before one is measured, and so are runs of two: on
        // `hostbench` `scatter` fusing one hit after the walk cost more
        // host time than the translate it saved.
        let span = if len >= 3 && entry.contains(&va.0.wrapping_add_signed(stride)) {
            let span = hit_span(m, va.0, pa, stride, len, base.0, rest, entry);
            let hit = by.fill_hit().expect("a walk filled the entry");
            self.charge_hits(m, hit, span - 1);
            span
        } else {
            1
        };
        Ok((Translated { pa, by }, span))
    }

    /// Charge `n` hits of `kind` ([`CostKind::RtlbHit`] or
    /// [`CostKind::TlbHit`]) with the counters `n` interpreted
    /// accesses bump: a page-TLB hit first missed the range TLB when
    /// ranges are on.
    #[inline]
    fn charge_hits(&self, m: &mut Machine, kind: CostKind, n: u64) {
        if kind == CostKind::RtlbHit {
            m.perf.rtlb_hits += n;
        } else {
            if self.ranges_enabled {
                m.perf.rtlb_misses += n;
            }
            m.perf.tlb_hits += n;
        }
        m.charge_opn(kind, n);
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
        let cpu = &mut self.cpus[self.current.index()];
        if cpu.walk_epoch != pt.epoch() {
            cpu.walk_cache.clear();
            cpu.walk_epoch = pt.epoch();
        }
        let cache = &mut cpu.walk_cache;
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
    /// ASID's entries, and mark the current CPU synced. Only CPUs whose presence bit is set can
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

/// One run-length-encoded chunk of an access sequence: `len` accesses
/// at page indexes `start_page + k·stride` for `k in 0..len`, relative
/// to some region base. `stride` is in pages and may be zero (repeated
/// touches of one page) or negative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRun {
    /// Page index of the first access.
    pub start_page: u64,
    /// Pages between consecutive accesses (signed).
    pub stride: i64,
    /// Number of accesses; 0 makes the run a no-op.
    pub len: u64,
}

impl AccessRun {
    /// Page index of access `k` (must be `< len`).
    #[inline]
    pub fn page(&self, k: u64) -> u64 {
        debug_assert!(k < self.len);
        (self.start_page as i64 + self.stride.wrapping_mul(k as i64)) as u64
    }

    /// Address of the first access when page-indexed from `base`, or
    /// `None` if it overflows the address space.
    #[inline]
    pub fn start(&self, base: VirtAddr) -> Option<VirtAddr> {
        let off = self.start_page.checked_mul(PAGE_SIZE)?;
        base.0.checked_add(off).map(VirtAddr)
    }

    /// Lowest and highest address the run touches when page-indexed
    /// from `base` (`len ≥ 1`), or `None` if its arithmetic overflows.
    #[inline]
    fn bounds(&self, base: u64) -> Option<(u64, u64)> {
        let first = self.start(VirtAddr(base))?.0;
        let steps = i64::try_from(self.len - 1).ok()?;
        let delta = self
            .stride
            .checked_mul(steps)?
            .checked_mul(PAGE_SIZE as i64)?;
        let last = first.checked_add_signed(delta)?;
        Some((first.min(last), first.max(last)))
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

/// How many accesses in a row hit the TLB entry covering VA `entry`,
/// which maps `va` to `pa`, all on `pa`'s memory tier: the leading
/// accesses of the current run (`len` from `va` by `stride`) that stay
/// inside the entry and, once it holds the whole run, each following
/// whole run of `rest` (page-indexed from `base`) up to the first that
/// leaves it, at two bound compares per run. Zero-length runs are
/// passed over. The entry maps VA to PA in order, so the tier check
/// runs once, on the lowest and highest covered address; if it fails,
/// the span keeps the current run's prefix.
#[allow(clippy::too_many_arguments)]
#[inline]
fn hit_span(
    m: &Machine,
    va: u64,
    pa: PhysAddr,
    stride: i64,
    len: u64,
    base: u64,
    rest: &[AccessRun],
    entry: core::ops::Range<u64>,
) -> u64 {
    let span = if len < 2 {
        1
    } else if entry.contains(&va.wrapping_add_signed(stride)) {
        span_within(va, stride, len, entry.start, entry.end)
    } else {
        return 1;
    };
    let last = va.wrapping_add_signed(stride.wrapping_mul(span as i64 - 1));
    let (mut low, mut high, mut covered) = (va.min(last), va.max(last), span);
    if span == len {
        for r in rest.iter().filter(|r| r.len > 0) {
            match r.bounds(base) {
                Some((a, b)) if entry.start <= a && b < entry.end => {
                    (low, high) = (low.min(a), high.max(b));
                    covered += r.len;
                }
                _ => break,
            }
        }
    }
    let tier = |x: u64| {
        m.phys
            .tier(PhysAddr(pa.0.wrapping_add(x.wrapping_sub(va))).frame())
    };
    if covered > span && tier(low) == tier(high) {
        covered
    } else if span > 1 && tier(va) == tier(last) {
        span
    } else {
        1
    }
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

    impl Mmu {
        /// [`Mmu::translate`] of a one-access run.
        #[allow(clippy::too_many_arguments)]
        fn translate_one(
            &mut self,
            m: &mut Machine,
            pt: &mut PageTables,
            root: PtNodeId,
            ranges: &RangeTable,
            asid: Asid,
            va: VirtAddr,
            access: Access,
        ) -> Result<Translated, TranslateError> {
            let (t, span) = self.translate(
                m,
                pt,
                root,
                ranges,
                asid,
                va,
                0,
                1,
                VirtAddr(0),
                &[],
                access,
            )?;
            assert_eq!(span, 1, "a one-access run covers one access");
            Ok(t)
        }
    }

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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(t1.by, Satisfied::PageWalk);
        assert_eq!(t1.pa, PhysAddr(77 * PAGE_SIZE));
        let t2 = f
            .mmu
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va + 8, Access::Read)
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
            .translate_one(
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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .is_ok());
        assert_eq!(
            f.mmu
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
                .unwrap_err(),
            TranslateError::Protection
        );
        // Protection also enforced on the TLB-hit path.
        assert_eq!(
            f.mmu
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        let flags = f.pt.lookup(f.root, va).unwrap().flags;
        assert!(flags.contains(PteFlags::ACCESSED));
        assert!(!flags.contains(PteFlags::DIRTY));
        // A write through the now-cached TLB entry sets DIRTY.
        f.mmu
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
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
            .translate_one(
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
            .translate_one(
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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
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
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Write)
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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
            .unwrap();
        f.mmu.invalidate_range(&mut f.m, A, base);
        f.rt.remove(base).unwrap();
        assert_eq!(
            f.mmu
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
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
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        f.mmu
            .translate_one(
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
        mmu.translate_one(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        assert_eq!(mmu.tlb().occupancy(), 1);
        // CPU 1's TLB is cold: same address walks again.
        mmu.set_cpu(CpuId(1));
        assert_eq!(mmu.tlb().occupancy(), 0);
        let t = mmu
            .translate_one(&mut m, &mut pt, root, &rt, A, va, Access::Read)
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
        mmu.translate_one(&mut m, &mut pt, root, &rt, A, va, Access::Read)
            .unwrap();
        assert!(mmu.run_prover_ready(), "the translate synced CPU 0");
        // CPU 1 invalidates a *different* page. CPU 0 has not observed
        // the broadcast, so the check refuses once (a prover's caller
        // would fall back to the charge-identical interpreter)...
        mmu.set_cpu(CpuId(1));
        mmu.invalidate_page(&mut m, A, VirtAddr(0x20_0000));
        mmu.set_cpu(CpuId(0));
        assert!(!mmu.run_prover_ready(), "the check refuses once");
        // ...and the refusal synced CPU 0, so it proves again.
        assert!(mmu.run_prover_ready());
        // A translate syncs on entry, so it proves its hit span at
        // once across a broadcast it has not yet observed.
        mmu.set_cpu(CpuId(1));
        mmu.invalidate_page(&mut m, A, VirtAddr(0x30_0000));
        mmu.set_cpu(CpuId(0));
        let (t, span) = mmu
            .translate(
                &mut m,
                &mut pt,
                root,
                &rt,
                A,
                va,
                8,
                10,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!((t.by, span), (Satisfied::PageTlb, 10));
        assert!(mmu.run_prover_ready(), "the translate synced CPU 0");
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
            // Warm the TLB (a one-access walk).
            f.mmu
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Write)
                .unwrap();
        }
        let n = 100u64;
        for k in 0..n {
            interp
                .mmu
                .translate_one(
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
        let (t, span) = ff
            .mmu
            .translate(
                &mut ff.m,
                &mut ff.pt,
                ff.root,
                &ff.rt,
                A,
                va,
                8,
                n,
                VirtAddr(0),
                &[],
                Access::Write,
            )
            .unwrap();
        assert_eq!(span, n, "whole run fits the one base page");
        assert_eq!(t.pa, PhysAddr(77 * PAGE_SIZE));
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
                .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, base, Access::Read)
                .unwrap();
        }
        let n = 200u64;
        let stride = PAGE_SIZE as i64;
        for k in 1..=n {
            interp
                .mmu
                .translate_one(
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
        let (t, span) = ff
            .mmu
            .translate(
                &mut ff.m,
                &mut ff.pt,
                ff.root,
                &ff.rt,
                A,
                base + PAGE_SIZE,
                stride,
                n,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, n, "megabyte entry covers the whole run");
        assert_eq!(t.pa, PhysAddr(0x40_0000 + PAGE_SIZE));
        assert_eq!(ff.m.now(), interp.m.now());
        assert_eq!(ff.m.perf.rtlb_hits, interp.m.perf.rtlb_hits);
        assert_eq!(ff.m.perf.rtlb_misses, interp.m.perf.rtlb_misses);
    }

    #[test]
    fn fast_forward_refuses_what_it_cannot_prove() {
        let mut f = fix(false);
        let va = VirtAddr(0x10_0000);
        f.pt.map(
            &mut f.m,
            f.root,
            va,
            FrameNo(7),
            PageSize::Base,
            PteFlags::user_ro(),
        )
        .unwrap();
        // Cold TLB: the walk fills the entry, and its span covers the
        // rest of the in-page run as hits on it.
        let (t, span) = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                va,
                8,
                10,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!((t.by, span), (Satisfied::PageWalk, 10));
        let hit = f.m.cost.unit(CostKind::TlbHit);
        let t0 = f.m.now();
        // Write through a read-only entry: one hit, then the fault.
        assert_eq!(
            f.mmu
                .translate(
                    &mut f.m,
                    &mut f.pt,
                    f.root,
                    &f.rt,
                    A,
                    va,
                    8,
                    10,
                    VirtAddr(0),
                    &[],
                    Access::Write,
                )
                .unwrap_err(),
            TranslateError::Protection
        );
        assert_eq!(f.m.now().since(t0), hit);
        // Page-crossing stride: only the in-page prefix is covered.
        let half = (PAGE_SIZE / 2) as i64;
        let (_, span) = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                va,
                half,
                10,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, 2, "third access leaves the page");
        // A run whose second access leaves the entry covers 1.
        let (_, span) = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                va + half as u64,
                half,
                10,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, 1);
        // So does a single-access remainder.
        let (_, span) = f
            .mmu
            .translate(
                &mut f.m,
                &mut f.pt,
                f.root,
                &f.rt,
                A,
                va,
                8,
                1,
                VirtAddr(0),
                &[],
                Access::Read,
            )
            .unwrap();
        assert_eq!(span, 1);
        // Every covered access charged one hit: 1 + 2 + 1 + 1, after
        // the walk's 9.
        assert_eq!(f.m.now().since(t0), 5 * hit);
        assert_eq!(f.m.perf.tlb_hits, 9 + 5);
    }

    /// `f.mmu.translate` of the run `len` from `va` by `stride`,
    /// followed by `rest` page-indexed from `base`.
    fn batch(
        f: &mut Fix,
        (va, stride, len): (VirtAddr, i64, u64),
        base: VirtAddr,
        rest: &[AccessRun],
        access: Access,
    ) -> Result<(Translated, u64), TranslateError> {
        let (m, pt, rt) = (&mut f.m, &mut f.pt, &f.rt);
        f.mmu
            .translate(m, pt, f.root, rt, A, va, stride, len, base, rest, access)
    }

    fn run(start_page: u64, stride: i64, len: u64) -> AccessRun {
        AccessRun {
            start_page,
            stride,
            len,
        }
    }

    #[test]
    fn hit_span_crosses_whole_runs_inside_the_entry() {
        // Range TLB. A 1 MiB range (pages 0..256 from `base`) on DRAM,
        // a 2 MiB range whose upper half lies on NVM, and a read-only
        // range.
        let mut f = fix(true);
        f.m = Machine::with_nvm(4 << 20, 4 << 20);
        let (base, split, ro) = (
            VirtAddr(0x100_0000),
            VirtAddr(0x200_0000),
            VirtAddr(0x400_0000),
        );
        for (va, bytes, pa, flags) in [
            (base, 1 << 20, 1 << 20, PteFlags::user_rw()),
            (split, 2 << 20, 3 << 20, PteFlags::user_rw()),
            (ro, 1 << 16, 2 << 20, PteFlags::user_ro()),
        ] {
            f.rt.insert(RangeEntry::new(va, bytes, PhysAddr(pa), flags))
                .unwrap();
        }
        // A fill for a one-access run covers 1 whatever follows it.
        let rest = [run(1, 0, 1), run(2, 0, 1)];
        for va in [base, split, ro] {
            let (t, span) = batch(&mut f, (va, 0, 1), va, &rest, Access::Read).unwrap();
            assert_eq!((t.by, span), (Satisfied::RangeWalk, 1));
        }
        let hit = f.m.cost.unit(CostKind::RtlbHit);
        let t0 = f.m.now();
        // The whole current run, then a single access, a zero-length
        // run (passed over, however far away), a strided and a
        // backward run; the next run leaves the entry at page 256, so
        // the span stops there although a later run is back inside.
        let rest = [
            run(3, 0, 1),
            run(1 << 40, 1, 0),
            run(10, 5, 4),
            run(200, -2, 3),
            run(250, 1, 7),
            run(5, 0, 1),
        ];
        let (t, span) = batch(&mut f, (base, 8, 2), base, &rest, Access::Write).unwrap();
        assert_eq!((t.by, span), (Satisfied::RangeTlb, 2 + 1 + 4 + 3));
        assert_eq!(f.m.perf.rtlb_hits, 10);
        assert_eq!(f.m.now().since(t0), 10 * hit);
        // A current run that leaves the entry covers no following run.
        let last = base + 254 * PAGE_SIZE;
        let (_, span) = batch(
            &mut f,
            (last, PAGE_SIZE as i64, 3),
            base,
            &rest,
            Access::Read,
        )
        .unwrap();
        assert_eq!(span, 2);
        // Following runs on both sides of the DRAM/NVM edge inside one
        // range: none is covered, and the current run keeps its span.
        let (on_dram, across) = (
            [run(10, 0, 1), run(20, 1, 5)],
            [run(10, 0, 1), run(300, 0, 1)],
        );
        let (_, span) = batch(&mut f, (split, 0, 1), split, &on_dram, Access::Read).unwrap();
        assert_eq!(span, 1 + 1 + 5);
        let (_, span) = batch(&mut f, (split, 0, 1), split, &across, Access::Read).unwrap();
        assert_eq!(span, 1);
        let (_, span) = batch(&mut f, (split, 8, 2), split, &across, Access::Read).unwrap();
        assert_eq!(span, 2);
        // A protection fault covers 1: one hit is charged, then the
        // fault.
        let (hits, t0) = (f.m.perf.rtlb_hits, f.m.now());
        let err = batch(&mut f, (ro, 8, 2), ro, &rest, Access::Write).unwrap_err();
        assert_eq!(err, TranslateError::Protection);
        assert_eq!(f.m.perf.rtlb_hits, hits + 1);
        assert_eq!(f.m.now().since(t0), hit);

        // Page TLB: a warm base page covers the single accesses on it
        // and stops at the first run on the next page.
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
        f.mmu
            .translate_one(&mut f.m, &mut f.pt, f.root, &f.rt, A, va, Access::Read)
            .unwrap();
        let hit = f.m.cost.unit(CostKind::TlbHit);
        let t0 = f.m.now();
        let rest = [
            run(0, 0, 1),
            run(0, 0, 0),
            run(0, 0, 2),
            run(1, 0, 1),
            run(0, 0, 1),
        ];
        let (t, span) = batch(&mut f, (va + 8, 8, 2), va, &rest, Access::Write).unwrap();
        assert_eq!((t.by, span), (Satisfied::PageTlb, 2 + 1 + 2));
        assert_eq!(f.m.perf.tlb_hits, 5);
        assert_eq!(f.m.now().since(t0), 5 * hit);
    }

    /// Every address of the run `len` from `va` by `stride`, then of
    /// each run of `rest` page-indexed from `base`, in order.
    fn addresses(
        (va, stride, len): (VirtAddr, i64, u64),
        base: VirtAddr,
        rest: &[AccessRun],
    ) -> Vec<VirtAddr> {
        let at = |a: VirtAddr, s: i64, k: u64| VirtAddr(a.0.wrapping_add_signed(s * k as i64));
        let mut out: Vec<VirtAddr> = (0..len).map(|k| at(va, stride, k)).collect();
        for r in rest {
            let first = r.start(base).unwrap();
            out.extend((0..r.len).map(|k| at(first, r.stride * PAGE_SIZE as i64, k)));
        }
        out
    }

    #[test]
    fn walk_fill_covers_its_hit_span() {
        const RW: PteFlags = PteFlags::user_rw();
        // A base page and a 2 MiB page whose upper half lies on NVM
        // (DRAM ends 1 MiB into it), a read-only page, a 1 MiB range
        // and a 2 MiB range whose upper half lies on NVM.
        let (page, huge, ro) = (
            VirtAddr(0x10_0000),
            VirtAddr(0x20_0000),
            VirtAddr(0x60_0000),
        );
        let (range, split) = (VirtAddr(0x100_0000), VirtAddr(0x200_0000));
        let setup = |ranges: bool| {
            let mut f = fix(ranges);
            f.m = Machine::with_nvm(3 << 20, 4 << 20);
            f.root = f.pt.create_root(&mut f.m);
            for (va, frame, size, flags) in [
                (page, 77, PageSize::Base, RW),
                (huge, 512, PageSize::Huge2M, RW),
                (ro, 78, PageSize::Base, PteFlags::user_ro()),
            ] {
                f.pt.map(&mut f.m, f.root, va, FrameNo(frame), size, flags)
                    .unwrap();
            }
            f.rt.insert(RangeEntry::new(range, 1 << 20, PhysAddr(0), RW))
                .unwrap();
            f.rt.insert(RangeEntry::new(split, 2 << 20, PhysAddr(2 << 20), RW))
                .unwrap();
            f
        };
        // Translate the batch cold in one call on one fixture and one
        // access at a time on its twin; both must charge alike for the
        // covered accesses, and what the call charged beyond the
        // span's `fill_hit` hits is the twin's first translation.
        let check = |ranges: bool,
                     run: (VirtAddr, i64, u64),
                     base: VirtAddr,
                     rest: &[AccessRun],
                     access: Access,
                     expect: (Satisfied, u64)| {
            let (mut ff, mut interp) = (setup(ranges), setup(ranges));
            let what = format!("{run:?} {rest:?} ranges={ranges} {access:?}");
            let t0 = ff.m.now();
            let (t, span) = batch(&mut ff, run, base, rest, access).unwrap();
            assert_eq!((t.by, span), expect, "{what}");
            let hit = ff.m.cost.unit(t.by.fill_hit().expect("a walk"));
            let walk = ff.m.now().since(t0) - (span - 1) * hit;
            for (k, &va) in addresses(run, base, rest)
                .iter()
                .take(span as usize)
                .enumerate()
            {
                let t0 = interp.m.now();
                let one = interp
                    .mmu
                    .translate_one(
                        &mut interp.m,
                        &mut interp.pt,
                        interp.root,
                        &interp.rt,
                        A,
                        va,
                        access,
                    )
                    .unwrap();
                if k == 0 {
                    assert_eq!(one.pa, t.pa, "{what}");
                    assert_eq!(interp.m.now().since(t0), walk, "{what}: the walk's cost");
                }
            }
            assert_eq!(ff.m.now(), interp.m.now(), "{what}: clock");
            assert_eq!(ff.m.perf, interp.m.perf, "{what}: counters");
            let (a, b) = (
                ff.pt.lookup(ff.root, run.0),
                interp.pt.lookup(interp.root, run.0),
            );
            assert_eq!(a.map(|t| t.flags), b.map(|t| t.flags), "{what}: A/D bits");
            ff.m.perf
        };
        let stride = PAGE_SIZE as i64;
        for ranges in [false, true] {
            // Page walk: a run inside the base page, then a run on it
            // in the batch, read and written.
            for access in [Access::Read, Access::Write] {
                let perf = check(
                    ranges,
                    (page + 8, 8, 10),
                    page,
                    &[run(0, 0, 2)],
                    access,
                    (Satisfied::PageWalk, 12),
                );
                assert_eq!(perf.tlb_hits, 11);
                // Each covered access first missed the range TLB.
                assert_eq!(perf.rtlb_misses, if ranges { 12 } else { 0 });
            }
            // A page-stride run over the 2 MiB page keeps the prefix
            // that stays on DRAM, and no following run.
            check(
                ranges,
                (huge, stride, 256),
                huge,
                &[run(1, 0, 1)],
                Access::Read,
                (Satisfied::PageWalk, 256 + 1),
            );
            check(
                ranges,
                (huge, stride, 257),
                huge,
                &[run(1, 0, 1)],
                Access::Read,
                (Satisfied::PageWalk, 1),
            );
            check(
                ranges,
                (huge, stride, 3),
                huge,
                &[run(300, 0, 1)],
                Access::Write,
                (Satisfied::PageWalk, 3),
            );
            // A second access outside the entry, and a run of one or
            // two accesses whatever follows it, cover 1.
            check(
                ranges,
                (page, stride, 4),
                page,
                &[],
                Access::Read,
                (Satisfied::PageWalk, 1),
            );
            for len in [1, 2] {
                check(
                    ranges,
                    (page, 0, len),
                    page,
                    &[run(0, 0, 3)],
                    Access::Read,
                    (Satisfied::PageWalk, 1),
                );
            }
        }
        // Range walk: a page-stride run covered as range-TLB hits, and
        // the straddle keeping its DRAM prefix.
        let perf = check(
            true,
            (range, stride, 200),
            range,
            &[run(10, 0, 1)],
            Access::Write,
            (Satisfied::RangeWalk, 201),
        );
        assert_eq!((perf.rtlb_hits, perf.rtlb_misses), (200, 1));
        check(
            true,
            (split, 8, 3),
            split,
            &[run(10, 0, 1), run(300, 0, 1)],
            Access::Read,
            (Satisfied::RangeWalk, 3),
        );
        // A protection fault at the walk charges the walk alone.
        for ranges in [false, true] {
            let mut f = setup(ranges);
            let err = batch(&mut f, (ro, 8, 10), ro, &[], Access::Write).unwrap_err();
            assert_eq!(err, TranslateError::Protection);
            assert_eq!((f.m.perf.page_walks, f.m.perf.tlb_hits), (1, 0));
        }
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
            f.m.timed(|m| {
                mmu.translate_one(m, pt, root, rt, A, va, Access::Read)
                    .unwrap()
            })
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
        f.m.timed(|m| {
            mmu.translate_one(m, pt, root, rt, A, va, Access::Read)
                .unwrap()
        });
        let (_, hit) = f.m.timed(|m| {
            mmu.translate_one(m, pt, root, rt, A, va, Access::Read)
                .unwrap()
        });
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
                mmu.translate_one(m, pt, root, rt, A, va_pt, Access::Read)
                    .unwrap()
            })
        };
        let (_, tlb_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate_one(m, pt, root, rt, A, va_pt, Access::Read)
                    .unwrap()
            })
        };
        let (_, rwalk_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate_one(m, pt, root, rt, A, base, Access::Read)
                    .unwrap()
            })
        };
        let (_, rtlb_ns) = {
            let (pt, rt, root, mmu) = (&mut f.pt, &f.rt, f.root, &mut f.mmu);
            f.m.timed(|m| {
                mmu.translate_one(m, pt, root, rt, A, base, Access::Read)
                    .unwrap()
            })
        };
        assert!(rtlb_ns <= tlb_ns);
        assert!(tlb_ns < rwalk_ns && tlb_ns < walk_ns);
        assert!(rwalk_ns < walk_ns);
    }
}
