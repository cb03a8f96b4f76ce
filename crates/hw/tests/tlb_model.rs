//! Model-based property tests for the TLB and range TLB: a cache may
//! *miss* whenever it likes, but it must never return a translation
//! that was not inserted (and not since invalidated) — soundness over
//! arbitrary insert/lookup/invalidate/flush interleavings.

use std::collections::HashMap;

use proptest::prelude::*;

use o1_hw::{
    Asid, FrameNo, PageNo, PageSize, PhysAddr, PteFlags, RangeEntry, RangeTlb, Tlb, VirtAddr,
    PAGE_SIZE,
};

/// Reference TLB: the plain linear-scan implementation the production
/// [`Tlb`] accelerates with per-ASID set masks and a last-translation
/// cache.
/// Semantics are pinned here entry for entry — one shared `tick`,
/// stamp refresh on hit, probe order Base → 2M → 1G, update-in-place
/// on duplicate insert, and LRU eviction of the *first* minimum-stamp
/// way — so the equivalence property below proves the fast paths
/// never change a hit, miss, or eviction victim.
struct RefTlb {
    sets: Vec<Vec<RefEntry>>,
    assoc: usize,
    tick: u64,
}

#[derive(Clone, Copy)]
struct RefEntry {
    asid: Asid,
    vpn: PageNo,
    frame: FrameNo,
    size: PageSize,
    flags: PteFlags,
    stamp: u64,
}

impl RefTlb {
    fn new(sets: usize, assoc: usize) -> RefTlb {
        RefTlb {
            sets: vec![Vec::new(); sets],
            assoc,
            tick: 0,
        }
    }

    fn set_index(&self, vpn: PageNo) -> usize {
        (vpn.0 as usize) & (self.sets.len() - 1)
    }

    fn region_vpn(va: VirtAddr, size: PageSize) -> PageNo {
        va.align_down(size.bytes()).page()
    }

    fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<(FrameNo, PageSize, PteFlags)> {
        self.tick += 1;
        for size in [PageSize::Base, PageSize::Huge2M, PageSize::Huge1G] {
            let vpn = Self::region_vpn(va, size);
            let set = self.set_index(vpn);
            let tick = self.tick;
            if let Some(e) = self.sets[set]
                .iter_mut()
                .find(|e| e.asid == asid && e.vpn == vpn && e.size == size)
            {
                e.stamp = tick;
                return Some((e.frame, e.size, e.flags));
            }
        }
        None
    }

    fn insert(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        frame: FrameNo,
        size: PageSize,
        flags: PteFlags,
    ) {
        self.tick += 1;
        let vpn = Self::region_vpn(va, size);
        let set = self.set_index(vpn);
        let entry = RefEntry {
            asid,
            vpn,
            frame,
            size,
            flags,
            stamp: self.tick,
        };
        let ways = &mut self.sets[set];
        if let Some(e) = ways
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn && e.size == size)
        {
            *e = entry;
            return;
        }
        if ways.len() < self.assoc {
            ways.push(entry);
            return;
        }
        let lru = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
            .expect("nonempty set");
        ways[lru] = entry;
    }

    fn invalidate_page(&mut self, asid: Asid, va: VirtAddr) {
        for size in [PageSize::Base, PageSize::Huge2M, PageSize::Huge1G] {
            let vpn = Self::region_vpn(va, size);
            let set = self.set_index(vpn);
            self.sets[set].retain(|e| !(e.asid == asid && e.vpn == vpn && e.size == size));
        }
    }

    fn flush_asid(&mut self, asid: Asid) {
        for set in &mut self.sets {
            set.retain(|e| e.asid != asid);
        }
    }

    fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Clone, Debug)]
enum TlbOp {
    Insert { asid: u16, page: u64, frame: u64 },
    Lookup { asid: u16, page: u64 },
    InvalidatePage { asid: u16, page: u64 },
    FlushAsid { asid: u16 },
    FlushAll,
}

fn tlb_op() -> impl Strategy<Value = TlbOp> {
    prop_oneof![
        3 => (0u16..3, 0u64..128, 0u64..4096).prop_map(|(asid, page, frame)| TlbOp::Insert {
            asid,
            page,
            frame
        }),
        4 => (0u16..3, 0u64..128).prop_map(|(asid, page)| TlbOp::Lookup { asid, page }),
        1 => (0u16..3, 0u64..128).prop_map(|(asid, page)| TlbOp::InvalidatePage { asid, page }),
        1 => (0u16..3).prop_map(|asid| TlbOp::FlushAsid { asid }),
        1 => Just(TlbOp::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn tlb_is_sound(ops in proptest::collection::vec(tlb_op(), 1..200), sets in 1usize..5, assoc in 1usize..5) {
        let mut tlb = Tlb::new(1 << sets, assoc);
        // Ground truth: last translation inserted per (asid, page).
        let mut truth: HashMap<(u16, u64), u64> = HashMap::new();
        for op in ops {
            match op {
                TlbOp::Insert { asid, page, frame } => {
                    tlb.insert(
                        Asid(asid),
                        VirtAddr(page * PAGE_SIZE),
                        FrameNo(frame),
                        PageSize::Base,
                        PteFlags::user_rw(),
                    );
                    truth.insert((asid, page), frame);
                }
                TlbOp::Lookup { asid, page } => {
                    if let Some((frame, size, _)) = tlb.lookup(Asid(asid), VirtAddr(page * PAGE_SIZE)) {
                        prop_assert_eq!(size, PageSize::Base);
                        let want = truth.get(&(asid, page));
                        prop_assert_eq!(
                            Some(&frame.0),
                            want,
                            "TLB returned a translation never inserted: asid {} page {}",
                            asid,
                            page
                        );
                    }
                }
                TlbOp::InvalidatePage { asid, page } => {
                    tlb.invalidate_page(Asid(asid), VirtAddr(page * PAGE_SIZE));
                    truth.remove(&(asid, page));
                }
                TlbOp::FlushAsid { asid } => {
                    tlb.flush_asid(Asid(asid));
                    truth.retain(|&(a, _), _| a != asid);
                }
                TlbOp::FlushAll => {
                    tlb.flush_all();
                    truth.clear();
                }
            }
            prop_assert!(tlb.occupancy() <= tlb.capacity());
            prop_assert!(tlb.check_consistency(), "accelerators out of sync with ways");
        }
    }
}

#[derive(Clone, Debug)]
enum EqOp {
    Insert {
        asid: u16,
        page: u64,
        frame: u64,
        size: u8,
    },
    Lookup {
        asid: u16,
        page: u64,
    },
    InvalidatePage {
        asid: u16,
        page: u64,
    },
    FlushAsid {
        asid: u16,
    },
    FlushAll,
}

fn eq_op() -> impl Strategy<Value = EqOp> {
    // Pages span several 2M regions (512 base pages each) so huge-page
    // entries of different sizes alias the same addresses, and frames
    // are small enough that duplicate-key reinserts happen often.
    prop_oneof![
        4 => (0u16..4, 0u64..2048, 0u64..512, 0u8..3).prop_map(|(asid, page, frame, size)| {
            EqOp::Insert { asid, page, frame, size }
        }),
        4 => (0u16..4, 0u64..2048).prop_map(|(asid, page)| EqOp::Lookup { asid, page }),
        1 => (0u16..4, 0u64..2048).prop_map(|(asid, page)| EqOp::InvalidatePage { asid, page }),
        1 => (0u16..4).prop_map(|asid| EqOp::FlushAsid { asid }),
        1 => Just(EqOp::FlushAll),
    ]
}

fn eq_size(tag: u8) -> PageSize {
    match tag {
        0 => PageSize::Base,
        1 => PageSize::Huge2M,
        _ => PageSize::Huge1G,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The production TLB (per-ASID set masks + per-ASID
    /// last-translation cache) is observationally identical to the
    /// linear-scan reference: same hits, same misses, same translation
    /// on every hit, same occupancy after every operation — i.e. the
    /// same eviction victims. Geometries run past 64 sets, where the
    /// 64-bit set masks alias, and include the default 64 × 8.
    #[test]
    fn tlb_matches_linear_scan_reference(
        ops in proptest::collection::vec(eq_op(), 1..300),
        geometry in prop_oneof![
            3 => (0usize..9, 1usize..5),
            1 => Just((6usize, 8usize)),
        ],
    ) {
        let (sets, assoc) = geometry;
        let mut tlb = Tlb::new(1 << sets, assoc);
        let mut reference = RefTlb::new(1 << sets, assoc);
        for op in ops {
            match op {
                EqOp::Insert { asid, page, frame, size } => {
                    let va = VirtAddr(page * PAGE_SIZE);
                    let size = eq_size(size);
                    tlb.insert(Asid(asid), va, FrameNo(frame), size, PteFlags::user_rw());
                    reference.insert(Asid(asid), va, FrameNo(frame), size, PteFlags::user_rw());
                }
                EqOp::Lookup { asid, page } => {
                    let va = VirtAddr(page * PAGE_SIZE);
                    let got = tlb.lookup(Asid(asid), va);
                    let want = reference.lookup(Asid(asid), va);
                    prop_assert_eq!(got, want, "lookup diverged: asid {} page {}", asid, page);
                }
                EqOp::InvalidatePage { asid, page } => {
                    let va = VirtAddr(page * PAGE_SIZE);
                    tlb.invalidate_page(Asid(asid), va);
                    reference.invalidate_page(Asid(asid), va);
                }
                EqOp::FlushAsid { asid } => {
                    tlb.flush_asid(Asid(asid));
                    reference.flush_asid(Asid(asid));
                }
                EqOp::FlushAll => {
                    tlb.flush_all();
                    reference.flush_all();
                }
            }
            prop_assert_eq!(tlb.occupancy(), reference.occupancy(), "occupancy diverged");
            prop_assert!(tlb.check_consistency(), "accelerators out of sync with ways");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// The range TLB never translates an address outside an inserted
    /// range, and hits always agree with the inserted mapping.
    #[test]
    fn rtlb_is_sound(
        ranges in proptest::collection::vec((0u64..32, 1u64..8, 0u64..1000), 1..20),
        probes in proptest::collection::vec(0u64..(40 * PAGE_SIZE), 1..50),
        capacity in 1usize..8,
    ) {
        let mut rtlb = RangeTlb::new(capacity);
        // Non-overlapping ground-truth ranges on a page grid.
        let mut truth: Vec<RangeEntry> = Vec::new();
        for (page, len, pa_page) in ranges {
            let base = VirtAddr(page * PAGE_SIZE);
            let bytes = len * PAGE_SIZE;
            if truth.iter().any(|e| base.0 < e.limit.0 && e.base.0 < base.0 + bytes) {
                continue;
            }
            let e = RangeEntry::new(base, bytes, PhysAddr(pa_page * PAGE_SIZE), PteFlags::user_rw());
            rtlb.insert(Asid(1), e);
            truth.push(e);
        }
        for va in probes {
            if let Some(hit) = rtlb.lookup(Asid(1), VirtAddr(va)) {
                let expected = truth.iter().find(|e| e.covers(VirtAddr(va)));
                prop_assert!(expected.is_some(), "hit outside any inserted range");
                let e = expected.unwrap();
                prop_assert_eq!(hit.translate(VirtAddr(va)), e.translate(VirtAddr(va)));
            }
        }
    }
}

#[derive(Clone, Debug)]
enum BatchOp {
    Insert {
        asid: u16,
        page: u64,
        frame: u64,
        size: u8,
    },
    Lookup {
        asid: u16,
        page: u64,
    },
    /// Invalidate every page of `pages` (sorted and deduplicated
    /// before use) for `asid`.
    Invalidate {
        asid: u16,
        pages: Vec<u64>,
    },
}

/// A page in one of two 1 GiB regions, near its start, so base, 2M
/// and 1G entries of one ASID overlap.
fn batch_page() -> impl Strategy<Value = u64> {
    (0u64..2, 0u64..2048).prop_map(|(giant, page)| giant * (1 << 18) + page)
}

fn batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        4 => (0u16..3, batch_page(), 0u64..512, 0u8..3).prop_map(|(asid, page, frame, size)| {
            BatchOp::Insert { asid, page, frame, size }
        }),
        2 => (0u16..3, batch_page()).prop_map(|(asid, page)| BatchOp::Lookup { asid, page }),
        1 => (0u16..3, proptest::collection::vec(batch_page(), 0..24))
            .prop_map(|(asid, pages)| BatchOp::Invalidate { asid, pages }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// `Tlb::invalidate_pages` leaves the TLB exactly as
    /// `invalidate_page` at each page would: the whole state (every
    /// set's ways in order, stamps, set masks and the last-translation
    /// cache) compares equal after every step, over 1–256 sets and
    /// base, 2M and 1G entries.
    #[test]
    fn batched_invalidation_matches_per_page(
        ops in proptest::collection::vec(batch_op(), 1..200),
        sets in 0usize..9,
        assoc in 1usize..5,
    ) {
        let mut batched = Tlb::new(1 << sets, assoc);
        let mut per_page = Tlb::new(1 << sets, assoc);
        for op in ops {
            match op {
                BatchOp::Insert { asid, page, frame, size } => {
                    let size = eq_size(size);
                    let va = VirtAddr(page * PAGE_SIZE).align_down(size.bytes());
                    let frame = FrameNo(frame * (size.bytes() / PAGE_SIZE));
                    for tlb in [&mut batched, &mut per_page] {
                        tlb.insert(Asid(asid), va, frame, size, PteFlags::user_rw());
                    }
                }
                BatchOp::Lookup { asid, page } => {
                    let va = VirtAddr(page * PAGE_SIZE);
                    prop_assert_eq!(batched.lookup(Asid(asid), va), per_page.lookup(Asid(asid), va));
                }
                BatchOp::Invalidate { asid, mut pages } => {
                    pages.sort_unstable();
                    pages.dedup();
                    let vas: Vec<VirtAddr> = pages.iter().map(|&p| VirtAddr(p * PAGE_SIZE)).collect();
                    batched.invalidate_pages(Asid(asid), &vas);
                    for &va in &vas {
                        per_page.invalidate_page(Asid(asid), va);
                    }
                }
            }
            prop_assert_eq!(format!("{batched:?}"), format!("{per_page:?}"));
            prop_assert!(batched.check_consistency(), "accelerators out of sync with ways");
        }
    }
}
