//! Model-based property tests: the page-table arena must agree with a
//! simple `HashMap<page, frame>` oracle under arbitrary interleavings
//! of map / unmap / share / unshare / absence probes across multiple
//! address spaces, and never leak or double-free nodes.

use std::collections::HashMap;

use proptest::prelude::*;

use o1_hw::{
    FrameNo, Machine, PageSize, PageTables, PtNodeId, PteFlags, VirtAddr, HUGE_2M, PAGE_SIZE,
};

#[derive(Clone, Debug)]
enum Op {
    /// Map page `page` of space `space` to frame `frame`.
    Map { space: usize, page: u64, frame: u64 },
    /// Unmap page `page` of space `space`.
    Unmap { space: usize, page: u64 },
    /// Share space 0's 2 MiB-aligned chunk `chunk` into `space`.
    Share { space: usize, chunk: u64 },
    /// Unshare chunk `chunk` from `space`.
    Unshare { space: usize, chunk: u64 },
    /// Translate a page and check against the model.
    Check { space: usize, page: u64 },
    /// Probe `len` accesses `page + k·STRIDES[stride]` (pages, at byte
    /// offset `offset`) with `absent_run` and check the proven prefix.
    Absent {
        space: usize,
        page: u64,
        offset: u64,
        stride: usize,
        len: u64,
    },
}

/// Absence-probe strides, in pages: ±1, several pages, and a whole
/// 2 MiB chunk.
const STRIDES: [i64; 8] = [1, -1, 2, -3, 5, 17, 512, -512];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..3, 0u64..1024, 0u64..4096).prop_map(|(space, page, frame)| Op::Map {
            space,
            page,
            frame
        }),
        (1usize..3, 0u64..1024).prop_map(|(space, page)| Op::Unmap { space, page }),
        (1usize..3, 0u64..2).prop_map(|(space, chunk)| Op::Share { space, chunk }),
        (1usize..3, 0u64..2).prop_map(|(space, chunk)| Op::Unshare { space, chunk }),
        (0usize..3, 0u64..1024).prop_map(|(space, page)| Op::Check { space, page }),
        (
            0usize..3,
            0u64..1100,
            0u64..512,
            0usize..STRIDES.len(),
            1u64..700
        )
            .prop_map(|(space, page, offset, stride, len)| Op::Absent {
                space,
                page,
                offset: offset * 8,
                stride,
                len,
            }),
    ]
}

/// The oracle: per-space page→frame map, plus which chunks each space
/// has shared from space 0.
struct Model {
    direct: Vec<HashMap<u64, u64>>,
    shared_chunks: Vec<Vec<bool>>,
    space0: HashMap<u64, u64>,
}

impl Model {
    fn lookup(&self, space: usize, page: u64) -> Option<u64> {
        if space == 0 {
            return self.space0.get(&page).copied();
        }
        if let Some(&f) = self.direct[space].get(&page) {
            return Some(f);
        }
        let chunk = page / 512;
        if chunk < 2 && self.shared_chunks[space][chunk as usize] {
            // Shared chunks alias space 0's mappings in that range.
            return self.space0.get(&page).copied();
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn page_tables_match_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let roots: Vec<PtNodeId> = (0..3).map(|_| pt.create_root(&mut m)).collect();
        let mut model = Model {
            direct: vec![HashMap::new(); 3],
            shared_chunks: vec![vec![false; 2]; 3],
            space0: HashMap::new(),
        };
        // Space 0 owns two fully-mapped 2 MiB chunks that spaces 1–2
        // may share. Map them up front.
        for page in 0..1024u64 {
            pt.map(
                &mut m,
                roots[0],
                VirtAddr(page * PAGE_SIZE),
                FrameNo(10_000 + page),
                PageSize::Base,
                PteFlags::user_rw(),
            )
            .unwrap();
            model.space0.insert(page, 10_000 + page);
        }

        for op in ops {
            match op {
                Op::Map { space, page, frame } => {
                    // Skip pages inside currently-shared chunks: the
                    // kernel never maps into foreign subtrees.
                    let chunk = page / 512;
                    if chunk < 2 && model.shared_chunks[space][chunk as usize] {
                        continue;
                    }
                    let va = VirtAddr(page * PAGE_SIZE);
                    let r = pt.map(&mut m, roots[space], va, FrameNo(frame), PageSize::Base, PteFlags::user_rw());
                    if let std::collections::hash_map::Entry::Vacant(e) = model.direct[space].entry(page) {
                        prop_assert!(r.is_ok());
                        e.insert(frame);
                    } else {
                        prop_assert!(r.is_err(), "double map must fail");
                    }
                }
                Op::Unmap { space, page } => {
                    let chunk = page / 512;
                    if chunk < 2 && model.shared_chunks[space][chunk as usize] {
                        continue;
                    }
                    let va = VirtAddr(page * PAGE_SIZE);
                    let r = pt.unmap(&mut m, roots[space], va);
                    prop_assert_eq!(r.is_some(), model.direct[space].remove(&page).is_some());
                }
                Op::Share { space, chunk } => {
                    // Only legal when the space has nothing of its own
                    // in that chunk and hasn't already shared it.
                    let range = (chunk * 512)..(chunk * 512 + 512);
                    if model.shared_chunks[space][chunk as usize]
                        || range.clone().any(|p| model.direct[space].contains_key(&p))
                    {
                        continue;
                    }
                    let node = pt
                        .subtree(roots[0], VirtAddr(chunk * HUGE_2M), 0)
                        .expect("space 0 chunk exists");
                    pt.share(&mut m, roots[space], VirtAddr(chunk * HUGE_2M), node).unwrap();
                    model.shared_chunks[space][chunk as usize] = true;
                }
                Op::Unshare { space, chunk } => {
                    if !model.shared_chunks[space][chunk as usize] {
                        continue;
                    }
                    let got = pt.unshare(&mut m, roots[space], VirtAddr(chunk * HUGE_2M), 0);
                    prop_assert!(got.is_some());
                    model.shared_chunks[space][chunk as usize] = false;
                }
                Op::Check { space, page } => {
                    let va = VirtAddr(page * PAGE_SIZE + 0x123);
                    let got = pt.lookup(roots[space], va).map(|t| t.pa.frame().0);
                    let want = model.lookup(space, page);
                    prop_assert_eq!(got, want, "space {} page {}", space, page);
                }
                Op::Absent { space, page, offset, stride, len } => {
                    let stride = STRIDES[stride];
                    let va = VirtAddr(page * PAGE_SIZE + offset);
                    let got = pt.absent_run(roots[space], va, stride * PAGE_SIZE as i64, len);
                    // The leading accesses that are unmapped; a run
                    // that would wrap below address 0 ends there.
                    let want = (0..len)
                        .take_while(|&k| {
                            let p = page as i64 + k as i64 * stride;
                            p >= 0 && model.lookup(space, p as u64).is_none()
                        })
                        .count() as u64;
                    prop_assert_eq!(got, want, "space {} page {} stride {} len {}", space, page, stride, len);
                }
            }
            prop_assert!(pt.check_consistency(), "arena slot invariants");
        }

        // Full verification sweep.
        for (space, &root) in roots.iter().enumerate() {
            for page in 0..1024u64 {
                let got = pt
                    .lookup(root, VirtAddr(page * PAGE_SIZE))
                    .map(|t| t.pa.frame().0);
                prop_assert_eq!(got, model.lookup(space, page), "final space {} page {}", space, page);
            }
        }

        // Teardown: releasing every root frees every node exactly once.
        for r in roots {
            pt.release(&mut m, r);
        }
        prop_assert_eq!(pt.node_count(), 0, "all nodes freed");
        prop_assert!(pt.check_consistency(), "freed slots are clean");
        prop_assert_eq!(m.perf.pt_nodes_alloced, m.perf.pt_nodes_freed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Mapping with mixed page sizes translates every covered byte to
    /// the right physical address.
    #[test]
    fn mixed_page_sizes_translate_correctly(
        layout in proptest::collection::vec((0u64..64, prop_oneof![Just(PageSize::Base), Just(PageSize::Huge2M)]), 1..20),
        probe in 0u64..(64 * 512 * PAGE_SIZE),
    ) {
        let mut m = Machine::dram_only(64 << 20);
        let mut pt = PageTables::new();
        let root = pt.create_root(&mut m);
        // Track what got mapped: slot index (2 MiB granularity) → (frame, size).
        let mut model: HashMap<u64, (u64, PageSize)> = HashMap::new();
        for (slot, size) in layout {
            if model.contains_key(&slot) {
                continue;
            }
            let va = VirtAddr(slot * HUGE_2M);
            let frame = FrameNo(slot * 512);
            if pt.map(&mut m, root, va, frame, size, PteFlags::user_rw()).is_ok() {
                model.insert(slot, (frame.0, size));
            }
        }
        let slot = probe / HUGE_2M;
        let got = pt.lookup(root, VirtAddr(probe)).map(|t| t.pa.0);
        let want = model.get(&slot).and_then(|&(frame, size)| {
            let off_in_slot = probe % HUGE_2M;
            match size {
                PageSize::Huge2M => Some(frame * PAGE_SIZE + off_in_slot),
                PageSize::Base => (off_in_slot < PAGE_SIZE).then_some(frame * PAGE_SIZE + off_in_slot),
                PageSize::Huge1G => unreachable!(),
            }
        });
        prop_assert_eq!(got, want);
    }
}
