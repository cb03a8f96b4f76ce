//! Model-based property tests: the page-table arena must agree with a
//! simple `HashMap<page, frame>` oracle under arbitrary interleavings
//! of map / unmap / share / unshare / absence probes across multiple
//! address spaces, and never leak or double-free nodes; and a range
//! unmap must leave exactly what `unmap` at every page leaves.

use std::collections::HashMap;

use proptest::prelude::*;

use o1_hw::{
    ClearedLeaves, FrameNo, Machine, MachineConfig, ObsMode, PageSize, PageTables, PtNodeId,
    PteFlags, VirtAddr, HUGE_2M, PAGE_SIZE,
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

/// What one chunk of the range-unmap window holds: nothing, base
/// pages at a density, or one 2 MiB leaf.
#[derive(Clone, Copy, Debug)]
enum Chunk {
    Empty,
    Base { seed: u64, density: u64 },
    Huge,
}

fn chunk_strategy() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        1 => Just(Chunk::Empty),
        3 => (any::<u64>(), 1u64..8).prop_map(|(seed, density)| Chunk::Base { seed, density }),
        1 => Just(Chunk::Huge),
    ]
}

/// First page of the four-chunk window a range unmap works in: at 0,
/// or straddling 1 GiB, where a 1 GiB leaf covers the upper half.
const WINDOWS: [u64; 2] = [0, (1 << 18) - 1024];

/// One twin of the range-unmap comparison: an `ObsMode::On` machine
/// and two address spaces laid out by `chunks`. Space 0 maps the
/// window; space 1 shares space 0's `shared` chunk (refs 2) and maps
/// base pages of its own in the other chunks.
fn range_twin(
    window: u64,
    chunks: &[Chunk; 4],
    shared: Option<usize>,
) -> (Machine, PageTables, [PtNodeId; 2]) {
    let mut m = MachineConfig {
        dram_bytes: 64 << 20,
        obs: ObsMode::On,
        ..MachineConfig::default()
    }
    .build();
    let mut pt = PageTables::new();
    let roots = [pt.create_root(&mut m), pt.create_root(&mut m)];
    let map = |m: &mut Machine, pt: &mut PageTables, root, page: u64, size| {
        let va = VirtAddr(page * PAGE_SIZE);
        pt.map(m, root, va, FrameNo(page), size, PteFlags::user_rw())
            .unwrap();
    };
    let giant = WINDOWS[1] + 1024;
    if window == WINDOWS[1] {
        map(&mut m, &mut pt, roots[0], giant, PageSize::Huge1G);
    }
    for (c, chunk) in chunks.iter().enumerate() {
        let first = window + c as u64 * 512;
        if first >= giant && window == WINDOWS[1] {
            break;
        }
        match *chunk {
            Chunk::Empty => {}
            Chunk::Huge => map(&mut m, &mut pt, roots[0], first, PageSize::Huge2M),
            Chunk::Base { seed, density } => {
                for i in 0..512u64 {
                    let h = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                    if h < density {
                        map(&mut m, &mut pt, roots[0], first + i, PageSize::Base);
                    }
                    // Space 1's own pages, in the chunks it does not share.
                    if shared != Some(c) && h == 15 {
                        map(&mut m, &mut pt, roots[1], first + i, PageSize::Base);
                    }
                }
            }
        }
    }
    if let Some(c) = shared {
        let va = VirtAddr((window + c as u64 * 512) * PAGE_SIZE);
        if let Some(node) = pt.subtree(roots[0], va, 0) {
            if pt.subtree(roots[1], va, 0).is_none() {
                pt.share(&mut m, roots[1], va, node).unwrap();
            }
        }
    }
    (m, pt, roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// A range unmap — `unmap_leaves` until it returns false — is
    /// `unmap` at every page of the range in VA order: the same leaves
    /// reported, and the same entries, node-recycle order and epoch
    /// (the arena's whole state), clock, counters and ledger rows.
    /// Ranges start and end mid-node, cover sparse and dense leaf
    /// nodes, 2 MiB leaves and a 1 GiB leaf, and cut through a
    /// subtree two address spaces share.
    #[test]
    fn range_unmap_matches_per_page_unmap(
        window in 0usize..2,
        chunks in (chunk_strategy(), chunk_strategy(), chunk_strategy(), chunk_strategy()),
        shared in 0usize..6,
        space in 0usize..2,
        start in 0u64..2048,
        len in 1u64..2048,
    ) {
        let window = WINDOWS[window];
        let chunks = [chunks.0, chunks.1, chunks.2, chunks.3];
        let shared = (shared < 4).then_some(shared);
        let (mut m_ref, mut pt_ref, roots) = range_twin(window, &chunks, shared);
        let (mut m, mut pt, _) = range_twin(window, &chunks, shared);
        let root = roots[space];
        let start = window + start;
        let end = (start + len).min(window + 2048);

        let mut want = Vec::new();
        for page in start..end {
            let va = VirtAddr(page * PAGE_SIZE);
            if let Some((frame, _, size)) = pt_ref.unmap(&mut m_ref, root, va) {
                want.push((va, frame, size));
            }
        }
        let mut got = Vec::new();
        let mut leaves = ClearedLeaves::default();
        let mut at = VirtAddr(start * PAGE_SIZE);
        while pt.unmap_leaves(&mut m, root, &mut at, VirtAddr(end * PAGE_SIZE), &mut leaves) {
            got.extend(leaves.iter().map(|(va, frame)| (va, frame, leaves.size())));
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(format!("{pt:?}"), format!("{pt_ref:?}"), "arena state");
        prop_assert!(pt.check_consistency());
        prop_assert_eq!(m.now(), m_ref.now());
        prop_assert_eq!(format!("{:?}", m.perf), format!("{:?}", m_ref.perf));
        let rows = |m: &mut Machine| format!("{:?}", m.take_trace().unwrap().rows);
        prop_assert_eq!(rows(&mut m), rows(&mut m_ref), "ledger rows");
    }
}
