//! Randomized differential testing of the two kernels: a seeded
//! stream of alloc / free / store / load operations runs against the
//! baseline kernel, every fom mechanism, and a trivial
//! `HashMap<(region, page), value>` oracle. All six must agree on
//! every loaded value and never leak memory.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o1mem::core::{FomKernel, MapMech};
use o1mem::vm::{BaselineKernel, MemSys};
use o1mem::{VirtAddr, PAGE_SIZE};

#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc { pages: u64, populate: bool },
    Free { region: usize },
    Store { region: usize, page: u64, val: u64 },
    Load { region: usize, page: u64 },
    NewProcess,
}

fn generate(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.random_range(0..10u32) {
            0 | 1 => Op::Alloc {
                pages: rng.random_range(1..96),
                populate: rng.random(),
            },
            2 => Op::Free {
                region: rng.random_range(0..8),
            },
            3..=6 => Op::Store {
                region: rng.random_range(0..8),
                page: rng.random_range(0..96),
                val: rng.random(),
            },
            7 | 8 => Op::Load {
                region: rng.random_range(0..8),
                page: rng.random_range(0..96),
            },
            _ => Op::NewProcess,
        })
        .collect()
}

/// Run the stream against one kernel, returning the sequence of
/// successfully-loaded values (misses/errors recorded as None).
/// `after_op` inspects the kernel after every op.
fn run<S: MemSys>(sys: &mut S, ops: &[Op], mut after_op: impl FnMut(&S)) -> Vec<Option<u64>> {
    let mut pid = sys.create_process().unwrap();
    // region slot -> (va, pages)
    let mut regions: Vec<Option<(VirtAddr, u64)>> = vec![None; 8];
    let mut loads = Vec::new();
    for &op in ops {
        match op {
            Op::Alloc { pages, populate } => {
                if let Some(slot) = regions.iter().position(Option::is_none) {
                    let va = sys.alloc(pid, pages * PAGE_SIZE, populate).unwrap();
                    regions[slot] = Some((va, pages));
                }
            }
            Op::Free { region } => {
                if let Some((va, pages)) = regions[region].take() {
                    sys.release(pid, va, pages * PAGE_SIZE).unwrap();
                }
            }
            Op::Store { region, page, val } => {
                if let Some((va, pages)) = regions[region] {
                    if page < pages {
                        sys.store(pid, va + page * PAGE_SIZE, val).unwrap();
                    }
                }
            }
            Op::Load { region, page } => {
                let v = match regions[region] {
                    Some((va, pages)) if page < pages => {
                        Some(sys.load(pid, va + page * PAGE_SIZE).unwrap())
                    }
                    _ => None,
                };
                loads.push(v);
            }
            Op::NewProcess => {
                // Drop everything and start a fresh process, as an
                // exit would.
                for r in regions.iter_mut() {
                    if let Some((va, pages)) = r.take() {
                        sys.release(pid, va, pages * PAGE_SIZE).unwrap();
                    }
                }
                sys.destroy_process(pid).unwrap();
                pid = sys.create_process().unwrap();
            }
        }
        after_op(sys);
    }
    for r in regions.iter_mut() {
        if let Some((va, pages)) = r.take() {
            sys.release(pid, va, pages * PAGE_SIZE).unwrap();
        }
    }
    sys.destroy_process(pid).unwrap();
    loads
}

/// The oracle: plain maps, no kernels involved.
fn run_oracle(ops: &[Op]) -> Vec<Option<u64>> {
    let mut regions: Vec<Option<(u64, HashMap<u64, u64>)>> = vec![None; 8];
    let mut loads = Vec::new();
    for &op in ops {
        match op {
            Op::Alloc { pages, .. } => {
                if let Some(slot) = regions.iter().position(Option::is_none) {
                    regions[slot] = Some((pages, HashMap::new()));
                }
            }
            Op::Free { region } => {
                regions[region] = None;
            }
            Op::Store { region, page, val } => {
                if let Some((pages, map)) = regions[region].as_mut() {
                    if page < *pages {
                        map.insert(page, val);
                    }
                }
            }
            Op::Load { region, page } => {
                let v = match regions[region].as_ref() {
                    Some((pages, map)) if page < *pages => {
                        Some(map.get(&page).copied().unwrap_or(0))
                    }
                    _ => None,
                };
                loads.push(v);
            }
            Op::NewProcess => {
                for r in regions.iter_mut() {
                    *r = None;
                }
            }
        }
    }
    loads
}

#[test]
fn all_kernels_agree_with_the_oracle() {
    for seed in [1u64, 7, 42, 1337, 9999] {
        let ops = generate(seed, 400);
        let expected = run_oracle(&ops);
        let mut base = BaselineKernel::builder().dram(256 << 20).build();
        assert_eq!(
            run(&mut base, &ops, |_| {}),
            expected,
            "baseline diverged, seed {seed}"
        );
        base.check_consistency().unwrap();
        for mech in MapMech::ALL {
            let mut fom = FomKernel::builder().mech(mech).build();
            let free0 = fom.free_frames();
            assert_eq!(
                run(&mut fom, &ops, |_| {}),
                expected,
                "{mech:?} diverged, seed {seed}"
            );
            assert_eq!(fom.free_frames(), free0, "{mech:?} leaked, seed {seed}");
            assert_eq!(fom.pt_metadata_bytes(), 0, "{mech:?} leaked PT nodes");
            fom.pmfs.check_consistency();
        }
    }
}

#[test]
fn long_run_with_memory_pressure_on_baseline() {
    // Baseline with swap enabled and a small DRAM must survive the
    // same stream and still agree with the oracle.
    use o1mem::vm::{BaselineConfig, ReclaimPolicy, ThpMode};
    let ops = generate(77, 300);
    let expected = run_oracle(&ops);
    let mut k = BaselineKernel::new(BaselineConfig {
        dram_bytes: 160 * PAGE_SIZE,
        reclaim: ReclaimPolicy::Clock,
        low_watermark_frames: 16,
        swap_enabled: true,
        thp: ThpMode::Never,
        fault_around: 1,
    });
    let check = |k: &BaselineKernel| k.check_consistency().unwrap();
    assert_eq!(
        run(&mut k, &ops, check),
        expected,
        "diverged under pressure"
    );
    k.check_consistency().unwrap();
    assert!(k.stats().counters.pages_swapped_out > 0, "never swapped");
}

/// fom-specific lifecycle fuzz: falloc / store / fgrow / mprotect /
/// persist / crash, against an oracle of what must survive. Runs on every
/// mechanism; verifies no leaks and fs consistency throughout.
#[test]
fn fom_lifecycle_fuzz_with_crashes() {
    use o1mem::core::MapMech;
    use o1mem::vm::Prot;

    for mech in MapMech::ALL {
        for seed in [3u64, 11, 2026] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut k = FomKernel::builder().mech(mech).build();
            let mut pid = k.create_process().unwrap();
            // Live scratch mappings: (va, pages).
            let mut scratch: Vec<(VirtAddr, u64)> = Vec::new();
            // Oracle: persisted name -> first-word value.
            let mut persisted: HashMap<String, u64> = HashMap::new();
            let mut next_name = 0u32;
            for _ in 0..300 {
                match rng.random_range(0..11u32) {
                    0..=3 => {
                        let pages = rng.random_range(1..64u64);
                        let va = MemSys::alloc(&mut k, pid, pages * PAGE_SIZE, false).unwrap();
                        k.store(pid, va, 0xaaaa).unwrap();
                        scratch.push((va, pages));
                    }
                    4 | 5 => {
                        if !scratch.is_empty() {
                            let i = rng.random_range(0..scratch.len());
                            let (va, _) = scratch.swap_remove(i);
                            k.unmap(pid, va).unwrap();
                        }
                    }
                    6 => {
                        // Grow a random scratch mapping.
                        if !scratch.is_empty() {
                            let i = rng.random_range(0..scratch.len());
                            let (va, pages) = scratch[i];
                            let new_pages = pages + rng.random_range(1..32u64);
                            let new_va = k.fgrow(pid, va, new_pages * PAGE_SIZE).unwrap();
                            scratch[i] = (new_va, new_pages);
                            assert_eq!(k.load(pid, new_va).unwrap(), 0xaaaa, "{mech:?}");
                        }
                    }
                    7 => {
                        // Persist a scratch mapping under a fresh name.
                        if !scratch.is_empty() {
                            let i = rng.random_range(0..scratch.len());
                            let (va, _) = scratch.swap_remove(i);
                            let name = format!("/p/{next_name}");
                            next_name += 1;
                            let tag = u64::from(next_name) * 31;
                            k.store(pid, va, tag).unwrap();
                            k.persist_mapping(pid, va, &name).unwrap();
                            k.unmap(pid, va).unwrap();
                            persisted.insert(name, tag);
                        }
                    }
                    8 => {
                        // Read back a persisted file.
                        if let Some((name, &tag)) = persisted.iter().next() {
                            let name = name.clone();
                            let (_, va) = k.open_map(pid, &name, Prot::Read).unwrap();
                            assert_eq!(k.load(pid, va).unwrap(), tag, "{mech:?} {name}");
                            k.unmap(pid, va).unwrap();
                        }
                    }
                    10 => {
                        // Remap a random scratch mapping whole; its
                        // file keeps its name, so it can still be
                        // persisted.
                        if !scratch.is_empty() {
                            let i = rng.random_range(0..scratch.len());
                            let va = scratch[i].0;
                            let new_va = k.mprotect_file(pid, va, Prot::ReadWrite).unwrap();
                            scratch[i].0 = new_va;
                            assert_eq!(k.load(pid, new_va).unwrap(), 0xaaaa, "{mech:?}");
                        }
                    }
                    _ => {
                        // Crash: scratch dies, persisted survives.
                        k.crash_and_recover();
                        scratch.clear();
                        pid = k.create_process().unwrap();
                        for (name, &tag) in &persisted {
                            let (_, va) = k.open_map(pid, name, Prot::Read).unwrap();
                            assert_eq!(
                                k.load(pid, va).unwrap(),
                                tag,
                                "{mech:?}: {name} lost after crash (seed {seed})"
                            );
                            k.unmap(pid, va).unwrap();
                        }
                    }
                }
                k.pmfs.check_consistency();
            }
            // Final teardown: everything scratch released, persisted
            // files account for all used frames.
            MemSys::destroy_process(&mut k, pid).unwrap();
            k.pmfs.check_consistency();
        }
    }
}
