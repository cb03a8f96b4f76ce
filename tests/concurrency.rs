//! Concurrency stress of the thread-safe wrapper: many threads, one
//! kernel, no lost updates, no leaked memory.

use std::sync::Arc;

use o1mem::core::{FomConfig, MapMech, SyncFom};
use o1mem::vm::Prot;
use o1mem::PAGE_SIZE;

#[test]
fn parallel_alloc_store_load_release() {
    let fom = Arc::new(SyncFom::new(FomConfig {
        nvm_bytes: 1 << 30,
        mech: MapMech::SharedPt,
        ..FomConfig::default()
    }));
    let free0 = fom.free_frames();
    let threads: Vec<_> = (0..16u64)
        .map(|t| {
            let fom = fom.clone();
            std::thread::spawn(move || {
                for round in 0..8u64 {
                    let pid = fom.create_process().unwrap();
                    let pages = 16 + (t + round) % 48;
                    let va = fom.alloc(pid, pages * PAGE_SIZE).unwrap();
                    for p in 0..pages {
                        fom.store(pid, va + p * PAGE_SIZE, t << 32 | round << 16 | p)
                            .unwrap();
                    }
                    for p in 0..pages {
                        assert_eq!(
                            fom.load(pid, va + p * PAGE_SIZE).unwrap(),
                            t << 32 | round << 16 | p
                        );
                    }
                    fom.destroy_process(pid).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        fom.free_frames(),
        free0,
        "no frames leaked under concurrency"
    );
}

#[test]
fn scoped_readers_share_a_persistent_file() {
    let fom = SyncFom::new(FomConfig {
        mech: MapMech::Pbm,
        ..FomConfig::default()
    });
    let writer = fom.create_process().unwrap();
    let base = fom.create_named(writer, "/shared/table", 4 << 20).unwrap();
    for i in 0..512u64 {
        fom.store(writer, base + i * 4096, i * 31).unwrap();
    }
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let pid = fom.create_process().unwrap();
                let va = fom.open_map(pid, "/shared/table", Prot::Read).unwrap();
                // PBM: every process maps at the same address.
                assert_eq!(va, base);
                for i in (0..512u64).step_by(7) {
                    assert_eq!(fom.load(pid, va + i * 4096).unwrap(), i * 31);
                }
                fom.destroy_process(pid).unwrap();
            });
        }
    });
}

#[test]
fn concurrent_named_creates_never_collide() {
    let fom = Arc::new(SyncFom::new(FomConfig::default()));
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let fom = fom.clone();
            std::thread::spawn(move || {
                let pid = fom.create_process().unwrap();
                for i in 0..16u64 {
                    let name = format!("/t{t}/f{i}");
                    let va = fom.create_named(pid, &name, PAGE_SIZE).unwrap();
                    fom.store(pid, va, t * 1000 + i).unwrap();
                }
                pid
            })
        })
        .collect();
    let pids: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // Every file exists with the right contents.
    let checker = fom.create_process().unwrap();
    for t in 0..8u64 {
        for i in 0..16u64 {
            let va = fom
                .open_map(checker, &format!("/t{t}/f{i}"), Prot::Read)
                .unwrap();
            assert_eq!(fom.load(checker, va).unwrap(), t * 1000 + i);
        }
    }
    for pid in pids {
        fom.destroy_process(pid).unwrap();
    }
}
