//! Transcendent-memory-style caching with discardable files (§3.1):
//! "if applications use a file API to access non-critical data...,
//! the OS can reclaim the memory by deleting non-critical files."
//!
//! An application keeps derived results in discardable cache files.
//! When a big allocation arrives, the kernel silently deletes the
//! least-recently-used caches instead of OOM-ing or swapping; the
//! application re-derives on miss.
//!
//! Run with: `cargo run --example discardable_cache`

use o1mem::core::{FomConfig, FomKernel, MapMech};
use o1mem::memfs::FileClass;
use o1mem::vm::{MemSys, Prot};
use o1mem::{Pid, PAGE_SIZE};

const CACHE_PAGES: u64 = 256;

/// Get the cached derivation of `key`, re-deriving on miss.
fn cached_compute(k: &mut FomKernel, pid: Pid, key: u32) -> (u64, bool) {
    let name = format!("/cache/derived-{key}");
    if let Ok((_, va)) = k.open_map(pid, &name, Prot::Read) {
        let v = k.load(pid, va).expect("cached value");
        k.unmap(pid, va).expect("close");
        return (v, true);
    }
    // Miss: "derive" (write a recognisable value) and publish.
    let (_, va) = k
        .create_named_discardable(pid, &name, CACHE_PAGES * PAGE_SIZE)
        .expect("create cache");
    let value = u64::from(key) * 1_000_003;
    k.store(pid, va, value).expect("fill");
    k.unmap(pid, va).expect("close");
    (value, false)
}

fn main() {
    // A small volume so pressure arrives quickly: 16 MiB.
    let mut k = FomKernel::new(FomConfig {
        nvm_bytes: 16 << 20,
        mech: MapMech::SharedPt,
        ..FomConfig::default()
    });
    let pid = k.create_process().unwrap();

    // Warm 12 caches (12 MiB of discardable data).
    for key in 0..12 {
        let (_, hit) = cached_compute(&mut k, pid, key);
        assert!(!hit);
    }
    println!("12 caches warm; {} free pages left", k.free_frames());

    // Hot keys stay hot.
    for key in 8..12 {
        let (v, hit) = cached_compute(&mut k, pid, key);
        assert!(hit);
        assert_eq!(v, u64::from(key) * 1_000_003);
    }

    // A 10 MiB working buffer does not fit — the kernel discards LRU
    // caches to make room rather than failing.
    let (_, big) = k
        .falloc(pid, 10 << 20, FileClass::Volatile)
        .expect("pressure allocation succeeds via discard");
    let discarded = k.machine().perf.files_discarded;
    println!("allocated 10 MiB under pressure; {discarded} cache files discarded");
    assert!(discarded > 0);

    // Cold keys were sacrificed (miss + re-derive); hot keys survive
    // if space allowed LRU to spare them.
    let (_, hit_cold) = cached_compute(&mut k, pid, 0);
    println!(
        "key 0 after pressure: {}",
        if hit_cold {
            "still cached"
        } else {
            "re-derived (was discarded)"
        }
    );
    assert!(!hit_cold, "LRU discard starts with the coldest cache");

    k.unmap(pid, big).expect("release buffer");
    println!(
        "done; total reclaim scans performed: {} (file-grain reclaim never scans pages)",
        k.machine().perf.reclaim_scanned
    );
}
