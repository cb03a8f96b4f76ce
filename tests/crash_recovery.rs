//! End-to-end persistence tests: crashes, torn journals, volatile
//! erasure, and recovery cost scaling.

use o1mem::core::{FomConfig, FomKernel, MapMech};
use o1mem::memfs::{FileClass, Pmfs};
use o1mem::vm::{MemSys, Prot};
use o1mem::PAGE_SIZE;

#[test]
fn full_stack_crash_preserves_exactly_the_persistent_set() {
    let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
    let pid = k.create_process().unwrap();
    // A mix of classes.
    let (_, p1) = k
        .create_named(pid, "/db/main", 4 << 20, FileClass::Persistent)
        .unwrap();
    let (_, p2) = k
        .create_named(pid, "/db/index", 1 << 20, FileClass::Persistent)
        .unwrap();
    let (_, v) = k.falloc(pid, 2 << 20, FileClass::Volatile).unwrap();
    let (_, d) = k
        .create_named_discardable(pid, "/cache/q", 1 << 20)
        .unwrap();
    for (va, tag) in [(p1, 11u64), (p2, 22), (v, 33), (d, 44)] {
        k.store(pid, va, tag).unwrap();
        k.store(pid, va + ((1 << 20) - 8), tag * 2).unwrap();
    }

    let stats = k.crash_and_recover();
    assert_eq!(stats.persistent_files, 2);
    assert_eq!(stats.volatile_dropped, 2, "volatile + discardable both die");

    let pid = k.create_process().unwrap();
    let (_, p1r) = k.open_map(pid, "/db/main", Prot::ReadWrite).unwrap();
    assert_eq!(k.load(pid, p1r).unwrap(), 11);
    assert_eq!(k.load(pid, p1r + ((1 << 20) - 8)).unwrap(), 22);
    let (_, p2r) = k.open_map(pid, "/db/index", Prot::ReadWrite).unwrap();
    assert_eq!(k.load(pid, p2r).unwrap(), 22);
    assert!(k.open_map(pid, "/cache/q", Prot::Read).is_err());
}

#[test]
fn repeated_crashes_are_stable() {
    let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
    let pid = k.create_process().unwrap();
    k.create_named(pid, "/survivor", 1 << 20, FileClass::Persistent)
        .unwrap();
    let va = k.mapping_base(pid, "/survivor").unwrap();
    k.store(pid, va, 0xabc).unwrap();
    for round in 0..5 {
        let stats = k.crash_and_recover();
        assert_eq!(stats.persistent_files, 1, "round {round}");
        let pid = k.create_process().unwrap();
        let (_, va) = k.open_map(pid, "/survivor", Prot::ReadWrite).unwrap();
        assert_eq!(k.load(pid, va).unwrap(), 0xabc, "round {round}");
        k.store(pid, va, 0xabc).unwrap();
    }
}

#[test]
fn volatile_bytes_are_unreadable_after_crash() {
    let mut k = FomKernel::builder().mech(MapMech::PageTables).build();
    let pid = k.create_process().unwrap();
    let (_, va) = k.falloc(pid, 64 * PAGE_SIZE, FileClass::Volatile).unwrap();
    let secret = 0x5ec2e7_5ec2e7u64;
    for p in 0..64 {
        k.store(pid, va + p * PAGE_SIZE, secret).unwrap();
    }
    k.crash_and_recover();
    // Allocate the whole volume and scan for the secret.
    let pid = k.create_process().unwrap();
    let free = k.free_frames();
    let (_, scan) = k
        .falloc(pid, free * PAGE_SIZE, FileClass::Volatile)
        .unwrap();
    for p in 0..free {
        assert_ne!(
            k.load(pid, scan + p * PAGE_SIZE).unwrap(),
            secret,
            "secret leaked at page {p}"
        );
    }
}

#[test]
fn torn_journal_tail_rolls_back_cleanly() {
    // Drive the Pmfs directly to cut the journal mid-transaction.
    let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
    let pid = k.create_process().unwrap();
    k.create_named(pid, "/a", 256 * PAGE_SIZE, FileClass::Persistent)
        .unwrap();
    let span = k.pmfs.span();
    // Tear off the final commit record of the last transaction.
    let mut journal = k.pmfs.journal().clone();
    journal.lose_tail(1);
    let mut m = o1mem::Machine::with_nvm(16 << 20, span.bytes() * 2);
    let (fs, stats) = Pmfs::recover(&mut m, span, journal);
    assert_eq!(stats.persistent_files, 1, "the committed create survives");
    // No frames may leak: every used frame must belong to a surviving
    // file's extents.
    let used = span.frames - fs.free_frames();
    let mut accounted = 0u64;
    let mut m2 = o1mem::Machine::with_nvm(1 << 20, 1 << 20);
    if let Ok(fid) = fs.lookup(&mut m2, "/a") {
        accounted += fs
            .inode(fid)
            .unwrap()
            .extents
            .iter()
            .map(|e| e.phys.frames)
            .sum::<u64>();
    }
    assert_eq!(used, accounted, "no leaked frames after torn recovery");
}

#[test]
fn recovery_cost_scales_with_files_not_pages() {
    // Same byte total, two shapes: 4 huge files vs 256 small files.
    let total_pages = 16 * 1024u64;
    let mut few = FomKernel::new(FomConfig {
        nvm_bytes: 4 * total_pages * PAGE_SIZE,
        mech: MapMech::SharedPt,
        ..FomConfig::default()
    });
    let pid = few.create_process().unwrap();
    for i in 0..4u64 {
        few.create_named(
            pid,
            &format!("/big{i}"),
            total_pages / 4 * PAGE_SIZE,
            FileClass::Persistent,
        )
        .unwrap();
    }
    let t0 = few.machine().now();
    few.crash_and_recover();
    let few_ns = few.machine().now().since(t0);

    let mut many = FomKernel::new(FomConfig {
        nvm_bytes: 4 * total_pages * PAGE_SIZE,
        mech: MapMech::SharedPt,
        ..FomConfig::default()
    });
    let pid = many.create_process().unwrap();
    for i in 0..256u64 {
        many.create_named(
            pid,
            &format!("/small{i}"),
            total_pages / 256 * PAGE_SIZE,
            FileClass::Persistent,
        )
        .unwrap();
    }
    let t0 = many.machine().now();
    many.crash_and_recover();
    let many_ns = many.machine().now().since(t0);

    assert!(
        many_ns > 10 * few_ns,
        "recovery is O(files): 4 files {few_ns} ns vs 256 files {many_ns} ns"
    );
}

#[test]
fn checkpointed_journal_recovers_identically() {
    let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
    let pid = k.create_process().unwrap();
    // Build up history: creates, growth, deletes, renames.
    for i in 0..20 {
        k.create_named(
            pid,
            &format!("/ckpt/{i}"),
            64 * PAGE_SIZE,
            FileClass::Persistent,
        )
        .unwrap();
        let va = k.mapping_base(pid, &format!("/ckpt/{i}")).unwrap();
        k.store(pid, va, 7000 + i).unwrap();
    }
    for i in 0..10 {
        let va = k.mapping_base(pid, &format!("/ckpt/{i}")).unwrap();
        k.unmap(pid, va).unwrap();
        k.delete(&format!("/ckpt/{i}")).unwrap();
    }
    let before = k.pmfs.journal().len();
    k.checkpoint();
    assert!(k.pmfs.journal().len() < before);
    k.pmfs.check_consistency();

    let stats = k.crash_and_recover();
    assert_eq!(stats.persistent_files, 10);
    let pid = k.create_process().unwrap();
    for i in 10..20u64 {
        let (_, va) = k
            .open_map(pid, &format!("/ckpt/{i}"), Prot::ReadWrite)
            .unwrap();
        assert_eq!(k.load(pid, va).unwrap(), 7000 + i);
    }
    k.pmfs.check_consistency();
}

#[test]
fn rename_and_reopen_across_crash() {
    let mut k = FomKernel::builder().mech(MapMech::Ranges).build();
    let pid = k.create_process().unwrap();
    let (_, va) = k
        .create_named(pid, "/old/location", 1 << 20, FileClass::Persistent)
        .unwrap();
    k.store(pid, va, 0xabcd).unwrap();
    k.unmap(pid, va).unwrap();
    k.rename_file("/old/location", "/new/location").unwrap();
    k.crash_and_recover();
    let pid = k.create_process().unwrap();
    assert!(k.open_map(pid, "/old/location", Prot::Read).is_err());
    let (_, va2) = k.open_map(pid, "/new/location", Prot::Read).unwrap();
    assert_eq!(k.load(pid, va2).unwrap(), 0xabcd);
}
