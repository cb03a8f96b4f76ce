//! A crash-safe key-value store on file-only memory.
//!
//! The store keeps its log in one *persistent* file mapped directly
//! into the process — no serialization layer, no page cache, no
//! `read()`/`write()` interposition, exactly the "expose that data to
//! programs directly" design the paper advocates. After a simulated
//! power failure the log is remapped and replayed: committed data
//! survives, the volatile index is rebuilt.
//!
//! Run with: `cargo run --example persistent_kv`

use std::collections::HashMap;

use o1mem::core::{FomKernel, MapMech};
use o1mem::memfs::FileClass;
use o1mem::vm::{MemSys, Prot};
use o1mem::{Pid, VirtAddr};

/// Record layout: [ key u64 | len u64 | value bytes (8-aligned) ].
struct KvStore {
    pid: Pid,
    base: VirtAddr,
    capacity: u64,
    head: u64,
    index: HashMap<u64, (u64, u64)>, // key -> (value offset, len)
}

const HEADER: u64 = 8; // log head pointer, persisted at offset 0

impl KvStore {
    /// Create or recover the store backed by `file`.
    fn open(k: &mut FomKernel, pid: Pid, capacity: u64) -> KvStore {
        let base = match k.open_map(pid, "/kv/log", Prot::ReadWrite) {
            Ok((_, va)) => va,
            Err(_) => {
                let (_, va) = k
                    .create_named(pid, "/kv/log", capacity, FileClass::Persistent)
                    .expect("create log file");
                va
            }
        };
        let mut store = KvStore {
            pid,
            base,
            capacity,
            head: HEADER,
            index: HashMap::new(),
        };
        store.replay(k);
        store
    }

    /// Rebuild the volatile index from the persistent log.
    fn replay(&mut self, k: &mut FomKernel) {
        let persisted_head = k.load(self.pid, self.base).expect("read head");
        if persisted_head < HEADER {
            return; // fresh log
        }
        let mut at = HEADER;
        while at < persisted_head {
            let key = k.load(self.pid, self.base + at).expect("key");
            let len = k.load(self.pid, self.base + (at + 8)).expect("len");
            self.index.insert(key, (at + 16, len));
            at += 16 + len.next_multiple_of(8);
        }
        self.head = persisted_head;
    }

    fn put(&mut self, k: &mut FomKernel, key: u64, value: &[u8]) {
        let need = 16 + (value.len() as u64).next_multiple_of(8);
        assert!(self.head + need <= self.capacity, "log full");
        let at = self.head;
        k.store(self.pid, self.base + at, key).expect("write key");
        k.store(self.pid, self.base + (at + 8), value.len() as u64)
            .expect("write len");
        k.write_bytes(self.pid, self.base + (at + 16), value)
            .expect("write value");
        self.head += need;
        // Commit point: publish the new head (8-byte atomic store to
        // persistent memory).
        k.store(self.pid, self.base, self.head)
            .expect("commit head");
        self.index.insert(key, (at + 16, value.len() as u64));
    }

    fn get(&self, k: &mut FomKernel, key: u64) -> Option<Vec<u8>> {
        let &(off, len) = self.index.get(&key)?;
        let mut buf = vec![0u8; len as usize];
        k.read_bytes(self.pid, self.base + off, &mut buf)
            .expect("read value");
        Some(buf)
    }
}

fn main() {
    let mut k = FomKernel::builder().mech(MapMech::SharedPt).build();
    let pid = k.create_process().unwrap();
    let mut kv = KvStore::open(&mut k, pid, 4 << 20);

    for i in 0..1000u64 {
        kv.put(&mut k, i, format!("value-{i}").as_bytes());
    }
    // Overwrites shadow earlier records via the index.
    kv.put(&mut k, 7, b"updated-seven");
    assert_eq!(kv.get(&mut k, 7).unwrap(), b"updated-seven");
    println!("wrote 1001 records; head at {} bytes", kv.head);

    // ---- power failure ----------------------------------------------------
    let stats = k.crash_and_recover();
    println!(
        "crash: recovered {} persistent file(s), dropped {} volatile, replayed {} journal records",
        stats.persistent_files, stats.volatile_dropped, stats.records_replayed
    );

    let pid = k.create_process().unwrap();
    let mut kv = KvStore::open(&mut k, pid, 4 << 20);
    assert_eq!(kv.get(&mut k, 7).unwrap(), b"updated-seven");
    assert_eq!(kv.get(&mut k, 999).unwrap(), b"value-999");
    assert_eq!(kv.index.len(), 1000);
    println!("all 1000 keys intact after the crash");

    // And the store keeps working.
    kv.put(&mut k, 2000, b"post-crash");
    assert_eq!(kv.get(&mut k, 2000).unwrap(), b"post-crash");
    println!("post-crash writes OK — done");
}
