//! Application-level paging on file-only memory.
//!
//! §3.1: file-only memory drops kernel swapping entirely — "Those
//! applications that need swapping could implement it themselves using
//! techniques such as userfaultd". This example is that application:
//! an out-of-core scan over a 256 MiB dataset using only a 64 MiB
//! memory budget. The app pages 4 MiB *chunk files* in and out of
//! file-only memory explicitly — the kernel never scans a page, never
//! swaps, never faults.
//!
//! Run with: `cargo run --release --example user_pager`

use std::collections::HashMap;

use o1mem::core::{FomConfig, FomKernel, MapMech};
use o1mem::memfs::FileClass;
use o1mem::{MemSys, Pid, VirtAddr};

const CHUNK: u64 = 4 << 20;
const DATASET: u64 = 256 << 20;
const BUDGET_CHUNKS: usize = 12; // 48 MiB resident

/// Cold storage the app pages against (a remote object store, a slow
/// disk tier, a compressed heap — anything outside premium memory).
struct Archive {
    chunks: HashMap<u64, Vec<u8>>,
}

impl Archive {
    fn fetch(&self, chunk: u64) -> Vec<u8> {
        self.chunks.get(&chunk).cloned().unwrap_or_else(|| {
            // Cold data is generated deterministically on first touch.
            (0..CHUNK)
                .map(|i| ((chunk * 131 + i * 7) % 251) as u8)
                .collect()
        })
    }

    fn store(&mut self, chunk: u64, data: Vec<u8>) {
        self.chunks.insert(chunk, data);
    }
}

/// The app's pager: an LRU window of chunk files.
struct UserPager {
    pid: Pid,
    resident: HashMap<u64, (VirtAddr, u64)>, // chunk -> (va, lru stamp)
    clock: u64,
    archive: Archive,
    faults: u64,
    evictions: u64,
}

impl UserPager {
    fn new(pid: Pid) -> UserPager {
        UserPager {
            pid,
            resident: HashMap::new(),
            clock: 0,
            archive: Archive {
                chunks: HashMap::new(),
            },
            faults: 0,
            evictions: 0,
        }
    }

    /// Get the base address of `chunk`, paging it in if absent.
    fn chunk_base(&mut self, k: &mut FomKernel, chunk: u64) -> VirtAddr {
        self.clock += 1;
        if let Some(entry) = self.resident.get_mut(&chunk) {
            entry.1 = self.clock;
            return entry.0;
        }
        self.faults += 1;
        // Evict the LRU chunk when over budget (write-back + O(1)
        // whole-file free).
        if self.resident.len() >= BUDGET_CHUNKS {
            let (&victim, &(vva, _)) = self
                .resident
                .iter()
                .min_by_key(|(_, &(_, stamp))| stamp)
                .expect("resident set non-empty");
            let mut data = vec![0u8; CHUNK as usize];
            k.read_bytes(self.pid, vva, &mut data).expect("read back");
            self.archive.store(victim, data);
            k.unmap(self.pid, vva).expect("evict chunk file");
            self.resident.remove(&victim);
            self.evictions += 1;
        }
        // Page in: one file allocation + one bulk copy.
        let data = self.archive.fetch(chunk);
        let (_, va) = k
            .falloc(self.pid, CHUNK, FileClass::Volatile)
            .expect("chunk file");
        k.write_bytes(self.pid, va, &data).expect("fill chunk");
        self.resident.insert(chunk, (va, self.clock));
        va
    }

    /// Read one byte of the dataset.
    fn read(&mut self, k: &mut FomKernel, offset: u64) -> u8 {
        let chunk = offset / CHUNK;
        let base = self.chunk_base(k, chunk);
        let mut b = [0u8; 1];
        k.read_bytes(self.pid, base + offset % CHUNK, &mut b)
            .expect("read byte");
        b[0]
    }

    /// Write one byte of the dataset.
    fn write(&mut self, k: &mut FomKernel, offset: u64, v: u8) {
        let chunk = offset / CHUNK;
        let base = self.chunk_base(k, chunk);
        k.write_bytes(self.pid, base + offset % CHUNK, &[v])
            .expect("write byte");
    }
}

fn main() {
    let mut k = FomKernel::new(FomConfig {
        nvm_bytes: 64 << 20, // the whole premium-memory budget
        mech: MapMech::Ranges,
        ..FomConfig::default()
    });
    let pid = k.create_process().unwrap();
    let mut pager = UserPager::new(pid);

    // Sequential scan with a stride: touches every chunk twice.
    let mut checksum = 0u64;
    let mut touches = 0u64;
    for pass in 0..2 {
        for off in (0..DATASET).step_by((1 << 20) + 4096) {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(pager.read(&mut k, off)));
            touches += 1;
            let _ = pass;
        }
    }
    // Dirty a few cold bytes and read them back through eviction.
    pager.write(&mut k, 0, 0xAA);
    for c in 1..40 {
        pager.read(&mut k, c * CHUNK); // force chunk 0 out
    }
    assert_eq!(pager.read(&mut k, 0), 0xAA, "dirty data survives eviction");

    println!(
        "scanned {} MiB twice ({touches} touches) within a {} MiB budget",
        DATASET >> 20,
        64
    );
    println!(
        "app-level paging: {} page-ins, {} evictions; checksum {checksum:#x}",
        pager.faults, pager.evictions
    );
    println!(
        "kernel's view:   {} reclaim scans, {} swap-outs, {} hardware faults",
        k.machine().perf.reclaim_scanned,
        k.machine().perf.pages_swapped_out,
        k.machine().perf.minor_faults + k.machine().perf.major_faults
    );
    assert_eq!(k.machine().perf.reclaim_scanned, 0);
    assert_eq!(k.machine().perf.pages_swapped_out, 0);
    assert_eq!(k.machine().perf.minor_faults, 0);
}
