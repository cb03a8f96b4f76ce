//! The experiments: one function per paper figure / table.
//!
//! Every function builds fresh kernels, drives the exact workload the
//! paper describes, and returns a [`Figure`] of simulated-time (or
//! count) series. The `figures` binary prints them; the workspace's
//! `tests/figures_shapes.rs` asserts the paper's qualitative claims
//! (who wins, slopes, crossovers) hold; EXPERIMENTS.md records the
//! numbers.

use o1_core::{FomConfig, FomKernel, MapMech};
use o1_hw::{CostModel, FrameNo, Machine, VirtAddr, WalkMode, PAGE_SIZE};
use o1_memfs::FileClass;
use o1_palloc::{
    BuddyAllocator, CryptoZero, EagerZero, ExtentAllocator, FrameSource, PhysExtent,
    SizeClassAllocator, ZeroPool,
};
use o1_vm::{
    Backing, BaselineConfig, BaselineKernel, MapFlags, MemSys, Prot, ReclaimPolicy, ThpMode,
};
use o1_workloads::{
    drive_access, drive_churn, drive_launch_storm, drive_launch_storm_migrating,
    drive_service_fleet, AccessPattern, Trace,
};

use crate::runner::SuiteScale;
use crate::series::{Figure, Series};

/// File sizes used by Figures 1a/1b (KB), matching the paper's x-axis
/// (4 KB – 1 MB) extended to 4 MB.
pub const FIG1_SIZES_KB: [u64; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Page counts used by Figure 2/7, matching the paper's x-axis.
pub const FIG2_PAGES: [u64; 9] = [1, 2, 16, 64, 256, 1024, 4096, 12288, 16384];

/// The baseline config every figure starts from: clock reclaim with
/// no free-memory watermark (no reclaim interference in figures), no
/// swap, no THP, no fault-around.
fn figure_config(dram_bytes: u64) -> BaselineConfig {
    BaselineConfig {
        dram_bytes,
        reclaim: ReclaimPolicy::Clock,
        low_watermark_frames: 0,
        swap_enabled: false,
        thp: ThpMode::Never,
        fault_around: 1,
    }
}

fn baseline(dram_bytes: u64) -> BaselineKernel {
    BaselineKernel::new(figure_config(dram_bytes))
}

fn fom(mech: MapMech, nvm_bytes: u64) -> FomKernel {
    FomKernel::new(FomConfig {
        dram_bytes: 16 << 20,
        nvm_bytes,
        mech,
    })
}

/// Measure one `mmap` of a tmpfs file of `pages` pages under the given
/// flags, on a fresh kernel with the given cost model.
fn mmap_cost(pages: u64, flags: MapFlags, cost: CostModel) -> u64 {
    let mut k = baseline((pages * PAGE_SIZE * 2).max(64 << 20));
    k.machine_mut().cost = cost;
    let id = k.create_file("f", pages * PAGE_SIZE).unwrap();
    let pid = k.create_process().unwrap();
    let t0 = k.machine().now();
    k.mmap(
        pid,
        pages * PAGE_SIZE,
        Prot::ReadWrite,
        Backing::File { id, offset: 0 },
        flags,
    )
    .unwrap();
    k.machine().now().since(t0)
}

/// **Figure 1a / 6a** — time of one `mmap()` of a tmpfs file,
/// MAP_POPULATE vs MAP_PRIVATE, plus the companion report's DAX
/// variant. Populate grows linearly; private is flat (≈8 µs tmpfs,
/// ≈15 µs DAX).
pub fn fig1a() -> Figure {
    let mut fig = Figure::new(
        "fig1a",
        "mmap() cost on a memory file system",
        "file size (KB)",
        "ns per mmap",
    );
    let mut s_priv = Series::new("tmpfs MAP_PRIVATE");
    let mut s_pop = Series::new("tmpfs MAP_POPULATE");
    let mut s_dpriv = Series::new("DAX MAP_PRIVATE");
    let mut s_dpop = Series::new("DAX MAP_POPULATE");
    for kb in FIG1_SIZES_KB {
        let pages = kb * 1024 / PAGE_SIZE;
        s_priv.push(
            kb,
            mmap_cost(pages, MapFlags::private(), CostModel::tmpfs_dram()) as f64,
        );
        s_pop.push(
            kb,
            mmap_cost(pages, MapFlags::private_populate(), CostModel::tmpfs_dram()) as f64,
        );
        s_dpriv.push(
            kb,
            mmap_cost(pages, MapFlags::private(), CostModel::dax_nvm()) as f64,
        );
        s_dpop.push(
            kb,
            mmap_cost(pages, MapFlags::private_populate(), CostModel::dax_nvm()) as f64,
        );
    }
    fig.series = vec![s_priv, s_pop, s_dpriv, s_dpop];
    fig
}

/// **Figure 1b / 6b** — total time to touch one byte of each page of a
/// mapped tmpfs file: demand faulting (MAP_PRIVATE) vs pre-populated
/// (MAP_POPULATE). The paper reports demand > 50x populated at large
/// sizes.
pub fn fig1b() -> Figure {
    let mut fig = Figure::new(
        "fig1b",
        "touching one byte per page of a mapped file",
        "file size (KB)",
        "total ns",
    );
    let mut s_demand = Series::new("demand (MAP_PRIVATE)");
    let mut s_around = Series::new("demand + fault-around(16)");
    let mut s_pop = Series::new("populated (MAP_POPULATE)");
    for kb in FIG1_SIZES_KB {
        let pages = kb * 1024 / PAGE_SIZE;
        for (series, flags, fault_around) in [
            (&mut s_demand, MapFlags::private(), 1u32),
            (&mut s_around, MapFlags::private(), 16),
            (&mut s_pop, MapFlags::private_populate(), 1),
        ] {
            let mut k = BaselineKernel::new(BaselineConfig {
                fault_around,
                ..figure_config((pages * PAGE_SIZE * 2).max(64 << 20))
            });
            let pid = k.create_process().unwrap();
            let id = k.create_file("f", pages * PAGE_SIZE).unwrap();
            let va = k
                .mmap(
                    pid,
                    pages * PAGE_SIZE,
                    Prot::ReadWrite,
                    Backing::File { id, offset: 0 },
                    flags,
                )
                .unwrap();
            let m =
                drive_access(&mut k, pid, va, pages, &AccessPattern::OnePerPage, 0, false).unwrap();
            series.push(kb, m.ns as f64);
        }
    }
    fig.series = vec![s_demand, s_around, s_pop];
    fig
}

/// **Figure 2 / 7** — time to allocate-and-touch N pages: anonymous
/// memory (malloc) vs a PMFS-style file, plus what file-only memory
/// achieves. The paper's finding: the file path costs no more than
/// malloc (malloc is ~6% *worse* at 12K pages because anonymous pages
/// must be zeroed).
pub fn fig2() -> Figure {
    let mut fig = Figure::new(
        "fig2",
        "allocating memory: anonymous vs through a file",
        "pages",
        "total ns (alloc + touch all pages)",
    );
    let mut s_anon = Series::new("malloc (MAP_ANON demand)");
    let mut s_file = Series::new("PMFS file (mmap demand)");
    let mut s_fom = Series::new("file-only memory (falloc)");
    for pages in FIG2_PAGES {
        let bytes = pages * PAGE_SIZE;
        // Anonymous.
        {
            let mut k = baseline((bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private(),
                )
                .unwrap();
            // Same accesses as the old per-page store loop; the cold
            // anonymous faults compress through the bulk-fault prover.
            k.access_span(pid, va, PAGE_SIZE as i64, pages, true, 0)
                .unwrap();
            s_anon.push(pages, k.machine().now().since(t0) as f64);
        }
        // File on a persistent-memory fs (page-granular mmap, like the
        // paper's PMFS experiment). PMFS allocates and zeroes blocks
        // at fallocate time, so the measured faults only map them.
        {
            let mut k = baseline((bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let id = k.create_file("f", bytes).unwrap();
            // fallocate-style setup: same frames in the same order as a
            // streaming write of zeros, without materializing the
            // buffer (setup runs before t0, so only the resulting file
            // state can influence the measured series).
            k.file_allocate(id, 0, bytes).unwrap();
            let t0 = k.machine().now();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::File { id, offset: 0 },
                    MapFlags::shared(),
                )
                .unwrap();
            k.access_span(pid, va, PAGE_SIZE as i64, pages, true, 0)
                .unwrap();
            s_file.push(pages, k.machine().now().since(t0) as f64);
        }
        // File-only memory.
        {
            let mut k = fom(MapMech::SharedPt, (bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            k.access_span(pid, va, PAGE_SIZE as i64, pages, true, 0)
                .unwrap();
            s_fom.push(pages, k.machine().now().since(t0) as f64);
        }
    }
    fig.series = vec![s_anon, s_file, s_fom];
    fig
}

/// **Figure 3 / 8** — shared mappings & physically based mappings:
/// cost for the i-th process to map the same 8 MiB file. The baseline
/// rebuilds every PTE per process; fom's shared/PBM variants pay the
/// per-page cost once and pointer-swing afterwards; ranges are O(1)
/// always.
pub fn fig3() -> Figure {
    let mut fig = Figure::new(
        "fig3",
        "mapping one 8 MiB file into the i-th process",
        "process #",
        "ns to map",
    );
    let bytes = 8 << 20;
    let nprocs = 8u64;
    // Baseline: each process populates its own page tables.
    let mut s_base = Series::new("baseline (per-process PTEs)");
    {
        let mut k = baseline(256 << 20);
        let id = k.create_file("shared", bytes).unwrap();
        // Pre-allocate the file's pages so every process measures pure
        // mapping cost, not first-touch allocation.
        k.file_write(id, 0, &vec![1u8; bytes as usize]).unwrap();
        for i in 1..=nprocs {
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            k.mmap(
                pid,
                bytes,
                Prot::ReadWrite,
                Backing::File { id, offset: 0 },
                MapFlags::shared_populate(),
            )
            .unwrap();
            s_base.push(i, k.machine().now().since(t0) as f64);
        }
    }
    // fom variants.
    for (label, mech) in [
        ("fom shared page tables", MapMech::SharedPt),
        ("fom physically based", MapMech::Pbm),
        ("fom range translations", MapMech::Ranges),
    ] {
        let mut s = Series::new(label);
        let mut k = fom(mech, 256 << 20);
        let setup = k.create_process().unwrap();
        k.create_named(setup, "/shared", bytes, FileClass::Persistent)
            .unwrap();
        for i in 1..=nprocs {
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            k.open_map(pid, "/shared", Prot::ReadWrite).unwrap();
            s.push(i, k.machine().now().since(t0) as f64);
        }
        fig.series.push(s);
    }
    fig.series.insert(0, s_base);
    fig
}

/// **Figures 4/5/9** — range translations: cost to map (and unmap) a
/// whole pre-existing file, by mechanism. One range entry maps any
/// length; page tables pay per entry.
pub fn fig4_map() -> Figure {
    let mut fig = Figure::new(
        "fig4_map",
        "mapping a whole file, by translation mechanism",
        "file size (KB)",
        "ns to map (map + unmap averaged)",
    );
    for (label, mech) in [
        ("page tables (4K+huge)", MapMech::PageTables),
        ("shared page tables", MapMech::SharedPt),
        ("range translations", MapMech::Ranges),
    ] {
        let mut s = Series::new(label);
        for kb in [64u64, 256, 1024, 4096, 16384, 65536, 262144] {
            let bytes = kb * 1024;
            let mut k = fom(mech, (bytes * 2).max(512 << 20));
            let setup = k.create_process().unwrap();
            k.create_named(setup, "/blob", bytes, FileClass::Persistent)
                .unwrap();
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            let (_, va) = k.open_map(pid, "/blob", Prot::ReadWrite).unwrap();
            k.unmap(pid, va).unwrap();
            s.push(kb, k.machine().now().since(t0) as f64 / 2.0);
        }
        fig.series.push(s);
    }
    fig
}

/// **Figures 4/5/9 (access half)** — average translation cost for
/// sparse random touches over a large mapped file: the range TLB
/// covers any file with one entry, so it never thrashes; the page TLB
/// does.
pub fn fig4_access() -> Figure {
    let mut fig = Figure::new(
        "fig4_access",
        "sparse random access to a mapped file (4096 touches)",
        "file size (KB)",
        "avg ns per access",
    );
    let touches = 4096u64;
    for (label, mech) in [
        ("page tables (4K+huge)", MapMech::PageTables),
        ("range translations", MapMech::Ranges),
    ] {
        let mut s = Series::new(label);
        for kb in [256u64, 1024, 4096, 16384, 65536, 262144] {
            let bytes = kb * 1024;
            let pages = bytes / PAGE_SIZE;
            let mut k = fom(mech, (bytes * 2).max(512 << 20));
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            let m = drive_access(
                &mut k,
                pid,
                va,
                pages,
                &AccessPattern::RandomUniform { count: touches },
                42,
                false,
            )
            .unwrap();
            s.push(kb, m.ns_per(touches));
        }
        fig.series.push(s);
    }
    fig
}

/// **Report figure: page-fault counts** — minor faults while touching
/// every page, demand vs populate vs file-only memory.
pub fn fig_faults() -> Figure {
    let mut fig = Figure::new(
        "fig_faults",
        "minor page faults while touching N pages",
        "pages",
        "faults",
    );
    let mut s_demand = Series::new("demand (MAP_PRIVATE)");
    let mut s_pop = Series::new("populated (MAP_POPULATE)");
    let mut s_fom = Series::new("file-only memory");
    for pages in [1u64, 2, 16, 64, 256, 1024, 4096, 16384] {
        let bytes = pages * PAGE_SIZE;
        for (series, flags) in [
            (&mut s_demand, MapFlags::private()),
            (&mut s_pop, MapFlags::private_populate()),
        ] {
            let mut k = baseline((bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let va = k
                .mmap(pid, bytes, Prot::ReadWrite, Backing::Anon, flags)
                .unwrap();
            let m =
                drive_access(&mut k, pid, va, pages, &AccessPattern::OnePerPage, 0, true).unwrap();
            series.push(pages, m.perf.minor_faults as f64);
        }
        let mut k = fom(MapMech::SharedPt, (bytes * 2).max(256 << 20));
        let pid = k.create_process().unwrap();
        let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
        let m = drive_access(&mut k, pid, va, pages, &AccessPattern::OnePerPage, 0, true).unwrap();
        s_fom.push(pages, m.perf.minor_faults as f64);
    }
    fig.series = vec![s_demand, s_pop, s_fom];
    fig
}

/// **In-text claim (§3.2/§4.3)** — `read()` of a 16 KB file vs
/// accessing the same data through a mapping. x is how many bytes the
/// program actually consumes: mapped access wins for sparse touches,
/// the bulk-copy `read()` path wins once the kernel's per-syscall cost
/// amortises over whole pages.
pub fn fig_read16k() -> Figure {
    let mut fig = Figure::new(
        "fig_read16k",
        "read() vs mapped access of a 16 KB file",
        "bytes consumed",
        "total ns",
    );
    let file_bytes = 16 * 1024u64;
    let pages = file_bytes / PAGE_SIZE;
    let mut s_read = Series::new("read() syscall");
    let mut s_map = Series::new("mapped (per-word loads)");
    let mut s_map_demand = Series::new("mapped, demand-faulted");
    for consume in [32u64, 256, 1024, 4096, 16384] {
        // read(): always copies whole pages covering the request.
        {
            let mut k = baseline(64 << 20);
            let id = k.create_file("f", file_bytes).unwrap();
            k.file_write(id, 0, &vec![7u8; file_bytes as usize])
                .unwrap();
            let mut buf = vec![0u8; consume as usize];
            let t0 = k.machine().now();
            k.file_read(id, 0, &mut buf).unwrap();
            s_read.push(consume, k.machine().now().since(t0) as f64);
        }
        // Mapped, pre-populated: per-word loads spread over the file.
        for (series, flags) in [
            (&mut s_map, MapFlags::shared_populate()),
            (&mut s_map_demand, MapFlags::shared()),
        ] {
            let mut k = baseline(64 << 20);
            let pid = k.create_process().unwrap();
            let id = k.create_file("f", file_bytes).unwrap();
            k.file_write(id, 0, &vec![7u8; file_bytes as usize])
                .unwrap();
            let va = k
                .mmap(
                    pid,
                    file_bytes,
                    Prot::Read,
                    Backing::File { id, offset: 0 },
                    flags,
                )
                .unwrap();
            let words = consume / 8;
            let stride = (file_bytes / 8) / words.max(1);
            let t0 = k.machine().now();
            for w in 0..words {
                k.load(pid, va + (w * stride.max(1)) * 8).unwrap();
            }
            series.push(consume, k.machine().now().since(t0) as f64);
        }
        let _ = pages;
    }
    fig.series = vec![s_read, s_map, s_map_demand];
    fig
}

/// **§2 in-text: metadata overhead** — bytes of memory-management
/// metadata for a machine of the given size: Linux `struct page`
/// (64 B / 4 KB frame) vs file-only memory (one bitmap bit per frame
/// plus per-extent records).
pub fn fig_meta() -> Figure {
    let mut fig = Figure::new(
        "fig_meta",
        "memory-management metadata footprint",
        "memory (GB)",
        "metadata bytes",
    );
    let mut s_page = Series::new("struct page (baseline)");
    let mut s_fom = Series::new("bitmap + extents (fom)");
    for gb in [1u64, 4, 16, 64, 256, 1024] {
        let frames = gb << 30 >> 12;
        s_page.push(gb, (frames * o1_vm::STRUCT_PAGE_BYTES) as f64);
        // Bitmap: measured from the real structure (1 bit per frame).
        let bitmap = o1_palloc::BitmapAllocator::new(PhysExtent::new(FrameNo(0), frames));
        // Extents: assume one 32-byte record per 64 MiB file on
        // average (measured extent-tree entry: key + PhysExtent).
        let extent_bytes = (frames / 16384).max(1) * 32;
        s_fom.push(gb, (bitmap.metadata_bytes() + extent_bytes) as f64);
    }
    fig.series = vec![s_page, s_fom];
    fig
}

/// **A-ZERO ablation** — foreground cost to deliver zeroed memory of a
/// given size: eager zeroing is O(n); a swept background pool and
/// crypto-erase are O(1).
pub fn fig_zero() -> Figure {
    let mut fig = Figure::new(
        "fig_zero",
        "foreground cost of zeroed allocation, by erase policy",
        "allocation (KB)",
        "ns on allocation path",
    );
    let mut s_eager = Series::new("eager zero");
    let mut s_pool = Series::new("background pool");
    let mut s_crypto = Series::new("crypto-erase");
    for kb in [4u64, 64, 1024, 16384, 262144, 1048576] {
        let frames = kb * 1024 / PAGE_SIZE;
        let span = PhysExtent::new(FrameNo(0), frames * 2);
        {
            let mut m = Machine::dram_only(span.bytes() * 2);
            let mut a = EagerZero::new(ExtentAllocator::new(span));
            let (_, ns) = m.timed(|m| a.alloc(m, frames).unwrap());
            s_eager.push(kb, ns as f64);
        }
        {
            let mut m = Machine::dram_only(span.bytes() * 2);
            let mut a = ZeroPool::new(ExtentAllocator::new(span));
            let (_, ns) = m.timed(|m| a.alloc(m, frames).unwrap());
            s_pool.push(kb, ns as f64);
        }
        {
            let mut m = Machine::dram_only(span.bytes() * 2);
            let mut a = CryptoZero::new(ExtentAllocator::new(span));
            let (_, ns) = m.timed(|m| a.alloc(m, frames).unwrap());
            s_crypto.push(kb, ns as f64);
        }
    }
    fig.series = vec![s_eager, s_pool, s_crypto];
    fig
}

/// **A-RECLAIM ablation** — cost to free ~25% of resident memory under
/// pressure: the baseline scans per page (clock), file-only memory
/// deletes whole discardable files.
pub fn fig_reclaim() -> Figure {
    let mut fig = Figure::new(
        "fig_reclaim",
        "freeing 25% of resident memory under pressure",
        "resident pages",
        "ns to reclaim",
    );
    let mut s_clock = Series::new("baseline clock scan + swap");
    let mut s_fom = Series::new("fom discardable-file delete");
    for resident in [1024u64, 4096, 16384, 65536] {
        let target = resident / 4;
        // Baseline: fill memory with touched anon pages, then force a
        // reclaim pass of `target` frames.
        {
            let mut k = BaselineKernel::new(BaselineConfig {
                swap_enabled: true,
                ..figure_config((resident + 64) * PAGE_SIZE)
            });
            let pid = k.create_process().unwrap();
            let va = k
                .mmap(
                    pid,
                    resident * PAGE_SIZE,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private(),
                )
                .unwrap();
            // One sequential write run per page (value p at page p),
            // identical to a per-page store loop; the cold faults
            // fast-forward through the bulk-fault prover.
            k.access_span(pid, va, PAGE_SIZE as i64, resident, true, 0)
                .unwrap();
            let t0 = k.machine().now();
            k.reclaim_until(target);
            s_clock.push(resident, k.machine().now().since(t0) as f64);
        }
        // fom: the same memory held as unreferenced discardable cache
        // files (16 of them), then reclaim the same number of frames.
        {
            let mut k = fom(MapMech::SharedPt, (resident + 64) * PAGE_SIZE);
            let pid = k.create_process().unwrap();
            let per_file = resident / 16;
            for i in 0..16 {
                let (_, va) = k
                    .create_named_discardable(pid, &format!("/cache/{i}"), per_file * PAGE_SIZE)
                    .unwrap();
                k.store(pid, va, i).unwrap();
                k.unmap(pid, va).unwrap();
            }
            let t0 = k.machine().now();
            let freed = k.reclaim_discardable(target);
            assert!(freed >= target, "reclaim must reach the target");
            s_fom.push(resident, k.machine().now().since(t0) as f64);
        }
    }
    fig.series = vec![s_clock, s_fom];
    fig
}

/// **A-ALLOC ablation** — physical allocation latency by allocator, as
/// a function of request size. Buddy pays per split level (and the
/// baseline calls it once *per page*); bitmap/extent are constant;
/// slab is constant for class-sized objects.
pub fn fig_palloc() -> Figure {
    let mut fig = Figure::new(
        "fig_palloc",
        "one contiguous physical allocation, by allocator",
        "request (pages)",
        "ns per allocation call",
    );
    let total = 1u64 << 20; // 4 GiB of frames
    let sizes = [1u64, 8, 64, 512, 4096, 32768, 262144];
    let mut s_buddy = Series::new("buddy (one block)");
    let mut s_buddy_pp = Series::new("buddy per-page (baseline loop)");
    let mut s_bitmap = Series::new("bitmap (next fit)");
    let mut s_extent = Series::new("extent (best fit)");
    let mut s_slab = Series::new("size-class slab");
    for pages in sizes {
        let span = PhysExtent::new(FrameNo(0), total);
        {
            let mut m = Machine::dram_only(1 << 30);
            let mut a = BuddyAllocator::new(span);
            let (_, ns) = m.timed(|m| a.alloc(m, pages).unwrap());
            s_buddy.push(pages, ns as f64);
        }
        {
            let mut m = Machine::dram_only(1 << 30);
            let mut a = BuddyAllocator::new(span);
            let (_, ns) = m.timed(|m| {
                for _ in 0..pages {
                    a.alloc_one(m).unwrap();
                }
            });
            s_buddy_pp.push(pages, ns as f64);
        }
        {
            let mut m = Machine::dram_only(1 << 30);
            let mut a = o1_palloc::BitmapAllocator::new(span);
            let (_, ns) = m.timed(|m| a.alloc(m, pages).unwrap());
            s_bitmap.push(pages, ns as f64);
        }
        {
            let mut m = Machine::dram_only(1 << 30);
            let mut a = ExtentAllocator::new(span);
            let (_, ns) = m.timed(|m| a.alloc(m, pages).unwrap());
            s_extent.push(pages, ns as f64);
        }
        {
            let mut m = Machine::dram_only(1 << 30);
            let mut a = SizeClassAllocator::new(ExtentAllocator::new(span), 6);
            // Warm the class so the fast path is measured.
            if pages <= 64 {
                let e = a.alloc(&mut m, pages).unwrap();
                a.free(&mut m, e);
            }
            let (_, ns) = m.timed(|m| a.alloc(m, pages).unwrap());
            s_slab.push(pages, ns as f64);
        }
    }
    fig.series = vec![s_buddy, s_buddy_pp, s_bitmap, s_extent, s_slab];
    fig
}

/// **A-PERSIST** — crash-recovery cost: O(files + extents), never
/// O(pages). Two sweeps: growing file *size* with file count fixed
/// (flat) and growing file *count* with size fixed (linear).
pub fn fig_persist() -> Figure {
    let mut fig = Figure::new(
        "fig_persist",
        "crash recovery time of the persistent-memory fs",
        "x (pages per file | file count)",
        "recovery ns",
    );
    let mut s_size = Series::new("16 files, growing size");
    for pages_per_file in [16u64, 64, 256, 1024, 4096] {
        let mut k = fom(
            MapMech::SharedPt,
            2 * 16 * pages_per_file * PAGE_SIZE + (64 << 20),
        );
        let pid = k.create_process().unwrap();
        for i in 0..16 {
            k.create_named(
                pid,
                &format!("/f{i}"),
                pages_per_file * PAGE_SIZE,
                FileClass::Persistent,
            )
            .unwrap();
        }
        let t0 = k.machine().now();
        let stats = k.crash_and_recover();
        assert_eq!(stats.persistent_files, 16);
        s_size.push(pages_per_file, k.machine().now().since(t0) as f64);
    }
    let mut s_count = Series::new("64-page files, growing count");
    for files in [16u64, 64, 256, 1024] {
        let mut k = fom(MapMech::SharedPt, 2 * files * 64 * PAGE_SIZE + (64 << 20));
        let pid = k.create_process().unwrap();
        for i in 0..files {
            k.create_named(
                pid,
                &format!("/f{i}"),
                64 * PAGE_SIZE,
                FileClass::Persistent,
            )
            .unwrap();
        }
        let t0 = k.machine().now();
        let stats = k.crash_and_recover();
        assert_eq!(stats.persistent_files, files);
        s_count.push(files, k.machine().now().since(t0) as f64);
    }
    fig.series = vec![s_size, s_count];
    fig
}

/// **Extension (§2's 5-level / virtualized translation)** — average
/// cost of a sparse random touch over a 64 MiB region as the hardware
/// walk deepens. Page-table misses scale with the walk depth (up to
/// the paper's "35 memory references"); range translations do not
/// walk page tables at all.
pub fn fig_virt() -> Figure {
    let mut fig = Figure::new(
        "fig_virt",
        "translation depth vs sparse-access cost (4096 touches / 64 MiB)",
        "walk references (4=native, 35=virtualized 5-level)",
        "avg ns per access",
    );
    let modes = [
        (WalkMode::Native4, 4u64),
        (WalkMode::Native5, 5),
        (WalkMode::Virtualized4, 24),
        (WalkMode::Virtualized5, 35),
    ];
    for (label, mech) in [
        ("page tables (4K+huge)", MapMech::PageTables),
        ("range translations", MapMech::Ranges),
    ] {
        let mut s = Series::new(label);
        for (mode, refs) in modes {
            let mut k = fom(mech, 256 << 20);
            k.set_walk_mode(mode);
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, 64 << 20, FileClass::Volatile).unwrap();
            let pages = (64 << 20) / PAGE_SIZE;
            let m = drive_access(
                &mut k,
                pid,
                va,
                pages,
                &AccessPattern::RandomUniform { count: 4096 },
                7,
                false,
            )
            .unwrap();
            s.push(refs, m.ns_per(4096));
        }
        fig.series.push(s);
    }
    fig
}

/// **A-THP ablation (§1's space-for-time trade)** — allocate-and-touch
/// one region per size: 4 KiB pages vs Linux-style THP vs the paper's
/// greedy-huge thought experiment. Time shrinks, waste appears — and
/// the residual time is dominated by zeroing, tying this to the O(1)-
/// erase section.
pub fn fig_thp() -> Figure {
    let mut fig = Figure::new(
        "fig_thp",
        "allocate-and-touch one region, by huge-page policy",
        "region (KB)",
        "total ns (waste in EXPERIMENTS.md)",
    );
    let mut s_base = Series::new("4K pages");
    let mut s_thp = Series::new("THP (aligned 2M)");
    let mut s_greedy = Series::new("greedy huge (rounds up)");
    let mut s_waste = Series::new("greedy waste (bytes)");
    for kb in [64u64, 300, 1024, 2048, 8192] {
        let bytes = kb * 1024;
        let pages = o1_hw::pages_for(bytes);
        for (series, thp, waste_series) in [
            (&mut s_base, ThpMode::Never, None),
            (&mut s_thp, ThpMode::Aligned2M, None),
            (&mut s_greedy, ThpMode::GreedyHuge, Some(&mut s_waste)),
        ] {
            let mut k = BaselineKernel::new(BaselineConfig {
                thp,
                ..figure_config((bytes * 4).max(64 << 20))
            });
            let pid = k.create_process().unwrap();
            let t0 = k.machine().now();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private(),
                )
                .unwrap();
            for p in 0..pages {
                k.store(pid, va + p * PAGE_SIZE, p).unwrap();
            }
            series.push(kb, k.machine().now().since(t0) as f64);
            if let Some(w) = waste_series {
                w.push(kb, k.space_overhead_bytes() as f64);
            }
        }
    }
    fig.series = vec![s_base, s_thp, s_greedy, s_waste];
    fig
}

/// **A-TEARDOWN ablation** — cost to unmap a fully-populated region:
/// the baseline walks every page; file-only memory tears down whole
/// files.
pub fn fig_teardown() -> Figure {
    let mut fig = Figure::new(
        "fig_teardown",
        "unmapping a fully-populated region",
        "region (KB)",
        "ns to unmap",
    );
    let mut s_base = Series::new("baseline munmap (per page)");
    let mut s_fom = Series::new("fom unmap (per extent)");
    let mut s_ranges = Series::new("fom unmap (range entry)");
    for kb in [256u64, 1024, 4096, 16384, 65536] {
        let bytes = kb * 1024;
        {
            let mut k = baseline((bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private_populate(),
                )
                .unwrap();
            let t0 = k.machine().now();
            k.munmap(pid, va, bytes).unwrap();
            s_base.push(kb, k.machine().now().since(t0) as f64);
        }
        for (series, mech) in [
            (&mut s_fom, MapMech::SharedPt),
            (&mut s_ranges, MapMech::Ranges),
        ] {
            let mut k = fom(mech, (bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            let t0 = k.machine().now();
            k.unmap(pid, va).unwrap();
            series.push(kb, k.machine().now().since(t0) as f64);
        }
    }
    fig.series = vec![s_base, s_fom, s_ranges];
    fig
}

/// **A-FRAG ablation (§2 "memory as storage")** — how free-space
/// fragmentation degrades O(1) mapping: the volume is filled
/// completely with files of one size, every other file is deleted
/// (leaving holes of exactly that size), then a 64 MiB file is
/// allocated. Extent count scales with 64 MiB / hole-size; cost scales
/// with extents — never with pages.
pub fn fig_frag() -> Figure {
    let mut fig = Figure::new(
        "fig_frag",
        "64 MiB allocation with fragmented free space (range mech)",
        "free-hole size (KB)",
        "extents | ns to falloc+map",
    );
    let mut s_extents = Series::new("extents in the new file");
    let mut s_ns = Series::new("falloc+map ns");
    for hole_kb in [1024u64, 4096, 16384, 65536] {
        let volume = 1u64 << 30;
        let mut k = fom(MapMech::Ranges, volume);
        let pid = k.create_process().unwrap();
        // Fill the volume completely, then delete every other file.
        let file_bytes = hole_kb * 1024;
        let n_files = volume / file_bytes;
        for i in 0..n_files {
            let (_, va) = k
                .create_named(
                    pid,
                    &format!("/fill/{i}"),
                    file_bytes,
                    FileClass::Persistent,
                )
                .unwrap();
            let _ = va;
        }
        for i in (0..n_files).step_by(2) {
            let va = k.mapping_base(pid, &format!("/fill/{i}")).unwrap();
            k.unmap(pid, va).unwrap();
            k.delete(&format!("/fill/{i}")).unwrap();
        }
        let t0 = k.machine().now();
        let (id, _) = k.falloc(pid, 64 << 20, FileClass::Volatile).unwrap();
        let ns = k.machine().now().since(t0);
        s_extents.push(hole_kb, k.pmfs.inode(id).unwrap().extent_count() as f64);
        s_ns.push(hole_kb, ns as f64);
    }
    fig.series = vec![s_extents, s_ns];
    fig
}

/// **Macro-benchmark** — a server-churn trace (allocs with skewed
/// sizes, frees, touches) replayed on every design. This is where the
/// journaling-elision optimisation for volatile files shows up: with
/// it, file-only memory beats the baseline even on alloc/free-heavy
/// traces where its per-file metadata costs would otherwise cancel
/// the fault savings.
pub fn fig_churn() -> Figure {
    let mut fig = Figure::new(
        "fig_churn",
        "server-churn trace, 5000 events over 32 slots",
        "max object size (pages)",
        "total ns to replay",
    );
    let mut s_base = Series::new("baseline");
    let mut s_shared = Series::new("fom shared page tables");
    let mut s_ranges = Series::new("fom range translations");
    for max_pages in [16u64, 64, 256] {
        let trace = Trace::server_churn(2026, 5000, 32, max_pages);
        {
            let mut k = baseline(1 << 30);
            let pid = k.create_process().unwrap();
            let (m, _) = trace.replay(&mut k, pid).unwrap();
            s_base.push(max_pages, m.ns as f64);
        }
        for (series, mech) in [
            (&mut s_shared, MapMech::SharedPt),
            (&mut s_ranges, MapMech::Ranges),
        ] {
            let mut k = fom(mech, 1 << 30);
            let pid = MemSys::create_process(&mut k).unwrap();
            let (m, _) = trace.replay(&mut k, pid).unwrap();
            series.push(max_pages, m.ns as f64);
        }
    }
    fig.series = vec![s_base, s_shared, s_ranges];
    fig
}

/// **Device I/O (§3.1 memory locking)** — DMA of a buffer to a
/// device: the baseline either pays per-page pinning first or eats
/// IOMMU faults; file-only memory is implicitly pinned.
pub fn fig_dma() -> Figure {
    let mut fig = Figure::new(
        "fig_dma",
        "DMA a buffer to a device, by preparation strategy",
        "buffer (KB)",
        "total ns (prep + transfer)",
    );
    let mut s_fault = Series::new("baseline, unpinned (IOMMU faults)");
    let mut s_pin = Series::new("baseline, pin + transfer + unpin");
    let mut s_fom = Series::new("fom (implicitly pinned)");
    for kb in [64u64, 512, 4096, 16384] {
        let bytes = kb * 1024;
        {
            let mut k = baseline((bytes * 2).max(128 << 20));
            let pid = k.create_process().unwrap();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private_populate(),
                )
                .unwrap();
            let mut dma = o1_hw::DmaEngine::new();
            let t0 = k.machine().now();
            k.dma_transfer(pid, va, bytes, &mut dma).unwrap();
            s_fault.push(kb, k.machine().now().since(t0) as f64);
        }
        {
            let mut k = baseline((bytes * 2).max(128 << 20));
            let pid = k.create_process().unwrap();
            let va = k
                .mmap(
                    pid,
                    bytes,
                    Prot::ReadWrite,
                    Backing::Anon,
                    MapFlags::private_populate(),
                )
                .unwrap();
            let mut dma = o1_hw::DmaEngine::new();
            let t0 = k.machine().now();
            k.pin_range(pid, va, bytes).unwrap();
            k.dma_transfer(pid, va, bytes, &mut dma).unwrap();
            k.unpin_range(pid, va, bytes).unwrap();
            s_pin.push(kb, k.machine().now().since(t0) as f64);
        }
        {
            let mut k = fom(MapMech::Ranges, (bytes * 2).max(128 << 20));
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            let mut dma = o1_hw::DmaEngine::new();
            let t0 = k.machine().now();
            k.dma_transfer(pid, va, bytes, &mut dma).unwrap();
            s_fom.push(kb, k.machine().now().since(t0) as f64);
        }
    }
    fig.series = vec![s_fault, s_pin, s_fom];
    fig
}

/// **Sweep figure** — 64 sequential read sweeps over a fully-resident
/// region, under the mapping mechanisms that map large regions
/// coarsely (2 MiB THP on the baseline, huge-page fom page tables,
/// fom range translations; the 4K-page baseline thrashes the TLB and
/// is already characterised by fig1b/fig_thp). After the first sweep
/// warms the TLB/RTLB, every access is a provably uniform translation
/// hit, so this figure is the showcase for the run-compressed
/// fast-forward engine: simulated results are byte-identical with
/// `--no-fastforward`, but host wall-clock collapses by the run
/// length (an entire 2 MiB page — or the whole region under ranges —
/// advances in one step).
pub fn fig_sweep() -> Figure {
    let mut fig = Figure::new(
        "fig_sweep",
        "64 sequential read sweeps over a resident region",
        "pages",
        "total ns (64 sweeps)",
    );
    const SWEEPS: u32 = 64;
    let pattern = AccessPattern::Sweep { sweeps: SWEEPS };
    let mut s_thp = Series::new("baseline THP (aligned 2M, populated)");
    let mut s_pt = Series::new("fom page tables");
    let mut s_ranges = Series::new("fom range translations");
    for pages in [4096u64, 16384, 65536] {
        let bytes = pages * PAGE_SIZE;
        {
            let mut k = BaselineKernel::new(BaselineConfig {
                thp: ThpMode::Aligned2M,
                ..figure_config((bytes * 2).max(256 << 20))
            });
            let pid = k.create_process().unwrap();
            let va = MemSys::alloc(&mut k, pid, bytes, true).unwrap();
            let m = drive_access(&mut k, pid, va, pages, &pattern, 0, false).unwrap();
            s_thp.push(pages, m.ns as f64);
        }
        for (series, mech) in [
            (&mut s_pt, MapMech::PageTables),
            (&mut s_ranges, MapMech::Ranges),
        ] {
            let mut k = fom(mech, (bytes * 2).max(256 << 20));
            let pid = k.create_process().unwrap();
            let (_, va) = k.falloc(pid, bytes, FileClass::Volatile).unwrap();
            let m = drive_access(&mut k, pid, va, pages, &pattern, 0, false).unwrap();
            series.push(pages, m.ns as f64);
        }
    }
    fig.series = vec![s_thp, s_pt, s_ranges];
    fig
}

/// **SMP figure** — the same launch-storm and churn workloads on 1 to
/// 64 simulated CPUs, work spread round-robin by the drivers.
/// Invalidations broadcast to exactly the CPUs whose TLBs cached the
/// dying ASID, so the two workloads split cleanly: launch storm keeps
/// every process on one CPU and stays *flat* on both systems (private
/// address spaces owe no IPIs, on any machine size), while churn runs
/// one address space across all CPUs — the baseline's per-page
/// invalidations each become a full broadcast and grow linearly with
/// the machine, while file-only memory's one-flush-per-unmap keeps
/// the SMP tax near constant. At `cpus = 1` both columns degenerate
/// to the uniprocessor numbers the other figures report (no IPIs are
/// ever charged).
pub fn fig_smp() -> Figure {
    let mut fig = Figure::new(
        "fig_smp",
        "launch storm + churn vs simulated CPU count",
        "CPUs",
        "total ns",
    );
    const STORM_PROCS: u32 = 48;
    const STORM_PAGES: u64 = 256;
    const CHURN_ROUNDS: u32 = 4;
    const CHURN_REGIONS: u32 = 48;
    const CHURN_PAGES: u64 = 64;
    let mut s_base_storm = Series::new("baseline launch storm");
    let mut s_fom_storm = Series::new("fom-ranges launch storm");
    let mut s_base_churn = Series::new("baseline churn");
    let mut s_fom_churn = Series::new("fom-ranges churn");
    for cpus in [1u32, 2, 4, 8, 16, 32, 64] {
        {
            let mut k = BaselineKernel::builder()
                .config(figure_config(1 << 30))
                .cpus(cpus)
                .build();
            let m = drive_launch_storm(&mut k, STORM_PROCS, STORM_PAGES).unwrap();
            s_base_storm.push(u64::from(cpus), m.ns as f64);
            let pid = k.create_process().unwrap();
            let m = drive_churn(&mut k, pid, CHURN_ROUNDS, CHURN_REGIONS, CHURN_PAGES).unwrap();
            s_base_churn.push(u64::from(cpus), m.ns as f64);
        }
        {
            let mut k = FomKernel::builder()
                .mech(MapMech::Ranges)
                .nvm(1 << 30)
                .cpus(cpus)
                .build();
            let m = drive_launch_storm(&mut k, STORM_PROCS, STORM_PAGES).unwrap();
            s_fom_storm.push(u64::from(cpus), m.ns as f64);
            let pid = MemSys::create_process(&mut k).unwrap();
            let m = drive_churn(&mut k, pid, CHURN_ROUNDS, CHURN_REGIONS, CHURN_PAGES).unwrap();
            s_fom_churn.push(u64::from(cpus), m.ns as f64);
        }
    }
    fig.series = vec![s_base_storm, s_fom_storm, s_base_churn, s_fom_churn];
    fig
}

/// The tiering workload: `TIER_OBJECTS` objects of `TIER_OBJ_PAGES`
/// pages each, touched with Zipf(`TIER_THETA`) popularity by object
/// rank, `TIER_ROUND_TOUCHES` touches per round for `TIER_ROUNDS`
/// rounds.
const TIER_OBJECTS: usize = 64;
const TIER_OBJ_PAGES: u64 = 16;
const TIER_ROUNDS: u32 = 10;
const TIER_ROUND_TOUCHES: u64 = 2048;
const TIER_THETA: f64 = 0.9;
/// Pages the OBASE migrator may move per background tick.
const TIER_TICK_BUDGET: u64 = 256;
/// DRAM (or fast-region) capacity as a percent of the working set.
const TIER_PCTS: [u64; 6] = [3, 6, 12, 25, 50, 100];

/// Touches per object for one round: `TIER_ROUND_TOUCHES` split
/// proportionally to Zipf weights `1/(rank+1)^theta`, remainder to
/// the hottest object. Object 0 is hottest, like
/// [`AccessPattern::ZipfHotCold`]'s ranking.
fn tier_counts() -> [u64; TIER_OBJECTS] {
    let w: Vec<f64> = (0..TIER_OBJECTS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(TIER_THETA))
        .collect();
    let total: f64 = w.iter().sum();
    let mut counts = [0u64; TIER_OBJECTS];
    let mut given = 0;
    for (i, c) in counts.iter_mut().enumerate() {
        *c = (TIER_ROUND_TOUCHES as f64 * w[i] / total) as u64;
        given += *c;
    }
    counts[0] += TIER_ROUND_TOUCHES - given;
    counts
}

/// Drive the tiering workload over per-object regions and return the
/// total *foreground* access time. `tick` runs between rounds (the
/// OBASE background migrator; a no-op elsewhere) — its cost lands in
/// the ledger but deliberately not in the returned number, which is
/// what an application thread would see.
fn tier_drive<S, F>(sys: &mut S, pid: o1_vm::Pid, vas: &[VirtAddr], mut tick: F) -> f64
where
    S: MemSys + ?Sized,
    F: FnMut(&mut S),
{
    let counts = tier_counts();
    let mut total = 0u64;
    for round in 0..TIER_ROUNDS {
        for (i, &va) in vas.iter().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            let pattern = AccessPattern::RandomUniform { count: counts[i] };
            let seed = u64::from(round) * TIER_OBJECTS as u64 + i as u64;
            let m = drive_access(sys, pid, va, TIER_OBJ_PAGES, &pattern, seed, false).unwrap();
            total += m.ns;
        }
        tick(sys);
    }
    total as f64
}

/// Allocate the tiering working set as one volatile file per object —
/// one pmfs extent each, so extent-granular placement sees real
/// object boundaries.
fn tier_objects(k: &mut FomKernel, pid: o1_vm::Pid) -> Vec<VirtAddr> {
    (0..TIER_OBJECTS)
        .map(|_| {
            let (_, va) = k
                .falloc(pid, TIER_OBJ_PAGES * PAGE_SIZE, FileClass::Volatile)
                .unwrap();
            va
        })
        .collect()
}

/// **Tiering figure** — foreground cost of the Zipf object workload
/// as restrictive-but-fast capacity grows, on one x-axis (percent of
/// the 4 MiB working set):
///
/// * **fom-obase**: the capacity is a DRAM pool; extents are born in
///   NVM and the background migrator promotes the hottest objects
///   between rounds. More DRAM → more of the Zipf mass served at
///   DRAM latency; the curve approaches the all-DRAM bound from
///   above and tracks it within ~2x once the pool holds the hot set
///   (~12% of the working set at theta = 0.9).
/// * **fom-utopia**: the capacity is hashed fast-region slots in
///   front of the same flexible page tables (all data stays in NVM).
///   More slots → fewer 4-level walks on the deliberately small
///   64-entry TLB. Translation savings, not placement savings: it
///   heads for the NVM memory-latency floor (direct-mapped conflicts
///   keep it a little above), never the DRAM bound.
/// * **fom-pt (all NVM)** and **baseline (all DRAM)**: flat
///   references — no capacity to sweep, pure page tables at each
///   tier's latency.
pub fn fig_tiering() -> Figure {
    let mut fig = Figure::new(
        "fig_tiering",
        "Zipf object workload vs DRAM / fast-region capacity",
        "capacity (% of 4 MiB working set)",
        "foreground access ns",
    );
    let ws_pages = TIER_OBJECTS as u64 * TIER_OBJ_PAGES;
    let ws_bytes = ws_pages * PAGE_SIZE;
    // Small page TLB (16 sets x 4 ways = 64 entries) for every kernel:
    // the 1024-page working set overflows it, so translation pressure
    // is visible and the same for all series.
    let tlb = (16usize, 4usize);

    // Flat references, measured once.
    let pt_nvm = {
        let mut k = FomKernel::builder()
            .mech(MapMech::PageTables)
            .nvm(64 << 20)
            .tlb(tlb.0, tlb.1)
            .build();
        let pid = MemSys::create_process(&mut k).unwrap();
        let vas = tier_objects(&mut k, pid);
        tier_drive(&mut k, pid, &vas, |_| {})
    };
    let base_dram = {
        let mut k = BaselineKernel::builder()
            .config(figure_config(64 << 20))
            .tlb(tlb.0, tlb.1)
            .build();
        let pid = k.create_process().unwrap();
        let vas: Vec<VirtAddr> = (0..TIER_OBJECTS)
            .map(|_| MemSys::alloc(&mut k, pid, TIER_OBJ_PAGES * PAGE_SIZE, true).unwrap())
            .collect();
        tier_drive(&mut k, pid, &vas, |_| {})
    };

    let mut s_obase = Series::new("fom-obase (DRAM pool)");
    let mut s_utopia = Series::new("fom-utopia (fast-region slots)");
    let mut s_pt = Series::new("fom-pt (all NVM)");
    let mut s_base = Series::new("baseline (all DRAM)");
    for pct in TIER_PCTS {
        {
            let mut k = FomKernel::builder()
                .mech(MapMech::Obase)
                .dram(ws_bytes * pct / 100)
                .nvm(64 << 20)
                .tlb(tlb.0, tlb.1)
                .build();
            let pid = MemSys::create_process(&mut k).unwrap();
            let vas = tier_objects(&mut k, pid);
            let ns = tier_drive(&mut k, pid, &vas, |k| {
                k.mechanism_tick(TIER_TICK_BUDGET);
            });
            s_obase.push(pct, ns);
        }
        {
            let slots = (ws_pages * pct / 100).next_power_of_two() as usize;
            let mut k = FomKernel::builder()
                .mech(MapMech::Utopia)
                .nvm(64 << 20)
                .tlb(tlb.0, tlb.1)
                .fast_region(slots)
                .build();
            let pid = MemSys::create_process(&mut k).unwrap();
            let vas = tier_objects(&mut k, pid);
            let ns = tier_drive(&mut k, pid, &vas, |_| {});
            s_utopia.push(pct, ns);
        }
        s_pt.push(pct, pt_nvm);
        s_base.push(pct, base_dram);
    }
    fig.series = vec![s_obase, s_utopia, s_pt, s_base];
    fig
}

/// Address-space sizes for the host-memory self-observation figure
/// (MiB mapped).
pub const HOSTMEM_SIZES_MIB: [u64; 4] = [16, 64, 256, 512];

/// **fig_hostmem** — the simulator observing itself: peak host heap
/// bytes spent to boot a kernel and map-and-populate an address space,
/// as counted by the `o1-obs` counting allocator. Per-page designs
/// (baseline PTEs, `struct page`, LRU lists) cost host memory linear
/// in the mapped bytes; extent-grained file-only memory stays flat —
/// the paper's O(1)-metadata claim measured on the *host* heap, not
/// just in simulated ns. Every series is zero when the `hostmem`
/// feature (and with it the counting allocator) is disabled.
///
/// The drive is populate-only — no loads or stores — so the numbers
/// cannot depend on the fast-forward engine and the figure stays
/// byte-identical under `--no-fastforward`.
pub fn fig_hostmem() -> Figure {
    let mut fig = Figure::new(
        "fig_hostmem",
        "host heap spent by the simulator per mapped address space",
        "mapped (MiB)",
        "peak host heap bytes",
    );
    fn drive(k: &mut impl MemSys, bytes: u64) {
        let pid = MemSys::create_process(k).unwrap();
        MemSys::alloc(k, pid, bytes, true).unwrap();
    }
    /// Peak additional live host bytes while `run` executes, measured
    /// against the live level at entry (the kernel is built *and*
    /// dropped inside, so successive points don't stack).
    fn peak_during(run: impl FnOnce()) -> f64 {
        o1_obs::hostmem::reset_peak();
        let live0 = o1_obs::hostmem::snapshot().live_bytes;
        run();
        o1_obs::hostmem::snapshot().peak_bytes.saturating_sub(live0) as f64
    }
    let mut s_base = Series::new("baseline (per-page kernel)");
    let mut s_pt = Series::new("fom page tables");
    let mut s_ranges = Series::new("fom extent ranges");
    for mib in HOSTMEM_SIZES_MIB {
        let bytes = mib << 20;
        s_base.push(
            mib,
            peak_during(|| drive(&mut baseline(bytes * 2), bytes)),
        );
        s_pt.push(
            mib,
            peak_during(|| drive(&mut fom(MapMech::PageTables, bytes * 2), bytes)),
        );
        s_ranges.push(
            mib,
            peak_during(|| drive(&mut fom(MapMech::Ranges, bytes * 2), bytes)),
        );
    }
    fig.series = vec![s_base, s_pt, s_ranges];
    fig
}

/// Tenant lifecycles the `fig_service` latency fleets stream at
/// [`SuiteScale::Full`], split 1:2:2 over baseline / fom-ranges /
/// fom-sharedpt (the two populate-only gauge fleets add another fifth
/// on top).
pub const SERVICE_TENANTS: u64 = 1_000_000;

/// The fleet size at [`SuiteScale::Smoke`]. It stays below the 65,535
/// launches that roll the ASID space over; the rollover path is
/// checked by `tests/fastforward_equiv.rs` instead.
pub const SERVICE_TENANTS_SMOKE: u64 = 10_000;

/// Concurrent tenants alive at once in every `fig_service` fleet.
pub const SERVICE_LIVE_CAP: usize = 256;

/// **fig_service** — a serverless launch fleet streamed through the
/// run-compressed API: ~1M short-lived tenants (monotonic pids,
/// Zipf(0.9)-skewed app popularity picking 2–8-page working sets,
/// mmap → fault → teardown churn with at most [`SERVICE_LIVE_CAP`]
/// alive). Reports per-tenant launch-latency percentiles (x = 50, 99,
/// 999) per mechanism, host-live gauges over populate-only fleets
/// (x = checkpoint 1–10, flat ⇔ host memory is O(live tenants), the
/// fig_hostmem claim under churn), and a launch-storm series over the
/// CPU count (x = CPUs) contrasting the home-CPU storm — flat by
/// construction, every teardown flush is local — with the
/// migration-heavy variant whose teardowns pay one remote shootdown
/// per CPU the tenant ran on.
pub fn fig_service(scale: SuiteScale) -> Figure {
    let mut fig = Figure::new(
        "fig_service",
        "serverless tenant fleet: launch latency, host footprint, storm migration",
        "percentile | checkpoint | CPUs",
        "ns | KiB | total ns",
    );
    let tenants = match scale {
        SuiteScale::Smoke => SERVICE_TENANTS_SMOKE,
        SuiteScale::Full => SERVICE_TENANTS,
    };
    const APPS: u64 = 4096;
    const THETA: f64 = 0.9;
    const SEED: u64 = 17;
    fn pctl(sorted: &[u64], per_mille: u64) -> f64 {
        sorted[((sorted.len() as u64 - 1) * per_mille / 1000) as usize] as f64
    }
    fn latency_series(label: &str, mut launch_ns: Vec<u64>) -> Series {
        launch_ns.sort_unstable();
        let mut s = Series::new(label);
        s.push(50, pctl(&launch_ns, 500));
        s.push(99, pctl(&launch_ns, 990));
        s.push(999, pctl(&launch_ns, 999));
        s
    }
    let service_baseline = |cpus: u32| {
        BaselineKernel::builder()
            .config(figure_config(64 << 20))
            .cpus(cpus)
            .build()
    };
    let service_fom = |mech: MapMech, cpus: u32| {
        FomKernel::builder()
            .mech(mech)
            .nvm(256 << 20)
            .cpus(cpus)
            .build()
    };
    // Latency fleets: the faulting path the bulk-fault prover
    // compresses; per-tenant ns are simulated clock deltas, so the
    // suite matrix's fast-forward-off run holds them byte-identical.
    let t_base = tenants / 5;
    let t_ranges = tenants * 2 / 5;
    let t_shared = tenants - t_base - t_ranges;
    let s_lat_base = {
        let mut k = service_baseline(4);
        let r = drive_service_fleet(
            &mut k,
            t_base,
            SERVICE_LIVE_CAP,
            APPS,
            THETA,
            SEED,
            false,
            |_| {},
        )
        .unwrap();
        latency_series("baseline launch latency (ns)", r.launch_ns)
    };
    let s_lat_ranges = {
        let mut k = service_fom(MapMech::Ranges, 4);
        let r = drive_service_fleet(
            &mut k,
            t_ranges,
            SERVICE_LIVE_CAP,
            APPS,
            THETA,
            SEED,
            false,
            |_| {},
        )
        .unwrap();
        latency_series("fom-ranges launch latency (ns)", r.launch_ns)
    };
    let s_lat_shared = {
        let mut k = service_fom(MapMech::SharedPt, 4);
        let r = drive_service_fleet(
            &mut k,
            t_shared,
            SERVICE_LIVE_CAP,
            APPS,
            THETA,
            SEED,
            false,
            |_| {},
        )
        .unwrap();
        latency_series("fom-sharedpt launch latency (ns)", r.launch_ns)
    };
    // Host-live gauges over populate-only fleets (no loads or stores,
    // so the sampled host bytes cannot depend on the fast-forward
    // engine — the fig_hostmem rule). A flat line is the claim: the
    // kernel's host heap tracks the ≤SERVICE_LIVE_CAP live tenants,
    // not the ever-growing total streamed through.
    fn gauge_series(label: &str, run: impl FnOnce(&mut Series)) -> Series {
        let mut s = Series::new(label);
        run(&mut s);
        s
    }
    let t_gauge = (tenants / 10).max(100);
    let s_gauge_base = gauge_series("baseline host live over churn (KiB)", |s| {
        let mut k = service_baseline(4);
        let live0 = o1_obs::hostmem::snapshot().live_bytes;
        let mut i = 0u64;
        drive_service_fleet(&mut k, t_gauge, SERVICE_LIVE_CAP, APPS, THETA, SEED, true, |_| {
            i += 1;
            let live = o1_obs::hostmem::snapshot().live_bytes;
            s.push(i, live.saturating_sub(live0) as f64 / 1024.0);
        })
        .unwrap();
    });
    let s_gauge_ranges = gauge_series("fom-ranges host live over churn (KiB)", |s| {
        let mut k = service_fom(MapMech::Ranges, 4);
        let live0 = o1_obs::hostmem::snapshot().live_bytes;
        let mut i = 0u64;
        drive_service_fleet(&mut k, t_gauge, SERVICE_LIVE_CAP, APPS, THETA, SEED, true, |_| {
            i += 1;
            let live = o1_obs::hostmem::snapshot().live_bytes;
            s.push(i, live.saturating_sub(live0) as f64 / 1024.0);
        })
        .unwrap();
    });
    // Storm-migration contrast over the CPU count.
    const STORM_PROCS: u32 = 16;
    const STORM_PAGES: u64 = 64;
    let mut s_storm_home = Series::new("baseline storm, home-CPU (total ns)");
    let mut s_storm_mig = Series::new("baseline storm, migrating (total ns)");
    let mut s_storm_mig_fom = Series::new("fom-ranges storm, migrating (total ns)");
    for cpus in [1u32, 2, 4, 8, 16] {
        let mut k = service_baseline(cpus);
        let m = drive_launch_storm(&mut k, STORM_PROCS, STORM_PAGES).unwrap();
        s_storm_home.push(u64::from(cpus), m.ns as f64);
        let mut k = service_baseline(cpus);
        let m = drive_launch_storm_migrating(&mut k, STORM_PROCS, STORM_PAGES).unwrap();
        s_storm_mig.push(u64::from(cpus), m.ns as f64);
        let mut k = service_fom(MapMech::Ranges, cpus);
        let m = drive_launch_storm_migrating(&mut k, STORM_PROCS, STORM_PAGES).unwrap();
        s_storm_mig_fom.push(u64::from(cpus), m.ns as f64);
    }
    fig.series = vec![
        s_lat_base,
        s_lat_ranges,
        s_lat_shared,
        s_gauge_base,
        s_gauge_ranges,
        s_storm_home,
        s_storm_mig,
        s_storm_mig_fom,
    ];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_private_flat_populate_linear() {
        let f = fig1a();
        let private = f.series("tmpfs MAP_PRIVATE").unwrap();
        let (first, last) = private.ends().unwrap();
        assert_eq!(first, last, "MAP_PRIVATE is O(1)");
        assert!((7_000.0..9_000.0).contains(&first), "≈8 µs, got {first}");
        let populate = f.series("tmpfs MAP_POPULATE").unwrap();
        let (p4, p4096) = populate.ends().unwrap();
        assert!(p4096 > 50.0 * p4, "populate is linear: {p4} → {p4096}");
        // Slope check: going 1 MiB → 4 MiB costs ≈ 3x the 1 MiB delta.
        let p1024 = populate.y_at(1024).unwrap();
        let slope_ratio = (p4096 - p4) / (p1024 - p4) / 4.0;
        assert!(
            (0.8..1.2).contains(&slope_ratio),
            "linear slope, got {slope_ratio}"
        );
        let dax = f.series("DAX MAP_PRIVATE").unwrap();
        assert!(
            (14_000.0..16_000.0).contains(&dax.ends().unwrap().0),
            "DAX ≈15 µs"
        );
    }

    #[test]
    fn fig1b_demand_exceeds_50x_at_1mb() {
        let f = fig1b();
        let demand = f
            .series("demand (MAP_PRIVATE)")
            .unwrap()
            .y_at(1024)
            .unwrap();
        let pop = f
            .series("populated (MAP_POPULATE)")
            .unwrap()
            .y_at(1024)
            .unwrap();
        assert!(
            demand > 50.0 * pop,
            "paper claims >50x: demand {demand} vs populated {pop}"
        );
    }

    #[test]
    fn fig2_file_competitive_with_malloc() {
        let f = fig2();
        let anon = f
            .series("malloc (MAP_ANON demand)")
            .unwrap()
            .y_at(12288)
            .unwrap();
        let file = f
            .series("PMFS file (mmap demand)")
            .unwrap()
            .y_at(12288)
            .unwrap();
        // Paper: malloc ≈6% more expensive at 12K pages.
        let ratio = anon / file;
        assert!(
            (1.0..1.2).contains(&ratio),
            "malloc/file ratio at 12K pages = {ratio:.3}, want ≈1.06"
        );
        let fomv = f
            .series("file-only memory (falloc)")
            .unwrap()
            .y_at(12288)
            .unwrap();
        assert!(fomv < file, "fom strictly improves on both");
    }

    #[test]
    fn fig3_sharers_pay_o1() {
        let f = fig3();
        let base = f.series("baseline (per-process PTEs)").unwrap();
        let shared = f.series("fom shared page tables").unwrap();
        // Baseline: every process pays roughly the same linear cost.
        let (b1, b8) = base.ends().unwrap();
        assert!(b8 > 0.5 * b1, "baseline never gets cheaper");
        // fom: process 2 is much cheaper than process 1 of baseline.
        let s2 = shared.y_at(2).unwrap();
        assert!(b1 > 20.0 * s2, "pointer swing: {b1} vs {s2}");
    }

    #[test]
    fn fig_faults_shapes() {
        let f = fig_faults();
        assert_eq!(
            f.series("demand (MAP_PRIVATE)")
                .unwrap()
                .y_at(16384)
                .unwrap(),
            16384.0
        );
        assert_eq!(
            f.series("populated (MAP_POPULATE)")
                .unwrap()
                .y_at(16384)
                .unwrap(),
            0.0
        );
        assert_eq!(
            f.series("file-only memory").unwrap().y_at(16384).unwrap(),
            0.0
        );
    }

    #[test]
    fn fig_zero_only_eager_scales() {
        let f = fig_zero();
        let (e4, e_big) = f.series("eager zero").unwrap().ends().unwrap();
        assert!(e_big > 1000.0 * e4);
        let (c4, c_big) = f.series("crypto-erase").unwrap().ends().unwrap();
        assert_eq!(c4, c_big, "crypto-erase is O(1)");
        let (p4, p_big) = f.series("background pool").unwrap().ends().unwrap();
        assert_eq!(p4, p_big, "pool allocation path is O(1)");
    }
}
