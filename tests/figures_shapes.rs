//! Shape assertions for every regenerated figure: the paper's
//! qualitative claims — who wins, slopes, crossovers — must hold on
//! the simulated data. These are the repository's "did we reproduce
//! the paper" tests; the exact numbers live in EXPERIMENTS.md.

use o1_bench::experiments as exp;

#[test]
fn fig1a_private_constant_populate_linear_dax_offset() {
    let f = exp::fig1a();
    let private = f.series("tmpfs MAP_PRIVATE").unwrap();
    // Flat: every point identical.
    let ys: Vec<f64> = private.points.iter().map(|&(_, y)| y).collect();
    assert!(ys.windows(2).all(|w| w[0] == w[1]), "MAP_PRIVATE flat");
    assert!(
        (7_000.0..9_000.0).contains(&ys[0]),
        "≈8 µs as measured in the paper"
    );
    // DAX constant offset ≈ 15 µs.
    let dax = f.series("DAX MAP_PRIVATE").unwrap().points[0].1;
    assert!((14_000.0..16_000.0).contains(&dax));
    // Populate linear: doubling the size roughly doubles the marginal cost.
    let pop = f.series("tmpfs MAP_POPULATE").unwrap();
    let base = pop.y_at(4).unwrap();
    let y1m = pop.y_at(1024).unwrap() - base;
    let y2m = pop.y_at(2048).unwrap() - base;
    let growth = y2m / y1m;
    assert!((1.8..2.2).contains(&growth), "linear growth, got {growth}");
}

#[test]
fn fig1b_demand_over_50x_populated() {
    let f = exp::fig1b();
    for kb in [256u64, 512, 1024, 2048, 4096] {
        let demand = f.series("demand (MAP_PRIVATE)").unwrap().y_at(kb).unwrap();
        let pop = f
            .series("populated (MAP_POPULATE)")
            .unwrap()
            .y_at(kb)
            .unwrap();
        assert!(
            demand > 50.0 * pop,
            "at {kb} KB: demand {demand} vs populated {pop} ({}x)",
            demand / pop
        );
    }
}

#[test]
fn fig2_file_allocation_competitive() {
    let f = exp::fig2();
    // The paper's headline: "using the file system to allocate memory
    // has little extra cost" — in fact malloc is slightly *worse*
    // (≈6% at 12K pages; our model lands ≈10%).
    for pages in [1024u64, 4096, 12288, 16384] {
        let anon = f
            .series("malloc (MAP_ANON demand)")
            .unwrap()
            .y_at(pages)
            .unwrap();
        let file = f
            .series("PMFS file (mmap demand)")
            .unwrap()
            .y_at(pages)
            .unwrap();
        let ratio = anon / file;
        assert!(
            (1.0..1.25).contains(&ratio),
            "at {pages} pages malloc/file = {ratio:.3}"
        );
    }
    // And the actual fom proposal beats both by an order of magnitude.
    let anon = f
        .series("malloc (MAP_ANON demand)")
        .unwrap()
        .y_at(16384)
        .unwrap();
    let fom = f
        .series("file-only memory (falloc)")
        .unwrap()
        .y_at(16384)
        .unwrap();
    assert!(anon > 8.0 * fom, "fom speedup: {}", anon / fom);
}

#[test]
fn fig3_first_mapper_linear_sharers_constant() {
    let f = exp::fig3();
    let base = f.series("baseline (per-process PTEs)").unwrap();
    // Baseline: every process pays the same linear cost.
    let b: Vec<f64> = base.points.iter().map(|&(_, y)| y).collect();
    assert!(b.windows(2).all(|w| (w[0] - w[1]).abs() / w[0] < 0.05));
    for label in [
        "fom shared page tables",
        "fom physically based",
        "fom range translations",
    ] {
        let s = f.series(label).unwrap();
        let later = s.y_at(2).unwrap();
        assert!(
            b[0] > 20.0 * later,
            "{label}: baseline {} vs sharer {later}",
            b[0]
        );
        // All sharers pay the same.
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        assert!(ys.windows(2).all(|w| w[0] == w[1]), "{label} constant");
    }
}

#[test]
fn fig4_ranges_map_flat_page_tables_grow() {
    let f = exp::fig4_map();
    let ranges = f.series("range translations").unwrap();
    let ys: Vec<f64> = ranges.points.iter().map(|&(_, y)| y).collect();
    assert!(ys.windows(2).all(|w| w[0] == w[1]), "range mapping is O(1)");
    // Page tables grow (huge pages help above 2 MiB, but 256 MiB still
    // costs more entries than 4 MiB).
    let pt = f.series("page tables (4K+huge)").unwrap();
    assert!(pt.y_at(262144).unwrap() > 2.0 * pt.y_at(4096).unwrap());
    // Sub-2MiB files pay per-4K: visible bump at 1 MiB.
    assert!(
        pt.y_at(1024).unwrap() > pt.y_at(4096).unwrap(),
        "alignment fallback"
    );
}

#[test]
fn fig4_access_rtlb_flat_tlb_degrades() {
    let f = exp::fig4_access();
    let ranges = f.series("range translations").unwrap();
    let (r_first, r_last) = ranges.ends().unwrap();
    assert!((r_last - r_first).abs() < 1.0, "rTLB never thrashes");
    let pt = f.series("page tables (4K+huge)").unwrap();
    let (_, p_last) = pt.ends().unwrap();
    assert!(
        p_last > r_last * 1.2,
        "page TLB degrades on huge sparse sets: {p_last} vs {r_last}"
    );
}

#[test]
fn fig_faults_linear_vs_zero() {
    let f = exp::fig_faults();
    let demand = f.series("demand (MAP_PRIVATE)").unwrap();
    for &(pages, faults) in &demand.points {
        assert_eq!(faults, pages as f64, "one fault per page");
    }
    for label in ["populated (MAP_POPULATE)", "file-only memory"] {
        let s = f.series(label).unwrap();
        assert!(s.points.iter().all(|&(_, y)| y == 0.0), "{label} faults");
    }
}

#[test]
fn fig_read16k_crossover() {
    let f = exp::fig_read16k();
    let read = f.series("read() syscall").unwrap();
    let mapped = f.series("mapped (per-word loads)").unwrap();
    // Sparse touches: mapping wins (no kernel crossing).
    assert!(mapped.y_at(32).unwrap() < read.y_at(32).unwrap());
    // Bulk consumption: the amortised kernel copy path wins — the
    // paper's "faster to read() 16KB than access mapped data".
    assert!(
        read.y_at(16384).unwrap() < mapped.y_at(16384).unwrap(),
        "read() wins at 16 KB"
    );
    // Demand-faulted mapped access loses to read() everywhere.
    let demand = f.series("mapped, demand-faulted").unwrap();
    assert!(read.y_at(16384).unwrap() < demand.y_at(16384).unwrap());
}

#[test]
fn fig_meta_two_orders_of_magnitude() {
    let f = exp::fig_meta();
    for gb in [1u64, 64, 1024] {
        let page = f
            .series("struct page (baseline)")
            .unwrap()
            .y_at(gb)
            .unwrap();
        let fom = f
            .series("bitmap + extents (fom)")
            .unwrap()
            .y_at(gb)
            .unwrap();
        assert!(
            page > 100.0 * fom,
            "at {gb} GB: {page} vs {fom} ({}x)",
            page / fom
        );
    }
}

#[test]
fn fig_zero_policies() {
    let f = exp::fig_zero();
    let eager = f.series("eager zero").unwrap();
    let (e0, e_last) = eager.ends().unwrap();
    assert!(e_last > 10_000.0 * e0, "eager is O(n)");
    for label in ["background pool", "crypto-erase"] {
        let s = f.series(label).unwrap();
        let (a, b) = s.ends().unwrap();
        assert_eq!(a, b, "{label} is O(1)");
    }
}

#[test]
fn fig_reclaim_scan_linear_discard_constant() {
    let f = exp::fig_reclaim();
    let clock = f.series("baseline clock scan + swap").unwrap();
    let (c0, c_last) = clock.ends().unwrap();
    assert!(c_last > 20.0 * c0, "clock reclaim scales with residency");
    let fom = f.series("fom discardable-file delete").unwrap();
    let (f0, f_last) = fom.ends().unwrap();
    assert_eq!(f0, f_last, "file discard is independent of residency");
    assert!(c_last > 1000.0 * f_last, "the gap at 64K pages is huge");
}

#[test]
fn fig_palloc_per_page_loop_is_the_outlier() {
    let f = exp::fig_palloc();
    let loop_series = f.series("buddy per-page (baseline loop)").unwrap();
    let (l0, l_last) = loop_series.ends().unwrap();
    assert!(l_last > 1000.0 * l0, "per-page allocation is linear");
    for label in ["bitmap (next fit)", "extent (best fit)"] {
        let s = f.series(label).unwrap();
        let (a, b) = s.ends().unwrap();
        assert_eq!(a, b, "{label} is O(1) in request size");
    }
}

#[test]
fn fig_virt_depth_hurts_page_tables_not_ranges() {
    let f = exp::fig_virt();
    let pt = f.series("page tables (4K+huge)").unwrap();
    // Deeper walks cost more, monotonically.
    let ys: Vec<f64> = pt.points.iter().map(|&(_, y)| y).collect();
    assert!(ys.windows(2).all(|w| w[0] < w[1]), "monotone in walk depth");
    // Virtualized 5-level (the paper's 35 references) at least doubles
    // the sparse-access cost.
    assert!(ys[3] > 2.0 * ys[0], "35-ref walks: {} vs {}", ys[3], ys[0]);
    // Range translations don't care.
    let r = f.series("range translations").unwrap();
    let (r0, r1) = r.ends().unwrap();
    assert_eq!(r0, r1, "ranges are independent of page-walk depth");
}

#[test]
fn fig_thp_space_for_time() {
    let f = exp::fig_thp();
    // At 8 MiB, THP beats 4K by a large factor.
    let base = f.series("4K pages").unwrap().y_at(8192).unwrap();
    let thp = f.series("THP (aligned 2M)").unwrap().y_at(8192).unwrap();
    assert!(base > 5.0 * thp, "THP at 8 MiB: {base} vs {thp}");
    // Greedy huge wins even for a 300 KB request — by paying 2 MiB.
    let b300 = f.series("4K pages").unwrap().y_at(300).unwrap();
    let g300 = f
        .series("greedy huge (rounds up)")
        .unwrap()
        .y_at(300)
        .unwrap();
    assert!(b300 > g300, "greedy wins at 300 KB: {b300} vs {g300}");
    let waste = f.series("greedy waste (bytes)").unwrap().y_at(300).unwrap();
    assert!(waste > 1_500_000.0, "and wastes ~1.7 MB: {waste}");
    // Aligned THP can't help a sub-2MiB region.
    let t300 = f.series("THP (aligned 2M)").unwrap().y_at(300).unwrap();
    assert_eq!(t300, b300, "THP falls back below 2 MiB");
}

#[test]
fn fig_teardown_linear_vs_constant() {
    let f = exp::fig_teardown();
    let base = f.series("baseline munmap (per page)").unwrap();
    let (b0, b_last) = base.ends().unwrap();
    assert!(b_last > 100.0 * b0, "per-page teardown is linear");
    let ranges = f.series("fom unmap (range entry)").unwrap();
    let (r0, r_last) = ranges.ends().unwrap();
    assert_eq!(r0, r_last, "range unmap is O(1)");
    let fomv = f.series("fom unmap (per extent)").unwrap();
    let worst = fomv.points.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
    assert!(
        b_last > 100.0 * worst,
        "fom teardown never scales with pages"
    );
}

#[test]
fn fig_frag_cost_is_per_extent() {
    let f = exp::fig_frag();
    let extents = f.series("extents in the new file").unwrap();
    let ns = f.series("falloc+map ns").unwrap();
    // Smaller holes → more extents → proportionally more cost.
    let (e_small, e_big) = extents.ends().unwrap();
    assert!(e_small > 20.0 * e_big, "1 MiB holes fragment the file");
    let (n_small, n_big) = ns.ends().unwrap();
    assert!(n_small > 5.0 * n_big, "cost follows extent count");
    // But even the worst case is far below per-page cost (16K pages
    // at ≈ 600 ns/page would be ~10 ms).
    assert!(
        n_small < 1_000_000.0,
        "still per-extent, not per-page: {n_small}"
    );
}

#[test]
fn fig1b_fault_around_helps_but_stays_linear() {
    let f = exp::fig1b();
    let demand = f.series("demand (MAP_PRIVATE)").unwrap();
    let around = f.series("demand + fault-around(16)").unwrap();
    let d = demand.y_at(4096).unwrap();
    let a = around.y_at(4096).unwrap();
    assert!(a < d / 2.0, "fault-around cuts trap overhead: {d} vs {a}");
    let (a0, a_last) = around.ends().unwrap();
    assert!(
        a_last > 100.0 * a0,
        "…but the per-page work is still linear: {a0} → {a_last}"
    );
}

#[test]
fn fig_churn_fom_wins_the_macro_trace() {
    let f = exp::fig_churn();
    for pages in [16u64, 64, 256] {
        let base = f.series("baseline").unwrap().y_at(pages).unwrap();
        let ranges = f
            .series("fom range translations")
            .unwrap()
            .y_at(pages)
            .unwrap();
        let shared = f
            .series("fom shared page tables")
            .unwrap()
            .y_at(pages)
            .unwrap();
        assert!(
            ranges < base,
            "ranges wins at {pages} pages: {ranges} vs {base}"
        );
        assert!(
            shared < base,
            "shared wins at {pages} pages: {shared} vs {base}"
        );
    }
}

#[test]
fn fig_dma_pinning_strategies() {
    let f = exp::fig_dma();
    for kb in [512u64, 16384] {
        let faulting = f
            .series("baseline, unpinned (IOMMU faults)")
            .unwrap()
            .y_at(kb)
            .unwrap();
        let pinned = f
            .series("baseline, pin + transfer + unpin")
            .unwrap()
            .y_at(kb)
            .unwrap();
        let fom = f
            .series("fom (implicitly pinned)")
            .unwrap()
            .y_at(kb)
            .unwrap();
        assert!(
            faulting > 10.0 * pinned,
            "IOMMU faults are the expensive path at {kb} KB"
        );
        assert!(
            pinned > fom,
            "explicit pinning costs more than implicit at {kb} KB"
        );
    }
}

#[test]
fn fig_persist_flat_in_size_linear_in_files() {
    let f = exp::fig_persist();
    let size = f.series("16 files, growing size").unwrap();
    let (s0, s_last) = size.ends().unwrap();
    assert!(
        s_last < 2.0 * s0,
        "recovery ≈ flat in file size: {s0} → {s_last}"
    );
    let count = f.series("64-page files, growing count").unwrap();
    let (c0, c_last) = count.ends().unwrap();
    assert!(
        c_last > 20.0 * c0,
        "recovery linear in file count: {c0} → {c_last}"
    );
}

#[test]
fn fig_sweep_linear_in_pages_and_ranges_cheapest_translation() {
    let f = exp::fig_sweep();
    for label in [
        "baseline THP (aligned 2M, populated)",
        "fom page tables",
        "fom range translations",
    ] {
        let s = f.series(label).unwrap();
        let (y0, y_last) = s.ends().unwrap();
        // 4096 → 65536 pages is 16x the accesses; warm sweeps are
        // translation hits, so total time scales linearly.
        let growth = y_last / y0;
        assert!(
            (15.0..17.0).contains(&growth),
            "{label}: linear in pages, got {growth}x"
        );
    }
    for pages in [4096u64, 16384, 65536] {
        let thp = f
            .series("baseline THP (aligned 2M, populated)")
            .unwrap()
            .y_at(pages)
            .unwrap();
        let pt = f.series("fom page tables").unwrap().y_at(pages).unwrap();
        let ranges = f
            .series("fom range translations")
            .unwrap()
            .y_at(pages)
            .unwrap();
        // Range translation never loses to huge-page walks on the
        // same data tier...
        assert!(
            ranges <= pt,
            "at {pages} pages: ranges {ranges} vs page tables {pt}"
        );
        // ...but fom keeps this working set in NVM, so DRAM-resident
        // THP wins on raw memory latency.
        assert!(
            thp < ranges,
            "at {pages} pages: THP-on-DRAM {thp} vs ranges-on-NVM {ranges}"
        );
    }
}

#[test]
fn fig_smp_churn_tax_linear_on_baseline_flat_on_fom() {
    let f = exp::fig_smp();
    // Launch storm: each process lives and dies on one CPU, so its
    // private ASID never triggers a remote IPI — flat on any machine
    // size, for both systems.
    for label in ["baseline launch storm", "fom-ranges launch storm"] {
        let s = f.series(label).unwrap();
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        assert!(
            ys.windows(2).all(|w| w[0] == w[1]),
            "{label}: private address spaces owe no SMP tax"
        );
    }
    // Churn: one address space spans every CPU, so the baseline's
    // per-page invalidation broadcasts grow with the machine...
    let base = f.series("baseline churn").unwrap();
    let (b0, b_last) = base.ends().unwrap();
    assert!(
        b_last > 5.0 * b0,
        "baseline shootdown tax grows with CPUs: {b0} → {b_last}"
    );
    // ...while fom's one-flush-per-unmap keeps the tax near constant.
    let fom = f.series("fom-ranges churn").unwrap();
    let (f0, f_last) = fom.ends().unwrap();
    assert!(
        f_last < 1.2 * f0,
        "fom SMP tax near constant: {f0} → {f_last}"
    );
    // And at every machine size fom stays an order cheaper.
    for &(x, b) in &base.points {
        let fy = fom.y_at(x).unwrap();
        assert!(b > 10.0 * fy, "at {x} CPUs: baseline {b} vs fom {fy}");
    }
}

#[test]
fn fig_tiering_obase_crosses_toward_dram_bound() {
    let f = exp::fig_tiering();
    let obase = f.series("fom-obase (DRAM pool)").unwrap();
    let utopia = f.series("fom-utopia (fast-region slots)").unwrap();
    let pt = f.series("fom-pt (all NVM)").unwrap();
    let dram = f.series("baseline (all DRAM)").unwrap();
    // The references are flat: nothing in them depends on the
    // capacity under sweep.
    for s in [pt, dram] {
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        assert!(
            ys.windows(2).all(|w| w[0] == w[1]),
            "{}: reference series is flat",
            s.label
        );
    }
    let floor = dram.points[0].1;
    let static_nvm = pt.points[0].1;
    // More DRAM never hurts: the obase curve is monotone down the
    // sweep, from ~2x the all-DRAM bound at a 3% pool to under 1.25x
    // with the whole working set promoted.
    let ys: Vec<f64> = obase.points.iter().map(|&(_, y)| y).collect();
    assert!(
        ys.windows(2).all(|w| w[1] < w[0]),
        "obase improves monotonically with DRAM: {ys:?}"
    );
    for &(pct, y) in &obase.points {
        assert!(
            y < static_nvm,
            "at {pct}%: obase {y} beats static NVM {static_nvm}"
        );
        assert!(
            y > floor,
            "at {pct}%: obase {y} above the DRAM bound {floor}"
        );
        if pct >= 6 {
            assert!(
                y < 2.0 * floor,
                "at {pct}%: obase {y} tracks all-DRAM {floor} within 2x"
            );
        }
    }
    // The hybrid fast region saves walks, not placement: it improves
    // with slots but stays on the NVM side of the gap.
    let (u_first, u_last) = utopia.ends().unwrap();
    assert!(
        u_last < u_first,
        "utopia improves with slots: {u_first} -> {u_last}"
    );
    assert!(
        u_last < static_nvm,
        "a working-set-sized fast region beats raw page tables"
    );
    assert!(
        u_last > 1.5 * floor,
        "translation alone cannot reach the DRAM bound"
    );
}

#[test]
fn fig_hostmem_baseline_linear_fom_flat() {
    if !o1_obs::hostmem::counting() {
        eprintln!("skipped: build without the obs `hostmem` feature");
        return;
    }
    let f = exp::fig_hostmem();
    // The paper's O(1) claim, measured on the simulator's own heap:
    // the baseline kernel's host footprint (PTEs, struct-page
    // metadata, rmap, LRU lists) grows with the mapped address space,
    // while fom's stays flat. 16 → 512 MiB is a 32x sweep.
    let base = f.series("baseline (per-page kernel)").unwrap();
    let (b0, b_last) = base.ends().unwrap();
    assert!(
        b_last > 10.0 * b0,
        "baseline host heap grows with the mapping: {b0} → {b_last}"
    );
    let ranges = f.series("fom extent ranges").unwrap();
    let (r0, r_last) = ranges.ends().unwrap();
    assert!(
        r_last < 5.0 * r0,
        "fom-ranges host heap ≈ flat over a 32x sweep: {r0} → {r_last}"
    );
    // fom page tables share one set of PTEs with the file, so they
    // also stay orders below the per-process baseline.
    let pt = f.series("fom page tables").unwrap();
    let (_, p_last) = pt.ends().unwrap();
    assert!(
        b_last > 100.0 * r_last && b_last > 100.0 * p_last,
        "at 512 MiB: baseline {b_last} vs fom {p_last} / {r_last}"
    );
    // Sanity: every point measured something.
    for s in [base, pt, ranges] {
        assert!(
            s.points.iter().all(|&(_, y)| y > 0.0),
            "{}: peaks recorded",
            s.label
        );
    }
}
