//! Access-pattern generators.
//!
//! Each pattern yields a deterministic (seeded) sequence of *page
//! indexes* into a region. The paper's central micro-benchmark —
//! "access one byte of each page of a file" — is [`AccessPattern::OnePerPage`];
//! the motivation section's "sparse access to large data sets" is
//! [`AccessPattern::Zipf`] or [`AccessPattern::RandomUniform`].

use o1_vm::AccessRun;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// A page-granular access pattern over a region of `pages` pages.
#[derive(Clone, Debug)]
pub enum AccessPattern {
    /// Touch each page once, in order (Figure 1b's loop).
    OnePerPage,
    /// Sequential sweep repeated `sweeps` times.
    Sweep {
        /// Number of passes over the region.
        sweeps: u32,
    },
    /// `count` uniform-random page touches.
    RandomUniform {
        /// Number of accesses.
        count: u64,
    },
    /// `count` Zipf-skewed touches (hot/cold working set).
    Zipf {
        /// Number of accesses.
        count: u64,
        /// Skew in (0, 1).
        theta: f64,
    },
    /// Strided touches: every `stride`-th page, wrapping, `count`
    /// times (TLB-hostile when the stride defeats locality).
    Strided {
        /// Pages skipped between accesses.
        stride: u64,
        /// Number of accesses.
        count: u64,
    },
    /// Hot/cold split: with probability `hot_pct`% the touch lands in
    /// the first `hot_fraction_pct`% of pages (caching workloads).
    HotCold {
        /// Number of accesses.
        count: u64,
        /// Percent of accesses that go to the hot set.
        hot_pct: u32,
        /// Percent of the region that is hot.
        hot_fraction_pct: u32,
    },
    /// `count` Zipf-skewed touches at *object* granularity: the region
    /// splits into `objects` equal clusters, an object's Zipf rank is
    /// its index (object 0, at the lowest page indexes, is hottest),
    /// and each touch lands uniformly inside the chosen object. This
    /// is the tiering workload: extent-granular placement policies see
    /// whole-object heat instead of scattered single-page heat.
    ZipfHotCold {
        /// Number of accesses.
        count: u64,
        /// Skew in (0, 1).
        theta: f64,
        /// Number of equal-sized objects the region divides into
        /// (clamped to the page count).
        objects: u64,
    },
}

/// Page span of object `obj` when `pages` pages split into `objects`
/// clusters: equal floors, remainder on the last object.
fn object_span(pages: u64, objects: u64, obj: u64) -> (u64, u64) {
    let size = pages / objects;
    let start = obj * size;
    let len = if obj == objects - 1 {
        pages - start
    } else {
        size
    };
    (start, len)
}

impl AccessPattern {
    /// Materialise the page-index sequence for a region of `pages`
    /// pages, deterministically from `seed`.
    pub fn generate(&self, pages: u64, seed: u64) -> Vec<u64> {
        assert!(pages > 0, "empty region");
        match *self {
            AccessPattern::OnePerPage => (0..pages).collect(),
            AccessPattern::Sweep { sweeps } => {
                (0..u64::from(sweeps)).flat_map(|_| 0..pages).collect()
            }
            AccessPattern::RandomUniform { count } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..count).map(|_| rng.random_range(0..pages)).collect()
            }
            AccessPattern::Zipf { count, theta } => {
                let z = Zipf::new(pages, theta);
                let mut rng = StdRng::seed_from_u64(seed);
                (0..count).map(|_| z.sample(&mut rng)).collect()
            }
            AccessPattern::Strided { stride, count } => {
                assert!(stride > 0, "zero stride");
                (0..count).map(|i| (i * stride) % pages).collect()
            }
            AccessPattern::HotCold {
                count,
                hot_pct,
                hot_fraction_pct,
            } => {
                assert!(hot_pct <= 100 && (1..=100).contains(&hot_fraction_pct));
                let hot_pages = (pages * u64::from(hot_fraction_pct) / 100).max(1);
                let mut rng = StdRng::seed_from_u64(seed);
                (0..count)
                    .map(|_| {
                        if rng.random_range(0..100u32) < hot_pct {
                            rng.random_range(0..hot_pages)
                        } else {
                            rng.random_range(0..pages)
                        }
                    })
                    .collect()
            }
            AccessPattern::ZipfHotCold {
                count,
                theta,
                objects,
            } => {
                let objects = objects.clamp(1, pages);
                let z = Zipf::new(objects, theta);
                let mut rng = StdRng::seed_from_u64(seed);
                (0..count)
                    .map(|_| {
                        let (start, len) = object_span(pages, objects, z.sample(&mut rng));
                        start + rng.random_range(0..len)
                    })
                    .collect()
            }
        }
    }

    /// Stream the page-index sequence of [`generate`](Self::generate)
    /// as run-length-encoded [`AccessRun`] chunks — the same accesses
    /// in the same order (concatenating the runs reproduces
    /// `generate` exactly; see the equivalence tests), but in O(1)
    /// peak memory regardless of access count. Sequential patterns
    /// compress analytically (`OnePerPage` is a single run, `Sweep`
    /// one run per pass, `Strided` one run per wrap-around); random
    /// patterns stream through a greedy arithmetic run-length encoder
    /// that still collapses repeats and local sequential stretches.
    pub fn runs(&self, pages: u64, seed: u64) -> RunIter {
        assert!(pages > 0, "empty region");
        let kind = match *self {
            AccessPattern::OnePerPage => RunIterKind::Sweep {
                pages,
                remaining: 1,
            },
            AccessPattern::Sweep { sweeps } => RunIterKind::Sweep {
                pages,
                remaining: u64::from(sweeps),
            },
            AccessPattern::Strided { stride, count } => {
                assert!(stride > 0, "zero stride");
                RunIterKind::Strided(StridedRuns {
                    pages,
                    eff: stride % pages,
                    cur: 0,
                    remaining: count,
                })
            }
            AccessPattern::RandomUniform { count } => RunIterKind::Rle(Rle::new(IndexSource {
                rng: StdRng::seed_from_u64(seed),
                dist: IndexDist::Uniform { pages },
                remaining: count,
            })),
            AccessPattern::Zipf { count, theta } => RunIterKind::Rle(Rle::new(IndexSource {
                rng: StdRng::seed_from_u64(seed),
                dist: IndexDist::Zipf(Zipf::new(pages, theta)),
                remaining: count,
            })),
            AccessPattern::HotCold {
                count,
                hot_pct,
                hot_fraction_pct,
            } => {
                assert!(hot_pct <= 100 && (1..=100).contains(&hot_fraction_pct));
                let hot_pages = (pages * u64::from(hot_fraction_pct) / 100).max(1);
                RunIterKind::Rle(Rle::new(IndexSource {
                    rng: StdRng::seed_from_u64(seed),
                    dist: IndexDist::HotCold {
                        pages,
                        hot_pages,
                        hot_pct,
                    },
                    remaining: count,
                }))
            }
            AccessPattern::ZipfHotCold {
                count,
                theta,
                objects,
            } => {
                let objects = objects.clamp(1, pages);
                RunIterKind::Rle(Rle::new(IndexSource {
                    rng: StdRng::seed_from_u64(seed),
                    dist: IndexDist::ZipfHotCold {
                        zipf: Zipf::new(objects, theta),
                        pages,
                        objects,
                    },
                    remaining: count,
                }))
            }
        };
        RunIter { kind }
    }

    /// Number of accesses this pattern performs on a region of
    /// `pages` pages.
    pub fn access_count(&self, pages: u64) -> u64 {
        match *self {
            AccessPattern::OnePerPage => pages,
            AccessPattern::Sweep { sweeps } => pages * u64::from(sweeps),
            AccessPattern::RandomUniform { count }
            | AccessPattern::Zipf { count, .. }
            | AccessPattern::Strided { count, .. }
            | AccessPattern::HotCold { count, .. }
            | AccessPattern::ZipfHotCold { count, .. } => count,
        }
    }
}

/// Concrete streaming iterator behind [`AccessPattern::runs`]: an
/// enum over per-pattern states instead of a boxed trait object, so
/// driver loops monomorphize and streaming a pattern performs no heap
/// allocation at all.
pub struct RunIter {
    kind: RunIterKind,
}

enum RunIterKind {
    /// `OnePerPage` (one pass) and `Sweep` (n passes): one full
    /// sequential run per remaining pass.
    Sweep {
        pages: u64,
        remaining: u64,
    },
    Strided(StridedRuns),
    Rle(Rle<IndexSource>),
}

impl Iterator for RunIter {
    type Item = AccessRun;

    fn next(&mut self) -> Option<AccessRun> {
        match &mut self.kind {
            RunIterKind::Sweep { pages, remaining } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                Some(AccessRun {
                    start_page: 0,
                    stride: 1,
                    len: *pages,
                })
            }
            RunIterKind::Strided(s) => s.next(),
            RunIterKind::Rle(r) => r.next(),
        }
    }
}

/// Seeded stream of page indexes for the random patterns — the same
/// draws in the same order as [`AccessPattern::generate`].
struct IndexSource {
    rng: StdRng,
    dist: IndexDist,
    remaining: u64,
}

enum IndexDist {
    Uniform {
        pages: u64,
    },
    Zipf(Zipf),
    HotCold {
        pages: u64,
        hot_pages: u64,
        hot_pct: u32,
    },
    ZipfHotCold {
        zipf: Zipf,
        pages: u64,
        objects: u64,
    },
}

impl Iterator for IndexSource {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(match &self.dist {
            IndexDist::Uniform { pages } => self.rng.random_range(0..*pages),
            IndexDist::Zipf(z) => z.sample(&mut self.rng),
            IndexDist::HotCold {
                pages,
                hot_pages,
                hot_pct,
            } => {
                if self.rng.random_range(0..100u32) < *hot_pct {
                    self.rng.random_range(0..*hot_pages)
                } else {
                    self.rng.random_range(0..*pages)
                }
            }
            IndexDist::ZipfHotCold {
                zipf,
                pages,
                objects,
            } => {
                let (start, len) = object_span(*pages, *objects, zipf.sample(&mut self.rng));
                start + self.rng.random_range(0..len)
            }
        })
    }
}

/// Analytic runs for `Strided`: the sequence `(i·stride) mod pages`
/// advances by `eff = stride mod pages` until it would cross `pages`,
/// so each maximal non-wrapping prefix is one arithmetic run. `eff == 0`
/// degenerates to a single stride-0 run on page 0.
struct StridedRuns {
    pages: u64,
    eff: u64,
    cur: u64,
    remaining: u64,
}

impl Iterator for StridedRuns {
    type Item = AccessRun;

    fn next(&mut self) -> Option<AccessRun> {
        if self.remaining == 0 {
            return None;
        }
        if self.eff == 0 {
            let run = AccessRun {
                start_page: self.cur,
                stride: 0,
                len: self.remaining,
            };
            self.remaining = 0;
            return Some(run);
        }
        let len = (self.pages - self.cur)
            .div_ceil(self.eff)
            .min(self.remaining);
        let run = AccessRun {
            start_page: self.cur,
            stride: self.eff as i64,
            len,
        };
        self.cur = (self.cur + len * self.eff) % self.pages;
        self.remaining -= len;
        Some(run)
    }
}

/// Greedy streaming arithmetic run-length encoder: fixes the stride at
/// the second element of each run and extends while consecutive
/// differences match, holding back at most one look-ahead element.
/// Concatenating the emitted runs reproduces the input exactly.
struct Rle<I: Iterator<Item = u64>> {
    inner: I,
    carry: Option<u64>,
}

impl<I: Iterator<Item = u64>> Rle<I> {
    fn new(inner: I) -> Self {
        Rle { inner, carry: None }
    }
}

impl<I: Iterator<Item = u64>> Iterator for Rle<I> {
    type Item = AccessRun;

    fn next(&mut self) -> Option<AccessRun> {
        let first = self.carry.take().or_else(|| self.inner.next())?;
        let mut run = AccessRun {
            start_page: first,
            stride: 0,
            len: 1,
        };
        let mut last = first;
        for e in self.inner.by_ref() {
            let diff = (e as i64).wrapping_sub(last as i64);
            if run.len == 1 {
                run.stride = diff;
            } else if diff != run.stride {
                self.carry = Some(e);
                break;
            }
            last = e;
            run.len += 1;
        }
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_per_page_touches_everything_once() {
        let seq = AccessPattern::OnePerPage.generate(64, 0);
        assert_eq!(seq.len(), 64);
        let unique: HashSet<u64> = seq.iter().copied().collect();
        assert_eq!(unique.len(), 64);
    }

    #[test]
    fn sweep_repeats() {
        let seq = AccessPattern::Sweep { sweeps: 3 }.generate(10, 0);
        assert_eq!(seq.len(), 30);
        assert_eq!(&seq[0..10], &seq[10..20]);
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let p = AccessPattern::RandomUniform { count: 1000 };
        let a = p.generate(100, 9);
        let b = p.generate(100, 9);
        assert_eq!(a, b, "same seed, same sequence");
        assert!(a.iter().all(|&i| i < 100));
        let c = p.generate(100, 10);
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn strided_wraps() {
        let seq = AccessPattern::Strided {
            stride: 7,
            count: 5,
        }
        .generate(10, 0);
        assert_eq!(seq, vec![0, 7, 4, 1, 8]);
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let p = AccessPattern::Zipf {
            count: 5000,
            theta: 0.95,
        };
        let seq = p.generate(1000, 3);
        assert!(seq.iter().all(|&i| i < 1000));
        let head = seq.iter().filter(|&&i| i < 10).count();
        assert!(head > 1000, "θ=0.95 concentrates: {head}/5000 in top 1%");
    }

    #[test]
    fn hot_cold_concentrates() {
        let p = AccessPattern::HotCold {
            count: 10_000,
            hot_pct: 90,
            hot_fraction_pct: 10,
        };
        let seq = p.generate(1000, 11);
        let hot_hits = seq.iter().filter(|&&i| i < 100).count();
        assert!(hot_hits > 8_000, "90% to the hot 10%: got {hot_hits}");
        assert!(seq.iter().any(|&i| i >= 100), "cold set still touched");
        assert!(seq.iter().all(|&i| i < 1000));
    }

    #[test]
    fn zipf_hot_cold_heat_is_object_clustered() {
        // 1000 pages, 10 objects of 100 pages: object 0 (pages 0..100)
        // must dominate, and its heat must spread across the whole
        // object rather than pile onto one page — the property
        // extent-granular tiering relies on.
        let p = AccessPattern::ZipfHotCold {
            count: 10_000,
            theta: 0.9,
            objects: 10,
        };
        let seq = p.generate(1000, 17);
        assert!(seq.iter().all(|&i| i < 1000));
        let obj0 = seq.iter().filter(|&&i| i < 100).count();
        assert!(obj0 > 3_000, "hottest object draws the bulk: {obj0}/10000");
        let touched: HashSet<u64> = seq.iter().filter(|&&i| i < 100).copied().collect();
        assert!(touched.len() > 60, "heat spreads inside the object");
        assert!(seq.iter().any(|&i| i >= 500), "cold objects still touched");
    }

    #[test]
    fn access_counts_match() {
        assert_eq!(AccessPattern::OnePerPage.access_count(42), 42);
        assert_eq!(AccessPattern::Sweep { sweeps: 2 }.access_count(10), 20);
        assert_eq!(
            AccessPattern::RandomUniform { count: 7 }.access_count(10),
            7
        );
    }

    fn all_variants() -> Vec<AccessPattern> {
        vec![
            AccessPattern::OnePerPage,
            AccessPattern::Sweep { sweeps: 3 },
            AccessPattern::RandomUniform { count: 2000 },
            AccessPattern::Zipf {
                count: 2000,
                theta: 0.9,
            },
            AccessPattern::Strided {
                stride: 7,
                count: 500,
            },
            AccessPattern::Strided {
                stride: 100,
                count: 500,
            },
            AccessPattern::Strided {
                stride: 1,
                count: 137,
            },
            // stride ≡ 0 (mod pages): every access hits page 0.
            AccessPattern::Strided {
                stride: 100,
                count: 64,
            },
            AccessPattern::HotCold {
                count: 2000,
                hot_pct: 90,
                hot_fraction_pct: 10,
            },
            AccessPattern::ZipfHotCold {
                count: 2000,
                theta: 0.9,
                objects: 16,
            },
            // More objects than pages: clamps to per-page objects.
            AccessPattern::ZipfHotCold {
                count: 500,
                theta: 0.5,
                objects: 1 << 20,
            },
        ]
    }

    #[test]
    fn runs_concatenated_equal_generate_for_every_variant() {
        for pattern in all_variants() {
            for pages in [1u64, 50, 100] {
                for seed in [0u64, 7, 12345] {
                    let expect = pattern.generate(pages, seed);
                    let mut got = Vec::with_capacity(expect.len());
                    for r in pattern.runs(pages, seed) {
                        assert!(r.len >= 1, "empty run from {pattern:?}");
                        for k in 0..r.len {
                            got.push(r.page(k));
                        }
                    }
                    assert_eq!(
                        got, expect,
                        "runs ≠ generate for {pattern:?} pages={pages} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn runs_total_len_equals_access_count() {
        for pattern in all_variants() {
            let pages = 64;
            let total: u64 = pattern.runs(pages, 9).map(|r| r.len).sum();
            assert_eq!(total, pattern.access_count(pages), "{pattern:?}");
        }
    }

    #[test]
    fn sequential_patterns_compress_to_o1_runs() {
        // The figure hot paths must stream O(1) runs, not O(n).
        assert_eq!(AccessPattern::OnePerPage.runs(1 << 20, 0).count(), 1);
        assert_eq!(
            AccessPattern::Sweep { sweeps: 8 }.runs(1 << 20, 0).count(),
            8
        );
        // Strided emits one run per wrap-around: gcd(7, pages)=1 ⇒ ≤ stride runs per full cycle.
        let n = AccessPattern::Strided {
            stride: 7,
            count: 1 << 20,
        }
        .runs(1 << 10, 0)
        .count();
        assert!(n <= (1 << 20) / ((1 << 10) / 7) + 2, "got {n} runs");
    }
}
