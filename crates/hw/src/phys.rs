//! Simulated physical memory.
//!
//! Models a machine with a DRAM tier at low physical addresses and a
//! (much larger) persistent NVM tier above it, as the paper's target
//! platforms are provisioned. Backing bytes are stored sparsely so a
//! multi-terabyte physical address space can be simulated on a laptop:
//! a frame consumes host memory only once it is written.
//!
//! A page-stride store run that rewrites one word in every frame of a
//! fully backed 64-frame chunk is kept as one pending *column* on the
//! chunk (in-frame offset, value at the chunk's first frame) instead
//! of 64 word stores; a later such run at the same offset replaces it
//! in O(1). Reads overlay the column, and any other operation on the
//! chunk first writes it into its frames ("settles" it). Its values are
//! never zero, so the settled backing is exactly what storing every
//! column word by word leaves.
//!
//! Persistence semantics: on a simulated power failure
//! ([`PhysicalMemory::crash`]), DRAM contents are lost; NVM contents
//! survive. This is the substrate for the paper's §"Persistence
//! management" experiments.

use crate::addr::{FrameNo, PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::fasthash::FastMap;

/// Frames per sparse chunk (must be a power of two). One chunk groups
/// 64 frames (256 KiB of simulated memory) behind a single map entry,
/// so a streaming workload pays one hash per 64 frames instead of one
/// per frame.
const CHUNK_FRAMES: u64 = 64;
const CHUNK_SHIFT: u32 = CHUNK_FRAMES.trailing_zeros();
/// Bytes of simulated memory one chunk covers.
const CHUNK_BYTES: u64 = CHUNK_FRAMES * PAGE_SIZE;
const CHUNK_BYTES_SHIFT: u32 = CHUNK_BYTES.trailing_zeros();

/// Reference page of zeros for the sparse zero-write fast path.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0u8; PAGE_SIZE as usize];

/// Word entries a frame can hold before its backing is promoted to a
/// fully materialized page.
const WORDS_MAX: usize = 4;

/// Backing for one simulated frame. Streaming store workloads write a
/// word or two per page; materializing a 4 KiB host page (one
/// allocation plus one host page fault per simulated frame) for each
/// of those would make the *host* cost of a fused N-page store run
/// linear in N with a large constant, so sparse word writes are kept
/// inline until a frame accumulates enough bytes to deserve a page.
#[derive(Debug)]
enum FrameBacking {
    /// Up to [`WORDS_MAX`] non-overlapping 8-byte writes into an
    /// otherwise-zero frame; `(byte_offset, value)` pairs, first
    /// `len` entries valid.
    Words(u8, [(u16, u64); WORDS_MAX]),
    /// Fully materialized page bytes.
    Full(Box<[u8]>),
}

impl FrameBacking {
    /// Materialized page bytes equivalent to this backing.
    fn to_page(&self) -> Box<[u8]> {
        let mut bytes = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        match self {
            FrameBacking::Words(n, words) => {
                for &(eo, v) in &words[..*n as usize] {
                    bytes[eo as usize..eo as usize + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
            FrameBacking::Full(b) => bytes.copy_from_slice(b),
        }
        bytes
    }

    /// Copy `[off, off+out.len())` of the frame into `out`.
    fn read_into(&self, off: usize, out: &mut [u8]) {
        match self {
            FrameBacking::Words(n, words) => {
                out.fill(0);
                for &(eo, v) in &words[..*n as usize] {
                    overlay_word(out, off, eo, v);
                }
            }
            FrameBacking::Full(bytes) => out.copy_from_slice(&bytes[off..off + out.len()]),
        }
    }
}

/// Copy the bytes of word `v` at frame offset `eo` that fall inside
/// `out`, which holds the frame's bytes from offset `off` on.
fn overlay_word(out: &mut [u8], off: usize, eo: u16, v: u64) {
    let eo = eo as usize;
    let s = eo.max(off);
    let e = (eo + 8).min(off + out.len());
    if s < e {
        out[s - off..e - off].copy_from_slice(&v.to_le_bytes()[s - eo..e - eo]);
    }
}

/// One group of up to [`CHUNK_FRAMES`] backed frames.
#[derive(Debug)]
struct Chunk {
    /// Backing for frame `chunk_base + i`; `None` reads as zero.
    frames: Box<[Option<FrameBacking>; CHUNK_FRAMES as usize]>,
    /// Number of `Some` entries (chunk is dropped at zero).
    backed: u32,
    /// Pending column `(off, first)`: frame `i` holds the word
    /// `first + i` at in-frame offset `off`, not yet written into
    /// `frames`. Only set while every frame is backed, and none of its
    /// 64 values is zero.
    column: Option<(u16, u64)>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            frames: Box::new([const { None }; CHUNK_FRAMES as usize]),
            backed: 0,
            column: None,
        }
    }

    /// Write the pending column, if any, into its frames.
    #[inline]
    fn settle(&mut self) {
        if let Some((off, first)) = self.column.take() {
            self.write_column(off, first);
        }
    }

    #[cold]
    #[inline(never)]
    fn write_column(&mut self, off: u16, first: u64) {
        for (v, slot) in (0..)
            .map(|i| first.wrapping_add(i))
            .zip(self.frames.iter_mut())
        {
            let fresh = write_word_slot(slot, off, v);
            debug_assert!(!fresh, "a column covers backed frames only");
        }
    }

    /// Bytes `[off, off + out.len())` of frame `i`, column included.
    fn read_into(&self, i: usize, off: usize, out: &mut [u8]) {
        match &self.frames[i] {
            Some(backing) => backing.read_into(off, out),
            None => out.fill(0),
        }
        if let Some((eo, first)) = self.column {
            overlay_word(out, off, eo, first.wrapping_add(i as u64));
        }
    }

    /// Store `v` at chunk byte offset `off` (inside one frame).
    /// Returns `true` iff the frame went from unbacked to backed.
    #[inline]
    fn store(&mut self, off: u64, v: u64) -> bool {
        let slot = &mut self.frames[(off >> PAGE_SHIFT) as usize];
        let newly_backed = write_word_slot(slot, (off & (PAGE_SIZE - 1)) as u16, v);
        if newly_backed {
            self.backed += 1;
        }
        newly_backed
    }
}

/// Apply one in-frame aligned word write to a slot, preferring a word
/// entry over materializing the page. Returns `true` iff the slot went
/// from unbacked to backed.
fn write_word_slot(slot: &mut Option<FrameBacking>, off: u16, v: u64) -> bool {
    match slot {
        None => {
            // Zeros into an unbacked frame are already there.
            if v == 0 {
                return false;
            }
            let mut words = [(0u16, 0u64); WORDS_MAX];
            words[0] = (off, v);
            *slot = Some(FrameBacking::Words(1, words));
            true
        }
        Some(FrameBacking::Full(bytes)) => {
            bytes[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
            false
        }
        Some(FrameBacking::Words(n, words)) => {
            for e in words[..*n as usize].iter_mut() {
                if e.0 == off {
                    e.1 = v;
                    return false;
                }
            }
            let overlap = words[..*n as usize]
                .iter()
                .any(|e| (i32::from(e.0) - i32::from(off)).abs() < 8);
            if !overlap {
                if v == 0 {
                    // Zeros into untouched bytes of the frame.
                    return false;
                }
                if (*n as usize) < WORDS_MAX {
                    words[*n as usize] = (off, v);
                    *n += 1;
                    return false;
                }
            }
            // Overlapping or overflowing: materialize and write through.
            let mut bytes = slot.as_ref().expect("checked Some").to_page();
            bytes[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
            *slot = Some(FrameBacking::Full(bytes));
            false
        }
    }
}

/// The chunk holding `frame`, created if absent, with its column
/// settled.
fn settled_chunk(chunks: &mut FastMap<u64, Chunk>, frame: u64) -> &mut Chunk {
    let chunk = chunks
        .entry(frame >> CHUNK_SHIFT)
        .or_insert_with(Chunk::new);
    chunk.settle();
    chunk
}

/// A frame's backing moved out of physical memory — the page image a
/// swap device stores. Moving the backing (instead of copying 4 KiB
/// through an intermediate buffer) keeps the host cost of swapping a
/// frame proportional to what was actually written into it.
#[derive(Debug, Default)]
pub struct FrameImage(Option<FrameBacking>);

impl FrameImage {
    /// Image holding a fully materialized page.
    ///
    /// # Panics
    /// Panics unless `bytes` is exactly one page.
    pub fn from_page(bytes: Box<[u8]>) -> FrameImage {
        assert_eq!(
            bytes.len() as u64,
            PAGE_SIZE,
            "frame images are whole pages"
        );
        FrameImage(Some(FrameBacking::Full(bytes)))
    }

    /// Materialized page bytes equivalent to this image.
    pub fn to_page(&self) -> Box<[u8]> {
        match &self.0 {
            Some(b) => b.to_page(),
            None => vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
        }
    }
}

/// Memory technology backing a physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MemTier {
    /// Volatile DRAM.
    Dram,
    /// Persistent byte-addressable memory (3D XPoint class).
    Nvm,
}

/// The machine's physical memory: a flat frame array split into a DRAM
/// tier and an NVM tier, with sparse copy-on-write-style backing.
#[derive(Debug)]
pub struct PhysicalMemory {
    dram_frames: u64,
    total_frames: u64,
    /// Chunked sparse backing store keyed by `frame >> CHUNK_SHIFT`;
    /// frames without backing read as zero. Keys are trusted
    /// fixed-width chunk numbers, so the fast hasher is safe — and
    /// backing-store layout can never leak into a simulated number.
    chunks: FastMap<u64, Chunk>,
    /// Total backed frames across all chunks.
    backed: usize,
}

impl PhysicalMemory {
    /// Create a physical memory with `dram_bytes` of DRAM followed by
    /// `nvm_bytes` of NVM. Sizes are rounded up to whole frames.
    ///
    /// # Panics
    /// Panics if the total size is zero.
    pub fn new(dram_bytes: u64, nvm_bytes: u64) -> Self {
        let dram_frames = dram_bytes.div_ceil(PAGE_SIZE);
        let nvm_frames = nvm_bytes.div_ceil(PAGE_SIZE);
        let total_frames = dram_frames + nvm_frames;
        assert!(total_frames > 0, "physical memory must be non-empty");
        PhysicalMemory {
            dram_frames,
            total_frames,
            chunks: FastMap::default(),
            backed: 0,
        }
    }

    /// The chunk holding `frame`, if any of its frames is backed.
    #[inline]
    fn chunk_of(&self, frame: u64) -> Option<&Chunk> {
        self.chunks.get(&(frame >> CHUNK_SHIFT))
    }

    /// Fully materialized backing bytes of `frame`, allocated (zeroed)
    /// on first touch; word-entry backing is promoted to a page.
    fn frame_bytes_mut(&mut self, frame: u64) -> &mut Box<[u8]> {
        let chunk = settled_chunk(&mut self.chunks, frame);
        let slot = &mut chunk.frames[(frame & (CHUNK_FRAMES - 1)) as usize];
        match slot {
            None => {
                *slot = Some(FrameBacking::Full(
                    vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                ));
                chunk.backed += 1;
                self.backed += 1;
            }
            Some(FrameBacking::Words(..)) => {
                let page = slot.as_ref().expect("checked Some").to_page();
                *slot = Some(FrameBacking::Full(page));
            }
            Some(FrameBacking::Full(_)) => {}
        }
        match slot {
            Some(FrameBacking::Full(bytes)) => bytes,
            _ => unreachable!("just materialized"),
        }
    }

    /// Total number of physical frames.
    #[inline]
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of DRAM frames (frame numbers `0..dram_frames`).
    #[inline]
    pub fn dram_frames(&self) -> u64 {
        self.dram_frames
    }

    /// Number of NVM frames (frame numbers `dram_frames..total`).
    #[inline]
    pub fn nvm_frames(&self) -> u64 {
        self.total_frames - self.dram_frames
    }

    /// First NVM frame number.
    #[inline]
    pub fn nvm_base(&self) -> FrameNo {
        FrameNo(self.dram_frames)
    }

    /// Tier of the given frame.
    ///
    /// # Panics
    /// Panics if the frame is out of range.
    #[inline]
    pub fn tier(&self, frame: FrameNo) -> MemTier {
        assert!(frame.0 < self.total_frames, "frame {frame:?} out of range");
        if frame.0 < self.dram_frames {
            MemTier::Dram
        } else {
            MemTier::Nvm
        }
    }

    /// True if `frame` is a valid frame number.
    #[inline]
    pub fn contains(&self, frame: FrameNo) -> bool {
        frame.0 < self.total_frames
    }

    /// Number of frames with host backing allocated (diagnostics).
    pub fn backed_frames(&self) -> usize {
        self.backed
    }

    /// Move the backing of `frame` out as a [`FrameImage`], leaving the
    /// frame reading as zero. Swap devices store the image directly, so
    /// evicting a sparse frame never materializes a host page.
    ///
    /// # Panics
    /// Panics if the frame is out of range.
    pub fn take_frame_image(&mut self, frame: FrameNo) -> FrameImage {
        assert!(frame.0 < self.total_frames, "frame {frame:?} out of range");
        let Some(chunk) = self.chunks.get_mut(&(frame.0 >> CHUNK_SHIFT)) else {
            return FrameImage(None);
        };
        chunk.settle();
        let img = chunk.frames[(frame.0 & (CHUNK_FRAMES - 1)) as usize].take();
        if img.is_some() {
            chunk.backed -= 1;
            self.backed -= 1;
            if chunk.backed == 0 {
                self.chunks.remove(&(frame.0 >> CHUNK_SHIFT));
            }
        }
        FrameImage(img)
    }

    /// Install `img` as the backing of `frame`, replacing whatever was
    /// there — the moved-image equivalent of writing a full page.
    ///
    /// # Panics
    /// Panics if the frame is out of range.
    pub fn put_frame_image(&mut self, frame: FrameNo, img: FrameImage) {
        assert!(frame.0 < self.total_frames, "frame {frame:?} out of range");
        let Some(backing) = img.0 else {
            self.take_frame_image(frame);
            return;
        };
        let chunk = settled_chunk(&mut self.chunks, frame.0);
        let slot = &mut chunk.frames[(frame.0 & (CHUNK_FRAMES - 1)) as usize];
        if slot.replace(backing).is_none() {
            chunk.backed += 1;
            self.backed += 1;
        }
    }

    /// Read `buf.len()` bytes starting at `pa`. Unwritten memory reads
    /// as zero. The read may cross frame boundaries.
    ///
    /// # Panics
    /// Panics if the range extends past the end of physical memory.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        self.check_range(pa, buf.len() as u64);
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> crate::addr::PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let take = usize::min(buf.len() - done, (PAGE_SIZE as usize) - off);
            let out = &mut buf[done..done + take];
            match self.chunk_of(frame) {
                Some(chunk) => chunk.read_into((frame & (CHUNK_FRAMES - 1)) as usize, off, out),
                None => out.fill(0),
            }
            done += take;
            addr += take as u64;
        }
    }

    /// Write `buf` starting at `pa`, allocating host backing as needed.
    ///
    /// # Panics
    /// Panics if the range extends past the end of physical memory.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) {
        self.check_range(pa, buf.len() as u64);
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> crate::addr::PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let take = usize::min(buf.len() - done, (PAGE_SIZE as usize) - off);
            let src = &buf[done..done + take];
            // Writing zeros to an unbacked frame is a no-op: unbacked
            // memory already reads as zero, so skipping the backing
            // allocation leaves every future read identical while a
            // zero-fill streaming write stays sparse on the host.
            if src == &ZERO_PAGE[..take]
                && self
                    .chunk_of(frame)
                    .is_none_or(|c| c.frames[(frame & (CHUNK_FRAMES - 1)) as usize].is_none())
            {
                done += take;
                addr += take as u64;
                continue;
            }
            let bytes = self.frame_bytes_mut(frame);
            bytes[off..off + take].copy_from_slice(src);
            done += take;
            addr += take as u64;
        }
    }

    /// Read a single `u64` at `pa` (little-endian), a convenience for
    /// word-granularity workloads.
    pub fn read_u64(&self, pa: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(pa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a single `u64` at `pa` (little-endian): the one-access
    /// case of [`write_run_u64`](Self::write_run_u64).
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        self.write_run_u64(pa, 0, 1, v);
    }

    /// Store `count` words: `first + k` (wrapping) at `pa + k·stride`
    /// bytes, in order of `k`, little-endian. Leaves exactly the
    /// backing (and `backed_frames`) that `count` single-word stores
    /// leave: a word into an otherwise-untouched frame is a sparse word
    /// entry, not a materialized page, a zero into an unbacked frame
    /// allocates nothing, and a frame already holding that word is
    /// updated in place. Each sparse chunk is looked up once for the
    /// stretch of accesses inside it; a stretch ends where the run
    /// leaves the chunk, reaches the end of memory, or has a word cross
    /// a frame edge.
    ///
    /// A stretch with stride `+PAGE_SIZE` that covers all 64 frames of
    /// a chunk whose frames are all backed, with no zero among its
    /// values, becomes the chunk's column in O(1) (see the module
    /// docs); any other stretch settles the chunk's column first.
    ///
    /// # Panics
    /// Panics at the first word that extends past the end of physical
    /// memory, with the words before it stored, as single-word stores
    /// would.
    pub fn write_run_u64(&mut self, pa: PhysAddr, stride: i64, count: u64, first: u64) {
        let end = self.total_frames * PAGE_SIZE;
        let mut k = 0;
        while k < count {
            let addr = PhysAddr(pa.0.wrapping_add_signed(stride.wrapping_mul(k as i64)));
            let chunk = if addr.0 <= end - 8 && addr.0 & (PAGE_SIZE - 1) <= PAGE_SIZE - 8 {
                self.chunks.get_mut(&(addr.0 >> CHUNK_BYTES_SHIFT))
            } else {
                None
            };
            let Some(chunk) = chunk else {
                self.write_word_outside_chunks(addr, first.wrapping_add(k));
                k += 1;
                continue;
            };
            let chunk_base = addr.0 & !(CHUNK_BYTES - 1);
            let mut off = addr.0 - chunk_base;
            // One word in every frame of a full chunk, none of them zero:
            // the chunk's column.
            let v0 = first.wrapping_add(k);
            if stride == PAGE_SIZE as i64
                && off < PAGE_SIZE
                && count - k >= CHUNK_FRAMES
                && chunk.backed == CHUNK_FRAMES as u32
                && v0.wrapping_neg() >= CHUNK_FRAMES
            {
                if chunk.column.is_some_and(|(o, _)| u64::from(o) != off) {
                    chunk.settle();
                }
                chunk.column = Some((off as u16, v0));
                k += CHUNK_FRAMES;
                continue;
            }
            chunk.settle();
            // The stretch: this word, then each next one that stays in
            // this chunk, below the end of memory and inside one frame.
            // An offset that wraps below zero fails the `last` bound.
            let last = (end - chunk_base).min(CHUNK_BYTES) - 8;
            loop {
                if chunk.store(off, first.wrapping_add(k)) {
                    self.backed += 1;
                }
                k += 1;
                off = off.wrapping_add_signed(stride);
                if k == count || off > last || off & (PAGE_SIZE - 1) > PAGE_SIZE - 8 {
                    break;
                }
            }
        }
    }

    /// A word that no chunk stretch stores: one that crosses a frame
    /// edge, lies past the end of memory (a panic), or goes to a frame
    /// whose chunk holds no backing yet (and so no column).
    #[cold]
    #[inline(never)]
    fn write_word_outside_chunks(&mut self, pa: PhysAddr, v: u64) {
        if pa.0 & (PAGE_SIZE - 1) > PAGE_SIZE - 8 {
            self.write(pa, &v.to_le_bytes());
            return;
        }
        self.check_range(pa, 8);
        // A zero into an unbacked frame is already there.
        if v != 0 {
            let chunk = self
                .chunks
                .entry(pa.0 >> CHUNK_BYTES_SHIFT)
                .or_insert_with(Chunk::new);
            if chunk.store(pa.0 & (CHUNK_BYTES - 1), v) {
                self.backed += 1;
            }
        }
    }

    /// Zero `frames` whole frames starting at `start`. Implemented by
    /// dropping backing (sparse zero) a chunk at a time, so it is cheap
    /// on the host: a whole chunk goes with its column, part of one
    /// settles the column first. The *simulated* cost is charged by the
    /// caller's zeroing policy.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn zero_frames(&mut self, start: FrameNo, frames: u64) {
        let end = start.0.checked_add(frames).expect("frame range overflow");
        assert!(end <= self.total_frames, "zero_frames out of range");
        let mut f = start.0;
        while f < end {
            let chunk_no = f >> CHUNK_SHIFT;
            let base = chunk_no << CHUNK_SHIFT;
            let stop = end.min(base + CHUNK_FRAMES);
            if stop - f == CHUNK_FRAMES {
                if let Some(chunk) = self.chunks.remove(&chunk_no) {
                    self.backed -= chunk.backed as usize;
                }
            } else if let Some(chunk) = self.chunks.get_mut(&chunk_no) {
                chunk.settle();
                for slot in &mut chunk.frames[(f - base) as usize..(stop - base) as usize] {
                    if slot.take().is_some() {
                        chunk.backed -= 1;
                        self.backed -= 1;
                    }
                }
                if chunk.backed == 0 {
                    self.chunks.remove(&chunk_no);
                }
            }
            f = stop;
        }
    }

    /// True if every byte of the frame is zero (diagnostic for erase
    /// policies and persistence tests).
    pub fn frame_is_zero(&self, frame: FrameNo) -> bool {
        assert!(self.contains(frame), "frame out of range");
        let Some(chunk) = self.chunk_of(frame.0) else {
            return true;
        };
        if chunk.column.is_some() {
            // A column word is never zero.
            return false;
        }
        match &chunk.frames[(frame.0 & (CHUNK_FRAMES - 1)) as usize] {
            None => true,
            Some(FrameBacking::Words(n, words)) => {
                words[..*n as usize].iter().all(|&(_, v)| v == 0)
            }
            Some(FrameBacking::Full(bytes)) => bytes.iter().all(|&b| b == 0),
        }
    }

    /// Simulate a power failure: DRAM contents are lost, NVM survives.
    /// A chunk that straddles the tiers settles its column first.
    pub fn crash(&mut self) {
        let dram = self.dram_frames;
        let mut dropped = 0usize;
        self.chunks.retain(|&chunk_no, chunk| {
            let base = chunk_no << CHUNK_SHIFT;
            if base + CHUNK_FRAMES <= dram {
                // Entirely volatile: the whole chunk is lost.
                dropped += chunk.backed as usize;
                return false;
            }
            if base < dram {
                // Straddles the tier boundary: lose the DRAM part.
                chunk.settle();
                for slot in &mut chunk.frames[..(dram - base) as usize] {
                    if slot.take().is_some() {
                        chunk.backed -= 1;
                        dropped += 1;
                    }
                }
            }
            chunk.backed > 0
        });
        self.backed -= dropped;
    }

    fn check_range(&self, pa: PhysAddr, len: u64) {
        let end = pa.0.checked_add(len).expect("physical range overflow");
        assert!(
            end <= self.total_frames * PAGE_SIZE,
            "physical access {pa:?}+{len} beyond end of memory"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysicalMemory {
        // 1 MiB DRAM + 4 MiB NVM.
        PhysicalMemory::new(1 << 20, 4 << 20)
    }

    #[test]
    fn geometry() {
        let m = mem();
        assert_eq!(m.dram_frames(), 256);
        assert_eq!(m.nvm_frames(), 1024);
        assert_eq!(m.total_frames(), 1280);
        assert_eq!(m.nvm_base(), FrameNo(256));
        assert_eq!(m.tier(FrameNo(0)), MemTier::Dram);
        assert_eq!(m.tier(FrameNo(255)), MemTier::Dram);
        assert_eq!(m.tier(FrameNo(256)), MemTier::Nvm);
        assert!(m.contains(FrameNo(1279)));
        assert!(!m.contains(FrameNo(1280)));
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = mem();
        let mut buf = [0xffu8; 32];
        m.read(PhysAddr(12345), &mut buf);
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(m.backed_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip_cross_frame() {
        let mut m = mem();
        // Write spanning a frame boundary.
        let pa = PhysAddr(PAGE_SIZE - 5);
        let data: Vec<u8> = (0..13u8).collect();
        m.write(pa, &data);
        let mut out = vec![0u8; 13];
        m.read(pa, &mut out);
        assert_eq!(out, data);
        assert_eq!(m.backed_frames(), 2);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = mem();
        m.write_u64(PhysAddr(64), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr(64)), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr(128)), 0);
    }

    #[test]
    fn zeroing_clears_and_releases() {
        let mut m = mem();
        m.write(PhysAddr(0), &[1, 2, 3]);
        assert!(!m.frame_is_zero(FrameNo(0)));
        m.zero_frames(FrameNo(0), 1);
        assert!(m.frame_is_zero(FrameNo(0)));
        assert_eq!(m.backed_frames(), 0);
    }

    #[test]
    fn crash_loses_dram_keeps_nvm() {
        let mut m = mem();
        m.write(PhysAddr(0), b"volatile");
        let nvm_pa = m.nvm_base().base();
        m.write(nvm_pa, b"persistent");
        m.crash();
        let mut buf = [0u8; 10];
        m.read(PhysAddr(0), &mut buf[..8]);
        assert_eq!(&buf[..8], &[0u8; 8], "DRAM must be lost");
        m.read(nvm_pa, &mut buf);
        assert_eq!(&buf, b"persistent");
    }

    #[test]
    fn terabyte_scale_is_sparse() {
        // 16 GiB DRAM + 2 TiB NVM must not allocate host memory.
        let mut m = PhysicalMemory::new(16 << 30, 2 << 40);
        assert_eq!(m.total_frames(), (16u64 << 30) / 4096 + (2u64 << 40) / 4096);
        let last = PhysAddr((m.total_frames() - 1) * PAGE_SIZE);
        m.write_u64(last, 7);
        assert_eq!(m.read_u64(last), 7);
        assert_eq!(m.backed_frames(), 1);
    }

    /// A backed frame's word entries, or its page bytes.
    type Contents = Result<Vec<(u16, u64)>, Box<[u8]>>;

    /// Every backed frame, in frame order, with its column settled: its
    /// word entries or its page bytes. Also checks each chunk's count,
    /// that no chunk is empty and that a column covers a full chunk.
    fn backing(m: &PhysicalMemory) -> Vec<(u64, Contents)> {
        let mut m = copy(m);
        for chunk in m.chunks.values_mut() {
            if let Some((_, first)) = chunk.column {
                assert_eq!(
                    chunk.backed as u64, CHUNK_FRAMES,
                    "column on a partial chunk"
                );
                assert!(first.wrapping_neg() >= CHUNK_FRAMES, "column holds a zero");
            }
            chunk.settle();
        }
        let mut out = Vec::new();
        let mut chunk_nos: Vec<u64> = m.chunks.keys().copied().collect();
        chunk_nos.sort_unstable();
        for no in chunk_nos {
            let chunk = &m.chunks[&no];
            let some = chunk.frames.iter().filter(|s| s.is_some()).count();
            assert_eq!(chunk.backed as usize, some, "chunk {no} miscounts");
            assert!(some > 0, "chunk {no} is empty but kept");
            for (i, slot) in chunk.frames.iter().enumerate() {
                let frame = (no << CHUNK_SHIFT) + i as u64;
                match slot {
                    None => {}
                    Some(FrameBacking::Words(n, w)) => {
                        out.push((frame, Ok(w[..*n as usize].to_vec())))
                    }
                    Some(FrameBacking::Full(b)) => out.push((frame, Err(b.clone()))),
                }
            }
        }
        assert_eq!(m.backed_frames(), out.len(), "backed_frames miscounts");
        out
    }

    /// Every byte of `[lo, hi)`.
    fn bytes(m: &PhysicalMemory, lo: u64, hi: u64) -> Vec<u8> {
        let mut b = vec![0u8; (hi - lo) as usize];
        m.read(PhysAddr(lo), &mut b);
        b
    }

    /// Prior contents: frame `f` of the first `frames` holds `f % 6`
    /// words (0 = unbacked, 5 = a full page), at offsets that some
    /// runs below hit exactly, overlap, or miss.
    fn populated(dram: u64, nvm: u64, frames: u64) -> PhysicalMemory {
        let mut m = PhysicalMemory::new(dram, nvm);
        for f in 0..frames {
            let base = f * PAGE_SIZE;
            match f % 6 {
                0 => {}
                5 => m.write(PhysAddr(base + 100), &[0xa5; 300]),
                n => {
                    for w in 0..n {
                        m.write_u64(PhysAddr(base + w * 24), 0x1000 + f * 8 + w);
                    }
                }
            }
        }
        m
    }

    /// A run store leaves the backing that `count` single-word stores
    /// leave, and the bytes the byte path leaves.
    fn check_run(m: &PhysicalMemory, pa: u64, stride: i64, count: u64, first: u64) {
        let (mut run, mut per_word, mut per_byte) = (copy(m), copy(m), copy(m));
        run.write_run_u64(PhysAddr(pa), stride, count, first);
        for k in 0..count {
            let a = PhysAddr(pa.wrapping_add_signed(stride * k as i64));
            per_word.write_u64(a, first.wrapping_add(k));
            per_byte.write(a, &first.wrapping_add(k).to_le_bytes());
        }
        let what = format!("run at {pa:#x} stride {stride} x {count} from {first}");
        assert_eq!(backing(&run), backing(&per_word), "{what}");
        assert_eq!(run.backed_frames(), per_byte.backed_frames(), "{what}");
        let end = m.total_frames() * PAGE_SIZE;
        assert!(
            bytes(&run, 0, end) == bytes(&per_byte, 0, end),
            "{what}: bytes differ"
        );
        run.crash();
        per_word.crash();
        assert_eq!(backing(&run), backing(&per_word), "{what}, after a crash");
    }

    /// A deep copy of `m`, backing included.
    fn copy(m: &PhysicalMemory) -> PhysicalMemory {
        let chunks = m
            .chunks
            .iter()
            .map(|(&no, c)| {
                let frames = Box::new(c.frames.each_ref().map(|slot| match slot {
                    None => None,
                    Some(FrameBacking::Words(n, w)) => Some(FrameBacking::Words(*n, *w)),
                    Some(FrameBacking::Full(b)) => Some(FrameBacking::Full(b.clone())),
                }));
                let (backed, column) = (c.backed, c.column);
                (
                    no,
                    Chunk {
                        frames,
                        backed,
                        column,
                    },
                )
            })
            .collect();
        PhysicalMemory { chunks, ..*m }
    }

    #[test]
    fn run_store_matches_single_word_stores() {
        let m = populated(1 << 20, 4 << 20, 400);
        let p = PAGE_SIZE;
        let p_i = PAGE_SIZE as i64;
        for (pa, stride, count, first) in [
            // Page strides over unbacked, 1-4-word and full frames,
            // hitting existing entries exactly (offset 0, 24, 48, 72).
            (0, p_i, 300, 1),
            (24, p_i, 300, 9),
            (48, p_i, 300, 1 << 40),
            (72, p_i, 300, 5),
            // Offsets that overlap existing entries (materialize).
            (20, p_i, 120, 3),
            (104, p_i, 30, 3),
            // Zero values: the first word, into every kind of frame.
            (0, p_i, 12, 0),
            (8, 2 * p_i, 12, 0),
            // Zero stride: one word, rewritten.
            (p * 7 + 16, 0, 9, 1),
            (p * 6 + 16, 0, 3, 0),
            // Negative strides, across chunk edges.
            (p * 300 + 40, -p_i, 300, 2),
            (p * 130 + 8, -3 * p_i, 40, 0),
            // Sub-page strides: many words per frame, some crossing.
            (0, 8, 1200, 1),
            (4, 24, 700, 1),
            (3, 12, 900, 0),
            (p * 64 - 40, 4093, 20, 1),
            // Every word crosses a frame edge.
            (p - 4, p_i, 100, 1),
            (p * 64 - 1, p_i, 3, 0),
            // Chunk edges: the last word of one chunk and the first of
            // the next, both ways.
            (p * 64 - 8, 8, 2, 1),
            (p * 64, -8, 2, 1),
            (p * 63 + 4088, p_i, 3, 1),
            // The DRAM/NVM edge (frame 256) and the end of memory.
            (p * 250 + 64, p_i, 12, 1),
            (p * 1280 - 8, -p_i, 10, 1),
            (p * 1279 + 4088, 0, 1, 5),
            // A large stride: one word per chunk.
            (16, 64 * p_i, 20, 1),
        ] {
            check_run(&m, pa, stride, count, first);
        }
    }

    #[test]
    fn run_store_matches_single_word_stores_off_the_chunk_grid() {
        // The DRAM/NVM edge at frame 100 sits inside a chunk, and the
        // last chunk is partial.
        let m = populated(100 * PAGE_SIZE, 230 * PAGE_SIZE, 330);
        let p_i = PAGE_SIZE as i64;
        for (pa, stride, count, first) in [
            (90 * PAGE_SIZE, p_i, 30, 1),
            (110 * PAGE_SIZE + 8, -p_i, 25, 0),
            (99 * PAGE_SIZE + 4090, 8, 3, 1),
            (329 * PAGE_SIZE, 8, 512, 1),
            (0, 33 * p_i, 10, 1),
        ] {
            check_run(&m, pa, stride, count, first);
        }
    }

    #[test]
    fn random_runs_match_single_word_stores() {
        let mut m = populated(1 << 20, 1 << 20, 512);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let end = m.total_frames() * PAGE_SIZE;
        for _ in 0..300 {
            let stride = match next(4) {
                0 => (next(3) as i64 - 1) * PAGE_SIZE as i64,
                1 => next(64) as i64 * 8 - 256,
                2 => next(9000) as i64 - 4500,
                _ => 0,
            };
            let count = 1 + next(40);
            let reach = stride.unsigned_abs() * (count - 1);
            let pa = if stride < 0 {
                reach + next(end - reach - 8)
            } else {
                next(end - reach - 8)
            };
            let first = if next(5) == 0 { 0 } else { next(1 << 20) };
            check_run(&m, pa, stride, count, first);
            m.write_run_u64(PhysAddr(pa), stride, count, first);
        }
    }

    #[test]
    #[should_panic(expected = "beyond end of memory")]
    fn run_past_the_end_panics() {
        let mut m = mem();
        let last = (m.total_frames() - 1) * PAGE_SIZE;
        m.write_run_u64(PhysAddr(last), 8, 513, 1);
    }

    #[test]
    fn a_run_past_the_end_stores_the_words_before_it() {
        // The end of memory (frame 100) falls inside a backed chunk.
        let m = populated(100 * PAGE_SIZE, 0, 100);
        let last = 99 * PAGE_SIZE + 64;
        let (mut run, mut per_word) = (copy(&m), copy(&m));
        let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.write_run_u64(PhysAddr(last), 8, 600, 1);
        }));
        let word_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for k in 0..600 {
                per_word.write_u64(PhysAddr(last + 8 * k), 1 + k);
            }
        }));
        assert!(run_result.is_err() && word_result.is_err());
        assert_eq!(backing(&run), backing(&per_word));
        assert_eq!(run.read_u64(PhysAddr(100 * PAGE_SIZE - 8)), 1 + 503);
    }

    #[test]
    #[should_panic(expected = "beyond end of memory")]
    fn run_below_zero_panics() {
        let mut m = mem();
        m.write_run_u64(PhysAddr(PAGE_SIZE), -(PAGE_SIZE as i64), 3, 1);
    }

    #[test]
    fn chunk_zeroing_matches_frame_by_frame() {
        let m = populated(100 * PAGE_SIZE, 400 * PAGE_SIZE, 500);
        for (start, frames) in [
            (0, 500),
            (0, 64),
            (64, 64),
            (10, 1),
            (63, 2),
            (5, 59),
            (37, 200),
            (99, 3),
            (448, 52),
            (200, 0),
        ] {
            let (mut chunked, mut framewise) = (copy(&m), copy(&m));
            chunked.zero_frames(FrameNo(start), frames);
            for f in start..start + frames {
                framewise.take_frame_image(FrameNo(f));
            }
            assert_eq!(
                backing(&chunked),
                backing(&framewise),
                "zero {start}+{frames}"
            );
            assert_eq!(
                chunked.chunks.len(),
                framewise.chunks.len(),
                "zero {start}+{frames}"
            );
        }
    }

    /// Column runs against word-by-word stores: random ops on two
    /// memories, one storing page-stride runs through `write_run_u64`
    /// (so full chunks take columns) and one a word at a time. The
    /// DRAM/NVM edge at frame 100 splits the second of four chunks.
    /// After every op both read the same bytes, back the same frames
    /// and agree on which frames are zero; at the end their settled
    /// backing is the same.
    #[test]
    fn column_runs_match_word_by_word_stores() {
        let (dram, nvm) = (100, 156);
        let frames = dram + nvm;
        let mut run = PhysicalMemory::new(dram * PAGE_SIZE, nvm * PAGE_SIZE);
        let mut per_word = PhysicalMemory::new(dram * PAGE_SIZE, nvm * PAGE_SIZE);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut columns = 0;
        for op in 0..1500 {
            let what = match next(20) {
                // Page-stride runs over one or more whole chunks, mostly
                // at a few offsets, so columns form and are replaced.
                0..=9 => {
                    let chunk = next(frames / CHUNK_FRAMES);
                    let off = match next(4) {
                        0 => 0,
                        1 => 24,
                        2 => PAGE_SIZE - 8,
                        _ => next(PAGE_SIZE - 7),
                    };
                    let pa = chunk * CHUNK_BYTES + off;
                    let reach = frames - chunk * CHUNK_FRAMES;
                    let count = match next(3) {
                        0 => CHUNK_FRAMES,
                        1 => reach,
                        _ => 1 + next(reach),
                    };
                    // Some runs hold a zero, some wrap past `u64::MAX`.
                    let first = match next(6) {
                        0 => 0u64.wrapping_sub(next(80)),
                        1 => u64::MAX - 70 + next(8),
                        _ => 1 + next(1 << 30),
                    };
                    let before = run.chunks.values().filter(|c| c.column.is_some()).count();
                    run.write_run_u64(PhysAddr(pa), PAGE_SIZE as i64, count, first);
                    for k in 0..count {
                        per_word.write_u64(PhysAddr(pa + k * PAGE_SIZE), first.wrapping_add(k));
                    }
                    let after = run.chunks.values().filter(|c| c.column.is_some()).count();
                    columns += usize::from(after > before);
                    format!("run at {pa:#x} x {count} from {first:#x}")
                }
                // A single word, possibly across a frame edge.
                10 | 11 => {
                    let pa = next(frames * PAGE_SIZE - 8);
                    let v = if next(4) == 0 { 0 } else { next(1 << 40) };
                    run.write_u64(PhysAddr(pa), v);
                    per_word.write_u64(PhysAddr(pa), v);
                    format!("word {v:#x} at {pa:#x}")
                }
                // A few bytes.
                12 => {
                    let pa = next(frames * PAGE_SIZE - 16);
                    let data: Vec<u8> = (0..1 + next(15)).map(|_| next(256) as u8).collect();
                    run.write(PhysAddr(pa), &data);
                    per_word.write(PhysAddr(pa), &data);
                    format!("{} bytes at {pa:#x}", data.len())
                }
                // Zeroing: part of a chunk, or whole chunks.
                13 | 14 => {
                    let (start, n) = if next(2) == 0 {
                        let start = next(frames);
                        (start, 1 + next((frames - start).min(70)))
                    } else {
                        let c = next(frames / CHUNK_FRAMES);
                        (
                            c * CHUNK_FRAMES,
                            CHUNK_FRAMES * (1 + next(frames / CHUNK_FRAMES - c)),
                        )
                    };
                    let n = n.min(frames - start);
                    run.zero_frames(FrameNo(start), n);
                    per_word.zero_frames(FrameNo(start), n);
                    format!("zero {start}+{n}")
                }
                // A frame image moved to another frame, or dropped.
                15 | 16 => {
                    let (from, to) = (FrameNo(next(frames)), FrameNo(next(frames)));
                    let (a, b) = (run.take_frame_image(from), per_word.take_frame_image(from));
                    assert_eq!(a.to_page(), b.to_page(), "op {op}: image of {from:?}");
                    if next(3) > 0 {
                        run.put_frame_image(to, a);
                        per_word.put_frame_image(to, b);
                    }
                    format!("image {from:?} -> {to:?}")
                }
                17 => {
                    run.crash();
                    per_word.crash();
                    "crash".to_string()
                }
                // A whole-page write backs every frame of a chunk.
                _ => {
                    let chunk = next(frames / CHUNK_FRAMES);
                    let page = [1 + next(255) as u8; PAGE_SIZE as usize];
                    for f in 0..CHUNK_FRAMES {
                        let pa = PhysAddr((chunk * CHUNK_FRAMES + f) * PAGE_SIZE);
                        run.write(pa, &page);
                        per_word.write(pa, &page);
                    }
                    format!("fill chunk {chunk}")
                }
            };
            let what = format!("op {op}: {what}");
            assert_eq!(run.backed_frames(), per_word.backed_frames(), "{what}");
            let end = frames * PAGE_SIZE;
            assert!(
                bytes(&run, 0, end) == bytes(&per_word, 0, end),
                "{what}: bytes differ"
            );
            for f in 0..frames {
                assert_eq!(
                    run.frame_is_zero(FrameNo(f)),
                    per_word.frame_is_zero(FrameNo(f)),
                    "{what}: frame {f}"
                );
            }
        }
        assert!(columns > 50, "only {columns} runs formed a column");
        assert!(per_word.chunks.values().all(|c| c.column.is_none()));
        assert_eq!(backing(&run), backing(&per_word));
    }

    #[test]
    #[should_panic(expected = "beyond end of memory")]
    fn oob_read_panics() {
        let m = mem();
        let mut b = [0u8; 1];
        m.read(PhysAddr(m.total_frames() * PAGE_SIZE), &mut b);
    }
}
