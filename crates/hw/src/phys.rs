//! Simulated physical memory.
//!
//! Models a machine with a DRAM tier at low physical addresses and a
//! (much larger) persistent NVM tier above it, as the paper's target
//! platforms are provisioned. Backing bytes are stored sparsely so a
//! multi-terabyte physical address space can be simulated on a laptop:
//! a frame consumes host memory only once it is written.
//!
//! Persistence semantics: on a simulated power failure
//! ([`PhysicalMemory::crash`]), DRAM contents are lost; NVM contents
//! survive. This is the substrate for the paper's §"Persistence
//! management" experiments.

use crate::addr::{FrameNo, PhysAddr, PAGE_SIZE};
use crate::fasthash::FastMap;

/// Frames per sparse chunk (must be a power of two). One chunk groups
/// 64 frames (256 KiB of simulated memory) behind a single map entry,
/// so a streaming workload pays one hash per 64 frames instead of one
/// per frame.
const CHUNK_FRAMES: u64 = 64;
const CHUNK_SHIFT: u32 = CHUNK_FRAMES.trailing_zeros();

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
                    let eo = eo as usize;
                    let s = eo.max(off);
                    let e = (eo + 8).min(off + out.len());
                    if s < e {
                        out[s - off..e - off].copy_from_slice(&v.to_le_bytes()[s - eo..e - eo]);
                    }
                }
            }
            FrameBacking::Full(bytes) => out.copy_from_slice(&bytes[off..off + out.len()]),
        }
    }
}

/// One group of up to [`CHUNK_FRAMES`] backed frames.
#[derive(Debug)]
struct Chunk {
    /// Backing for frame `chunk_base + i`; `None` reads as zero.
    frames: Box<[Option<FrameBacking>]>,
    /// Number of `Some` entries (chunk is dropped at zero).
    backed: u32,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            frames: (0..CHUNK_FRAMES).map(|_| None).collect(),
            backed: 0,
        }
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

    /// Borrow the backing of `frame`, if any.
    #[inline]
    fn frame_backing(&self, frame: u64) -> Option<&FrameBacking> {
        self.chunks.get(&(frame >> CHUNK_SHIFT))?.frames[(frame & (CHUNK_FRAMES - 1)) as usize]
            .as_ref()
    }

    /// Fully materialized backing bytes of `frame`, allocated (zeroed)
    /// on first touch; word-entry backing is promoted to a page.
    fn frame_bytes_mut(&mut self, frame: u64) -> &mut Box<[u8]> {
        let chunk = self
            .chunks
            .entry(frame >> CHUNK_SHIFT)
            .or_insert_with(Chunk::new);
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

    /// Drop the backing of `frame`, releasing its chunk when empty.
    fn drop_frame(&mut self, frame: u64) {
        if let Some(chunk) = self.chunks.get_mut(&(frame >> CHUNK_SHIFT)) {
            if chunk.frames[(frame & (CHUNK_FRAMES - 1)) as usize]
                .take()
                .is_some()
            {
                chunk.backed -= 1;
                self.backed -= 1;
                if chunk.backed == 0 {
                    self.chunks.remove(&(frame >> CHUNK_SHIFT));
                }
            }
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
            self.drop_frame(frame.0);
            return;
        };
        let chunk = self
            .chunks
            .entry(frame.0 >> CHUNK_SHIFT)
            .or_insert_with(Chunk::new);
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
            match self.frame_backing(frame) {
                Some(backing) => backing.read_into(off, &mut buf[done..done + take]),
                None => buf[done..done + take].fill(0),
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
            if src == &ZERO_PAGE[..take] && self.frame_backing(frame).is_none() {
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

    /// Write a single `u64` at `pa` (little-endian). A word into an
    /// otherwise-untouched frame is stored as a sparse word entry, not
    /// a materialized page.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        let off = (pa.0 & (PAGE_SIZE - 1)) as usize;
        if off > (PAGE_SIZE - 8) as usize {
            // Frame-crossing word: the general path handles it.
            self.write(pa, &v.to_le_bytes());
            return;
        }
        self.check_range(pa, 8);
        let frame = pa.0 >> crate::addr::PAGE_SHIFT;
        if v == 0 && self.frame_backing(frame).is_none() {
            return;
        }
        let chunk = self
            .chunks
            .entry(frame >> CHUNK_SHIFT)
            .or_insert_with(Chunk::new);
        let slot = &mut chunk.frames[(frame & (CHUNK_FRAMES - 1)) as usize];
        if write_word_slot(slot, off as u16, v) {
            chunk.backed += 1;
            self.backed += 1;
        }
    }

    /// Zero `frames` whole frames starting at `start`. Implemented by
    /// dropping backing (sparse zero), so it is cheap on the host; the
    /// *simulated* cost is charged by the caller's zeroing policy.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn zero_frames(&mut self, start: FrameNo, frames: u64) {
        let end = start.0.checked_add(frames).expect("frame range overflow");
        assert!(end <= self.total_frames, "zero_frames out of range");
        for f in start.0..end {
            self.drop_frame(f);
        }
    }

    /// True if every byte of the frame is zero (diagnostic for erase
    /// policies and persistence tests).
    pub fn frame_is_zero(&self, frame: FrameNo) -> bool {
        assert!(self.contains(frame), "frame out of range");
        match self.frame_backing(frame.0) {
            None => true,
            Some(FrameBacking::Words(n, words)) => {
                words[..*n as usize].iter().all(|&(_, v)| v == 0)
            }
            Some(FrameBacking::Full(bytes)) => bytes.iter().all(|&b| b == 0),
        }
    }

    /// Simulate a power failure: DRAM contents are lost, NVM survives.
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

    #[test]
    #[should_panic(expected = "beyond end of memory")]
    fn oob_read_panics() {
        let m = mem();
        let mut b = [0u8; 1];
        m.read(PhysAddr(m.total_frames() * PAGE_SIZE), &mut b);
    }
}
