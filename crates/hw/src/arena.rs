//! Generational arena — dense, index-based storage for hot kernel
//! object graphs.
//!
//! The simulated kernels used to keep their object graphs in
//! `HashMap`s keyed by small ids (`Pid`, VA bases, file chunk
//! numbers). Every simulated memory access walked at least one such
//! map, so the host paid a SipHash plus a probe per lookup for keys
//! that are trusted, fixed-width, and dense. An [`Arena`] replaces
//! the map with a `Vec` of slots addressed by [`Handle`]s: lookups are
//! one bounds check and one generation compare.
//!
//! Generations make stale handles safe: removing a slot bumps its
//! generation, so a [`Handle`] kept across a `remove` (a destroyed
//! process's `Pid`, say) misses instead of aliasing whatever object
//! reused the slot. This is host-side bookkeeping only — which slot an
//! object lands in can never affect a simulated number.

/// Index + generation reference to an [`Arena`] slot.
///
/// A handle is valid iff its generation matches the slot's current
/// generation; handles to removed entries go stale rather than
/// dangling.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Handle {
    idx: u32,
    gen: u32,
}

impl Handle {
    /// Slot index (dense, reused after removal).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }

    /// Slot generation at the time this handle was issued.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A slotmap-style generational arena.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// Empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, reusing the most recently freed slot if any.
    /// The returned handle carries the slot's current generation.
    pub fn insert(&mut self, val: T) -> Handle {
        self.len += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.val.is_none(), "free list points at a live slot");
                slot.val = Some(val);
                Handle { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    val: Some(val),
                });
                Handle { idx, gen: 0 }
            }
        }
    }

    /// Remove the entry behind `h`, bumping the slot's generation so
    /// `h` (and every copy of it) goes stale. Returns `None` if the
    /// handle is already stale or out of range.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        let val = slot.val.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.len -= 1;
        Some(val)
    }

    /// Borrow the entry behind `h`; `None` for stale handles.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<&T> {
        let slot = self.slots.get(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.val.as_ref()
    }

    /// Mutably borrow the entry behind `h`; `None` for stale handles.
    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.val.as_mut()
    }

    /// True if `h` refers to a live entry.
    #[inline]
    pub fn contains(&self, h: Handle) -> bool {
        self.get(h).is_some()
    }

    /// Iterate live entries in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.val.as_ref().map(|v| {
                (
                    Handle {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.get(h2), Some(&"two"));
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.get(h1), None, "removed handle is stale");
        assert_eq!(a.remove(h1), None, "double remove misses");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut a = Arena::new();
        let h1 = a.insert(10u32);
        a.remove(h1).unwrap();
        let h2 = a.insert(20u32);
        assert_eq!(h2.index(), h1.index(), "slot is reused");
        assert_ne!(h2.generation(), h1.generation());
        assert_eq!(a.get(h1), None, "stale handle misses the new tenant");
        assert_eq!(a.get(h2), Some(&20));
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_dead() {
        let mut a = Arena::new();
        let h0 = a.insert(0);
        let _h1 = a.insert(1);
        let _h2 = a.insert(2);
        a.remove(h0).unwrap();
        let vals: Vec<i32> = a.iter().map(|(_, &v)| v).collect();
        assert_eq!(vals, vec![1, 2]);
    }
}
