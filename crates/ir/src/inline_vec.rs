//! [`InlineVec`]: a short list of ids kept inside its owner.

use std::ops::{Deref, DerefMut};

/// A `Copy` id with a filler value for the unused inline slots.
pub(crate) trait Slot: Copy {
    const FILLER: Self;
}

/// A list that keeps up to `N` entries inline and moves to the heap past
/// that. An op's operands and a value's uses rarely outgrow a few entries,
/// so most ops and values own no heap memory for them.
#[derive(Clone)]
pub(crate) enum InlineVec<T: Slot, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Slot, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::Inline {
            len: 0,
            items: [T::FILLER; N],
        }
    }
}

impl<T: Slot, const N: usize> InlineVec<T, N> {
    pub(crate) fn from_slice(entries: &[T]) -> Self {
        if entries.len() > N {
            return InlineVec::Heap(entries.to_vec());
        }
        let mut items = [T::FILLER; N];
        items[..entries.len()].copy_from_slice(entries);
        InlineVec::Inline {
            len: entries.len() as u8,
            items,
        }
    }

    pub(crate) fn push(&mut self, entry: T) {
        match self {
            InlineVec::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = entry;
                *len += 1;
            }
            InlineVec::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(items);
                heap.push(entry);
                *self = InlineVec::Heap(heap);
            }
            InlineVec::Heap(heap) => heap.push(entry),
        }
    }

    /// Remove and return entry `index`, shifting the later ones down.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub(crate) fn remove(&mut self, index: usize) -> T {
        match self {
            InlineVec::Inline { len, items } => {
                let entry = items[..*len as usize][index];
                items.copy_within(index + 1..*len as usize, index);
                *len -= 1;
                entry
            }
            InlineVec::Heap(heap) => heap.remove(index),
        }
    }
}

impl<T: Slot, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..*len as usize],
            InlineVec::Heap(heap) => heap,
        }
    }
}

impl<T: Slot, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, items } => &mut items[..*len as usize],
            InlineVec::Heap(heap) => heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Slot for u32 {
        const FILLER: u32 = u32::MAX;
    }

    #[test]
    fn behaves_as_a_vec_inline_and_on_the_heap() {
        for start in [&[][..], &[1, 2][..], &[1, 2, 3, 4, 5][..]] {
            let mut list = InlineVec::<u32, 3>::from_slice(start);
            let mut model = start.to_vec();
            for x in 10..16 {
                list.push(x);
                model.push(x);
                assert_eq!(&*list, &model[..]);
            }
            list[1] = 99;
            model[1] = 99;
            while !model.is_empty() {
                let i = model.len() / 2;
                assert_eq!(list.remove(i), model.remove(i));
                assert_eq!(&*list, &model[..]);
            }
        }
        let mut list = InlineVec::<u32, 3>::default();
        list.push(7);
        assert_eq!(list.remove(0), 7);
        assert!(list.is_empty());
    }
}
