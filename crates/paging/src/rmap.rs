//! Reverse mappings from frames to the page-table entries using them.

use crate::{AsId, Vpn};
use mem::FrameId;

/// One page-table entry location: which address space maps the frame, at
/// which virtual page.
///
/// # Example
///
/// ```
/// // Mappings are produced by HostMm; they identify a PTE location.
/// use paging::{HostMm, MemTag, Mapping};
/// use mem::{Fingerprint, Tick};
///
/// let mut mm = HostMm::new();
/// let space = mm.create_space("p");
/// let base = mm.map_region(space, 1, MemTag::Other, true);
/// mm.write_page(space, base, Fingerprint::of(&[1]), Tick(0));
/// let frame = mm.frame_at(space, base).unwrap();
/// let users: Vec<Mapping> = mm.mappers_of(frame).to_vec();
/// assert_eq!(users, vec![Mapping { space, vpn: base }]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// The address space holding the PTE.
    pub space: AsId,
    /// The virtual page of the PTE.
    pub vpn: Vpn,
}

/// The users of one frame: none, one held inline, or a heap list once a
/// second user arrives.
#[derive(Debug, Default)]
pub(crate) enum Users {
    #[default]
    Empty,
    One(Mapping),
    Many(Vec<Mapping>),
}

impl Users {
    pub(crate) fn as_slice(&self) -> &[Mapping] {
        match self {
            Users::Empty => &[],
            Users::One(only) => std::slice::from_ref(only),
            Users::Many(list) => list,
        }
    }
}

/// Reverse map: frame → every PTE pointing at it.
///
/// A table indexed by [`FrameId::index`], one [`Users`] slot per frame.
/// Almost every frame has exactly one user, held inline, so faulting a
/// page in, breaking CoW or merging a duplicate away allocates and frees
/// nothing here. Only KSM stable-tree frames accumulate a heap list, one
/// entry per merged duplicate; KSM's `max_page_sharing` (256) caps its
/// length and so `remove`'s linear scan. A list that shrinks to one user
/// goes back inline. A slot must be empty by the time its frame is freed,
/// since the frame pool hands the id to the next allocation.
#[derive(Debug, Default)]
pub(crate) struct Rmap {
    slots: Vec<Users>,
}

impl Rmap {
    pub(crate) fn add(&mut self, frame: FrameId, mapping: Mapping) {
        let idx = frame.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, Users::default);
        }
        let slot = &mut self.slots[idx];
        match slot {
            Users::Empty => *slot = Users::One(mapping),
            Users::One(first) => *slot = Users::Many(vec![*first, mapping]),
            Users::Many(list) => list.push(mapping),
        }
    }

    pub(crate) fn remove(&mut self, frame: FrameId, mapping: Mapping) {
        let slot = match self.slots.get_mut(frame.index()) {
            Some(slot) if !matches!(slot, Users::Empty) => slot,
            _ => panic!("rmap remove: {frame} has no users"),
        };
        match slot {
            Users::One(only) if *only == mapping => *slot = Users::Empty,
            Users::Many(list) => {
                let idx = list
                    .iter()
                    .position(|m| *m == mapping)
                    .unwrap_or_else(|| panic!("rmap remove: mapping not found for {frame}"));
                list.swap_remove(idx);
                if let [last] = list[..] {
                    *slot = Users::One(last);
                }
            }
            _ => panic!("rmap remove: mapping not found for {frame}"),
        }
    }

    pub(crate) fn users(&self, frame: FrameId) -> &[Mapping] {
        self.slots.get(frame.index()).map_or(&[], Users::as_slice)
    }

    /// Removes and returns all users of `frame`, in [`users`](Self::users)
    /// order (used when merging the frame away).
    pub(crate) fn take_users(&mut self, frame: FrameId) -> Users {
        self.slots
            .get_mut(frame.index())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Every frame with at least one user, in index order.
    pub(crate) fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, users)| !matches!(users, Users::Empty))
            .map(|(idx, _)| FrameId::from_index(idx))
    }

    pub(crate) fn total_entries(&self) -> usize {
        self.slots.iter().map(|users| users.as_slice().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(space: u32, vpn: u64) -> Mapping {
        Mapping {
            space: AsId(space),
            vpn: Vpn(vpn),
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut rmap = Rmap::default();
        let f = FrameId::from_index(3);
        rmap.add(f, m(0, 1));
        rmap.add(f, m(1, 9));
        assert_eq!(rmap.users(f).len(), 2);
        rmap.remove(f, m(0, 1));
        assert_eq!(rmap.users(f), &[m(1, 9)]);
        rmap.remove(f, m(1, 9));
        assert!(rmap.users(f).is_empty());
        assert_eq!(rmap.total_entries(), 0);
    }

    #[test]
    fn take_users_drains() {
        let mut rmap = Rmap::default();
        let f = FrameId::from_index(0);
        rmap.add(f, m(0, 1));
        rmap.add(f, m(0, 2));
        let users = rmap.take_users(f);
        assert_eq!(users.as_slice().len(), 2);
        assert!(rmap.users(f).is_empty());
    }

    #[test]
    fn slot_goes_none_one_many_one_none() {
        let mut rmap = Rmap::default();
        let f = FrameId::from_index(5);
        assert!(rmap.users(f).is_empty());
        rmap.add(f, m(0, 1));
        assert!(matches!(rmap.slots[5], Users::One(_)));
        for vpn in 2..=4 {
            rmap.add(f, m(0, vpn));
        }
        assert!(matches!(rmap.slots[5], Users::Many(_)));
        assert_eq!(rmap.users(f), &[m(0, 1), m(0, 2), m(0, 3), m(0, 4)]);
        // swap_remove: the last user fills the removed one's place.
        rmap.remove(f, m(0, 1));
        assert_eq!(rmap.users(f), &[m(0, 4), m(0, 2), m(0, 3)]);
        rmap.remove(f, m(0, 3));
        rmap.remove(f, m(0, 4));
        assert!(matches!(rmap.slots[5], Users::One(_)));
        assert_eq!(rmap.users(f), &[m(0, 2)]);
        rmap.remove(f, m(0, 2));
        assert!(matches!(rmap.slots[5], Users::Empty));
        assert_eq!(rmap.frames().count(), 0);
    }

    #[test]
    fn take_users_keeps_order() {
        let mut rmap = Rmap::default();
        let (one, many) = (FrameId::from_index(1), FrameId::from_index(2));
        rmap.add(one, m(3, 7));
        for (space, vpn) in [(2, 5), (0, 9), (1, 1)] {
            rmap.add(many, m(space, vpn));
        }
        rmap.remove(many, m(2, 5));
        assert!(matches!(rmap.take_users(one), Users::One(only) if only == m(3, 7)));
        assert_eq!(rmap.take_users(many).as_slice(), &[m(1, 1), m(0, 9)]);
        assert_eq!(rmap.frames().count(), 0);
        let unknown = rmap.take_users(FrameId::from_index(40));
        assert!(matches!(unknown, Users::Empty));
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn remove_unknown_frame_panics() {
        let mut rmap = Rmap::default();
        rmap.remove(FrameId::from_index(9), m(0, 0));
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn remove_from_emptied_slot_panics() {
        let mut rmap = Rmap::default();
        let f = FrameId::from_index(0);
        rmap.add(f, m(0, 0));
        rmap.remove(f, m(0, 0));
        rmap.remove(f, m(0, 0));
    }

    #[test]
    #[should_panic(expected = "mapping not found")]
    fn remove_other_mapping_panics() {
        let mut rmap = Rmap::default();
        let f = FrameId::from_index(0);
        rmap.add(f, m(0, 0));
        rmap.remove(f, m(0, 1));
    }
}
