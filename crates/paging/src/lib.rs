//! Address translation and the host memory manager.
//!
//! This crate models the mapping layers the paper walks when attributing
//! host physical memory (§II.A–B):
//!
//! * [`AddressSpace`] — one per host process (in the KVM model, each guest
//!   VM *is* a host process). An address space is a set of page-aligned
//!   [`Region`]s, each mapping virtual page numbers to host frames on
//!   demand.
//! * [`HostMm`] — the host kernel's memory manager. It owns the
//!   [`PhysMemory`](mem::PhysMemory) frame pool, every address space, and
//!   the reverse mapping (rmap) that lets KSM repoint all users of a
//!   duplicate page at the canonical copy. All faults, writes (with
//!   copy-on-write breaking), merges and unmappings go through it.
//! * [`MemTag`] — the semantic label of a region, used by the analysis
//!   layer to bucket frames into the paper's Table IV categories.
//!
//! Guest-physical memory is a linear "memslot" region inside the VM
//! process's address space (gpfn → host vpn is an additive offset, as with
//! KVM memslots), so guest pages are host pages reached through one more
//! constant translation. Guest-*process* page tables (guest vpn → gpfn)
//! live in the `oskernel` crate.
//!
//! # Example
//!
//! ```
//! use mem::{Fingerprint, Tick};
//! use paging::{HostMm, MemTag};
//!
//! let mut mm = HostMm::new();
//! let vm = mm.create_space("qemu-vm1");
//! let base = mm.map_region(vm, 16, MemTag::VmGuestMemory, true);
//! mm.write_page(vm, base, Fingerprint::of(&[1]), Tick(0));
//! assert_eq!(mm.fingerprint_at(vm, base), Some(Fingerprint::of(&[1])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hostmm;
mod malloc;
mod rmap;
mod space;
mod tag;
mod thp;

pub use hostmm::HostMm;
pub use malloc::{Allocation, MallocArena, PageSink, MMAP_THRESHOLD};
pub use rmap::Mapping;
pub use space::{AddressSpace, AsId, Region, Slot, Vpn};
pub use tag::MemTag;
pub use thp::{SplitReason, ThpPolicy};
