//! Guest operating system model.
//!
//! Each KVM guest runs a guest OS that owns the guest-physical address
//! space (a linear memslot inside the VM process's host address space) and
//! provides the pieces of the paper's §II breakdown that are not Java:
//!
//! * **Kernel memory** — kernel text (byte-identical across guests booted
//!   from the same base image), per-boot dynamic data, and the page cache
//!   of the shared disk image. The paper measured that roughly half of the
//!   219 MB guest-kernel area was TPS-shared across guests; the identical
//!   halves here are exactly the image-derived pages.
//! * **A process table** — guest user processes, each with its own
//!   [`GuestAddressSpace`] of tagged regions translated through guest page
//!   tables (guest vpn → gpfn) and the memslot (gpfn → host vpn).
//!
//! The Java VM (`jvm` crate) runs as one of these guest processes; the
//! analysis crate walks the same tables to attribute every host frame.
//!
//! # Example
//!
//! ```
//! use mem::{Fingerprint, Tick};
//! use oskernel::{GuestOs, OsImage};
//! use paging::{HostMm, MemTag, Vpn};
//!
//! let mut mm = HostMm::new();
//! let vm_space = mm.create_space("qemu-vm1");
//! let mut guest = GuestOs::boot(
//!     &mut mm,
//!     vm_space,
//!     mem::mib_to_pages(64.0),
//!     &OsImage::tiny_test(),
//!     /* boot_salt = */ 1,
//!     Tick(0),
//! );
//! let pid = guest.spawn("java");
//! let heap = guest.add_region(pid, 16, MemTag::JavaHeap);
//! guest.write_page(&mut mm, pid, heap, Fingerprint::of(&[1]), Tick(1));
//! assert!(guest.translate(pid, heap).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guestas;
mod guestos;
mod image;

pub use guestas::{GuestAddressSpace, GuestRegion, Pid};
pub use guestos::{GuestOs, KERNEL_PID};
pub use image::OsImage;
