//! A component-level model of a Java virtual machine process.
//!
//! The paper's analysis (§III) divides a Java process's memory into the
//! seven categories of Table IV and explains, per category, why its page
//! contents do or do not repeat across JVM processes. This crate
//! implements a [`JavaVm`] that reproduces exactly those (non-)repetition
//! mechanisms, page by page, inside a guest OS:
//!
//! | Category ([`MemoryCategory`]) | Layout behaviour modelled |
//! |---|---|
//! | Code area | the mapped JVM binary: byte-identical across processes running the same JVM version; library data areas are process-private |
//! | Class metadata | created in class-*load order* with per-process interleaving jitter (baseline), or mapped byte-identical from the shared class cache (`-Xshareclasses`, the paper's technique) |
//! | JIT-compiled code | embeds runtime profile values — salted per process, never repeats |
//! | JIT work area | short-lived scratch, constantly rewritten (volatile) plus a bulk-reserved zero tail |
//! | Java heap | moving GC: allocation writes fresh content, collections zero-fill freed space; only the quiet zero pages are ever mergeable |
//! | JVM work area | malloc'd structures (private), NIO buffers (same benchmark data in every VM ⇒ identical), bulk-zeroed arena tails |
//! | Stack | pointer-laden, per-process, rewritten continuously |
//!
//! Workload parameters arrive through an [`AppProfile`]; presets matching
//! the paper's Table III live in the `workloads` crate.
//!
//! # Example
//!
//! ```
//! use jvm::{AppProfile, JavaVm, JvmConfig};
//! use mem::Tick;
//! use oskernel::{GuestOs, OsImage};
//! use paging::HostMm;
//!
//! let mut mm = HostMm::new();
//! let vm_space = mm.create_space("qemu");
//! let mut guest = GuestOs::boot(
//!     &mut mm, vm_space, mem::mib_to_pages(96.0), &OsImage::tiny_test(), 1, Tick(0),
//! );
//! let profile = AppProfile::tiny_test();
//! let mut java = JavaVm::launch(
//!     &mut mm, &mut guest, JvmConfig::new(42, 7), profile, Tick(0),
//! );
//! for t in 1..200 {
//!     java.tick(&mut mm, &mut guest, Tick(t));
//! }
//! assert!(java.classes_loaded() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod category;
mod classes;
mod classloader;
mod codearea;
mod fill;
mod heap;
mod jit;
mod profile;
mod request;
mod stack;
mod vm;
mod workarea;

pub use category::MemoryCategory;
pub use classes::{master_cache, ClassSet, ClassSpec};
pub use classloader::ClassLoader;
pub use profile::{AppProfile, GcPolicy, HeapProfile};
pub use request::RequestCost;
pub use vm::{JavaVm, JvmConfig};
