//! A tour of the class-preloading pipeline using the low-level APIs —
//! the §IV.C deployment story, step by step:
//!
//! 1. run the middleware once to populate a shared class cache,
//! 2. copy the cache file to every guest VM (here: each guest maps its
//!    own copy, a clone of the master),
//! 3. map it in each guest's JVM,
//! 4. let KSM merge the byte-identical cache pages across VMs.
//!
//! ```text
//! cargo run --release --example cache_preload_pipeline
//! ```

use mem::Tick;
use tpslab::cds::CacheBuilder;
use tpslab::hypervisor::{HostConfig, KvmHost};
use tpslab::jvm::{AppProfile, ClassSet, JavaVm, JvmConfig};
use tpslab::ksm::{KsmParams, KsmScanner};
use tpslab::oskernel::OsImage;

fn main() {
    let profile = AppProfile::tiny_test();

    // Step 1: "run the middleware once". The canonical class-load order
    // fills the cache with every cache-eligible class's read-only half.
    let classes = ClassSet::for_profile(&profile);
    let mut builder = CacheBuilder::new("webapp", 4.0);
    for class in classes.cacheable() {
        builder.add(class.token, class.ro_bytes);
    }
    let cache = builder.finish();
    println!(
        "populated cache '{}': {} classes, {:.2} MiB ({:.0} % of capacity)",
        cache.name(),
        cache.class_count(),
        cache.used_bytes() as f64 / (1024.0 * 1024.0),
        100.0 * cache.utilization(),
    );

    // Steps 2 and 3: boot two guests and launch a JVM in each. The
    // cache file travels into each guest's disk image, so each guest
    // maps its own copy, a clone of the master.
    let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
    let mut javas = Vec::new();
    for i in 0..2u64 {
        let g = host.create_guest(
            format!("vm{}", i + 1),
            96.0,
            &OsImage::tiny_test(),
            i + 1,
            Tick::ZERO,
        );
        let cfg = JvmConfig::new(6, 1000 + i).with_shared_cache(cache.clone());
        let (mm, guest) = host.mm_and_guest_mut(g);
        javas.push(JavaVm::launch(
            mm,
            &mut guest.os,
            cfg,
            profile.clone(),
            Tick::ZERO,
        ));
    }

    // Step 4: run the system with the KSM scanner watching.
    let mut scanner = KsmScanner::new(KsmParams::new(5_000, 100));
    for t in 1..1200u64 {
        for (i, java) in javas.iter_mut().enumerate() {
            let (mm, guest) = host.mm_and_guest_mut(i);
            java.tick(mm, &mut guest.os, Tick(t));
        }
        scanner.run(host.mm_mut(), Tick(t));
    }
    scanner.recount(host.mm());

    println!(
        "after the run: KSM merged {} duplicate pages into {} stable frames",
        scanner.stats().pages_sharing,
        scanner.stats().pages_shared,
    );
    for (i, java) in javas.iter().enumerate() {
        println!(
            "vm{}: {} of {} classes served from the shared cache",
            i + 1,
            java.classes_from_cache(),
            java.loader().class_count(),
        );
    }
}
