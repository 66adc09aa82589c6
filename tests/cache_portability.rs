//! Integration tests of the cache-file deployment workflow (§IV.C):
//! populate once, copy everywhere, map identically.

use tpslab::cds::{CacheBuilder, SharedClassCache};
use tpslab::jvm::{master_cache, AppProfile, ClassSet};

fn populated_cache() -> SharedClassCache {
    let profile = AppProfile::tiny_test();
    let classes = ClassSet::for_profile(&profile);
    let mut builder = CacheBuilder::new("webapp", 4.0);
    for class in classes.cacheable() {
        builder.add(class.token, class.ro_bytes);
    }
    builder.finish()
}

#[test]
fn copies_of_the_cache_file_are_byte_identical_mappings() {
    let original = populated_cache();
    let bytes = original.to_bytes();
    // Two guests receive independent copies.
    let copy_a = SharedClassCache::from_bytes(&bytes).unwrap();
    let copy_b = SharedClassCache::from_bytes(&bytes).unwrap();
    assert_eq!(copy_a, copy_b);
    assert_eq!(copy_a.image().pages, original.image().pages);
    // Every directory entry survives.
    assert_eq!(copy_a.entries(), original.entries());
}

#[test]
fn repopulating_from_the_same_middleware_gives_the_same_file() {
    // The datacenter administrator can rebuild the base image's cache at
    // any time: same middleware run, same bytes.
    let a = populated_cache().to_bytes();
    let b = populated_cache().to_bytes();
    assert_eq!(a, b);
}

#[test]
fn caches_for_different_apps_on_the_same_middleware_share_content() {
    // DayTrader and TPC-W in the same WAS: the middleware classes (the
    // bulk of the cache) are identical, so the two caches' page images
    // coincide — which is why Fig. 5(b) shows cross-workload sharing.
    let mut day = AppProfile::tiny_test();
    day.workload_id = 111;
    let mut tpcw = AppProfile::tiny_test();
    tpcw.workload_id = 222;

    let cache_day = master_cache(&day, 4.0);
    let cache_tpcw = master_cache(&tpcw, 4.0);
    assert_eq!(
        cache_day.image().pages,
        cache_tpcw.image().pages,
        "same middleware ⇒ same cache pages"
    );
}

#[test]
fn corrupted_files_are_rejected_not_mapped() {
    let bytes = populated_cache().to_bytes();
    for cut in [0, 7, 64, bytes.len() - 2] {
        assert!(SharedClassCache::from_bytes(&bytes[..cut]).is_err());
    }
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xff;
    assert!(SharedClassCache::from_bytes(&flipped).is_err());
}
