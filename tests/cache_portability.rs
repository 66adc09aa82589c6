//! Integration tests of the cache deployment workflow (§IV.C):
//! populate once, copy everywhere, map identically.

use tpslab::jvm::{master_cache, AppProfile};

#[test]
fn repopulating_from_the_same_middleware_gives_the_same_file() {
    // The datacenter administrator can rebuild the base image's cache at
    // any time: same middleware run, same bytes.
    let profile = AppProfile::tiny_test();
    assert_eq!(master_cache(&profile, 4.0), master_cache(&profile, 4.0));
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
