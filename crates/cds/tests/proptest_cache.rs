//! Property tests for cache population: every stored item lies inside
//! the populated image.

use cds::{CacheBuilder, SharedClassCache};
use proptest::prelude::*;

fn arb_cache() -> impl Strategy<Value = SharedClassCache> {
    (
        "[a-z]{1,16}",
        0.01f64..4.0,
        prop::collection::vec((any::<u64>(), 1..50_000usize), 0..64),
    )
        .prop_map(|(name, capacity_mib, items)| {
            let mut builder = CacheBuilder::new(name, capacity_mib);
            for (token, len) in items {
                builder.add(token, len);
            }
            builder.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn entries_are_within_bounds(cache in arb_cache()) {
        for entry in cache.entries() {
            prop_assert!(entry.len > 0);
            prop_assert!((entry.offset + entry.len) as usize <= cache.used_bytes());
            prop_assert!(entry.page_range().end <= cache.image().len_pages());
        }
    }
}
