//! Property tests for the layout/fingerprint machinery — the invariants
//! the whole reproduction rests on.

use mem::{Fingerprint, FingerprintBuilder, LayoutWriter, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum LayoutOp {
    Append { token: u64, len: usize },
    Pad { len: usize },
    Align { to: usize },
}

fn op_strategy() -> impl Strategy<Value = LayoutOp> {
    prop_oneof![
        (any::<u64>(), 1..20_000usize).prop_map(|(token, len)| LayoutOp::Append { token, len }),
        (0..5_000usize).prop_map(|len| LayoutOp::Pad { len }),
        prop::sample::select(vec![2usize, 8, 64, 4096]).prop_map(|to| LayoutOp::Align { to }),
    ]
}

fn run_ops(ops: &[LayoutOp]) -> mem::LayoutImage {
    let mut w = LayoutWriter::new();
    for op in ops {
        match *op {
            LayoutOp::Append { token, len } => w.append(token, len),
            LayoutOp::Pad { len } => w.pad(len),
            LayoutOp::Align { to } => w.align_to(to),
        }
    }
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The core guarantee: identical operation sequences produce
    /// identical page images (this is what makes the copied cache file
    /// shareable).
    #[test]
    fn same_ops_same_image(ops in prop::collection::vec(op_strategy(), 0..40)) {
        prop_assert_eq!(run_ops(&ops), run_ops(&ops));
    }

    /// Appending one extra item never changes the pages before the
    /// item's first page (prefix stability — later loads don't perturb
    /// already-shared pages).
    #[test]
    fn appends_are_prefix_stable(
        ops in prop::collection::vec(op_strategy(), 0..30),
        token in any::<u64>(),
        len in 1..10_000usize,
    ) {
        let base = run_ops(&ops);
        let mut extended_ops = ops.clone();
        extended_ops.push(LayoutOp::Append { token, len });
        let extended = run_ops(&extended_ops);
        let boundary = base.len_bytes / PAGE_SIZE; // page the cursor is in
        for page in 0..boundary.min(base.len_pages()) {
            prop_assert_eq!(base.pages[page], extended.pages[page], "page {}", page);
        }
    }

    /// Image length covers the cursor extent exactly.
    #[test]
    fn page_count_matches_extent(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let img = run_ops(&ops);
        prop_assert_eq!(img.len_pages(), mem::pages_for_bytes(img.len_bytes));
    }

    /// Fingerprints are deterministic and order-sensitive.
    #[test]
    fn fingerprints_deterministic(tokens in prop::collection::vec(any::<u64>(), 0..16)) {
        prop_assert_eq!(Fingerprint::of(&tokens), Fingerprint::of(&tokens));
        if tokens.len() >= 2 && tokens[0] != tokens[1] {
            let mut swapped = tokens.clone();
            swapped.swap(0, 1);
            prop_assert_ne!(Fingerprint::of(&tokens), Fingerprint::of(&swapped));
        }
    }

    /// A builder holding a prefix of the tokens, cloned and fed the
    /// rest, yields the whole list's fingerprint: a run of pages hashes
    /// its constant head once and pushes only what varies per page.
    #[test]
    fn prefix_plus_rest_equals_whole(
        tokens in prop::collection::vec(any::<u64>(), 0..8),
        split in 0..9usize,
    ) {
        let split = split.min(tokens.len());
        let mut head = FingerprintBuilder::new();
        for &token in &tokens[..split] {
            head.push(token);
        }
        for _page in 0..2 {
            let mut fp = head.clone();
            for &token in &tokens[split..] {
                fp.push(token);
            }
            prop_assert_eq!(fp.finish(), Fingerprint::of(&tokens));
        }
    }

    /// No token sequence collides with the reserved zero-page digest.
    #[test]
    fn nothing_hashes_to_zero(tokens in prop::collection::vec(any::<u64>(), 0..16)) {
        prop_assert!(!Fingerprint::of(&tokens).is_zero());
    }
}
