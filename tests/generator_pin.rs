//! The synthetic datasets' bytes, pinned.
//!
//! `generate`'s text and the BRIGHTKITE-like graph that the benchmark's
//! workloads are built from depend on the generators' floating-point
//! arithmetic, which still calls the platform's `ln`, `exp`, `powf` and
//! `cos` (DESIGN §3 names this exception to the release path's
//! pure-Rust math). Moving them would silently change every pinned input
//! downstream, so this test pins an FNV-1a hash of each output: a change
//! to these values is a deliberate re-pin, recorded in CHANGES.md.

use chameleon::prelude::*;
use chameleon::ugraph::io;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The FNV-1a hash of `graph` in the text format `generate` writes.
fn text_hash(graph: &UncertainGraph) -> u64 {
    let mut text = Vec::new();
    io::write_text(graph, &mut text).expect("writing to a Vec cannot fail");
    fnv1a(&text)
}

#[test]
fn generated_datasets_are_pinned() {
    let cases = [
        ("dblp", dblp_like(400, 7), 3162520006963813843),
        ("brightkite", brightkite_like(400, 7), 797103548183820477),
        ("ppi", ppi_like(400, 7), 184832200710183802),
        (
            "brightkite n=2000 seed 41",
            brightkite_like(2000, 41),
            11163997490891404651,
        ),
    ];
    for (name, graph, want) in cases {
        assert_eq!(text_hash(&graph), want, "{name}");
    }
}
