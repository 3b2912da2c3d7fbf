//! Graph interchange formats: plain text and compact binary.
//!
//! **Text** (human-readable, the historical release format):
//!
//! ```text
//! # optional comments
//! nodes 5
//! 0 1 0.75
//! 1 2 0.20
//! ```
//!
//! A `nodes N` header fixes the node count (otherwise it is inferred as
//! 1 + the largest endpoint). Duplicate records resolve via the caller's
//! [`DedupPolicy`]. The reader streams line-by-line through one reused
//! buffer — it never holds more than a single line in memory, so
//! million-edge files parse without a file-sized allocation.
//!
//! **Binary** (compact, for population-scale inputs):
//!
//! ```text
//! magic "CUGB" · version 0x01 · varint num_nodes · varint num_edges ·
//! (varint u · varint v · 8-byte LE f64 probability)*
//! ```
//!
//! Varints are canonical LEB128 and probabilities are exact IEEE-754
//! bits, so for a canonically built graph (normalized endpoints,
//! first-seen edge order — what [`GraphBuilder`] produces) a
//! write → read → re-write cycle is byte-identical; this is proptested.
//! [`read_file`] auto-detects the format from the leading magic bytes.

use crate::builder::{DedupPolicy, GraphBuilder};
use crate::error::GraphError;
use crate::graph::UncertainGraph;
use crate::varint;
use std::io::{BufRead, Write};
use std::path::Path;

/// Leading magic of the binary format ("Chameleon Uncertain Graph,
/// Binary").
pub(crate) const BINARY_MAGIC: [u8; 4] = *b"CUGB";

/// Current binary format version.
pub(crate) const BINARY_VERSION: u8 = 1;

/// Writes a graph in the text format.
pub fn write_text<W: Write>(graph: &UncertainGraph, mut out: W) -> Result<(), GraphError> {
    writeln!(
        out,
        "# uncertain graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    writeln!(out, "nodes {}", graph.num_nodes())?;
    for e in graph.edges() {
        writeln!(out, "{} {} {}", e.u, e.v, e.p)?;
    }
    Ok(())
}

/// Writes a graph to a file.
pub fn write_file<P: AsRef<Path>>(graph: &UncertainGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_text(graph, std::io::BufWriter::new(file))
}

/// Reads a graph in the text format, streaming one line at a time
/// through a reused buffer (no per-line allocation, no file-sized
/// buffering).
pub fn read_text<R: BufRead>(
    mut input: R,
    policy: DedupPolicy,
) -> Result<UncertainGraph, GraphError> {
    let mut builder = GraphBuilder::new(0).dedup_policy(policy);
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid node count: {rest:?}"),
            })?;
            // Checked at the deserialization boundary: a hostile header
            // beyond the dense-u32 node id space must not reach the
            // builder, where it would later wrap id arithmetic.
            if n > u32::MAX as usize {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("node count {n} exceeds the u32 id space"),
                });
            }
            builder.ensure_nodes(n);
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid {what}"),
            })
        };
        let u = parse_u32(parts.next(), "source node")?;
        let v = parse_u32(parts.next(), "target node")?;
        let p: f64 = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing probability".into(),
            })?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "invalid probability".into(),
            })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "trailing tokens".into(),
            });
        }
        builder.add_edge(u, v, p).map_err(|e| GraphError::Parse {
            line: lineno,
            message: e.to_string(),
        })?;
    }
    Ok(builder.build())
}

/// Writes a graph in the binary format (see module docs).
pub fn write_binary<W: Write>(graph: &UncertainGraph, mut out: W) -> Result<(), GraphError> {
    out.write_all(&BINARY_MAGIC)?;
    out.write_all(&[BINARY_VERSION])?;
    varint::write_u64(&mut out, graph.num_nodes() as u64)?;
    varint::write_u64(&mut out, graph.num_edges() as u64)?;
    for e in graph.edges() {
        varint::write_u64(&mut out, u64::from(e.u))?;
        varint::write_u64(&mut out, u64::from(e.v))?;
        out.write_all(&e.p.to_le_bytes())?;
    }
    Ok(())
}

fn binary_parse_err(message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Reads a graph in the binary format, streaming edge records one at a
/// time (memory stays O(graph), never O(file) on top of it).
pub(crate) fn read_binary<R: BufRead>(
    mut input: R,
    policy: DedupPolicy,
) -> Result<UncertainGraph, GraphError> {
    let mut header = [0u8; 5];
    input.read_exact(&mut header)?;
    if header[..4] != BINARY_MAGIC {
        return Err(binary_parse_err("bad magic: not a binary uncertain graph"));
    }
    if header[4] != BINARY_VERSION {
        return Err(binary_parse_err(format!(
            "unsupported binary format version {}",
            header[4]
        )));
    }
    let num_nodes = varint::read_u64(&mut input)?;
    if num_nodes > u64::from(u32::MAX) {
        // Same deserialization-boundary guard as the text header.
        return Err(binary_parse_err(format!(
            "node count {num_nodes} exceeds the u32 id space"
        )));
    }
    let num_edges = varint::read_u64(&mut input)?;
    let mut builder = GraphBuilder::new(0).dedup_policy(policy);
    builder.ensure_nodes(num_nodes as usize);
    for i in 0..num_edges {
        let edge_err = |e: String| binary_parse_err(format!("edge record {i}: {e}"));
        let u = varint::read_u64(&mut input)?;
        let v = varint::read_u64(&mut input)?;
        if u > u64::from(u32::MAX) || v > u64::from(u32::MAX) {
            return Err(edge_err(format!("endpoint out of u32 range ({u}, {v})")));
        }
        let mut p_bits = [0u8; 8];
        input.read_exact(&mut p_bits)?;
        builder
            .add_edge(u as u32, v as u32, f64::from_le_bytes(p_bits))
            .map_err(|e| edge_err(e.to_string()))?;
    }
    Ok(builder.build())
}

/// Reads a graph from a file, auto-detecting text vs binary format from
/// the leading magic bytes.
pub fn read_file<P: AsRef<Path>>(
    path: P,
    policy: DedupPolicy,
) -> Result<UncertainGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let is_binary = {
        let head = reader.fill_buf()?;
        head.len() >= 4 && head[..4] == BINARY_MAGIC
    };
    if is_binary {
        read_binary(reader, policy)
    } else {
        read_text(reader, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hostile::*;
    use crate::graph::probe_count;
    use proptest::prelude::*;

    fn sample_graph() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(5);
        g.add_edge(0, 1, 0.75).unwrap();
        g.add_edge(1, 2, 0.2).unwrap();
        g.add_edge(3, 4, 1.0).unwrap();
        g
    }

    #[test]
    fn roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(buf.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.num_edges(), 3);
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.p - b.p).abs() < 1e-15);
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("chameleon-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        write_file(&g, &path).unwrap();
        let g2 = read_file(&path, DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_edges(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nnodes 3\n0 1 0.5\n# middle\n1 2 0.25\n";
        let g = read_text(text.as_bytes(), DedupPolicy::Reject).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn node_count_inferred_without_header() {
        let text = "0 9 0.5\n";
        let g = read_text(text.as_bytes(), DedupPolicy::Reject).unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn header_can_exceed_max_endpoint() {
        let text = "nodes 20\n0 1 0.5\n";
        let g = read_text(text.as_bytes(), DedupPolicy::Reject).unwrap();
        assert_eq!(g.num_nodes(), 20);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_prob = "0 1 nope\n";
        match read_text(bad_prob.as_bytes(), DedupPolicy::Reject) {
            Err(GraphError::Parse { line: 1, message }) => {
                assert!(message.contains("probability"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let missing = "nodes 3\n0\n";
        match read_text(missing.as_bytes(), DedupPolicy::Reject) {
            Err(GraphError::Parse { line: 2, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let trailing = "0 1 0.5 extra\n";
        assert!(matches!(
            read_text(trailing.as_bytes(), DedupPolicy::Reject),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn self_loop_rejected_with_line() {
        let text = "2 2 0.5\n";
        match read_text(text.as_bytes(), DedupPolicy::Reject) {
            Err(GraphError::Parse { line: 1, message }) => {
                assert!(message.contains("self-loop"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn duplicate_policy_applied() {
        let text = "0 1 0.5\n1 0 0.9\n";
        let g = read_text(text.as_bytes(), DedupPolicy::KeepLast).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!((g.prob(0) - 0.9).abs() < 1e-15);
        assert!(read_text(text.as_bytes(), DedupPolicy::Reject).is_err());
    }

    #[test]
    fn oversized_node_header_rejected() {
        let text = format!("nodes {}\n0 1 0.5\n", u32::MAX as u64 + 1);
        match read_text(text.as_bytes(), DedupPolicy::Reject) {
            Err(GraphError::Parse { line: 1, message }) => {
                assert!(message.contains("u32"), "message: {message}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_file("/nonexistent/chameleon/file.txt", DedupPolicy::Reject).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    /// Serializes a graph to the text format in memory.
    fn to_bytes(g: &UncertainGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_text(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn empty_graph_rewrites_byte_identically() {
        let g = UncertainGraph::with_nodes(0);
        let first = to_bytes(&g);
        let g2 = read_text(first.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_nodes(), 0);
        assert_eq!(g2.num_edges(), 0);
        assert_eq!(first, to_bytes(&g2));
    }

    #[test]
    fn single_edge_graph_rewrites_byte_identically() {
        let mut g = UncertainGraph::with_nodes(2);
        g.add_edge(0, 1, 0.123_456_789_012_345_67).unwrap();
        let first = to_bytes(&g);
        let g2 = read_text(first.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(first, to_bytes(&g2));
    }

    #[test]
    fn isolated_trailing_nodes_survive_the_roundtrip() {
        // Nodes above the largest endpoint only exist via the header.
        let mut g = UncertainGraph::with_nodes(7);
        g.add_edge(0, 1, 0.5).unwrap();
        let first = to_bytes(&g);
        let g2 = read_text(first.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_nodes(), 7);
        assert_eq!(first, to_bytes(&g2));
    }

    /// Serializes a graph to the binary format in memory.
    fn to_binary_bytes(g: &UncertainGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let g = sample_graph();
        let bytes = to_binary_bytes(&g);
        let g2 = read_binary(bytes.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
    }

    #[test]
    fn binary_file_roundtrip_and_autodetect() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("chameleon-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.cugb");
        std::fs::write(&path, to_binary_bytes(&g)).unwrap();
        // read_file sniffs the magic and dispatches to the binary reader.
        let sniffed = read_file(&path, DedupPolicy::Reject).unwrap();
        assert_eq!(sniffed.num_edges(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic_version_and_truncation() {
        let g = sample_graph();
        let good = to_binary_bytes(&g);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        match read_binary(bad_magic.as_slice(), DedupPolicy::Reject) {
            Err(GraphError::Parse { message, .. }) => assert!(message.contains("magic")),
            other => panic!("unexpected: {other:?}"),
        }

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        match read_binary(bad_version.as_slice(), DedupPolicy::Reject) {
            Err(GraphError::Parse { message, .. }) => assert!(message.contains("version")),
            other => panic!("unexpected: {other:?}"),
        }

        let truncated = &good[..good.len() - 3];
        assert!(matches!(
            read_binary(truncated, DedupPolicy::Reject),
            Err(GraphError::Io(_))
        ));
    }

    #[test]
    fn binary_rejects_invalid_probability_bits() {
        // Hand-build a record whose f64 bits decode to 7.0.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.push(BINARY_VERSION);
        bytes.push(2); // num_nodes
        bytes.push(1); // num_edges
        bytes.push(0); // u
        bytes.push(1); // v
        bytes.extend_from_slice(&7.0f64.to_le_bytes());
        match read_binary(bytes.as_slice(), DedupPolicy::Reject) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("edge record 0"), "{message}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn binary_header_node_count_can_exceed_max_endpoint() {
        let mut builder = GraphBuilder::new(0);
        builder.add_edge(0, 1, 0.5).unwrap();
        builder.ensure_nodes(20);
        let g = builder.build();
        let bytes = to_binary_bytes(&g);
        let g2 = read_binary(bytes.as_slice(), DedupPolicy::Reject).unwrap();
        assert_eq!(g2.num_nodes(), 20);
        assert_eq!(bytes, to_binary_bytes(&g2));
    }

    /// Keys that defeat an unkeyed multiplicative hash, through both
    /// readers: a file of each shape lists every edge, then every edge
    /// again reversed, and reads back under each policy as the builder
    /// folds the same records, or fails at the first duplicate under
    /// `Reject`, with short probes.
    #[test]
    fn hostile_keys_read_back_under_every_policy() {
        for shape in hostile_shapes(16) {
            let m = shape.present.len();
            let records: Vec<_> = (shape.present.iter().enumerate())
                .map(|(i, &(u, v))| (v, u, (i % 9) as f64 / 8.0))
                .chain(
                    (shape.present.iter().enumerate())
                        .map(|(i, &(u, v))| (u, v, (i % 5) as f64 / 4.0)),
                )
                .collect();
            let mut text = format!("nodes {}\n", shape.nodes());
            let mut binary = BINARY_MAGIC.to_vec();
            binary.push(BINARY_VERSION);
            varint::write_u64(&mut binary, shape.nodes() as u64).unwrap();
            varint::write_u64(&mut binary, records.len() as u64).unwrap();
            for &(u, v, p) in &records {
                text += &format!("{u} {v} {p}\n");
                varint::write_u64(&mut binary, u64::from(u)).unwrap();
                varint::write_u64(&mut binary, u64::from(v)).unwrap();
                binary.extend_from_slice(&p.to_le_bytes());
            }
            for policy in [
                DedupPolicy::KeepFirst,
                DedupPolicy::KeepLast,
                DedupPolicy::KeepMax,
                DedupPolicy::NoisyOr,
                DedupPolicy::Reject,
            ] {
                let mut builder = GraphBuilder::new(0).dedup_policy(policy);
                builder.ensure_nodes(shape.nodes());
                let built = (records.iter())
                    .try_for_each(|&(u, v, p)| builder.add_edge(u, v, p))
                    .map(|()| builder.build());
                probe_count::take();
                let from_text = read_text(text.as_bytes(), policy);
                let from_binary = read_binary(binary.as_slice(), policy);
                let reads = if policy == DedupPolicy::Reject {
                    m + 1
                } else {
                    2 * m
                };
                let (mean, longest) = INSERT_BOUND;
                assert_probes(shape.name, 2 * reads, mean, longest);
                match built {
                    Ok(built) => {
                        for g in [from_text.unwrap(), from_binary.unwrap()] {
                            assert_eq!(g.num_nodes(), built.num_nodes());
                            assert_eq!(g.edges(), built.edges(), "{policy:?}");
                        }
                    }
                    Err(err) => {
                        assert_eq!(
                            err,
                            GraphError::DuplicateEdge(shape.present[0].0, shape.present[0].1)
                        );
                        assert!(matches!(
                            from_text,
                            Err(GraphError::Parse { line, message })
                                if line == m + 2 && message == err.to_string()
                        ));
                        assert!(matches!(
                            from_binary,
                            Err(GraphError::Parse { message, .. })
                                if message == format!("edge record {m}: {err}")
                        ));
                    }
                }
            }
        }
    }

    proptest! {
        /// The binary analogue of `rewrite_is_byte_identical`: canonical
        /// varints plus exact f64 bits make write → read → re-write a
        /// byte-level fixed point for canonically built graphs.
        #[test]
        fn binary_rewrite_is_byte_identical(
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0.0f64..=1.0), 0..120),
            extra_nodes in 0usize..10
        ) {
            let mut builder = crate::builder::GraphBuilder::new(0);
            for (u, v, p) in edges {
                let _ = builder.add_edge(u, v, p);
            }
            builder.ensure_nodes(extra_nodes);
            let g = builder.build();
            let first = to_binary_bytes(&g);
            let reread = read_binary(first.as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(&first, &to_binary_bytes(&reread));
            let reread2 = read_binary(first.as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(&first, &to_binary_bytes(&reread2));
        }

        /// Binary and text readers agree on the graphs they produce.
        #[test]
        fn binary_and_text_agree(
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0.0f64..=1.0), 0..60),
        ) {
            let mut builder = crate::builder::GraphBuilder::new(0);
            for (u, v, p) in edges {
                let _ = builder.add_edge(u, v, p);
            }
            let g = builder.build();
            let from_text =
                read_text(to_bytes(&g).as_slice(), DedupPolicy::Reject).unwrap();
            let from_binary =
                read_binary(to_binary_bytes(&g).as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(from_text.num_nodes(), from_binary.num_nodes());
            prop_assert_eq!(from_text.num_edges(), from_binary.num_edges());
            for (a, b) in from_text.edges().iter().zip(from_binary.edges()) {
                prop_assert_eq!((a.u, a.v), (b.u, b.v));
                prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
        }
    }

    proptest! {
        /// The strongest fixed-point property the format supports: a
        /// write → read → re-write cycle reproduces the exact bytes, so
        /// published releases are stable under re-serialization (edge
        /// order, node count header, and every probability's shortest
        /// `Display` form are all preserved).
        #[test]
        fn rewrite_is_byte_identical(
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0.0f64..=1.0), 0..120),
            extra_nodes in 0usize..10
        ) {
            let mut builder = crate::builder::GraphBuilder::new(0);
            for (u, v, p) in edges {
                let _ = builder.add_edge(u, v, p);
            }
            builder.ensure_nodes(extra_nodes);
            let g = builder.build();
            let first = to_bytes(&g);
            let reread = read_text(first.as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(&first, &to_bytes(&reread));
            // And the cycle is idempotent, not merely involutive: a
            // second cycle starts from identical bytes, hence stays.
            let reread2 = read_text(first.as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(&first, &to_bytes(&reread2));
        }

        #[test]
        fn roundtrip_arbitrary_graphs(
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0.0f64..=1.0), 0..120),
            extra_nodes in 0usize..10
        ) {
            let mut builder = crate::builder::GraphBuilder::new(0);
            for (u, v, p) in edges {
                let _ = builder.add_edge(u, v, p);
            }
            builder.ensure_nodes(extra_nodes);
            let g = builder.build();
            let mut buf = Vec::new();
            write_text(&g, &mut buf).unwrap();
            let g2 = read_text(buf.as_slice(), DedupPolicy::Reject).unwrap();
            prop_assert_eq!(g.num_nodes(), g2.num_nodes());
            prop_assert_eq!(g.num_edges(), g2.num_edges());
            for (a, b) in g.edges().iter().zip(g2.edges()) {
                prop_assert_eq!((a.u, a.v), (b.u, b.v));
                // f64 Display round-trips exactly in Rust.
                prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
        }
    }
}
