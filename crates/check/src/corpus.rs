//! A table-driven corpus of malformed METIS inputs.
//!
//! Each entry is a named, deliberately-broken graph file together with the
//! error class the reader must produce. The corpus backs both the
//! `mcgp-check` regression tests and the CLI tests that `mcgp check` exits
//! non-zero with a readable diagnostic on every one of them. Files that are
//! not UTF-8 live in their own byte table, and a third table lists
//! byte-level spellings (CRLF, other separators, signed tokens) that must
//! read exactly like their canonical form.

/// Which [`mcgp_graph::McgpError`] variant a corpus entry must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedError {
    /// `McgpError::Parse { .. }` with line context.
    Parse,
    /// `McgpError::Overflow { .. }`.
    Overflow,
    /// Structural rejection from CSR construction
    /// (`Malformed` or `NotUndirected`).
    Structure,
}

/// One malformed graph file: `(name, contents, expected error class)`.
pub type CorpusEntry = (&'static str, &'static str, ExpectedError);

/// The malformed-METIS corpus. Every entry must be rejected by
/// `read_metis` with the given typed error — never a panic, never a
/// silently-coerced graph.
pub const MALFORMED_GRAPHS: &[CorpusEntry] = &[
    ("empty file", "", ExpectedError::Parse),
    ("comments only", "% nothing here\n% still nothing\n", ExpectedError::Parse),
    ("header too short", "4\n", ExpectedError::Parse),
    ("header too long", "4 3 011 2 9\n", ExpectedError::Parse),
    ("non-numeric nvtxs", "x 3\n1 2\n", ExpectedError::Parse),
    ("non-numeric nedges", "2 y\n2\n1\n", ExpectedError::Parse),
    ("malformed fmt digits", "2 1 019\n2\n1\n", ExpectedError::Parse),
    ("non-numeric fmt", "2 1 ab\n2\n1\n", ExpectedError::Parse),
    ("vertex sizes unsupported", "2 1 100\n1 2\n1 1\n", ExpectedError::Parse),
    ("zero ncon", "2 1 011 0\n5 2 9\n7 1 9\n", ExpectedError::Parse),
    ("ncon without vwgt flag", "2 1 001 2\n2 9\n1 9\n", ExpectedError::Parse),
    ("body missing", "3 2\n", ExpectedError::Parse),
    (
        "header/body mismatch: too few vertex lines",
        "3 2\n2\n1 3\n",
        ExpectedError::Parse,
    ),
    (
        "header/body mismatch: extra vertex line",
        "2 1\n2\n1\n1\n",
        ExpectedError::Parse,
    ),
    (
        "header/body mismatch: edge count",
        "3 5\n2\n1 3\n2\n",
        ExpectedError::Parse,
    ),
    ("self-loop", "2 2\n1 2\n1 2\n", ExpectedError::Structure),
    ("asymmetric edge", "3 2\n2 3\n1 3\n\n", ExpectedError::Structure),
    (
        "asymmetric edge weight",
        "2 1 001\n2 5\n1 7\n",
        ExpectedError::Structure,
    ),
    ("duplicate edge", "2 2\n2 2\n1 1\n", ExpectedError::Structure),
    ("non-numeric weight", "2 1 010\nx 2\n7 1\n", ExpectedError::Parse),
    ("negative vertex weight", "2 1 010\n-5 2\n7 1\n", ExpectedError::Parse),
    (
        "missing vertex weight",
        "2 1 011 2\n5 2 9\n7 8 1 9\n",
        ExpectedError::Parse,
    ),
    ("missing edge weight", "2 1 001\n2\n1 4\n", ExpectedError::Parse),
    ("neighbor id zero", "2 1\n0\n1\n", ExpectedError::Parse),
    ("huge neighbor id", "2 1\n999999999\n1\n", ExpectedError::Parse),
    (
        "vertex count beyond u32",
        "4294967296 0\n",
        ExpectedError::Overflow,
    ),
    ("huge ncon", "2 1 011 9999\n5 2 9\n7 1 9\n", ExpectedError::Overflow),
    (
        "vertex weight beyond i64",
        "2 1 010\n9223372036854775808 2\n7 1\n",
        ExpectedError::Parse,
    ),
    (
        "edge weight beyond i64",
        "2 1 001\n2 -9223372036854775809\n1 1\n",
        ExpectedError::Parse,
    ),
    (
        "NUL byte in a token",
        "2 1\n2\u{0}\n1\n",
        ExpectedError::Parse,
    ),
    (
        "NBSP as a separator",
        "3 2\n2\u{a0}3\n1\n1\n",
        ExpectedError::Parse,
    ),
];

/// Malformed graph files that are not valid UTF-8, so they cannot be
/// `&str` entries of [`MALFORMED_GRAPHS`]: `(name, bytes, expected error)`.
pub const MALFORMED_GRAPH_BYTES: &[(&str, &[u8], ExpectedError)] = &[
    (
        "invalid UTF-8 in a token",
        b"2 1\n2\xff\n1\n",
        ExpectedError::Parse,
    ),
    (
        "invalid UTF-8 between tokens",
        b"3 2\n2 \xc3 3\n1\n1\n",
        ExpectedError::Parse,
    ),
];

/// Byte-level spellings the reader accepts: `(name, variant, canonical)`.
/// Each variant must parse to the same graph as its LF- and
/// space-separated canonical form.
pub const EQUIVALENT_GRAPHS: &[(&str, &[u8], &str)] = &[
    (
        "CRLF line ends",
        b"% comment\r\n3 2 001\r\n2 5 3 7\r\n1 5\r\n1 7\r\n",
        "% comment\n3 2 001\n2 5 3 7\n1 5\n1 7\n",
    ),
    (
        "tab separators",
        b"3\t2\t001\n2\t5\t3 7\n\t1 5\t\n1\t\t7\n",
        "3 2 001\n2 5 3 7\n1 5\n1 7\n",
    ),
    (
        "vertical tab and form feed separators",
        b"3\x0b2 001\n2\x0c5\x0b3 7\n1 5\x0c\n1 7\n",
        "3 2 001\n2 5 3 7\n1 5\n1 7\n",
    ),
    (
        "plus-signed tokens",
        b"+3 +2 001\n+2 +5 +3 7\n1 +5\n+1 +7\n",
        "3 2 001\n2 5 3 7\n1 5\n1 7\n",
    ),
    (
        "plus-signed weights and leading zeros",
        b"2 1 011 2\n+5 06 2 +9\n7 8 01 009\n",
        "2 1 011 2\n5 6 2 9\n7 8 1 9\n",
    ),
];

/// Malformed `.part` files: `(name, contents)`. Each must be rejected by
/// `read_partition_bounded(_, 4)` with a `Parse` error naming a line.
pub const MALFORMED_PARTITIONS: &[(&str, &str)] = &[
    ("non-numeric id", "0\nx\n1\n"),
    ("negative id", "0\n-1\n"),
    ("float id", "0\n1.5\n"),
    ("out of range id", "0\n3\n4\n"),
    ("huge id", "0\n99999999999999999999\n"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::io::{read_metis, read_partition_bounded};
    use mcgp_graph::McgpError;

    /// The `(line, col)` every `Parse` entry of the graph corpora must
    /// report. The entries that predate the byte scanner keep the
    /// positions the line-based reader gave them.
    const PARSE_POSITIONS: &[(&str, usize, usize)] = &[
        ("empty file", 0, 0),
        ("comments only", 0, 0),
        ("header too short", 1, 0),
        ("header too long", 1, 0),
        ("non-numeric nvtxs", 1, 1),
        ("non-numeric nedges", 1, 2),
        ("malformed fmt digits", 1, 3),
        ("non-numeric fmt", 1, 3),
        ("vertex sizes unsupported", 1, 3),
        ("zero ncon", 1, 4),
        ("ncon without vwgt flag", 1, 4),
        ("body missing", 1, 0),
        ("header/body mismatch: too few vertex lines", 1, 0),
        ("header/body mismatch: extra vertex line", 4, 0),
        ("header/body mismatch: edge count", 1, 0),
        ("non-numeric weight", 2, 1),
        ("negative vertex weight", 2, 1),
        ("missing vertex weight", 2, 3),
        ("missing edge weight", 2, 1),
        ("neighbor id zero", 2, 1),
        ("huge neighbor id", 2, 1),
        ("vertex weight beyond i64", 2, 1),
        ("edge weight beyond i64", 2, 2),
        ("NUL byte in a token", 2, 1),
        ("NBSP as a separator", 2, 1),
        ("invalid UTF-8 in a token", 2, 1),
        ("invalid UTF-8 between tokens", 2, 2),
    ];

    fn check_entry(name: &str, bytes: &[u8], expected: ExpectedError) {
        let err = read_metis(bytes)
            .err()
            .unwrap_or_else(|| panic!("corpus `{name}` was accepted"));
        let ok = match expected {
            ExpectedError::Parse => matches!(err, McgpError::Parse { .. }),
            ExpectedError::Overflow => matches!(err, McgpError::Overflow { .. }),
            ExpectedError::Structure => {
                matches!(err, McgpError::Malformed(_) | McgpError::NotUndirected(_))
            }
        };
        assert!(ok, "corpus `{name}`: expected {expected:?}, got {err:?}");
        if let McgpError::Parse { line, col, .. } = err {
            let &(_, want_line, want_col) = PARSE_POSITIONS
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("corpus `{name}` has no pinned position"));
            assert_eq!((line, col), (want_line, want_col), "corpus `{name}`");
        }
        // Every diagnostic renders to something readable.
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn every_graph_entry_is_rejected_with_its_typed_error() {
        for &(name, text, expected) in MALFORMED_GRAPHS {
            check_entry(name, text.as_bytes(), expected);
        }
        for &(name, bytes, expected) in MALFORMED_GRAPH_BYTES {
            check_entry(name, bytes, expected);
        }
    }

    #[test]
    fn equivalent_spellings_parse_to_the_canonical_graph() {
        for &(name, variant, canonical) in EQUIVALENT_GRAPHS {
            let want = read_metis(canonical.as_bytes())
                .unwrap_or_else(|e| panic!("`{name}`: canonical form rejected: {e}"));
            let got =
                read_metis(variant).unwrap_or_else(|e| panic!("`{name}`: variant rejected: {e}"));
            assert_eq!(got, want, "`{name}`");
        }
    }

    #[test]
    fn every_partition_entry_is_rejected_with_line_context() {
        for &(name, text) in MALFORMED_PARTITIONS {
            match read_partition_bounded(text.as_bytes(), 4) {
                Err(McgpError::Parse { line, .. }) => {
                    assert!(line > 0, "corpus `{name}`: missing line context")
                }
                other => panic!("corpus `{name}`: expected parse error, got {other:?}"),
            }
        }
    }
}
