//! METIS/Chaco graph-file format I/O, including the multi-constraint
//! extension (`fmt`/`ncon` header fields), so workloads can be exchanged
//! with METIS, ParMETIS, Scotch, and KaHIP.
//!
//! Format recap — header line `nvtxs nedges [fmt [ncon]]` where `fmt` is a
//! three-digit flag string: hundreds = vertex sizes (unsupported here,
//! rejected), tens = vertex weights present, ones = edge weights present.
//! Each subsequent non-comment line lists one vertex: its `ncon` weights (if
//! any) followed by `neighbor [edge-weight]` pairs with **1-based** vertex
//! ids. `%`-prefixed lines are comments.
//!
//! The readers scan bytes in place: lines end at `\n`, tokens are separated
//! by the ASCII members of Unicode White_Space (space, `\t`, `\x0b`, `\x0c`,
//! `\r`), and integers are accumulated digit by digit with the grammar of
//! `str::parse` (an optional leading `+`, and `-` on signed fields). Nothing
//! is allocated per line or per token; error text is built only when a
//! diagnostic is returned.
//!
//! The reader is hardened against untrusted input: every malformed construct
//! produces a typed [`McgpError::Parse`] with line (and token) context,
//! quantities that would not fit the `u32` adjacency index width produce
//! [`McgpError::Overflow`], and declared sizes never drive unbounded
//! allocations. Any other byte — NUL, a non-ASCII space such as NBSP, or
//! invalid UTF-8 — is part of a token and fails that token's parse.

use crate::csr::{Graph, Vertex};
use crate::{McgpError, Result};
use std::io::{Read, Write};
use std::path::Path;

/// Upper bound on the number of balance constraints a file may declare.
/// METIS itself is compiled with a small fixed cap; the paper never exceeds
/// 5. This guards the `nvtxs * ncon` weight-array allocation.
pub const MAX_NCON: usize = 255;

/// Cap on speculative `Vec::with_capacity` reservations driven by header
/// fields, so a malicious header cannot trigger a huge up-front allocation;
/// the vectors still grow on demand while parsing real data.
const MAX_PREALLOC: usize = 1 << 22;

/// Size at which the writers hand their output buffer to the writer.
const WRITE_CHUNK: usize = 1 << 16;

/// Byte classes of the scanner: token separators (the ASCII members of
/// Unicode White_Space other than the line break) and the line break.
/// `u8::is_ascii_whitespace` omits `\x0b`, which `str::split_whitespace` —
/// the grammar of earlier readers — splits on, so the set is spelled out.
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    class[b' ' as usize] = SPACE;
    class[b'\t' as usize] = SPACE;
    class[0x0b] = SPACE;
    class[0x0c] = SPACE;
    class[b'\r' as usize] = SPACE;
    class[b'\n' as usize] = NEWLINE;
    class
};

/// A cursor over a body that hands out lines and the tokens within them
/// in one pass over the bytes. Lines are numbered from 1 as
/// `BufRead::lines` numbers them: a final line without a newline counts,
/// the empty remainder after a final newline does not. Tokens are numbered
/// from 1 within their line, which is what [`McgpError::Parse`] reports as
/// `col`.
struct Scanner<'a> {
    body: &'a [u8],
    pos: usize,
    /// Start of the current line.
    start: usize,
    line: usize,
    col: usize,
}

impl<'a> Scanner<'a> {
    fn new(body: &'a [u8]) -> Self {
        Scanner {
            body,
            pos: 0,
            start: 0,
            line: 0,
            col: 0,
        }
    }

    /// Moves past the rest of the current line to the next one; `false`
    /// once the body is exhausted.
    fn next_line(&mut self) -> bool {
        if self.line > 0 {
            self.pos = match self.body[self.pos..].iter().position(|&b| b == b'\n') {
                Some(i) => self.pos + i + 1,
                None => self.body.len(),
            };
        }
        if self.pos >= self.body.len() {
            return false;
        }
        self.start = self.pos;
        self.line += 1;
        self.col = 0;
        true
    }

    /// The first byte of the current line's next token, if any.
    #[inline(always)]
    fn peek(&mut self) -> Option<u8> {
        let body = self.body;
        while self.pos < body.len() && CLASS[body[self.pos] as usize] == SPACE {
            self.pos += 1;
        }
        body.get(self.pos).copied().filter(|&b| b != b'\n')
    }

    /// True when the rest of the current line is blank or a `%` comment.
    fn skippable(&mut self) -> bool {
        matches!(self.peek(), None | Some(b'%'))
    }

    /// The current line's next token and its column.
    #[inline]
    fn token(&mut self) -> Option<(usize, &'a [u8])> {
        self.number().map(|(col, tok, _)| (col, tok))
    }

    /// The current line's next token and its column, with its value when
    /// the token is a run of at most 19 digits (which always fits a
    /// `u64`). The digits are accumulated as the token is scanned, so the
    /// common case reads each byte once; any other token comes back with
    /// `None` for the parsers below. (Forced inline, with `peek`: left to
    /// LLVM, both stayed calls and `read_metis` ran about 10 % slower.)
    #[inline(always)]
    fn number(&mut self) -> Option<(usize, &'a [u8], Option<u64>)> {
        self.peek()?;
        let body = self.body;
        let start = self.pos;
        let mut i = start;
        let mut acc = 0u64;
        while i < body.len() {
            let d = body[i].wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            acc = acc.wrapping_mul(10).wrapping_add(u64::from(d));
            i += 1;
        }
        let digits = i - start;
        while i < body.len() && CLASS[body[i] as usize] == 0 {
            i += 1;
        }
        self.pos = i;
        self.col += 1;
        let value = (digits == i - start && digits <= 19).then_some(acc);
        Some((self.col, &body[start..i], value))
    }

    /// The current line without its newline and surrounding separators.
    fn trimmed_line(&self) -> &'a [u8] {
        let rest = &self.body[self.start..];
        let line = &rest[..rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len())];
        let is_space = |b: &&u8| CLASS[**b as usize] == SPACE;
        let lead = line.iter().take_while(is_space).count();
        let line = &line[lead..];
        let tail = line.iter().rev().take_while(is_space).count();
        &line[..line.len() - tail]
    }
}

/// One or more ASCII digits as a `u64`; `None` on any other byte or on
/// overflow.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then_some(())?;
        acc.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// `str::parse::<usize>` on bytes: an optional `+`, then digits.
fn parse_usize(tok: &[u8]) -> Option<usize> {
    parse_digits(tok.strip_prefix(b"+").unwrap_or(tok)).and_then(|v| usize::try_from(v).ok())
}

/// `str::parse::<i64>` on bytes: an optional `+` or `-`, then digits.
fn parse_i64(tok: &[u8]) -> Option<i64> {
    let (negative, digits) = match tok {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, tok),
    };
    let magnitude = parse_digits(digits)?;
    if negative {
        // i64::MIN's magnitude is one past i64::MAX.
        (magnitude <= i64::MIN.unsigned_abs()).then(|| (magnitude as i64).wrapping_neg())
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// A token's value as a `usize`, from [`Scanner::number`]'s digit run when
/// it has one.
#[inline]
fn as_usize(value: Option<u64>, tok: &[u8]) -> Option<usize> {
    match value {
        Some(v) => usize::try_from(v).ok(),
        None => parse_usize(tok),
    }
}

/// A token's value as an `i64`, from [`Scanner::number`]'s digit run when
/// it has one.
#[inline]
fn as_i64(value: Option<u64>, tok: &[u8]) -> Option<i64> {
    match value {
        Some(v) => i64::try_from(v).ok(),
        None => parse_i64(tok),
    }
}

/// The diagnostic for a token that does not parse as a `what`; the token
/// is shown as text, invalid UTF-8 replaced.
#[cold]
#[inline(never)]
fn invalid(line: usize, col: usize, what: &str, tok: &[u8]) -> McgpError {
    McgpError::Parse {
        line,
        col,
        msg: format!("invalid {what} `{}`", String::from_utf8_lossy(tok)),
    }
}

/// Reads a METIS-format graph from its bytes.
pub fn read_metis(body: &[u8]) -> Result<Graph> {
    let mut scan = Scanner::new(body);

    // Header: the first line that is neither blank nor a comment.
    loop {
        if !scan.next_line() {
            return Err(McgpError::parse(0, "empty file"));
        }
        if !scan.skippable() {
            break;
        }
    }
    let header_line_no = scan.line;
    let mut fields: [&[u8]; 4] = [b""; 4];
    let mut nfields = 0;
    while let Some((_, tok)) = scan.token() {
        if let Some(slot) = fields.get_mut(nfields) {
            *slot = tok;
        }
        nfields += 1;
    }
    if !(2..=4).contains(&nfields) {
        return Err(McgpError::parse(
            header_line_no,
            format!("header must have 2-4 fields, got {nfields}"),
        ));
    }
    let header_usize = |col: usize| -> Result<usize> {
        let tok = fields[col - 1];
        parse_usize(tok).ok_or_else(|| invalid(header_line_no, col, "integer", tok))
    };
    let nvtxs = header_usize(1)?;
    let nedges = header_usize(2)?;
    // Adjacency indices are u32: a vertex count beyond that width cannot be
    // represented, and `2 * nedges` must not overflow usize either.
    if nvtxs > Vertex::MAX as usize {
        return Err(McgpError::Overflow {
            what: "vertex count",
            value: nvtxs as u128,
            limit: Vertex::MAX as u128,
        });
    }
    let declared_adj = nedges.checked_mul(2).ok_or(McgpError::Overflow {
        what: "edge count",
        value: nedges as u128,
        limit: (usize::MAX / 2) as u128,
    })?;
    // The `fmt` flag string: 1-3 binary digits (hundreds = vertex sizes,
    // tens = vertex weights, ones = edge weights). Anything else — including
    // digits other than 0/1, which older readers silently coerced — is a
    // parse error, never a silent "no weights" default.
    let fmt: &[u8] = if nfields >= 3 { fields[2] } else { b"000" };
    if fmt.is_empty() || fmt.len() > 3 || fmt.iter().any(|&c| c != b'0' && c != b'1') {
        return Err(McgpError::Parse {
            line: header_line_no,
            col: 3,
            msg: format!(
                "invalid fmt field `{}` (want 1-3 binary digits, e.g. 011)",
                String::from_utf8_lossy(fmt)
            ),
        });
    }
    // Digit `place` of the flag string counted from the right, as if it
    // were zero-padded to three digits.
    let flag = |place: usize| fmt.len() > place && fmt[fmt.len() - 1 - place] == b'1';
    let (has_vsize, has_vwgt, has_ewgt) = (flag(2), flag(1), flag(0));
    if has_vsize {
        return Err(McgpError::Parse {
            line: header_line_no,
            col: 3,
            msg: "vertex sizes (fmt=1xx) are not supported".into(),
        });
    }
    let ncon = if nfields == 4 {
        let n = header_usize(4)?;
        if n == 0 {
            return Err(McgpError::Parse {
                line: header_line_no,
                col: 4,
                msg: "ncon must be >= 1".into(),
            });
        }
        if n > MAX_NCON {
            return Err(McgpError::Overflow {
                what: "constraint count",
                value: n as u128,
                limit: MAX_NCON as u128,
            });
        }
        if !has_vwgt && n > 1 {
            return Err(McgpError::Parse {
                line: header_line_no,
                col: 4,
                msg: format!("ncon {n} > 1 requires vertex weights (fmt tens digit = 1)"),
            });
        }
        n
    } else {
        1 // with or without vertex weights: a single constraint
    };
    // nvtxs <= u32::MAX and ncon <= 255, so this cannot overflow usize, but
    // keep the checked form as the single place the product is formed.
    let vwgt_len = nvtxs.checked_mul(ncon).ok_or(McgpError::Overflow {
        what: "nvtxs * ncon",
        value: nvtxs as u128 * ncon as u128,
        limit: usize::MAX as u128,
    })?;

    let mut xadj = Vec::with_capacity((nvtxs + 1).min(MAX_PREALLOC));
    xadj.push(0usize);
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(declared_adj.min(MAX_PREALLOC));
    let mut adjwgt: Vec<i64> = Vec::with_capacity(declared_adj.min(MAX_PREALLOC));
    let mut vwgt: Vec<i64> = Vec::with_capacity(vwgt_len.min(MAX_PREALLOC));

    let mut vertex = 0usize;
    while scan.next_line() {
        let line_no = scan.line;
        if scan.peek() == Some(b'%') {
            continue;
        }
        if vertex >= nvtxs {
            if scan.peek().is_none() {
                continue;
            }
            return Err(McgpError::parse(
                line_no,
                format!("more than {nvtxs} vertex lines"),
            ));
        }
        if has_vwgt {
            for c in 0..ncon {
                let (col, tok, value) = scan.number().ok_or_else(|| McgpError::Parse {
                    line: line_no,
                    col: c + 1, // the token that *should* have been here
                    msg: format!(
                        "vertex {}: missing weight {} of {}",
                        vertex + 1,
                        c + 1,
                        ncon
                    ),
                })?;
                let w = as_i64(value, tok).ok_or_else(|| invalid(line_no, col, "weight", tok))?;
                if w < 0 {
                    return Err(McgpError::Parse {
                        line: line_no,
                        col,
                        msg: format!("negative vertex weight {w}"),
                    });
                }
                vwgt.push(w);
            }
        } else {
            vwgt.extend(std::iter::repeat_n(1, ncon));
        }
        while let Some((col, tok, value)) = scan.number() {
            let u =
                as_usize(value, tok).ok_or_else(|| invalid(line_no, col, "neighbor id", tok))?;
            if u == 0 || u > nvtxs {
                return Err(McgpError::Parse {
                    line: line_no,
                    col,
                    msg: format!("neighbor id {u} out of range 1..={nvtxs}"),
                });
            }
            let w = if has_ewgt {
                let (wcol, tok, value) = scan.number().ok_or_else(|| McgpError::Parse {
                    line: line_no,
                    col,
                    msg: format!("neighbor {u}: missing edge weight"),
                })?;
                as_i64(value, tok).ok_or_else(|| invalid(line_no, wcol, "edge weight", tok))?
            } else {
                1i64
            };
            // u <= nvtxs <= u32::MAX, so the narrowing below is exact.
            adjncy.push((u - 1) as Vertex);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
        vertex += 1;
    }
    // Both mismatches are violations of what the header (not any one body
    // line) declared, so point the diagnostic there.
    if vertex != nvtxs {
        return Err(McgpError::parse(
            header_line_no,
            format!("expected {nvtxs} vertex lines, found {vertex}"),
        ));
    }
    if adjncy.len() != declared_adj {
        return Err(McgpError::parse(
            header_line_no,
            format!(
                "header declares {nedges} edges but adjacency lists contain {} entries (expected {declared_adj})",
                adjncy.len(),
            ),
        ));
    }
    Graph::from_csr(ncon, xadj, adjncy, adjwgt, vwgt)
}

/// Reads a METIS-format graph from a file.
pub fn read_metis_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    read_metis(&std::fs::read(path)?)
}

/// Appends the decimal form of `v`, as `write!("{v}")` renders it.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends the decimal form of `v`, as `write!("{v}")` renders it.
fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Hands `out` to `writer` once it has grown past [`WRITE_CHUNK`].
fn spill<W: Write>(out: &mut Vec<u8>, writer: &mut W) -> Result<()> {
    if out.len() >= WRITE_CHUNK {
        writer.write_all(out)?;
        out.clear();
    }
    Ok(())
}

/// Writes a graph in METIS format. Vertex and edge weights are always
/// emitted (`fmt = 011`), with `ncon` in the header when it exceeds 1.
pub fn write_metis<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    let mut out = Vec::with_capacity(2 * WRITE_CHUNK);
    push_u64(&mut out, graph.nvtxs() as u64);
    out.push(b' ');
    push_u64(&mut out, graph.nedges() as u64);
    out.extend_from_slice(b" 011");
    if graph.ncon() > 1 {
        out.push(b' ');
        push_u64(&mut out, graph.ncon() as u64);
    }
    out.push(b'\n');
    for v in 0..graph.nvtxs() {
        let start = out.len();
        for &wt in graph.vwgt(v) {
            push_i64(&mut out, wt);
            out.push(b' ');
        }
        for (u, ew) in graph.edges(v) {
            push_u64(&mut out, u64::from(u) + 1);
            out.push(b' ');
            push_i64(&mut out, ew);
            out.push(b' ');
        }
        if out.len() > start {
            out.pop(); // the separator after the last token
        }
        out.push(b'\n');
        spill(&mut out, &mut writer)?;
    }
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

/// Writes a graph to a METIS-format file.
pub fn write_metis_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<()> {
    write_metis(graph, std::fs::File::create(path)?)
}

/// Writes a partition vector in METIS `.part` format (one part id per line).
pub fn write_partition<W: Write>(assignment: &[u32], mut writer: W) -> Result<()> {
    let mut out = Vec::with_capacity(2 * WRITE_CHUNK);
    for &p in assignment {
        push_u64(&mut out, u64::from(p));
        out.push(b'\n');
        spill(&mut out, &mut writer)?;
    }
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

/// Reads a METIS `.part` file with no expectation about the number of
/// subdomains. Prefer [`read_partition_bounded`] when `nparts` is known: it
/// rejects out-of-range part ids with the offending line instead of handing
/// an invalid assignment to downstream metrics.
pub fn read_partition<R: Read>(reader: R) -> Result<Vec<u32>> {
    read_partition_impl(reader, None)
}

/// Reads a METIS `.part` file, rejecting any part id `>= nparts` with a
/// typed error naming the offending line.
pub fn read_partition_bounded<R: Read>(reader: R, nparts: usize) -> Result<Vec<u32>> {
    read_partition_impl(reader, Some(nparts))
}

fn read_partition_impl<R: Read>(mut reader: R, nparts: Option<usize>) -> Result<Vec<u32>> {
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    let mut out = Vec::new();
    let mut scan = Scanner::new(&body);
    while scan.next_line() {
        let line_no = scan.line;
        if scan.skippable() {
            continue;
        }
        // The whole trimmed line is the id: a second token makes it invalid.
        let p = scan
            .token()
            .filter(|_| scan.peek().is_none())
            .and_then(|(_, tok)| parse_usize(tok))
            .and_then(|p| u32::try_from(p).ok())
            .ok_or_else(|| invalid(line_no, 1, "part id", scan.trimmed_line()))?;
        if let Some(k) = nparts {
            if p as usize >= k {
                return Err(McgpError::Parse {
                    line: line_no,
                    col: 1,
                    msg: format!("part id {p} out of range 0..{k}"),
                });
            }
        }
        out.push(p);
    }
    Ok(out)
}

/// Reads a graph from the JSON-CSR object format the serving layer accepts
/// alongside METIS text:
///
/// ```json
/// {
///   "ncon": 1,
///   "xadj": [0, 2, 4, 6],
///   "adjncy": [1, 2, 0, 2, 0, 1],
///   "adjwgt": [1, 1, 1, 1, 1, 1],
///   "vwgt": [1, 1, 1]
/// }
/// ```
///
/// `adjwgt` and `vwgt` are optional (default: unit weights); `ncon`
/// defaults to 1 and is capped at [`MAX_NCON`]. The arrays go through the
/// full [`Graph::from_csr`] validation, so malformed structure (asymmetry,
/// self-loops, range errors, negative weights) surfaces as the same typed
/// [`McgpError`]s the METIS reader produces — never a panic.
pub fn graph_from_json(text: &str) -> Result<Graph> {
    use mcgp_runtime::Json;

    let root = Json::parse(text)
        .map_err(|e| McgpError::parse(0, format!("invalid JSON: {e}")))?;
    if root.get("xadj").is_none() {
        return Err(McgpError::parse(
            0,
            "JSON graph must be an object with an `xadj` array",
        ));
    }

    fn int_array(root: &Json, key: &str) -> Result<Option<Vec<i64>>> {
        let Some(v) = root.get(key) else {
            return Ok(None);
        };
        let arr = v.as_arr().ok_or_else(|| {
            McgpError::parse(0, format!("JSON graph field `{key}` must be an array"))
        })?;
        arr.iter()
            .enumerate()
            .map(|(i, x)| {
                x.as_i64().ok_or_else(|| {
                    McgpError::parse(
                        0,
                        format!("JSON graph field `{key}`[{i}] must be an integer"),
                    )
                })
            })
            .collect::<Result<Vec<i64>>>()
            .map(Some)
    }

    let ncon = match root.get("ncon") {
        None => 1usize,
        Some(v) => {
            let n = v.as_i64().filter(|&n| n >= 1).ok_or_else(|| {
                McgpError::parse(0, "JSON graph field `ncon` must be a positive integer")
            })? as usize;
            if n > MAX_NCON {
                return Err(McgpError::Overflow {
                    what: "ncon",
                    value: n as u128,
                    limit: MAX_NCON as u128,
                });
            }
            n
        }
    };

    let xadj_raw = int_array(&root, "xadj")?.expect("presence checked above");
    let mut xadj = Vec::with_capacity(xadj_raw.len().min(MAX_PREALLOC));
    for (i, v) in xadj_raw.into_iter().enumerate() {
        if v < 0 {
            return Err(McgpError::parse(
                0,
                format!("JSON graph field `xadj`[{i}] is negative"),
            ));
        }
        xadj.push(v as usize);
    }
    if xadj.is_empty() {
        return Err(McgpError::parse(0, "JSON graph `xadj` must not be empty"));
    }
    let nvtxs = xadj.len() - 1;
    if nvtxs as u128 > u32::MAX as u128 {
        return Err(McgpError::Overflow {
            what: "nvtxs",
            value: nvtxs as u128,
            limit: u32::MAX as u128,
        });
    }

    let adjncy_raw = int_array(&root, "adjncy")?.unwrap_or_default();
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(adjncy_raw.len().min(MAX_PREALLOC));
    for (i, v) in adjncy_raw.into_iter().enumerate() {
        if v < 0 || v as u128 > u32::MAX as u128 {
            return Err(McgpError::parse(
                0,
                format!("JSON graph field `adjncy`[{i}] out of vertex-id range"),
            ));
        }
        adjncy.push(v as Vertex);
    }

    let adjwgt = int_array(&root, "adjwgt")?.unwrap_or_else(|| vec![1; adjncy.len()]);
    let vwgt = int_array(&root, "vwgt")?.unwrap_or_else(|| vec![1; nvtxs * ncon]);

    Graph::from_csr(ncon, xadj, adjncy, adjwgt, vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators::grid_2d;
    use crate::synthetic;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_metis(g, &mut buf).unwrap();
        read_metis(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_unit_graph() {
        let g = grid_2d(5, 4);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn roundtrip_multiconstraint_weighted() {
        let g = synthetic::type2(&grid_2d(8, 8), 3, 7);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn writers_emit_byte_exact_text() {
        let mut b = GraphBuilder::new(5);
        b.weighted_edge(0, 1, 12)
            .weighted_edge(1, 2, 1)
            .weighted_edge(2, 3, 305)
            .weighted_edge(0, 3, 7);
        b.vwgt(2, vec![1, 0, 23, 4, 0, 567, 10, 9, 8, 1_000_000]);
        let g = b.build().unwrap();
        let mut out = Vec::new();
        write_metis(&g, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "5 4 011 2\n1 0 2 12 4 7\n23 4 1 12 3 1\n0 567 2 1 4 305\n10 9 1 7 3 305\n8 1000000\n"
        );
        let mut out = Vec::new();
        write_partition(&[0, 3, 12, 7, u32::MAX], &mut out).unwrap();
        assert_eq!(out, b"0\n3\n12\n7\n4294967295\n");
    }

    #[test]
    fn writers_match_formatted_text_across_buffer_flushes() {
        // Larger than the writers' chunk, so output crosses several flushes.
        let g = synthetic::type1(&crate::generators::mrng_like(3000, 3), 3, 3);
        let mut want = format!("{} {} 011 {}\n", g.nvtxs(), g.nedges(), g.ncon());
        for v in 0..g.nvtxs() {
            let mut tokens: Vec<String> = g.vwgt(v).iter().map(|w| w.to_string()).collect();
            for (u, w) in g.edges(v) {
                tokens.push((u + 1).to_string());
                tokens.push(w.to_string());
            }
            want.push_str(&tokens.join(" "));
            want.push('\n');
        }
        let mut out = Vec::new();
        write_metis(&g, &mut out).unwrap();
        assert!(out.len() > 2 * WRITE_CHUNK);
        assert_eq!(String::from_utf8(out).unwrap(), want);

        let part: Vec<u32> = (0..40_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1000)
            .collect();
        let want: String = part.iter().map(|p| format!("{p}\n")).collect();
        let mut out = Vec::new();
        write_partition(&part, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }

    #[test]
    fn integer_tokens_follow_str_parse() {
        for tok in [
            "0",
            "7",
            "+7",
            "007",
            "-0",
            "-7",
            "+",
            "-",
            "",
            "+-1",
            "-+1",
            "1-",
            "1+1",
            "0x10",
            "1e3",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "0000000000000000000000000042",
            "99999999999999999999",
        ] {
            let b = tok.as_bytes();
            assert_eq!(parse_i64(b), tok.parse::<i64>().ok(), "i64 `{tok}`");
            assert_eq!(parse_usize(b), tok.parse::<usize>().ok(), "usize `{tok}`");
            assert_eq!(
                as_i64(None, b),
                tok.parse::<i64>().ok(),
                "i64 fallback `{tok}`"
            );
        }
    }

    #[test]
    fn scanner_numbers_lines_and_tokens_like_the_line_reader() {
        // Trailing newline: no extra empty line; no newline: last line kept.
        for (body, lines) in [
            (&b"a\nb\n"[..], 2),
            (b"a\nb", 2),
            (b"\n\n", 2),
            (b"", 0),
            (b"a\r\n", 1),
        ] {
            let mut scan = Scanner::new(body);
            let mut n = 0;
            while scan.next_line() {
                n += 1;
                assert_eq!(scan.line, n);
            }
            assert_eq!(n, lines, "{body:?}");
        }
        let mut scan = Scanner::new(b" \t12\x0b+3\x0c x\xff \r\nnext");
        assert!(scan.next_line());
        let toks: Vec<(usize, &[u8], Option<u64>)> = std::iter::from_fn(|| scan.number()).collect();
        assert_eq!(
            toks,
            vec![
                (1, &b"12"[..], Some(12)),
                (2, b"+3", None),
                (3, b"x\xff", None)
            ]
        );
        assert!(scan.next_line());
        assert_eq!(scan.token(), Some((1, &b"next"[..])));
        assert!(!scan.next_line());
    }

    #[test]
    fn parses_plain_unweighted_format() {
        // Classic 4-clique minus one edge, no weights.
        let text = "% a comment\n4 5\n2 3 4\n1 3\n1 2 4\n1 3\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.nvtxs(), 4);
        assert_eq!(g.nedges(), 5);
        assert_eq!(g.vwgt(0), &[1]);
        assert_eq!(g.edge_weights(0), &[1, 1, 1]);
    }

    #[test]
    fn parses_vertex_weights_without_ncon_field() {
        let text = "2 1 010\n5 2\n7 1\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(0), &[5]);
        assert_eq!(g.vwgt(1), &[7]);
    }

    #[test]
    fn parses_multi_constraint_header() {
        let text = "2 1 011 2\n5 6 2 9\n7 8 1 9\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.vwgt(0), &[5, 6]);
        assert_eq!(g.vwgt(1), &[7, 8]);
        assert_eq!(g.edge_weights(0), &[9]);
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let text = "2 1\n2\n3\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        let text = "2 1\n2\n\n";
        // Vertex 2's line is empty, so edge (1,2) has no reverse.
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_vertex_sizes_fmt() {
        let text = "1 0 100\n3\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_fmt_instead_of_defaulting_unweighted() {
        // Regression: `fmt` fields that are not 1-3 binary digits used to be
        // silently coerced to 0 ("no weights"). They must be parse errors
        // carrying the header line number.
        for fmt in ["abc", "019", "2", "0110", "01x"] {
            let text = format!("2 1 {fmt}\n5 2\n7 1\n");
            match read_metis(text.as_bytes()) {
                Err(McgpError::Parse { line, msg, .. }) => {
                    assert_eq!(line, 1, "fmt `{fmt}`");
                    assert!(msg.contains("fmt") || msg.contains("vertex sizes"), "{msg}");
                }
                other => panic!("fmt `{fmt}`: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_ncon_without_vertex_weights() {
        let text = "2 1 001 3\n2 9\n1 9\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_huge_header_quantities_with_overflow() {
        // Vertex count beyond the u32 index width.
        let text = format!("{} 0\n", (u32::MAX as u64) + 1);
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Overflow { .. })
        ));
        // Constraint count beyond the sane cap.
        let text = format!("2 1 011 {}\n", MAX_NCON + 1);
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Overflow { .. })
        ));
    }

    #[test]
    fn parse_errors_carry_token_context() {
        // Third token of vertex 1's line (neighbor id) is garbage.
        let text = "2 1 010\n5 zzz\n7 1\n";
        match read_metis(text.as_bytes()) {
            Err(McgpError::Parse { line, col, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(col, 2);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_file() {
        assert!(read_metis("".as_bytes()).is_err());
        assert!(read_metis("% only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn partition_roundtrip() {
        let part = vec![0u32, 3, 1, 2, 2];
        let mut buf = Vec::new();
        write_partition(&part, &mut buf).unwrap();
        assert_eq!(read_partition(buf.as_slice()).unwrap(), part);
    }

    #[test]
    fn bounded_partition_reader_rejects_out_of_range_ids() {
        let text = "0\n1\n7\n";
        assert_eq!(
            read_partition_bounded(text.as_bytes(), 8).unwrap(),
            vec![0, 1, 7]
        );
        match read_partition_bounded(text.as_bytes(), 4) {
            Err(McgpError::Parse { line, msg, .. }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("out of range"), "{msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Negative ids are invalid integers for u32 and name their line.
        match read_partition("0\n-1\n".as_bytes()) {
            Err(McgpError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn builder_and_io_agree_on_weighted_edges() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(1, 2, 2);
        b.vwgt(2, vec![1, 2, 3, 4, 5, 6]);
        let g = b.build().unwrap();
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn json_ingest_parses_full_and_minimal_objects() {
        // Triangle with explicit weights.
        let g = graph_from_json(
            r#"{"ncon": 2,
                "xadj": [0, 2, 4, 6],
                "adjncy": [1, 2, 0, 2, 0, 1],
                "adjwgt": [5, 1, 5, 2, 1, 2],
                "vwgt": [1, 10, 2, 20, 3, 30]}"#,
        )
        .unwrap();
        assert_eq!(g.nvtxs(), 3);
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.nedges(), 3);
        assert_eq!(g.vwgt(1), &[2, 20]);
        // Minimal: unit weights, ncon defaults to 1.
        let g = graph_from_json(r#"{"xadj": [0, 1, 2], "adjncy": [1, 0]}"#).unwrap();
        assert_eq!(g.nvtxs(), 2);
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(0), &[1]);
        assert_eq!(g.edge_weights(0), &[1]);
    }

    #[test]
    fn json_ingest_rejects_malformed_input_with_typed_errors() {
        // Syntax, shape, and range errors are Parse; structural invalidity
        // (asymmetry here) is the same error from_csr produces.
        for bad in [
            "not json at all",
            "[1, 2, 3]",
            r#"{"xadj": "nope"}"#,
            r#"{"xadj": [0, 1], "adjncy": [1.5]}"#,
            r#"{"xadj": [0, -1], "adjncy": []}"#,
            r#"{"xadj": [], "adjncy": []}"#,
            r#"{"xadj": [0, 1], "adjncy": [-3]}"#,
            r#"{"xadj": [0, 1, 1], "adjncy": [1]}"#, // asymmetric
            r#"{"xadj": [0, 1], "adjncy": [0]}"#,    // self-loop
            r#"{"ncon": 0, "xadj": [0], "adjncy": []}"#,
        ] {
            assert!(graph_from_json(bad).is_err(), "accepted: {bad}");
        }
        // ncon above the cap is an Overflow, matching the METIS reader.
        match graph_from_json(r#"{"ncon": 1000, "xadj": [0], "adjncy": []}"#) {
            Err(McgpError::Overflow { what: "ncon", .. }) => {}
            other => panic!("expected ncon overflow, got {other:?}"),
        }
    }

    #[test]
    fn json_ingest_agrees_with_metis_reader() {
        // The same graph through both ingest paths must be identical.
        let g = crate::generators::mrng_like(300, 5);
        let mut metis = Vec::new();
        write_metis(&g, &mut metis).unwrap();
        let via_metis = read_metis(metis.as_slice()).unwrap();
        let json = format!(
            r#"{{"ncon": {}, "xadj": {:?}, "adjncy": {:?}, "adjwgt": {:?}, "vwgt": {:?}}}"#,
            g.ncon(),
            g.xadj(),
            g.adjncy(),
            g.adjwgt(),
            g.vwgt_flat(),
        );
        let via_json = graph_from_json(&json).unwrap();
        assert_eq!(via_json, via_metis);
    }
}
