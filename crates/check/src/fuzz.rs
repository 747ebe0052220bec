//! Deterministic structure-aware fuzzing of the input layer.
//!
//! Rather than flipping random bytes, the fuzzer *knows the METIS grammar*:
//! it writes a well-formed graph (or partition) file, then applies one of a
//! fixed catalogue of corruptions — grammar-level ones (truncate a vertex
//! line, break edge symmetry, drop a weight token, inflate a neighbour id
//! past `nvtxs`, scramble the header) and byte-level ones aimed at the
//! byte scanner (invalid UTF-8, NUL, a stray `\r`, a cut inside a digit
//! run, a 25-digit number) — and asserts the reader either returns a typed
//! [`McgpError`] or (for corruptions the format genuinely tolerates, like
//! deleting a trailing comment) a valid graph. What it must **never** do is
//! panic: every case runs under `catch_unwind`.
//!
//! Everything is keyed off a single `u64` seed, so a failing case prints a
//! reproduction seed and `mcgp fuzz --seed N --cases 1` replays it exactly.

use std::panic::{self, AssertUnwindSafe};

use mcgp_graph::generators::mrng_like;
use mcgp_graph::io::{read_metis, read_partition_bounded, write_metis};
use mcgp_graph::synthetic;
use mcgp_runtime::rng::Rng;

/// The corruptions the fuzzer draws from.
const MUTATIONS: &[&str] = &[
    "control(no corruption)",
    "truncate file mid-line",
    "delete one line",
    "duplicate one line",
    "drop one token",
    "duplicate one token",
    "replace token with junk",
    "negate one token",
    "inflate neighbour id",
    "zero one token",
    "scramble header",
    "append garbage line",
    "insert blank vertex line",
    "flip fmt digit",
    "insert invalid UTF-8",
    "insert NUL byte",
    "insert stray carriage return",
    "cut inside a digit run",
    "replace token with 25-digit number",
];

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    pub seed: u64,
    pub mutation: &'static str,
    /// `Ok`: reader accepted the (possibly still-valid) input.
    /// `Err`: reader returned a typed error. Both are fine.
    pub accepted: bool,
    /// A panic escaped the reader — always a bug.
    pub panicked: bool,
    pub detail: String,
}

/// Summary of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cases: usize,
    pub accepted: usize,
    pub rejected: usize,
    pub panics: Vec<FuzzCase>,
}

mcgp_runtime::impl_to_json!(FuzzReport {
    cases,
    accepted,
    rejected
});

impl FuzzReport {
    /// True when no case escaped as a panic.
    pub fn clean(&self) -> bool {
        self.panics.is_empty()
    }
}

fn render_graph(rng: &mut Rng) -> String {
    let nvtxs = rng.gen_range(8usize..48);
    let base = mrng_like(nvtxs, rng.next_u64());
    let ncon = *rng.choose(&[1usize, 2, 3]).unwrap();
    let graph = if ncon == 1 {
        base
    } else {
        synthetic::type1(&base, ncon, rng.next_u64())
    };
    let mut out = Vec::new();
    write_metis(&graph, &mut out).expect("in-memory write");
    String::from_utf8(out).expect("METIS text is ASCII")
}

/// Applies the mutation at `idx` (an index into [`MUTATIONS`]) to `text`.
fn mutate(text: &str, idx: usize, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let at = |rng: &mut Rng| rng.gen_range(0usize..text.len() + 1);
    match MUTATIONS[idx] {
        "insert invalid UTF-8" => {
            let junk: &[u8] = rng
                .choose(&[&b"\xff"[..], b"\xc3", b"\x80", b"\xe2\x82"])
                .unwrap();
            let at = at(rng);
            bytes.splice(at..at, junk.iter().copied());
            bytes
        }
        "insert NUL byte" => {
            bytes.insert(at(rng), 0);
            bytes
        }
        "insert stray carriage return" => {
            bytes.insert(at(rng), b'\r');
            bytes
        }
        "cut inside a digit run" => {
            // Cut after a digit that another digit follows; anywhere when
            // the text has no multi-digit number.
            let inside: Vec<usize> = (1..bytes.len())
                .filter(|&i| bytes[i - 1].is_ascii_digit() && bytes[i].is_ascii_digit())
                .collect();
            let cut = match rng.choose(&inside) {
                Some(&i) => i,
                None => at(rng),
            };
            bytes.truncate(cut);
            bytes
        }
        _ => mutate_text(text, idx, rng).into_bytes(),
    }
}

/// The grammar-level mutations, which work on lines and tokens.
fn mutate_text(text: &str, idx: usize, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let pick_line = |rng: &mut Rng| rng.gen_range(0usize..lines.len().max(1));
    match MUTATIONS[idx] {
        "control(no corruption)" => text.to_string(),
        "truncate file mid-line" => {
            let cut = rng.gen_range(0usize..text.len().max(1));
            text[..cut].to_string()
        }
        "delete one line" => {
            let victim = pick_line(rng);
            lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != victim)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        }
        "duplicate one line" => {
            let victim = pick_line(rng);
            let mut out: Vec<&str> = lines.clone();
            if let Some(&l) = lines.get(victim) {
                out.insert(victim, l);
            }
            out.join("\n")
        }
        "append garbage line" => format!("{text}\n%%%\n$!? 12 bogus\n"),
        "insert blank vertex line" => {
            let mut out: Vec<&str> = lines.clone();
            let at = rng.gen_range(1usize..out.len().max(2).min(out.len() + 1));
            out.insert(at.min(out.len()), "");
            out.join("\n")
        }
        "scramble header" => {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(h) = out.first_mut() {
                let mut toks: Vec<&str> = h.split_whitespace().collect();
                rng.shuffle(&mut toks);
                *h = toks.join(" ");
            }
            out.join("\n")
        }
        "flip fmt digit" => {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(h) = out.first_mut() {
                let mut toks: Vec<String> =
                    h.split_whitespace().map(|t| t.to_string()).collect();
                if toks.len() >= 3 {
                    let digit = rng.gen_range(0usize..3);
                    let mut fmt: Vec<u8> = format!("{:0>3}", toks[2]).into_bytes();
                    fmt[digit] = if fmt[digit] == b'0' { b'1' } else { b'0' };
                    toks[2] = String::from_utf8(fmt).unwrap();
                } else {
                    toks.push("101".to_string());
                }
                *h = toks.join(" ");
            }
            out.join("\n")
        }
        token_mutation => {
            // Token-level corruptions: pick a non-comment line, then a token.
            let victim = pick_line(rng);
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(line) = out.get_mut(victim) {
                let mut toks: Vec<String> =
                    line.split_whitespace().map(|t| t.to_string()).collect();
                if toks.is_empty() {
                    toks.push("7".to_string());
                }
                let t = rng.gen_range(0usize..toks.len());
                match token_mutation {
                    "drop one token" => {
                        toks.remove(t);
                    }
                    "duplicate one token" => {
                        let tok = toks[t].clone();
                        toks.insert(t, tok);
                    }
                    "replace token with junk" => {
                        toks[t] = (*rng
                            .choose(&["x", "1e9", "0x10", "∞", "--3", "+ 4"])
                            .unwrap())
                        .to_string();
                    }
                    "negate one token" => toks[t] = format!("-{}", toks[t]),
                    "inflate neighbour id" => {
                        toks[t] = format!("{}", 1_000_000_007u64 + rng.gen_range(0u64..1000));
                    }
                    "zero one token" => toks[t] = "0".to_string(),
                    "replace token with 25-digit number" => {
                        toks[t] = (0..25)
                            .map(|i| char::from(b'0' + rng.gen_range(u8::from(i == 0)..10)))
                            .collect();
                    }
                    other => unreachable!("unknown mutation {other}"),
                }
                *line = toks.join(" ");
            }
            out.join("\n")
        }
    }
}

fn run_reader_case(seed: u64, mutation: &'static str, text: Vec<u8>) -> FuzzCase {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| read_metis(&text)));
    match outcome {
        Ok(Ok(_)) => FuzzCase {
            seed,
            mutation,
            accepted: true,
            panicked: false,
            detail: String::new(),
        },
        Ok(Err(e)) => FuzzCase {
            seed,
            mutation,
            accepted: false,
            panicked: false,
            detail: e.to_string(),
        },
        Err(payload) => FuzzCase {
            seed,
            mutation,
            accepted: false,
            panicked: true,
            detail: panic_message(payload),
        },
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One deterministic fuzz case against `read_metis`. The same seed always
/// produces the same base graph, mutation, and corrupted text.
pub fn fuzz_graph_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6755_22D1_F00D_CAFE);
    let text = render_graph(&mut rng);
    let idx = rng.gen_range(0usize..MUTATIONS.len());
    let mutated = mutate(&text, idx, &mut rng);
    let case = run_reader_case(seed, MUTATIONS[idx], mutated);
    if MUTATIONS[idx] == "control(no corruption)" {
        // The uncorrupted render must round-trip.
        debug_assert!(case.accepted || case.panicked, "control case rejected: {}", case.detail);
    }
    case
}

/// One deterministic fuzz case against `read_partition_bounded`.
pub fn fuzz_partition_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9A27_11FE_BEEF_5EED);
    let n = rng.gen_range(1usize..40);
    let k = rng.gen_range(1usize..9);
    let text: String = (0..n)
        .map(|_| format!("{}\n", rng.gen_range(0usize..k)))
        .collect();
    let idx = rng.gen_range(0usize..MUTATIONS.len());
    let mutation = MUTATIONS[idx];
    let mutated = mutate(&text, idx, &mut rng);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        read_partition_bounded(mutated.as_slice(), k)
    }));
    match outcome {
        Ok(Ok(_)) => FuzzCase {
            seed,
            mutation,
            accepted: true,
            panicked: false,
            detail: String::new(),
        },
        Ok(Err(e)) => FuzzCase {
            seed,
            mutation,
            accepted: false,
            panicked: false,
            detail: e.to_string(),
        },
        Err(payload) => FuzzCase {
            seed,
            mutation,
            accepted: false,
            panicked: true,
            detail: panic_message(payload),
        },
    }
}

/// Runs `cases` graph-reader cases and `cases` partition-reader cases
/// derived from `seed`, collecting any escaped panics.
pub fn fuzz_run(seed: u64, cases: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        for case in [
            fuzz_graph_case(seed.wrapping_add(i as u64)),
            fuzz_partition_case(seed.wrapping_add(i as u64)),
        ] {
            report.cases += 1;
            if case.panicked {
                report.panics.push(case);
            } else if case.accepted {
                report.accepted += 1;
            } else {
                report.rejected += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz_graph_case(42);
        let b = fuzz_graph_case(42);
        assert_eq!(a.mutation, b.mutation);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn every_mutation_is_drawn_and_byte_mutations_reach_the_reader() {
        let cases: Vec<FuzzCase> = (0..600).map(|s| fuzz_graph_case(0xB17E + s)).collect();
        for &m in MUTATIONS {
            assert!(cases.iter().any(|c| c.mutation == m), "`{m}` never drawn");
        }
        // Invalid UTF-8 reaches the byte scanner, which rejects it with a
        // positioned parse error rather than an I/O error.
        let utf8 = cases
            .iter()
            .filter(|c| c.mutation == "insert invalid UTF-8" && !c.accepted)
            .collect::<Vec<_>>();
        assert!(!utf8.is_empty());
        assert!(
            utf8.iter().all(|c| !c.detail.starts_with("i/o error")),
            "{utf8:?}"
        );
    }

    #[test]
    fn readers_never_panic_over_seed_budget() {
        let report = fuzz_run(0xF0CC, 300);
        assert!(
            report.clean(),
            "reader panicked on {} case(s); first: seed={} mutation={} -- {}",
            report.panics.len(),
            report.panics[0].seed,
            report.panics[0].mutation,
            report.panics[0].detail,
        );
        assert_eq!(report.cases, 600);
        // The corruption catalogue must actually bite: a healthy run
        // rejects a substantial share of inputs.
        assert!(report.rejected > report.cases / 10, "corpus too tame: {report:?}");
    }
}
