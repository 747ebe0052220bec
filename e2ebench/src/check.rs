//! Output checks that do not trust the program.
//!
//! Every assignment must have one entry per vertex and part ids below
//! `k`. The cut and per-constraint imbalance are recomputed on the
//! benchmark's own copy of the graph and compared with what the program
//! reported. Responses and `.part` text are parsed here, not by the
//! program's readers.

use mcgp_graph::{Graph, Partition, PartitionQuality};
use mcgp_runtime::Json;

/// Quality as the program reported it.
#[derive(Clone, Debug, PartialEq)]
pub struct Reported {
    pub edge_cut: i64,
    pub imbalances: Vec<f64>,
}

impl Reported {
    pub fn of(q: &PartitionQuality) -> Reported {
        Reported {
            edge_cut: q.edge_cut,
            imbalances: q.imbalances.clone(),
        }
    }
}

/// Quality the benchmark measured itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub edge_cut: i64,
    pub max_imbalance: f64,
}

/// Imbalances are ratios printed with full precision; anything beyond
/// rounding noise is a misreport.
const IMBALANCE_EPS: f64 = 1e-9;

/// Checks `assignment` against `graph` and `k`, recomputes the quality,
/// and compares it with `reported`.
pub fn verify(
    graph: &Graph,
    assignment: &[u32],
    k: usize,
    reported: &Reported,
) -> Result<Measured, String> {
    if assignment.len() != graph.nvtxs() {
        return Err(format!(
            "assignment has {} entries for {} vertices",
            assignment.len(),
            graph.nvtxs()
        ));
    }
    if let Some((v, p)) = assignment
        .iter()
        .enumerate()
        .find(|(_, &p)| p as usize >= k)
    {
        return Err(format!("vertex {v} assigned to part {p} >= k {k}"));
    }
    let partition = Partition::new(k, assignment.to_vec()).map_err(|e| e.to_string())?;
    let q = PartitionQuality::measure(graph, &partition);
    if q.edge_cut != reported.edge_cut {
        return Err(format!(
            "reported cut {} but the assignment cuts {}",
            reported.edge_cut, q.edge_cut
        ));
    }
    let close = q.imbalances.len() == reported.imbalances.len()
        && q.imbalances
            .iter()
            .zip(&reported.imbalances)
            .all(|(a, b)| (a - b).abs() <= IMBALANCE_EPS);
    if !close {
        return Err(format!(
            "reported imbalances {:?} but the assignment has {:?}",
            reported.imbalances, q.imbalances
        ));
    }
    Ok(Measured {
        edge_cut: q.edge_cut,
        max_imbalance: q.max_imbalance,
    })
}

/// Parses METIS `.part` text: one part id per line.
pub fn parse_partition_text(text: &[u8]) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for (i, line) in text.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let s = std::str::from_utf8(line).map_err(|_| format!("line {}: not UTF-8", i + 1))?;
        out.push(
            s.trim()
                .parse::<u32>()
                .map_err(|_| format!("line {}: not a part id: {s:?}", i + 1))?,
        );
    }
    Ok(out)
}

/// A `/partition` response body, parsed.
#[derive(Clone, Debug)]
pub struct Served {
    pub k: usize,
    pub seed: u64,
    pub assignment: Vec<u32>,
    pub reported: Reported,
}

fn field<'a>(line: &'a Json, key: &str) -> Result<&'a Json, String> {
    line.get(key).ok_or_else(|| format!("line lacks {key:?}"))
}

fn uint(line: &Json, key: &str) -> Result<u64, String> {
    match *field(line, key)? {
        Json::UInt(u) => Ok(u),
        Json::Int(i) if i >= 0 => Ok(i as u64),
        _ => Err(format!("{key:?} is not a non-negative integer")),
    }
}

/// Parses the JSONL body: one `meta` line, `part` lines with contiguous
/// offsets, one closing `done` line.
pub fn parse_response(body: &[u8]) -> Result<Served, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let parse = |l: &str| Json::parse(l).map_err(|e| format!("bad JSON line: {e}"));
    let meta = parse(lines.next().ok_or("empty body")?)?;
    if field(&meta, "type")?.as_str() != Some("meta") {
        return Err("first line is not meta".into());
    }
    let k = uint(&meta, "k")? as usize;
    let seed = uint(&meta, "seed")?;
    let nvtxs = uint(&meta, "nvtxs")? as usize;
    let mut assignment = Vec::with_capacity(nvtxs);
    for raw in lines {
        let line = parse(raw)?;
        match field(&line, "type")?.as_str() {
            Some("part") => {
                if uint(&line, "offset")? as usize != assignment.len() {
                    return Err(format!("part line offset is not {}", assignment.len()));
                }
                let parts = field(&line, "parts")?
                    .as_arr()
                    .ok_or("parts is not an array")?;
                for p in parts {
                    let p = p
                        .as_i64()
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or("part id is not a u32")?;
                    assignment.push(p);
                }
            }
            Some("done") => {
                if assignment.len() != nvtxs {
                    return Err(format!(
                        "{} part entries for meta nvtxs {nvtxs}",
                        assignment.len()
                    ));
                }
                let imbalances = field(&line, "imbalances")?
                    .as_arr()
                    .ok_or("imbalances is not an array")?
                    .iter()
                    .map(|x| x.as_f64().ok_or("imbalance is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let edge_cut = field(&line, "edge_cut")?.as_i64().ok_or("edge_cut")?;
                return Ok(Served {
                    k,
                    seed,
                    assignment,
                    reported: Reported {
                        edge_cut,
                        imbalances,
                    },
                });
            }
            other => return Err(format!("unexpected line type {other:?}")),
        }
    }
    Err("body ends without a done line".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::{partition_kway, PartitionConfig};
    use mcgp_graph::generators::grid_2d;
    use mcgp_serve::protocol::{done_line, meta_line, part_line, PartitionParams};

    fn solved() -> (Graph, Vec<u32>, Reported) {
        let g = grid_2d(12, 12);
        let r = partition_kway(&g, 4, &PartitionConfig::default());
        (
            g,
            r.partition.assignment().to_vec(),
            Reported::of(&r.quality),
        )
    }

    #[test]
    fn accepts_a_true_report() {
        let (g, a, rep) = solved();
        let m = verify(&g, &a, 4, &rep).expect("true report verifies");
        assert_eq!(m.edge_cut, rep.edge_cut);
    }

    #[test]
    fn rejects_a_corrupted_assignment() {
        let (g, a, rep) = solved();
        let mut out_of_range = a.clone();
        out_of_range[5] = 4;
        assert!(verify(&g, &out_of_range, 4, &rep)
            .unwrap_err()
            .contains(">= k"));
        let short = &a[..a.len() - 1];
        assert!(verify(&g, short, 4, &rep).unwrap_err().contains("entries"));
        // A moved vertex changes the cut: the old report no longer holds.
        let mut moved = a.clone();
        let v = (0..moved.len()).find(|&v| moved[v] != moved[0]).unwrap();
        moved[0] = moved[v];
        assert!(verify(&g, &moved, 4, &rep).is_err());
    }

    #[test]
    fn rejects_a_misreported_cut_or_imbalance() {
        let (g, a, rep) = solved();
        let cut = Reported {
            edge_cut: rep.edge_cut - 1,
            ..rep.clone()
        };
        assert!(verify(&g, &a, 4, &cut).unwrap_err().contains("cut"));
        let mut imb = rep.clone();
        imb.imbalances[0] += 0.01;
        assert!(verify(&g, &a, 4, &imb).unwrap_err().contains("imbalances"));
    }

    #[test]
    fn parses_partition_text() {
        assert_eq!(parse_partition_text(b"0\n3\n1\n").unwrap(), vec![0, 3, 1]);
        assert!(parse_partition_text(b"0\nx\n").is_err());
    }

    #[test]
    fn parses_a_response_built_by_the_protocol() {
        let (g, a, rep) = solved();
        let q = PartitionQuality::measure(&g, &Partition::new(4, a.clone()).unwrap());
        let params = PartitionParams {
            nparts: 4,
            tol: 0.05,
            seed: 9,
            nthreads: 1,
        };
        let mut body = meta_line(1, &params, g.nvtxs(), g.nedges(), 1, 3);
        body.push('\n');
        for (i, chunk) in a.chunks(50).enumerate() {
            body.push_str(&part_line(i * 50, chunk));
            body.push('\n');
        }
        body.push_str(&done_line(&q));
        body.push('\n');
        let served = parse_response(body.as_bytes()).expect("parses");
        assert_eq!(served.assignment, a);
        assert_eq!(served.seed, 9);
        assert!(verify(&g, &served.assignment, served.k, &served.reported).is_ok());
        assert_eq!(served.reported.edge_cut, rep.edge_cut);
        // A truncated body is an error, not a short assignment.
        let cut_at = body.find("\"done\"").unwrap();
        assert!(parse_response(&body.as_bytes()[..cut_at - 10]).is_err());
    }
}
