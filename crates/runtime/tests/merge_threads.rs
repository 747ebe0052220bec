//! Pool-merge determinism: running the same traced workload under 1, 2 and
//! 8 worker threads — through `pool::map`, `pool::zip_map` and a
//! `pool::join` tree — must produce an identical merged [`Ledger`] (every
//! counter, gauge and histogram) and an identical trace-event multiset,
//! modulo timing fields (`ts_ns`, `tid`).
//!
//! A single `#[test]` owns the whole sweep: the thread count comes from the
//! process-global `MCGP_THREADS` variable and tracing is a process-global
//! toggle, so the runs must not interleave with each other.

use mcgp_runtime::metrics::{counter_add, gauge_max, histogram_record};
use mcgp_runtime::{event, pool, span, trace, Counter, Gauge, Hist, Json, Ledger, TraceEvent};

const UNITS: usize = 32;

/// One unit of instrumented work: touches every kind of tally.
fn unit(i: usize) -> u64 {
    let mut sp = span!("unit", unit = i);
    counter_add(Counter::MovesAttempted, i as u64 + 1);
    if i.is_multiple_of(3) {
        counter_add(Counter::MovesCommitted, 1);
    }
    counter_add(Counter::ReservationGrants, i as u64);
    counter_add(Counter::ReservationWithholds, (i % 4) as u64);
    gauge_max(Gauge::BoundarySize, ((i * 7) % 23) as i64);
    histogram_record(Hist::KwayGain, i as i64 - 5);
    event!("tick", unit = i, parity = i % 2);
    sp.record("doubled", 2 * i as u64);
    2 * i as u64
}

/// The pool entry point a run dispatches its units through.
#[derive(Clone, Copy, Debug)]
enum Dispatch {
    Map,
    /// Contiguous stripes of units, one owned item per worker.
    ZipMap,
    /// A binary `join` tree over the units.
    Join,
}

fn join_tree(lo: usize, hi: usize) -> u64 {
    if hi - lo == 1 {
        return unit(lo);
    }
    let mid = lo + (hi - lo) / 2;
    let (l, r) = pool::join(|| join_tree(lo, mid), || join_tree(mid, hi));
    l + r
}

fn run_workload(dispatch: Dispatch) -> (Ledger, Vec<TraceEvent>) {
    let _ = trace::take_local();
    trace::set_enabled(true);
    let (sum, mut ledger) = Ledger::capture(|| match dispatch {
        Dispatch::Map => pool::map(UNITS, unit).iter().sum::<u64>(),
        Dispatch::ZipMap => {
            let bounds = pool::stripe_bounds(UNITS, pool::threads_for(UNITS));
            let stripes: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            pool::zip_map(stripes, |_, (lo, hi)| (lo..hi).map(unit).sum::<u64>())
                .iter()
                .sum::<u64>()
        }
        Dispatch::Join => join_tree(0, UNITS),
    });
    trace::set_enabled(false);
    assert_eq!(sum, (UNITS * (UNITS - 1)) as u64, "workload result");
    let events = std::mem::take(&mut ledger.events);
    (ledger, events)
}

/// Canonical multiset key per event: the JSONL rendering with the timing
/// fields removed, sorted. `pool_worker` events legitimately differ across
/// thread counts (one per worker, with wall-clock skew) and are excluded.
fn canon(events: &[TraceEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events
        .iter()
        .filter(|e| e.name != "pool_worker")
        .map(|e| match e.to_jsonl_json() {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "ts_ns" && k != "tid")
                    .collect(),
            )
            .to_string(),
            other => other.to_string(),
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn merged_report_and_events_identical_across_thread_counts() {
    for dispatch in [Dispatch::Map, Dispatch::ZipMap, Dispatch::Join] {
        std::env::set_var("MCGP_THREADS", "1");
        let (base_ledger, base_events) = run_workload(dispatch);
        let base_canon = canon(&base_events);
        assert_eq!(
            base_canon.len(),
            2 * UNITS + UNITS, // one B + one E per span, one instant per unit
            "unexpected event count under 1 thread ({dispatch:?})"
        );
        assert_eq!(base_ledger.gauge(Gauge::BoundarySize), Some(22));
        assert_eq!(base_ledger.histogram(Hist::KwayGain).count, UNITS as u64);

        for threads in ["2", "8"] {
            std::env::set_var("MCGP_THREADS", threads);
            let (ledger, events) = run_workload(dispatch);
            for &c in Counter::ALL {
                assert_eq!(
                    ledger.counter(c),
                    base_ledger.counter(c),
                    "counter {} differs under {threads} threads ({dispatch:?})",
                    c.name()
                );
            }
            assert_eq!(
                ledger, base_ledger,
                "merged ledger differs under {threads} threads ({dispatch:?})"
            );
            assert_eq!(
                canon(&events),
                base_canon,
                "trace event multiset differs under {threads} threads ({dispatch:?})"
            );
        }
    }
    std::env::remove_var("MCGP_THREADS");
}
