//! `trace_report` — audit a trace file and compute its critical path.
//!
//! Reads a `dynapipe_trace::Trace` JSON export (default
//! `results/TRACE_cluster.json`, or the path given as the first
//! argument), then:
//!
//! 1. **validates** structural well-formedness (closed intervals,
//!    monotone `seq`, generation arithmetic),
//! 2. **reconciles** every span payload total against the counter
//!    ledger embedded in `meta` (byte sums, span counts, bitwise
//!    exposed-µs ledgers),
//! 3. rebuilds the **end-to-end critical path** from the spans alone —
//!    per iteration, the Sim-domain execution extent plus the exposed
//!    distribution latency — and checks it against the run's own
//!    `wall_us` / `exposed_us` accounting,
//! 4. prints the per-iteration breakdown (which replica bounded the
//!    sync, which host's plan availability bounded the start) and the
//!    per-link occupancy table.
//!
//! Exit codes: 1 unreadable/malformed file, 2 validation failure,
//! 3 reconciliation failure, 4 critical-path disagreement. `run_all
//! --smoke` round-trips the cluster bench's trace through this binary,
//! so a divergence fails the tier-1 suite.

use dynapipe_trace::{ClockDomain, Span, SpanKind, Trace};
use std::collections::BTreeMap;

/// Relative tolerance for timeline identities that cross a `.max(0.0)`
/// clamp (everything else is held bitwise).
const REL_TOL: f64 = 1e-6;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Per-iteration rollup rebuilt from the spans.
#[derive(Default, Clone)]
struct IterRow {
    /// Sim extent: first replica start → sync end (== simulated time).
    sim_us: f64,
    /// Replica whose `IterExec` finished last (bounds the sync).
    bound_replica: i64,
    /// Sim end of the iteration (`IterSync.end_us`).
    sim_end: f64,
    /// Exposed distribution latency charged to this iteration.
    exposed_us: f64,
    /// Host whose plan became available last (bounds the start), -1
    /// when nothing was exposed per-host.
    bound_host: i64,
    /// Engine-level ops executed (Sim `EngineOp` spans).
    ops: usize,
}

/// Per-directed-link rollup of all transfer spans.
#[derive(Default, Clone)]
struct LinkRow {
    blobs: u64,
    bytes: u64,
    /// Σ time actually on the wire (interval minus FIFO queue wait).
    busy_us: f64,
    /// Σ FIFO queue wait behind earlier blobs on the same link.
    wait_us: f64,
    first_start: f64,
    last_end: f64,
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("trace_report: {msg}");
    std::process::exit(code);
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/TRACE_cluster.json".to_string());
    println!("trace_report: auditing {path}");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail(1, &format!("cannot read {path}: {e}")),
    };
    let trace: Trace = match serde_json::from_str(&text) {
        Ok(t) => t,
        Err(e) => fail(1, &format!("malformed trace JSON in {path}: {e}")),
    };
    let m = &trace.meta;
    println!(
        "  run: {} [{} placement={}] {} iterations, {} spans ({} sim / {} host)",
        m.label,
        if m.topology.is_empty() { "single-host" } else { &m.topology },
        if m.placement.is_empty() { "-" } else { &m.placement },
        m.iterations,
        trace.spans.len(),
        trace.counters.sim_spans,
        trace.counters.host_spans,
    );

    if let Err(e) = trace.validate() {
        fail(2, &format!("validation failed: {e}"));
    }
    println!("  validate: ok");
    if let Err(e) = trace.reconcile() {
        fail(3, &format!("reconciliation failed: {e}"));
    }
    println!("  reconcile: ok (bytes, counts and exposed ledgers match the counters)");

    // --- Per-iteration rebuild ------------------------------------------
    let mut iters: BTreeMap<i64, IterRow> = BTreeMap::new();
    for s in &trace.spans {
        if s.iteration < 0 {
            continue;
        }
        let row = iters.entry(s.iteration).or_default();
        match (s.domain, s.kind) {
            (ClockDomain::Sim, SpanKind::IterExec) => {
                if s.end_us >= row.sim_end {
                    row.bound_replica = s.lane;
                }
            }
            (ClockDomain::Sim, SpanKind::IterSync) => {
                row.sim_end = s.end_us;
            }
            (ClockDomain::Sim, SpanKind::EngineOp) => row.ops += 1,
            (ClockDomain::Host, SpanKind::ExposedPlanning) => row.exposed_us += s.wait_us,
            (ClockDomain::Host, SpanKind::ExposedWait) => {
                // The host whose plan copy became available last bounds
                // the iteration start on the hybrid timeline.
                if row.bound_host < 0
                    || s.end_us
                        > iter_wait_end(&trace.spans, s.iteration, row.bound_host)
                {
                    row.bound_host = s.lane;
                }
            }
            _ => {}
        }
    }
    // Sim extents need the iteration's own start (the previous
    // iteration's sim end), walked in order.
    let mut sim_cursor = 0.0f64;
    let mut sim_total_end = 0.0f64;
    for row in iters.values_mut() {
        row.sim_us = row.sim_end - sim_cursor;
        sim_cursor = row.sim_end;
        sim_total_end = row.sim_end;
    }

    let executed = iters.len() as u64;
    if executed != m.iterations {
        fail(
            4,
            &format!(
                "trace covers {executed} iterations, run executed {}",
                m.iterations
            ),
        );
    }
    if m.iterations > 0 && sim_total_end.to_bits() != m.exec_sim_us.to_bits() {
        fail(
            4,
            &format!(
                "Sim timeline ends at {sim_total_end} µs, counters say exec_sim_us = {} \
                 (must match bitwise: both are the same accumulation)",
                m.exec_sim_us
            ),
        );
    }

    // --- Critical path ---------------------------------------------------
    // Every iteration contributes its simulated extent; distribution
    // latency only appears where the timeline could not hide it.
    let exposed_total: f64 = trace.ledger_us(SpanKind::ExposedPlanning);
    let critical_path = sim_total_end + exposed_total;
    if m.iterations > 0 && !rel_close(critical_path, m.wall_us) {
        fail(
            4,
            &format!(
                "critical path {critical_path} µs (exec {sim_total_end} + exposed \
                 {exposed_total}) disagrees with wall_us {} beyond {REL_TOL:e}",
                m.wall_us
            ),
        );
    }
    println!(
        "  critical path: {:.1} µs = exec {:.1} µs + exposed planning {:.1} µs ({:.2}% exposed)",
        critical_path,
        sim_total_end,
        exposed_total,
        if critical_path > 0.0 {
            100.0 * exposed_total / critical_path
        } else {
            0.0
        }
    );

    // --- Per-iteration breakdown (capped for readability) ----------------
    let cap = 12usize;
    println!("  per-iteration (first {cap}):");
    println!("    iter       sim_us  bound_replica   exposed_us  bound_host   ops");
    for (it, row) in iters.iter().take(cap) {
        println!(
            "    {it:>4} {:>12.1} {:>14} {:>12.1} {:>11} {:>5}",
            row.sim_us,
            row.bound_replica,
            row.exposed_us,
            if row.bound_host < 0 {
                "-".to_string()
            } else {
                row.bound_host.to_string()
            },
            row.ops,
        );
    }
    if iters.len() > cap {
        println!("    ... {} more", iters.len() - cap);
    }

    // --- Per-link occupancy ----------------------------------------------
    let mut links: BTreeMap<(i64, i64), LinkRow> = BTreeMap::new();
    for s in &trace.spans {
        let is_link = matches!(
            s.kind,
            SpanKind::LinkPush | SpanKind::LinkFetch | SpanKind::LinkRestore
        );
        if !is_link {
            continue;
        }
        let row = links.entry((s.src, s.dst)).or_insert(LinkRow {
            first_start: f64::INFINITY,
            last_end: f64::NEG_INFINITY,
            ..LinkRow::default()
        });
        row.blobs += 1;
        row.bytes += s.bytes;
        row.busy_us += (s.end_us - s.start_us) - s.wait_us;
        row.wait_us += s.wait_us;
        row.first_start = row.first_start.min(s.start_us);
        row.last_end = row.last_end.max(s.end_us);
    }
    if !links.is_empty() {
        println!("  per-link occupancy:");
        println!("    src->dst   blobs        bytes      busy_us      wait_us     idle_us");
        for ((src, dst), row) in &links {
            let extent = (row.last_end - row.first_start).max(0.0);
            let idle = (extent - row.busy_us - row.wait_us).max(0.0);
            println!(
                "    {src:>3}->{dst:<3} {:>7} {:>12} {:>12.1} {:>12.1} {:>11.1}",
                row.blobs, row.bytes, row.busy_us, row.wait_us, idle
            );
        }
    }
    println!("trace_report: ok");
}

/// End of the recorded `ExposedWait` for (iteration, host-lane), or
/// -inf when that host recorded none.
fn iter_wait_end(spans: &[Span], iteration: i64, lane: i64) -> f64 {
    spans
        .iter()
        .filter(|s| {
            s.kind == SpanKind::ExposedWait && s.iteration == iteration && s.lane == lane
        })
        .map(|s| s.end_us)
        .fold(f64::NEG_INFINITY, f64::max)
}
