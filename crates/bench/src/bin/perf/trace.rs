//! The span recorder behind `perf trace`.
//!
//! Spans are taken from outside the program, around the public calls the
//! benchmark makes into each layer. They stay in memory until the run ends.
//! `TpccDriver::step` runs hundreds of thousands of times, so its spans are
//! folded to count/total/p50/hi per (cell, transaction kind) instead of
//! being kept one by one.

use std::collections::BTreeMap;
use std::time::Instant;

use recobench_engine::stats::EngineStats;
use recobench_engine::DbServer;
use recobench_sim::DiskStats;
use recobench_tpcc::TxnKind;

use crate::json::Json;
use crate::stats::{hi_percentile, median, now};

/// Name of the span that wraps a cell's step loop; the folded steps are its
/// children for self-time purposes.
pub const STEP_LOOP: &str = "tpcc.driver.run";

/// One recorded interval. `parent` is the span that was open when this one
/// began; `cell` groups the spans of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub cell: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Transaction kinds in the order the step metrics list them.
pub const KINDS: [(TxnKind, &str); 5] = [
    (TxnKind::NewOrder, "new_order"),
    (TxnKind::Payment, "payment"),
    (TxnKind::OrderStatus, "order_status"),
    (TxnKind::Delivery, "delivery"),
    (TxnKind::StockLevel, "stock_level"),
];

fn kind_index(kind: TxnKind) -> usize {
    KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every TxnKind is listed")
}

/// Cumulative counters of every disk of `srv`'s filesystem.
pub fn disk_stats(srv: &DbServer) -> Vec<DiskStats> {
    let fs = srv.fs().lock();
    fs.disk_ids()
        .into_iter()
        .filter_map(|d| fs.disk_stats(d).ok())
        .collect()
}

/// The public counters of one operation's measured window: what the engine
/// and each simulated disk did between two reads of their cumulative stats.
#[derive(Debug, Clone)]
pub struct Window {
    pub engine: EngineStats,
    pub disks: Vec<DiskStats>,
    /// Simulated microseconds the window spans.
    pub sim_us: u64,
}

impl Window {
    pub fn between(
        srv: &DbServer,
        engine0: &EngineStats,
        disks0: &[DiskStats],
        sim_us: u64,
    ) -> Window {
        let disks = disk_stats(srv)
            .iter()
            .zip(disks0)
            .map(|(now, then)| DiskStats {
                reads: now.reads.saturating_sub(then.reads),
                writes: now.writes.saturating_sub(then.writes),
                bytes_read: now.bytes_read.saturating_sub(then.bytes_read),
                bytes_written: now.bytes_written.saturating_sub(then.bytes_written),
                busy_micros: now.busy_micros.saturating_sub(then.busy_micros),
            })
            .collect();
        Window {
            engine: srv.stats().since(engine0),
            disks,
            sim_us,
        }
    }

    /// Busy fraction of the busiest disk over the window.
    pub fn busy_frac_max(&self) -> f64 {
        let busiest = self.disks.iter().map(|d| d.busy_micros).max().unwrap_or(0);
        if self.sim_us == 0 {
            0.0
        } else {
            busiest as f64 / self.sim_us as f64
        }
    }
}

/// Runs `f` inside a span when a tracer is present, bare otherwise, so the
/// traced and untraced passes share one body.
pub fn spanned<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Records spans relative to its creation instant, and the counter windows
/// taken at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cell: u32,
    /// Step durations in ns per (cell, kind index).
    steps: BTreeMap<(u32, usize), Vec<f64>>,
    /// One counter window per traced operation.
    pub windows: Vec<Window>,
    /// Blocks `verify_integrity` checksummed, summed over its calls.
    pub blocks_checksummed: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            steps: BTreeMap::new(),
            windows: Vec::new(),
            blocks_checksummed: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Spans recorded from here on belong to operation `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            cell: self.cell,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn end(&mut self, id: u32) {
        let end_ns = self.ns(now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (recovery phases are timestamped in an event callback and
    /// filed afterwards).
    pub fn closed(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            cell: self.cell,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Files one driver step of the current cell.
    pub fn step(&mut self, kind: TxnKind, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as f64;
        self.steps
            .entry((self.cell, kind_index(kind)))
            .or_default()
            .push(ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Step durations in µs, of one kind or of all.
    pub fn step_us(&self, kind: Option<TxnKind>) -> Vec<f64> {
        let want = kind.map(kind_index);
        self.steps
            .iter()
            .filter(|((_, k), _)| want.is_none_or(|w| w == *k))
            .flat_map(|(_, ns)| ns.iter().map(|n| n / 1e3))
            .collect()
    }

    /// Self time of every span, by id: its duration minus what its direct
    /// children cover. The folded steps of a cell count as children of that
    /// cell's step-loop span.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_ns();
            }
        }
        for s in self.spans.iter().filter(|s| s.name == STEP_LOOP) {
            let folded: f64 = self
                .steps
                .range((s.cell, 0)..(s.cell + 1, 0))
                .flat_map(|(_, v)| v)
                .sum();
            covered[s.id as usize] += folded as u64;
        }
        self.spans
            .iter()
            .map(|s| s.duration_ns().saturating_sub(covered[s.id as usize]))
            .collect()
    }

    /// The trace file: raw spans with self time, then the folded steps.
    pub fn to_json(&self) -> Json {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::opt(s.parent.map(f64::from))),
                    ("cell", Json::Num(f64::from(s.cell))),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns[s.id as usize] as f64)),
                ])
            })
            .collect();
        let steps = self
            .steps
            .iter()
            .map(|((cell, kind), ns)| {
                let (hi_label, hi) = hi_percentile(ns);
                Json::obj([
                    ("cell", Json::Num(f64::from(*cell))),
                    ("kind", Json::str(KINDS[*kind].1)),
                    ("count", Json::Num(ns.len() as f64)),
                    ("total_ns", Json::Num(ns.iter().sum())),
                    ("p50_ns", Json::Num(median(ns))),
                    ("hi", Json::str(hi_label)),
                    ("hi_ns", Json::Num(hi)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("steps", Json::Arr(steps))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        let at = |ns: u64| t.origin + Duration::from_nanos(ns);
        let (a, b, c, d, e) = (at(0), at(100), at(400), at(450), at(1_000));
        let root = t.begin("cell");
        let child = t.begin("child");
        t.closed("grandchild", b, c);
        t.end(child);
        t.closed("sibling", d, e);
        t.end(root);
        // Pin the clock-derived ends so the arithmetic below is exact.
        t.spans[root as usize].start_ns = 0;
        t.spans[root as usize].end_ns = 2_000;
        t.spans[child as usize].start_ns = 50;
        t.spans[child as usize].end_ns = 500;
        let _ = a;
        let own = t.self_times_ns();
        assert_eq!(t.spans[2].parent, Some(child));
        assert_eq!(t.spans[3].parent, Some(root));
        assert_eq!(own[child as usize], 450 - 300, "child minus grandchild");
        assert_eq!(
            own[root as usize],
            2_000 - 450 - 550,
            "root minus child and sibling, not grandchild"
        );
        assert_eq!(own[2], 300, "a leaf keeps its whole duration");
    }

    #[test]
    fn folded_steps_are_children_of_their_cells_step_loop() {
        let mut t = Tracer::new();
        let origin = t.origin;
        for cell in [0u32, 1] {
            t.set_cell(cell);
            let run = t.begin(STEP_LOOP);
            for i in 0..4u64 {
                let start = origin + Duration::from_nanos(i * 10);
                t.step(
                    TxnKind::Payment,
                    start,
                    start + Duration::from_nanos(100 * (u64::from(cell) + 1)),
                );
            }
            t.end(run);
            t.spans[run as usize].start_ns = 0;
            t.spans[run as usize].end_ns = 1_000;
        }
        assert_eq!(t.self_times_ns(), vec![600, 200]);
        assert_eq!(t.step_us(Some(TxnKind::Payment)).len(), 8);
        assert!(t.step_us(Some(TxnKind::Delivery)).is_empty());
        let json = t.to_json();
        let steps = json.get("steps").and_then(Json::as_arr).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[1].get("total_ns").and_then(Json::as_f64), Some(800.0));
    }
}
