//! Turning rounds into metrics: the end-to-end set (untraced rounds),
//! the per-layer set (traced rounds), the printed summary, the result
//! line and the trace file.

use std::fmt::Write as _;
use std::time::Duration;

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{Counters, Op, Round};

const MIB: f64 = (1u64 << 20) as f64;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("io_s", "s"),
    ("write_mib_s", "MiB/s"),
    ("read_mib_s", "MiB/s"),
    ("flush_mib_s", "MiB/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("server.open_us", "us"),
    ("server.md_open_close_rpcs", "count"),
    ("placement.pieces_per_write", "ratio"),
    ("placement.records_per_write", "ratio"),
    ("placement.write_locks_per_write", "ratio"),
    ("placement.dram_mib", "MiB"),
    ("placement.bb_mib", "MiB"),
    ("placement.pfs_log_mib", "MiB"),
    ("placement.spill_events", "count"),
    ("metadata.read_rpcs_per_read", "ratio"),
    ("metadata.local_hit_ratio", "ratio"),
    ("metadata.cache_hit_ratio", "ratio"),
    ("metadata.records", "count"),
    ("read.local_mib", "MiB"),
    ("read.remote_mib", "MiB"),
    ("read.bb_direct_mib", "MiB"),
    ("read.pfs_direct_mib", "MiB"),
    ("read.locks_per_read", "ratio"),
    ("integrity.hash_gib_s", "GiB/s"),
    ("integrity.hash_share_write", "ratio"),
    ("flush.spans", "count"),
    ("flush.gather_round_trips", "count"),
    ("flush.write_calls", "count"),
    ("flush.ost_writes", "count"),
    ("flush.lock_revocations", "count"),
    ("flush.coalescing", "ratio"),
    ("flush.gather_batching", "ratio"),
    ("flush.ost_imbalance", "ratio"),
    ("flush.close_ms", "ms"),
    ("tiering.passes", "count"),
    ("tiering.spilled_mib", "MiB"),
    ("tiering.drained_mib", "MiB"),
    ("tiering.promoted_mib", "MiB"),
    ("tiering.drain_ahead_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.counters_repeat", "count"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of one round; `None` where a value could not
/// be measured (a p99 without ten samples beyond it, a zero duration).
fn round_end_to_end(r: &Round) -> [Option<f64>; 9] {
    let secs = |op| Some(r.ns(op) as f64 / 1e9).filter(|&s| s > 0.0);
    let rate = |bytes: u64, op| secs(op).map(|s| bytes as f64 / MIB / s);
    let us = |v: Option<u64>| v.map(|ns| ns as f64 / 1e3);
    let (w, rd) = (r.sorted(Op::Write), r.sorted(Op::Read));
    [
        Some(r.setup_ns as f64 / 1e9),
        Some(r.io_ns() as f64 / 1e9),
        rate(r.bytes_written, Op::Write),
        rate(r.bytes_read, Op::Read),
        rate(r.flush_bytes, Op::FlushClose),
        us(percentile(&w, 50.0)),
        us(tail_percentile(&w, 99.0)),
        us(percentile(&rd, 50.0)),
        us(tail_percentile(&rd, 99.0)),
    ]
}

/// Per-layer metrics that are timings: the run reports their median over
/// traced rounds. Every other per-layer metric is a count of the
/// program's work (or a ratio of counts), identical in every round of a
/// given seed, and is reported from the first traced round.
const TIMINGS: [&str; 4] = [
    "server.open_us",
    "integrity.hash_gib_s",
    "integrity.hash_share_write",
    "flush.close_ms",
];

/// One traced round's values of every per-layer metric but the two
/// `trace.*` ones, in [`PER_LAYER`] order. A timing with no sample (no
/// timed open where files are opened in set-up) reads 0.
fn round_per_layer(r: &Round) -> Vec<f64> {
    let d = r.after.since(&r.before);
    let mib = |b: u64| b as f64 / MIB;
    let p50 = |op, scale: f64| percentile(&r.sorted(op), 50.0).map_or(0.0, |ns| ns as f64 / scale);
    let (hash_gib_s, hash_share) = match r.hash {
        Some((b, ns)) if b > 0 && ns > 0 => (
            b as f64 / (1u64 << 30) as f64 / (ns as f64 / 1e9),
            // Time the checksum alone would take on the bytes written,
            // as a share of the time inside `write`.
            r.bytes_written as f64 * (ns as f64 / b as f64) / r.ns(Op::Write).max(1) as f64,
        ),
        _ => (0.0, 0.0),
    };
    vec![
        p50(Op::Open, 1e3),
        d.md_open_close as f64,
        ratio(d.write_pieces, d.writes),
        ratio(d.write_records, d.writes),
        ratio(d.write_locks, d.writes),
        mib(d.cached_dram),
        mib(d.cached_bb),
        mib(d.cached_pfs_log),
        d.spill_events as f64,
        ratio(d.md_read, d.reads),
        ratio(d.md_local_hits, d.md_local_hits + d.md_read),
        ratio(d.md_cache_hits, d.md_cache_hits + d.md_cache_misses),
        r.metadata_records as f64,
        mib(d.read_local),
        mib(d.read_remote),
        mib(d.read_bb_direct),
        mib(d.read_pfs_direct),
        ratio(d.read_locks, d.reads),
        hash_gib_s,
        hash_share,
        d.flush_spans as f64,
        d.flush_gather_round_trips as f64,
        d.flush_write_calls as f64,
        d.flush_ost_writes as f64,
        d.flush_lock_revocations as f64,
        ratio(d.flush_spans, d.flush_write_calls),
        ratio(d.flush_spans, d.flush_gather_round_trips),
        r.ost_imbalance,
        p50(Op::FlushClose, 1e6),
        d.tiering_passes as f64,
        mib(d.tiering_spilled_bytes),
        mib(d.tiering_drained_bytes),
        mib(d.tiering_promoted_bytes),
        ratio(d.tiering_catchup_skipped_bytes, r.flush_bytes),
    ]
}

/// What one round contributes to the run's metrics. Rounds themselves
/// are dropped as soon as they are summarized, so the benchmark's own
/// memory does not grow with the number of rounds.
pub struct Summary {
    traced: bool,
    e2e: [Option<f64>; 9],
    io_ns: f64,
    /// [`round_per_layer`] (traced rounds only).
    per_layer: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Timed calls per [`Op`].
    pub samples: [usize; 5],
}

impl Summary {
    pub fn of(r: &Round) -> Summary {
        Summary {
            traced: r.traced(),
            e2e: round_end_to_end(r),
            io_ns: r.io_ns() as f64,
            per_layer: if r.traced() {
                round_per_layer(r)
            } else {
                Vec::new()
            },
            attempted: r.attempted,
            failed: r.failed,
            problems: r.problems.clone(),
            samples: Op::ALL.map(|op| r.count(op)),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }
}

pub struct Report<'a> {
    workload: &'a str,
    seed: u64,
    rounds: &'a [Summary],
    rss_bytes: u64,
    elapsed: Duration,
}

impl<'a> Report<'a> {
    pub fn new(
        workload: &'a str,
        seed: u64,
        rounds: &'a [Summary],
        rss_bytes: u64,
        elapsed: Duration,
    ) -> Self {
        Report {
            workload,
            seed,
            rounds,
            rss_bytes,
            elapsed,
        }
    }

    fn untraced(&self) -> impl Iterator<Item = &Summary> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Summary> {
        self.rounds.iter().filter(|r| r.traced)
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    fn problems(&self) -> Vec<&str> {
        self.rounds
            .iter()
            .flat_map(|r| r.problems.iter().map(String::as_str))
            .collect()
    }

    /// Median over untraced rounds of each end-to-end metric, then
    /// `rss_mib` for the whole run.
    pub fn end_to_end(&self) -> Vec<Option<f64>> {
        let mut out: Vec<Option<f64>> = (0..9)
            .map(|i| {
                let vals: Option<Vec<f64>> = self.untraced().map(|r| r.e2e[i]).collect();
                vals.and_then(|v| median(&v))
            })
            .collect();
        out.push(Some(self.rss_bytes as f64 / MIB).filter(|&m| m > 0.0));
        out
    }

    /// The per-layer metrics: work counts from the first traced round,
    /// timings as medians over traced rounds, then `trace.overhead` and
    /// `trace.counters_repeat`.
    pub fn per_layer(&self) -> Vec<Option<f64>> {
        let traced: Vec<&Summary> = self.traced().collect();
        let Some(first) = traced.first() else {
            return vec![None; PER_LAYER.len()];
        };
        let is_timing = |i: usize| TIMINGS.contains(&PER_LAYER[i].0);
        let mut out: Vec<Option<f64>> = (0..first.per_layer.len())
            .map(|i| {
                if is_timing(i) {
                    median(&traced.iter().map(|r| r.per_layer[i]).collect::<Vec<_>>())
                } else {
                    Some(first.per_layer[i])
                }
            })
            .collect();
        let io = |rs: Vec<&Summary>| median(&rs.iter().map(|r| r.io_ns).collect::<Vec<_>>());
        out.push(match (io(traced.clone()), io(self.untraced().collect())) {
            (Some(t), Some(u)) if u > 0.0 => Some(t / u),
            _ => None,
        });
        let repeat = traced.iter().all(|r| {
            (0..first.per_layer.len()).all(|i| is_timing(i) || r.per_layer[i] == first.per_layer[i])
        });
        out.push(Some(f64::from(u8::from(repeat))));
        debug_assert_eq!(out.len(), PER_LAYER.len());
        out
    }

    fn samples(&self, traced: bool) -> String {
        let rs: Vec<&Summary> = self.rounds.iter().filter(|r| r.traced == traced).collect();
        let n = |i: usize| rs.iter().map(|r| r.samples[i]).sum::<usize>();
        format!(
            "{} rounds; samples: open {}, write {}, read {}, flush_close {}, close {}",
            rs.len(),
            n(0),
            n(1),
            n(2),
            n(3),
            n(4)
        )
    }

    /// Human-readable summary (before the result line).
    pub fn print_summary(&self) {
        println!(
            "e2ebench {} seed {} ran {:.1} s, nproc {}",
            self.workload,
            self.seed,
            self.elapsed.as_secs_f64(),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        println!("untraced: {}", self.samples(false));
        if self.traced().next().is_some() {
            println!("traced:   {}", self.samples(true));
        }
        println!(
            "operations attempted {}, failed {}",
            self.attempted(),
            self.failed()
        );
        for p in self.problems().iter().take(10) {
            println!("CHECK FAILED: {p}");
        }
        for ((name, unit), v) in END_TO_END.iter().zip(self.end_to_end()) {
            println!("  {name:<32} {:>14} {unit}", fmt(v));
        }
        if self.traced().next().is_some() {
            for ((name, unit), v) in PER_LAYER.iter().zip(self.per_layer()) {
                println!("  {name:<32} {:>14} {unit}", fmt(v));
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        let (names, values): (&[(&str, &str)], Vec<Option<f64>>) = if traced {
            (&PER_LAYER, self.per_layer())
        } else {
            (&END_TO_END, self.end_to_end())
        };
        // Every end-to-end metric must be measured and above 0. Per-layer
        // values may legitimately read 0 (no tiering pass where tiering is
        // off, no timed open where files are opened in set-up); only the
        // trace overhead needs both a traced and an untraced round.
        let measured = if traced {
            values[PER_LAYER.len() - 2].is_some()
        } else {
            values.iter().all(|v| v.is_some_and(|x| x > 0.0))
        };
        let correct = self.problems().is_empty() && measured;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted(),
            self.failed()
        );
        for (i, ((name, unit), v)) in names.iter().zip(values).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = v.filter(|x| x.is_finite()).unwrap_or(0.0);
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Write the first traced round's spans and counter snapshots as
    /// JSON under `traces/` in the benchmark's directory.
    pub fn write_trace(&self, r: &Round) -> std::io::Result<()> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{}-seed{}.json", self.workload, self.seed);
        let end = r.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": [",
            self.workload, self.seed
        );
        let _ = write!(
            s,
            "{{\"id\": 0, \"parent\": null, \"name\": \"round\", \"start_ns\": 0, \"end_ns\": {end}}}"
        );
        for sp in &r.spans {
            let _ = write!(
                s,
                ",\n{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id, sp.parent, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n], \"snapshots\": [\n");
        let all = std::iter::once(("begin timed".to_string(), r.before))
            .chain(r.snapshots.iter().cloned())
            .chain(std::iter::once(("end timed".to_string(), r.after)));
        for (i, (at, c)) in all.enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"at\": \"{at}\", \"counters\": {}}}",
                counters_json(&c)
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(&path, s)?;
        println!("trace written to {path}");
        Ok(())
    }
}

fn counters_json(c: &Counters) -> String {
    let body: Vec<String> = c
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fmt(v: Option<f64>) -> String {
    v.map_or("n/a".to_string(), |x| format!("{x:.4}"))
}
