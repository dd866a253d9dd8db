//! End-to-end benchmark of UniviStor's default stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload vpic_bdcats --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One thread drives `UniviStorJob` in a closed loop: simulated ranks
//! run in a rank loop, and every call completes before the next one is
//! issued. A run repeats whole rounds until `--seconds` have passed (and
//! at least [`MIN_CALLS`] writes and reads were timed); each round builds
//! a fresh job, sets it up, runs the workload's timed phase and checks
//! every output against the benchmark's own model. Each end-to-end metric
//! is the median of its per-round values. `--trace 1` alternates untraced
//! and traced rounds and reports the per-layer metrics instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod inputs;
mod model;
mod report;
mod small;
mod stats;
mod tier;
mod trace;
mod vpic;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Summary;
use trace::Round;

/// Timed writes and reads every run issues at least, so that p99 has at
/// least ten samples beyond it.
pub const MIN_CALLS: usize = 1000;

/// Rounds every run makes at least, so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;

/// Input size: `Full` for measurement, `Small` for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// The workloads, by name.
pub enum Workload {
    VpicBdcats(vpic::VpicBdcats),
    SmallRewrite(small::SmallRewrite),
    TierPressure(tier::TierPressure),
}

pub const WORKLOADS: [&str; 3] = ["vpic_bdcats", "small_rewrite", "tier_pressure"];

impl Workload {
    pub fn new(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        Some(match name {
            "vpic_bdcats" => Workload::VpicBdcats(vpic::VpicBdcats::new(seed, scale)),
            "small_rewrite" => Workload::SmallRewrite(small::SmallRewrite::new(seed, scale)),
            "tier_pressure" => Workload::TierPressure(tier::TierPressure::new(seed, scale)),
            _ => return None,
        })
    }

    pub fn round(&self, traced: bool) -> Round {
        match self {
            Workload::VpicBdcats(w) => w.round(traced),
            Workload::SmallRewrite(w) => w.round(traced),
            Workload::TierPressure(w) => w.round(traced),
        }
    }

    /// Use the partitioned runtime with `workers` workers (reference
    /// figures only; not a benchmark workload).
    fn set_partitioned(&mut self, workers: usize) {
        let cfg = match self {
            Workload::VpicBdcats(w) => w.cfg_mut(),
            Workload::SmallRewrite(w) => w.cfg_mut(),
            Workload::TierPressure(w) => w.cfg_mut(),
        };
        cfg.runtime = univistor_core::Runtime::Partitioned;
        cfg.partitions = workers;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    partitioned: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut partitioned) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--partitioned-workers" => {
                partitioned = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--partitioned-workers: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        partitioned,
    })
}

/// Peak resident memory of this process (VmHWM), in bytes.
fn vm_hwm() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = Workload::new(&args.workload, args.seed, Scale::Full) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(workers) = args.partitioned {
        workload.set_partitioned(workers);
    }
    let hwm_inputs = vm_hwm().unwrap_or(0);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<Summary> = Vec::new();
    let mut first_traced = None;
    loop {
        let (writes, reads) = rounds
            .iter()
            .filter(|r| !r.traced())
            .fold((0, 0), |(w, rd), r| (w + r.samples[1], rd + r.samples[2]));
        let enough = started.elapsed() >= budget
            && rounds.len() >= MIN_ROUNDS
            && writes >= MIN_CALLS
            && reads >= MIN_CALLS
            && (!args.trace || rounds.len().is_multiple_of(2));
        if enough {
            break;
        }
        // Traced runs alternate untraced and traced rounds, so the trace's
        // overhead is measured within the run.
        let traced = args.trace && !rounds.len().is_multiple_of(2);
        let round = workload.round(traced);
        rounds.push(Summary::of(&round));
        if traced && first_traced.is_none() {
            first_traced = Some(round);
        }
    }
    let rss = vm_hwm().unwrap_or(0).saturating_sub(hwm_inputs);
    let out = report::Report::new(&args.workload, args.seed, &rounds, rss, started.elapsed());
    out.print_summary();
    if let Some(round) = &first_traced {
        if let Err(e) = out.write_trace(round) {
            eprintln!("e2ebench: writing the trace failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", out.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Report, END_TO_END, PER_LAYER};
    use univistor_obs::Json;

    fn small_rounds(name: &str) -> Vec<Round> {
        let w = Workload::new(name, 7, Scale::Small).expect("known workload");
        vec![w.round(false), w.round(true)]
    }

    #[test]
    fn every_workload_passes_its_output_checks_at_small_size() {
        for name in WORKLOADS {
            for r in small_rounds(name) {
                assert!(r.problems.is_empty(), "{name}: {:?}", r.problems);
                assert_eq!(r.failed, 0, "{name}");
                assert!(
                    r.count(trace::Op::Write) > 0 && r.count(trace::Op::Read) > 0,
                    "{name}"
                );
                assert!(
                    r.bytes_written > 0 && r.bytes_read > 0 && r.flush_bytes > 0,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn a_tampered_model_fails_the_read_check() {
        // The checks compare against the benchmark's model: a read checked
        // against the wrong file's model must be reported.
        let mut good = model::FileModel::default();
        good.write(0, univistor_sim::Bytes::from(vec![1u8; 64]));
        let mut r = Round::start(false);
        let got = univistor_sim::Payload::from_bytes(vec![2u8; 64]);
        r.verify_read(&good, 0, 64, &got);
        assert_eq!(r.problems.len(), 1);
    }

    fn metric_names(line: &str) -> Vec<(String, String)> {
        let json = Json::parse(line).expect("result line is JSON");
        let keys: Vec<&str> = json
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            json.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );
        assert!(json.get("failed").and_then(Json::as_u64).is_some());
        json.get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                let fields: Vec<&str> = m
                    .as_object()
                    .expect("metric")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"], "{name}");
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn result_line_schema() {
        let rounds = small_rounds("small_rewrite");
        let summaries: Vec<Summary> = rounds.iter().map(Summary::of).collect();
        let report = Report::new(
            "small_rewrite",
            7,
            &summaries,
            1 << 20,
            Duration::from_secs(1),
        );
        assert_eq!(metric_names(&report.result_json(false)), table(&END_TO_END));
        assert_eq!(metric_names(&report.result_json(true)), table(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        assert_eq!(list("end_to_end"), table(&END_TO_END));
        assert_eq!(list("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
