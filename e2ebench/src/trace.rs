//! Call timing, spans and counter snapshots, all taken from outside the
//! program: the benchmark times each call into a public function of the
//! job, and reads the job's own counters between phases.
//!
//! Every call of a round's timed phase is timed, traced or not (the
//! end-to-end metrics need the per-call latencies). A traced round
//! additionally keeps a span per call and per phase (round → phase →
//! call, each with an id, a parent, a start and an end) plus a counter
//! snapshot at every phase boundary; they stay in memory until the run
//! writes them out.

use std::time::Instant;
use univistor_core::UniviStorJob;
use univistor_sim::Payload;

use crate::model::FileModel;

/// The kinds of call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open,
    Write,
    Read,
    /// The close that drains a written file to Lustre.
    FlushClose,
    /// Any other close (non-root ranks under collective close, readers).
    Close,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Open, Op::Write, Op::Read, Op::FlushClose, Op::Close];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Write => "write",
            Op::Read => "read",
            Op::FlushClose => "flush_close",
            Op::Close => "close",
        }
    }
}

/// One span: a phase (parent = the round, id 0) or a call (parent = its
/// phase). Times are nanoseconds since the round's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The job's own work counters at one instant, read through
/// `UniviStorJob::metrics` and `UniviStorJob::stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub writes: u64,
    pub reads: u64,
    pub md_open_close: u64,
    pub md_read: u64,
    pub md_local_hits: u64,
    pub md_cache_hits: u64,
    pub md_cache_misses: u64,
    pub write_pieces: u64,
    pub write_records: u64,
    pub write_locks: u64,
    pub read_locks: u64,
    pub cached_dram: u64,
    pub cached_bb: u64,
    pub cached_pfs_log: u64,
    pub spill_events: u64,
    pub read_local: u64,
    pub read_remote: u64,
    pub read_bb_direct: u64,
    pub read_pfs_direct: u64,
    pub verify_failures: u64,
    pub flush_spans: u64,
    pub flush_gather_round_trips: u64,
    pub flush_write_calls: u64,
    pub flush_ost_writes: u64,
    pub flush_lock_revocations: u64,
    pub flush_receipts: u64,
    pub tiering_passes: u64,
    pub tiering_spilled_bytes: u64,
    pub tiering_drained_bytes: u64,
    pub tiering_promoted_bytes: u64,
    pub tiering_catchup_skipped_bytes: u64,
}

macro_rules! counter_fields {
    ($mac:ident) => {
        $mac!(
            writes,
            reads,
            md_open_close,
            md_read,
            md_local_hits,
            md_cache_hits,
            md_cache_misses,
            write_pieces,
            write_records,
            write_locks,
            read_locks,
            cached_dram,
            cached_bb,
            cached_pfs_log,
            spill_events,
            read_local,
            read_remote,
            read_bb_direct,
            read_pfs_direct,
            verify_failures,
            flush_spans,
            flush_gather_round_trips,
            flush_write_calls,
            flush_ost_writes,
            flush_lock_revocations,
            flush_receipts,
            tiering_passes,
            tiering_spilled_bytes,
            tiering_drained_bytes,
            tiering_promoted_bytes,
            tiering_catchup_skipped_bytes
        )
    };
}

impl Counters {
    /// Read the job's counters.
    pub fn read(job: &UniviStorJob) -> Counters {
        let m = job.metrics();
        let c = |name: &str, labels: &[(&str, &str)]| m.counter(name, labels).unwrap_or(0);
        let t = |name: &str| m.counter_total(name);
        let tier = |name: &str, tier: &str| c(name, &[("tier", tier)]);
        let path = |p: &str| c("univistor_read_bytes_total", &[("path", p)]);
        Counters {
            writes: c("univistor_ops_total", &[("op", "write")]),
            reads: c("univistor_ops_total", &[("op", "read")]),
            md_open_close: c("univistor_md_rpcs_total", &[("op", "open_close")]),
            md_read: c("univistor_md_rpcs_total", &[("op", "read")]),
            md_local_hits: t("univistor_md_local_hits_total"),
            md_cache_hits: t("univistor_read_md_cache_hits_total"),
            md_cache_misses: t("univistor_read_md_cache_misses_total"),
            write_pieces: t("univistor_write_pieces_total"),
            write_records: t("univistor_write_records_total"),
            write_locks: t("univistor_write_lock_acquisitions_total"),
            read_locks: t("univistor_read_lock_acquisitions_total"),
            cached_dram: tier("univistor_cached_bytes_total", "dram"),
            cached_bb: tier("univistor_cached_bytes_total", "burst_buffer"),
            cached_pfs_log: tier("univistor_cached_bytes_total", "pfs"),
            spill_events: t("univistor_tier_spill_events_total"),
            read_local: path("local_hit") + path("local_via_server"),
            read_remote: path("remote_hop"),
            read_bb_direct: path("bb_direct"),
            read_pfs_direct: path("pfs_direct"),
            verify_failures: t("univistor_integrity_verify_failures_total"),
            flush_spans: t("univistor_flush_spans_total"),
            flush_gather_round_trips: t("univistor_flush_gather_round_trips_total"),
            flush_write_calls: t("univistor_flush_write_calls_total"),
            flush_ost_writes: t("univistor_flush_ost_writes_total"),
            flush_lock_revocations: t("univistor_flush_lock_revocations_total"),
            flush_receipts: job.stats().flush_receipts.len() as u64,
            tiering_passes: t("univistor_tiering_passes_total"),
            tiering_spilled_bytes: t("univistor_tiering_spilled_bytes_total"),
            tiering_drained_bytes: t("univistor_tiering_drained_bytes_total"),
            tiering_promoted_bytes: t("univistor_tiering_promoted_bytes_total"),
            tiering_catchup_skipped_bytes: t("univistor_tiering_catchup_skipped_bytes_total"),
        }
    }

    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        macro_rules! diff {
            ($($f:ident),*) => { Counters { $($f: self.$f - before.$f),* } };
        }
        counter_fields!(diff)
    }

    /// `(name, value)` pairs, for the trace file.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list {
            ($($f:ident),*) => { vec![$((stringify!($f), self.$f)),*] };
        }
        counter_fields!(list)
    }
}

/// Everything one round measured.
pub struct Round {
    origin: Instant,
    traced: bool,
    /// Between `begin_timed` and `end_timed`: calls count toward the
    /// end-to-end metrics.
    timing: bool,
    next_id: u64,
    phase: Option<(u64, String, u64)>,
    /// Per-call latencies (ns), indexed by [`Op`].
    lat: [Vec<u64>; 5],
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Bytes on Lustre after each flushing close, summed.
    pub flush_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// From the job's construction to the first timed call.
    pub setup_ns: u64,
    pub before: Counters,
    pub after: Counters,
    /// `UniviStorJob::metadata_records` at the end of the timed phase.
    pub metadata_records: u64,
    /// Max ÷ mean bytes over the OSTs each timed flush wrote, averaged.
    pub ost_imbalance: f64,
    /// `(bytes, ns)` of `Payload::content_checksum` over the round's
    /// write payloads (traced rounds only).
    pub hash: Option<(u64, u64)>,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
    pub snapshots: Vec<(String, Counters)>,
}

impl Round {
    /// Start a round; the set-up clock starts now.
    pub fn start(traced: bool) -> Round {
        Round {
            origin: Instant::now(),
            traced,
            timing: false,
            next_id: 1,
            phase: None,
            lat: Default::default(),
            bytes_written: 0,
            bytes_read: 0,
            flush_bytes: 0,
            attempted: 0,
            failed: 0,
            setup_ns: 0,
            before: Counters::default(),
            after: Counters::default(),
            metadata_records: 0,
            ost_imbalance: 0.0,
            hash: None,
            problems: Vec::new(),
            spans: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// End set-up: stop its clock and snapshot the counters.
    pub fn begin_timed(&mut self, job: &UniviStorJob) {
        self.setup_ns = self.now_ns();
        self.end_phase(job);
        self.before = Counters::read(job);
        self.timing = true;
    }

    /// End the timed phase: snapshot the counters and the index size.
    pub fn end_timed(&mut self, job: &UniviStorJob) {
        self.end_phase(job);
        self.timing = false;
        self.after = Counters::read(job);
        self.metadata_records = job.metadata_records() as u64;
        let receipts = job.stats().flush_receipts;
        let timed = &receipts[self.before.flush_receipts as usize..];
        let ratios: Vec<f64> = timed
            .iter()
            .map(|r| {
                let used: Vec<u64> = r.per_ost_bytes.iter().copied().filter(|&b| b > 0).collect();
                let mean = used.iter().sum::<u64>() as f64 / used.len().max(1) as f64;
                used.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
            })
            .collect();
        self.ost_imbalance = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    }

    /// Open a phase span (closing the previous one); traced rounds also
    /// snapshot the counters at the boundary.
    pub fn phase(&mut self, job: &UniviStorJob, name: impl Into<String>) {
        self.end_phase(job);
        if self.traced {
            let id = self.next_id;
            self.next_id += 1;
            let name = name.into();
            self.snapshots
                .push((format!("begin {name}"), Counters::read(job)));
            self.phase = Some((id, name, self.now_ns()));
        }
    }

    fn end_phase(&mut self, job: &UniviStorJob) {
        if let Some((id, name, start_ns)) = self.phase.take() {
            let end_ns = self.now_ns();
            self.snapshots
                .push((format!("end {name}"), Counters::read(job)));
            self.spans.push(Span {
                id,
                parent: 0,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time one call into the program (set-up calls are traced but not
    /// counted in the latencies). A failed call is counted and yields
    /// `None`.
    pub fn call<R, E: std::fmt::Display>(
        &mut self,
        op: Op,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.timing {
            self.lat[op.index()].push((t1 - t0).as_nanos() as u64);
        }
        if self.traced {
            let id = self.next_id;
            self.next_id += 1;
            let base = self.origin;
            self.spans.push(Span {
                id,
                parent: self.phase.as_ref().map_or(0, |p| p.0),
                name: op.name().to_string(),
                start_ns: (t0 - base).as_nanos() as u64,
                end_ns: (t1 - base).as_nanos() as u64,
            });
        }
        self.attempted += 1;
        match out {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("{} failed: {e}", op.name());
                }
                None
            }
        }
    }

    /// Count bytes passed to a successful timed `write`.
    pub fn count_written(&mut self, len: u64) {
        if self.timing {
            self.bytes_written += len;
        }
    }

    /// Count bytes returned by a successful timed `read`.
    pub fn count_read(&mut self, len: u64) {
        if self.timing {
            self.bytes_read += len;
        }
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Compare a read's result with the model, byte for byte.
    pub fn verify_read(&mut self, model: &FileModel, offset: u64, len: u64, got: &Payload) {
        let ok = got.len() == len && model.matches_payload(offset, got);
        self.check(ok, || {
            format!("read [{offset}, +{len}) differs from the model")
        });
    }

    /// After a file's flushing close: its Lustre size and whole image
    /// must equal the model. Adds the file's bytes to `flush_bytes`.
    pub fn verify_lustre(&mut self, job: &UniviStorJob, path: &str, model: &FileModel) {
        let size = job.lustre_file_size(path).ok();
        self.check(size == Some(model.size()), || {
            format!("{path}: Lustre size {size:?}, model {}", model.size())
        });
        let Some(size) = size else { return };
        if self.timing {
            self.flush_bytes += size;
        }
        match job.lustre_read(path, 0, size) {
            Ok(image) => {
                let ok = image.len() == size && model.matches_payload(0, &image);
                self.check(ok, || {
                    format!("{path}: Lustre image differs from the model")
                });
            }
            Err(e) => self
                .problems
                .push(format!("{path}: lustre_read failed: {e}")),
        }
    }

    /// Checks every workload shares: no integrity verify failures.
    pub fn verify_common(&mut self) {
        let d = self.after.since(&self.before);
        self.check(d.verify_failures == 0, || {
            format!("{} integrity verify failures", d.verify_failures)
        });
    }

    /// Time `Payload::content_checksum` over `payloads` (traced rounds).
    pub fn time_hash<'a>(&mut self, payloads: impl Iterator<Item = &'a Payload>) {
        if !self.traced {
            return;
        }
        let (mut bytes, mut acc) = (0u64, 0u64);
        let t0 = Instant::now();
        for p in payloads {
            bytes += p.len();
            acc ^= std::hint::black_box(p).content_checksum();
        }
        std::hint::black_box(acc);
        self.hash = Some((bytes, t0.elapsed().as_nanos() as u64));
    }

    /// Sorted latencies of one op kind.
    pub fn sorted(&self, op: Op) -> Vec<u64> {
        let mut v = self.lat[op.index()].clone();
        v.sort_unstable();
        v
    }

    pub fn count(&self, op: Op) -> usize {
        self.lat[op.index()].len()
    }

    /// Total ns inside calls of one kind.
    pub fn ns(&self, op: Op) -> u64 {
        self.lat[op.index()].iter().sum()
    }

    /// Total ns inside every timed call: the round's I/O time.
    pub fn io_ns(&self) -> u64 {
        Op::ALL.iter().map(|&op| self.ns(op)).sum()
    }
}
