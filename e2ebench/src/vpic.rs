//! `vpic_bdcats`: the paper's workflow. VPIC-IO producers checkpoint
//! one shared HDF5-lite file per step through the ADIO driver with
//! collective open/close; the collective close flushes the step to
//! Lustre. Half as many BD-CATS readers then read a contiguous particle
//! range of every dataset of every step, once.

use std::sync::Arc;
use univistor_core::{Features, JobGeometry, UniviStorConfig, UniviStorDriver, UniviStorJob};
use univistor_h5::format::META_REGION_SIZE;
use univistor_mpi::{FileHandle, FsDriver, Hints, OpenContext, OpenMode};
use univistor_sim::{Bytes, Payload};
use univistor_workloads::layout::VPIC_VARS;
use univistor_workloads::{BdCatsIo, VpicLayout};

use crate::inputs::random_bytes;
use crate::model::FileModel;
use crate::trace::{Op, Round};
use crate::Scale;

pub struct VpicBdcats {
    cfg: UniviStorConfig,
    layout: VpicLayout,
    readers: BdCatsIo,
    /// Timed checkpoint steps; step 0 is the untimed warm-up.
    steps: usize,
    /// Per step: the metadata region, then slab `(var, rank)` at index
    /// `1 + var * procs + rank`.
    payloads: Vec<Vec<Payload>>,
    models: Vec<FileModel>,
}

impl VpicBdcats {
    pub fn new(seed: u64, scale: Scale) -> Self {
        // Paper geometry: 32 producers and 2 servers per node, 2 nodes.
        let (nodes, per_node, particles, steps) = match scale {
            Scale::Full => (2, 32, 8 << 10, 4),
            Scale::Small => (2, 4, 256, 2),
        };
        let procs = nodes * per_node;
        let layout = VpicLayout::scaled(procs, particles);
        let slab = layout.slab_bytes();
        let mut cfg = UniviStorConfig::paper(procs);
        cfg.geometry = JobGeometry {
            nodes,
            procs_per_node: per_node,
            servers_per_node: 2,
        };
        // The shipped stack plus the workflow state file.
        cfg.features = Features::all();
        cfg.chunk_size = slab;
        cfg.segment_size = slab;
        cfg.metadata_range_size = layout.dataset_bytes();
        // DRAM holds the warm-up step and half of the timed steps; the
        // rest of every producer's log lands on the burst buffer.
        let per_proc_step = layout.bytes_per_proc();
        let dram_per_proc = per_proc_step * (1 + steps as u64 / 2);
        cfg.cal.dram_cache_capacity_per_node = dram_per_proc * per_node as u64;

        let mut payloads = Vec::new();
        let mut models = Vec::new();
        for step in 0..=steps {
            let mut region = layout
                .superblock_for_step(step)
                .to_bytes()
                .expect("superblock fits");
            region.resize(META_REGION_SIZE as usize, 0);
            let sb = Bytes::from(region);
            let mut model = FileModel::default();
            model.write(0, sb.clone());
            let mut list = vec![Payload::from_bytes(sb)];
            for var in 0..VPIC_VARS.len() {
                for rank in 0..procs {
                    let stream = ((step * VPIC_VARS.len() + var) * procs + rank) as u64;
                    let bytes = random_bytes(seed, stream, slab as usize);
                    model.write(layout.slab_offset(var, rank), bytes.clone());
                    list.push(Payload::from_bytes(bytes));
                }
            }
            payloads.push(list);
            models.push(model);
        }
        VpicBdcats {
            cfg,
            layout,
            readers: BdCatsIo::new(layout, procs / 2),
            steps,
            payloads,
            models,
        }
    }

    pub fn cfg_mut(&mut self) -> &mut UniviStorConfig {
        &mut self.cfg
    }

    fn ctx(path: &str, mode: OpenMode, rank: usize, nprocs: usize) -> OpenContext {
        OpenContext {
            path: path.to_string(),
            mode,
            rank,
            nprocs,
            hints: Hints::new(),
        }
    }

    fn open_all(
        r: &mut Round,
        d: &UniviStorDriver,
        path: &str,
        mode: OpenMode,
        n: usize,
    ) -> Option<Vec<FileHandle>> {
        (0..n)
            .map(|rank| r.call(Op::Open, || d.open(&Self::ctx(path, mode, rank, n))))
            .collect()
    }

    fn write_step(&self, r: &mut Round, job: &UniviStorJob, d: &UniviStorDriver, step: usize) {
        let path = VpicLayout::file_path(step);
        let procs = self.layout.procs;
        r.phase(job, format!("checkpoint step {step}"));
        let Some(handles) = Self::open_all(r, d, &path, OpenMode::Write, procs) else {
            return;
        };
        let list = &self.payloads[step];
        // Root writes the metadata region first (collective metadata).
        let meta = list[0].clone();
        let len = meta.len();
        if r.call(Op::Write, || d.write_at(&handles[0], 0, 0, meta))
            .is_some()
        {
            r.count_written(len);
        }
        for (rank, h) in handles.iter().enumerate() {
            for var in 0..VPIC_VARS.len() {
                let p = list[1 + var * procs + rank].clone();
                let (offset, len) = (self.layout.slab_offset(var, rank), p.len());
                if r.call(Op::Write, || d.write_at(h, rank, offset, p))
                    .is_some()
                {
                    r.count_written(len);
                }
            }
        }
        r.phase(job, format!("flush step {step}"));
        for (rank, h) in handles.iter().enumerate() {
            // Under collective close the root's close stands for every
            // rank and drains the file; the others only disconnect.
            let op = if rank == 0 { Op::FlushClose } else { Op::Close };
            r.call(op, || d.close(h, rank));
        }
        r.verify_lustre(job, &path, &self.models[step]);
    }

    fn read_step(&self, r: &mut Round, job: &UniviStorJob, d: &UniviStorDriver, step: usize) {
        let path = VpicLayout::file_path(step);
        let n = self.readers.readers;
        r.phase(job, format!("analysis step {step}"));
        let Some(handles) = Self::open_all(r, d, &path, OpenMode::Read, n) else {
            return;
        };
        for (rank, h) in handles.iter().enumerate() {
            for var in 0..VPIC_VARS.len() {
                let (lo, hi) = self.readers.read_range(var, rank);
                if let Some(got) = r.call(Op::Read, || d.read_at(h, rank, lo, hi - lo)) {
                    r.count_read(got.len());
                    r.verify_read(&self.models[step], lo, hi - lo, &got);
                }
            }
        }
        for (rank, h) in handles.iter().enumerate() {
            r.call(Op::Close, || d.close(h, rank));
        }
    }

    pub fn round(&self, traced: bool) -> Round {
        let mut r = Round::start(traced);
        let job = Arc::new(UniviStorJob::new(self.cfg.clone()));
        let writer = UniviStorDriver::new(Arc::clone(&job), 0);
        let reader = UniviStorDriver::new(Arc::clone(&job), 1);
        // Warm-up step: lazy chain, cache and file-table creation land in
        // set-up, not in the timed steps.
        self.write_step(&mut r, &job, &writer, 0);
        self.read_step(&mut r, &job, &reader, 0);
        r.begin_timed(&job);
        for step in 1..=self.steps {
            self.write_step(&mut r, &job, &writer, step);
        }
        for step in 1..=self.steps {
            self.read_step(&mut r, &job, &reader, step);
        }
        r.end_timed(&job);
        r.verify_common();
        let d = r.after.since(&r.before);
        r.check(d.cached_dram > 0 && d.cached_bb > 0, || {
            format!(
                "tier mix: {} B on DRAM, {} B on BB; both must be used",
                d.cached_dram, d.cached_bb
            )
        });
        r.time_hash(self.payloads[1..].iter().flatten());
        r
    }
}
