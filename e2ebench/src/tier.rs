//! `tier_pressure`: tiering on, driven only by its write-path cadence
//! (`drain_cadence_ops`); no daemon thread runs. DRAM and BB hold a
//! fraction of the live set. Set-up fills the fast tiers to their high
//! watermark; the timed phase streams writes past capacity (the inline
//! passes spill and drain to Lustre), reads the whole range back from
//! DRAM, BB and the PFS log, overwrites a slice of already drained
//! records, and closes every file, which runs the catch-up flush.

use univistor_core::{ClientId, JobGeometry, TieringConfig, UniviStorConfig, UniviStorJob};
use univistor_mpi::OpenMode;
use univistor_sim::{Bytes, Payload};

use crate::inputs::random_bytes;
use crate::model::FileModel;
use crate::trace::{Op, Round};
use crate::Scale;

/// Bytes per record, chunk and segment.
const RECORD: u64 = 16 << 10;

pub struct TierPressure {
    cfg: UniviStorConfig,
    clients: usize,
    /// Records each client writes in set-up.
    fill: u64,
    /// Records each client streams in the timed phase.
    stream: u64,
    /// Records each client overwrites at the start of its file.
    rewrite: u64,
    /// Per client: every record's content, then the overwrites.
    data: Vec<Vec<Payload>>,
}

fn path(client: usize) -> String {
    format!("/pressure/client{client}.dat")
}

impl TierPressure {
    pub fn new(seed: u64, scale: Scale) -> Self {
        // (nodes, clients per node, fast-tier chunks per client, stream, rewrite)
        let (nodes, per_node, dram_chunks, bb_chunks, stream, rewrite) = match scale {
            Scale::Full => (2, 4, 32, 64, 160, 16),
            Scale::Small => (2, 2, 4, 8, 24, 4),
        };
        let clients = nodes * per_node;
        let mut cfg = UniviStorConfig::paper(clients);
        cfg.geometry = JobGeometry {
            nodes,
            procs_per_node: per_node,
            servers_per_node: 2,
        };
        cfg.chunk_size = RECORD;
        cfg.segment_size = RECORD;
        cfg.metadata_range_size = 16 * RECORD;
        cfg.cal.dram_cache_capacity_per_node = dram_chunks * RECORD * per_node as u64;
        cfg.cal.bb_nodes_min = 1;
        cfg.cal.bb_nodes_per_compute_node = 0.5;
        cfg.cal.bb_capacity_per_node = bb_chunks * RECORD * clients as u64;
        // Inline passes only: the cadence trigger runs a pass on the
        // writer's node every `drain_cadence_ops` writes.
        cfg.tiering = TieringConfig::on();
        let fill = ((dram_chunks + bb_chunks) as f64 * cfg.tiering.dram.high) as u64;
        let records = fill + stream + rewrite;
        let data = (0..clients)
            .map(|c| {
                (0..records)
                    .map(|i| {
                        let stream = ((c as u64) << 32) | i;
                        Payload::from_bytes(random_bytes(seed, stream, RECORD as usize))
                    })
                    .collect()
            })
            .collect();
        TierPressure {
            cfg,
            clients,
            fill,
            stream,
            rewrite,
            data,
        }
    }

    pub fn cfg_mut(&mut self) -> &mut UniviStorConfig {
        &mut self.cfg
    }

    fn client(c: usize) -> ClientId {
        ClientId::new(0, c as u32)
    }

    fn bytes(p: &Payload) -> Bytes {
        match p {
            Payload::Bytes(b) => b.clone(),
            _ => unreachable!("inputs are real bytes"),
        }
    }

    /// Write record `slot` of every client with payload `src` of each.
    fn write_slot(
        &self,
        r: &mut Round,
        job: &UniviStorJob,
        models: &mut [FileModel],
        slot: u64,
        src: u64,
    ) {
        for (c, model) in models.iter_mut().enumerate() {
            let p = path(c);
            let payload = self.data[c][src as usize].clone();
            let bytes = Self::bytes(&payload);
            let offset = slot * RECORD;
            if r.call(Op::Write, || {
                job.write(Self::client(c), &p, offset, payload)
            })
            .is_some()
            {
                r.count_written(RECORD);
                model.write(offset, bytes);
            }
        }
    }

    pub fn round(&self, traced: bool) -> Round {
        let mut r = Round::start(traced);
        let job = UniviStorJob::new(self.cfg.clone());
        r.phase(&job, "fill to high watermark");
        let mut models = vec![FileModel::default(); self.clients];
        for c in 0..self.clients {
            job.connect(Self::client(c));
            r.call(Op::Open, || {
                job.open_file(&path(c)).read_write().by(Self::client(c))
            });
        }
        for slot in 0..self.fill {
            self.write_slot(&mut r, &job, &mut models, slot, slot);
        }
        r.begin_timed(&job);
        r.phase(&job, "stream past capacity");
        let end = self.fill + self.stream;
        for slot in self.fill..end {
            self.write_slot(&mut r, &job, &mut models, slot, slot);
        }
        r.phase(&job, "read back");
        for (c, model) in models.iter().enumerate() {
            let p = path(c);
            for slot in 0..end {
                let offset = slot * RECORD;
                if let Some(got) =
                    r.call(Op::Read, || job.read(Self::client(c), &p, offset, RECORD))
                {
                    r.count_read(got.len());
                    r.verify_read(model, offset, RECORD, &got);
                }
            }
        }
        r.phase(&job, "overwrite drained slice");
        for i in 0..self.rewrite {
            self.write_slot(&mut r, &job, &mut models, i, end + i);
        }
        r.phase(&job, "close and catch-up flush");
        for (c, model) in models.iter().enumerate() {
            let p = path(c);
            r.call(Op::FlushClose, || {
                job.close(&p, Self::client(c), OpenMode::ReadWrite, 1, true)
            });
            r.verify_lustre(&job, &p, model);
        }
        r.end_timed(&job);
        r.verify_common();
        let d = r.after.since(&r.before);
        r.check(
            d.tiering_spilled_bytes > 0 && d.tiering_drained_bytes > 0 && d.read_pfs_direct > 0,
            || {
                format!(
                    "tier mix: spilled {} B, drained {} B, read {} B from the PFS log; all must be > 0",
                    d.tiering_spilled_bytes, d.tiering_drained_bytes, d.read_pfs_direct
                )
            },
        );
        r.time_hash(self.data.iter().flat_map(|d| &d[self.fill as usize..]));
        for c in 0..self.clients {
            job.disconnect(Self::client(c));
        }
        r
    }
}
