//! `small_rewrite`: per-call cost. Each client owns one file of small
//! blocks (4–16 KiB). Set-up prefills every block; the timed phase mixes
//! about 30% whole-block overwrites with 70% block re-reads, skewed so
//! that hot blocks are re-read many times, then closes (and flushes)
//! every file.

use univistor_core::{ClientId, JobGeometry, UniviStorConfig, UniviStorJob};
use univistor_mpi::OpenMode;
use univistor_sim::{Bytes, Payload};

use crate::inputs::{random_bytes, rng};
use crate::model::FileModel;
use crate::trace::{Op, Round};
use crate::Scale;

struct Block {
    offset: u64,
    len: u64,
}

struct MixedOp {
    client: usize,
    block: usize,
    /// `Some` for an overwrite.
    data: Option<Bytes>,
}

pub struct SmallRewrite {
    cfg: UniviStorConfig,
    clients: usize,
    blocks: Vec<Block>,
    /// Per client: the prefill content of every block.
    prefill: Vec<Vec<Bytes>>,
    ops: Vec<MixedOp>,
    /// The overwrite payloads, for timing the checksum on them.
    overwrites: Vec<Payload>,
}

fn path(client: usize) -> String {
    format!("/small/client{client:02}.dat")
}

impl SmallRewrite {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (nodes, per_node, blocks_per_file, ops) = match scale {
            Scale::Full => (2, 6, 192, 3600),
            Scale::Small => (2, 2, 16, 200),
        };
        let clients = nodes * per_node;
        let mut cfg = UniviStorConfig::paper(clients);
        cfg.geometry = JobGeometry {
            nodes,
            procs_per_node: per_node,
            servers_per_node: 2,
        };
        cfg.chunk_size = 1 << 20;
        cfg.segment_size = 64 << 10;
        cfg.metadata_range_size = 256 << 10;

        // Every file shares one block layout, the same for every seed
        // (4, 8, 12, 16 KiB repeating), so that file sizes and the sizes
        // of the hot blocks do not vary between seeds; the seed draws the
        // contents and the operation sequence.
        let mut blocks = Vec::with_capacity(blocks_per_file);
        let mut offset = 0;
        for i in 0..blocks_per_file {
            let len = (4 << 10) * (1 + i as u64 % 4);
            blocks.push(Block { offset, len });
            offset += len;
        }
        let prefill = (0..clients)
            .map(|c| {
                (0..blocks_per_file)
                    .map(|b| {
                        let stream = (1 << 32) | (c * blocks_per_file + b) as u64;
                        random_bytes(seed, stream, blocks[b].len as usize)
                    })
                    .collect()
            })
            .collect();
        // Clients take turns in a seeded order, so each issues the same
        // number of operations. Skew: block index floor(n · u³) puts most
        // accesses on the first few blocks of each file.
        let mut r = rng(seed, 1);
        let mut turn: Vec<usize> = (0..clients).collect();
        let mut ops_list = Vec::with_capacity(ops);
        for i in 0..ops {
            if i % clients == 0 {
                r.shuffle(&mut turn);
            }
            let client = turn[i % clients];
            let u = r.unit();
            let block = ((blocks_per_file as f64) * u * u * u) as usize;
            // Exactly 3 of every 10 operations overwrite.
            let data = if matches!(i % 10, 0 | 3 | 6) {
                Some(random_bytes(
                    seed,
                    (2 << 32) | i as u64,
                    blocks[block].len as usize,
                ))
            } else {
                None
            };
            ops_list.push(MixedOp {
                client,
                block,
                data,
            });
        }
        let overwrites = ops_list
            .iter()
            .filter_map(|o| o.data.clone().map(Payload::from_bytes))
            .collect();
        SmallRewrite {
            cfg,
            clients,
            blocks,
            prefill,
            ops: ops_list,
            overwrites,
        }
    }

    pub fn cfg_mut(&mut self) -> &mut UniviStorConfig {
        &mut self.cfg
    }

    fn client(c: usize) -> ClientId {
        ClientId::new(0, c as u32)
    }

    pub fn round(&self, traced: bool) -> Round {
        let mut r = Round::start(traced);
        let job = UniviStorJob::new(self.cfg.clone());
        r.phase(&job, "prefill");
        let mut models = vec![FileModel::default(); self.clients];
        for (c, model) in models.iter_mut().enumerate() {
            job.connect(Self::client(c));
            let p = path(c);
            r.call(Op::Open, || {
                job.open_file(&p).read_write().by(Self::client(c))
            });
            for (b, data) in self.blocks.iter().zip(&self.prefill[c]) {
                let payload = Payload::from_bytes(data.clone());
                if r.call(Op::Write, || {
                    job.write(Self::client(c), &p, b.offset, payload)
                })
                .is_some()
                {
                    model.write(b.offset, data.clone());
                }
            }
        }
        let paths: Vec<String> = (0..self.clients).map(path).collect();
        r.begin_timed(&job);
        r.phase(&job, "rewrite and re-read");
        for op in &self.ops {
            let (c, b, p) = (op.client, &self.blocks[op.block], &paths[op.client]);
            match &op.data {
                Some(data) => {
                    let payload = Payload::from_bytes(data.clone());
                    if r.call(Op::Write, || {
                        job.write(Self::client(c), p, b.offset, payload)
                    })
                    .is_some()
                    {
                        r.count_written(b.len);
                        models[c].write(b.offset, data.clone());
                    }
                }
                None => {
                    if let Some(got) =
                        r.call(Op::Read, || job.read(Self::client(c), p, b.offset, b.len))
                    {
                        r.count_read(got.len());
                        r.verify_read(&models[c], b.offset, b.len, &got);
                    }
                }
            }
        }
        r.phase(&job, "close and flush");
        for (c, p) in paths.iter().enumerate() {
            r.call(Op::FlushClose, || {
                job.close(p, Self::client(c), OpenMode::ReadWrite, 1, true)
            });
            r.verify_lustre(&job, p, &models[c]);
        }
        r.end_timed(&job);
        r.verify_common();
        let d = r.after.since(&r.before);
        r.check(d.flush_spans > 0 && d.cached_dram > 0, || {
            format!(
                "tier mix: {} B on DRAM, {} flush spans",
                d.cached_dram, d.flush_spans
            )
        });
        r.time_hash(self.overwrites.iter());
        for c in 0..self.clients {
            job.disconnect(Self::client(c));
        }
        r
    }
}
