//! Beyond the paper — multi-node scaling with a node-sharded server.
//!
//! The paper's testbed is one node; its Fig. 2 motivates the design with a
//! QPI ring of four 2-CPU nodes. This experiment asks: does HCC-MF keep
//! scaling when workers sit behind a cross-node hop? The centralized
//! parameter server of PRs 1–5 does not — its serialized sync queue and the
//! full-buffer push volume cap 4-node scaling near 2.9x. With one server
//! shard per node (the `--server-shards N` trainer path) the merge
//! parallelizes across shard queues, and delta shipping cuts push bytes to
//! the rows actually touched, so the same cluster clears 3.2x.
//!
//! Two sections, both deterministic:
//!
//! 1. **Scaling** (virtual platform): updates/s at 1/2/4 simulated nodes,
//!    each node hosting one server shard (`SimConfig::server_shards`).
//! 2. **Delta accounting** (real transport): a [`ShardedServer`] over
//!    per-shard `CommShared` endpoints replays a sparse training epoch
//!    pattern and reports shipped vs full-buffer push bytes from its
//!    [`hcc_mf::DeltaStats`].
//!
//! `--out FILE.json` also writes the numbers as JSON; `results/BENCH_cluster.json`
//! (schema: `results/README.md`) is that file, pinned byte for byte by
//! `tests/results_fresh.rs`. The 3.2x floor the text names is asserted by
//! `tests/paper_shape_regression.rs`.

use crate::{fmt_mups, fmt_pct, plan, print_table, Flags};
use hcc_comm::{CommShared, Precision, Transport};
use hcc_hetsim::{ideal_computing_power, simulate_training, ClusterBuilder, SimConfig, Workload};
use hcc_mf::ShardedServer;
use hcc_partition::ShardRouter;
use hcc_sparse::{DatasetProfile, GenConfig, SyntheticDataset};
use std::sync::Arc;

const NODE_COUNTS: [usize; 3] = [1, 2, 4];

struct NodeResult {
    nodes: usize,
    workers: usize,
    strategy: String,
    updates_per_sec: f64,
    ideal: f64,
}

struct DatasetResult {
    name: String,
    rows: Vec<NodeResult>,
    scaling_4node: f64,
}

fn scale_dataset(profile: &DatasetProfile, epochs: usize) -> DatasetResult {
    let wl = Workload::from_profile(profile);
    let mut rows = Vec::new();
    for nodes in NODE_COUNTS {
        let platform = ClusterBuilder::new(nodes).build();
        // One server shard per node: each shard merges its row range on its
        // own queue, exactly like the trainer's `--server-shards nodes`.
        let cfg = SimConfig {
            server_shards: nodes,
            ..SimConfig::default()
        };
        let p = plan(&platform, &wl, &cfg);
        let sim = simulate_training(&platform, &wl, &cfg, &p.fractions, epochs);
        rows.push(NodeResult {
            nodes,
            workers: platform.worker_count(),
            strategy: format!("{:?}", p.strategy),
            updates_per_sec: sim.computing_power,
            ideal: ideal_computing_power(&platform, &wl),
        });
    }
    let scaling_4node = rows.last().unwrap().updates_per_sec / rows[0].updates_per_sec;
    DatasetResult {
        name: profile.name.to_string(),
        rows,
        scaling_4node,
    }
}

struct DeltaReplay {
    workers: usize,
    region_rows: usize,
    k: usize,
    epochs: usize,
    stats: hcc_mf::DeltaStats,
}

/// Replays the sync loop of a sparse epoch against a real 4-shard server:
/// each worker's push touches only the item rows its rating shard hits, so
/// the delta codec's savings are measured, not modeled.
fn replay_delta(epochs: usize) -> DeltaReplay {
    let (workers, shards, k) = (4usize, 4usize, 32usize);
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 400,
        cols: 4096,
        nnz: 6_000,
        planted_rank: 4,
        ..GenConfig::default()
    });
    let region_rows = 4096usize;
    let router = ShardRouter::uniform(region_rows, shards);
    let inners: Vec<Arc<dyn Transport>> = (0..shards)
        .map(|s| {
            let pull = router.range(s).len() * k;
            let push = ShardedServer::shard_push_len(&router, s, k);
            Arc::new(CommShared::new(workers, pull, push, Precision::Fp32)) as Arc<dyn Transport>
        })
        .collect();
    let server = ShardedServer::new(router, k, region_rows * k, Precision::Fp32, inners);

    // Worker w owns the users in its quarter of the row space; its push
    // touches the distinct item rows of its ratings.
    let mut touched: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for r in ds.matrix.entries() {
        let w = (r.u as usize * workers / 400).min(workers - 1);
        touched[w].push(r.i as usize);
    }
    for t in &mut touched {
        t.sort_unstable();
        t.dedup();
    }

    let mut global = vec![0.1f32; region_rows * k];
    for epoch in 0..epochs {
        server.publish(&global);
        for (w, rows) in touched.iter().enumerate() {
            let mut local = vec![0f32; region_rows * k];
            server.pull(w, &mut local);
            for &row in rows {
                local[row * k] += 0.01 * (epoch + 1) as f32;
            }
            server.push(w, &local);
            let mut merged = vec![0f32; region_rows * k];
            server.collect(w, &mut merged);
            global = merged;
        }
    }
    DeltaReplay {
        workers,
        region_rows,
        k,
        epochs,
        stats: server.delta_stats(),
    }
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let epochs: usize = flags.parsed("--epochs", 20)?;

    let datasets: Vec<DatasetResult> = [DatasetProfile::yahoo_r2(), DatasetProfile::netflix()]
        .iter()
        .map(|p| scale_dataset(p, epochs))
        .collect();

    for d in &datasets {
        let rows: Vec<Vec<String>> = d
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.workers.to_string(),
                    r.strategy.clone(),
                    fmt_mups(r.updates_per_sec),
                    fmt_mups(r.ideal),
                    fmt_pct(r.updates_per_sec / r.ideal),
                    format!("{:.2}x", r.updates_per_sec / d.rows[0].updates_per_sec),
                ]
            })
            .collect();
        print_table(
            &format!(
                "sharded-server cluster scaling — {} (2 CPUs + 2 GPUs + 1 shard per node)",
                d.name
            ),
            &[
                "nodes",
                "workers",
                "strategy",
                "HCC power",
                "ideal",
                "utilization",
                "scaling",
            ],
            &rows,
        );
    }

    let delta = replay_delta(5);
    let shipped_ratio = delta.stats.bytes_shipped as f64 / delta.stats.bytes_full as f64;
    println!(
        "\ndelta shipping (4 shards, {} epochs over a {}-row region): {} of {} rows shipped, \
         {} -> {} push bytes ({:.1}% of full shipping)",
        delta.epochs,
        delta.region_rows,
        delta.stats.rows_shipped,
        delta.stats.rows_total,
        delta.stats.bytes_full,
        delta.stats.bytes_shipped,
        shipped_ratio * 100.0
    );
    println!(
        "4-node scaling: {} (floor for the perf gate: 3.2x)",
        datasets
            .iter()
            .map(|d| format!("{} {:.2}x", d.name, d.scaling_4node))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let Some(out) = flags.get("--out") else {
        return Ok(());
    };
    let scaling_min = datasets
        .iter()
        .map(|d| d.scaling_4node)
        .fold(f64::INFINITY, f64::min);
    let dataset_json: Vec<String> = datasets
        .iter()
        .map(|d| {
            let rows: Vec<String> = d
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "        {{\"nodes\": {}, \"workers\": {}, \"server_shards\": {}, \
                         \"strategy\": \"{}\", \"updates_per_sec\": {:.0}, \
                         \"ideal_updates_per_sec\": {:.0}}}",
                        r.nodes, r.workers, r.nodes, r.strategy, r.updates_per_sec, r.ideal
                    )
                })
                .collect();
            format!(
                "    {{\"name\": \"{}\", \"scaling_4node\": {:.4}, \"results\": [\n{}\n    ]}}",
                d.name,
                d.scaling_4node,
                rows.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_scaling\",\n  \"virtual_time\": true,\n  \"epochs\": {epochs},\n  \
         \"node_counts\": [1, 2, 4],\n  \"datasets\": [\n{}\n  ],\n  \
         \"scaling_4node_min\": {:.4},\n  \"delta\": {{\"workers\": {}, \"region_rows\": {}, \
         \"k\": {}, \"epochs\": {}, \"rows_shipped\": {}, \"rows_total\": {}, \
         \"bytes_shipped\": {}, \"bytes_full\": {}, \"shipped_ratio\": {:.6}}}\n}}\n",
        dataset_json.join(",\n"),
        scaling_min,
        delta.workers,
        delta.region_rows,
        delta.k,
        delta.epochs,
        delta.stats.rows_shipped,
        delta.stats.rows_total,
        delta.stats.bytes_shipped,
        delta.stats.bytes_full,
        shipped_ratio,
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}
