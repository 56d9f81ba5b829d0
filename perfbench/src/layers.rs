//! In-process calls into each layer's public functions, timed under the
//! benchmark's spans. They replay the workload's own requests after the
//! load phase, so they never compete with the server for the cores.

use crate::trace::Tracer;
use crate::workload::{join, Catalog, Kind, SHARD_SPLIT};
use poe_core::service::QueryService;
use poe_core::store::load_standalone;
use poe_nn::Module;
use poe_router::engine::{Router, RouterConfig};
use poe_router::ShardMap;
use poe_tensor::Tensor;
use std::path::Path;

/// Requests replayed per layer.
pub const REPLAYS: usize = 600;

/// A fresh service over the pool store, with the server's residency
/// budget (0 = unlimited).
pub fn service(pool: &Path, resident_budget: usize) -> Result<(QueryService, usize), String> {
    let (mut p, spec) = load_standalone(pool).map_err(|e| format!("load pool: {e}"))?;
    p.set_resident_budget(resident_budget);
    Ok((QueryService::builder(p).build(), spec.input_dim))
}

/// The lines a `poe serve` process handles for `item`: the request
/// itself, or on `routed` the per-shard `LOGITS` scatter.
pub fn serve_lines(kind: Kind, catalog: &Catalog, item: usize) -> Vec<String> {
    let it = &catalog.items[item];
    if kind != Kind::Routed {
        return vec![it.line.trim_end().to_string()];
    }
    let (lo, hi): (Vec<usize>, Vec<usize>) = it.tasks.iter().partition(|&&t| t < SHARD_SPLIT);
    [lo, hi]
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| format!("LOGITS {} : {}", join(g), it.features))
        .collect()
}

/// `serve::respond` on the lines the workload's requests put on a
/// server: parse, consolidate, infer and render, without transport or
/// batcher. Spans `serve.respond`.
pub fn respond(
    tracer: &Tracer,
    kind: Kind,
    catalog: &Catalog,
    items: &[usize],
    pool: &Path,
    budget: usize,
) -> Result<(), String> {
    let (svc, input_dim) = service(pool, budget)?;
    for (rid, &item) in items.iter().enumerate() {
        for line in serve_lines(kind, catalog, item) {
            let (resp, _) = tracer.time("serve.respond", rid as u64, || {
                poe_cli::serve::respond(&line, &svc, input_dim)
            });
            if !resp.starts_with("OK") {
                return Err(format!("in-process respond failed: {line} -> {resp}"));
            }
        }
    }
    Ok(())
}

/// Consolidation-layer timings: `ExpertPool::consolidate` on each
/// request's task set (spans `core.consolidate`), a cache-hit
/// `QueryService::query` (spans `core.query_hit`), and
/// `ExpertPool::reload_from_source` per task (spans `core.refault`).
pub fn core(
    tracer: &Tracer,
    catalog: &Catalog,
    items: &[usize],
    pool: &Path,
    budget: usize,
) -> Result<(), String> {
    let (svc, _) = service(pool, budget)?;
    for (rid, &item) in items.iter().enumerate() {
        let tasks = &catalog.items[item].tasks;
        let (r, _) = tracer.time("core.consolidate", rid as u64, || {
            svc.with_pool(|p| p.consolidate(tasks).map(|_| ()))
        });
        r.map_err(|e| format!("consolidate {tasks:?}: {e}"))?;
    }
    for (rid, &item) in items.iter().enumerate() {
        let tasks = &catalog.items[item].tasks;
        svc.query(tasks)
            .map_err(|e| format!("query {tasks:?}: {e}"))?;
        let (r, _) = tracer.time("core.query_hit", rid as u64, || {
            svc.query(tasks).map(|q| q.stats.cache_hit)
        });
        if r != Ok(true) {
            return Err(format!("repeated query {tasks:?} missed the cache"));
        }
    }
    let tasks = svc.with_pool(|p| p.hierarchy().num_primitives());
    for round in 0..REPLAYS / tasks.max(1) {
        for t in 0..tasks {
            let (r, _) = tracer.time("core.refault", (round * tasks + t) as u64, || {
                svc.with_pool(|p| p.reload_from_source(t).map(|_| ()))
            });
            r.map_err(|e| format!("reload expert {t}: {e}"))?;
        }
    }
    Ok(())
}

/// One-row `BranchedModel::predict_with_provenance` on each request
/// (spans `models.infer`). Returns the mean weight bytes one row reads,
/// computed from the assembled models' parameter counts (f32 weights,
/// each read once per row) — computed, not measured.
pub fn infer(
    tracer: &Tracer,
    catalog: &Catalog,
    items: &[usize],
    pool: &Path,
) -> Result<f64, String> {
    let (svc, input_dim) = service(pool, 0)?;
    let mut bytes = 0.0;
    for (rid, &item) in items.iter().enumerate() {
        let it = &catalog.items[item];
        let model = svc
            .query(&it.tasks)
            .map_err(|e| format!("query: {e}"))?
            .model;
        let row: Vec<f32> = it
            .features
            .split_whitespace()
            .map(|v| v.parse().expect("catalog features are numbers"))
            .collect();
        let x = Tensor::from_vec(row, [1, input_dim]);
        tracer.time("models.infer", rid as u64, || {
            model.predict_with_provenance(&x)
        });
        bytes += (model.param_count() * std::mem::size_of::<f32>()) as f64;
    }
    Ok(bytes / items.len().max(1) as f64)
}

/// `Router::predict` against the live shards (spans `router.predict`),
/// then `Router::call_shard` for each shard the request needs (spans
/// `router.call_shard`). Returns per request the predict time minus its
/// slowest shard call, in µs.
pub fn router(
    tracer: &Tracer,
    catalog: &Catalog,
    items: &[usize],
    shard_addrs: &[String],
) -> Result<Vec<f64>, String> {
    let spec = format!(
        "0-{}={};{}-{}={}",
        SHARD_SPLIT - 1,
        shard_addrs[0],
        SHARD_SPLIT,
        crate::workload::TASKS - 1,
        shard_addrs[1]
    );
    let map = ShardMap::parse(&spec)?;
    let router = Router::new(map, RouterConfig::default(), poe_obs::Observability::new());
    let mut overhead = Vec::with_capacity(items.len());
    for (rid, &item) in items.iter().enumerate() {
        let it = &catalog.items[item];
        let rid = rid as u64 + 1;
        let (r, predict_us) = tracer.time("router.predict", rid, || {
            router.predict(&it.tasks, &it.features, rid)
        });
        r.map_err(|e| format!("router predict: {e:?}"))?;
        let groups = router
            .map()
            .split(&it.tasks)
            .map_err(|t| format!("no shard for task {t}"))?;
        let mut slowest: f64 = 0.0;
        for (shard, g) in &groups {
            let line = format!("@{rid} LOGITS {} : {}", join(g), it.features);
            let (r, us) = tracer.time("router.call_shard", rid, || {
                router.call_shard(*shard, &line, rid)
            });
            r.map_err(|e| format!("call shard {shard}: {}", e.detail))?;
            slowest = slowest.max(us);
        }
        overhead.push(predict_us - slowest);
    }
    Ok(overhead)
}
