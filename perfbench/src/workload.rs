//! The workloads: what each deploys, the requests it sends, and the
//! in-process oracle every answer is checked against.

use crate::fleet::Deployment;
use poe_core::service::QueryService;
use poe_loadgen::Zipf;
use poe_models::{BranchedModel, Prediction};
use poe_tensor::{Prng, Tensor};

/// Primitive tasks in the shared pool (`balanced:20x5`).
pub const TASKS: usize = 20;
/// `routed` shards own tasks `[0, SHARD_SPLIT)` and `[SHARD_SPLIT, TASKS)`.
pub const SHARD_SPLIT: usize = 10;
/// A `PREDICT` confidence may differ from the oracle's by this much: the
/// wire prints 4 decimals, and batched, single-row and routed (logits
/// printed to 6 decimals, softmax at the edge) inference sum in
/// different orders.
pub const CONFIDENCE_TOL: f32 = 2e-4;
/// Inputs whose two best classes are closer than this in confidence are
/// redrawn: within [`CONFIDENCE_TOL`] their argmax is not defined.
const MIN_MARGIN: f32 = 1e-2;
/// Task sets in a `PREDICT` catalog; under the 32-entry consolidation
/// cache, so every set stays cached.
const HOT_SETS: usize = 16;
/// Feature rows per `PREDICT` task set.
const ROWS_PER_SET: usize = 32;
/// Zipf exponent of task-set popularity.
const ZIPF_S: f64 = 1.1;
/// Experts `query-cold` keeps resident: half the pool.
const COLD_RESIDENT: usize = TASKS / 2;
/// Distinct task lists in the `QUERY` catalog; far more sets than cache
/// entries, so nearly every query consolidates afresh.
const COLD_QUERIES: usize = 2048;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PredictHot,
    QueryCold,
    Routed,
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Fixed offered rate (req/s) of the latency phase: about 40 % of
    /// the `max_rps` measured when the benchmark was defined.
    pub rate: f64,
    /// The servers' `--resident-experts` budget (0 = unlimited).
    pub resident_experts: usize,
    pub deploy: Deployment,
}

fn flags(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Looks a workload up by name. `batch_delay_us` adds that flag to a
/// `predict-hot` server (the sensitivity self-test).
pub fn find(name: &str, batch_delay_us: Option<u64>) -> Option<Workload> {
    let w = match name {
        "predict-hot" => {
            // Default serve flags apart from the transport, so a change
            // to a default shows here.
            let mut serve = flags(&["--net", "threads"]);
            if let Some(us) = batch_delay_us {
                serve.extend(["--batch-delay-us".to_string(), us.to_string()]);
            }
            Workload {
                name: "predict-hot",
                kind: Kind::PredictHot,
                rate: 600.0,
                resident_experts: 0,
                deploy: Deployment::Single { serve },
            }
        }
        "query-cold" => Workload {
            name: "query-cold",
            kind: Kind::QueryCold,
            rate: 200.0,
            resident_experts: COLD_RESIDENT,
            deploy: Deployment::Single {
                serve: flags(&[
                    "--net",
                    "threads",
                    "--resident-experts",
                    &COLD_RESIDENT.to_string(),
                ]),
            },
        },
        "routed" => Workload {
            name: "routed",
            kind: Kind::Routed,
            rate: 480.0,
            resident_experts: 0,
            deploy: Deployment::Routed {
                ranges: vec!["0-9", "10-19"],
                shard: flags(&["--net", "epoll"]),
                router: flags(&["--net", "epoll"]),
            },
        },
        _ => return None,
    };
    Some(w)
}

/// What the oracle says a request must answer.
#[derive(Clone, Debug)]
pub enum Expect {
    Predict(Prediction),
    Query {
        outputs: String,
        params: String,
        classes: String,
        tasks: String,
    },
}

/// One distinct request of a workload.
pub struct Item {
    pub tasks: Vec<usize>,
    /// The feature row as sent (empty for `QUERY`).
    pub features: String,
    /// The request line, newline-terminated.
    pub line: String,
    pub expect: Expect,
}

/// A workload's distinct requests and how the schedule draws them.
pub struct Catalog {
    pub items: Vec<Item>,
    /// Set popularity for `PREDICT` catalogs (items are grouped by set,
    /// [`ROWS_PER_SET`] each); `None` draws items uniformly.
    sets: Option<Zipf>,
}

impl Catalog {
    /// Builds the catalog from `rng`, computing every
    /// expected answer with `oracle`.
    pub fn build(kind: Kind, rng: &mut Prng, oracle: &QueryService, input_dim: usize) -> Catalog {
        match kind {
            Kind::QueryCold => {
                let items = (0..COLD_QUERIES)
                    .map(|_| {
                        let k = 4 + rng.below(7);
                        query_item(oracle, rng.sample_without_replacement(TASKS, k))
                    })
                    .collect();
                Catalog { items, sets: None }
            }
            Kind::PredictHot | Kind::Routed => {
                let mut sets: Vec<Vec<usize>> = Vec::new();
                let mut keys: Vec<Vec<usize>> = Vec::new();
                while sets.len() < HOT_SETS {
                    let set = if kind == Kind::Routed {
                        // At least one task on each shard.
                        let mut s = vec![
                            rng.below(SHARD_SPLIT),
                            SHARD_SPLIT + rng.below(TASKS - SHARD_SPLIT),
                        ];
                        for _ in 0..rng.below(3) {
                            let t = rng.below(TASKS);
                            if !s.contains(&t) {
                                s.push(t);
                            }
                        }
                        rng.shuffle(&mut s);
                        s
                    } else {
                        let k = 1 + rng.below(3);
                        rng.sample_without_replacement(TASKS, k)
                    };
                    let mut key = set.clone();
                    key.sort_unstable();
                    if !keys.contains(&key) {
                        keys.push(key);
                        sets.push(set);
                    }
                }
                let mut items = Vec::with_capacity(HOT_SETS * ROWS_PER_SET);
                for set in &sets {
                    let model = oracle
                        .query(set)
                        .expect("oracle consolidates its own pool")
                        .model;
                    for _ in 0..ROWS_PER_SET {
                        items.push(predict_item(&model, set, rng, input_dim));
                    }
                }
                Catalog {
                    items,
                    sets: Some(Zipf::new(HOT_SETS, ZIPF_S)),
                }
            }
        }
    }

    /// Draws one item index.
    pub fn pick(&self, rng: &mut Prng) -> usize {
        match &self.sets {
            Some(z) => z.sample(rng) * ROWS_PER_SET + rng.below(ROWS_PER_SET),
            None => rng.below(self.items.len()),
        }
    }

    pub fn lines(&self) -> Vec<String> {
        self.items.iter().map(|i| i.line.clone()).collect()
    }
}

pub fn join(ids: &[usize]) -> String {
    ids.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Owning task of each output column, in logit order.
fn column_tasks(model: &BranchedModel) -> Vec<usize> {
    model
        .branches()
        .flat_map(|b| std::iter::repeat_n(b.task_index, b.classes.len()))
        .collect()
}

fn query_item(oracle: &QueryService, tasks: Vec<usize>) -> Item {
    let r = oracle
        .query(&tasks)
        .expect("oracle consolidates its own pool");
    Item {
        line: format!("QUERY {}\n", join(&tasks)),
        expect: Expect::Query {
            outputs: r.class_layout.len().to_string(),
            params: r.stats.params.to_string(),
            classes: join(&r.class_layout),
            tasks: join(&column_tasks(&r.model)),
        },
        tasks,
        features: String::new(),
    }
}

fn predict_item(model: &BranchedModel, set: &[usize], rng: &mut Prng, input_dim: usize) -> Item {
    loop {
        let row: Vec<f32> = (0..input_dim).map(|_| rng.normal()).collect();
        let x = Tensor::from_vec(row.clone(), [1, input_dim]);
        if top2_margin(model.infer(&x).row(0)) < MIN_MARGIN {
            continue;
        }
        let pred = model.predict_with_provenance(&x)[0];
        // `{}` prints the shortest string that parses back to the same
        // f32, so the server sees exactly the oracle's input.
        let features = row
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(" ");
        return Item {
            line: format!("PREDICT {} : {features}\n", join(set)),
            tasks: set.to_vec(),
            features,
            expect: Expect::Predict(pred),
        };
    }
}

/// Softmax confidence gap between the two most likely classes.
fn top2_margin(logits: &[f32]) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let (mut a, mut b) = (0.0f32, 0.0f32);
    for &e in &exps {
        if e > a {
            b = a;
            a = e;
        } else if e > b {
            b = e;
        }
    }
    (a - b) / sum
}

/// How one response compares with its oracle answer.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// `ERR` (including shed), `OK partial`, or no response.
    Failed,
    /// An `OK` answer that disagrees with the oracle.
    Mismatch(String),
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    resp.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

/// Checks one response line against its item's oracle answer.
pub fn check(item: &Item, response: Option<&str>) -> Verdict {
    let Some(resp) = response else {
        return Verdict::Failed;
    };
    if !resp.starts_with("OK ") || resp.starts_with("OK partial") {
        return Verdict::Failed;
    }
    let mismatch = || Verdict::Mismatch(format!("{} -> {resp}", item.line.trim_end()));
    match &item.expect {
        Expect::Predict(p) => {
            let class = field(resp, "class").and_then(|v| v.parse::<usize>().ok());
            let task = field(resp, "task").and_then(|v| v.parse::<usize>().ok());
            let conf = field(resp, "confidence").and_then(|v| v.parse::<f32>().ok());
            match (class, task, conf) {
                (Some(c), Some(t), Some(f))
                    if c == p.class
                        && t == p.task_index
                        && (f - p.confidence).abs() <= CONFIDENCE_TOL =>
                {
                    Verdict::Ok
                }
                _ => mismatch(),
            }
        }
        Expect::Query {
            outputs,
            params,
            classes,
            tasks,
        } => {
            // `assembly_ms` and `cached` vary by design and are not
            // compared.
            let same = field(resp, "outputs") == Some(outputs.as_str())
                && field(resp, "params") == Some(params.as_str())
                && field(resp, "classes") == Some(classes.as_str())
                && field(resp, "tasks") == Some(tasks.as_str());
            if same {
                Verdict::Ok
            } else {
                mismatch()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(class: usize, task_index: usize, confidence: f32) -> Item {
        Item {
            tasks: vec![task_index],
            features: String::new(),
            line: "PREDICT\n".into(),
            expect: Expect::Predict(Prediction {
                class,
                task_index,
                confidence,
            }),
        }
    }

    #[test]
    fn predict_answers_match_within_the_tolerance() {
        let item = predict(7, 1, 0.5);
        assert_eq!(
            check(&item, Some("OK class=7 task=1 confidence=0.5001")),
            Verdict::Ok
        );
        assert!(matches!(
            check(&item, Some("OK class=7 task=1 confidence=0.5010")),
            Verdict::Mismatch(_)
        ));
        assert!(matches!(
            check(&item, Some("OK class=8 task=1 confidence=0.5000")),
            Verdict::Mismatch(_)
        ));
        assert_eq!(
            check(&item, Some("ERR busy retry_after_ms=5")),
            Verdict::Failed
        );
        assert_eq!(
            check(
                &item,
                Some("OK partial shards=1/2 missing=3 class=7 task=1 confidence=0.5")
            ),
            Verdict::Failed
        );
        assert_eq!(check(&item, None), Verdict::Failed);
    }

    #[test]
    fn query_answers_ignore_timing_fields() {
        let item = Item {
            tasks: vec![1],
            features: String::new(),
            line: "QUERY 1\n".into(),
            expect: Expect::Query {
                outputs: "2".into(),
                params: "10".into(),
                classes: "5,6".into(),
                tasks: "1,1".into(),
            },
        };
        let ok = "OK outputs=2 params=10 assembly_ms=0.3 cached=1 classes=5,6 tasks=1,1";
        assert_eq!(check(&item, Some(ok)), Verdict::Ok);
        let bad = "OK outputs=2 params=10 assembly_ms=0.3 cached=0 classes=6,5 tasks=1,1";
        assert!(matches!(check(&item, Some(bad)), Verdict::Mismatch(_)));
    }

    #[test]
    fn every_named_workload_resolves() {
        for name in ["predict-hot", "query-cold", "routed"] {
            assert_eq!(find(name, None).map(|w| w.name), Some(name));
        }
        assert!(find("nope", None).is_none());
    }
}
