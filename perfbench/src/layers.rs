//! The traced run: per-layer metrics, each timed from outside around the
//! public call of one crate, on the workload's own data.

use std::path::Path;
use std::sync::Arc;

use hyper_repro::core::build_relevant_view;
use hyper_repro::core::HowToResult;
use hyper_repro::ml::hist::CellIndex;
use hyper_repro::ml::{
    BinnedMatrix, ForestParams, Matrix, RandomForest, TableEncoder, TreeParams, MAX_BINS,
};
use hyper_repro::prelude::*;
use hyper_repro::serve::{Client, Json};
use hyper_repro::storage::{col, lit, ops::matching_rows_on, DEFAULT_MORSEL_ROWS};

use crate::common::*;
use crate::stats::median;

/// The serve-side split of the probe: `/stats` queue wait and execute
/// medians, the client latency left over for HTTP framing, and texts
/// parsed for its one template.
pub struct ServeSplit {
    /// `/stats` query-route queue-wait p50, ms.
    pub queue_wait_ms: f64,
    /// `/stats` query-route execute p50, ms.
    pub execute_ms: f64,
    /// Client `/query` latency p50 minus the two above, ms.
    pub http_ms: f64,
    /// `texts_parsed` for the one template and data version served: 1.0
    /// when it is prepared once.
    pub parses_per_template: f64,
}

impl ServeSplit {
    /// Read the split from a live server's `/stats`.
    pub fn from_stats(client: &mut Client, client_query_ms: &[f64]) -> Res<ServeSplit> {
        let stats = client
            .request("GET", "/stats", None)
            .map_err(err("/stats"))?;
        let json = stats.json().map_err(err("/stats body"))?;
        let tenant = json
            .get("tenants")
            .and_then(|t| t.get("t0"))
            .ok_or("/stats has no tenant t0")?;
        let p50 = |stage: &str| -> Res<f64> {
            tenant
                .get("latency")
                .and_then(|l| l.get("query"))
                .and_then(|q| q.get(stage))
                .and_then(|s| s.get("p50_us"))
                .and_then(Json::as_f64)
                .map(|us| us / 1e3)
                .ok_or_else(|| format!("/stats has no query {stage} p50"))
        };
        let parsed = tenant
            .get("session")
            .and_then(|s| s.get("texts_parsed"))
            .and_then(Json::as_f64)
            .ok_or("/stats has no texts_parsed")?;
        let (queue_wait_ms, execute_ms) = (p50("queue_wait")?, p50("execute")?);
        Ok(ServeSplit {
            queue_wait_ms,
            execute_ms,
            http_ms: median(client_query_ms) - queue_wait_ms - execute_ms,
            parses_per_template: parsed,
        })
    }
}

/// A short serving probe for the in-process workloads: a server over the
/// workload's snapshot (`t0.hypr` in `registry`), one connection, the
/// cold template's pairs, warm.
pub fn serve_probe(registry: &Path, memo: &ValueMemo) -> Res<ServeSplit> {
    SharedArtifactStore::global().clear();
    let server = Server::start(registry, ServeConfig::default()).map_err(err("server start"))?;
    let mut client = Client::connect(server.addr()).map_err(err("connect"))?;
    let mut query = |p: usize| -> Res<f64> {
        let (resp, t) = timed(|| {
            client.query(
                "/query",
                "t0",
                TEMPLATES[0].text,
                &[("v", Json::Int(PAIRS[p].1))],
            )
        });
        let resp = resp.map_err(err("/query"))?;
        ensure(resp.status == 200, || {
            format!("/query answered {}", resp.status)
        })?;
        let value = resp
            .json()
            .ok()
            .and_then(|j| j.get("value").and_then(Json::as_f64))
            .ok_or("/query answer has no value")?;
        same_value(memo[&p], value, "served what-if")?;
        Ok(t)
    };
    for p in COLD_PAIRS {
        query(p)?;
    }
    let mut lat = Vec::new();
    for i in 0..40 {
        lat.push(query(COLD_PAIRS[i % COLD_PAIRS.len()])?);
    }
    let split = ServeSplit::from_stats(&mut client, &lat);
    drop(client);
    server.shutdown();
    split
}

/// What the workload measured itself and hands to the traced run.
pub struct Given<'a> {
    /// The database the sessions ran over.
    pub db: &'a Arc<Database>,
    /// Its graph.
    pub graph: &'a Arc<CausalGraph>,
    /// The runtime the workload used.
    pub rt: &'a HyperRuntime,
    /// Repetitions per kernel.
    pub reps: usize,
    /// Backdoor set of the cold template.
    pub cold_backdoor: &'a [String],
    /// Median cold what-if wall time, ms.
    pub cold_wall_ms: f64,
    /// One refresh delta.
    pub delta: &'a DeltaBatch,
    /// `Snapshot::load` median, ms.
    pub snapshot_load_ms: f64,
    /// View builds per round.
    pub view_builds: f64,
    /// Estimator trainings per round.
    pub estimator_trainings: f64,
    /// Estimator hits ÷ lookups over the rounds.
    pub estimator_hit_ratio: f64,
    /// The how-to reference.
    pub howto: &'a HowToResult,
    /// Views kept by the last refresh or ingest.
    pub views_kept: f64,
    /// Estimators invalidated by it.
    pub estimators_invalidated: f64,
    /// The serving split.
    pub serve: ServeSplit,
    /// Mean relative error of the working set against the oracle.
    pub oracle_rel_err_mean: f64,
}

/// Phases a warm prepared what-if enters (the others stay at zero on
/// that path and are left out).
const WARM_PHASES: [Phase; 4] = [
    Phase::Plan,
    Phase::Predict,
    Phase::CacheLookup,
    Phase::Execute,
];

fn med_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, t) = timed(&mut f);
        times.push(t);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Measure every per-layer metric and add them to `m`.
pub fn measure(g: &Given, m: &mut Metrics) -> Res<()> {
    let table = g.db.table(TABLE).map_err(err("table"))?;
    let n = table.num_rows();

    // query: parse every template text.
    let mut parse_us = Vec::new();
    for _ in 0..g.reps.max(20) {
        for t in &TEMPLATES {
            let (q, ms) = timed(|| parse_query(t.text));
            q.map_err(err("parse"))?;
            parse_us.push(ms * 1e3);
        }
    }
    m.put("query.parse_us", median(&parse_us), "us");

    // storage: the When/For predicates of template 1.
    let pred = col("age").eq(lit(0)).and(col("sex").eq(lit(1)));
    let (sel, filter_ms) = med_ms(g.reps, || {
        matching_rows_on(g.rt, table, &pred, DEFAULT_MORSEL_ROWS)
    });
    let sel = sel.map_err(err("matching_rows_on"))?;
    let (age, sex) = (
        table.column_by_name("age").map_err(err("age"))?,
        table.column_by_name("sex").map_err(err("sex"))?,
    );
    let expected = (0..n)
        .filter(|&i| age.value(i).sql_eq(&Value::Int(0)) && sex.value(i).sql_eq(&Value::Int(1)))
        .count();
    ensure(sel.len() == expected, || {
        format!(
            "filter selected {} rows, a scan finds {expected}",
            sel.len()
        )
    })?;
    m.put("storage.filter_ms", filter_ms, "ms");

    // core: the cold template's relevant view.
    let use_clause = parse_whatif(TEMPLATES[0].text)?.use_clause;
    let (view, view_ms) = med_ms(g.reps, || build_relevant_view(g.db, &use_clause));
    ensure(view.map_err(err("view"))?.table.num_rows() == n, || {
        "view lost rows".into()
    })?;
    m.put("core.view_build_ms", view_ms, "ms");

    // causal: the Prop.-1 decomposition on a fresh session.
    let fresh = || {
        HyperSession::builder(Arc::clone(g.db))
            .graph(Arc::clone(g.graph))
            .share_artifacts(false)
            .runtime(g.rt.clone())
    };
    let (blocks, block_ms) = med_ms(g.reps.min(5), || fresh().build().block_decomposition());
    blocks.map_err(err("block decomposition"))?;
    m.put("causal.block_decomp_ms", block_ms, "ms");

    // ml: the cold template's estimator, kernel by kernel.
    let mut features = vec!["status".to_string()];
    features.extend(g.cold_backdoor.iter().cloned());
    let (enc, enc_fit_ms) = med_ms(g.reps, || TableEncoder::fit(table, &features));
    let enc = enc.map_err(err("encoder fit"))?;
    let (x, encode_ms) = med_ms(g.reps, || enc.encode_table(table));
    let x = x.map_err(err("encode"))?;
    let (binned, bin_ms) = med_ms(g.reps, || BinnedMatrix::from_matrix(&x, MAX_BINS));
    let (_, cell_ms) = med_ms(g.reps, || CellIndex::build(&binned, (n / 4).max(64)));
    let credit = table.column_by_name("credit").map_err(err("credit"))?;
    let good = Value::str("Good");
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(u8::from(credit.value(i).sql_eq(&good))))
        .collect();
    let params = ForestParams {
        n_trees: 16,
        tree: TreeParams {
            max_depth: 10,
            ..TreeParams::default()
        },
        bootstrap: true,
        seed: 0,
    };
    let (forest, fit_ms) = med_ms(g.reps.min(5), || {
        RandomForest::fit_on(g.rt, &x, &y, &params)
    });
    let forest = forest.map_err(err("forest fit"))?;
    let status = table.column_by_name("status").map_err(err("status"))?;
    let affected: Vec<usize> = (0..n)
        .filter(|&i| !status.value(i).sql_eq(&Value::Int(3)))
        .collect();
    let mut rows = Vec::with_capacity(affected.len() * x.cols());
    for &i in &affected {
        rows.extend_from_slice(x.row(i));
    }
    let xa = Matrix::from_vec(affected.len(), x.cols(), rows).map_err(err("matrix"))?;
    let (pred_out, predict_ms) = med_ms(g.reps, || forest.predict(&xa));
    ensure(pred_out.len() == affected.len(), || {
        "predict lost rows".into()
    })?;
    // The §3.3 support index predicts each distinct feature row once:
    // this is the prediction a what-if actually pays.
    let mut distinct: Vec<&[f64]> = affected.iter().map(|&i| x.row(i)).collect();
    distinct.sort_by(|a, b| {
        a.iter()
            .zip(*b)
            .map(|(p, q)| p.total_cmp(q))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    distinct.dedup();
    let xd =
        Matrix::from_vec(distinct.len(), x.cols(), distinct.concat()).map_err(err("matrix"))?;
    let (_, dedup_ms) = med_ms(g.reps, || forest.predict(&xd));
    m.put("ml.encoder_fit_ms", enc_fit_ms, "ms");
    m.put("ml.encode_ms", encode_ms, "ms");
    m.put("ml.bin_ms", bin_ms, "ms");
    m.put("ml.cell_index_ms", cell_ms, "ms");
    m.put("ml.forest_fit_ms", fit_ms, "ms");
    m.put("ml.predict_ms", predict_ms, "ms");
    m.put("ml.predict_dedup_ms", dedup_ms, "ms");
    m.put(
        "trace.cold_layer_sum_ms",
        view_ms + enc_fit_ms + encode_ms + fit_ms + dedup_ms,
        "ms",
    );
    m.put("trace.cold_wall_ms", g.cold_wall_ms, "ms");

    // core phases of a warm prepared what-if on a traced session, and
    // the tracing overhead against an untraced twin, interleaved.
    let traced = fresh().tracing(true).build();
    let untraced = fresh().build();
    let bind = pair_bindings(COLD_PAIRS[1]);
    let tp = traced.prepare(TEMPLATES[0].text).map_err(err("prepare"))?;
    let up = untraced
        .prepare(TEMPLATES[0].text)
        .map_err(err("prepare"))?;
    let tv = tp
        .execute_whatif_with(&bind)
        .map_err(err("traced what-if"))?
        .value;
    let uv = up
        .execute_whatif_with(&bind)
        .map_err(err("untraced what-if"))?
        .value;
    same_value(uv, tv, "traced what-if")?;
    let reps = (g.reps * 10).max(20);
    let before = traced.snapshot();
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        t_off.push(timed(|| up.execute_whatif_with(&bind)).1);
        t_on.push(timed(|| tp.execute_whatif_with(&bind)).1);
    }
    let after = traced.snapshot();
    let queries = (after.traced_queries - before.traced_queries).max(1) as f64;
    for phase in WARM_PHASES {
        let ns = after.phase_ns(phase) - before.phase_ns(phase);
        m.put(
            format!("core.phase.{}_us", phase.name()),
            ns as f64 / queries / 1e3,
            "us",
        );
    }
    let total = (after.trace_total_ns - before.trace_total_ns) as f64;
    let root = (after.phase_ns(Phase::Execute) - before.phase_ns(Phase::Execute)) as f64;
    m.put("core.unattributed_pct", 100.0 * root / total, "%");
    m.put(
        "trace.overhead_pct",
        100.0 * (median(&t_on) / median(&t_off) - 1.0),
        "%",
    );

    m.put("core.view_builds", g.view_builds, "count");
    m.put("core.estimator_trainings", g.estimator_trainings, "count");
    m.put("core.estimator_hit_ratio", g.estimator_hit_ratio, "ratio");
    m.put("howto.candidates", g.howto.candidates as f64, "count");
    m.put("howto.whatif_evals", g.howto.whatif_evals as f64, "count");

    let (post, apply_ms) = med_ms(g.reps, || g.delta.apply(g.db));
    ensure(
        post.map_err(err("delta apply"))?
            .table(TABLE)
            .map_err(err("table"))?
            .num_rows()
            == n + g.delta.appended_rows() - g.delta.deleted_rows(),
        || "delta apply lost rows".into(),
    )?;
    m.put("ingest.delta_apply_ms", apply_ms, "ms");
    m.put("ingest.views_kept", g.views_kept, "count");
    m.put(
        "ingest.estimators_invalidated",
        g.estimators_invalidated,
        "count",
    );
    m.put("store.snapshot_load_ms", g.snapshot_load_ms, "ms");
    m.put("serve.queue_wait_ms_p50", g.serve.queue_wait_ms, "ms");
    m.put("serve.execute_ms_p50", g.serve.execute_ms, "ms");
    m.put("serve.http_ms_p50", g.serve.http_ms, "ms");
    m.put(
        "serve.parses_per_template",
        g.serve.parses_per_template,
        "ratio",
    );
    m.put("core.oracle_rel_err_mean", g.oracle_rel_err_mean, "ratio");
    Ok(())
}
