//! The in-process workloads (`interactive_10k`, `analyst_100k`): an
//! analyst's session at a prompt, driven through the public
//! `HyperSession` API on a private runtime of one worker plus the caller.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyper_repro::core::HowToResult;
use hyper_repro::prelude::*;

use crate::common::*;
use crate::layers::{self, Given};
use crate::plan::{inproc_round, Op, Rng, RoundShape, DELTA_STREAM};
use crate::Args;

/// What distinguishes the two in-process workloads.
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// German-Syn rows.
    pub rows: usize,
    /// The how-to every round runs cold and warm.
    pub howto: &'static str,
    /// Repetitions of each per-layer kernel in the traced run.
    pub layer_reps: usize,
}

/// Pairs re-served after every refresh: the cold template's pair over
/// the rebuilt whole-table view, and the filtered pairs that survive.
pub const RESERVE: [usize; 4] = [1, 5, 6, 7];

/// Bucket count of the how-to candidates (§5.4).
const HOWTO_BUCKETS: usize = 4;

/// Times each working-set pair runs warm per round.
const WARM_SWEEPS: usize = 4;

/// The how-to whose IP answer is checked against `howto_bruteforce` once
/// per run (two attributes keep brute force cheap).
const BRUTE_HOWTO: &str =
    "Use german_syn HowToUpdate status, savings ToMaximize Count(Post(credit) = 'Good')";

fn howto_options() -> HowToOptions {
    HowToOptions {
        buckets: HOWTO_BUCKETS,
        max_attrs_updated: Some(2),
    }
}

/// One set-up: its time in seconds, what it loaded, the session it built
/// and that session's first answer.
struct SetUp {
    secs: f64,
    db: Arc<Database>,
    graph: Arc<CausalGraph>,
    session: HyperSession,
    first: f64,
}

/// Run one in-process workload; returns the run's counts and metrics.
pub fn run(shape: &Shape, args: &Args) -> Res<(Recorder, Metrics)> {
    let data = Data::generate(shape.rows, args.data_seed);
    let scratch = ScratchDir::new(shape.name)?;
    let snap_path = scratch.path().join("t0.hypr");
    Snapshot::new((*data.db).clone(), Some((*data.graph).clone()))
        .save(&snap_path)
        .map_err(err("save snapshot"))?;
    let rt = HyperRuntime::with_workers(1);
    let session = |db: &Arc<Database>, graph: &Arc<CausalGraph>| {
        HyperSession::builder(Arc::clone(db))
            .graph(Arc::clone(graph))
            .share_artifacts(false)
            .runtime(rt.clone())
            .howto_options(howto_options())
            .build()
    };

    // Set-up: load the snapshot, build the session, answer the first
    // what-if. Every round repeats it once; `setup_s` is the median.
    let mut loads = Vec::new();
    let mut setup = || -> Res<SetUp> {
        let t = Instant::now();
        let (snap, load_ms) = timed(|| Snapshot::load(&snap_path));
        let snap = snap.map_err(err("load snapshot"))?;
        let db = Arc::new(snap.database);
        let graph = Arc::new(snap.graph.ok_or("snapshot has no graph")?);
        let s = session(&db, &graph);
        let first = s
            .prepare(TEMPLATES[0].text)
            .and_then(|p| p.execute_whatif_with(&pair_bindings(COLD_PAIRS[1])))
            .map_err(err("first what-if"))?;
        loads.push(load_ms);
        Ok(SetUp {
            secs: t.elapsed().as_secs_f64(),
            db,
            graph,
            session: s,
            first: first.value,
        })
    };
    let SetUp {
        db,
        graph,
        session: warm,
        first: first_value,
        ..
    } = setup()?;
    ensure(db.fingerprint() == data.db.fingerprint(), || {
        "the loaded snapshot differs from the saved data".into()
    })?;

    // References, untimed: one fresh isolated session answers every pair
    // cold (each template within 5% of the exact oracle); the long-lived
    // session, warmed, must agree bit for bit.
    let mut memo = ValueMemo::new();
    let mut rel_errs = Vec::new();
    let mut cold_backdoor = Vec::new();
    let refs = session(&db, &graph);
    for (p, &(t, _)) in PAIRS.iter().enumerate() {
        let r = refs
            .whatif_text(&pair_text(p))
            .map_err(err("reference what-if"))?;
        // Once per template: its first pair.
        if PAIRS.iter().position(|&(u, _)| u == t) == Some(p) {
            rel_errs.push(data.oracle_check(p, r.value)?);
        }
        if p == COLD_PAIRS[1] {
            cold_backdoor = r.backdoor.clone();
        }
        memo.insert(p, r.value);
    }
    drop(refs);
    same_value(memo[&COLD_PAIRS[1]], first_value, "set-up what-if")?;
    let prepared: Vec<PreparedQuery> = TEMPLATES
        .iter()
        .map(|t| warm.prepare(t.text).map_err(err("prepare")))
        .collect::<Res<_>>()?;
    let warm_exec = |p: usize| {
        prepared[PAIRS[p].0]
            .execute_whatif_with(&pair_bindings(p))
            .map_err(err("warm what-if"))
    };
    for p in 0..PAIRS.len() {
        same_value(memo[&p], warm_exec(p)?.value, "warm-up what-if")?;
    }
    let batch_texts: Vec<String> = (0..PAIRS.len()).map(pair_text).collect();

    // The how-to: its first answer on the long-lived session is the
    // reference every later answer must equal. On a fresh session the IP
    // answer to the two-attribute how-to must equal brute force.
    let howto_q = parse_howto(shape.howto)?;
    let reference = warm.howto(&howto_q).map_err(err("reference how-to"))?;
    let brute_q = parse_howto(BRUTE_HOWTO)?;
    let s = session(&db, &graph);
    let ip = s.howto(&brute_q).map_err(err("how-to"))?;
    let brute = s
        .howto_bruteforce(&brute_q)
        .map_err(err("howto_bruteforce"))?;
    same_howto(&brute, &ip, "IP how-to against brute force")?;
    drop(s);
    let howto_check = HowToCheck::new(reference, &data, OBJECTIVE)?;
    if !howto_check.domain_note.is_empty() {
        println!(
            "known fault, counted as failed: how-to {}",
            howto_check.domain_note
        );
    }

    // The refresh delta (a 1% append drawn from the seed) and its
    // references: a cold session over `delta.apply(db)`. The filtered
    // pairs must not move at all.
    let schema = db.table(TABLE).map_err(err("table"))?.schema().clone();
    let delta = DeltaBatch::new().append(senior_rows(
        &schema,
        shape.rows / 100,
        &mut Rng::new(args.seed, DELTA_STREAM),
    )?);
    let post = Arc::new(delta.apply(&db).map_err(err("apply delta"))?);
    let cold = session(&post, &graph);
    let mut refresh_ref = ValueMemo::new();
    for p in RESERVE {
        let v = cold
            .whatif_text(&pair_text(p))
            .map_err(err("post-delta reference"))?
            .value;
        if !TEMPLATES[PAIRS[p].0].whole {
            same_value(memo[&p], v, "filtered view after an age-2 append")?;
        }
        refresh_ref.insert(p, v);
    }
    drop((cold, post));

    // The measured rounds.
    let round_shape = RoundShape {
        pairs: PAIRS.len(),
        warm_sweeps: WARM_SWEEPS,
        cold_bindings: COLD_PAIRS.len(),
    };
    let mut rec = Recorder::default();
    let mut last_refresh: Option<RefreshReport> = None;
    let stats_before = warm.stats();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < Duration::from_secs(args.seconds) {
        for op in inproc_round(args.seed, rounds, round_shape) {
            match op {
                Op::Setup => {
                    let s = setup()?;
                    same_value(memo[&COLD_PAIRS[1]], s.first, "set-up what-if")?;
                    rec.sample("setup", s.secs);
                    rec.count("setup", 1, 0);
                }
                Op::Cold(i) => {
                    let p = COLD_PAIRS[i];
                    let (text, s) = (pair_text(p), session(&db, &graph));
                    let (r, t) = timed(|| s.whatif_text(&text));
                    same_value(
                        memo[&p],
                        r.map_err(err("cold what-if"))?.value,
                        "cold what-if",
                    )?;
                    rec.sample("whatif_cold", t);
                    rec.sample("request", t);
                    rec.count("whatif_cold", 1, 0);
                }
                Op::Warm(p) => {
                    let (r, t) = timed(|| warm_exec(p));
                    same_value(memo[&p], r?.value, "warm what-if")?;
                    rec.sample(warm_kind(p), t);
                    rec.sample("request", t);
                    rec.count("whatif_warm", 1, 0);
                }
                Op::Batch => {
                    let (outs, t) = timed(|| warm.execute_batch(&batch_texts));
                    for (p, out) in outs.into_iter().enumerate() {
                        match out.map_err(err("batch what-if"))? {
                            QueryOutcome::WhatIf(r) => {
                                same_value(memo[&p], r.value, "batch what-if")?
                            }
                            QueryOutcome::HowTo(_) => return Err("batch returned a how-to".into()),
                        }
                    }
                    rec.sample("batch_qps", batch_texts.len() as f64 / (t / 1e3));
                    rec.count("whatif_batch", batch_texts.len() as u64, 0);
                }
                Op::HowToCold => {
                    let s = session(&db, &graph);
                    let (r, t) = timed(|| s.howto(&howto_q));
                    howto_op(&mut rec, &howto_check, r, t, "howto_cold")?;
                }
                Op::HowToWarm => {
                    let (r, t) = timed(|| warm.howto(&howto_q));
                    howto_op(&mut rec, &howto_check, r, t, "howto_warm")?;
                }
                Op::Explain(i) => {
                    let (text, s) = (pair_text(COLD_PAIRS[i]), session(&db, &graph));
                    let (report, t) = timed(|| s.explain(text.as_str()));
                    let report = report.map_err(err("explain"))?;
                    ensure(
                        report.view.rows == db.table(TABLE).map_err(err("table"))?.num_rows(),
                        || format!("explain reports {} view rows", report.view.rows),
                    )?;
                    ensure(s.stats().estimator_misses == 0, || {
                        "explain trained an estimator".into()
                    })?;
                    rec.sample("explain", t);
                    rec.sample("request", t);
                    rec.count("explain", 1, 0);
                }
                Op::Refresh => {
                    let t0 = Instant::now();
                    let out = warm.refresh(&delta).map_err(err("refresh"))?;
                    let ingest = ms(t0.elapsed());
                    let mut values = Vec::with_capacity(RESERVE.len());
                    for p in RESERVE {
                        values.push(out.session.whatif_text(&pair_text(p)));
                    }
                    let t = ms(t0.elapsed());
                    for (p, v) in RESERVE.into_iter().zip(values) {
                        let v = v.map_err(err("re-served what-if"))?.value;
                        same_value(refresh_ref[&p], v, "post-refresh what-if")?;
                    }
                    ensure(out.report.views_kept >= 2, || {
                        format!(
                            "refresh kept {} views; the filtered ones must survive",
                            out.report.views_kept
                        )
                    })?;
                    last_refresh = Some(out.report);
                    rec.sample("ingest", ingest);
                    rec.sample("refresh", t);
                    rec.sample("request", t);
                    rec.count("refresh", 1, 0);
                }
            }
        }
        rounds += 1;
    }
    let stats_after = warm.stats();
    println!(
        "{}: {} rows, {} rounds of {} operations in {:.1} s, data seed {}, runtime workers {}",
        shape.name,
        shape.rows,
        rounds,
        round_shape.ops_per_round(),
        start.elapsed().as_secs_f64(),
        args.data_seed,
        rt.workers()
    );

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", rec.median("setup"), "s");
        m.put("whatif_cold_ms_p50", rec.median("whatif_cold"), "ms");
        m.put("whatif_warm_ms_p50", rec.median("whatif_warm"), "ms");
        m.put("howto_cold_ms_p50", rec.median("howto_cold"), "ms");
        m.put("howto_warm_ms_p50", rec.median("howto_warm"), "ms");
        m.put("explain_ms_p50", rec.median("explain"), "ms");
        m.put("refresh_ms_p50", rec.median("refresh"), "ms");
        m.put("ingest_ms_p50", rec.median("ingest"), "ms");
        m.put("throughput_qps", rec.median("batch_qps"), "1/s");
        m.put("request_ms_p50", rec.median("request"), "ms");
        m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
        return Ok((rec, m));
    }

    let per_round =
        |f: fn(&SessionStats) -> u64| (f(&stats_after) - f(&stats_before)) as f64 / rounds as f64;
    let hits = per_round(|s| s.estimator_hits + s.estimator_shared_hits);
    let misses = per_round(|s| s.estimator_misses);
    let report = last_refresh.ok_or("no refresh ran")?;
    let serve = layers::serve_probe(scratch.path(), &memo)?;
    let given = Given {
        db: &db,
        graph: &graph,
        rt: &rt,
        reps: shape.layer_reps,
        cold_backdoor: &cold_backdoor,
        cold_wall_ms: rec.median("whatif_cold"),
        delta: &delta,
        snapshot_load_ms: crate::stats::median(&loads),
        view_builds: per_round(|s| s.view_misses),
        estimator_trainings: misses,
        estimator_hit_ratio: hits / (hits + misses),
        howto: howto_check.reference(),
        views_kept: report.views_kept as f64,
        estimators_invalidated: report.estimators_invalidated as f64,
        serve,
        oracle_rel_err_mean: rel_errs.iter().sum::<f64>() / rel_errs.len() as f64,
    };
    layers::measure(&given, &mut m)?;
    Ok((rec, m))
}

/// Record one how-to operation: a hard check against the reference, and
/// the counted domain fault.
fn howto_op(
    rec: &mut Recorder,
    check: &HowToCheck,
    r: hyper_repro::core::Result<HowToResult>,
    t: f64,
    kind: &'static str,
) -> Res<()> {
    let ok = check.judge(&r.map_err(err("how-to"))?, kind)?;
    rec.sample(kind, t);
    rec.count(kind, 1, u64::from(!ok));
    Ok(())
}
