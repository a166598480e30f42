//! What the workloads share: the German-Syn data and query templates,
//! the refresh deltas, the output checks, sample bookkeeping and the
//! result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyper_repro::core::HowToResult;
use hyper_repro::prelude::*;
use hyper_repro::query::{HowToQuery, UpdateFunc, UpdateSpec, WhatIfQuery};
use hyper_repro::storage::TableBuilder;

use crate::plan::Rng;
use crate::stats;

/// Errors are messages: a failed check or a failed call ends the run.
pub type Res<T> = Result<T, String>;

/// Fail with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Res<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Render any error as the run's failure message.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// German-Syn's single table.
pub const TABLE: &str = "german_syn";

/// The data seed: the table every workload runs over. `--data-seed 2`
/// selects the holdout table a claimed gain must also hold on.
pub const DATA_SEED: u64 = 1;

/// One what-if template with a `Param(v)` placeholder.
pub struct Template {
    /// Template text, bound per execution through `Param(v)`.
    pub text: &'static str,
    /// The same question over the whole table, which the exact oracle
    /// can evaluate (a `Select … Where` view becomes a `For Pre(…)`
    /// scope: the oracle's tuples are independent, so both agree).
    pub oracle: &'static str,
    /// True when the `Use` clause is the whole table (its view is
    /// rebuilt by every refresh); false for the age-filtered views that
    /// the age-2 appends never touch.
    pub whole: bool,
}

/// The what-if templates of every workload.
pub const TEMPLATES: [Template; 5] = [
    Template {
        text: "Use german_syn Update(status) = Param(v) Output Count(Post(credit) = 'Good')",
        oracle: "Use german_syn Update(status) = Param(v) Output Count(Post(credit) = 'Good')",
        whole: true,
    },
    Template {
        text: "Use german_syn When age = 0 Update(savings) = Param(v) \
               Output Count(Post(credit) = 'Good') For Pre(sex) = 1",
        oracle: "Use german_syn When age = 0 Update(savings) = Param(v) \
                 Output Count(Post(credit) = 'Good') For Pre(sex) = 1",
        whole: true,
    },
    Template {
        text: "Use german_syn Update(housing) = Param(v) Output Avg(Post(credit) = 'Good')",
        oracle: "Use german_syn Update(housing) = Param(v) Output Avg(Post(credit) = 'Good')",
        whole: true,
    },
    Template {
        text: "Use (Select age, sex, status, savings, credit From german_syn Where age < 2) \
               Update(status) = Param(v) Output Count(Post(credit) = 'Good')",
        oracle: "Use german_syn Update(status) = Param(v) \
                 Output Count(Post(credit) = 'Good') For Pre(age) < 2",
        whole: false,
    },
    Template {
        text: "Use (Select age, sex, savings, housing, credit From german_syn Where age = 0) \
               Update(savings) = Param(v) Output Count(Post(credit) = 'Good')",
        oracle: "Use german_syn Update(savings) = Param(v) \
                 Output Count(Post(credit) = 'Good') For Pre(age) = 0",
        whole: false,
    },
];

/// The working set: (template, binding) pairs an analyst keeps asking.
/// Template 0 is the cold template; its pairs come first.
pub const PAIRS: [(usize, i64); 8] = [
    (0, 1),
    (0, 3),
    (1, 0),
    (1, 3),
    (2, 2),
    (3, 0),
    (3, 3),
    (4, 3),
];

/// Pairs of the cold template (template 0).
pub const COLD_PAIRS: [usize; 2] = [0, 1];

/// Sample kind of a warm what-if on pair `p`. The `whatif_warm_*`
/// metrics read template 0 only: the templates differ several-fold in
/// cost, and a median over their mixture would sit between clusters
/// and jump between them from run to run.
pub fn warm_kind(p: usize) -> &'static str {
    if PAIRS[p].0 == 0 {
        "whatif_warm"
    } else {
        "whatif_warm_other"
    }
}

/// Template text with `Param(v)` replaced by the literal binding.
pub fn literal(text: &str, v: i64) -> String {
    text.replace("Param(v)", &v.to_string())
}

/// The literal text of pair `p`.
pub fn pair_text(p: usize) -> String {
    let (t, v) = PAIRS[p];
    literal(TEMPLATES[t].text, v)
}

/// `Bindings` for pair `p`.
pub fn pair_bindings(p: usize) -> Bindings {
    Bindings::new().set("v", PAIRS[p].1)
}

/// Parse what-if text.
pub fn parse_whatif(text: &str) -> Res<WhatIfQuery> {
    match parse_query(text).map_err(err("parse"))? {
        HypotheticalQuery::WhatIf(q) => Ok(q),
        HypotheticalQuery::HowTo(_) => Err(format!("expected a what-if: {text}")),
    }
}

/// Parse how-to text.
pub fn parse_howto(text: &str) -> Res<HowToQuery> {
    match parse_query(text).map_err(err("parse"))? {
        HypotheticalQuery::HowTo(q) => Ok(q),
        HypotheticalQuery::WhatIf(_) => Err(format!("expected a how-to: {text}")),
    }
}

/// The German-Syn data set a workload runs over.
pub struct Data {
    /// The database (one table).
    pub db: Arc<Database>,
    /// Its causal graph.
    pub graph: Arc<CausalGraph>,
    /// The generating model, for the exact oracle.
    pub scm: Scm,
}

impl Data {
    /// German-Syn with `rows` rows from `data_seed`.
    pub fn generate(rows: usize, data_seed: u64) -> Data {
        let d = hyper_repro::datasets::german_syn(rows, data_seed);
        Data {
            db: Arc::new(d.db),
            graph: Arc::new(d.graph),
            scm: d.scm.expect("German-Syn is generated from an SCM"),
        }
    }

    /// The table.
    pub fn table(&self) -> &Table {
        self.db.table(TABLE).expect("German-Syn has its table")
    }

    /// The exact possible-world value of `text` (Defs. 1–5).
    pub fn exact(&self, text: &str) -> Res<f64> {
        exact_whatif(&self.scm, self.table(), &parse_whatif(text)?).map_err(err("exact_whatif"))
    }

    /// Relative error of an estimate of pair `p` against the oracle;
    /// fails beyond the 5% the what-if tests allow.
    pub fn oracle_check(&self, p: usize, estimate: f64) -> Res<f64> {
        let (t, v) = PAIRS[p];
        let exact = self.exact(&literal(TEMPLATES[t].oracle, v))?;
        let rel = (estimate - exact).abs() / exact.abs();
        ensure(rel < 0.05, || {
            format!(
                "pair {p} ({}): estimate {estimate} is {:.2}% from exact {exact}",
                pair_text(p),
                rel * 100.0
            )
        })?;
        Ok(rel)
    }
}

/// `n` rows of senior applicants (`age = 2`): an append no age-filtered
/// view admits, so those views and their estimators survive a refresh
/// while the whole-table view is rebuilt.
pub fn senior_rows(schema: &hyper_repro::storage::Schema, n: usize, rng: &mut Rng) -> Res<Table> {
    let mut b = TableBuilder::new(TABLE, schema.clone());
    for _ in 0..n {
        let row: Vec<Value> = schema
            .fields()
            .iter()
            .map(|f| match f.name.as_str() {
                "age" => Value::Int(2),
                "sex" => Value::Int(rng.below(2) as i64),
                "housing" => Value::Int(rng.below(3) as i64),
                "credit" => Value::str(if rng.below(10) < 7 { "Good" } else { "Bad" }),
                _ => Value::Int(rng.below(4) as i64),
            })
            .collect();
        b = b.row(row).map_err(err("delta row"))?;
    }
    Ok(b.build())
}

/// A what-if whose updates the how-to check replaces with the chosen
/// ones (the how-to objective, as a what-if).
pub const OBJECTIVE: &str = "Use german_syn Update(status) = 0 Output Count(Post(credit) = 'Good')";

/// How-to outcome checks. Equality with the reference is a hard check;
/// the domain check is the known fault counted as a failed operation:
/// the candidate generator turns `Int` columns into `Float` bucket
/// midpoints, so German-Syn how-tos recommend values no row can hold.
pub struct HowToCheck {
    reference: HowToResult,
    domain_ok: bool,
    /// Why the domain check failed (empty when it passed).
    pub domain_note: String,
}

impl HowToCheck {
    /// Judge `reference` against the column domains of `data` and the
    /// exact oracle: every chosen value must be one its column holds, and
    /// the oracle value of the chosen update must reach the no-update
    /// objective. `objective` is a what-if with the how-to's `Output`
    /// whose updates are replaced by the chosen ones.
    pub fn new(reference: HowToResult, data: &Data, objective: &str) -> Res<HowToCheck> {
        let table = data.table();
        let mut notes = Vec::new();
        for u in &reference.chosen {
            let col = table
                .column_by_name(&u.attr)
                .map_err(err("how-to column"))?;
            let held = match &u.func {
                UpdateFunc::Set(v) => (0..table.num_rows()).any(|i| col.value(i).sql_eq(v)),
                _ => false,
            };
            if !held {
                notes.push(format!(
                    "{} = {} is outside the column's values",
                    u.attr, u.func
                ));
            }
        }
        // With no update every row keeps its observed credit, so the
        // no-update objective is the observed count.
        let baseline = observed_good(table);
        let mut q = parse_whatif(objective)?;
        q.updates = reference
            .chosen
            .iter()
            .map(|u| UpdateSpec {
                attr: u.attr.clone(),
                func: u.func.clone(),
            })
            .collect();
        if !q.updates.is_empty() {
            let exact = exact_whatif(&data.scm, table, &q)
                .map_err(err("exact_whatif of the chosen update"))?;
            if exact < baseline {
                notes.push(format!(
                    "oracle value {exact} of the chosen update is below the no-update objective {baseline}"
                ));
            }
        }
        Ok(HowToCheck {
            domain_ok: notes.is_empty(),
            domain_note: notes.join("; "),
            reference,
        })
    }

    /// The reference result.
    pub fn reference(&self) -> &HowToResult {
        &self.reference
    }

    /// Check `r` against the reference (a hard failure when it differs);
    /// returns whether the operation passes the domain check.
    pub fn judge(&self, r: &HowToResult, what: &str) -> Res<bool> {
        same_howto(&self.reference, r, what)?;
        Ok(self.domain_ok)
    }
}

/// Rows with `credit = 'Good'`: the observed (no-update) objective.
pub fn observed_good(table: &Table) -> f64 {
    let col = table
        .column_by_name("credit")
        .expect("German-Syn has credit");
    let good = Value::str("Good");
    (0..table.num_rows())
        .filter(|&i| col.value(i).sql_eq(&good))
        .count() as f64
}

/// Render a how-to choice for comparison.
pub fn render_choice(r: &HowToResult) -> String {
    let mut v: Vec<String> = r
        .chosen
        .iter()
        .map(|u| format!("{}={}", u.attr, u.func))
        .collect();
    v.sort();
    v.join(",")
}

/// Two how-to results must choose the same updates with bit-equal
/// objectives.
pub fn same_howto(a: &HowToResult, b: &HowToResult, what: &str) -> Res<()> {
    ensure(
        render_choice(a) == render_choice(b) && a.objective.to_bits() == b.objective.to_bits(),
        || {
            format!(
                "{what}: chose {{{}}} objective {} but the reference chose {{{}}} objective {}",
                render_choice(b),
                b.objective,
                render_choice(a),
                a.objective
            )
        },
    )
}

/// A value must be bit-equal to its reference.
pub fn same_value(reference: f64, got: f64, what: &str) -> Res<()> {
    ensure(reference.to_bits() == got.to_bits(), || {
        format!("{what}: got {got}, the cold reference is {reference}")
    })
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Latency samples and operation counts of one run.
#[derive(Default)]
pub struct Recorder {
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// Record one sample of `kind` (milliseconds unless the kind says
    /// otherwise).
    pub fn sample(&mut self, kind: &'static str, v: f64) {
        self.samples.entry(kind).or_default().push(v);
    }

    /// Count `n` attempted operations of `kind`, `failed` of which failed.
    pub fn count(&mut self, kind: &'static str, n: u64, failed: u64) {
        *self.attempted.entry(kind).or_default() += n;
        *self.failed.entry(kind).or_default() += failed;
    }

    /// The samples of `kind` (empty when none were taken).
    pub fn get(&self, kind: &str) -> &[f64] {
        self.samples.get(kind).map_or(&[], Vec::as_slice)
    }

    /// Median of `kind`.
    pub fn median(&self, kind: &str) -> f64 {
        stats::median(self.get(kind))
    }

    /// Total attempted and failed operations.
    pub fn totals(&self) -> (u64, u64) {
        (self.attempted.values().sum(), self.failed.values().sum())
    }

    /// One line per operation kind: attempted, failed.
    pub fn print_counts(&self) {
        for (kind, n) in &self.attempted {
            println!(
                "ops {kind}: attempted {n}, failed {}",
                self.failed.get(kind).copied().unwrap_or(0)
            );
        }
    }

    /// One line per sampled kind: count, median, quartiles and the tail:
    /// the highest percentile that keeps ten samples beyond it.
    pub fn print_samples(&self) {
        for (kind, v) in &self.samples {
            let q = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
            let tail = stats::tail_percentile(v.len()).map_or(String::new(), |p| {
                format!(" p{p} {:.4}", hyper_trace::percentile(&stats::sorted(v), p))
            });
            println!(
                "samples {kind}: n {} median {:.4} q1 {:.4} q3 {:.4}{tail}",
                v.len(),
                stats::median(v),
                q[0],
                q[2]
            );
        }
    }
}

/// The named metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add metric `name` with `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: fails when a value is not a finite number.
    pub fn result_line(&self, attempted: u64, failed: u64) -> Res<String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            ensure(value.is_finite(), || format!("metric {name} is {value}"))?;
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `.perfbench_tmp/<name>-<pid>` under the current directory.
    pub fn new(name: &str) -> Res<ScratchDir> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(err("scratch dir"))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leaves the parent only when no other run is using it.
        std::fs::remove_dir(".perfbench_tmp").ok();
    }
}

/// Reference values of the working set, computed by fresh isolated
/// sessions (`share_artifacts(false)`), keyed by pair index.
pub type ValueMemo = HashMap<usize, f64>;
