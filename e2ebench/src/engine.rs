//! The nine-scheme engine stage: one database per scheme, kept alive for
//! the whole run, driven in interleaved rounds through the engine's
//! bounded closed-loop driver over pre-generated YCSB templates.
//!
//! Interleaving matters on a small shared host: a single window per scheme
//! lets a slow spell of the host land on one scheme; rounds spread it over
//! all of them, and each scheme reports its median round.

use std::sync::Arc;
use std::time::{Duration, Instant};

use abyss_common::zipf::ZipfGen;
use abyss_common::{AccessOp, CcScheme, Phase, RunStats, TxnTemplate};
use abyss_core::{run_workers_bounded, Database, EngineConfig};
use abyss_workload::ycsb::{self, YcsbConfig, YcsbGen, YCSB_TABLE};

use crate::est;
use crate::report::{Checks, Report};
use crate::trace::Tracer;

/// Engine worker threads: one per core of the 2-core reference host.
pub const WORKERS: u32 = 2;
/// Target length of one scheme's window within a round.
const ROUND_TARGET: Duration = Duration::from_millis(40);
/// Transactions per worker in the calibration (warm-up) round.
const WARMUP_TXNS: u64 = 1500;

type Gen = Box<dyn FnMut() -> TxnTemplate + Send>;

/// A pre-generated per-worker template stream and, per template, the
/// number of `Update` accesses it issues.
struct Pool {
    templates: Vec<TxnTemplate>,
    updates: Vec<u64>,
}

impl Pool {
    fn generate(mut gen: YcsbGen, len: usize, tr: &mut Tracer) -> Self {
        let templates: Vec<TxnTemplate> = (0..len)
            .map(|_| tr.span("workload.next_txn", |_| gen.next_txn()))
            .collect();
        let updates = templates.iter().map(count_updates).collect();
        Self { templates, updates }
    }

    /// Updates issued by `count` templates starting at `start` (cyclic).
    fn updates_in(&self, start: usize, count: usize) -> u64 {
        (start..start + count)
            .map(|i| self.updates[i % self.updates.len()])
            .sum()
    }
}

/// `Update` accesses in a template, counted by the benchmark itself.
pub fn count_updates(t: &TxnTemplate) -> u64 {
    t.accesses
        .iter()
        .filter(|a| a.op == AccessOp::Update)
        .count() as u64
}

/// One scheme's database and its bookkeeping.
struct SchemeRun {
    scheme: CcScheme,
    db: Arc<Database>,
    pools: Arc<Vec<Pool>>,
    cursor: usize,
    per_worker: u64,
    issued: u64,
    updates: u64,
    rounds: Vec<f64>,
    measured: RunStats,
}

/// Templates pre-generated per worker (cycled when a run uses more).
const POOL_LEN: usize = 20_000;

/// What the stage needs to know about its input.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    pub cfg: YcsbConfig,
    /// Whether the workload writes (the read-only workload instead checks
    /// that the state digest is unchanged and that nothing aborted).
    pub read_only: bool,
}

pub struct EngineStage {
    spec: EngineSpec,
    runs: Vec<SchemeRun>,
    digest: u64,
    sums: Vec<u64>,
}

impl EngineStage {
    /// Generate the template pools and build and load one database per
    /// scheme.
    pub fn setup(spec: EngineSpec, seed: u64, tr: &mut Tracer) -> Self {
        let cfg = &spec.cfg;
        let zipf = ZipfGen::new(cfg.table_rows, cfg.theta);
        let shared = tr.span("workload.generate", |tr| {
            Arc::new(
                (0..WORKERS)
                    .map(|w| {
                        let g = YcsbGen::with_zipf(cfg.clone(), zipf.clone(), seed_for(seed, w));
                        Pool::generate(g, POOL_LEN, tr)
                    })
                    .collect::<Vec<_>>(),
            )
        });
        // H-STORE runs one partition per worker (§5.5): its templates are
        // drawn per home partition.
        let parted = tr.span("workload.generate", |tr| {
            let pcfg = YcsbConfig {
                parts: WORKERS,
                ..cfg.clone()
            };
            Arc::new(
                (0..WORKERS)
                    .map(|w| {
                        let g = YcsbGen::with_zipf(
                            pcfg.clone(),
                            zipf.clone(),
                            seed_for(seed, w) ^ 0x4853,
                        )
                        .for_worker(w);
                        Pool::generate(g, POOL_LEN, tr)
                    })
                    .collect::<Vec<_>>(),
            )
        });
        let mut runs = Vec::new();
        for scheme in CcScheme::ALL {
            let mut ecfg = EngineConfig::new(scheme, WORKERS);
            if tr.enabled() {
                ecfg = ecfg.with_breakdown();
            }
            let db = Database::new(ecfg, ycsb::catalog(cfg)).expect("engine config");
            tr.span("storage.load_table", |_| {
                db.load_table(YCSB_TABLE, 0..cfg.table_rows, ycsb::init_row)
                    .expect("load YCSB table")
            });
            let pools = if scheme == CcScheme::HStore {
                Arc::clone(&parted)
            } else {
                Arc::clone(&shared)
            };
            runs.push(SchemeRun {
                scheme,
                db,
                pools,
                cursor: 0,
                per_worker: WARMUP_TXNS,
                issued: 0,
                updates: 0,
                rounds: Vec::new(),
                measured: RunStats::default(),
            });
        }
        Self {
            spec,
            runs,
            digest: 0,
            sums: Vec::new(),
        }
    }

    /// Rows loaded per database.
    pub fn rows(&self) -> u64 {
        self.spec.cfg.table_rows
    }

    /// Databases the stage keeps, one per scheme.
    pub fn databases(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Record the pre-run state the checks compare against.
    pub fn snapshot(&mut self) {
        self.sums = self
            .runs
            .iter()
            .map(|r| r.db.sum_column(YCSB_TABLE, 1))
            .collect();
        if self.spec.read_only {
            // Every scheme's table is loaded from the same rows, so one
            // digest stands for all of them (and is checked against each).
            self.digest = self.runs[0].db.state_digest();
        }
    }

    /// Run one calibration round, then whole rounds until `window` has
    /// elapsed (at least three measured rounds).
    pub fn run(&mut self, window: Duration, tr: &mut Tracer) {
        let began = Instant::now();
        tr.span("engine.round", |tr| self.round(0, false, tr));
        for r in &mut self.runs {
            let rate = r.rounds[0] / f64::from(WORKERS);
            let want = (rate * ROUND_TARGET.as_secs_f64()) as u64;
            r.per_worker = want.clamp(200, 200_000);
        }
        let mut n = 1;
        while n < 4 || began.elapsed() < window {
            tr.span("engine.round", |tr| self.round(n, true, tr));
            n += 1;
        }
    }

    fn round(&mut self, n: usize, measured: bool, tr: &mut Tracer) {
        let k = self.runs.len();
        for i in 0..k {
            // Rotate the order so no scheme always follows the same one.
            let r = &mut self.runs[(i + n) % k];
            let gens: Vec<Gen> = (0..WORKERS as usize)
                .map(|w| {
                    let pools = Arc::clone(&r.pools);
                    let mut at = r.cursor;
                    Box::new(move || {
                        let p = &pools[w].templates;
                        let t = p[at % p.len()].clone();
                        at += 1;
                        t
                    }) as Gen
                })
                .collect();
            let out = tr.span("core.run_workers_bounded", |_| {
                run_workers_bounded(&r.db, gens, r.per_worker)
            });
            let count = r.per_worker as usize;
            r.updates = r.updates.wrapping_add(
                r.pools
                    .iter()
                    .map(|p| p.updates_in(r.cursor, count))
                    .sum::<u64>(),
            );
            r.cursor += count;
            r.issued += r.per_worker * u64::from(WORKERS);
            r.rounds.push(out.txn_per_sec());
            if measured {
                r.measured.merge(&out.stats);
            } else {
                // Statistics cover measured rounds; commits are checked
                // over every round.
                r.measured.commits += out.stats.commits;
            }
        }
    }

    /// Transactions the stage issued.
    pub fn issued(&self) -> u64 {
        self.runs.iter().map(|r| r.issued).sum()
    }

    /// Correctness checks: expected values come from the templates the
    /// benchmark issued, not from the engine's own counters, except the
    /// commit count the engine's driver reports.
    pub fn check(&self, checks: &mut Checks) {
        for (i, r) in self.runs.iter().enumerate() {
            let s = r.scheme.name().to_ascii_lowercase();
            checks.expect(
                &format!("engine.{s}.each_template_commits_once"),
                r.measured.commits == r.issued,
                format!(
                    "{} commits for {} issued templates",
                    r.measured.commits, r.issued
                ),
            );
            let sum = r.db.sum_column(YCSB_TABLE, 1);
            let delta = sum.wrapping_sub(self.sums[i]);
            checks.expect(
                &format!("engine.{s}.column_sum_matches_updates"),
                delta == r.updates,
                format!(
                    "column 1 moved by {delta}, templates issued {} updates",
                    r.updates
                ),
            );
            if self.spec.read_only {
                checks.expect(
                    &format!("engine.{s}.no_aborts"),
                    r.measured.total_aborts() == 0,
                    format!("{} aborts", r.measured.total_aborts()),
                );
                checks.expect(
                    &format!("engine.{s}.digest_unchanged"),
                    r.db.state_digest() == self.digest,
                    "state digest changed under a read-only mix".into(),
                );
            }
        }
    }

    /// `txn_per_s.<s>`: each scheme's median measured round.
    pub fn report_end_to_end(&self, rep: &mut Report) {
        for r in &self.runs {
            rep.e2e(
                &format!("txn_per_s.{}", key(r.scheme)),
                est::round_median(&r.rounds, 1),
                "1/s",
            );
        }
    }

    /// Per-scheme CC/executor counters over the measured rounds.
    pub fn report_layers(&self, rep: &mut Report) {
        for r in &self.runs {
            scheme_layers(rep, r.scheme, &r.measured, 1.0);
        }
    }
}

/// `phase_ns.<p>.<s>`, `commit_ratio.<s>`, `backoff_us_per_commit.<s>` and
/// `ts_per_commit.<s>` from merged run statistics. `ns_per_unit` converts
/// the phase unit (1 for engine nanoseconds and for simulated cycles at
/// 1 GHz).
pub fn scheme_layers(rep: &mut Report, scheme: CcScheme, st: &RunStats, ns_per_unit: f64) {
    let s = key(scheme);
    let commits = st.commits.max(1) as f64;
    for p in Phase::ALL {
        rep.layer(
            &format!("phase_ns.{}.{s}", p.key()),
            st.phase_ns.get(p) as f64 * ns_per_unit / commits,
            "ns",
        );
    }
    let attempts = (st.commits + st.total_aborts()).max(1) as f64;
    rep.layer(
        &format!("commit_ratio.{s}"),
        st.commits as f64 / attempts,
        "ratio",
    );
    rep.layer(
        &format!("backoff_us_per_commit.{s}"),
        st.backoff_ns as f64 / 1e3 / commits,
        "us",
    );
    rep.layer(
        &format!("ts_per_commit.{s}"),
        st.ts_allocated as f64 / commits,
        "count",
    );
}

/// Metric-name key of a scheme (`dl_detect`, `no_wait`, ...).
pub fn key(s: CcScheme) -> String {
    s.name().to_ascii_lowercase()
}

/// Per-worker generator seed derived from the run's seed.
pub fn seed_for(seed: u64, worker: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(worker) << 32 | 0xE2E)
}
