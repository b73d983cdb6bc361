//! The simulator stage: a nine-scheme sweep on 1024 simulated cores. Its
//! rates are simulated time (1 GHz) and bit-reproducible for one seed; the
//! host time the sweep takes is the simulator's own speed.

use std::time::Instant;

use abyss_common::zipf::ZipfGen;
use abyss_common::{CcScheme, RunStats, TxnTemplate};
use abyss_sim::{run_sim_full, SimConfig, SimReport, SimTable};
use abyss_workload::tpcc::{self, TpccConfig, TpccGen};
use abyss_workload::ycsb::{self, YcsbConfig, YcsbGen};

use crate::engine::{key, scheme_layers, seed_for};
use crate::est;
use crate::report::{Checks, Report};
use crate::trace::Tracer;

pub const CORES: u32 = 1024;

/// The simulated input.
#[derive(Debug, Clone)]
pub enum SimMix {
    Ycsb(YcsbConfig),
    /// TPC-C (Payment + NewOrder) over this many warehouses; H-STORE gets
    /// one partition per warehouse.
    Tpcc(u32),
}

#[derive(Debug, Clone)]
pub struct SimSpec {
    pub mix: SimMix,
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    /// Times the sweep runs; `sim_host_s` is the median sweep. Every
    /// repeat must reproduce the first one's statistics exactly.
    pub sweeps: usize,
}

type Gen = Box<dyn FnMut() -> TxnTemplate>;

/// Per-core generators and table metadata for one scheme's run.
fn inputs(
    mix: &SimMix,
    scheme: CcScheme,
    seed: u64,
    zipf: Option<&ZipfGen>,
) -> (Vec<SimTable>, Vec<Gen>, u32) {
    match mix {
        SimMix::Ycsb(cfg) => {
            let row_size = ycsb::catalog(cfg).tables()[0].schema.row_size();
            let tables = vec![SimTable {
                row_size,
                counter_init: 0,
            }];
            let hstore = scheme == CcScheme::HStore;
            let gens = (0..CORES)
                .map(|c| {
                    let s = seed_for(seed, c);
                    let zipf = zipf.expect("zipf table").clone();
                    let mut g = if hstore {
                        let pcfg = YcsbConfig {
                            parts: CORES,
                            ..cfg.clone()
                        };
                        YcsbGen::with_zipf(pcfg, zipf, s).for_worker(c)
                    } else {
                        YcsbGen::with_zipf(cfg.clone(), zipf, s)
                    };
                    Box::new(move || g.next_txn()) as Gen
                })
                .collect();
            (tables, gens, CORES)
        }
        SimMix::Tpcc(warehouses) => {
            let cfg = TpccConfig {
                warehouses: *warehouses,
                workers: CORES,
                ..TpccConfig::default()
            };
            let tables = tpcc::catalog(&cfg)
                .tables()
                .iter()
                .map(|t| SimTable {
                    row_size: t.schema.row_size(),
                    counter_init: if t.id == tpcc::TpccTable::District.id() {
                        tpcc::FIRST_NEW_ORDER_ID
                    } else {
                        0
                    },
                })
                .collect();
            let gens = (0..CORES)
                .map(|c| {
                    let mut g = TpccGen::new(cfg.clone(), c, seed_for(seed, c));
                    Box::new(move || g.next_txn()) as Gen
                })
                .collect();
            (tables, gens, *warehouses)
        }
    }
}

struct SchemeResult {
    scheme: CcScheme,
    report: SimReport,
    host_s: f64,
}

pub struct SimStage {
    spec: SimSpec,
    seed: u64,
    zipf: Option<ZipfGen>,
    results: Vec<SchemeResult>,
    host_s: f64,
    replay_equal: bool,
}

impl SimStage {
    /// Set-up: the Zipf table the YCSB generators share.
    pub fn setup(spec: SimSpec, seed: u64, tr: &mut Tracer) -> Self {
        let zipf = match &spec.mix {
            SimMix::Ycsb(cfg) => {
                Some(tr.span("workload.zipf", |_| ZipfGen::new(cfg.table_rows, cfg.theta)))
            }
            SimMix::Tpcc(_) => None,
        };
        Self {
            spec,
            seed,
            zipf,
            results: Vec::new(),
            host_s: 0.0,
            replay_equal: false,
        }
    }

    fn config(&self, scheme: CcScheme, cores: u32, parts: u32) -> SimConfig {
        let mut c = SimConfig::new(scheme, cores);
        c.warmup = self.spec.warmup_cycles;
        c.measure = self.spec.measure_cycles;
        c.seed = self.seed;
        if scheme == CcScheme::HStore {
            c.hstore_parts = parts;
        }
        c
    }

    /// Simulate every scheme, `sweeps` times over; `sim_host_s` is the
    /// median sweep's host time.
    pub fn run(&mut self, tr: &mut Tracer) {
        let mut sweeps = Vec::with_capacity(self.spec.sweeps);
        let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); CcScheme::ALL.len()];
        let mut same = true;
        for rep in 0..self.spec.sweeps {
            let began = Instant::now();
            for (i, scheme) in CcScheme::ALL.into_iter().enumerate() {
                let (tables, gens, parts) =
                    inputs(&self.spec.mix, scheme, self.seed, self.zipf.as_ref());
                let cfg = self.config(scheme, CORES, parts);
                let t = Instant::now();
                let (report, _) = tr.span("sim.run_sim_full", |_| run_sim_full(cfg, tables, gens));
                per_scheme[i].push(t.elapsed().as_secs_f64());
                if rep == 0 {
                    self.results.push(SchemeResult {
                        scheme,
                        report,
                        host_s: 0.0,
                    });
                } else {
                    let first = &self.results[i].report.stats;
                    same &= format!("{first:?}") == format!("{:?}", report.stats);
                }
            }
            sweeps.push(began.elapsed().as_secs_f64());
        }
        for (r, times) in self.results.iter_mut().zip(&per_scheme) {
            r.host_s = est::median(times);
        }
        self.host_s = est::median(&sweeps);
        eprintln!("  sim sweeps {sweeps:.3?} s");
        // Determinism: a small configuration simulated twice.
        let small = |this: &Self| {
            let mut spec = this.spec.clone();
            spec.measure_cycles = 200_000;
            spec.warmup_cycles = 50_000;
            let (tables, mut gens, _) =
                inputs(&spec.mix, CcScheme::Silo, this.seed, this.zipf.as_ref());
            gens.truncate(16);
            let mut cfg = SimConfig::new(CcScheme::Silo, 16);
            cfg.warmup = spec.warmup_cycles;
            cfg.measure = spec.measure_cycles;
            cfg.seed = this.seed;
            run_sim_full(cfg, tables, gens).0.stats
        };
        let (a, b): (RunStats, RunStats) = (small(self), small(self));
        self.replay_equal = same && format!("{a:?}") == format!("{b:?}");
    }

    pub fn issued(&self) -> u64 {
        self.results.len() as u64
    }

    pub fn check(&self, checks: &mut Checks) {
        for r in &self.results {
            checks.expect(
                &format!("sim.{}.commits", key(r.scheme)),
                r.report.stats.commits > 0,
                "no simulated commits".into(),
            );
        }
        checks.expect(
            "sim.replay_identical",
            self.replay_equal,
            "a configuration simulated twice gave different statistics".into(),
        );
    }

    /// Simulated `txn_per_s.<s>` (for workloads whose nine-scheme stage is
    /// the simulator).
    pub fn report_rates(&self, rep: &mut Report) {
        for r in &self.results {
            rep.e2e(
                &format!("txn_per_s.{}", key(r.scheme)),
                r.report.txn_per_sec(),
                "1/s",
            );
        }
    }

    pub fn report_host(&self, rep: &mut Report) {
        rep.e2e("sim_host_s", self.host_s, "s");
    }

    /// `sim_phase_gap_pct`, `sim_host_us_per_txn.<s>`, and, when `phases`
    /// is set, the simulated per-scheme phase and ratio figures.
    pub fn report_layers(&self, rep: &mut Report, phases: bool) {
        rep.layer("sim_phase_gap_pct", self.phase_gap() * 100.0, "%");
        for r in &self.results {
            let commits = r.report.stats.commits.max(1) as f64;
            rep.layer(
                &format!("sim_host_us_per_txn.{}", key(r.scheme)),
                r.host_s * 1e6 / commits,
                "us",
            );
            if phases {
                scheme_layers(rep, r.scheme, &r.report.stats, 1.0);
            }
        }
    }

    /// The largest share by which a scheme's phase cycles miss cores ×
    /// window. It is a figure, not a check: the simulator does not clip
    /// attempts that straddle the window's edges, so the share depends on
    /// the seed (0.02–0.13% at 2M cycles on YCSB θ 0.6).
    fn phase_gap(&self) -> f64 {
        self.results
            .iter()
            .map(|r| {
                let want = (u64::from(r.report.cores) * r.report.stats.elapsed) as f64;
                (r.report.stats.phase_ns.total() as f64 - want).abs() / want
            })
            .fold(0.0, f64::max)
    }

    pub fn summary(&self) -> String {
        let rates: Vec<String> = self
            .results
            .iter()
            .map(|r| format!("{}={:.0}", key(r.scheme), r.report.txn_per_sec()))
            .collect();
        format!(
            "sim: {:.2} s host; largest phase-cycle gap {:.4}%; simulated txn/s {}",
            self.host_s,
            self.phase_gap() * 100.0,
            rates.join(" ")
        )
    }
}
