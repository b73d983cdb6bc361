//! e2ebench — one command for the end-to-end and per-layer figures of the
//! engine, the serving layer and the 1024-core simulator.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ycsb_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs three stages on inputs drawn from `--seed`:
//!
//! * a nine-scheme stage: the engine in interleaved rounds (`ycsb_*`), or
//!   the simulator on 1024 cores (`tpcc_service`, `sim_1024`), giving
//!   `txn_per_s.<scheme>`;
//! * the serving stage: TPC-C through `TxnService` with WAL group commit,
//!   an open-loop rate ladder and a timed recovery (`ack_p50_us`,
//!   `ack_p99_us`, `max_rate_at_slo`, `recover_s`);
//! * a simulator sweep of the workload's mix (`sim_host_s`).
//!
//! The last stdout line is the result object; `--trace 1` reports the
//! per-layer figures instead of the end-to-end ones and writes the spans to
//! `.bench_out/spans-<workload>.csv`. Failed correctness checks exit 1.

mod awake;
mod engine;
mod est;
mod report;
mod service;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use abyss_workload::ycsb::YcsbConfig;

use engine::{EngineSpec, EngineStage};
use report::{Checks, Report};
use service::{ServiceSpec, ServiceStage};
use sim::{SimMix, SimSpec, SimStage};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["ycsb_hot", "ycsb_ro_cold", "tpcc_service", "sim_1024"];

/// Set-up repetitions whose median is `setup_s` (the last one's state is
/// the one measured).
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one workload runs.
struct Plan {
    /// Engine nine-scheme stage (the `ycsb_*` workloads).
    engine: Option<EngineSpec>,
    /// Share of `--seconds` for the engine rounds.
    engine_share: f64,
    service: ServiceSpec,
    sim: SimSpec,
}

/// The serving stage's reference rate (requests per second). Its windows
/// are the ladder's first rung.
const REFERENCE_RATE: f64 = 4000.0;
/// The offered rates above the reference: steps of 15%, then of 10% over
/// the range where the service saturates on the reference host.
const LADDER: [f64; 18] = [
    8000.0, 9200.0, 10600.0, 12200.0, 14000.0, 15400.0, 16900.0, 18600.0, 20500.0, 22500.0,
    24800.0, 27300.0, 30000.0, 33000.0, 36300.0, 39900.0, 43900.0, 48300.0,
];
/// Requests of the serving stage's saturation burst (`peak_per_s`): about
/// half a second of work at the reference host's peak.
const BURST: usize = 20_000;
/// Ack p99 limit of a passing rung. Above the few-millisecond stalls a
/// shared 2-vCPU host imposes now and then, so the ladder finds where
/// queueing sets in rather than where the host hiccuped.
const SLO_US: f64 = 10_000.0;

fn service_spec(seconds: f64, reference_share: f64) -> ServiceSpec {
    // At least one rung's worth of latency windows, however short the run.
    let shortest = (service::RUNG_WINDOWS * service::WINDOW) as f64 / REFERENCE_RATE;
    ServiceSpec {
        reference_rate: REFERENCE_RATE,
        warmup: Duration::from_secs_f64(0.25),
        reference: Duration::from_secs_f64((seconds * reference_share).max(shortest)),
        ladder: LADDER.to_vec(),
        slo_us: SLO_US,
        burst: BURST,
    }
}

fn plan(workload: &str, seconds: f64) -> Plan {
    let hot = YcsbConfig {
        table_rows: 64 * 1024,
        ..YcsbConfig::write_intensive(0.8)
    };
    let cold = YcsbConfig {
        table_rows: 200 * 1024,
        ..YcsbConfig::read_only()
    };
    // The paper's 1024-core write-intensive YCSB (θ 0.6, 20M rows): the
    // simulator sweep of every workload, and the nine-scheme stage of
    // `sim_1024`.
    let sweep = |measure_cycles: u64, sweeps: usize| SimSpec {
        mix: SimMix::Ycsb(YcsbConfig::write_intensive(0.6)),
        warmup_cycles: measure_cycles / 4,
        measure_cycles,
        sweeps,
    };
    match workload {
        "ycsb_hot" => Plan {
            sim: sweep(500_000, 3),
            engine: Some(EngineSpec {
                cfg: hot,
                read_only: false,
            }),
            engine_share: 0.5,
            service: service_spec(seconds, 0.15),
        },
        "ycsb_ro_cold" => Plan {
            sim: sweep(500_000, 3),
            engine: Some(EngineSpec {
                cfg: cold,
                read_only: true,
            }),
            engine_share: 0.5,
            service: service_spec(seconds, 0.15),
        },
        "tpcc_service" => Plan {
            engine: None,
            engine_share: 0.0,
            service: service_spec(seconds, 0.35),
            sim: SimSpec {
                mix: SimMix::Tpcc(sim::CORES),
                warmup_cycles: 125_000,
                measure_cycles: 500_000,
                sweeps: 3,
            },
        },
        "sim_1024" => Plan {
            engine: None,
            engine_share: 0.0,
            service: service_spec(seconds, 0.15),
            sim: sweep(2_000_000, 2),
        },
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Every stage of one workload, set up and ready to run.
struct Stages {
    engine: Option<EngineStage>,
    service: ServiceStage,
    sim: SimStage,
}

fn setup(plan: &Plan, args: &Args, wal: &std::path::Path, tr: &mut Tracer) -> Stages {
    let engine = plan
        .engine
        .as_ref()
        .map(|spec| EngineStage::setup(spec.clone(), args.seed, tr));
    let service = ServiceStage::setup(plan.service.clone(), args.seed, wal.to_path_buf(), tr);
    let sim = SimStage::setup(plan.sim.clone(), args.seed, tr);
    Stages {
        engine,
        service,
        sim,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let wal = out_dir.join(format!("wal-{}", std::process::id()));
    let seconds = args.seconds as f64;
    let plan = plan(&args.workload, seconds);
    let mut tr = Tracer::new(args.trace);

    // Set-up, repeated; every repetition but the last is dropped unrun.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut stages = None;
    for _ in 0..SETUP_REPS {
        drop(stages.take());
        let t = Instant::now();
        stages = Some(tr.span("setup", |tr| setup(&plan, &args, &wal, tr)));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut st = stages.expect("set up at least once");

    let mut rep = Report::default();
    let mut checks = Checks::default();
    let run_began = Instant::now();
    rep.e2e("setup_s", est::median(&setup_times), "s");
    let mut engine_rows = 0;
    if let Some(mut e) = st.engine.take() {
        e.snapshot();
        let window = Duration::from_secs_f64(seconds * plan.engine_share);
        tr.span("stage.engine", |tr| e.run(window, tr));
        e.check(&mut checks);
        e.report_end_to_end(&mut rep);
        if args.trace {
            e.report_layers(&mut rep);
        }
        rep.attempted += e.issued();
        engine_rows = e.rows() * e.databases();
        // Dropped here: the later stages run without the nine databases.
    }
    tr.span("stage.service", |tr| st.service.run(tr));
    tr.span("stage.sim", |tr| st.sim.run(tr));
    eprintln!(
        "e2ebench {}: seed {} ran {:.1} s after {:.2} s set-up ({:?})",
        args.workload,
        args.seed,
        run_began.elapsed().as_secs_f64(),
        est::median(&setup_times),
        setup_times
    );
    st.service.check(&mut checks);
    st.service.report_end_to_end(&mut rep);
    st.sim.check(&mut checks);
    st.sim.report_host(&mut rep);
    if plan.engine.is_none() {
        st.sim.report_rates(&mut rep);
    }
    rep.attempted += st.service.issued() + st.sim.issued();
    rep.failed += st.service.failed();
    eprintln!("{}", st.service.summary());
    eprintln!("{}", st.sim.summary());

    if args.trace {
        report_layers(&mut rep, &st, &plan, &tr, engine_rows);
        eprintln!(
            "{:<28}{:>10}{:>14}{:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (name, count, total, own) in tr.summary() {
            eprintln!(
                "{name:<28}{count:>10}{:>14.3}{:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        eprintln!(
            "end-to-end (traced): {}",
            report::metrics_json(rep.e2e_metrics())
        );
        let path = out_dir.join(format!("spans-{}.csv", args.workload));
        if let Err(e) = tr.write_csv(&path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
    }
    for f in checks.failures() {
        eprintln!("CHECK FAILED {f}");
    }
    eprintln!(
        "{} checks passed, {} failed",
        checks.passed(),
        checks.failures().len()
    );
    println!("{}", rep.json(checks.ok(), args.trace));
    if checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer figures of the traced run (the engine stage reports its
/// own before its databases are dropped; it loaded `engine_rows` rows).
fn report_layers(rep: &mut Report, st: &Stages, plan: &Plan, tr: &Tracer, engine_rows: u64) {
    let mut gen = tr.totals("workload.next_txn");
    let tpcc = tr.totals("workload.tpcc_args");
    gen.0 += tpcc.0;
    gen.1 += tpcc.1;
    rep.layer(
        "gen_us_per_txn",
        gen.1 as f64 / 1e3 / gen.0.max(1) as f64,
        "us",
    );
    let (_, load_ns, _) = tr.totals("storage.load_table");
    // Every set-up repetition loads, and so does recovery's fresh database.
    let rows = SETUP_REPS as u64 * (st.service.rows_loaded + engine_rows) + st.service.rows_loaded;
    rep.layer("load_ns_per_row", load_ns as f64 / rows as f64, "ns");
    // Where the simulator is the nine-scheme stage, its simulated cycles
    // (1 ns each at 1 GHz) are the CC figures.
    st.sim.report_layers(rep, plan.engine.is_none());
    // The WAL lives in the serving stage only, so its logging phase is
    // the one `phase_ns.logging.silo` reports.
    st.service.report_layers(rep, tr);
}
