//! The serving stage: TPC-C (4 warehouses; Payment, NewOrder and a share
//! of OrderStatus) submitted through `TxnService` under SILO with WAL
//! group commit, by one open-loop producer into one service worker. The
//! stage runs a reference-rate window, then a fixed ladder of absolute
//! rates, then flushes the log and times recovery into a fresh database.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use abyss_common::rng::Xoshiro256;
use abyss_common::{AbortReason, CcScheme, Priority, RunStats};
use abyss_core::{
    Database, EngineConfig, ProcId, ProcRegistry, ServeConfig, TicketStatus, TxnService, TxnTicket,
};
use abyss_storage::FsyncPolicy;
use abyss_workload::procs;
use abyss_workload::tpcc::{self, keys, TpccConfig, TpccTable};

use crate::awake::KeepAwake;
use crate::est::{self, Rung};
use crate::report::{Checks, Report};
use crate::trace::Tracer;

const WAREHOUSES: u32 = 4;
/// Share of OrderStatus requests; the rest split evenly between Payment
/// and NewOrder.
const ORDER_STATUS_PCT: f64 = 0.10;
const PAYMENT_PCT: f64 = 0.45;
const REMOTE_PAYMENT_PCT: f64 = 0.15;
const REMOTE_ITEM_PCT: f64 = 0.01;
const USER_ABORT_PCT: f64 = 0.01;

/// Timing of the stage.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Reference rate, requests per second.
    pub reference_rate: f64,
    /// Unrecorded warm-up at the reference rate.
    pub warmup: Duration,
    /// Recorded window at the reference rate.
    pub reference: Duration,
    /// Ascending offered rates of the ladder.
    pub ladder: Vec<f64>,
    /// Ack p99 limit of a passing rung, microseconds.
    pub slo_us: f64,
    /// Requests of the saturation burst that measures the peak rate.
    pub burst: usize,
}

/// Fewest requests in a latency window: the p99 of 1000 acks has ten
/// beyond it.
pub const WINDOW: usize = 1000;
/// Shortest latency window of a ladder rung.
const WINDOW_S: f64 = 0.06;
/// Contiguous windows per ladder rung. A rung is judged by the median of
/// its windows, so one host stall (this class of host stops a vCPU for
/// milliseconds now and then) moves one window rather than the verdict.
pub const RUNG_WINDOWS: usize = 3;

/// Requests per window of a rung at `rate`.
fn rung_window(rate: f64) -> usize {
    WINDOW.max((rate * WINDOW_S).ceil() as usize)
}

impl ServiceSpec {
    /// Requests the stage can submit at most.
    fn planned(&self) -> usize {
        self.count(self.warmup)
            + self.count(self.reference)
            + self
                .ladder
                .iter()
                .map(|&r| RUNG_WINDOWS * rung_window(r))
                .sum::<usize>()
            + self.burst
    }

    /// Requests of a reference-rate window of length `d`.
    fn count(&self, d: Duration) -> usize {
        (self.reference_rate * d.as_secs_f64()).ceil() as usize
    }
}

/// One pre-drawn request.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub args: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Payment,
    NewOrder { lines: u64, user_abort: bool },
    OrderStatus,
}

/// Draw the stage's requests from `seed`: the benchmark's own TPC-C
/// argument draw, encoded with the program's stored-procedure codecs.
pub fn draw_requests(n: usize, seed: u64, tr: &mut Tracer) -> Vec<Req> {
    let mut rng = Xoshiro256::seed_from(seed ^ 0x7F0C_C5E5);
    let w_n = u64::from(WAREHOUSES);
    let other_wh = |rng: &mut Xoshiro256, home: u64| loop {
        let w = rng.next_below(w_n);
        if w != home {
            return w;
        }
    };
    let mut out = Vec::with_capacity(n);
    for seq in 0..n as u64 {
        let req = tr.span("workload.tpcc_args", |_| {
            let w = rng.next_below(w_n);
            let d = rng.next_below(tpcc::DISTRICTS_PER_WH);
            let c = rng.next_below(tpcc::CUSTOMERS_PER_DISTRICT);
            if rng.chance(ORDER_STATUS_PCT) {
                let o_guess = tpcc::FIRST_NEW_ORDER_ID + rng.next_below(64);
                Req {
                    kind: Kind::OrderStatus,
                    args: procs::tpcc_order_status_args(w, d, c, o_guess).to_vec(),
                }
            } else if rng.chance(PAYMENT_PCT / (1.0 - ORDER_STATUS_PCT)) {
                let (cw, cd) = if rng.chance(REMOTE_PAYMENT_PCT) {
                    (
                        other_wh(&mut rng, w),
                        rng.next_below(tpcc::DISTRICTS_PER_WH),
                    )
                } else {
                    (w, d)
                };
                let hkey = keys::history(0, seq);
                Req {
                    kind: Kind::Payment,
                    args: procs::tpcc_payment_args(w, d, cw, cd, c, hkey).to_vec(),
                }
            } else {
                let lines = rng.next_range(5, 15);
                let mut items: Vec<(u64, u64)> = Vec::with_capacity(lines as usize);
                while (items.len() as u64) < lines {
                    let i = rng.next_below(tpcc::ITEMS);
                    if items.iter().any(|&(it, _)| it == i) {
                        continue;
                    }
                    let sw = if rng.chance(REMOTE_ITEM_PCT) {
                        other_wh(&mut rng, w)
                    } else {
                        w
                    };
                    items.push((i, sw));
                }
                let user_abort = rng.chance(USER_ABORT_PCT);
                Req {
                    kind: Kind::NewOrder { lines, user_abort },
                    args: procs::tpcc_new_order_args(w, d, c, &items, user_abort),
                }
            }
        });
        out.push(req);
    }
    out
}

/// Expected effects of the committed requests, counted by the benchmark
/// from the requests it issued and the statuses the client saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub payments: u64,
    pub new_orders: u64,
    pub order_lines: u64,
}

impl Expected {
    /// Fold one resolved request in. Returns whether the status is the one
    /// the request demands: a commit, or the spec's NewOrder rollback for
    /// a request drawn with the user-abort flag.
    pub fn add(&mut self, req: &Req, status: TicketStatus) -> bool {
        match (req.kind, status) {
            (Kind::Payment, TicketStatus::Committed) => self.payments += 1,
            (Kind::NewOrder { lines, user_abort }, TicketStatus::Committed) if !user_abort => {
                self.new_orders += 1;
                self.order_lines += lines;
            }
            (
                Kind::NewOrder {
                    user_abort: true, ..
                },
                TicketStatus::Aborted(AbortReason::UserAbort),
            ) => {}
            (Kind::OrderStatus, TicketStatus::Committed) => {}
            _ => return false,
        }
        true
    }
}

/// A rung from its latencies (submission order) cut into windows of `per`
/// and the backlog at each window's end: the median window.
fn rung(rate: f64, lat: &[u64], per: usize, backlogs: &[u64]) -> Rung {
    let windows: Vec<Rung> = lat
        .chunks_exact(per)
        .zip(backlogs)
        .map(|(w, &outstanding_end)| {
            let mut w = w.to_vec();
            w.sort_unstable();
            Rung {
                rate,
                p99_us: est::percentile(&w, 99.0) as f64 / 1e3,
                outstanding_end,
            }
        })
        .collect();
    est::median_rung(&windows)
}

fn registry() -> ProcRegistry {
    let mut reg = ProcRegistry::new();
    for (name, f) in procs::all() {
        reg.register(name, Box::new(f));
    }
    reg
}

fn tpcc_config(planned: usize) -> TpccConfig {
    // Room for every NewOrder the stage can submit (ORDER, NEW-ORDER and
    // HISTORY are sized by the headroom over the customer count).
    let customers =
        (u64::from(WAREHOUSES) * tpcc::DISTRICTS_PER_WH * tpcc::CUSTOMERS_PER_DISTRICT) as f64;
    TpccConfig {
        warehouses: WAREHOUSES,
        workers: 1,
        insert_headroom: (planned as f64 / customers).max(1.0),
        ..TpccConfig::default()
    }
}

fn engine_config(wal: &Path, breakdown: bool) -> EngineConfig {
    let cfg = EngineConfig::new(CcScheme::Silo, 1).with_logging(wal, FsyncPolicy::Group);
    if breakdown {
        cfg.with_breakdown()
    } else {
        cfg
    }
}

/// Build and load the TPC-C database; returns rows loaded.
fn build_db(
    cfg: &TpccConfig,
    wal: &Path,
    breakdown: bool,
    tr: &mut Tracer,
) -> (Arc<Database>, u64) {
    let db = Database::new(engine_config(wal, breakdown), tpcc::catalog(cfg)).expect("tpcc db");
    let mut rows = 0;
    for t in [
        TpccTable::Warehouse,
        TpccTable::District,
        TpccTable::Customer,
        TpccTable::Item,
        TpccTable::Stock,
    ] {
        let keys = tpcc::initial_keys(cfg)
            .filter(|&(tid, _)| tid == t.id())
            .map(|(_, k)| k);
        rows += tr.span("storage.load_table", |_| {
            db.load_table(t.id(), keys, |s, r, k| tpcc::init_row(t.id(), s, r, k))
                .expect("load TPC-C table")
        });
    }
    (db, rows)
}

pub struct ServiceStage {
    spec: ServiceSpec,
    cfg: TpccConfig,
    wal: PathBuf,
    db: Option<Arc<Database>>,
    reqs: Vec<Req>,
    pub rows_loaded: u64,
    // Results.
    issued: u64,
    wrong_status: u64,
    unresolved: u64,
    expected: Expected,
    ref_lat_ns: Vec<u64>,
    rungs: Vec<Rung>,
    lag_ns: Vec<u64>,
    backlog_max: usize,
    busy: Duration,
    stats: RunStats,
    recover_s: f64,
    peak_per_s: f64,
    replay_bytes: u64,
    live_digest: u64,
    recovered_digest: u64,
    sums: [u64; 4],
    order_lines: u64,
}

impl ServiceStage {
    /// Draw the requests and build the database (set-up).
    pub fn setup(spec: ServiceSpec, seed: u64, wal: PathBuf, tr: &mut Tracer) -> Self {
        let planned = spec.planned();
        let reqs = tr.span("workload.generate", |tr| draw_requests(planned, seed, tr));
        let cfg = tpcc_config(planned);
        let _ = std::fs::remove_dir_all(&wal);
        let (db, rows_loaded) = build_db(&cfg, &wal, tr.enabled(), tr);
        Self {
            spec,
            cfg,
            wal,
            db: Some(db),
            reqs,
            rows_loaded,
            issued: 0,
            wrong_status: 0,
            unresolved: 0,
            expected: Expected::default(),
            ref_lat_ns: Vec::new(),
            rungs: Vec::new(),
            lag_ns: Vec::new(),
            backlog_max: 0,
            busy: Duration::ZERO,
            stats: RunStats::default(),
            recover_s: 0.0,
            peak_per_s: 0.0,
            replay_bytes: 0,
            live_digest: 0,
            recovered_digest: 0,
            sums: [0; 4],
            order_lines: 0,
        }
    }

    /// Serve the reference window and the ladder, check the database,
    /// then time recovery.
    pub fn run(&mut self, tr: &mut Tracer) {
        let db = self.db.take().expect("service database built");
        let svc = TxnService::start(
            Arc::clone(&db),
            registry(),
            ServeConfig {
                // Nothing is shed or refused: overload shows as lateness.
                queue_capacity: 1 << 22,
                shed_depth: 1 << 22,
                shed_ack_p99_ns: 0,
                block_on_full: true,
                high_burst: 8,
                producer_hint: 1,
            },
        );
        let ids: [ProcId; 3] = [
            svc.proc_id(procs::PROC_TPCC_PAYMENT)
                .expect("payment registered"),
            svc.proc_id(procs::PROC_TPCC_NEW_ORDER)
                .expect("new order registered"),
            svc.proc_id(procs::PROC_TPCC_ORDER_STATUS)
                .expect("order status registered"),
        ];
        let awake = KeepAwake::start();
        let began = Instant::now();
        let mut next = 0usize;
        let spec = self.spec.clone();
        let warm = spec.count(spec.warmup);
        tr.span("serve.warmup", |tr| {
            self.window(&svc, &ids, &mut next, spec.reference_rate, warm, warm, tr)
        });
        let n = spec.count(spec.reference);
        let (lat, backlogs) = tr.span("serve.reference", |tr| {
            self.window(&svc, &ids, &mut next, spec.reference_rate, n, WINDOW, tr)
        });
        // The reference windows are the ladder's first rung.
        self.rungs
            .push(rung(spec.reference_rate, &lat, WINDOW, &backlogs));
        self.ref_lat_ns = lat;
        // Every rung runs, so every run logs the same requests and
        // `recover_s` replays a log of one size.
        for &rate in &spec.ladder {
            let per = rung_window(rate);
            let (lat, backlogs) = tr.span("serve.rung", |tr| {
                self.window(&svc, &ids, &mut next, rate, RUNG_WINDOWS * per, per, tr)
            });
            self.rungs.push(rung(rate, &lat, per, &backlogs));
        }
        // Peak rate: a burst submitted back to back keeps the queue from
        // running dry; its completions per second.
        let t = Instant::now();
        let (lat, _) = tr.span("serve.burst", |tr| {
            let n = spec.burst;
            self.window(&svc, &ids, &mut next, f64::INFINITY, n, n, tr)
        });
        self.peak_per_s = lat.len() as f64 / t.elapsed().as_secs_f64();
        drop(awake);
        self.stats = tr.span("core.serve.shutdown", |_| svc.shutdown());
        self.busy = began.elapsed();
        // Checks read the live state after a clean log flush.
        db.log_flush_all();
        let wal = db.wal_stats().expect("logging enabled");
        self.replay_bytes = wal.bytes;
        self.stats.log_fsyncs = wal.fsyncs;
        self.stats.log_bytes = wal.bytes;
        self.sums = [
            db.sum_column(TpccTable::Warehouse.id(), 1),
            db.index_len(TpccTable::Order.id()),
            db.index_len(TpccTable::NewOrder.id()),
            db.sum_column(TpccTable::Stock.id(), 1),
        ];
        self.order_lines = db.index_len(TpccTable::OrderLine.id());
        self.live_digest = db.state_digest();
        drop(db);
        // Replay the run's log into a freshly loaded database.
        let (fresh, _) = tr.span("recovery.load", |tr| {
            build_db(&self.cfg, &self.wal, false, tr)
        });
        let t = Instant::now();
        let report = tr.span("core.recover_from_log", |_| fresh.recover_from_log());
        self.recover_s = t.elapsed().as_secs_f64();
        let report = report.expect("recovery");
        assert!(report.records_applied > 0, "recovery replayed no records");
        self.recovered_digest = fresh.state_digest();
        drop(fresh);
        let _ = std::fs::remove_dir_all(&self.wal);
    }

    /// Submit `n` requests at `rate`, seeing resolutions in between.
    /// Returns their ack latencies (ns, in submission order) and, after
    /// every `chunk` submissions, the requests still outstanding. Every
    /// request is resolved before it returns.
    #[allow(clippy::too_many_arguments)]
    fn window(
        &mut self,
        svc: &TxnService,
        ids: &[ProcId; 3],
        next: &mut usize,
        rate: f64,
        n: usize,
        chunk: usize,
        tr: &mut Tracer,
    ) -> (Vec<u64>, Vec<u64>) {
        let n = n.min(self.reqs.len() - *next);
        let mut backlogs = Vec::with_capacity(n / chunk + 1);
        let mut pending: VecDeque<(usize, Instant, TxnTicket)> = VecDeque::with_capacity(n);
        let mut lat = Vec::with_capacity(n);
        let start = Instant::now();
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let mut sent = 0;
        // Resolve the head of the FIFO (one worker serves requests in
        // submission order), waiting on its ticket at most until `until`.
        let settle = |pending: &mut VecDeque<(usize, Instant, TxnTicket)>,
                      lat: &mut Vec<u64>,
                      this: &mut Self,
                      until: Instant| {
            let Some((_, _, t)) = pending.front() else {
                return false;
            };
            let wait = until.saturating_duration_since(Instant::now());
            let Some(status) = t.wait_timeout(wait) else {
                return false;
            };
            let seen = Instant::now();
            let (i, sched, _) = pending.pop_front().expect("front exists");
            lat.push(seen.saturating_duration_since(sched).as_nanos() as u64);
            if !this.expected.add(&this.reqs[i], status) {
                this.wrong_status += 1;
            }
            true
        };
        while sent < n {
            let sched = due(sent);
            if Instant::now() < sched {
                // Between sends the producer blocks on the oldest ticket,
                // so it sees resolutions as they happen without spinning
                // a core the worker and the WAL threads need.
                if !settle(&mut pending, &mut lat, self, sched) && pending.is_empty() {
                    std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                }
                continue;
            }
            let i = *next + sent;
            let req = &self.reqs[i];
            let id = match req.kind {
                Kind::Payment => ids[0],
                Kind::NewOrder { .. } => ids[1],
                Kind::OrderStatus => ids[2],
            };
            let t0 = Instant::now();
            let ticket = svc.submit_id(id, &req.args, Priority::Low);
            tr.record("core.serve.submit_id", t0, Instant::now());
            self.lag_ns
                .push(t0.saturating_duration_since(sched).as_nanos() as u64);
            match ticket {
                Ok(t) => pending.push_back((i, sched, t)),
                Err(_) => self.wrong_status += 1,
            }
            sent += 1;
            self.issued += 1;
            if sent % chunk == 0 {
                backlogs.push(pending.len() as u64);
            }
            if sent % 64 == 0 {
                self.backlog_max = self.backlog_max.max(svc.queue_depth());
            }
        }
        *next += n;
        let drain_deadline = Instant::now() + Duration::from_secs(30);
        while !pending.is_empty() && Instant::now() < drain_deadline {
            settle(&mut pending, &mut lat, self, drain_deadline);
        }
        self.unresolved += pending.len() as u64;
        (lat, backlogs)
    }

    pub fn issued(&self) -> u64 {
        self.issued
    }

    pub fn failed(&self) -> u64 {
        self.wrong_status + self.unresolved
    }

    /// Latency against the SLO is a figure (`max_rate_at_slo`), not a
    /// check: a host stall of a few milliseconds can push even the
    /// reference windows past it.
    pub fn check(&self, checks: &mut Checks) {
        checks.expect(
            "serve.every_ticket_resolves",
            self.unresolved == 0,
            format!("{} tickets unresolved", self.unresolved),
        );
        checks.expect(
            "serve.statuses_as_demanded",
            self.wrong_status == 0,
            format!(
                "{} requests refused or resolved otherwise than drawn",
                self.wrong_status
            ),
        );
        let e = &self.expected;
        checks.expect(
            "serve.w_ytd_equals_payments",
            self.sums[0] == e.payments,
            format!(
                "sum W_YTD {} vs {} committed Payments",
                self.sums[0], e.payments
            ),
        );
        checks.expect(
            "serve.orders_equal_new_orders",
            self.sums[1] == e.new_orders && self.sums[2] == e.new_orders,
            format!(
                "ORDER {} / NEW-ORDER {} rows vs {} committed NewOrders",
                self.sums[1], self.sums[2], e.new_orders
            ),
        );
        checks.expect(
            "serve.stock_bumps_equal_order_lines",
            self.sums[3] == e.order_lines && self.order_lines == e.order_lines,
            format!(
                "stock bumps {} / ORDER-LINE rows {} vs {} order lines",
                self.sums[3], self.order_lines, e.order_lines
            ),
        );
        checks.expect(
            "serve.recovered_digest_matches",
            self.live_digest == self.recovered_digest,
            format!(
                "live {:#x} recovered {:#x}",
                self.live_digest, self.recovered_digest
            ),
        );
        checks.expect(
            "serve.reference_has_p99",
            self.ref_lat_ns.len() >= WINDOW,
            format!("{} reference samples", self.ref_lat_ns.len()),
        );
    }

    /// Percentile `p` of each of the reference window's 1,000-ack windows,
    /// in ns.
    fn window_percentiles(&self, p: f64) -> Vec<f64> {
        self.ref_lat_ns
            .chunks_exact(WINDOW)
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_unstable();
                est::percentile(&w, p) as f64
            })
            .collect()
    }

    /// `ack_p99_us`: the median of the reference windows' p99s.
    fn ack_p99_ns(&self) -> f64 {
        est::median(&self.window_percentiles(99.0))
    }

    /// `ack_p50_us`: the median of the reference windows' p50s, so that a
    /// spell of host stalls moves the windows it falls in rather than the
    /// figure.
    fn ack_p50_ns(&self) -> f64 {
        est::median(&self.window_percentiles(50.0))
    }

    fn sorted_ref(&self) -> Vec<u64> {
        let mut v = self.ref_lat_ns.clone();
        v.sort_unstable();
        v
    }

    pub fn report_end_to_end(&self, rep: &mut Report) {
        rep.e2e("recover_s", self.recover_s, "s");
    }

    /// Facts for the human-readable summary on stderr.
    pub fn summary(&self) -> String {
        let sorted = self.sorted_ref();
        let n = sorted.len();
        let tail = est::tail_percentile(n).unwrap_or(50.0);
        let q: Vec<u64> = [50.0, 90.0, 99.0, tail, 100.0]
            .iter()
            .map(|&p| est::percentile(&sorted, p) / 1000)
            .collect();
        let p50s: Vec<u64> = self
            .window_percentiles(50.0)
            .iter()
            .map(|&ns| ns as u64 / 1000)
            .collect();
        format!(
            "service: {n} reference acks, us at p50/p90/p99/p{tail}/max {q:?}; window p50s {p50s:?} us; median window p99 {:.0} us; peak {:.0}/s; ladder (rate, p99 us, backlog) {:?}",
            self.ack_p99_ns() / 1e3,
            self.peak_per_s,
            self.rungs
                .iter()
                .map(|r| (r.rate as u64, r.p99_us as u64, r.outstanding_end))
                .collect::<Vec<_>>()
        )
    }

    pub fn report_layers(&self, rep: &mut Report, tr: &Tracer) {
        rep.layer("ack_p50_us", self.ack_p50_ns() / 1e3, "us");
        rep.layer("ack_p99_us", self.ack_p99_ns() / 1e3, "us");
        rep.layer("peak_per_s", self.peak_per_s, "1/s");
        rep.layer(
            "max_rate_at_slo",
            est::max_rate_at_slo(&self.rungs, self.spec.slo_us).unwrap_or(0.0),
            "1/s",
        );
        let (n, total, _) = tr.totals("core.serve.submit_id");
        rep.layer("submit_ns", total as f64 / n.max(1) as f64, "ns");
        rep.layer(
            "queue_to_ack_us",
            self.stats.queue_ack_latency[Priority::Low.idx()].p50() as f64 / 1e3,
            "us",
        );
        rep.layer("backlog_max", self.backlog_max as f64, "count");
        let mut lag = self.lag_ns.clone();
        lag.sort_unstable();
        rep.layer(
            "producer_lag_us",
            if lag.is_empty() {
                0.0
            } else {
                est::percentile(&lag, 99.0) as f64 / 1e3
            },
            "us",
        );
        let commits = self.stats.commits.max(1) as f64;
        rep.layer(
            "wal_bytes_per_commit",
            self.stats.log_bytes as f64 / commits,
            "B",
        );
        rep.layer(
            "wal_fsyncs_per_s",
            self.stats.log_fsyncs as f64 / self.busy.as_secs_f64(),
            "1/s",
        );
        rep.layer(
            "phase_ns.logging.silo",
            self.stats.phase_ns.get(abyss_common::Phase::Logging) as f64 / commits,
            "ns",
        );
        rep.layer(
            "replay_mb_per_s",
            self.replay_bytes as f64 / 1e6 / self.recover_s,
            "MB/s",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_follow_statuses() {
        let mut tr = Tracer::new(false);
        let reqs = draw_requests(2000, 7, &mut tr);
        let mut e = Expected::default();
        let mut lines = 0;
        let mut orders = 0;
        for r in &reqs {
            let status = match r.kind {
                Kind::NewOrder {
                    user_abort: true, ..
                } => TicketStatus::Aborted(AbortReason::UserAbort),
                _ => TicketStatus::Committed,
            };
            if let Kind::NewOrder {
                lines: l,
                user_abort: false,
            } = r.kind
            {
                lines += l;
                orders += 1;
            }
            assert!(e.add(r, status));
        }
        assert_eq!(e.new_orders, orders);
        assert_eq!(e.order_lines, lines);
        let pays = reqs.iter().filter(|r| r.kind == Kind::Payment).count() as u64;
        assert_eq!(e.payments, pays);
        // The mix is roughly as configured.
        assert!((800..1000).contains(&pays), "{pays} payments of 2000");
        // A user-abort NewOrder that commits, or any failure, is wrong.
        let abort_req = Req {
            kind: Kind::NewOrder {
                lines: 5,
                user_abort: true,
            },
            args: Vec::new(),
        };
        assert!(!e.add(&abort_req, TicketStatus::Committed));
        assert!(!e.add(&reqs[0], TicketStatus::Failed));
    }

    #[test]
    fn requests_are_a_function_of_the_seed() {
        let mut tr = Tracer::new(false);
        let a = draw_requests(300, 11, &mut tr);
        let b = draw_requests(300, 11, &mut tr);
        let c = draw_requests(300, 12, &mut tr);
        assert!(a.iter().zip(&b).all(|(x, y)| x.args == y.args));
        assert!(a.iter().zip(&c).any(|(x, y)| x.args != y.args));
    }
}
