//! The benchmark suites behind `BENCH_1.json`: the same workloads the old
//! criterion benches measured, expressed against [`crate::timing::Timer`].
//!
//! Each suite function is callable from both the `cargo bench` wrappers in
//! `benches/` and the `experiments` binary, so one entry point regenerates
//! every recorded number.

use crate::timing::{Sample, Timer};
use srtw_core::{
    busy_window, fifo_analysis, rtc_delay, structural_delay, structural_delay_with, AnalysisConfig,
    Budget,
};
use srtw_gen::{
    adversarial_dense, generate_drt, generate_task_set, rescale_utilization, DrtGenConfig,
};
use srtw_minplus::{q, BudgetMeter, Curve, Q};
use srtw_resource::{Server, TdmaServer};
use srtw_sim::{earliest_random_walk, simulate_fifo, ServiceProcess};
use srtw_workload::{explore, ExploreConfig, Rbf};
use std::hint::black_box;

fn gen_cfg(n: usize) -> DrtGenConfig {
    DrtGenConfig {
        vertices: n,
        extra_edges: n,
        separation_range: (5, 40),
        wcet_range: (1, 9),
        target_utilization: Some(q(3, 5)),
        deadline_factor: None,
    }
}

/// B1 — (min,+) operator micro-benchmarks: convolution, deconvolution,
/// deviations, and pointwise ops on representative curve pairs.
pub fn convolution_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    for &h in &[20i128, 50, 100, 200] {
        let a = Curve::staircase(Q::int(4), Q::int(3));
        let b = Curve::rate_latency(q(3, 4), Q::int(5));
        out.push(t.bench("convolution", format!("conv_upto/{h}"), || {
            black_box(a.conv_upto(&b, Q::int(h)));
        }));
    }
    for &h in &[10i128, 20, 40] {
        let a = Curve::staircase(Q::int(5), Q::int(2));
        let b = Curve::rate_latency(Q::ONE, Q::int(3));
        out.push(t.bench("convolution", format!("deconv/{h}"), || {
            black_box(a.deconv(&b, Q::int(h)).unwrap());
        }));
    }
    {
        let alpha = Curve::staircase(Q::int(7), Q::int(3));
        let beta = Curve::rate_latency(q(2, 3), Q::int(4));
        out.push(t.bench("convolution", "hdev_staircase_vs_rate_latency", || {
            black_box(alpha.hdev(&beta));
        }));
    }
    {
        let a = Curve::staircase(Q::int(4), Q::int(3));
        let b = Curve::staircase(Q::int(6), Q::int(2));
        out.push(t.bench("convolution", "pointwise_min_periodic_pair", || {
            black_box(a.pointwise_min(&b));
        }));
        let beta = Curve::rate_latency(Q::int(2), Q::int(3));
        out.push(t.bench("convolution", "sub_clamped_monotone_leftover", || {
            black_box(beta.sub_clamped_monotone(&a));
        }));
    }
    out
}

/// B2 — request-bound-function computation across graph sizes and
/// horizons (the dominance-pruned path exploration).
pub fn rbf_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    // BENCH_2..BENCH_4 recorded rbf_by_graph_size/5 *slower* than /10
    // (≈324µs vs ≈239µs in BENCH_2, still ≈279µs vs ≈219µs in BENCH_4).
    // B6-style, run *every* measured configuration once untimed before
    // the sweep so no size pays the process cold start (lazy page
    // faults, allocator arena growth, branch predictor). BENCH_5 shows
    // the warmed gap that remains (≈270µs vs ≈215µs) is instance
    // hardness, not measurement: with the same separation range, the
    // seed-42 5-vertex graph's short cycles wrap horizon 200 many more
    // times than the 10-vertex graph's, so its path enumeration is
    // genuinely deeper.
    for &n in &[5usize, 10, 20, 40] {
        let task = generate_drt(&gen_cfg(n), 42);
        black_box(Rbf::compute(&task, Q::int(200)));
    }
    for &n in &[5usize, 10, 20, 40] {
        let task = generate_drt(&gen_cfg(n), 42);
        out.push(t.bench("rbf", format!("rbf_by_graph_size/{n}"), || {
            black_box(Rbf::compute(&task, Q::int(200)));
        }));
    }
    let task = generate_drt(&gen_cfg(10), 7);
    for &h in &[100i128, 300, 1000] {
        black_box(Rbf::compute(&task, Q::int(h)));
    }
    for &h in &[100i128, 300, 1000] {
        out.push(t.bench("rbf", format!("rbf_by_horizon/{h}"), || {
            black_box(Rbf::compute(&task, Q::int(h)));
        }));
    }
    out
}

/// B3 — the structural delay analysis end to end: scaling with graph size
/// and the effect of dominance pruning (the ablation measures), plus the
/// bare path exploration at the busy-window bound.
pub fn structural_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    let beta = Curve::rate_latency(q(4, 5), Q::int(4));
    // Same cold-start treatment as the rbf suite: warm every measured
    // configuration once before the timed sweep.
    for &n in &[5usize, 10, 20, 40] {
        let task = generate_drt(&gen_cfg(n), 11);
        black_box(structural_delay(&task, &beta).unwrap());
    }
    for &n in &[5usize, 10, 20, 40] {
        let task = generate_drt(&gen_cfg(n), 11);
        out.push(t.bench("structural", format!("structural_scaling/{n}"), || {
            black_box(structural_delay(&task, &beta).unwrap());
        }));
    }
    // The one exploration a structural analysis runs per stream, alone:
    // the 40-vertex graph at its busy-window bound (450 retained nodes).
    let task = generate_drt(&gen_cfg(40), 11);
    let bound = busy_window(std::slice::from_ref(&task), &beta)
        .unwrap()
        .bound;
    let cfg = ExploreConfig::new(bound);
    black_box(explore(&task, &cfg));
    out.push(t.bench("structural", "explore_at_bound/40", || {
        black_box(explore(&task, &cfg));
    }));
    let task = generate_drt(&gen_cfg(6), 3);
    out.push(t.bench("structural", "structural_pruned", || {
        black_box(structural_delay(&task, &beta).unwrap());
    }));
    let cfg = AnalysisConfig {
        no_prune: true,
        ..Default::default()
    };
    out.push(t.bench("structural", "structural_no_prune", || {
        black_box(structural_delay_with(&task, &beta, &cfg).unwrap());
    }));
    out.push(t.bench("structural", "rtc_baseline", || {
        black_box(rtc_delay(&task, &beta).unwrap());
    }));
    // Three 40-vertex streams on TDMA: the interference lookups and the
    // periodic-tail inverse of the per-node loop, which the one-stream
    // rate-latency rows above never reach.
    let tasks = generate_task_set(&gen_cfg(40), 3, q(3, 4), 7);
    let tdma = TdmaServer::new(Q::int(18), Q::int(20), Q::ONE)
        .unwrap()
        .beta_lower();
    let cfg = AnalysisConfig::default();
    black_box(fifo_analysis(&tasks, &tdma, &cfg).unwrap());
    out.push(t.bench("structural", "fifo_3x40_tdma", || {
        black_box(fifo_analysis(&tasks, &tdma, &cfg).unwrap());
    }));
    out
}

/// B4 — simulator throughput: jobs per second on fluid and TDMA service
/// processes.
pub fn simulation_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    let task = generate_drt(&gen_cfg(8), 9);
    for &h in &[200i128, 1000, 4000] {
        let trace = earliest_random_walk(&task, Q::int(h), None, 5);
        let fluid = ServiceProcess::fluid(q(4, 5));
        out.push(t.bench("simulation", format!("simulate_fifo/fluid/{h}"), || {
            black_box(simulate_fifo(
                std::slice::from_ref(&task),
                std::slice::from_ref(&trace),
                &fluid,
            ));
        }));
        let tdma = ServiceProcess::tdma(Q::int(4), Q::int(5), Q::ONE, Q::ONE);
        out.push(t.bench("simulation", format!("simulate_fifo/tdma/{h}"), || {
            black_box(simulate_fifo(
                std::slice::from_ref(&task),
                std::slice::from_ref(&trace),
                &tdma,
            ));
        }));
    }
    out
}

/// B5 — budgeted analysis: cooperative-metering overhead on runs that
/// never trip (the whole budget machinery must cost only a few percent
/// over the unmetered engine) and the cost of graceful degradation once
/// a path cap does trip.
pub fn budgeted_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    let beta = Curve::rate_latency(q(4, 5), Q::int(4));
    for &n in &[10usize, 20] {
        let task = generate_drt(&gen_cfg(n), 11);
        out.push(t.bench("budgeted_structural", format!("unmetered/{n}"), || {
            black_box(structural_delay(&task, &beta).unwrap());
        }));
        // Full metering — wall clock plus both counters — with enough
        // headroom that nothing ever trips: pure metering overhead.
        let cfg = AnalysisConfig {
            budget: Budget::wall_ms(3_600_000)
                .with_max_paths(u64::MAX / 2)
                .with_max_segments(u64::MAX / 2),
            ..Default::default()
        };
        out.push(t.bench("budgeted_structural", format!("metered_headroom/{n}"), || {
            black_box(structural_delay_with(&task, &beta, &cfg).unwrap());
        }));
    }
    // Degradation cost: a dense adversarial graph at utilization 1/2 on a
    // rate-2 server, with a path cap that trips immediately vs late.
    let adv = rescale_utilization(&adversarial_dense(6, 5), q(1, 2));
    let beta2 = Curve::rate_latency(Q::int(2), Q::int(2));
    for &cap in &[4u64, 64] {
        let cfg = AnalysisConfig {
            budget: Budget::default().with_max_paths(cap),
            ..Default::default()
        };
        out.push(t.bench("budgeted_structural", format!("degraded_cap/{cap}"), || {
            black_box(structural_delay_with(&adv, &beta2, &cfg).unwrap());
        }));
    }
    out
}

/// A concave polyline with `k` pieces: the lower envelope of `k` affine
/// token buckets with strictly decreasing rates (tangents of a concave
/// arrival envelope), breakpoints every `spacing` time units.
fn concave_polyline(k: i128, spacing: i128) -> Curve {
    let mut c = Curve::affine(Q::ZERO, Q::int(k));
    for i in 1..k {
        let line = Curve::affine(Q::int(spacing * i * (i + 1) / 2), Q::int(k - i));
        c = c.pointwise_min(&line);
    }
    c
}

/// A convex polyline with `k` pieces: the upper envelope of `k`
/// rate-latency curves with strictly increasing rates.
fn convex_polyline(k: i128, spacing: i128) -> Curve {
    let mut c = Curve::rate_latency(Q::ONE, Q::ZERO);
    for i in 1..k {
        let line = Curve::rate_latency(Q::int(i + 1), Q::int(spacing * i));
        c = c.pointwise_max(&line);
    }
    c
}

/// B6 — the shaped-convolution fast paths against the general kernel.
///
/// Before timing anything the suite **asserts** that the fast convolution
/// kernels agree with the general quadratic kernel — the speedups below
/// are only meaningful for identical results. The group keeps its
/// historical `parallel_structural` key (it once also timed a sharded
/// exploration engine, since removed) so committed BENCH files still
/// pair row for row.
pub fn parallel_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();

    // Shaped-convolution fast paths against the general quadratic kernel
    // on 40-piece polylines over [0, 200]. `conv_upto` dispatches on the
    // cached shape; `conv_upto_general` forces the old kernel.
    let h = Q::int(200);
    let (ca, cb) = (concave_polyline(40, 5), concave_polyline(40, 7));
    assert_eq!(
        ca.conv_upto(&cb, h),
        ca.conv_upto_general(&cb, h),
        "concave fast path diverged from the general kernel"
    );
    out.push(t.bench("parallel_structural", "conv_concave/fast/200", || {
        black_box(ca.conv_upto(&cb, h));
    }));
    out.push(t.bench("parallel_structural", "conv_concave/general/200", || {
        black_box(ca.conv_upto_general(&cb, h));
    }));
    let (va, vb) = (convex_polyline(40, 3), convex_polyline(40, 4));
    assert_eq!(
        va.conv_upto(&vb, h),
        va.conv_upto_general(&vb, h),
        "convex fast path diverged from the general kernel"
    );
    out.push(t.bench("parallel_structural", "conv_convex/fast/200", || {
        black_box(va.conv_upto(&vb, h));
    }));
    out.push(t.bench("parallel_structural", "conv_convex/general/200", || {
        black_box(va.conv_upto_general(&vb, h));
    }));
    out
}

/// B7 — service-mode throughput: full TCP round-trips against an
/// in-process `srtw serve` instance, measuring the service-layer overhead
/// (request parse, admission, supervised worker, response) on top of the
/// bare analysis B3 measures. `batch_roundtrip/4_jobs` streams a
/// journaled `POST /batch` of four copies of the same system; each
/// iteration's manifest opens with a distinct comment line, so it gets a
/// journal of its own and runs all four jobs fresh (fsync'd records
/// included) instead of replaying.
pub fn server_throughput_suite(t: &Timer) -> Vec<Sample> {
    use srtw_serve::http::client_roundtrip;
    use srtw_serve::{ServeConfig, Server};
    use std::sync::atomic::{AtomicU64, Ordering};

    const SYSTEM: &str = "task dec\nvertex i wcet=4 deadline=30\nvertex p wcet=2\n\
                          edge i p sep=9\nedge p i sep=9\n\
                          task tel\nvertex t wcet=1\nedge t t sep=11\n\
                          server rate-latency rate=1 latency=2\n";

    let dir = std::env::temp_dir().join(format!("srtw-bench-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the batch bench directory");
    let manifest: String = (0..4)
        .map(|i| {
            let path = dir.join(format!("job-{i}.srtw"));
            std::fs::write(&path, SYSTEM).expect("write a batch bench system");
            format!("{}\n", path.display())
        })
        .collect();
    let server = Server::spawn(ServeConfig {
        workers: 2,
        journal: Some(dir.join("batch.journal").display().to_string()),
        ..Default::default()
    })
    .expect("bind an ephemeral port for the throughput bench");
    let addr = server.addr();
    let (status, _, body) =
        client_roundtrip(&addr, "POST", "/analyze", &[], SYSTEM.as_bytes()).unwrap();
    assert_eq!(status, 200, "bench system must analyze cleanly: {body}");
    assert!(body.starts_with("{\"scheduler\":\"fifo\""), "{body}");

    let mut out = Vec::new();
    out.push(t.bench("server_throughput", "healthz_roundtrip", || {
        let (status, _, _) = client_roundtrip(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(status, 200);
    }));
    out.push(t.bench("server_throughput", "analyze_roundtrip/two_streams", || {
        let (status, _, body) =
            client_roundtrip(&addr, "POST", "/analyze", &[], SYSTEM.as_bytes()).unwrap();
        assert_eq!(status, 200);
        black_box(body);
    }));
    out.push(t.bench("server_throughput", "analyze_rejected/parse_400", || {
        let (status, _, _) = client_roundtrip(&addr, "POST", "/analyze", &[], b"task\n").unwrap();
        assert_eq!(status, 400);
    }));
    let seq = AtomicU64::new(0);
    out.push(t.bench("server_throughput", "batch_roundtrip/4_jobs", || {
        let body = format!("# {}\n{manifest}", seq.fetch_add(1, Ordering::Relaxed));
        let (status, _, body) =
            client_roundtrip(&addr, "POST", "/batch", &[], body.as_bytes()).unwrap();
        assert_eq!(status, 200);
        assert!(body.ends_with("\"replayed\":0}}\n"), "{body}");
        black_box(body);
    }));
    let report = server.shutdown();
    assert!(report.clean(), "bench server failed to drain: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// B9 — connection scaling: what one request costs as the connection
/// strategy and the acceptor's standing load change. `fresh_conn` pays
/// the full connect + TLS-free handshake + lingering close per request;
/// `keep_alive` cycles one connection through the mux between requests;
/// `with_64_idle_conns` measures the readiness scan's overhead when the
/// acceptor is also babysitting 64 parked keep-alive connections.
pub fn server_connections_suite(t: &Timer) -> Vec<Sample> {
    use srtw_serve::http::client_roundtrip;
    use srtw_serve::{ServeConfig, Server};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// A keep-alive HTTP client that transparently reconnects when the
    /// server retires the connection (requests-per-connection cap).
    struct KeepAlive {
        addr: SocketAddr,
        conn: Option<(TcpStream, BufReader<TcpStream>)>,
    }

    impl KeepAlive {
        fn roundtrip(&mut self) -> u16 {
            for _ in 0..2 {
                if self.conn.is_none() {
                    let stream = TcpStream::connect(self.addr).expect("connect");
                    let reader = BufReader::new(stream.try_clone().expect("clone"));
                    self.conn = Some((stream, reader));
                }
                match self.try_once() {
                    Some(status) => return status,
                    None => self.conn = None, // retired by the server: reconnect
                }
            }
            panic!("keep-alive roundtrip failed twice in a row");
        }

        fn try_once(&mut self) -> Option<u16> {
            let (writer, reader) = self.conn.as_mut()?;
            writer
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
                .ok()?;
            let mut line = String::new();
            reader.read_line(&mut line).ok()?;
            let status: u16 = line.strip_prefix("HTTP/1.1 ")?.split(' ').next()?.parse().ok()?;
            let mut len = 0usize;
            loop {
                let mut header = String::new();
                reader.read_line(&mut header).ok()?;
                if header == "\r\n" {
                    break;
                }
                if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().ok()?;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).ok()?;
            Some(status)
        }
    }

    let server = Server::spawn(ServeConfig {
        workers: 2,
        // Long idle windows so the parked connections below survive the
        // whole measurement instead of being reaped mid-sample.
        header_timeout: std::time::Duration::from_secs(120),
        read_timeout: std::time::Duration::from_secs(120),
        ..Default::default()
    })
    .expect("bind an ephemeral port for the connection bench");
    let addr = server.addr();

    let mut out = Vec::new();
    out.push(t.bench("server_connections", "healthz/fresh_conn", || {
        let (status, _, _) = client_roundtrip(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(status, 200);
    }));

    let mut client = KeepAlive { addr, conn: None };
    out.push(t.bench("server_connections", "healthz/keep_alive", || {
        assert_eq!(client.roundtrip(), 200);
    }));
    drop(client);

    // Park 64 keep-alive connections on the mux (one served request each
    // so they sit in the idle state), then measure a busy client again.
    let parked: Vec<KeepAlive> = (0..64)
        .map(|_| {
            let mut c = KeepAlive { addr, conn: None };
            assert_eq!(c.roundtrip(), 200);
            c
        })
        .collect();
    let mut client = KeepAlive { addr, conn: None };
    out.push(t.bench("server_connections", "healthz/with_64_idle_conns", || {
        assert_eq!(client.roundtrip(), 200);
    }));
    drop(client);
    drop(parked);

    let report = server.shutdown();
    assert!(report.clean(), "bench server failed to drain: {report:?}");
    out
}

/// B8 — materializing (min,+) compositions: conv → conv → min → hdev,
/// and a four-hop tandem concatenation. The group and row names are kept
/// from when each row had a fused twin, so the gate still pairs new
/// documents with BENCH_5…BENCH_9.
pub fn fused_pipeline_suite(t: &Timer) -> Vec<Sample> {
    let mut out = Vec::new();
    let h = Q::int(200);
    // Same leading pair as B1's conv_upto/200 so the numbers tie back to
    // the gated convolution suite.
    let a = Curve::staircase(Q::int(4), Q::int(3));
    let b = Curve::rate_latency(q(3, 4), Q::int(5));
    let b2 = Curve::rate_latency(Q::int(3), Q::int(2));
    let c = Curve::staircase(Q::int(5), Q::int(4)).shift_up(Q::int(2));
    let demand = Curve::staircase(Q::int(6), Q::int(2));
    let meter = BudgetMeter::unlimited();
    out.push(t.bench("fused_pipeline", "conv_min_hdev/materializing/200", || {
        let c1 = a.try_conv_upto(&b, h, &meter).unwrap();
        let c2 = c1.try_conv_upto(&b2, h, &meter).unwrap();
        let min = c2.try_pointwise_min(&c, &meter).unwrap();
        black_box(demand.try_hdev(&min, &meter).unwrap());
    }));

    let hops = [
        Curve::rate_latency(Q::int(2), Q::int(3)),
        Curve::rate_latency(q(5, 2), Q::int(2)),
        Curve::rate_latency(Q::int(3), Q::int(4)),
        Curve::rate_latency(Q::int(4), Q::ONE),
    ];
    out.push(t.bench("fused_pipeline", "concatenate_4hops/materializing/200", || {
        let mut cur = hops[0].clone();
        for hop in &hops[1..] {
            cur = cur.try_conv_upto(hop, h, &meter).unwrap();
        }
        black_box(cur);
    }));
    out
}

/// B10 — journal durability overhead: what crash-recoverability costs.
///
/// `append_fsync` is the per-record price a journaled batch pays on the
/// worker thread that finished the job (frame + one `write` + one
/// `sync_data`); the `run_batch` pair puts that price in context against
/// real supervised analyses; `recover` is the resume-time cost of
/// scanning and CRC-checking a populated journal.
pub fn journal_overhead_suite(t: &Timer) -> Vec<Sample> {
    use srtw_supervisor::journal::{recover, JournalRecord, JournalWriter};
    use srtw_supervisor::{run_batch, run_batch_observed, BatchConfig, JobSpec, JobStatus};
    use std::sync::Mutex;

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_for = |tag: &str| dir.join(format!("srtw-bench-journal-{tag}-{pid}.wal"));
    let record = JournalRecord {
        position: 0,
        input: 0,
        name: "bench-job".into(),
        status: JobStatus::Exact,
        rung: Some("exact".into()),
        attempts: 1,
        wall_bits: 0.0123f64.to_bits(),
        error: None,
        json: "{\"system\":\"bench-job\",\"status\":\"exact\",\"delay_bound\":\"41\",\
               \"per_task\":[{\"task\":\"t0\",\"delay\":\"41\"},{\"task\":\"t1\",\"delay\":\"17\"}]}"
            .into(),
    };

    let mut out = Vec::new();

    let append_path = path_for("append");
    let mut writer = JournalWriter::create(&append_path, 0xB10).expect("create bench journal");
    out.push(t.bench("journal_overhead", "append_fsync/record", || {
        writer.append(&record).expect("bench append");
    }));
    drop(writer);
    let _ = std::fs::remove_file(&append_path);

    let recover_path = path_for("recover");
    let mut writer = JournalWriter::create(&recover_path, 0xB10).expect("create bench journal");
    for i in 0..200 {
        let mut r = record.clone();
        r.position = i;
        r.name = format!("bench-job-{i}");
        writer.append(&r).expect("prefill bench journal");
    }
    drop(writer);
    out.push(t.bench("journal_overhead", "recover/200_records", || {
        let rec = recover(&recover_path).expect("recover bench journal");
        assert_eq!(rec.records.len(), 200);
        black_box(rec);
    }));
    let _ = std::fs::remove_file(&recover_path);

    // The same 8 small systems through the supervised batch pool, bare vs
    // journaled: the delta is the whole durability tax in context.
    let beta = Curve::rate_latency(q(4, 5), Q::int(4));
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            JobSpec::new(
                format!("job-{i}"),
                vec![generate_drt(&gen_cfg(8), 100 + i)],
                beta.clone(),
            )
        })
        .collect();
    let cfg = BatchConfig::default();
    out.push(t.bench("journal_overhead", "run_batch/unjournaled/8_jobs", || {
        let outcomes = run_batch(specs.clone(), &cfg);
        assert_eq!(outcomes.len(), 8);
        black_box(outcomes);
    }));
    let batch_path = path_for("batch");
    out.push(t.bench("journal_overhead", "run_batch/journaled/8_jobs", || {
        let writer = JournalWriter::create(&batch_path, 0xB10).expect("create bench journal");
        let sink = Mutex::new(writer);
        let outcomes = run_batch_observed(specs.clone(), &cfg, &|_, outcome| {
            let rec = JournalRecord::from_outcome(outcome);
            sink.lock().unwrap().append(&rec).expect("bench append");
        });
        assert_eq!(outcomes.len(), 8);
        black_box(outcomes);
    }));
    let _ = std::fs::remove_file(&batch_path);
    out
}

/// A scaled-down `systems/adversarial.srtw`: heavy and light job
/// types near demand density 1, fully connected, with pairwise
/// distinct fractional separations so dominance pruning retains
/// nearly every abstract path — but over a busy window shallow
/// enough that exact exploration terminates in tens of milliseconds
/// instead of never. `bump` perturbs one WCET numerator, giving each
/// cold request a distinct cache key.
fn adversarial_class(bump: u64) -> String {
    const DEN: u64 = 10_007;
    let names = ["h0", "h1", "h2", "l3", "l4"];
    let base = |n: &str| if n.starts_with('h') { 8 } else { 5 };
    let mut text = String::from("task dense\n");
    for (i, n) in names.iter().enumerate() {
        let mut num = base(n) * DEN + 56 + 7 * i as u64;
        if i == 0 {
            num += bump;
        }
        text.push_str(&format!("vertex {n} wcet={num}/{DEN}\n"));
    }
    let mut k = 0u64;
    for from in names {
        for to in names {
            if from == to {
                continue;
            }
            let num = base(from) * DEN + 69 + 13 * k;
            k += 1;
            text.push_str(&format!("edge {from} {to} sep={num}/{DEN}\n"));
        }
    }
    text.push_str("server rate-latency rate=2 latency=40\n");
    text
}

/// How much faster than the cold path B11 and B12 require a cache hit to
/// answer. A hit that re-analyses answers at about the cold speed (1×),
/// so any ratio well above 1 catches one; a real hit measures 125–290×
/// under `SRTW_BENCH_FAST=1` in the debug profile on a 2-vCPU VM, so 10×
/// leaves more than a decade of margin for a loaded machine and for a
/// cold path that keeps getting faster.
const HIT_SPEEDUP: f64 = 10.0;

/// B11 — cache saturation: the content-addressed result cache under
/// concurrency past the worker count, at one and two shared-nothing
/// replicas. `cold` measurements mutate one WCET numerator per request so
/// every request misses and pays the full busy-window exploration; `warm`
/// measurements repeat one body verbatim so every request replays cached
/// bytes. The suite also asserts that a warm repeat of an
/// adversarial-class system answers at least `HIT_SPEEDUP`× faster
/// than the cold path.
pub fn cache_saturation_suite(t: &Timer) -> Vec<Sample> {
    use srtw_serve::http::client_roundtrip;
    use srtw_serve::{ServeConfig, Server};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn post(addr: &SocketAddr, body: &str) {
        let (status, _, resp) =
            client_roundtrip(addr, "POST", "/analyze", &[], body.as_bytes()).expect("round trip");
        assert_eq!(status, 200, "{resp}");
        black_box(resp);
    }

    let spawn = || {
        Server::spawn(ServeConfig {
            workers: 2,
            ..Default::default()
        })
        .expect("bind an ephemeral port for the cache bench")
    };
    let one = spawn();
    let two = [spawn(), spawn()];
    let warm_body = adversarial_class(0);
    // Prewarm every replica so warm measurements are pure hits.
    post(&one.addr(), &warm_body);
    for r in &two {
        post(&r.addr(), &warm_body);
    }

    // Monotone counter: every cold request across every measurement (and
    // its warmup/calibration passes) gets a fresh cache key.
    let seq = AtomicU64::new(1);

    let mut out = Vec::new();
    let cold = t.bench("cache_saturation", "analyze_cold/always_miss", || {
        post(
            &one.addr(),
            &adversarial_class(seq.fetch_add(1, Ordering::Relaxed)),
        );
    });
    let warm = t.bench("cache_saturation", "analyze_warm/hit", || {
        post(&one.addr(), &warm_body);
    });
    assert!(
        warm.median_ns * HIT_SPEEDUP <= cold.median_ns,
        "cache hit must answer >= {HIT_SPEEDUP}x faster than the cold path: warm {} vs cold {}",
        crate::timing::human_ns(warm.median_ns),
        crate::timing::human_ns(cold.median_ns),
    );
    out.push(cold);
    out.push(warm);

    // Concurrency sweep past the worker count (2 workers per replica):
    // one iteration issues `c` simultaneous requests round-robined over
    // the replica set and waits for all of them, so the per-iteration
    // time is the saturated batch latency (requests/s = c / time).
    let saturate = |name: String, addrs: &[SocketAddr], c: usize, hit: bool| {
        t.bench("cache_saturation", name, || {
            let base = if hit {
                0
            } else {
                seq.fetch_add(c as u64, Ordering::Relaxed)
            };
            std::thread::scope(|s| {
                for i in 0..c {
                    let addr = addrs[i % addrs.len()];
                    let body = if hit {
                        warm_body.clone()
                    } else {
                        adversarial_class(base + i as u64)
                    };
                    s.spawn(move || post(&addr, &body));
                }
            });
        })
    };
    let solo = [one.addr()];
    let pair = [two[0].addr(), two[1].addr()];
    for &c in &[4usize, 8] {
        out.push(saturate(format!("saturate_warm/c{c}/replicas1"), &solo, c, true));
    }
    out.push(saturate("saturate_warm/c8/replicas2".into(), &pair, 8, true));
    out.push(saturate("saturate_cold/c8/replicas1".into(), &solo, 8, false));
    out.push(saturate("saturate_cold/c8/replicas2".into(), &pair, 8, false));

    let report = one.shutdown();
    assert!(report.clean(), "bench server failed to drain: {report:?}");
    for r in two {
        let report = r.shutdown();
        assert!(report.clean(), "bench replica failed to drain: {report:?}");
    }

    out
}

/// B12 — warm restart: what the crash-safe spill store buys. A server
/// with persistence on is seeded with an adversarial-class analysis,
/// shut down, and a brand-new server is spawned over the same spill
/// directory; the suite measures the cold seed (which also pays the
/// spill append), a warm hit in the same process, a warm hit after the
/// full restart, and the raw startup spill load. It also asserts that a
/// warm hit *after a restart* answers at least `HIT_SPEEDUP`× faster
/// than the cold path.
pub fn warm_restart_suite(t: &Timer) -> Vec<Sample> {
    use srtw_serve::http::client_roundtrip;
    use srtw_serve::{ServeConfig, Server};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn post(addr: &SocketAddr, body: &str) {
        let (status, _, resp) =
            client_roundtrip(addr, "POST", "/analyze", &[], body.as_bytes()).expect("round trip");
        assert_eq!(status, 200, "{resp}");
        black_box(resp);
    }

    let dir = std::env::temp_dir().join(format!("srtw-bench-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spawn = || {
        Server::spawn(ServeConfig {
            workers: 2,
            persist: Some(dir.to_str().unwrap().to_string()),
            ..Default::default()
        })
        .expect("bind an ephemeral port for the warm-restart bench")
    };

    let mut out = Vec::new();
    let warm_body = adversarial_class(0);
    let seq = AtomicU64::new(1);

    // Phase 1: the seeding server. Every cold request both computes and
    // spills, so `analyze_cold/seed_and_spill` prices the write side of
    // persistence bundled with the analysis it protects.
    let first = spawn();
    post(&first.addr(), &warm_body);
    let cold = t.bench("warm_restart", "analyze_cold/seed_and_spill", || {
        post(
            &first.addr(),
            &adversarial_class(seq.fetch_add(1, Ordering::Relaxed)),
        );
    });
    out.push(t.bench("warm_restart", "analyze_warm/same_process", || {
        post(&first.addr(), &warm_body);
    }));
    let report = first.shutdown();
    assert!(report.clean(), "bench server failed to drain: {report:?}");

    // Phase 2: the raw spill load the restart will pay, measured on the
    // directory phase 1 left behind.
    out.push(t.bench("warm_restart", "startup/load_dir", || {
        let load = srtw_persist::load_dir(&dir);
        assert!(!load.records.is_empty(), "the seeded spill must load");
        black_box(load.records.len());
    }));

    // Phase 3: a brand-new server over the same directory answers the
    // seeded request warm — the acceptance ratio is against the cold
    // path from phase 1.
    let second = spawn();
    let warm = t.bench("warm_restart", "analyze_warm/after_restart", || {
        post(&second.addr(), &warm_body);
    });
    assert!(
        warm.median_ns * HIT_SPEEDUP <= cold.median_ns,
        "a restart-warm hit must answer >= {HIT_SPEEDUP}x faster than the cold path: \
         warm {} vs cold {}",
        crate::timing::human_ns(warm.median_ns),
        crate::timing::human_ns(cold.median_ns),
    );
    out.insert(0, cold);
    out.push(warm);
    let report = second.shutdown();
    assert!(report.clean(), "bench server failed to drain: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs all twelve suites in order (convolution, rbf, structural,
/// simulation, budgeted, parallel, server throughput, fused pipeline,
/// server connections, journal overhead, cache saturation, warm
/// restart).
pub fn all_suites(t: &Timer) -> Vec<Sample> {
    let mut out = convolution_suite(t);
    out.extend(rbf_suite(t));
    out.extend(structural_suite(t));
    out.extend(simulation_suite(t));
    out.extend(budgeted_suite(t));
    out.extend(parallel_suite(t));
    out.extend(server_throughput_suite(t));
    out.extend(fused_pipeline_suite(t));
    out.extend(server_connections_suite(t));
    out.extend(journal_overhead_suite(t));
    out.extend(cache_saturation_suite(t));
    out.extend(warm_restart_suite(t));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_produces_entries_fast() {
        let t = Timer::fast();
        assert_eq!(convolution_suite(&t).len(), 10);
        assert_eq!(rbf_suite(&t).len(), 7);
        assert_eq!(structural_suite(&t).len(), 9);
        assert_eq!(simulation_suite(&t).len(), 6);
        assert_eq!(budgeted_suite(&t).len(), 6);
        assert_eq!(parallel_suite(&t).len(), 4);
        assert_eq!(server_throughput_suite(&t).len(), 4);
        assert_eq!(fused_pipeline_suite(&t).len(), 2);
        assert_eq!(server_connections_suite(&t).len(), 3);
        assert_eq!(journal_overhead_suite(&t).len(), 4);
        assert_eq!(cache_saturation_suite(&t).len(), 7);
        assert_eq!(warm_restart_suite(&t).len(), 4);
    }

    #[test]
    fn polyline_generators_are_shaped() {
        assert!(concave_polyline(8, 5).is_concave());
        assert!(convex_polyline(8, 3).is_convex());
    }
}
