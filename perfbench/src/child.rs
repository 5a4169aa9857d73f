//! The processes a benchmark run spawns: set-up, the measured run, the
//! reference run and the traced run. Each prints `key value…` lines
//! that the parent parses.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tailwise_fleet::{RequestCache, RunManifest, Scenario, ScenarioSet};
use tailwise_obs::{Obs, StatsRecorder};
use tailwise_serve::{Client, ClientMsg, ServeConfig, Server, ServerMsg};

use crate::probe::{probe, spill_codec, ProbeCounts, SpillCodec};
use crate::procfs::{cpu_seconds, peak_rss_kib};
use crate::serveload::{
    closed_loop, job_spec, submit_and_collect, JobKind, JobRecord, JobSpec, ServeConn,
};
use crate::spans::{self_seconds_by_layer, Tracer};
use crate::workloads::{
    iso_run, job_batch_digest, job_text, setup, storm_run, UnitResult, WorkDir, Workload,
    CONNECTIONS, JOB_USERS, SERVE_SETUP_PAIRS, STORM_USERS, THREADS,
};

/// Users the traced probe pushes through the layers.
pub const PROBE_USERS: u64 = 8;

/// Where traced runs write their spans, relative to the checkout.
pub const SPANS_DIR: &str = ".bench_out";

/// What a child was asked to do.
pub struct ChildArgs {
    /// `setup`, `measure`, `reference` or `trace`.
    pub role: String,
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The run's work directory (set-up output).
    pub dir: WorkDir,
    /// Seconds to measure.
    pub seconds: f64,
}

/// Runs the child's role, printing its result lines.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    match args.role.as_str() {
        "setup" => setup_all(args, &root),
        "measure" => measure(args),
        "reference" => reference(args),
        "trace" => trace(args),
        other => Err(format!("unknown child role {other:?}")),
    }
}

/// The set-up process, timing each preparation in-process and printing
/// one `setup_s` line per timing. Batch workloads prepare each
/// population once ([`setup`]); `iso_stress` and `storm_cold` prepare
/// two at a time, one per core, because their reference runs use one
/// thread.
fn setup_all(args: &ChildArgs, root: &Path) -> Result<(), String> {
    let workload = args.workload;
    if workload == Workload::ServeCommute {
        return setup_serve(args, root);
    }
    let timed = |k: usize| -> Result<f64, String> {
        let start = Instant::now();
        setup(workload, root, args.seed, &args.dir, k)?;
        Ok(start.elapsed().as_secs_f64())
    };
    let lanes = if workload == Workload::StormWarm { 1 } else { THREADS };
    let timings: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                let timed = &timed;
                scope.spawn(move || {
                    (lane..workload.populations()).step_by(lanes).map(timed).collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("set-up worker panicked")).collect()
    });
    for lane in timings {
        for seconds in lane? {
            println!("setup_s {seconds}");
        }
    }
    Ok(())
}

/// `serve_commute`'s set-up: one timing per connection's fresh/rerun
/// pair, for the first [`SERVE_SETUP_PAIRS`] pairs. Each generates the
/// job template and runs both jobs in batch for their reference
/// digests, which go to [`WorkDir::job_references`].
fn setup_serve(args: &ChildArgs, root: &Path) -> Result<(), String> {
    // One cache for every reference, as the server shares one: a rerun
    // hits its fresh job's phase 1.
    let cache = RequestCache::in_memory();
    let mut refs = String::new();
    for pair in 0..SERVE_SETUP_PAIRS {
        for conn in 0..CONNECTIONS {
            let start = Instant::now();
            setup(Workload::ServeCommute, root, args.seed, &args.dir, 0)?;
            let template = load_set(&args.dir, 0)?;
            for index in [2 * pair, 2 * pair + 1] {
                let spec = job_spec(args.seed, conn, index);
                let text = job_text(&template, spec.master_seed, spec.reactive)?;
                let digest = job_batch_digest(&text, &cache)?;
                let reactive = u8::from(spec.reactive);
                refs.push_str(&format!("ref {} {reactive} {digest:016x}\n", spec.master_seed));
            }
            println!("setup_s {}", start.elapsed().as_secs_f64());
        }
    }
    std::fs::write(args.dir.job_references(), refs).map_err(|e| e.to_string())
}

fn load_set(dir: &WorkDir, k: usize) -> Result<ScenarioSet, String> {
    ScenarioSet::from_file(dir.scenario(k)).map_err(|e| e.to_string())
}

fn load_scenario(dir: &WorkDir, k: usize) -> Result<Scenario, String> {
    Scenario::from_file(dir.scenario(k)).map_err(|e| e.to_string())
}

/// Iteration `i` of batch work: one run over population
/// `i mod populations`.
fn batch_unit(
    workload: Workload,
    dir: &WorkDir,
    i: usize,
    obs: Obs<'_>,
) -> Result<UnitResult, String> {
    let k = i % workload.populations();
    match workload {
        Workload::IsoStress => Ok(iso_run(&load_scenario(dir, k)?, THREADS, obs)),
        Workload::StormCold => {
            let spill = dir.0.join(format!("cold-{i}"));
            let unit = storm_run(&load_set(dir, k)?, Some(&spill), THREADS, obs);
            std::fs::remove_dir_all(&spill).ok();
            unit
        }
        Workload::StormWarm => storm_run(&load_set(dir, k)?, Some(&dir.spill(k)), THREADS, obs),
        Workload::ServeCommute => Err("serve_commute has no batch unit".into()),
    }
}

/// The measured run: iterates over the workload's populations until
/// the next iteration would overrun `seconds` (always at least one),
/// then reports the process's CPU and peak RSS.
fn measure(args: &ChildArgs) -> Result<(), String> {
    if args.workload == Workload::ServeCommute {
        return measure_serve(args, None).map(|_| ());
    }
    let start = Instant::now();
    let mut cpu_s = 0.0;
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let cpu0 = cpu_seconds()?;
        let unit = batch_unit(args.workload, &args.dir, walls.len(), Obs::none())?;
        cpu_s += cpu_seconds()? - cpu0;
        println!(
            "iter {} {} {:016x} {} {} {}",
            walls.len() % args.workload.populations(),
            unit.wall_s,
            unit.digest,
            unit.users,
            unit.user_days,
            unit.packets
        );
        walls.push(unit.wall_s);
        let typical = crate::stats::median(&walls).unwrap_or(0.0);
        if start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    println!("cpu_s {cpu_s}");
    println!("hwm_kib {}", peak_rss_kib()?);
    Ok(())
}

/// Starts an in-process server with `workers` single-thread workers,
/// spilling its shared cache to `cache_dir` when given.
fn start_server(workers: usize, cache_dir: Option<&Path>) -> Result<Server, String> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        threads: 1,
        cache_dir: cache_dir.map(Path::to_path_buf),
        read_timeout: Duration::from_millis(100),
        progress_every: Duration::from_millis(50),
    })
    .map_err(|e| format!("server start: {e}"))
}

fn stop_server(server: Server) -> Result<(), String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client.send(&ClientMsg::Shutdown).map_err(|e| e.to_string())?;
    client.recv_until_eof().map_err(|e| e.to_string())?;
    server.join();
    Ok(())
}

fn kind_token(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Fresh => "fresh",
        JobKind::Rerun => "rerun",
    }
}

/// The `serve_commute` measurement: an in-process server with two
/// single-thread workers, driven by the closed-loop generator. The
/// traced run keeps every received line (for decode timing) and spills
/// the server's shared cache to `spill`, for the codec pass.
fn measure_serve(
    args: &ChildArgs,
    spill: Option<&Path>,
) -> Result<(Vec<(JobSpec, JobRecord)>, f64), String> {
    let template = load_set(&args.dir, 0)?;
    let start = Instant::now();
    let server = start_server(2, spill)?;
    let server_start_s = start.elapsed().as_secs_f64();
    let addr = server.local_addr();
    let make_text = |spec: &JobSpec| job_text(&template, spec.master_seed, spec.reactive);
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let jobs = closed_loop(CONNECTIONS, args.seed, deadline, |_| {
        ServeConn::connect(addr, &make_text, spill.is_some())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    let hwm = peak_rss_kib()?;
    stop_server(server)?;
    let jobs = jobs?;
    for (spec, job) in &jobs {
        let digest = job.digest.map_or_else(|| "-".to_string(), |d| format!("{d:016x}"));
        let error = job.error.as_deref().unwrap_or("-").replace(char::is_whitespace, "_");
        println!(
            "job {} {} {} {} {} {} {} {} {} {} {} {} {digest} {error}",
            spec.conn,
            spec.index,
            kind_token(spec.kind),
            spec.master_seed,
            u8::from(spec.reactive),
            job.latency_s,
            job.queue_wait_s,
            job.stream_tail_s,
            job.msgs,
            job.bytes,
            job.user_days,
            job.packets,
        );
    }
    println!("wall_s {wall_s}");
    println!("server_start_s {server_start_s}");
    println!("cpu_s {cpu_s}");
    println!("hwm_kib {hwm}");
    Ok((jobs, wall_s))
}

/// The `serve_commute` reference: every job the measured and traced
/// runs submitted that set-up did not cover, as one batch call each
/// against a shared in-memory cache. (Batch workloads compute all their
/// references during set-up.)
fn reference(args: &ChildArgs) -> Result<(), String> {
    let dir = &args.dir;
    let template = load_set(dir, 0)?;
    let cache = RequestCache::in_memory();
    let jobs = std::fs::read_to_string(dir.jobs()).map_err(|e| e.to_string())?;
    for line in jobs.lines() {
        let mut f = line.split_whitespace();
        let (Some(seed), Some(reactive)) = (f.next(), f.next()) else { continue };
        let master_seed: u64 = seed.parse().map_err(|_| format!("bad job line {line:?}"))?;
        let text = job_text(&template, master_seed, reactive == "1")?;
        println!("ref {seed} {reactive} {:016x}", job_batch_digest(&text, &cache)?);
    }
    Ok(())
}

fn metric(name: &str, value: f64) {
    println!("metric {name} {value}");
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Manifest-derived layer figures: phase CPU, worker busy time and the
/// recorder's counters.
fn manifest_metrics(m: &RunManifest, wall_s: f64) {
    let t = &m.timings;
    metric("workload.synthesize_cpu_s", t.synthesize_s);
    metric("sim.phase1_cpu_s", t.simulate_s);
    metric("sim.phase2_cpu_s", t.replay_s);
    metric("fleet.adjudicate_cpu_s", t.adjudicate_s);
    metric("fleet.adjudicate_wall_share", ratio(t.adjudicate_s, wall_s));
    let c = |name: &str| m.counters.get(name).copied().unwrap_or(0) as f64;
    let (granted, denied) = (c("requests_granted"), c("requests_denied"));
    metric("fleet.requests_merged", granted + denied);
    metric("fleet.denied_frac", ratio(denied, granted + denied));
    metric(
        "fleet.replay_hit_ratio",
        ratio(c("replay_hits"), c("replay_hits") + c("replay_misses")),
    );
    let busy = &t.worker_busy;
    metric("runner.worker_busy_min", busy.iter().copied().reduce(f64::min).unwrap_or(0.0));
    metric("runner.worker_busy_mean", ratio(busy.iter().sum(), busy.len() as f64));
    for (name, counter) in [
        ("cache.hits", "cache_hits"),
        ("cache.misses", "cache_misses"),
        ("cache.fallbacks", "cache_fallbacks"),
        ("cache.replay_hits", "replay_hits"),
        ("cache.replay_misses", "replay_misses"),
        ("cache.replay_fallbacks", "replay_fallbacks"),
    ] {
        metric(name, c(counter));
    }
}

/// Sums the timings and counters of many manifests (one per served
/// job) into one.
fn sum_manifests(manifests: &[&RunManifest]) -> Option<RunManifest> {
    let mut total = (*manifests.first()?).clone();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    total.timings = Default::default();
    for m in manifests {
        let t = &mut total.timings;
        t.synthesize_s += m.timings.synthesize_s;
        t.simulate_s += m.timings.simulate_s;
        t.adjudicate_s += m.timings.adjudicate_s;
        t.replay_s += m.timings.replay_s;
        t.worker_busy.extend(&m.timings.worker_busy);
        for (k, v) in &m.counters {
            *counters.entry(k.clone()).or_default() += v;
        }
    }
    total.counters = counters;
    Some(total)
}

/// Serve-layer figures from a set of client-side job records.
fn serve_metrics(jobs: &[&JobRecord], t: &mut Tracer) -> Result<(), String> {
    let n = jobs.len() as f64;
    let median = |f: fn(&JobRecord) -> f64| {
        crate::stats::median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    metric("serve.queue_wait_s", median(|j| j.queue_wait_s));
    metric("serve.stream_tail_s", median(|j| j.stream_tail_s));
    metric("serve.msgs_per_job", ratio(jobs.iter().map(|j| j.msgs as f64).sum(), n));
    metric("serve.bytes_per_job", ratio(jobs.iter().map(|j| j.bytes as f64).sum(), n));
    let mut msgs = 0u64;
    for (id, job) in jobs.iter().enumerate() {
        t.span("serve.decode", id as u64, |_| {
            for line in &job.lines {
                ServerMsg::decode(line).map_err(|e| e.to_string())?;
                msgs += 1;
            }
            Ok::<(), String>(())
        })?;
    }
    metric("serve.decode_us_per_msg", ratio(t.seconds("serve.decode") * 1e6, msgs as f64));
    Ok(())
}

/// Runs one probe job through a one-worker in-process server.
fn serve_probe(scenario: &Scenario, t: &mut Tracer) -> Result<JobRecord, String> {
    let mut small = scenario.clone();
    small.users = small.users.min(PROBE_USERS);
    let text = ScenarioSet { base: small, axes: Vec::new() }
        .to_toml_string()
        .map_err(|e| e.to_string())?;
    let server = start_server(1, None)?;
    let mut record = JobRecord::default();
    let outcome = t.span("serve.job", 0, |_| {
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        submit_and_collect(&mut client, text, true, &mut record)
    });
    stop_server(server)?;
    outcome.map(|()| record)
}

fn probe_metrics(c: &ProbeCounts, t: &Tracer) {
    let ud = c.user_days as f64;
    metric("workload.generate_ms_per_user_day", ratio(t.seconds("workload.generate") * 1e3, ud));
    metric("workload.packets_per_user_day", ratio(c.packets as f64, ud));
    metric("sim.engine_ms_per_user_day", ratio(t.seconds("sim.engine") * 1e3, ud));
    metric("sim.engine_decide_per_user_day", ratio(c.decide_engine as f64, ud));
    metric("sim.record_ms_per_user_day", ratio(t.seconds("sim.record") * 1e3, ud));
    metric("sim.phase1_decide_per_user_day", ratio(c.decide_phase1 as f64, ud));
    metric("sim.requests_per_user_day", ratio(c.requests as f64, ud));
    metric("sim.replay_ms_per_user_day", ratio(t.seconds("sim.replay") * 1e3, ud));
    metric("sim.phase2_decide_per_user_day", ratio(c.decide_phase2 as f64, ud));
    metric("fleet.merge_ms_per_mreq", ratio(t.seconds("fleet.merge") * 1e3, c.merged as f64 / 1e6));
    metric("fleet.fold_us_per_user", ratio(t.seconds("fleet.fold") * 1e6, c.users as f64));
    metric("fleet.render_ms", t.seconds("fleet.render") * 1e3);
}

/// Codec figures over a run's own spill files, which hold `users`
/// users; all 0 for a workload that writes none.
fn codec_metrics(spill: Option<(SpillCodec, u64)>, t: &Tracer) {
    let (codec, users) = spill.unwrap_or_default();
    let (twc, twr) = (codec.twc_bytes as f64, codec.twr_bytes as f64);
    metric("cache.twc_bytes_per_user", ratio(twc, users as f64));
    metric("cache.twr_bytes_per_user", ratio(twr, users as f64));
    metric("cache.twc_encode_mb_per_s", ratio(twc / 1e6, t.seconds("cache.twc_encode")));
    metric("cache.twr_encode_mb_per_s", ratio(twr / 1e6, t.seconds("cache.twr_encode")));
    metric("cache.twc_decode_mb_per_s", ratio(twc / 1e6, t.seconds("cache.twc_decode")));
    metric("cache.twr_decode_mb_per_s", ratio(twr / 1e6, t.seconds("cache.twr_decode")));
}

/// The traced run: one observed program run (recorder on) for the
/// manifest's phase CPU and counters, then the layer probe over the
/// same workload's inputs, then the codecs over the run's own spill
/// files. Prints `metric` lines, the traced run's digests, per-layer
/// self time, and writes the spans out at the end.
fn trace(args: &ChildArgs) -> Result<(), String> {
    let mut t = Tracer::default();
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let probe_scenario: Scenario;
    // The spill directory the traced run wrote or read, and the users
    // its files hold; `iso_stress` has none.
    let mut spill: Option<(PathBuf, u64)> = None;
    match args.workload {
        Workload::ServeCommute => {
            let dir = args.dir.0.join("traced-spill");
            let (jobs, wall_s) = measure_serve(args, Some(&dir))?;
            let populations: BTreeSet<u64> = jobs.iter().map(|(s, _)| s.master_seed).collect();
            spill = Some((dir, populations.len() as u64 * JOB_USERS));
            let manifests: Vec<&RunManifest> =
                jobs.iter().filter_map(|(_, j)| j.manifest.as_ref()).collect();
            let total = sum_manifests(&manifests).ok_or("no served job completed")?;
            // Phase CPU of concurrent jobs, against the loop's wall.
            manifest_metrics(&total, wall_s);
            let records: Vec<&JobRecord> = jobs.iter().map(|(_, j)| j).collect();
            serve_metrics(&records, &mut t)?;
            let packets: u64 = records.iter().map(|j| j.packets).sum();
            println!("traced_work {wall_s} {packets}");
            let template = load_set(&args.dir, 0)?;
            let first = job_spec(args.seed, 0, 1);
            let text = job_text(&template, first.master_seed, first.reactive)?;
            probe_scenario = ScenarioSet::from_toml_str(&text).map_err(|e| e.to_string())?.base;
        }
        workload => {
            let unit = match workload {
                Workload::StormCold => {
                    // Keep this run's spill so the codec pass reads it.
                    let dir = args.dir.0.join("traced-spill");
                    let unit = storm_run(&load_set(&args.dir, 0)?, Some(&dir), THREADS, obs)?;
                    spill = Some((dir, STORM_USERS));
                    unit
                }
                Workload::StormWarm => {
                    spill = Some((args.dir.spill(0), STORM_USERS));
                    batch_unit(workload, &args.dir, 0, obs)?
                }
                _ => batch_unit(workload, &args.dir, 0, obs)?,
            };
            println!("traced_work {} {}", unit.wall_s, unit.packets);
            println!("traced_digest {:016x}", unit.digest);
            manifest_metrics(&unit.manifest, unit.manifest.wall_seconds);
            let set = load_set(&args.dir, 0)?;
            // The storms' last sweep cell is the load-reactive one, so
            // the probe's gates have something to deny.
            probe_scenario = set.expand().pop().ok_or("empty scenario set")?;
            let job = serve_probe(&probe_scenario, &mut t)?;
            serve_metrics(&[&job], &mut t)?;
        }
    }
    let counts = probe(&probe_scenario, PROBE_USERS, &mut t)?;
    probe_metrics(&counts, &t);
    let codec = match spill {
        Some((dir, users)) => Some((spill_codec(&dir, &mut t)?, users)),
        None => None,
    };
    codec_metrics(codec, &t);
    metric("probe.users", counts.users as f64);
    metric("probe.user_days", counts.user_days as f64);
    metric("obs.spans", t.spans().len() as f64);
    for (layer, seconds) in self_seconds_by_layer(t.spans()) {
        println!("selftime {layer} {seconds}");
    }
    // Spans stay in memory until here, then go out in one write.
    let out = Path::new(SPANS_DIR);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let spans = out.join(format!("{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&spans, t.to_tsv()).map_err(|e| e.to_string())?;
    println!("spans {}", spans.display());
    Ok(())
}
