//! Parsing the children's lines, checking digests, and printing the
//! result: provenance, every metric by name and unit, and the final
//! JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, tail, TAIL_BEYOND};
use crate::workloads::{Workload, ISO_USERS, JOB_USERS, STORM_USERS};

/// `(name, unit, better)` of every end-to-end metric in the JSON line.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("mpackets_per_s", "Mpackets/s", "higher"),
    ("cpu_s_per_mpacket", "s", "lower"),
    ("setup_s", "s", "lower"),
];

/// `(name, unit, better)` of every per-layer metric in the traced run's
/// JSON line.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("workload.synthesize_cpu_s", "s", "lower"),
    ("workload.generate_ms_per_user_day", "ms", "lower"),
    ("workload.packets_per_user_day", "count", "lower"),
    ("sim.engine_ms_per_user_day", "ms", "lower"),
    ("sim.engine_decide_per_user_day", "count", "lower"),
    ("sim.phase1_cpu_s", "s", "lower"),
    ("sim.record_ms_per_user_day", "ms", "lower"),
    ("sim.phase1_decide_per_user_day", "count", "lower"),
    ("sim.requests_per_user_day", "count", "lower"),
    ("sim.phase2_cpu_s", "s", "lower"),
    ("sim.replay_ms_per_user_day", "ms", "lower"),
    ("sim.phase2_decide_per_user_day", "count", "lower"),
    ("fleet.adjudicate_cpu_s", "s", "lower"),
    ("fleet.adjudicate_wall_share", "ratio", "lower"),
    ("fleet.merge_ms_per_mreq", "ms", "lower"),
    ("fleet.requests_merged", "count", "lower"),
    ("fleet.denied_frac", "ratio", "lower"),
    ("fleet.replay_hit_ratio", "ratio", "higher"),
    ("fleet.fold_us_per_user", "us", "lower"),
    ("fleet.render_ms", "ms", "lower"),
    ("runner.worker_busy_min", "ratio", "higher"),
    ("runner.worker_busy_mean", "ratio", "higher"),
    ("cache.twc_bytes_per_user", "B", "lower"),
    ("cache.twr_bytes_per_user", "B", "lower"),
    ("cache.twc_encode_mb_per_s", "MB/s", "higher"),
    ("cache.twr_encode_mb_per_s", "MB/s", "higher"),
    ("cache.twc_decode_mb_per_s", "MB/s", "higher"),
    ("cache.twr_decode_mb_per_s", "MB/s", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.fallbacks", "count", "lower"),
    ("cache.replay_hits", "count", "higher"),
    ("cache.replay_misses", "count", "lower"),
    ("cache.replay_fallbacks", "count", "lower"),
    ("mem.peak_rss_mb", "MB", "lower"),
    ("mem.rss_bytes_per_user", "B", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.stream_tail_s", "s", "lower"),
    ("serve.msgs_per_job", "count", "lower"),
    ("serve.bytes_per_job", "B", "lower"),
    ("serve.decode_us_per_msg", "us", "lower"),
    ("obs.tracing_overhead_frac", "ratio", "lower"),
    ("probe.users", "count", "higher"),
    ("probe.user_days", "count", "higher"),
    ("obs.spans", "count", "lower"),
];

/// One measured batch iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Iter {
    /// Which of the workload's populations it ran.
    pub population: usize,
    /// Wall seconds of the run.
    pub wall_s: f64,
    /// Its manifest digest.
    pub digest: u64,
    /// Users simulated (all sweep cells).
    pub users: u64,
    /// User-days simulated (all sweep cells).
    pub user_days: u64,
    /// Packets simulated (all sweep cells).
    pub packets: u64,
}

/// One served job, as the load generator recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLine {
    /// Connection index.
    pub conn: u64,
    /// Position on the connection.
    pub index: u64,
    /// Fresh population (otherwise a rerun).
    pub fresh: bool,
    /// Population seed.
    pub master_seed: u64,
    /// Load-reactive RNC admission.
    pub reactive: bool,
    /// Submit to report and manifest, seconds.
    pub latency_s: f64,
    /// User-days the job simulated.
    pub user_days: u64,
    /// Packets the job simulated.
    pub packets: u64,
    /// Streamed manifest digest.
    pub digest: Option<u64>,
    /// Error text, when the job failed.
    pub error: Option<String>,
}

/// Everything the measured process reported.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Batch iterations, in order.
    pub iters: Vec<Iter>,
    /// Served jobs.
    pub jobs: Vec<JobLine>,
    /// User + system CPU seconds of the measured work.
    pub cpu_s: f64,
    /// Peak RSS, KiB.
    pub hwm_kib: u64,
    /// Wall seconds of the serve loop.
    pub wall_s: f64,
    /// Seconds to start the in-process server.
    pub server_start_s: f64,
}

fn field<T: std::str::FromStr>(line: &[String], i: usize) -> Result<T, String> {
    line.get(i).and_then(|v| v.parse().ok()).ok_or_else(|| format!("malformed line {line:?}"))
}

fn hex(line: &[String], i: usize) -> Result<u64, String> {
    line.get(i)
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| format!("malformed digest in {line:?}"))
}

impl Measured {
    /// Parses a measured process's lines.
    pub fn parse(workload: Workload, lines: &[Vec<String>]) -> Result<Measured, String> {
        let mut m = Measured { jobs: Measured::jobs_of(lines), ..Measured::default() };
        for line in lines {
            match line.first().map(String::as_str) {
                Some("iter") => m.iters.push(Iter {
                    population: field(line, 1)?,
                    wall_s: field(line, 2)?,
                    digest: hex(line, 3)?,
                    users: field(line, 4)?,
                    user_days: field(line, 5)?,
                    packets: field(line, 6)?,
                }),
                Some("cpu_s") => m.cpu_s = field(line, 1)?,
                Some("hwm_kib") => m.hwm_kib = field(line, 1)?,
                Some("wall_s") => m.wall_s = field(line, 1)?,
                Some("server_start_s") => m.server_start_s = field(line, 1)?,
                _ => {}
            }
        }
        let empty = match workload {
            Workload::ServeCommute => m.jobs.is_empty(),
            _ => m.iters.is_empty(),
        };
        if empty || m.hwm_kib == 0 {
            return Err("the measured process reported no work".into());
        }
        Ok(m)
    }

    /// The `job` lines among `lines` (malformed ones are skipped).
    pub fn jobs_of(lines: &[Vec<String>]) -> Vec<JobLine> {
        lines
            .iter()
            .filter(|l| l.len() == 15 && l[0] == "job")
            .filter_map(|l| {
                Some(JobLine {
                    conn: field(l, 1).ok()?,
                    index: field(l, 2).ok()?,
                    fresh: l[3] == "fresh",
                    master_seed: field(l, 4).ok()?,
                    reactive: l[5] == "1",
                    latency_s: field(l, 6).ok()?,
                    user_days: field(l, 11).ok()?,
                    packets: field(l, 12).ok()?,
                    digest: hex(l, 13).ok(),
                    error: (l[14] != "-").then(|| l[14].clone()),
                })
            })
            .collect()
    }

    fn done_jobs(&self) -> impl Iterator<Item = &JobLine> {
        self.jobs.iter().filter(|j| j.error.is_none())
    }

    fn user_days(&self) -> u64 {
        self.iters.iter().map(|i| i.user_days).sum::<u64>()
            + self.done_jobs().map(|j| j.user_days).sum::<u64>()
    }

    fn packets(&self) -> u64 {
        self.iters.iter().map(|i| i.packets).sum::<u64>()
            + self.done_jobs().map(|j| j.packets).sum::<u64>()
    }

    /// Wall seconds of the measured work.
    fn wall_s(&self) -> f64 {
        if self.jobs.is_empty() {
            self.iters.iter().map(|i| i.wall_s).sum()
        } else {
            self.wall_s
        }
    }

    /// Job latencies: batch iterations, or served fresh (or rerun) jobs.
    fn latencies(&self, fresh: bool) -> Vec<f64> {
        if self.jobs.is_empty() {
            return self.iters.iter().map(|i| i.wall_s).collect();
        }
        self.done_jobs().filter(|j| j.fresh == fresh).map(|j| j.latency_s).collect()
    }

    /// Simulated packets per wall second. Batch work: every population
    /// the run reached, each at its median iteration wall, so one slow
    /// iteration cannot move it. Served work: every completed job's
    /// packets over the closed loop's wall.
    fn mpackets_per_s(&self) -> f64 {
        if !self.jobs.is_empty() {
            return ratio(self.packets() as f64, self.wall_s) / 1e6;
        }
        let mut by_population: BTreeMap<usize, (u64, Vec<f64>)> = BTreeMap::new();
        for i in &self.iters {
            let entry = by_population.entry(i.population).or_insert((i.packets, Vec::new()));
            entry.1.push(i.wall_s);
        }
        let packets: u64 = by_population.values().map(|(p, _)| p).sum();
        let wall: f64 = by_population.values().filter_map(|(_, w)| median(w)).sum();
        ratio(packets as f64, wall) / 1e6
    }
}

/// The output check: what was attempted, what failed, and why.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Users (batch) or jobs (serve) attempted.
    pub attempted: u64,
    /// Attempts whose output did not match the reference.
    pub failed: u64,
    /// What the outputs were checked against.
    pub against: String,
    /// One line per mismatch.
    pub problems: Vec<String>,
    /// The digest a stored reference pins for this seed: population 0
    /// (batch) or connection 0's first job (serve).
    pub pinned: Option<u64>,
}

fn digest_text(digest: Option<u64>) -> String {
    digest.map_or_else(|| "-".into(), |d| format!("{d:016x}"))
}

impl Check {
    /// Batch workloads: every iteration must digest like its
    /// population's reference run, and the traced run (population 0)
    /// likewise. Population 0 must also match `stored` when the seed has
    /// a stored digest.
    pub fn for_batch(
        iters: &[Iter],
        traced: &[u64],
        refs: &BTreeMap<usize, u64>,
        stored: Option<u64>,
    ) -> Check {
        let mut check = Check {
            against: format!("{} reference runs", refs.len()),
            pinned: refs.get(&0).copied(),
            ..Check::default()
        };
        if let Some(stored) = stored {
            check.against.push_str(&format!(", stored {stored:016x}"));
            if refs.get(&0) != Some(&stored) {
                check.problems.push(format!(
                    "population 0: reference {} != stored {stored:016x}",
                    digest_text(refs.get(&0).copied())
                ));
            }
        }
        for (i, iter) in iters.iter().enumerate() {
            check.attempted += iter.users;
            let expected = refs.get(&iter.population).copied();
            if Some(iter.digest) != expected {
                check.failed += iter.users;
                check.problems.push(format!(
                    "iteration {i} (population {}): {:016x} vs reference {}",
                    iter.population,
                    iter.digest,
                    digest_text(expected)
                ));
            }
        }
        for digest in traced {
            if refs.get(&0) != Some(digest) {
                check.problems.push(format!("traced run digested to {digest:016x}"));
            }
        }
        check
    }

    /// `serve_commute`: every job's streamed manifest must digest like
    /// the same scenario run in batch; connection 0's first job must
    /// also match `stored` when present.
    pub fn for_jobs(
        jobs: &[JobLine],
        traced: &[JobLine],
        refs: &BTreeMap<(u64, bool), u64>,
        stored: Option<u64>,
    ) -> Check {
        let mut check = Check {
            against: format!("{} batch runs", refs.len()),
            pinned: jobs.iter().find(|j| j.conn == 0 && j.index == 0).and_then(|j| j.digest),
            ..Check::default()
        };
        if let Some(stored) = stored {
            check.against.push_str(&format!(", stored {stored:016x}"));
        }
        let all = jobs.iter().map(|j| (false, j)).chain(traced.iter().map(|j| (true, j)));
        for (traced_run, job) in all {
            let expected = refs.get(&(job.master_seed, job.reactive)).copied();
            let first = job.conn == 0 && job.index == 0;
            let ok = job.error.is_none()
                && job.digest.is_some()
                && job.digest == expected
                && !(first && stored.is_some() && job.digest != stored);
            if !traced_run {
                check.attempted += 1;
                check.failed += u64::from(!ok);
            }
            if !ok {
                let why = job.error.clone().unwrap_or_else(|| {
                    format!("{} vs batch {}", digest_text(job.digest), digest_text(expected))
                });
                check.problems.push(format!(
                    "{}job {}/{} (seed {}): {why}",
                    if traced_run { "traced " } else { "" },
                    job.conn,
                    job.index,
                    job.master_seed,
                ));
            }
        }
        check
    }

    /// True when something was attempted and nothing mismatched.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The seed each workload keeps out of tuning, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 7;

/// The provenance line printed beside every result.
pub fn provenance(workload: Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "# {} workload={} seed={seed} held_out_seed={HELD_OUT_SEED} nproc={nproc} cpu=\"{cpu}\" \
         rustc=\"{}\" commit={}\n",
        crate::BENCH_VERSION,
        workload.name(),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// A finished benchmark run, ready to print.
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Median set-up seconds (without the server start).
    pub setup_s: f64,
    /// The measured process's report.
    pub measured: Measured,
    /// The traced process's lines, for traced runs.
    pub traced: Option<Vec<Vec<String>>>,
    /// The output check.
    pub check: Check,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Outcome {
    /// Users one unit of work holds: what `mem.rss_bytes_per_user`
    /// divides by (every job's users for the resident server).
    fn population(&self) -> u64 {
        match self.workload {
            Workload::IsoStress => ISO_USERS,
            Workload::StormCold | Workload::StormWarm => STORM_USERS,
            Workload::ServeCommute => JOB_USERS * self.measured.jobs.len().max(1) as u64,
        }
    }

    /// The end-to-end metrics, in `END_TO_END` order.
    fn end_to_end(&self) -> [f64; 3] {
        let m = &self.measured;
        [
            m.mpackets_per_s(),
            ratio(m.cpu_s, m.packets() as f64 / 1e6),
            self.setup_s + m.server_start_s,
        ]
    }

    fn traced_metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let lines = self.traced.as_ref().ok_or("no traced run")?;
        let mut metrics = BTreeMap::new();
        let mut traced = None;
        for l in lines {
            match l.first().map(String::as_str) {
                Some("metric") => {
                    metrics.insert(l[1].clone(), field::<f64>(l, 2)?);
                }
                Some("traced_work") => traced = Some(field::<f64>(l, 1)? / field::<f64>(l, 2)?),
                _ => {}
            }
        }
        // Wall seconds per packet, traced against untraced work on the
        // same inputs: population 0 for batch work (its median wall),
        // the whole closed loop for serve.
        let m = &self.measured;
        let untraced = if m.jobs.is_empty() {
            let pop0 = || m.iters.iter().filter(|i| i.population == 0);
            let walls: Vec<f64> = pop0().map(|i| i.wall_s).collect();
            median(&walls).zip(pop0().next()).map(|(wall, i)| wall / i.packets as f64)
        } else {
            Some(m.wall_s / m.packets() as f64)
        };
        let traced = traced.ok_or("the traced run printed no work")?;
        let untraced = untraced.ok_or("no untraced run of the traced inputs")?;
        metrics.insert("obs.tracing_overhead_frac".into(), traced / untraced - 1.0);
        metrics.insert("mem.peak_rss_mb".into(), m.hwm_kib as f64 / 1024.0);
        metrics.insert(
            "mem.rss_bytes_per_user".into(),
            m.hwm_kib as f64 * 1024.0 / self.population() as f64,
        );
        for (name, _, _) in PER_LAYER {
            if !metrics.contains_key(name) {
                return Err(format!("the traced run did not report {name}"));
            }
        }
        Ok(metrics)
    }

    /// The ungated figures printed beside the gated metrics: peak RSS,
    /// user-days, latency percentiles, job rates, failures.
    fn render_figures(&self, out: &mut String) {
        let m = &self.measured;
        let user_days = m.user_days() as f64;
        let line = |out: &mut String, name: &str, value: f64, unit: &str| {
            let _ = writeln!(out, "  {name:<24} {value:>14.6} {unit}");
        };
        line(out, "peak_rss_mb", m.hwm_kib as f64 / 1024.0, "MB");
        line(out, "user_days_per_s", user_days / m.wall_s(), "user-days/s");
        line(out, "cpu_s_per_user_day", ratio(m.cpu_s, user_days), "s");
        let fresh = m.latencies(true);
        line(out, "job_latency_p50_s", median(&fresh).unwrap_or(0.0), "s");
        match tail(&fresh) {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>14.6} s (p{:.1} of {} jobs, {} beyond)",
                    "job_latency_tail_s", t.value, t.percentile, t.samples, t.beyond
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>14} s (n/a: {} jobs; the rule needs at least {})",
                    "job_latency_tail_s",
                    "-",
                    fresh.len(),
                    TAIL_BEYOND + 1
                );
            }
        }
        if !m.jobs.is_empty() {
            let reruns = m.latencies(false);
            let p50 = median(&reruns).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<24} {p50:>14.6} s ({} reruns)",
                "rerun_latency_p50_s",
                reruns.len()
            );
            line(out, "jobs_per_s", m.jobs.len() as f64 / m.wall_s, "jobs/s");
        }
        let attempted = self.check.attempted.max(1) as f64;
        line(out, "failed_frac", self.check.failed as f64 / attempted, "ratio");
        for i in &m.iters {
            let _ = writeln!(
                out,
                "  iteration: population {:>2} {:>10.6} s {:>10} packets {:>8.4} Mpackets/s {:016x}",
                i.population,
                i.wall_s,
                i.packets,
                i.packets as f64 / i.wall_s / 1e6,
                i.digest
            );
        }
        let units = if m.jobs.is_empty() { "iterations" } else { "jobs" };
        let _ = writeln!(
            out,
            "  ({} {units} over {:.3} s; set-up is the median of {} runs)",
            m.iters.len().max(m.jobs.len()),
            m.wall_s(),
            self.workload.setup_runs()
        );
    }

    /// The full printout: provenance, metrics by name and unit, the
    /// output check, and the JSON line last.
    pub fn render(&self, seed: u64) -> String {
        let mut out = provenance(self.workload, seed);
        let e2e = self.end_to_end();
        let _ = writeln!(out, "end-to-end (untraced):");
        for ((name, unit, _), value) in END_TO_END.iter().zip(e2e) {
            let _ = writeln!(out, "  {name:<24} {value:>14.6} {unit}");
        }
        self.render_figures(&mut out);
        let _ = writeln!(
            out,
            "check: {} against {}: {} attempted, {} failed",
            if self.check.correct() { "ok" } else { "FAILED" },
            self.check.against,
            self.check.attempted,
            self.check.failed
        );
        let _ = writeln!(out, "  pinned digest: {}", digest_text(self.check.pinned));
        for p in &self.check.problems {
            let _ = writeln!(out, "  mismatch: {p}");
        }

        let mut json: Vec<(&str, &str, f64)> = Vec::new();
        let mut correct = self.check.correct();
        if self.trace {
            match self.traced_metrics() {
                Ok(metrics) => {
                    let _ = writeln!(out, "per-layer (traced run):");
                    for (name, unit, _) in PER_LAYER {
                        let value = metrics[name];
                        let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
                        json.push((name, unit, value));
                    }
                    let _ = writeln!(out, "self time by layer (probe spans):");
                    let traced = self.traced.iter().flatten();
                    for l in traced.filter(|l| l.first().map(String::as_str) == Some("selftime")) {
                        let seconds: f64 = l[2].parse().unwrap_or(0.0);
                        let _ = writeln!(out, "  {:<12} {seconds:>12.6} s", l[1]);
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "per-layer: {e}");
                    correct = false;
                }
            }
        } else {
            for ((name, unit, _), value) in END_TO_END.iter().zip(e2e) {
                json.push((name, unit, value));
            }
        }
        let body: Vec<String> = json
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check.attempted.max(1),
            self.check.failed,
            body.join(", ")
        );
        out
    }

    /// Whether the run passed its output check (and, traced, printed
    /// every per-layer metric).
    pub fn correct(&self) -> bool {
        self.check.correct() && (!self.trace || self.traced_metrics().is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(population: usize, digest: u64) -> Iter {
        Iter { population, wall_s: 1.0, digest, users: 10, user_days: 10, packets: 1000 }
    }

    #[test]
    fn a_wrong_reference_digest_is_a_failure() {
        let iters = [iter(0, 0xAB), iter(1, 0xBC), iter(0, 0xAB)];
        let refs = BTreeMap::from([(0, 0xAB), (1, 0xBC)]);
        assert!(Check::for_batch(&iters, &[0xAB], &refs, None).correct());
        assert!(Check::for_batch(&iters, &[0xAB], &refs, Some(0xAB)).correct());

        let wrong = BTreeMap::from([(0, 0xAB), (1, 0xCD)]);
        let check = Check::for_batch(&iters, &[], &wrong, None);
        assert!(!check.correct());
        assert_eq!((check.attempted, check.failed), (30, 10));

        // A population the reference never ran is a failure too.
        assert!(!Check::for_batch(&iters, &[], &BTreeMap::from([(0, 0xAB)]), None).correct());
        // So is a stale stored digest, even when the reference process
        // agrees with the measured one, and a traced run that disagrees.
        assert!(!Check::for_batch(&iters, &[], &refs, Some(0xCD)).correct());
        assert!(!Check::for_batch(&iters, &[0xCD], &refs, None).correct());
    }

    #[test]
    fn a_job_whose_digest_differs_from_batch_is_a_failure() {
        let job = |digest: u64| JobLine {
            conn: 0,
            index: 0,
            fresh: true,
            master_seed: 5,
            reactive: false,
            latency_s: 1.0,
            user_days: 12,
            packets: 1000,
            digest: Some(digest),
            error: None,
        };
        let refs = BTreeMap::from([((5, false), 0xAB)]);
        assert!(Check::for_jobs(&[job(0xAB)], &[], &refs, None).correct());
        let bad = Check::for_jobs(&[job(0xAB), job(0xCD)], &[], &refs, None);
        assert_eq!((bad.attempted, bad.failed), (2, 1));
        assert!(!bad.correct());
        let errored = JobLine { error: Some("boom".into()), digest: None, ..job(0xAB) };
        assert!(!Check::for_jobs(&[errored], &[], &refs, None).correct());
        assert!(!Check::for_jobs(&[job(0xAB)], &[], &refs, Some(0xCD)).correct());
    }

    #[test]
    fn batch_throughput_takes_each_population_at_its_median_wall() {
        let mut m = Measured::default();
        // Population 0: 2M packets at walls 1, 3, 0.5 (median 1);
        // population 1: 4M packets at walls 2, 2.2 (median 2.1).
        for (population, wall, packets) in
            [(0, 1.0, 2e6), (1, 2.0, 4e6), (0, 3.0, 2e6), (1, 2.2, 4e6), (0, 0.5, 2e6)]
        {
            m.iters.push(Iter { population, wall_s: wall, packets: packets as u64, ..iter(0, 0) });
        }
        assert!((m.mpackets_per_s() - 6.0 / 3.1).abs() < 1e-12);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
