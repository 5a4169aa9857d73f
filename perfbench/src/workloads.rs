//! The four workloads: how each scenario is generated from the
//! workload seed, and the unit of work one measured iteration runs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tailwise_fleet::{
    run_cached, run_observed, run_sweep_cached, AdmissionSpec, FleetReport, RequestCache,
    RunManifest, Scenario, ScenarioSet, SweepAxis, SweepReport,
};
use tailwise_obs::{Obs, Snapshot};
use tailwise_trace::mix::splitmix64;

/// Simulation threads every workload uses, all in one process.
pub const THREADS: usize = 2;

/// `iso_stress` population: small enough for several iterations per
/// run, split into enough shards that each worker gets several.
pub const ISO_USERS: u64 = 24;
/// `iso_stress` shard size. One user per shard keeps the end-of-run
/// imbalance between the two workers to a single user: with 3-user
/// shards the same population's wall time varied twice as much from
/// pass to pass.
pub const ISO_SHARD: u64 = 1;
/// Storm population (`rnc_storm.toml` ships 600).
pub const STORM_USERS: u64 = 24;
/// Storm shard size, one user for the same reason as [`ISO_SHARD`].
pub const STORM_SHARD: u64 = 1;
/// Users per `serve_commute` job (`handoff_storm.toml` ships 600).
pub const JOB_USERS: u64 = 12;
/// Shard size of a `serve_commute` job.
pub const JOB_SHARD: u64 = 4;

/// The library scenarios the workloads are cut from, relative to the
/// checkout root.
pub const STRESS_FILE: &str = "scenarios/stress_200k.toml";
/// See [`STRESS_FILE`].
pub const STORM_FILE: &str = "scenarios/rnc_storm.toml";
/// See [`STRESS_FILE`].
pub const HANDOFF_FILE: &str = "scenarios/handoff_storm.toml";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Radio-isolated `stress_200k` population.
    IsoStress,
    /// `rnc_storm` sweep against an empty spill directory.
    StormCold,
    /// `rnc_storm` sweep against a spill directory filled in set-up.
    StormWarm,
    /// Closed-loop `handoff_storm`-shaped jobs against an in-process
    /// server.
    ServeCommute,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::IsoStress, Workload::StormCold, Workload::StormWarm, Workload::ServeCommute];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IsoStress => "iso_stress",
            Workload::StormCold => "storm_cold",
            Workload::StormWarm => "storm_warm",
            Workload::ServeCommute => "serve_commute",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }

    /// How many set-up timings a run makes: one per population for
    /// the batch workloads, one per connection and reference pair for
    /// `serve_commute`.
    pub fn setup_runs(self) -> usize {
        match self {
            Workload::ServeCommute => CONNECTIONS * SERVE_SETUP_PAIRS,
            _ => POPULATIONS,
        }
    }
}

/// Connections of the `serve_commute` load generator.
pub const CONNECTIONS: usize = 2;

/// Fresh/rerun pairs per connection whose batch reference digests
/// `serve_commute`'s set-up computes; the jobs after them are checked
/// by a reference process after the measurement.
pub const SERVE_SETUP_PAIRS: usize = 2;

/// A master seed derived from the workload seed, one per `stream`.
pub fn derive_seed(workload_seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(workload_seed ^ 0x7A11_5EED_0000_0000) ^ stream)
}

fn scen_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Scales a set to `users`, with its cell and RNC signaling budgets
/// and every load-reactive watermark (the base's and the admission
/// sweep's) scaled alike, so the smaller population loads its cells and
/// RNCs about as densely as the shipped one.
fn scale_set(set: &mut ScenarioSet, users: u64) -> Result<(), String> {
    let factor = users as f64 / set.base.users as f64;
    set.base.users = users;
    let topology = set.base.cells.as_mut().ok_or("the scenario has no [cells] table")?;
    for budget in [&mut topology.cell_budget, &mut topology.rnc_budget] {
        if let Some(capacity) = budget.capacity_per_s.as_mut() {
            *capacity = scale_count(*capacity, factor);
        }
    }
    for spec in [&mut topology.cell_admission, &mut topology.rnc_admission] {
        *spec = scale_admission(spec, factor);
    }
    for axis in &mut set.axes {
        if let SweepAxis::Admission(specs) = axis {
            for spec in specs.iter_mut() {
                *spec = scale_admission(spec, factor);
            }
        }
    }
    Ok(())
}

fn scale_count(value: u64, factor: f64) -> u64 {
    ((value as f64 * factor).round() as u64).max(1)
}

fn scale_admission(spec: &AdmissionSpec, factor: f64) -> AdmissionSpec {
    match spec {
        AdmissionSpec::LoadReactive { watermark_per_s, window_s } => AdmissionSpec::LoadReactive {
            watermark_per_s: scale_count(*watermark_per_s, factor),
            window_s: *window_s,
        },
        other => other.clone(),
    }
}

/// Distinct populations set-up prepares for the batch workloads;
/// measured iterations cycle through them, so one run averages over
/// many users, not one population repeated.
pub const POPULATIONS: usize = 6;

/// The master seed of population `k` of a workload seed.
fn population_seed(workload_seed: u64, stream: u64, k: usize) -> u64 {
    derive_seed(workload_seed, stream << 32 | k as u64)
}

/// `iso_stress` population `k`: `stress_200k.toml` scaled to
/// [`ISO_USERS`].
pub fn iso_scenario(root: &Path, seed: u64, k: usize) -> Result<Scenario, String> {
    let mut scenario = Scenario::from_file(root.join(STRESS_FILE)).map_err(scen_err)?;
    scenario.name = format!("iso_stress ({ISO_USERS} users of stress_200k)");
    scenario.users = ISO_USERS;
    scenario.shard_size = ISO_SHARD;
    scenario.master_seed = population_seed(seed, 1, k);
    Ok(scenario)
}

/// Storm population `k`: `rnc_storm.toml` with its admission sweep,
/// scaled to [`STORM_USERS`] at the shipped per-user load.
pub fn storm_set(root: &Path, seed: u64, k: usize) -> Result<ScenarioSet, String> {
    let mut set = ScenarioSet::from_file(root.join(STORM_FILE)).map_err(scen_err)?;
    scale_set(&mut set, STORM_USERS)?;
    set.base.name = format!("storm ({STORM_USERS} users of rnc_storm)");
    set.base.shard_size = STORM_SHARD;
    set.base.master_seed = population_seed(seed, 2, k);
    Ok(set)
}

/// `serve_commute` job template: `handoff_storm.toml` scaled to
/// [`JOB_USERS`] at the shipped per-user load. Its admission sweep
/// (`always`, then the load-reactive governor) holds the two RNC
/// policies jobs alternate between; each job sets the seed and one of
/// them, and runs no sweep.
pub fn job_template(root: &Path) -> Result<ScenarioSet, String> {
    let mut set = ScenarioSet::from_file(root.join(HANDOFF_FILE)).map_err(scen_err)?;
    scale_set(&mut set, JOB_USERS)?;
    set.base.name = format!("serve_commute job ({JOB_USERS} commuting users)");
    set.base.shard_size = JOB_SHARD;
    Ok(set)
}

/// One job's scenario text: the template with `master_seed` and the
/// RNC admission filled in: the template's load-reactive sweep value
/// when `reactive`, its always-accept value otherwise.
pub fn job_text(
    template: &ScenarioSet,
    master_seed: u64,
    reactive: bool,
) -> Result<String, String> {
    let spec = template
        .axes
        .iter()
        .filter_map(|axis| match axis {
            SweepAxis::Admission(specs) => Some(specs),
            _ => None,
        })
        .flatten()
        .find(|spec| matches!(spec, AdmissionSpec::LoadReactive { .. }) == reactive)
        .ok_or("the job template's admission sweep lacks a policy")?
        .clone();
    let mut set = template.clone();
    set.axes.clear();
    set.base.master_seed = master_seed;
    set.base.cells.as_mut().ok_or("the job template has no [cells] table")?.rnc_admission = spec;
    set.to_toml_string().map_err(scen_err)
}

/// File names inside a run's work directory.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Population `k`'s scenario file (the job template for
    /// `serve_commute`, which has only population 0).
    pub fn scenario(&self, k: usize) -> PathBuf {
        self.0.join(format!("scenario-{k}.toml"))
    }
    /// The `storm_warm` spill directory of population `k`, filled
    /// during set-up.
    pub fn spill(&self, k: usize) -> PathBuf {
        self.0.join(format!("spill-{k}"))
    }
    /// The reference digest set-up computed for population `k`.
    pub fn reference(&self, k: usize) -> PathBuf {
        self.0.join(format!("ref-{k}.txt"))
    }
    /// The `serve_commute` reference digests set-up computed, one
    /// `ref <master seed> <reactive> <digest>` line per job.
    pub fn job_references(&self) -> PathBuf {
        self.0.join("job-refs.txt")
    }
    /// The job list a `serve_commute` reference process runs.
    pub fn jobs(&self) -> PathBuf {
        self.0.join("jobs.txt")
    }
}

impl Workload {
    /// How many distinct populations set-up prepares.
    pub fn populations(self) -> usize {
        match self {
            Workload::ServeCommute => 1,
            _ => POPULATIONS,
        }
    }
}

/// Set-up of population `k`: generates its scenario from the library
/// file and the seed, writes it, parses the written file back, and
/// computes the digest the population's measured iterations are
/// checked against ([`WorkDir::reference`]):
/// - `iso_stress`: the population on one thread;
/// - `storm_cold`: the sweep on one thread with no cache;
/// - `storm_warm`: the sweep filling the population's spill directory,
///   then one unmeasured warm read of it, which must digest the same,
///   so the page cache holds the directory before timing starts;
/// - `serve_commute` writes only its job template here; the set-up
///   process computes its jobs' references.
pub fn setup(
    workload: Workload,
    root: &Path,
    seed: u64,
    dir: &WorkDir,
    k: usize,
) -> Result<(), String> {
    std::fs::create_dir_all(&dir.0).map_err(scen_err)?;
    let text = match workload {
        Workload::IsoStress => iso_scenario(root, seed, k)?.to_toml_string(),
        Workload::StormCold | Workload::StormWarm => storm_set(root, seed, k)?.to_toml_string(),
        Workload::ServeCommute => job_template(root)?.to_toml_string(),
    }
    .map_err(scen_err)?;
    std::fs::write(dir.scenario(k), text).map_err(scen_err)?;
    let set = ScenarioSet::from_file(dir.scenario(k)).map_err(scen_err)?;
    let digest = match workload {
        Workload::IsoStress => iso_run(&set.base, 1, Obs::none()).digest,
        Workload::StormCold => storm_run(&set, None, 1, Obs::none())?.digest,
        Workload::StormWarm => {
            let fill = storm_run(&set, Some(&dir.spill(k)), THREADS, Obs::none())?;
            let warm = storm_run(&set, Some(&dir.spill(k)), THREADS, Obs::none())?;
            if warm.digest != fill.digest {
                return Err(format!(
                    "population {k}: warm read digests {:016x}, the fill {:016x}",
                    warm.digest, fill.digest
                ));
            }
            fill.digest
        }
        Workload::ServeCommute => return Ok(()),
    };
    std::fs::write(dir.reference(k), format!("{digest:016x}\n")).map_err(scen_err)
}

/// What one unit of batch work produced.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// `RunManifest::digest()` of the run.
    pub digest: u64,
    /// Users simulated (summed over sweep cells).
    pub users: u64,
    /// User-days simulated (summed over sweep cells).
    pub user_days: u64,
    /// Packets simulated (summed over sweep cells).
    pub packets: u64,
    /// Wall seconds of the run itself.
    pub wall_s: f64,
    /// The manifest, with the recorder's timings when observed.
    pub manifest: RunManifest,
}

fn snapshot_of(obs: Obs<'_>) -> Snapshot {
    obs.recorder.snapshot()
}

/// One `iso_stress` unit: the population through the sharded runner.
pub fn iso_run(scenario: &Scenario, threads: usize, obs: Obs<'_>) -> UnitResult {
    let start = Instant::now();
    let report: FleetReport = run_observed(scenario, threads, obs);
    let wall_s = start.elapsed().as_secs_f64();
    let manifest =
        RunManifest::for_report(&report, threads, scenario.master_seed, &snapshot_of(obs));
    UnitResult {
        digest: manifest.digest(),
        users: report.users,
        user_days: report.user_days,
        packets: report.packets,
        wall_s,
        manifest,
    }
}

/// One storm unit: the whole admission sweep on `threads` threads,
/// against the spill directory `spill` (or no cache at all when
/// `None`).
pub fn storm_run(
    set: &ScenarioSet,
    spill: Option<&Path>,
    threads: usize,
    obs: Obs<'_>,
) -> Result<UnitResult, String> {
    let cache = spill.map(RequestCache::with_dir).transpose().map_err(scen_err)?;
    let start = Instant::now();
    let sweep: SweepReport = run_sweep_cached(set, threads, obs, cache.as_ref());
    let wall_s = start.elapsed().as_secs_f64();
    let manifest = RunManifest::for_sweep(&sweep, threads, set.base.master_seed, &snapshot_of(obs));
    Ok(UnitResult {
        digest: manifest.digest(),
        users: sweep.rows.iter().map(|r| r.report.users).sum(),
        user_days: sweep.rows.iter().map(|r| r.report.user_days).sum(),
        packets: sweep.rows.iter().map(|r| r.report.packets).sum(),
        wall_s,
        manifest,
    })
}

/// The batch digest of one `serve_commute` job: the same scenario text
/// run as a single in-process call against `cache`.
pub fn job_batch_digest(text: &str, cache: &RequestCache) -> Result<u64, String> {
    let set = ScenarioSet::from_toml_str(text).map_err(scen_err)?;
    let report = run_cached(&set.base, THREADS, Obs::none(), Some(cache));
    Ok(RunManifest::for_report(&report, THREADS, set.base.master_seed, &Snapshot::empty()).digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(2012, 1), derive_seed(2012, 1));
        assert_ne!(derive_seed(2012, 1), derive_seed(2012, 2));
        assert_ne!(derive_seed(2012, 1), derive_seed(2013, 1));
    }

    #[test]
    fn jobs_take_the_scaled_governor_from_the_template() {
        let template = job_template(Path::new("..")).unwrap();
        let admission = |reactive: bool| {
            let text = job_text(&template, 9, reactive).unwrap();
            let set = ScenarioSet::from_toml_str(&text).unwrap();
            assert!(set.axes.is_empty());
            assert_eq!(set.base.master_seed, 9);
            set.base.cells.unwrap().rnc_admission
        };
        // handoff_storm.toml sweeps `always` and `reactive:50:5` over
        // 600 users; 12 users scale the watermark to 1 msg/s.
        assert_eq!(admission(false), AdmissionSpec::Always);
        assert_eq!(
            admission(true),
            AdmissionSpec::LoadReactive { watermark_per_s: 1, window_s: 5 }
        );
    }

    #[test]
    fn reactive_watermarks_scale_with_the_population() {
        let spec = AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 };
        assert_eq!(
            scale_admission(&spec, 0.1),
            AdmissionSpec::LoadReactive { watermark_per_s: 5, window_s: 5 }
        );
        assert_eq!(scale_admission(&AdmissionSpec::Always, 0.1), AdmissionSpec::Always);
        assert_eq!(scale_count(3, 0.01), 1);
    }
}
