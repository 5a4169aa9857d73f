//! `tailwise-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md`.
//!
//! ```text
//! tailwise-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. Each run sets up (several times,
//! reporting the median), measures in a process of its own, checks the
//! output digests against a reference run, and prints every metric by
//! name and unit; the last line is one JSON object.

mod child;
mod output;
mod probe;
mod procfs;
mod serveload;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use child::ChildArgs;
use output::{Check, Outcome};
use workloads::{WorkDir, Workload};

/// Bumped whenever a change to the benchmark can move its numbers.
pub const BENCH_VERSION: &str = "perfbench/2";

/// Parsed `--key value` options.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--").ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn required<'a>(map: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    map.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn parse_options(map: &BTreeMap<String, String>) -> Result<Options, String> {
    let workload = Workload::parse(required(map, "workload")?)?;
    let seed = required(map, "seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 =
        map.get("seconds").map_or(Ok(10.0), |s| s.parse()).map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match map.get("trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Options { workload, seed, seconds, trace })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("child") {
        child_main(&args[1..])
    } else {
        orchestrate(&args)
    };
    std::process::exit(code);
}

fn child_main(args: &[String]) -> i32 {
    let parsed = (|| -> Result<ChildArgs, String> {
        let role = args.first().ok_or("child needs a role")?.clone();
        let map = flags(&args[1..])?;
        let opts = parse_options(&map)?;
        Ok(ChildArgs {
            role,
            workload: opts.workload,
            seed: opts.seed,
            dir: WorkDir(PathBuf::from(required(&map, "dir")?)),
            seconds: opts.seconds,
        })
    })();
    match parsed.and_then(|a| child::run(&a)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            1
        }
    }
}

/// One child's stdout, split into whitespace-separated fields per line.
type Lines = Vec<Vec<String>>;

fn split_lines(text: &str) -> Lines {
    text.lines().map(|l| l.split_whitespace().map(str::to_string).collect()).collect()
}

/// Spawns this binary as a child with `role`, waits for it, and returns
/// its output lines.
fn spawn(role: &str, opts: &Options, dir: &Path, extra: &[&str]) -> Result<Lines, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("child")
        .arg(role)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(extra)
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {role} process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {role} process failed ({})", out.status));
    }
    Ok(split_lines(&String::from_utf8_lossy(&out.stdout)))
}

fn orchestrate(args: &[String]) -> i32 {
    let opts = match flags(args).and_then(|m| parse_options(&m)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: tailwise-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    for file in [workloads::STRESS_FILE, workloads::STORM_FILE, workloads::HANDOFF_FILE] {
        if !Path::new(file).is_file() {
            eprintln!("perfbench: {file} not found; run from the root of a tailwise checkout");
            return 2;
        }
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let result = run_benchmark(&opts, &work);
    std::fs::remove_dir_all(&work).ok();
    // Only succeeds once no other run is using the directory.
    std::fs::remove_dir(".bench_work").ok();
    match result {
        Ok(outcome) => {
            print!("{}", outcome.render(opts.seed));
            if outcome.correct() {
                0
            } else {
                eprintln!("perfbench: output check failed");
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn run_benchmark(opts: &Options, work: &Path) -> Result<Outcome, String> {
    // One set-up process times each preparation in-process and, for
    // batch work, computes the reference digests.
    let dir = WorkDir(work.join("setup"));
    let lines = spawn("setup", opts, &dir.0, &[])?;
    let setup_walls = tagged(&lines, "setup_s")
        .map(|f| f[0].parse::<f64>().map_err(|_| format!("bad set-up line {f:?}")))
        .collect::<Result<Vec<f64>, String>>()?;
    let setup_s = stats::median(&setup_walls).ok_or("the set-up process timed nothing")?;

    let measured = spawn("measure", opts, &dir.0, &[])?;
    let measured = output::Measured::parse(opts.workload, &measured)?;
    let traced = if opts.trace { Some(spawn("trace", opts, &dir.0, &[])?) } else { None };
    let check = reference_check(opts, &dir, &measured, traced.as_deref())?;
    Ok(Outcome { workload: opts.workload, trace: opts.trace, setup_s, measured, traced, check })
}

/// Reference digests for the documented seeds, `workload seed digest`
/// per line: population 0 for batch workloads, connection 0's first
/// job for `serve_commute`.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

fn stored_digest(workload: Workload, seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, d] if *w == workload.name() && s.parse() == Ok(seed) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// Fields 1.. of every line tagged `tag`.
fn tagged<'a>(lines: &'a [Vec<String>], tag: &'a str) -> impl Iterator<Item = &'a [String]> {
    lines.iter().filter(move |l| l.first().map(String::as_str) == Some(tag)).map(|l| &l[1..])
}

fn parse_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|_| format!("bad digest {text:?}"))
}

/// Checks every measured and traced digest against a reference: the
/// digests set-up computed for the batch workloads, the reference
/// process for `serve_commute` — and against the stored digest when the
/// seed has one.
fn reference_check(
    opts: &Options,
    dir: &WorkDir,
    measured: &output::Measured,
    traced: Option<&[Vec<String>]>,
) -> Result<Check, String> {
    let traced = traced.unwrap_or_default();
    let stored = stored_digest(opts.workload, opts.seed);
    match opts.workload {
        Workload::ServeCommute => {
            let traced_jobs = output::Measured::jobs_of(traced);
            let mut specs: Vec<(u64, bool)> = measured
                .jobs
                .iter()
                .chain(&traced_jobs)
                .map(|j| (j.master_seed, j.reactive))
                .collect();
            // Set-up's references first; a reference process runs the rest.
            let read = std::fs::read_to_string(dir.job_references()).map_err(|e| e.to_string())?;
            let mut lines = split_lines(&read);
            let covered: Vec<(u64, bool)> = tagged(&lines, "ref")
                .filter_map(|f| Some((f.first()?.parse().ok()?, f.get(1)? == "1")))
                .collect();
            specs.retain(|spec| !covered.contains(spec));
            specs.sort_unstable();
            specs.dedup();
            if !specs.is_empty() {
                let list: String =
                    specs.iter().map(|(s, r)| format!("{s} {}\n", u8::from(*r))).collect();
                std::fs::write(dir.jobs(), list).map_err(|e| e.to_string())?;
                lines.extend(spawn("reference", opts, &dir.0, &[])?);
            }
            let mut refs = BTreeMap::new();
            for f in tagged(&lines, "ref") {
                if let [seed, reactive, digest] = f {
                    let seed: u64 = seed.parse().map_err(|_| "bad reference line")?;
                    refs.insert((seed, reactive == "1"), parse_hex(digest)?);
                }
            }
            Ok(Check::for_jobs(&measured.jobs, &traced_jobs, &refs, stored))
        }
        workload => {
            let mut refs = BTreeMap::new();
            for k in 0..workload.populations() {
                let text = std::fs::read_to_string(dir.reference(k)).map_err(|e| e.to_string())?;
                refs.insert(k, parse_hex(text.trim())?);
            }
            let traced_digests: Vec<u64> =
                tagged(traced, "traced_digest").filter_map(|f| parse_hex(&f[0]).ok()).collect();
            Ok(Check::for_batch(&measured.iters, &traced_digests, &refs, stored))
        }
    }
}
