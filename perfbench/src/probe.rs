//! The traced layer probe: pushes a sample of a workload's users
//! through each layer's public functions, one span per call, and
//! counts the work each layer does.

use std::collections::HashMap;
use std::path::Path;

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{merge_requests, rnc_of_cell, FleetReport, NetworkTopology, Scenario};
use tailwise_radio::admission::REQUEST_MESSAGES;
use tailwise_sim::policy::{IdleContext, IdleDecision, IdlePolicy};
use tailwise_sim::{record_requests, replay_requests, ReplayOutcome};
use tailwise_trace::io::{
    read_replay_outcomes, read_request_streams, write_replay_outcomes, write_request_streams,
};
use tailwise_trace::time::{Duration, Instant};

use crate::spans::Tracer;

/// An [`IdlePolicy`] decorator that counts `decide` calls.
pub struct CountingPolicy {
    inner: Box<dyn IdlePolicy>,
    /// `decide` calls so far.
    pub calls: u64,
}

impl CountingPolicy {
    /// Wraps `inner` with a zeroed count.
    pub fn new(inner: Box<dyn IdlePolicy>) -> CountingPolicy {
        CountingPolicy { inner, calls: 0 }
    }
}

impl IdlePolicy for CountingPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &IdleContext<'_>, actual_gap: Duration) -> IdleDecision {
        self.calls += 1;
        self.inner.decide(ctx, actual_gap)
    }

    fn uses_window(&self) -> bool {
        self.inner.uses_window()
    }
}

fn counting(scheme: &Scheme, trace: &tailwise_trace::Trace) -> Result<CountingPolicy, String> {
    let policy = scheme
        .idle_policy(trace)
        .ok_or_else(|| format!("scheme {} has no idle policy", scheme.label()))?;
    Ok(CountingPolicy::new(policy))
}

/// Exact work counts from one probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeCounts {
    /// Users probed.
    pub users: u64,
    /// Their user-days.
    pub user_days: u64,
    /// Packets synthesized.
    pub packets: u64,
    /// Phase-1 fast-dormancy requests.
    pub requests: u64,
    /// Requests the RNC merges emitted.
    pub merged: u64,
    /// Requests the probe's gates denied.
    pub denied: u64,
    /// `decide` calls in phase 1 (`record_requests`).
    pub decide_phase1: u64,
    /// `decide` calls in phase 2 (`replay_requests`).
    pub decide_phase2: u64,
    /// `decide` calls in the full engine run of the scheme.
    pub decide_engine: u64,
}

struct ProbedUser {
    profile: tailwise_radio::profile::CarrierProfile,
    trace: tailwise_trace::Trace,
    requests: Vec<Instant>,
    baseline_energy_j: f64,
    baseline_switches: u64,
}

/// Runs the first `users` users of `scenario` through every layer:
/// generate → record (counted) → engine (counted, plus status quo) →
/// per-RNC merge and gates → replay (counted) → fold → render. The
/// `.twc`/`.twr` codecs are timed on a workload's own spill files
/// instead ([`spill_codec`]).
pub fn probe(scenario: &Scenario, users: u64, tracer: &mut Tracer) -> Result<ProbeCounts, String> {
    tracer.span("probe.run", scenario.master_seed, |t| probe_inner(scenario, users, t))
}

fn probe_inner(scenario: &Scenario, users: u64, t: &mut Tracer) -> Result<ProbeCounts, String> {
    let users = users.min(scenario.users);
    let days = scenario.days_per_user.max(1);
    let scheme = scenario.scheme;
    let sim = &scenario.sim;
    let mut counts =
        ProbeCounts { users, user_days: users * days as u64, ..ProbeCounts::default() };

    // Phase 1 and the radio-isolated engine, user by user.
    let mut probed = Vec::with_capacity(users as usize);
    for i in 0..users {
        let user = t.span("probe.user", i, |t| -> Result<ProbedUser, String> {
            let (profile, model) = t.span("workload.user", i, |_| scenario.user(i));
            let trace = t.span("workload.generate", i, |_| model.generate());
            counts.packets += trace.len() as u64;
            let mut phase1 = counting(&scheme, &trace)?;
            let requests =
                t.span("sim.record", i, |_| record_requests(&profile, sim, &trace, &mut phase1));
            counts.decide_phase1 += phase1.calls;
            counts.requests += requests.len() as u64;
            let mut engine = counting(&scheme, &trace)?;
            let baseline = t.span("sim.engine", i, |_| {
                tailwise_sim::run(&profile, sim, &trace, &mut engine);
                Scheme::StatusQuo.run(&profile, sim, &trace)
            });
            counts.decide_engine += engine.calls;
            Ok(ProbedUser {
                profile,
                trace,
                requests: requests.into_times(),
                baseline_energy_j: baseline.total_energy(),
                baseline_switches: baseline.switch_cycles(),
            })
        })?;
        probed.push(user);
    }

    // Adjudication: each RNC merges the requests its cells forward and
    // runs them through the cell gate, then its own.
    let topology = scenario.cells.clone().unwrap_or_else(|| NetworkTopology::new(1));
    let verdicts =
        t.span("fleet.adjudicate", 0, |t| adjudicate(scenario, &topology, &probed, &mut counts, t));

    // Phase 2 and the fold, shard by shard in user order.
    let mut total = FleetReport::empty(scenario.name.clone(), scheme.label());
    let mut partial = FleetReport::empty(scenario.name.clone(), scheme.label());
    for (i, user) in probed.iter().enumerate() {
        let i = i as u64;
        let mut phase2 = counting(&scheme, &user.trace)?;
        let report = t.span("sim.replay", i, |_| {
            replay_requests(&user.profile, sim, &user.trace, &mut phase2, &verdicts[i as usize])
        });
        counts.decide_phase2 += phase2.calls;
        let outcome = ReplayOutcome::of(&report);
        t.span("fleet.fold", i, |_| {
            partial.fold_user_outcome(
                days,
                &outcome,
                user.baseline_energy_j,
                user.baseline_switches,
            )
        });
        if (i + 1).is_multiple_of(scenario.shard_size.max(1)) || i + 1 == users {
            t.span("fleet.fold", i, |_| total.merge(&partial));
            partial = FleetReport::empty(scenario.name.clone(), scheme.label());
        }
    }
    t.span("fleet.render", 0, |_| total.render());
    Ok(counts)
}

/// Per-RNC merge plus both admission gates. Returns one verdict per
/// phase-1 request, per user.
fn adjudicate(
    scenario: &Scenario,
    topology: &NetworkTopology,
    probed: &[ProbedUser],
    counts: &mut ProbeCounts,
    t: &mut Tracer,
) -> Vec<Vec<bool>> {
    let seed = scenario.master_seed;
    let rncs = topology.rncs as usize;
    // Split every user's stream by the RNC serving each request.
    let mut streams: Vec<Vec<(u64, Vec<Instant>)>> = vec![Vec::new(); rncs];
    let mut origin: Vec<HashMap<u64, Vec<(usize, u64)>>> = vec![HashMap::new(); rncs];
    for (i, user) in probed.iter().enumerate() {
        let i = i as u64;
        for (j, &at) in user.requests.iter().enumerate() {
            let cell = topology.user_cell(seed, i, at);
            let rnc = rnc_of_cell(cell, topology.cells, topology.rncs) as usize;
            let list = &mut streams[rnc];
            if list.last().map(|(u, _)| *u) != Some(i) {
                list.push((i, Vec::new()));
            }
            list.last_mut().expect("just pushed").1.push(at);
            origin[rnc].entry(i).or_default().push((j, cell));
        }
    }
    let mut verdicts: Vec<Vec<bool>> =
        probed.iter().map(|u| vec![false; u.requests.len()]).collect();
    let fd = topology.signaling.per_fd_demotion;
    let mut cell_gates: Vec<_> =
        (0..topology.cells).map(|_| topology.cell_admission.build()).collect();
    for rnc in 0..rncs {
        let merged = t.span("fleet.merge", rnc as u64, |_| merge_requests(&streams[rnc]));
        counts.merged += merged.len() as u64;
        let mut rnc_gate = topology.rnc_admission.build();
        t.span("fleet.gates", rnc as u64, |_| {
            for (at, user, seq) in merged {
                let (j, cell) = origin[rnc][&user][seq as usize];
                let gate = &mut cell_gates[cell as usize];
                let ok = gate.admit(at) && rnc_gate.admit(at);
                let messages = if ok { fd } else { REQUEST_MESSAGES };
                gate.observe(at, messages);
                rnc_gate.observe(at, messages);
                counts.denied += u64::from(!ok);
                verdicts[user as usize][j] = ok;
            }
        });
    }
    verdicts
}

/// Bytes of and codec time over a run's own spill files.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillCodec {
    /// Total `.twc` bytes.
    pub twc_bytes: u64,
    /// Total `.twr` bytes.
    pub twr_bytes: u64,
}

/// Decodes every `.twc`/`.twr` file in `dir` from memory and encodes
/// the decoded contents back, one span per file and direction.
pub fn spill_codec(dir: &Path, t: &mut Tracer) -> Result<SpillCodec, String> {
    let mut out = SpillCodec::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or_default().to_string();
        if ext != "twc" && ext != "twr" {
            continue;
        }
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let len = bytes.len() as u64;
        let mut sink = Vec::with_capacity(bytes.len());
        if ext == "twc" {
            out.twc_bytes += len;
            let (header, streams) = t
                .span("cache.twc_decode", len, |_| read_request_streams(&bytes[..]))
                .map_err(|e| e.to_string())?;
            t.span("cache.twc_encode", len, |_| {
                write_request_streams(&header, &streams, &mut sink)
            })
            .map_err(|e| e.to_string())?;
        } else {
            out.twr_bytes += len;
            let (header, records) = t
                .span("cache.twr_decode", len, |_| read_replay_outcomes(&bytes[..]))
                .map_err(|e| e.to_string())?;
            t.span("cache.twr_encode", len, |_| {
                write_replay_outcomes(&header, &records, &mut sink)
            })
            .map_err(|e| e.to_string())?;
        }
        if sink.len() as u64 != len {
            return Err(format!(
                "{} re-encodes to {} bytes, not {len}",
                path.display(),
                sink.len()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_workload::apps::AppKind;

    #[test]
    fn counting_policy_counts_every_decide_and_changes_nothing() {
        let mut scenario = Scenario::new(1, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        scenario.app_mix = vec![(AppKind::Finance, 1.0)];
        let (profile, model) = scenario.user(0);
        let trace = model.generate();
        let mut counted = counting(&scenario.scheme, &trace).unwrap();
        let requests = record_requests(&profile, &scenario.sim, &trace, &mut counted);
        let plain = scenario.scheme.request_trace(&profile, &scenario.sim, &trace).unwrap();
        assert_eq!(requests, plain);
        // One decide per gap, the trailing flush included.
        assert_eq!(counted.calls, trace.len() as u64);
    }
}
