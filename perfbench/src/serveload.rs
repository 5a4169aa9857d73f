//! The closed-loop load generator for `serve_commute`: each connection
//! submits one job, waits for its report and manifest, then submits
//! the next, alternating a fresh population with a rerun of the
//! previous one under the other RNC admission policy.

use std::time::Instant;

use tailwise_fleet::RunManifest;
use tailwise_serve::{Client, ClientMsg, ServerMsg};

use crate::workloads::derive_seed;

/// Fresh population or rerun of the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A new `master_seed` drawn from the workload seed.
    Fresh,
    /// The previous job's population, other admission policy.
    Rerun,
}

/// What to submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Connection that submits it.
    pub conn: usize,
    /// Position in that connection's sequence.
    pub index: usize,
    /// Fresh or rerun.
    pub kind: JobKind,
    /// Population seed.
    pub master_seed: u64,
    /// Load-reactive RNC admission (otherwise always-accept).
    pub reactive: bool,
}

/// Client-side record of one job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Seconds from submit to the report and manifest both received.
    pub latency_s: f64,
    /// Seconds from acceptance to the first progress (or row) message.
    pub queue_wait_s: f64,
    /// Seconds from the last row to the report and manifest received.
    pub stream_tail_s: f64,
    /// Server messages received for the job.
    pub msgs: u64,
    /// Bytes of those messages on the wire, newlines included.
    pub bytes: u64,
    /// Digest of the streamed manifest.
    pub digest: Option<u64>,
    /// User-days the manifest reports.
    pub user_days: u64,
    /// Packets the manifest reports.
    pub packets: u64,
    /// The streamed manifest, parsed.
    pub manifest: Option<RunManifest>,
    /// The received lines, kept only when asked (for decode timing).
    pub lines: Vec<String>,
    /// Why the job failed, if it did.
    pub error: Option<String>,
}

/// One connection's way of running a job to completion.
pub trait JobConn {
    /// Submits `spec` and blocks until its terminal message.
    fn run_job(&mut self, spec: &JobSpec) -> JobRecord;
}

/// The `index`-th job of connection `conn`: even positions are fresh
/// populations, odd positions rerun the previous one with the other
/// admission policy.
pub fn job_spec(workload_seed: u64, conn: usize, index: usize) -> JobSpec {
    let pair = index / 2;
    let master_seed = derive_seed(workload_seed, ((conn as u64) << 32 | pair as u64) + 16);
    let fresh_reactive = (conn + pair) % 2 == 1;
    let kind = if index.is_multiple_of(2) { JobKind::Fresh } else { JobKind::Rerun };
    let reactive = if kind == JobKind::Fresh { fresh_reactive } else { !fresh_reactive };
    JobSpec { conn, index, kind, master_seed, reactive }
}

/// Runs `connections` closed loops until `deadline`: a connection
/// submits its next job only after the previous one finished, and
/// submits none once the deadline has passed. Opens exactly one
/// connection per loop, through `connect`.
pub fn closed_loop<C, F>(
    connections: usize,
    workload_seed: u64,
    deadline: Instant,
    connect: F,
) -> Result<Vec<(JobSpec, JobRecord)>, String>
where
    C: JobConn,
    F: Fn(usize) -> std::io::Result<C> + Sync,
{
    let results: Vec<Result<Vec<(JobSpec, JobRecord)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let connect = &connect;
                scope.spawn(move || {
                    let mut client = connect(conn).map_err(|e| format!("connect: {e}"))?;
                    let mut done = Vec::new();
                    let mut index = 0;
                    while Instant::now() < deadline {
                        let spec = job_spec(workload_seed, conn, index);
                        let record = client.run_job(&spec);
                        done.push((spec, record));
                        index += 1;
                    }
                    Ok(done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// A real connection to the in-process server.
pub struct ServeConn<'a> {
    client: Client,
    make_text: &'a (dyn Fn(&JobSpec) -> Result<String, String> + Sync),
    keep_lines: bool,
}

impl<'a> ServeConn<'a> {
    /// Connects to `addr`; `make_text` renders a job's scenario.
    pub fn connect(
        addr: std::net::SocketAddr,
        make_text: &'a (dyn Fn(&JobSpec) -> Result<String, String> + Sync),
        keep_lines: bool,
    ) -> std::io::Result<ServeConn<'a>> {
        Ok(ServeConn { client: Client::connect(addr)?, make_text, keep_lines })
    }
}

impl JobConn for ServeConn<'_> {
    fn run_job(&mut self, spec: &JobSpec) -> JobRecord {
        let mut record = JobRecord::default();
        match (self.make_text)(spec) {
            Ok(text) => {
                if let Err(e) =
                    submit_and_collect(&mut self.client, text, self.keep_lines, &mut record)
                {
                    record.error = Some(e);
                }
            }
            Err(e) => record.error = Some(e),
        }
        record
    }
}

/// Submits one scenario text and reads the job's stream to its end,
/// timing the client-visible phases.
pub fn submit_and_collect(
    client: &mut Client,
    scenario: String,
    keep_lines: bool,
    record: &mut JobRecord,
) -> Result<(), String> {
    let submitted = Instant::now();
    client.send(&ClientMsg::Submit { scenario }).map_err(|e| format!("submit: {e}"))?;
    let mut accepted = None;
    let mut first_activity = None;
    let mut last_row = None;
    let mut manifest_text = None;
    loop {
        let msg = client
            .recv()
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection mid-job")?;
        let now = Instant::now();
        let line = msg.encode();
        record.msgs += 1;
        record.bytes += line.len() as u64 + 1;
        if keep_lines {
            record.lines.push(line);
        }
        match msg {
            ServerMsg::Accepted { .. } => accepted = Some(now),
            ServerMsg::Progress { .. } => {
                first_activity.get_or_insert(now);
            }
            ServerMsg::Row { .. } => {
                first_activity.get_or_insert(now);
                last_row = Some(now);
            }
            ServerMsg::Manifest { text, .. } => {
                // The report precedes the manifest on the stream, so
                // this is when the caller holds both.
                manifest_text = Some(text);
                record.latency_s = (now - submitted).as_secs_f64();
                if let Some(row) = last_row {
                    record.stream_tail_s = (now - row).as_secs_f64();
                }
            }
            ServerMsg::Done { .. } => break,
            ServerMsg::Failed { error, .. } => return Err(format!("job failed: {error}")),
            ServerMsg::Cancelled { .. } => return Err("job was cancelled".into()),
            ServerMsg::Error { message } => return Err(format!("server error: {message}")),
            _ => {}
        }
    }
    let accepted = accepted.ok_or("no accepted message")?;
    record.queue_wait_s =
        (first_activity.ok_or("no progress or row message")? - accepted).as_secs_f64();
    let text = manifest_text.ok_or("no manifest message")?;
    let manifest = RunManifest::from_toml_str(&text).map_err(|e| format!("manifest: {e}"))?;
    record.digest = Some(manifest.digest());
    record.user_days = manifest.reports.iter().map(|r| r.user_days).sum();
    record.packets = manifest.reports.iter().map(|r| r.packets).sum();
    record.manifest = Some(manifest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Counts live and total connections of a [`closed_loop`] — used by
    /// the self-check that the generator never exceeds its connection
    /// count.
    #[derive(Debug, Default)]
    struct ConnCounter {
        /// Connections opened in total.
        opened: AtomicUsize,
        /// Connections open right now.
        live: AtomicUsize,
        /// Most connections ever open at once.
        peak: AtomicUsize,
    }

    impl ConnCounter {
        fn open(&self) {
            self.opened.fetch_add(1, Ordering::SeqCst);
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(live, Ordering::SeqCst);
        }
    }

    struct FakeConn<'a> {
        counter: &'a ConnCounter,
        in_flight: &'a AtomicUsize,
        max_in_flight: &'a AtomicUsize,
    }

    impl JobConn for FakeConn<'_> {
        fn run_job(&mut self, _spec: &JobSpec) -> JobRecord {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            JobRecord { latency_s: 0.002, digest: Some(1), ..JobRecord::default() }
        }
    }

    impl Drop for FakeConn<'_> {
        fn drop(&mut self) {
            self.counter.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn closed_loop_never_opens_more_connections_than_asked() {
        for connections in [1, 2, 3] {
            let counter = ConnCounter::default();
            let in_flight = AtomicUsize::new(0);
            let max_in_flight = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_millis(60);
            let jobs = closed_loop(connections, 9, deadline, |_| {
                counter.open();
                Ok(FakeConn {
                    counter: &counter,
                    in_flight: &in_flight,
                    max_in_flight: &max_in_flight,
                })
            })
            .unwrap();
            assert_eq!(counter.opened.load(Ordering::SeqCst), connections);
            assert!(counter.peak.load(Ordering::SeqCst) <= connections);
            assert_eq!(counter.live.load(Ordering::SeqCst), 0);
            // Closed loop: at most one job in flight per connection.
            assert!(max_in_flight.load(Ordering::SeqCst) <= connections);
            assert!(jobs.len() >= connections);
        }
    }

    #[test]
    fn jobs_alternate_fresh_and_rerun_with_flipped_admission() {
        for conn in 0..2 {
            for pair in 0..4 {
                let fresh = job_spec(5, conn, 2 * pair);
                let rerun = job_spec(5, conn, 2 * pair + 1);
                assert_eq!((fresh.kind, rerun.kind), (JobKind::Fresh, JobKind::Rerun));
                assert_eq!(fresh.master_seed, rerun.master_seed);
                assert_ne!(fresh.reactive, rerun.reactive);
            }
        }
        assert_ne!(job_spec(5, 0, 0).master_seed, job_spec(5, 0, 2).master_seed);
        assert_ne!(job_spec(5, 0, 0).master_seed, job_spec(5, 1, 0).master_seed);
    }
}
