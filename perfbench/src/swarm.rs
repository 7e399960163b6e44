//! `serve-swarm`: an in-process daemon (`ServeConfig` defaults, 2
//! workers) takes submissions from 2 client threads in a closed loop,
//! each waiting for `Done` before it submits again, as `eaao submit`
//! callers do. Every submission is one of four small campaigns of quick
//! `fig6`/`sec4.2` cells with an output directory of its own, so
//! framing, the outbound queue and the sink dominate.
//!
//! * set-up: start the daemon and run the four campaigns in-process
//!   through `Campaign::run` (the batch path), nine times (median; the
//!   last daemon serves);
//! * `wall_s`: wall time of all submissions; `throughput_per_s`:
//!   campaigns per second; latency: submit to last record;
//! * check: every streamed record's `content_hash` equals the batch
//!   path's, and the batch records match their pins. `Busy`,
//!   `Rejected` and `Error` frames and failed runs count as failures.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eaao_campaign::engine::Campaign;
use eaao_campaign::runner::RunRecord;
use eaao_campaign::sink::{JsonlSink, RecordSink};
use eaao_campaign::spec::{CampaignSpec, KNOWN_REGIONS};
use eaao_serve::proto::{read_frame, write_frame, ClientFrame, ServerFrame, PROTOCOL_VERSION};
use eaao_serve::{ServeConfig, Server};
use parking_lot::Mutex;

use crate::digest::{fnv1a, hex, zero_wall_ms};
use crate::report::Outcome;
use crate::stats::{median, nearest_rank};
use crate::Args;

/// Distinct campaigns the clients submit.
const SPECS: usize = 4;

/// Client threads, each a closed loop.
const CLIENTS: usize = 2;

/// Submissions per measured second.
const SUBMISSIONS_PER_SECOND: u64 = 60;

/// Set-up repetitions (the median is reported).
const SETUP_REPEATS: usize = 9;

/// The `k`th campaign of one input seed: 2 experiments × 3 regions × 2
/// seeds of quick cells.
pub fn spec(seed: u64, k: usize) -> CampaignSpec {
    CampaignSpec {
        name: format!("swarm-{k}"),
        experiments: vec!["fig6".to_owned(), "sec4.2".to_owned()],
        regions: KNOWN_REGIONS.iter().map(|r| (*r).to_owned()).collect(),
        seeds: 2,
        seed: seed.wrapping_mul(31).wrapping_add(k as u64),
        quick: true,
        ..CampaignSpec::default()
    }
}

/// Collects the records a batch campaign tees out.
#[derive(Debug, Default)]
struct Collect(Mutex<Vec<RunRecord>>);

impl RecordSink for Collect {
    fn record(&self, record: &RunRecord) -> std::io::Result<()> {
        self.0.lock().push(record.clone());
        Ok(())
    }
}

/// The batch path of one campaign: its wall time and records.
fn batch(spec: &CampaignSpec, dir: &Path) -> (f64, Vec<RunRecord>) {
    let sink = Arc::new(Collect::default());
    let started = Instant::now();
    Campaign::new(spec.clone(), dir)
        .jobs(ServeConfig::default().jobs)
        .tee(sink.clone())
        .run()
        .expect("batch campaign runs");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let records = std::mem::take(&mut *sink.0.lock());
    (wall_ms, records)
}

/// Digest of a batch campaign's records in grid order, `wall_ms` zeroed.
fn records_digest(records: &[RunRecord]) -> String {
    let mut lines: Vec<(u64, String)> = records
        .iter()
        .map(|r| {
            (
                r.index,
                zero_wall_ms(&serde_json::to_string(r).expect("record serializes")),
            )
        })
        .collect();
    lines.sort();
    let text: String = lines.into_iter().map(|(_, line)| line + "\n").collect();
    hex(fnv1a(text.as_bytes()))
}

/// The pinned batch digests of one seed class.
pub fn pin(seed: u64, scratch: &Path) -> BTreeMap<String, String> {
    (0..SPECS)
        .map(|k| {
            let (_, records) = batch(&spec(seed, k), &scratch.join(format!("pin-{k}")));
            (format!("swarm-{k}"), records_digest(&records))
        })
        .collect()
}

/// Counts the bytes read through it.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// What one submission saw, times in ms from the `Submit` frame.
#[derive(Debug, Default)]
struct Submission {
    spec: usize,
    ok: bool,
    accepted_ms: f64,
    first_record_ms: f64,
    last_record_ms: f64,
    record_gaps_us: Vec<f64>,
    done_lag_us: f64,
    run_ms: Vec<f64>,
    bytes: u64,
}

/// One closed-loop submission over a fresh connection, checking every
/// streamed record against the batch hashes.
fn submit(
    addr: SocketAddr,
    spec_json: &str,
    out: &str,
    expected: &BTreeMap<String, u64>,
) -> Submission {
    let mut seen = Submission::default();
    let result = (|| -> Result<bool, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = Counting {
            inner: BufReader::new(read_half),
            bytes: 0,
        };
        let mut writer = BufWriter::new(stream);
        let next = |reader: &mut Counting<_>| -> Result<ServerFrame, String> {
            read_frame(reader)
                .map_err(|e| format!("{e:?}"))?
                .ok_or_else(|| "closed".to_owned())
        };
        write_frame(
            &mut writer,
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| format!("{e:?}"))?;
        if !matches!(next(&mut reader)?, ServerFrame::Welcome { .. }) {
            return Err("no Welcome".to_owned());
        }
        let submit = ClientFrame::Submit {
            spec: spec_json.to_owned(),
            out: Some(out.to_owned()),
        };
        let started = Instant::now();
        let ms = || started.elapsed().as_secs_f64() * 1e3;
        write_frame(&mut writer, &submit).map_err(|e| format!("{e:?}"))?;
        let mut matched = 0;
        let mut last = None;
        loop {
            match next(&mut reader)? {
                ServerFrame::Accepted { .. } => seen.accepted_ms = ms(),
                ServerFrame::Record { json, .. } => {
                    let now = ms();
                    match last {
                        None => seen.first_record_ms = now,
                        Some(previous) => seen.record_gaps_us.push((now - previous) * 1e3),
                    }
                    last = Some(now);
                    let record: RunRecord =
                        serde_json::from_str(&json).map_err(|e| e.to_string())?;
                    seen.run_ms.push(record.wall_ms);
                    if record.is_ok() && expected.get(&record.key) == Some(&record.content_hash()) {
                        matched += 1;
                    } else {
                        eprintln!(
                            "perfbench: serve-swarm record {} differs from batch",
                            record.key
                        );
                    }
                }
                ServerFrame::Done {
                    failed, complete, ..
                } => {
                    let now = ms();
                    seen.last_record_ms = last.unwrap_or(now);
                    seen.done_lag_us = (now - seen.last_record_ms) * 1e3;
                    seen.bytes = reader.bytes;
                    return Ok(failed == 0 && complete && matched == expected.len());
                }
                other => return Err(format!("refused: {other:?}")),
            }
        }
    })();
    seen.ok = result.unwrap_or_else(|error| {
        eprintln!("perfbench: serve-swarm submission {out} failed: {error}");
        false
    });
    seen
}

/// A started daemon with its batch references.
struct Daemon {
    server: Server,
    batch_ms: Vec<f64>,
    records: Vec<Vec<RunRecord>>,
}

/// Starts the daemon and runs the batch path of every campaign,
/// tallying the batch digests against their pins.
fn start(out: &mut Outcome, class: u64, specs: &[CampaignSpec], root: &Path) -> Daemon {
    let server = Server::start(ServeConfig {
        out_root: root.join("served"),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut batch_ms = Vec::new();
    let mut batch_records = Vec::new();
    let mut computed = BTreeMap::new();
    for (k, spec) in specs.iter().enumerate() {
        let (ms, records) = batch(spec, &root.join(format!("batch-{k}")));
        computed.insert(format!("swarm-{k}"), records_digest(&records));
        batch_ms.push(ms);
        batch_records.push(records);
    }
    let bad = crate::digest::mismatches("serve-swarm", class, &computed);
    out.tally(specs.len() as u64, bad as u64);
    Daemon {
        server,
        batch_ms,
        records: batch_records,
    }
}

fn stop(server: Server) {
    server.shutdown();
    server.wait().expect("daemon drains cleanly");
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome, scratch: &Path) {
    let (class, seed) = crate::digest::input_seed(args.seed);
    let specs: Vec<CampaignSpec> = (0..SPECS).map(|k| spec(seed, k)).collect();
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            stop(previous.server);
        }
        let started = Instant::now();
        daemon = Some(start(
            out,
            class,
            &specs,
            &scratch.join(format!("setup-{i}")),
        ));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("started");
    out.set(
        "setup_s",
        median(&setup_s),
        format!("median of {SETUP_REPEATS} daemon starts + batch runs"),
    );

    let spec_json: Vec<String> = specs
        .iter()
        .map(|s| serde_json::to_string(s).expect("spec serializes"))
        .collect();
    let expected: Vec<BTreeMap<String, u64>> = daemon
        .records
        .iter()
        .map(|records| {
            let hashes = records.iter().map(|r| (r.key.clone(), r.content_hash()));
            hashes.collect()
        })
        .collect();
    let total = (args.seconds * SUBMISSIONS_PER_SECOND).max(CLIENTS as u64) as usize;
    let addr = daemon.server.addr();
    let started = Instant::now();
    let submissions: Vec<Submission> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (spec_json, expected) = (&spec_json, &expected);
                scope.spawn(move || {
                    (client..total)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let k = i % SPECS;
                            let mut seen =
                                submit(addr, &spec_json[k], &format!("sub-{i}"), &expected[k]);
                            seen.spec = k;
                            seen
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let Daemon {
        server,
        batch_ms,
        records: batch_records,
    } = daemon;
    stop(server);

    let failed = submissions.iter().filter(|s| !s.ok).count() as u64;
    out.tally(submissions.len() as u64, failed);
    let latency: Vec<f64> = submissions.iter().map(|s| s.last_record_ms).collect();
    out.set(
        "wall_s",
        wall_s,
        format!("{} submissions from {CLIENTS} clients", submissions.len()),
    );
    out.set(
        "throughput_per_s",
        submissions.len() as f64 / wall_s,
        "campaigns/s",
    );
    out.set_latency(&latency, "submissions (submit to last record)");
    if !args.trace {
        return;
    }

    let mut p50 = |name: &str, values: Vec<f64>, what: &str| {
        let note = format!("p50 of {} {what}", values.len());
        out.set(name, median(&values), note);
    };
    let each = |f: fn(&Submission) -> f64| submissions.iter().map(f).collect::<Vec<f64>>();
    p50(
        "serve.accepted_ms_p50",
        each(|s| s.accepted_ms),
        "submissions",
    );
    p50(
        "serve.first_record_ms_p50",
        each(|s| s.first_record_ms),
        "submissions",
    );
    p50(
        "serve.done_lag_us_p50",
        each(|s| s.done_lag_us),
        "submissions",
    );
    let gaps = submissions
        .iter()
        .flat_map(|s| s.record_gaps_us.clone())
        .collect();
    p50("serve.record_gap_us_p50", gaps, "record gaps");
    let overhead = submissions
        .iter()
        .map(|s| s.last_record_ms - batch_ms[s.spec])
        .collect();
    p50(
        "serve.overhead_ms_p50",
        overhead,
        "submissions minus their batch run",
    );
    let bytes: u64 = submissions.iter().map(|s| s.bytes).sum();
    out.set(
        "serve.bytes_streamed",
        bytes as f64,
        "bytes read by the clients",
    );
    let mut run_ms: Vec<f64> = submissions.iter().flat_map(|s| s.run_ms.clone()).collect();
    run_ms.sort_by(f64::total_cmp);
    let note = format!("{} streamed records' wall_ms", run_ms.len());
    out.set(
        "campaign.run_ms_p50",
        nearest_rank(&run_ms, 50.0),
        note.clone(),
    );
    out.set("campaign.run_ms_p95", nearest_rank(&run_ms, 95.0), note);
    out.set(
        "campaign.sink_record_us",
        sink_record_us(&batch_records[0], scratch),
        "JsonlSink::record per batch record",
    );
}

/// Mean time `JsonlSink::record` takes over a batch run's records, µs.
fn sink_record_us(records: &[RunRecord], scratch: &Path) -> f64 {
    let sink = JsonlSink::open(&scratch.join("sink")).expect("sink opens");
    let rounds = 50;
    let started = Instant::now();
    for _ in 0..rounds {
        for record in records {
            sink.record(record).expect("sink writes");
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (rounds * records.len()) as f64
}
