//! `serve`: the in-process analysis service (`dpr-serve`, default two
//! analysis workers and queue capacity) under an open-loop upload
//! schedule, with status polls and result reads beside the uploads.
//!
//! Each upload decodes its capture before the `202`. Both workers run
//! GP with the pool at the program's default width, so two concurrent
//! jobs contend for the cores; uploads, polls and result reads share the
//! HTTP core and the job store's lock. A parallelism change that helps
//! `fleet` but starves concurrent jobs shows here as a worse job p50 and
//! tail.
//!
//! Load comes from two generator threads with one connection each: the
//! sender posts captures at their scheduled times, the poller polls
//! `GET /jobs/<id>` every [`POLL_INTERVAL`] until done and then fetches
//! `/result`. Jobs are timed from their *scheduled* send time, so a
//! stalled service is charged for the wait it imposes on later jobs.

use crate::inputs::{self, CarInput};
use crate::layers;
use crate::report::{self, Metrics, Outcome};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Opts, SplitMix};
use dp_reverser::{CaptureReader, DpReverser, ReverseEngineeringResult};
use dpr_serve::{AnalysisService, Analyzer, JobInput, JobStatus, ServiceConfig, SubmitResponse};
use dpr_telemetry::{Collector, Registry};
use dpr_vehicle::profiles::CarId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The cars whose captures are uploaded: ISO-TP/UDS (4 GP fits), BMW raw
/// (6) and VW TP 2.0/KWP (8), about 120 / 170 / 540 ms standalone.
const CARS: [CarId; 3] = [CarId::M, CarId::G, CarId::B];

/// The upload mix, as indices into [`CARS`]: M : G : B = 1 : 1 : 1. With
/// M at half the uploads (2 : 1 : 1) the median job sits on the boundary
/// between the M cluster and the rest and flips between them run to run.
const MIX: [usize; 3] = [0, 1, 2];

/// Seconds the clicker dwells per page when recording the uploads.
const DWELL_S: u64 = 4;

/// Recordings per car in the upload library. The library is the same for
/// every seed: a car's GP time depends on its data (one seed's Car M ran
/// twice as long as another's), so per-seed recordings made the job mix,
/// and with it every latency percentile, move with the seed. The workload
/// seed picks the arrival times and which recording each upload sends.
const RECORDINGS: usize = 8;

/// The offered load in jobs per second: about 36 % of the service's
/// measured capacity (about 5.5 jobs/s on a 2-core host, with every job's
/// GP pool at the program's default width). At 3 jobs/s (55 %) the job
/// p50 spread across five seeds was 14 % in one trial and 32 % in
/// another; at 5 jobs/s it was 76 %, with `429`s (see `README.md`).
pub const RATE_PER_S: f64 = 2.0;

/// How often the poller sweeps the outstanding jobs.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// The job latency (schedule → done) within which a correct job counts
/// toward goodput.
const LATENCY_LIMIT_MS: f64 = 3000.0;

/// The generator-lag tail beyond which the run is invalid: the load was
/// not offered on schedule, so its latencies would flatter the service.
const MAX_LAG_MS: f64 = 50.0;

/// How long the poller keeps waiting for outstanding jobs after the last
/// upload before counting them failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One upload: due time (from the start of the measured phase) and which
/// recording it sends, as an index into the [`library`].
pub type Arrival = (Duration, usize);

/// The seeded open-loop schedule: `round(rate × seconds)` uploads with
/// Poisson arrivals conditioned on that count over `seconds` (exponential
/// gaps rescaled so the last upload is due at the end). Cars follow the
/// mix in shuffled blocks, and each car cycles through its recordings in
/// shuffled rounds, so every seed offers the same mix of work.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x5E4E_5E4E);
    let n = ((rate * seconds).round() as usize).max(1);
    let mut arrivals = Vec::with_capacity(n + 1);
    let mut t = 0.0;
    for _ in 0..=n {
        t += -(1.0 - rng.next_f64()).ln();
        arrivals.push(t);
    }
    let scale = seconds / arrivals[n];
    let mut block = MIX;
    let mut rounds: [[usize; RECORDINGS]; CARS.len()] = [std::array::from_fn(|r| r); CARS.len()];
    let mut sent = [0usize; CARS.len()];
    arrivals[..n]
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            if i % MIX.len() == 0 {
                shuffle(&mut block, &mut rng);
            }
            let car = block[i % MIX.len()];
            if sent[car] % RECORDINGS == 0 {
                shuffle(&mut rounds[car], &mut rng);
            }
            let recording = rounds[car][sent[car] % RECORDINGS];
            sent[car] += 1;
            (
                Duration::from_secs_f64(a * scale),
                car * RECORDINGS + recording,
            )
        })
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for j in (1..items.len()).rev() {
        items.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
    }
}

/// One upload's capture and the result a direct analysis produced.
struct Upload {
    capture: Vec<u8>,
    canonical: String,
    formulas_correct: usize,
}

/// One HTTP exchange on a fresh connection (the service closes every
/// connection after its response): status code and body. A service that
/// answers before reading the whole body (a `429`) may reset the upload;
/// its answer is still read.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let sent = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body));
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    if response.is_empty() {
        sent?;
        read?;
    }
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let code = std::str::from_utf8(response.get(9..12).ok_or_else(bad)?)
        .ok()
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    Ok((code, response[split + 4..].to_vec()))
}

fn parse<T: for<'de> serde::Deserialize<'de>>(body: &[u8]) -> Option<T> {
    dpr_telemetry::json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// An accepted upload, handed from the sender to the poller.
struct Accepted {
    job: String,
    upload: usize,
    due: Instant,
    accepted: Instant,
}

/// Failed operations by reason.
type Failures = std::collections::BTreeMap<String, u64>;

fn fail(failures: &mut Failures, reason: impl Into<String>) {
    *failures.entry(reason.into()).or_default() += 1;
}

/// Names an HTTP exchange that did not give the expected answer.
fn reason(what: &str, response: &io::Result<(u16, Vec<u8>)>) -> String {
    match response {
        Ok((code, _)) => format!("{what}: HTTP {code}"),
        Err(e) => format!("{what}: {e}"),
    }
}

/// What the sender saw.
#[derive(Default)]
struct SendTally {
    lag_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    rejected_429: u64,
    failures: Failures,
}

/// What the poller saw.
#[derive(Default)]
struct PollTally {
    job_ms: Vec<f64>,
    job_ms_by_car: [Vec<f64>; CARS.len()],
    queue_wait_ms: Vec<f64>,
    worker_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    result_ms: Vec<f64>,
    polls_per_job: Vec<f64>,
    stage_ms: Vec<Metrics>,
    within_limit: u64,
    formulas_correct: usize,
    failures: Failures,
    last_done: Option<Instant>,
}

fn send_all(
    addr: SocketAddr,
    plan: &[Arrival],
    uploads: &[Upload],
    start: Instant,
    tracer: &Tracer,
    to_poller: mpsc::Sender<Accepted>,
) -> SendTally {
    let mut tally = SendTally::default();
    for &(due_at, upload) in plan {
        let due = start + due_at;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        tally.lag_ms.push((sent - due).as_secs_f64() * 1e3);
        let response = http(addr, "POST", "/jobs", &uploads[upload].capture);
        let answered = Instant::now();
        tracer.record("serve.submit", None, sent, answered);
        match &response {
            Ok((202, body)) => match parse::<SubmitResponse>(body) {
                Some(r) => {
                    tally.submit_ms.push((answered - sent).as_secs_f64() * 1e3);
                    let accepted = Accepted {
                        job: r.job,
                        upload,
                        due,
                        accepted: answered,
                    };
                    to_poller
                        .send(accepted)
                        .expect("the poller outlives the sender");
                }
                None => fail(&mut tally.failures, "submit: unparsable 202 body"),
            },
            Ok((429, _)) => {
                tally.rejected_429 += 1;
                fail(&mut tally.failures, "submit: HTTP 429");
            }
            _ => fail(&mut tally.failures, reason("submit", &response)),
        }
    }
    tally
}

fn poll_all(
    addr: SocketAddr,
    uploads: &[Upload],
    tracer: &Tracer,
    from_sender: mpsc::Receiver<Accepted>,
) -> PollTally {
    let mut tally = PollTally::default();
    let mut outstanding: Vec<(Accepted, u32)> = Vec::new();
    let mut sender_done = false;
    let mut deadline: Option<Instant> = None;
    loop {
        loop {
            match from_sender.try_recv() {
                Ok(job) => outstanding.push((job, 0)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        if sender_done {
            if outstanding.is_empty() {
                break;
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
            if Instant::now() >= deadline {
                for _ in &outstanding {
                    fail(&mut tally.failures, "job not done within the drain limit");
                }
                break;
            }
        }
        let mut still = Vec::with_capacity(outstanding.len());
        for (job, polls) in outstanding.drain(..) {
            let asked = Instant::now();
            let status = http(addr, "GET", &format!("/jobs/{}", job.job), &[]);
            let seen = Instant::now();
            tracer.record("serve.poll", None, asked, seen);
            tally.poll_ms.push((seen - asked).as_secs_f64() * 1e3);
            let polls = polls + 1;
            let status = match &status {
                Ok((200, body)) => {
                    parse::<JobStatus>(body).ok_or_else(|| "poll: unparsable status".to_string())
                }
                _ => Err(reason("poll", &status)),
            };
            match status.as_ref().map(|s| s.state.as_str()) {
                Ok("done") => {
                    let status = status.expect("matched Ok");
                    tally.last_done = Some(seen);
                    tally.polls_per_job.push(f64::from(polls));
                    finish(addr, &job, &status, seen, uploads, tracer, &mut tally);
                }
                Ok("queued" | "running") => still.push((job, polls)),
                Ok(state) => fail(&mut tally.failures, format!("job {state}")),
                Err(why) => fail(&mut tally.failures, why),
            }
        }
        outstanding = still;
        std::thread::sleep(POLL_INTERVAL);
    }
    tally
}

/// A job seen done: fetch its result, check it byte for byte against the
/// direct analysis, and book its latencies.
fn finish(
    addr: SocketAddr,
    job: &Accepted,
    status: &JobStatus,
    seen: Instant,
    uploads: &[Upload],
    tracer: &Tracer,
    tally: &mut PollTally,
) {
    let asked = Instant::now();
    let result = http(addr, "GET", &format!("/jobs/{}/result", job.job), &[]);
    let got = Instant::now();
    tracer.record("serve.result", None, asked, got);
    tally.result_ms.push((got - asked).as_secs_f64() * 1e3);
    let upload = &uploads[job.upload];
    match &result {
        Ok((200, body)) if body.as_slice() == upload.canonical.as_bytes() => {}
        Ok((200, _)) => {
            return fail(
                &mut tally.failures,
                "result differs from the direct analysis",
            )
        }
        _ => return fail(&mut tally.failures, reason("result", &result)),
    }
    let job_ms = (seen - job.due).as_secs_f64() * 1e3;
    let wall_ms = status.wall_us.unwrap_or(0) as f64 / 1e3;
    tally.job_ms.push(job_ms);
    tally.job_ms_by_car[job.upload / RECORDINGS].push(job_ms);
    tally.worker_ms.push(wall_ms);
    tally
        .queue_wait_ms
        .push((seen - job.accepted).as_secs_f64() * 1e3 - wall_ms);
    tally.formulas_correct += upload.formulas_correct;
    if job_ms <= LATENCY_LIMIT_MS {
        tally.within_limit += 1;
    }
    let mut stages: Metrics = status
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.wall_us as f64 / 1e3))
        .collect();
    let staged: f64 = stages.values().sum();
    stages.insert("unstaged".into(), wall_ms - staged);
    tally.stage_ms.push(stages);
}

/// The service's analyzer on a traced run: `dpr_bench::BenchAnalyzer`,
/// with each job's GP and pool counters (from its `PipelineTrace`) and its
/// `gp.fit` wall (from a `Collector` on the job's own registry) kept.
#[derive(Default)]
struct Observed {
    jobs: Mutex<Vec<Metrics>>,
}

impl Observed {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Metrics>> {
        self.jobs
            .lock()
            .expect("no analysis panics while holding the lock")
    }
}

impl Analyzer for Observed {
    fn analyze(&self, input: JobInput) -> Result<ReverseEngineeringResult, String> {
        // The worker runs each job inside a fresh registry of its own.
        let collector = Arc::new(Collector::new());
        dpr_telemetry::registry().add_sink(Arc::clone(&collector) as _);
        let here = dpr_telemetry::thread_id();
        let result = dpr_bench::BenchAnalyzer.analyze(input);
        if let Ok(r) = &result {
            let mut m = Metrics::new();
            layers::from_counters(&r.trace.counters, &mut m);
            let fit_ms: f64 = collector
                .records()
                .iter()
                .filter(|s| s.name == "gp.fit" && s.tid == here)
                .map(|s| s.wall.as_secs_f64() * 1e3)
                .sum();
            m.insert("gp.fit_ms".into(), fit_ms);
            let evals_per_s = stats::ratio(m["gp.evaluations"], fit_ms / 1e3);
            m.insert("gp.evals_per_s".into(), evals_per_s);
            self.lock().push(m);
        }
        result
    }

    fn knows_car(&self, name: &str) -> bool {
        dpr_bench::BenchAnalyzer.knows_car(name)
    }
}

/// Records the upload library: [`RECORDINGS`] captures of each car in
/// [`CARS`], car by car, from fixed seeds.
fn library() -> Vec<CarInput> {
    CARS.iter()
        .flat_map(|&id| {
            (0..RECORDINGS as u64).map(move |r| {
                let seed = inputs::car_seed(dpr_bench::EXPERIMENT_SEED + r, id);
                inputs::record_car(id, seed, DWELL_S)
            })
        })
        .collect()
}

/// Runs the workload at [`RATE_PER_S`]: set-up (recording plus service
/// start), a direct `analyze_capture` per upload as the reference, an
/// untimed warm-up job per car, then the open-loop phase.
pub fn run(opts: &Opts) -> Outcome {
    let workers = ServiceConfig::default().analysis_workers;
    let observed = Arc::new(Observed::default());
    let analyzer: Arc<dyn Analyzer> = if opts.trace {
        Arc::clone(&observed) as _
    } else {
        Arc::new(dpr_bench::BenchAnalyzer)
    };
    let ((cars, service), setup_s) = crate::timed_setup(|| {
        let cars = library();
        let service = AnalysisService::start(
            "127.0.0.1:0",
            ServiceConfig::default(),
            Arc::clone(&analyzer),
        )
        .expect("loopback bind");
        (cars, service)
    });
    let addr = service.addr();
    let uploads: Vec<Upload> = cars
        .iter()
        .map(|car| {
            let reader = CaptureReader::new(&car.capture[..])
                .expect("recorded captures have a valid header");
            let pipeline = DpReverser::new(dpr_bench::experiment_config(car.id, car.seed));
            let result = dpr_telemetry::scoped(Arc::new(Registry::new()), || {
                pipeline.analyze_capture(reader)
            });
            Upload {
                capture: car.capture.clone(),
                canonical: result.canonical_json(),
                formulas_correct: dp_reverser::evaluate(&result, &car.vehicle).formula_correct,
            }
        })
        .collect();

    let quiet = Tracer::new(String::new(), false);
    let warm_plan: Vec<Arrival> = (0..CARS.len())
        .map(|car| (Duration::ZERO, car * RECORDINGS))
        .collect();
    let mut warm_ok = true;
    for send in warm_plan {
        let (tx, rx) = mpsc::channel();
        let sent = send_all(addr, &[send], &uploads, Instant::now(), &quiet, tx);
        let polled = poll_all(addr, &uploads, &quiet, rx);
        warm_ok &=
            sent.failures.is_empty() && polled.failures.is_empty() && polled.job_ms.len() == 1;
    }

    observed.lock().clear();
    let plan = schedule(opts.seed, RATE_PER_S, opts.seconds);
    let tracer = Tracer::new(
        format!("serve-{}-{}", opts.seed, std::process::id()),
        opts.trace,
    );
    let start = Instant::now();
    let (sent, polled) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let sender = scope.spawn(|| send_all(addr, &plan, &uploads, start, &tracer, tx));
        let poller = scope.spawn(|| poll_all(addr, &uploads, &tracer, rx));
        (
            sender.join().expect("sender thread panicked"),
            poller.join().expect("poller thread panicked"),
        )
    });
    let makespan_s = polled.last_done.map_or(0.0, |t| (t - start).as_secs_f64());
    service.stop();

    let attempted = plan.len() as u64;
    let mut failures = sent.failures.clone();
    for (why, n) in &polled.failures {
        *failures.entry(why.clone()).or_default() += n;
    }
    let failed: u64 = failures.values().sum();
    let lag = stats::tail(&sent.lag_ms);
    let valid = lag.value <= MAX_LAG_MS;
    let mut out = Outcome {
        correct: warm_ok && valid && failed == 0,
        attempted,
        failed,
        ..Outcome::default()
    };
    let (job_tail, submit_tail) = (stats::tail(&polled.job_ms), stats::tail(&sent.submit_ms));
    let goodput = stats::ratio(polled.within_limit as f64, makespan_s);
    out.note(format!(
        "serve: {} uploads at {RATE_PER_S} jobs/s (M:G:B = 1:1:1), {workers} analysis workers × {} GP thread(s), poll interval {:?}",
        plan.len(),
        dpr_par::threads(),
        POLL_INTERVAL
    ));
    out.note(format!("job_p50_ms = {:.2} ms", median(&polled.job_ms)));
    for (car, ms) in CARS.iter().zip(&polled.job_ms_by_car) {
        out.note(format!(
            "  car {}: {} jobs, p50 {:.2} ms, max {:.2} ms",
            inputs::letter(*car),
            ms.len(),
            median(ms),
            ms.iter().copied().fold(0.0, f64::max)
        ));
    }
    out.note(format!(
        "job_tail_ms = {:.2} ms ({job_tail})",
        job_tail.value
    ));
    out.note(format!("submit_p50_ms = {:.3} ms", median(&sent.submit_ms)));
    out.note(format!(
        "submit_tail_ms = {:.3} ms ({submit_tail})",
        submit_tail.value
    ));
    out.note(format!(
        "goodput_jobs_per_s = {goodput:.4} 1/s (correct within {LATENCY_LIMIT_MS} ms)"
    ));
    out.note(format!(
        "failed_share = {} share",
        stats::ratio(failed as f64, attempted as f64)
    ));
    for (why, n) in &failures {
        out.note(format!("  failed {n} × {why}"));
    }
    out.note(format!(
        "generator lag: p50 {:.3} ms, tail {:.3} ms ({lag}); bound {MAX_LAG_MS} ms{}",
        median(&sent.lag_ms),
        lag.value,
        if valid {
            ""
        } else {
            " — INVALID RUN: load was not offered on schedule"
        }
    ));
    if !warm_ok {
        out.note("warm-up job failed or returned a result that differs from the direct analysis");
    }

    if opts.trace {
        let spans = tracer.spans().len();
        let stages = report::medians(&polled.stage_ms);
        let stage = |name: &str| stages.get(name).copied().unwrap_or(0.0);
        out.metrics = report::medians(&observed.lock());
        let m = &mut out.metrics;
        m.insert("transport.ms".into(), stage("transport"));
        m.insert("ocr.ms".into(), stage("ocr"));
        m.insert("association.ms".into(), stage("association"));
        m.insert("pipeline.inference_ms".into(), stage("inference"));
        m.insert("pipeline.ecr_ms".into(), stage("ecr"));
        m.insert("pipeline.unstaged_ms".into(), stage("unstaged"));
        m.insert("serve.submit_ms".into(), median(&sent.submit_ms));
        m.insert("serve.submit_tail_ms".into(), submit_tail.value);
        m.insert("serve.job_tail_ms".into(), job_tail.value);
        m.insert("serve.queue_wait_ms".into(), median(&polled.queue_wait_ms));
        m.insert("serve.worker_ms".into(), median(&polled.worker_ms));
        m.insert("serve.poll_ms".into(), median(&polled.poll_ms));
        m.insert("serve.result_ms".into(), median(&polled.result_ms));
        m.insert("serve.rejected_429".into(), sent.rejected_429 as f64);
        m.insert("serve.polls_per_job".into(), median(&polled.polls_per_job));
        m.insert("bench.generator_lag_ms".into(), lag.value);
        m.insert(
            "bench.poll_interval_ms".into(),
            POLL_INTERVAL.as_secs_f64() * 1e3,
        );
        m.insert("bench.traced_wall_ms".into(), makespan_s * 1e3);
        m.insert(
            "bench.trace_overhead".into(),
            stats::ratio(tracer.bookkeeping().as_secs_f64(), makespan_s),
        );
        out.note(format!("trace: {spans} spans recorded"));
        let written = report::write_trace("serve", opts.seed, &tracer);
        out.note(written);
        return out;
    }

    let m = &mut out.metrics;
    m.insert("p50_ms".into(), median(&polled.job_ms));
    m.insert("goodput_per_s".into(), goodput);
    m.insert("correct_count".into(), polled.formulas_correct as f64);
    m.insert("setup_s".into(), setup_s);
    m.insert("peak_rss_mb".into(), report::peak_rss_mb());
    out
}
