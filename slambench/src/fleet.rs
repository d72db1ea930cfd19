//! `fleet_migrate`: two Xyz streams on `MultiStreamServer`s, checkpointing
//! to a `RemoteStore` on a loopback `StoreServer` backed by a
//! `MemoryStore`, driven **open loop** from one thread.
//!
//! Stream A checkpoints in place every [`CHECKPOINT_EVERY`] frames (store
//! writes). Stream B migrates between the two servers every
//! [`MIGRATE_EVERY`] frames (a final checkpoint, then a lazy restore that
//! reads). Frames fall due at a fixed per-stream camera rate; each frame is
//! timed from when it was due, so a checkpoint or migration pause is
//! charged to the frames queued behind it. Both streams see the same
//! frames: A must equal the serial deferred-map reference, and B — which
//! migrated — must equal A, which checkpointed and kept going in place.

use crate::counted::{Counted, OpCounter, OpTotals, StoreCounters};
use crate::driver::{self, Fingerprint, Span};
use crate::stats::{self, Sheet};
use crate::{paper_config, pooled, Args, Outcome, Quality, HEIGHT, WIDTH};
use ags_core::trace::WorkloadTrace;
use ags_core::{
    migrate_stream, AgsSlam, MultiStreamServer, PipelineConfig, ServerConfig, StreamPolicy,
};
use ags_image::{DepthImage, RgbImage};
use ags_math::Se3;
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_splat::GaussianCloud;
use ags_store::{
    CheckpointConfig, MapStore, MemoryStore, RemoteCounters, RemoteStore, RetryPolicy, StoreError,
    StoreServer,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-stream camera rate of the open-loop generator, frames/s: about half
/// of what the two streams sustain closed loop on a 2-core host, so the
/// queue does not grow between pauses.
pub const RATE_HZ: f64 = 1.2;
/// Stream A commits a checkpoint after every this many of its frames.
pub const CHECKPOINT_EVERY: usize = 10;
/// Stream B migrates to the other server after every this many frames.
pub const MIGRATE_EVERY: usize = 20;
/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

fn policy() -> StreamPolicy {
    StreamPolicy::map_overlapped(1, 1)
}

/// One store client: its transport counters and, in traced runs, the
/// counting decorator's.
struct Client {
    remote: RemoteCounters,
    counted: Option<Arc<StoreCounters>>,
}

fn dial(
    addr: SocketAddr,
    traced: bool,
    clients: &mut Vec<Client>,
) -> Result<Box<dyn MapStore>, StoreError> {
    let store = RemoteStore::connect(addr, RetryPolicy::default())?;
    let remote = store.counters();
    if traced {
        let counted = Arc::new(StoreCounters::default());
        clients.push(Client { remote, counted: Some(Arc::clone(&counted)) });
        Ok(Box::new(Counted::new(store, counted)))
    } else {
        clients.push(Client { remote, counted: None });
        Ok(Box::new(store))
    }
}

/// Servers, store and store clients of one run. Field order is drop order:
/// the servers (and with them the store connections) go before the store
/// server, whose drop joins its threads.
struct Fleet {
    servers: [MultiStreamServer; 2],
    clients: Vec<Client>,
    addr: SocketAddr,
    traced: bool,
    _store: StoreServer,
}

impl Fleet {
    fn new(traced: bool) -> Result<Self, String> {
        let store = StoreServer::spawn("127.0.0.1:0", Box::new(MemoryStore::new()))
            .map_err(|e| format!("store server: {e}"))?;
        let config = |streams| ServerConfig {
            streams,
            base: paper_config(),
            per_stream: vec![policy(); streams],
            pool_workers: None,
        };
        let servers = [MultiStreamServer::new(config(2)), MultiStreamServer::new(config(0))];
        let mut fleet =
            Fleet { servers, clients: Vec::new(), addr: store.local_addr(), traced, _store: store };
        for stream in 0..2 {
            let store =
                dial(fleet.addr, traced, &mut fleet.clients).map_err(|e| format!("dial: {e}"))?;
            fleet.servers[0]
                .attach_store(stream, store, CheckpointConfig::default())
                .map_err(|e| format!("attach: {e}"))?;
        }
        Ok(fleet)
    }
}

/// A finished stream's semantic output.
struct StreamOut {
    trajectory: Vec<Se3>,
    cloud: GaussianCloud,
    trace: WorkloadTrace,
}

impl StreamOut {
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.trajectory, &self.cloud, &self.trace)
    }
}

/// What one open-loop run measured.
struct Run {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    push_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    cutover_ms: Vec<f64>,
    restore_read_bytes: Vec<u64>,
    /// Time spent inside program calls.
    busy_s: f64,
    wall_s: f64,
    /// Process CPU time from the first push to the last record, every
    /// thread: the driver, both servers' pipelines and the store server.
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    streams: [StreamOut; 2],
    map_bytes: u64,
    sink_offers: u64,
    sink_dropped: u64,
}

/// Due time of frame `k` of stream `s`: streams interleave half a period
/// apart.
fn due(start: Instant, k: usize, s: usize) -> Instant {
    start + Duration::from_secs_f64((k as f64 + 0.5 * s as f64) / RATE_HZ)
}

struct Frames {
    data: Dataset,
    rgb: Vec<Arc<RgbImage>>,
    depth: Vec<Arc<DepthImage>>,
}

fn drive(fleet: &mut Fleet, frames: &Frames) -> Result<Run, String> {
    let n = frames.rgb.len();
    let camera = &frames.data.camera;
    let mut latency: [Vec<Option<f64>>; 2] = [vec![None; n], vec![None; n]];
    let (mut lateness_ms, mut push_ms, mut checkpoint_ms, mut cutover_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut restore_read_bytes = Vec::new();
    let mut busy_s = 0.0;
    let mut b_at = (0usize, 1usize);
    let cpu_start = stats::process_cpu_s();
    let start = Instant::now();
    let mut note = |s: usize, records: Vec<ags_core::AgsFrameRecord>| -> Result<(), String> {
        let now = Instant::now();
        for record in records {
            let k = record.trace.frame_index;
            let slot = latency[s]
                .get_mut(k)
                .ok_or_else(|| format!("stream {s}: record of unknown frame {k}"))?;
            if slot.replace(now.duration_since(due(start, k, s)).as_secs_f64() * 1e3).is_some() {
                return Err(format!("stream {s}: frame {k} returned twice"));
            }
        }
        Ok(())
    };
    for k in 0..n {
        for s in 0..2 {
            let due_at = due(start, k, s);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let pushed = Instant::now();
            lateness_ms.push(pushed.duration_since(due_at).as_secs_f64() * 1e3);
            let (server, stream) = if s == 0 { (0, 0) } else { b_at };
            let result = fleet.servers[server].push_frame(
                stream,
                camera,
                Arc::clone(&frames.rgb[k]),
                Arc::clone(&frames.depth[k]),
            );
            let took = pushed.elapsed().as_secs_f64();
            busy_s += took;
            push_ms.push(took * 1e3);
            match result {
                Ok(record) => note(s, record.into_iter().collect())?,
                Err(e) => println!("# stream {s} frame {k}: push failed: {e}"),
            }
            if s == 0 && (k + 1) % CHECKPOINT_EVERY == 0 {
                let started = Instant::now();
                let records = fleet.servers[0]
                    .checkpoint_stream(0)
                    .map_err(|e| format!("checkpoint: {e}"))?;
                let took = started.elapsed().as_secs_f64();
                busy_s += took;
                checkpoint_ms.push(took * 1e3);
                note(0, records)?;
            }
            if s == 1 && (k + 1) % MIGRATE_EVERY == 0 && k + 1 < n {
                let (src, dst) = (b_at.0, 1 - b_at.0);
                let [x, y] = &mut fleet.servers;
                let (source, dest) = if src == 0 { (x, y) } else { (y, x) };
                let (addr, traced, clients) = (fleet.addr, fleet.traced, &mut fleet.clients);
                let started = Instant::now();
                let report = migrate_stream(
                    source,
                    b_at.1,
                    dest,
                    policy(),
                    &CheckpointConfig::default(),
                    &mut |_| dial(addr, traced, clients),
                )
                .map_err(|e| format!("migration: {e}"))?;
                busy_s += started.elapsed().as_secs_f64();
                cutover_ms.push(report.cutover.as_secs_f64() * 1e3);
                if let Some(counted) = fleet.clients.last().and_then(|c| c.counted.as_ref()) {
                    restore_read_bytes.push(counted.get.totals().bytes);
                }
                note(1, report.drained)?;
                b_at = (dst, report.dest_stream);
            }
        }
    }
    let started = Instant::now();
    let a = fleet.servers[0].finish_stream(0).map_err(|e| format!("finish A: {e}"))?;
    note(0, a)?;
    let b = fleet.servers[b_at.0].finish_stream(b_at.1).map_err(|e| format!("finish B: {e}"))?;
    note(1, b)?;
    busy_s += started.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_start;

    let latency_ms: Vec<f64> = latency.iter().flatten().flatten().copied().collect();
    let attempted = 2 * n as u64;
    let failed = attempted - latency_ms.len() as u64;
    let out = |server: &MultiStreamServer, stream: usize| {
        server.stream(stream).map(|slam| StreamOut {
            trajectory: slam.trajectory().to_vec(),
            cloud: slam.cloud().clone(),
            trace: slam.trace().clone(),
        })
    };
    let a = out(&fleet.servers[0], 0).ok_or("stream A is gone")?;
    let b = out(&fleet.servers[b_at.0], b_at.1).ok_or("stream B is gone")?;
    let (mut map_bytes, mut sink_offers, mut sink_dropped) = (0, 0, 0);
    for server in &fleet.servers {
        for s in server.stats().per_stream {
            if !s.retired {
                map_bytes += s.map_bytes;
            }
            sink_offers += s.checkpoint_offers;
            sink_dropped += s.checkpoint_offers_dropped;
        }
    }
    Ok(Run {
        latency_ms,
        lateness_ms,
        push_ms,
        checkpoint_ms,
        cutover_ms,
        restore_read_bytes,
        busy_s,
        wall_s,
        cpu_s,
        attempted,
        failed,
        streams: [a, b],
        map_bytes,
        sink_offers,
        sink_dropped,
    })
}

/// Checks both streams of a run against the reference, and B against A.
fn check(run: &Run, reference: &Fingerprint, what: &str) -> Result<(), String> {
    let [a, b] = &run.streams;
    driver::check_stream(&paper_config(), 1, &a.trajectory, &a.cloud, &a.trace)
        .map_err(|e| format!("{what} stream A: {e}"))?;
    let a = a.fingerprint();
    a.check(reference, &format!("{what} stream A (checkpointed in place)"))?;
    b.fingerprint().check(&a, &format!("{what} stream B (migrated)"))
}

fn quality(frames: &Frames, run: &Run) -> Quality {
    let per_stream: Vec<Quality> = run
        .streams
        .iter()
        .map(|s| Quality::of(&frames.data, &s.trajectory, &s.cloud, &s.trace))
        .collect();
    let mut quality = pooled(&per_stream);
    quality.map_bytes = run.map_bytes;
    quality
}

pub fn run(args: &Args, sheet: &mut Sheet) -> Result<Outcome, String> {
    let n = (RATE_HZ * args.seconds).round().max(2.0) as usize;
    let gen_start = Instant::now();
    let config = DatasetConfig {
        width: WIDTH,
        height: HEIGHT,
        num_frames: n,
        seed_offset: args.seed,
        ..DatasetConfig::default()
    };
    let data = Dataset::generate(SceneId::Xyz, &config);
    let frames = Frames {
        rgb: data.frames.iter().map(|f| Arc::new(f.rgb.clone())).collect(),
        depth: data.frames.iter().map(|f| Arc::new(f.depth.clone())).collect(),
        data,
    };
    println!(
        "# fleet_migrate: 2 Xyz streams x {n} frames (dataset seed offset {}), open loop at {RATE_HZ} frames/s \
         per stream, map_overlapped(1,1); checkpoint every {CHECKPOINT_EVERY}, migrate every {MIGRATE_EVERY}; \
         generated in {:.3} s (not part of setup_s)",
        args.seed,
        gen_start.elapsed().as_secs_f64()
    );
    if args.trace {
        traced(args, &frames, sheet)
    } else {
        untraced(&frames, sheet)
    }
}

fn untraced(frames: &Frames, sheet: &mut Sheet) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let start = Instant::now();
        fleet = Some(Fleet::new(false)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("SETUP_REPS > 0");
    let run = drive(&mut fleet, frames)?;
    drop(fleet);

    let mut config = paper_config();
    config.pipeline = PipelineConfig::map_overlapped(1, 1);
    let mut reference = AgsSlam::new(config);
    for f in &frames.data.frames {
        reference.process_frame(&frames.data.camera, &f.rgb, &f.depth);
    }
    let trajectory = reference.trajectory().to_vec();
    let cloud = reference.cloud().clone();
    check(&run, &Fingerprint::of(&trajectory, &cloud, &reference.into_trace()), "fleet")?;
    println!(
        "# both streams match the serial deferred-map reference; migrated B equals in-place A"
    );

    let quality = quality(frames, &run);
    quality.print("quality", run.failed, run.attempted);
    println!(
        "# checkpoint_pause_ms {:.3} ({})  migration_gap_ms {:.3} ({})  gen_lateness_ms {}",
        stats::median(&run.checkpoint_ms),
        stats::describe(&run.checkpoint_ms),
        stats::median(&run.cutover_ms),
        stats::describe(&run.cutover_ms),
        stats::describe(&run.lateness_ms),
    );
    let completed = run.latency_ms.len();
    println!(
        "# wall clock: frames_per_s {:.4} achieved (offered {:.2})  frame latency ms from due time {}",
        completed as f64 / run.wall_s,
        2.0 * RATE_HZ,
        stats::describe(&run.latency_ms)
    );
    sheet.set(
        "cpu_ms_per_frame",
        run.cpu_s * 1e3 / completed as f64,
        "ms",
        format!("process CPU, every thread, over {:.3} s; n={completed} frames", run.wall_s),
    );
    quality.set_end_to_end(sheet, "both streams");
    sheet.set(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {} fleet constructions", setup.len()),
    );
    Ok(Outcome { attempted: run.attempted, failed: run.failed })
}

fn traced(args: &Args, frames: &Frames, sheet: &mut Sheet) -> Result<Outcome, String> {
    let plain = drive(&mut Fleet::new(false)?, frames)?;
    let mut fleet = Fleet::new(true)?;
    let run = drive(&mut fleet, frames)?;
    let clients = std::mem::take(&mut fleet.clients);
    drop(fleet);

    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let reference = driver::run_stages(&paper_config(), 1, &frames.data, 0, epoch, &mut spans);
    let fingerprint = Fingerprint::of(&reference.trajectory, &reference.cloud, &reference.trace);
    check(&plain, &fingerprint, "untraced fleet")?;
    check(&run, &fingerprint, "traced fleet")?;
    driver::write_spans(&spans, &format!("fleet_migrate-seed{}", args.seed));
    println!("# traced and untraced fleets match the traced serial deferred-map stage driver bit for bit");
    let quality = quality(frames, &plain);
    quality.print("quality", plain.failed, plain.attempted);

    driver::set_layer_metrics(sheet, std::slice::from_ref(&reference), &spans);
    quality.set_per_layer(sheet, plain.failed, plain.attempted);
    crate::set_wall(
        sheet,
        plain.latency_ms.len() as f64 / plain.wall_s,
        &plain.latency_ms,
        &format!("open loop, achieved (offered {:.2}), latency from due time", 2.0 * RATE_HZ),
    );
    sheet.set("core.push_ms", stats::median(&run.push_ms), "ms", stats::describe(&run.push_ms));
    let stalls: Vec<f64> = run
        .streams
        .iter()
        .flat_map(|s| s.trace.frames.iter().map(|f| f.stage_times.stall_s * 1e3))
        .collect();
    sheet.set(
        "core.stall_ms",
        stats::mean(&stalls),
        "ms",
        format!("per frame, in-stream; n={}", stalls.len()),
    );
    sheet.set(
        "core.checkpoint_ms",
        stats::median(&run.checkpoint_ms),
        "ms",
        stats::describe(&run.checkpoint_ms),
    );
    sheet.set(
        "core.sink_dropped_pct",
        stats::pct(run.sink_dropped as f64, run.sink_offers as f64),
        "%",
        format!("{} of {} offers", run.sink_dropped, run.sink_offers),
    );

    let counted: Vec<&StoreCounters> =
        clients.iter().filter_map(|c| c.counted.as_deref()).collect();
    let total = |pick: fn(&StoreCounters) -> &OpCounter| -> OpTotals {
        counted.iter().map(|c| pick(c).totals()).sum()
    };
    let (puts, gets) = (total(|c| &c.put), total(|c| &c.get));
    let (deletes, keys) = (total(|c| &c.delete), total(|c| &c.keys));
    let clients_note = format!("{} clients", clients.len());
    sheet.set("store.put_ops", puts.ops as f64, "count", clients_note.clone());
    sheet.set("store.put_mb", puts.bytes as f64 / 1e6, "MB", clients_note.clone());
    sheet.set("store.put_ms", puts.ms_per_op(), "ms", format!("mean per put, n={}", puts.ops));
    sheet.set("store.get_ops", gets.ops as f64, "count", clients_note.clone());
    sheet.set("store.get_mb", gets.bytes as f64 / 1e6, "MB", clients_note);
    sheet.set("store.get_ms", gets.ms_per_op(), "ms", format!("mean per get, n={}", gets.ops));
    sheet.set(
        "store.failed_ops",
        (puts.errors + gets.errors + deletes.errors + keys.errors) as f64,
        "count",
        format!("of put/get/delete/keys; {} deletes, {} key listings", deletes.ops, keys.ops),
    );
    let retries: u64 = clients.iter().map(|c| c.remote.retries()).sum();
    let (timeouts, connects): (u64, u64) = clients
        .iter()
        .fold((0, 0), |(t, c), cl| (t + cl.remote.timeouts(), c + cl.remote.connects()));
    sheet.set(
        "store.retries",
        retries as f64,
        "count",
        format!("{timeouts} timeouts, {connects} connects"),
    );
    let reads: Vec<f64> = run.restore_read_bytes.iter().map(|b| *b as f64 / 1e6).collect();
    sheet.set(
        "store.restore_read_mb",
        stats::mean(&reads),
        "MB",
        format!("per migration, n={}", reads.len()),
    );

    sheet.set(
        "checkpoint_pause_ms",
        stats::median(&plain.checkpoint_ms),
        "ms",
        stats::describe(&plain.checkpoint_ms),
    );
    sheet.set(
        "migration_gap_ms",
        stats::median(&plain.cutover_ms),
        "ms",
        stats::describe(&plain.cutover_ms),
    );
    sheet.set(
        "bench.gen_lateness_ms",
        stats::mean(&plain.lateness_ms),
        "ms",
        stats::describe(&plain.lateness_ms),
    );
    sheet.set(
        "bench.trace_overhead_pct",
        stats::pct(run.busy_s - plain.busy_s, plain.busy_s),
        "%",
        format!(
            "time in program calls: traced {:.3} s vs untraced {:.3} s",
            run.busy_s, plain.busy_s
        ),
    );
    Ok(Outcome { attempted: plain.attempted, failed: plain.failed })
}
