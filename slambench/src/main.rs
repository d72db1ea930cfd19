//! End-to-end and per-layer benchmark of the AGS SLAM workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path slambench/Cargo.toml -- \
//!     --workload <handheld_refine|covisible_sweep|fleet_migrate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark drives the public API from outside the program, checks
//! every output it times against a reference (exiting non-zero without
//! printing numbers on a mismatch), and prints one metric per line followed
//! by a closing JSON object. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced drivers and prints the per-layer metrics.
//! `METRICS.md` beside this package explains the workloads and metrics.

mod counted;
mod driver;
mod fleet;
mod single;
mod stats;

use ags_core::trace::WorkloadTrace;
use ags_core::AgsConfig;
use ags_math::Se3;
use ags_scene::dataset::Dataset;
use ags_sim::{AgsModel, AgsVariant, PhaseTimes};
use ags_splat::{BackendKind, GaussianCloud};
use ags_track::ate::{align_trajectories, ate_rmse};
use stats::Sheet;
use std::process::ExitCode;

/// Frame resolution of every workload.
pub const WIDTH: usize = 96;
/// See [`WIDTH`].
pub const HEIGHT: usize = 72;
/// Frame stride of the PSNR evaluation.
pub const PSNR_STRIDE: usize = 4;
/// A frame whose aligned translation error exceeds this is lost.
pub const LOST_M: f32 = 0.10;

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] =
    &[("cpu_ms_per_frame", "ms"), ("psnr_db", "dB"), ("map_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.fc_ms", "ms"),
    ("codec.sad_evals", "count"),
    ("codec.refine_skip_pct", "%"),
    ("codec.keyframe_pct", "%"),
    ("track.coarse_ms", "ms"),
    ("track.coarse_nn_macs", "count"),
    ("track.coarse_gn_rows", "count"),
    ("track.refine_ms", "ms"),
    ("track.refine_calls_pct", "%"),
    ("track.refine_iters_per_call", "count"),
    ("track.refine_render_alpha", "count"),
    ("splat.map_ms", "ms"),
    ("splat.map_iters", "count"),
    ("splat.pairs", "count"),
    ("splat.skipped_pair_pct", "%"),
    ("splat.grad_ops", "count"),
    ("splat.splats", "count"),
    ("splat.proj_cache_hit_pct", "%"),
    ("core.push_ms", "ms"),
    ("core.stall_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.sink_dropped_pct", "%"),
    ("store.put_ops", "count"),
    ("store.put_mb", "MB"),
    ("store.put_ms", "ms"),
    ("store.get_ops", "count"),
    ("store.get_mb", "MB"),
    ("store.get_ms", "ms"),
    ("store.failed_ops", "count"),
    ("store.retries", "count"),
    ("store.restore_read_mb", "MB"),
    ("sim.coarse_ms", "sim_ms"),
    ("sim.refine_ms", "sim_ms"),
    ("sim.map_ms", "sim_ms"),
    ("bench.gen_lateness_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("frames_per_s", "frames/s"),
    ("frame_latency_p50_ms", "ms"),
    ("frame_latency_tail_ms", "ms"),
    ("accel_sim_ms_per_frame", "sim_ms"),
    ("ate_cm", "cm"),
    ("lost_frame_pct", "%"),
    ("failed_frame_pct", "%"),
    ("checkpoint_pause_ms", "ms"),
    ("migration_gap_ms", "ms"),
];

/// The paper configuration every workload runs, pinned here so neither the
/// environment nor a changed default moves the benchmark: the paper's
/// thresholds (`AgsConfig::default()`), the vectorized render backend, the
/// projection cache on, no tile-work sampling and machine-default
/// parallelism.
pub fn paper_config() -> AgsConfig {
    let mut config = AgsConfig {
        backend: BackendKind::Vectorized,
        projection_cache: true,
        ..AgsConfig::default()
    };
    config.slam.tile_work_interval = 0;
    config
}

/// What a run reports besides its metrics.
pub struct Outcome {
    /// Frames pushed.
    pub attempted: u64,
    /// Pushes that errored, were refused or never returned a record.
    pub failed: u64,
}

/// Quality of one finished stream, computed after timing.
pub struct Quality {
    pub frames: usize,
    pub ate_cm: f64,
    pub lost_frames: usize,
    pub psnr_db: f64,
    pub map_bytes: u64,
    pub sim: PhaseTimes,
}

impl Quality {
    pub fn of(
        data: &Dataset,
        trajectory: &[Se3],
        cloud: &GaussianCloud,
        trace: &WorkloadTrace,
    ) -> Self {
        let gt = data.gt_trajectory();
        let align = align_trajectories(trajectory, &gt);
        let lost_frames = trajectory
            .iter()
            .zip(&gt)
            .filter(|(e, g)| (align.transform_point(e.translation) - g.translation).norm() > LOST_M)
            .count();
        let eval = ags_slam::evaluate_map(cloud, &data.camera, trajectory, data, PSNR_STRIDE);
        Self {
            frames: trajectory.len(),
            ate_cm: f64::from(ate_rmse(trajectory, &gt)) * 100.0,
            lost_frames,
            psnr_db: f64::from(eval.psnr_db),
            map_bytes: trace.frames.last().map_or(0, |f| f.map_bytes),
            sim: AgsModel::new(AgsVariant::edge()).run_trace(trace),
        }
    }

    /// The quality lines every run prints, whichever metric set it reports.
    pub fn print(&self, label: &str, failed: u64, attempted: u64) {
        println!(
            "# {label}: ate_cm {:.3}  lost_frame_pct {:.2} ({} of {} frames > {} m)  \
             failed_frame_pct {:.2} ({failed} of {attempted})  psnr_db {:.3}  map_mb {:.4}  \
             accel_sim_ms_per_frame {:.4} (AgsModel edge variant; unvalidated, no hardware reference)",
            self.ate_cm,
            self.lost_pct(),
            self.lost_frames,
            self.frames,
            LOST_M,
            stats::pct(failed as f64, attempted as f64),
            self.psnr_db,
            self.map_bytes as f64 / 1e6,
            self.sim_ms_per_frame(),
        );
    }

    pub fn lost_pct(&self) -> f64 {
        stats::pct(self.lost_frames as f64, self.frames as f64)
    }

    pub fn sim_ms_per_frame(&self) -> f64 {
        self.sim.total_ms / self.frames.max(1) as f64
    }

    /// Records the quality metrics of the end-to-end sheet.
    pub fn set_end_to_end(&self, sheet: &mut Sheet, note: &str) {
        sheet.set("psnr_db", self.psnr_db, "dB", format!("stride {PSNR_STRIDE}; {note}"));
        sheet.set("map_mb", self.map_bytes as f64 / 1e6, "MB", note.to_string());
    }

    /// Records the quality metrics of the per-layer sheet.
    pub fn set_per_layer(&self, sheet: &mut Sheet, failed: u64, attempted: u64) {
        let frames = self.frames.max(1) as f64;
        sheet.set("ate_cm", self.ate_cm, "cm", format!("n={} frames", self.frames));
        sheet.set("lost_frame_pct", self.lost_pct(), "%", format!("{} lost", self.lost_frames));
        sheet.set(
            "failed_frame_pct",
            stats::pct(failed as f64, attempted as f64),
            "%",
            format!("{failed} of {attempted}"),
        );
        sheet.set(
            "accel_sim_ms_per_frame",
            self.sim_ms_per_frame(),
            "sim_ms",
            format!("n={} frames; unvalidated model", self.frames),
        );
        sheet.set("sim.coarse_ms", self.sim.coarse_ms / frames, "sim_ms", "per frame".into());
        sheet.set("sim.refine_ms", self.sim.refine_ms / frames, "sim_ms", "per frame".into());
        sheet.set("sim.map_ms", self.sim.mapping_ms / frames, "sim_ms", "per frame".into());
    }
}

/// Sums the quality of several streams: means for ATE, PSNR and map size,
/// totals for frames, lost frames and simulated time.
pub fn pooled(qualities: &[Quality]) -> Quality {
    let n = qualities.len().max(1) as f64;
    let mut sim = PhaseTimes::default();
    for q in qualities {
        sim.codec_ms += q.sim.codec_ms;
        sim.coarse_ms += q.sim.coarse_ms;
        sim.refine_ms += q.sim.refine_ms;
        sim.mapping_ms += q.sim.mapping_ms;
        sim.total_ms += q.sim.total_ms;
    }
    Quality {
        frames: qualities.iter().map(|q| q.frames).sum(),
        ate_cm: qualities.iter().map(|q| q.ate_cm).sum::<f64>() / n,
        lost_frames: qualities.iter().map(|q| q.lost_frames).sum(),
        psnr_db: qualities.iter().map(|q| q.psnr_db).sum::<f64>() / n,
        map_bytes: (qualities.iter().map(|q| q.map_bytes as f64).sum::<f64>() / n) as u64,
        sim,
    }
}

/// Records the wall-clock metrics of the per-layer sheet: throughput, the
/// median latency and the latency tail (the highest whole percentile with
/// at least ten samples beyond it, printed with the percentile and count).
pub fn set_wall(sheet: &mut Sheet, frames_per_s: f64, latency_ms: &[f64], note: &str) {
    let n = latency_ms.len();
    sheet.set("frames_per_s", frames_per_s, "frames/s", format!("{note}; n={n}"));
    sheet.set("frame_latency_p50_ms", stats::median(latency_ms), "ms", format!("{note}; n={n}"));
    let tail = stats::tail(latency_ms);
    let note = format!("p{} n={n} ({} beyond)", tail.percentile, tail.beyond);
    sheet.set("frame_latency_tail_ms", tail.value, "ms", note);
}

/// The command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // The benchmark pins its backend: the program's environment knob for
    // the default backend must not leak in (single-threaded at this point).
    std::env::remove_var("AGS_RENDER_BACKEND");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slambench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# slambench workload={} seed={} seconds={} trace={} nproc={} backend={} sad_kernel={} \
         resolution={WIDTH}x{HEIGHT}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        ags_math::parallel::machine_parallelism(),
        paper_config().backend.name(),
        ags_codec::sad_kernel_name(),
    );
    let mut sheet = Sheet::default();
    let outcome = match args.workload.as_str() {
        "handheld_refine" => single::run(&single::HANDHELD, &args, &mut sheet),
        "covisible_sweep" => single::run(&single::SWEEP, &args, &mut sheet),
        "fleet_migrate" => fleet::run(&args, &mut sheet),
        other => Err(format!("unknown workload {other}")),
    };
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.and_then(|o| sheet.emit(expected, o.attempted, o.failed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slambench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
