//! The two single-stream workloads, driven closed loop: the next frame is
//! pushed as soon as the previous call returns.
//!
//! A run is a cycle of passes, each pass a fresh `AgsSlam` over one
//! generated sequence. The passes of a cycle use consecutive dataset seed
//! offsets derived from `--seed`, so a run averages over several
//! trajectories instead of resting on one (on `handheld_refine` the cost
//! and the tracking outcome differ widely between trajectories). Whole
//! cycles repeat while another fits in `--seconds`; quality is evaluated on
//! the first cycle, after timing.

use crate::driver::{self, DriverPass, Fingerprint, Span};
use crate::stats::{self, Sheet};
use crate::{paper_config, pooled, Args, Outcome, Quality, HEIGHT, WIDTH};
use ags_core::trace::WorkloadTrace;
use ags_core::AgsSlam;
use ags_math::Se3;
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_splat::GaussianCloud;
use std::hint::black_box;
use std::time::Instant;

/// A single-stream workload.
pub struct Spec {
    pub name: &'static str,
    pub scene: SceneId,
    /// Frames the scene's whole trajectory is sampled into.
    pub frames: usize,
    /// Sequences (dataset seed offsets) per cycle.
    pub passes: usize,
}

/// S2 squeezed into 16 frames: large motion per frame keeps FC(prev) below
/// ThreshT, so 3DGS pose refinement runs on most frames and tracking
/// dominates. Most trajectories lose track; the metrics show it.
pub const HANDHELD: Spec =
    Spec { name: "handheld_refine", scene: SceneId::S2, frames: 16, passes: 20 };

/// Xyz over 60 frames: FC stays above ThreshT, refinement is skipped on
/// most frames and every frame after 0 is non-key — the paper's skip
/// mechanism — while the map grows and mapping dominates.
pub const SWEEP: Spec =
    Spec { name: "covisible_sweep", scene: SceneId::Xyz, frames: 60, passes: 1 };

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// Passes a traced run covers, the first of the cycle: it runs each twice,
/// untraced and traced.
const TRACED_PASSES: usize = 10;

/// A finished `AgsSlam` pass.
struct Pass {
    trajectory: Vec<Se3>,
    cloud: GaussianCloud,
    trace: WorkloadTrace,
    /// Per frame: push until the frame's record was returned.
    latency_s: Vec<f64>,
    /// Per frame: previous return until this push (generator overhead).
    gap_s: Vec<f64>,
    busy_s: f64,
    /// Process CPU time over the frames, every thread.
    cpu_s: f64,
}

fn datasets(spec: &Spec, seed: u64) -> Vec<Dataset> {
    (0..spec.passes as u64)
        .map(|j| {
            let config = DatasetConfig {
                width: WIDTH,
                height: HEIGHT,
                num_frames: spec.frames,
                seed_offset: seed.wrapping_mul(spec.passes as u64).wrapping_add(j),
                ..DatasetConfig::default()
            };
            Dataset::generate(spec.scene, &config)
        })
        .collect()
}

fn run_pass(data: &Dataset) -> Result<Pass, String> {
    let mut slam = AgsSlam::new(paper_config());
    let n = data.frames.len();
    let (mut latency_s, mut gap_s) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let cpu_start = stats::process_cpu_s();
    let start = Instant::now();
    let mut ready = start;
    for (i, frame) in data.frames.iter().enumerate() {
        let pushed = Instant::now();
        gap_s.push(pushed.duration_since(ready).as_secs_f64());
        let record = slam.process_frame(&data.camera, &frame.rgb, &frame.depth);
        ready = Instant::now();
        latency_s.push(ready.duration_since(pushed).as_secs_f64());
        if record.trace.frame_index != i {
            return Err(format!(
                "push {i} returned the record of frame {}",
                record.trace.frame_index
            ));
        }
        black_box(record);
    }
    let busy_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_start;
    let trajectory = slam.trajectory().to_vec();
    let cloud = slam.cloud().clone();
    Ok(Pass { trajectory, cloud, trace: slam.into_trace(), latency_s, gap_s, busy_s, cpu_s })
}

fn checked_quality(data: &[Dataset], passes: &[Pass]) -> Result<Quality, String> {
    let config = paper_config();
    let mut qualities = Vec::with_capacity(passes.len());
    for (j, (d, p)) in data.iter().zip(passes).enumerate() {
        driver::check_stream(&config, 0, &p.trajectory, &p.cloud, &p.trace)
            .map_err(|e| format!("pass {j}: {e}"))?;
        qualities.push(Quality::of(d, &p.trajectory, &p.cloud, &p.trace));
    }
    Ok(pooled(&qualities))
}

fn setup_seconds() -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            let slam = AgsSlam::new(paper_config());
            let elapsed = start.elapsed().as_secs_f64();
            drop(black_box(slam));
            elapsed
        })
        .collect()
}

pub fn run(spec: &Spec, args: &Args, sheet: &mut Sheet) -> Result<Outcome, String> {
    let gen_start = Instant::now();
    let data = datasets(spec, args.seed);
    println!(
        "# {}: scene {} frames_per_pass={} passes_per_cycle={} dataset seed offsets {}..{}; \
         generated in {:.3} s (not part of setup_s)",
        spec.name,
        spec.scene,
        spec.frames,
        spec.passes,
        args.seed.wrapping_mul(spec.passes as u64),
        args.seed.wrapping_mul(spec.passes as u64).wrapping_add(spec.passes as u64 - 1),
        gen_start.elapsed().as_secs_f64()
    );
    if args.trace {
        traced(spec, args, &data, sheet)
    } else {
        untraced(args, &data, sheet)
    }
}

fn untraced(args: &Args, data: &[Dataset], sheet: &mut Sheet) -> Result<Outcome, String> {
    let setup = setup_seconds();
    let mut first: Vec<Pass> = Vec::new();
    let (mut latency_s, mut busy_s, mut cpu_s, mut cycles) = (Vec::new(), 0.0, 0.0, 0);
    loop {
        let mut cycle_s = 0.0;
        for d in data {
            let pass = run_pass(d)?;
            latency_s.extend_from_slice(&pass.latency_s);
            cycle_s += pass.busy_s;
            cpu_s += pass.cpu_s;
            if cycles == 0 {
                first.push(pass);
            }
        }
        busy_s += cycle_s;
        cycles += 1;
        if busy_s + cycle_s > args.seconds {
            break;
        }
    }
    let quality = checked_quality(data, &first)?;
    let frames = latency_s.len();
    quality.print("quality (first cycle)", 0, frames as u64);

    let ms: Vec<f64> = latency_s.iter().map(|s| s * 1e3).collect();
    println!(
        "# wall clock: frames_per_s {:.4}  frame latency ms {}",
        frames as f64 / busy_s,
        stats::describe(&ms)
    );
    let per_pass: Vec<f64> =
        first.iter().map(|p| p.cpu_s * 1e3 / p.latency_s.len() as f64).collect();
    println!("# cpu ms per frame by pass (first cycle): {}", stats::describe(&per_pass));
    sheet.set(
        "cpu_ms_per_frame",
        cpu_s * 1e3 / frames as f64,
        "ms",
        format!("process CPU, every thread; n={frames} frames, {cycles} cycles"),
    );
    quality.set_end_to_end(sheet, &format!("mean of {} maps", first.len()));
    sheet.set(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {} constructions", setup.len()),
    );
    Ok(Outcome { attempted: frames as u64, failed: 0 })
}

fn traced(
    spec: &Spec,
    args: &Args,
    data: &[Dataset],
    sheet: &mut Sheet,
) -> Result<Outcome, String> {
    let data = &data[..data.len().min(TRACED_PASSES)];
    let plain: Vec<Pass> = data.iter().map(run_pass).collect::<Result<_, _>>()?;
    let quality = checked_quality(data, &plain)?;
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let config = paper_config();
    let staged: Vec<DriverPass> = data
        .iter()
        .enumerate()
        .map(|(j, d)| driver::run_stages(&config, 0, d, j, epoch, &mut spans))
        .collect();
    for (j, (p, s)) in plain.iter().zip(&staged).enumerate() {
        Fingerprint::of(&s.trajectory, &s.cloud, &s.trace).check(
            &Fingerprint::of(&p.trajectory, &p.cloud, &p.trace),
            &format!("traced pass {j}"),
        )?;
    }
    driver::write_spans(&spans, &format!("{}-seed{}", spec.name, args.seed));
    let frames = plain.iter().map(|p| p.latency_s.len()).sum::<usize>() as u64;
    quality.print("quality", 0, frames);
    println!("# traced stage driver reproduced AgsSlam bit for bit on {} passes", staged.len());

    driver::set_layer_metrics(sheet, &staged, &spans);
    quality.set_per_layer(sheet, 0, frames);
    let untraced_s: f64 = plain.iter().map(|p| p.busy_s).sum();
    let traced_s: f64 = staged.iter().map(|p| p.busy_s).sum();
    sheet.set(
        "bench.trace_overhead_pct",
        stats::pct(traced_s - untraced_s, untraced_s),
        "%",
        format!("traced {traced_s:.3} s vs untraced {untraced_s:.3} s, same frames"),
    );
    let ms: Vec<f64> = plain.iter().flat_map(|p| p.latency_s.iter().map(|s| s * 1e3)).collect();
    crate::set_wall(sheet, frames as f64 / untraced_s, &ms, "closed loop, untraced passes");
    let gaps: Vec<f64> = plain.iter().flat_map(|p| p.gap_s.iter().map(|s| s * 1e3)).collect();
    sheet.set(
        "bench.gen_lateness_ms",
        stats::mean(&gaps),
        "ms",
        format!("closed loop; n={}", gaps.len()),
    );
    // The server and store layers are not on this workload's path.
    for (name, unit) in crate::PER_LAYER {
        let server_side = name.starts_with("core.") || name.starts_with("store.");
        if server_side || matches!(*name, "checkpoint_pause_ms" | "migration_gap_ms") {
            sheet.set(name, 0.0, unit, "n=0: no server or store on this workload".into());
        }
    }
    Ok(Outcome { attempted: frames, failed: 0 })
}
