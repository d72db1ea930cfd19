//! The traced stage driver and the output checks shared by all workloads.
//!
//! [`run_stages`] calls the stages the way `AgsSlam` composes them —
//! `FcStage::process` → `CoarseTracker::track` (+ `GsPoseRefiner::refine_snapshot`
//! when the FC decision asks for refinement) → `MapStage::process` on a
//! `SharedCloud` — and records a span around each call. With a map slack it
//! reproduces the serial deferred-map reference (tracking reads the
//! snapshot `slack` epochs behind). Its trajectory, map and canonical trace
//! must equal the program's own drivers bit for bit.

use crate::stats;
use ags_core::fc::FcDecision;
use ags_core::trace::{StageTimes, TraceFrame, WorkloadTrace};
use ags_core::{AgsConfig, FcStage, FrameImages, FrameInput, MapStage};
use ags_math::Se3;
use ags_scene::dataset::Dataset;
use ags_slam::WorkUnits;
use ags_splat::gaussian::Gaussian;
use ags_splat::snapshot::{SharedCloud, SnapshotWindow};
use ags_splat::GaussianCloud;
use ags_track::coarse::CoarseTracker;
use ags_track::fine::{GsPoseRefiner, RefineConfig};
use std::time::Instant;

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Fc,
    Coarse,
    Refine,
    Map,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Fc => "codec.fc",
            Layer::Coarse => "track.coarse",
            Layer::Refine => "track.refine",
            Layer::Map => "splat.map",
        }
    }
}

/// One timed call into a layer, kept in memory until the run ends.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Pass and frame the call belongs to: spans of one frame share them.
    pub pass: usize,
    pub frame: usize,
    pub start_s: f64,
    pub dur_s: f64,
}

/// Everything semantic a stream produced, in bits.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    poses: Vec<[u32; 7]>,
    splats: Vec<[u32; 14]>,
    trace: Vec<u8>,
}

impl Fingerprint {
    pub fn of(trajectory: &[Se3], cloud: &GaussianCloud, trace: &WorkloadTrace) -> Self {
        let poses = trajectory
            .iter()
            .map(|p| {
                let (q, t) = (p.rotation, p.translation);
                [q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(f32::to_bits)
            })
            .collect();
        let splats = cloud.gaussians().iter().map(splat_bits).collect();
        Self { poses, splats, trace: trace.canonical_bytes() }
    }

    /// `Ok` when equal, else which part differs.
    pub fn check(&self, reference: &Fingerprint, what: &str) -> Result<(), String> {
        let part = if self.poses != reference.poses {
            "trajectory"
        } else if self.splats != reference.splats {
            "Gaussian map"
        } else if self.trace != reference.trace {
            "canonical trace"
        } else {
            return Ok(());
        };
        Err(format!("{what}: {part} differs from the reference"))
    }
}

fn splat_bits(g: &Gaussian) -> [u32; 14] {
    let (p, s, r, c) = (g.position, g.log_scale, g.rotation, g.color);
    [p.x, p.y, p.z, s.x, s.y, s.z, r.w, r.x, r.y, r.z, c.x, c.y, c.z, g.opacity_logit]
        .map(f32::to_bits)
}

/// Checks a finished stream against the paper's decision rules and the
/// trace's own bookkeeping: frames in order, frame 0 anchored as a refined
/// key frame, refinement exactly where FC(prev) < ThreshT (once the
/// snapshot tracking reads is non-empty), key frames exactly where
/// FC(key frame) < ThreshM, finite poses and splats, and map bytes that
/// match the final map.
pub fn check_stream(
    config: &AgsConfig,
    slack: usize,
    trajectory: &[Se3],
    cloud: &GaussianCloud,
    trace: &WorkloadTrace,
) -> Result<(), String> {
    let bad = |frame: usize, what: &str| Err(format!("frame {frame}: {what}"));
    if trace.frames.len() != trajectory.len() {
        return Err(format!("{} trace frames for {} poses", trace.frames.len(), trajectory.len()));
    }
    for (i, (f, pose)) in trace.frames.iter().zip(trajectory).enumerate() {
        if f.frame_index != i {
            return bad(i, "out of order");
        }
        if i == 0 && (!f.is_keyframe || !f.refined || *pose != Se3::IDENTITY) {
            return bad(i, "frame 0 must be an anchored, refined key frame");
        }
        let (q, t) = (pose.rotation, pose.translation);
        if ![q.w, q.x, q.y, q.z, t.x, t.y, t.z].iter().all(|v| v.is_finite()) {
            return bad(i, "pose is not finite");
        }
        if i > 0 {
            let wants_refine = f.fc_prev.is_some_and(|fc| fc < config.thresh_t);
            if f.refined && !wants_refine || wants_refine && i > slack && !f.refined {
                return bad(i, "refinement disagrees with FC(prev) and ThreshT");
            }
        }
        if f.is_keyframe != f.fc_keyframe.is_none_or(|fc| fc < config.thresh_m) {
            return bad(i, "key-frame flag disagrees with FC(key frame) and ThreshM");
        }
        if !f.refined && f.refine.iterations != 0 {
            return bad(i, "refinement work on a skipped frame");
        }
        if f.map_bytes != ags_splat::compact::map_bytes(f.num_gaussians, f.quantized_splats) {
            return bad(i, "map bytes disagree with the splat count");
        }
    }
    if trace.frames.last().map(|f| f.num_gaussians) != Some(cloud.len()) {
        return Err("final splat count differs from the map".into());
    }
    if !cloud
        .gaussians()
        .iter()
        .all(|g| splat_bits(g).iter().all(|b| f32::from_bits(*b).is_finite()))
    {
        return Err("map holds a non-finite splat".into());
    }
    Ok(())
}

/// A finished stage-driver pass.
pub struct DriverPass {
    pub trajectory: Vec<Se3>,
    pub cloud: GaussianCloud,
    pub trace: WorkloadTrace,
    /// Per-frame FC decisions (counts the trace does not keep).
    pub decisions: Vec<FcDecision>,
    /// Wall time of the frame loop.
    pub busy_s: f64,
}

/// Runs `data` through the stages, appending one span per stage call to
/// `spans` (timestamps relative to `epoch`).
pub fn run_stages(
    config: &AgsConfig,
    slack: usize,
    data: &Dataset,
    pass: usize,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> DriverPass {
    let config = config.clone().resolve();
    let mut fc = FcStage::new(&config);
    let mut coarse = CoarseTracker::new(config.coarse);
    // The refiner exactly as the program's tracking stage configures it.
    let refiner = GsPoseRefiner::new(RefineConfig {
        iterations: config.iter_t,
        learning_rate: config.slam.tracking_lr,
        loss: config.slam.tracking_loss,
        convergence_eps: 1e-4,
        parallelism: config.parallelism.clone(),
        backend: config.backend,
    });
    let mut map = MapStage::new(&config);
    let mut shared = SharedCloud::new();
    let mut window = SnapshotWindow::new(slack);
    let camera = &data.camera;
    let mut trace = WorkloadTrace::new(camera.width, camera.height);
    let mut trajectory = Vec::with_capacity(data.frames.len());
    let mut decisions = Vec::with_capacity(data.frames.len());
    let mut span = |layer, frame, start: Instant| {
        let dur_s = start.elapsed().as_secs_f64();
        let start_s = start.duration_since(epoch).as_secs_f64();
        spans.push(Span { layer, pass, frame, start_s, dur_s });
        dur_s
    };

    let loop_start = Instant::now();
    for (i, frame) in data.frames.iter().enumerate() {
        let (rgb, depth) = (&frame.rgb, &frame.depth);
        let start = Instant::now();
        let decision = fc.process(rgb);
        let fc_s = span(Layer::Fc, i, start);

        let mut record = TraceFrame { frame_index: i, ..TraceFrame::default() };
        record.fc_prev = decision.fc_prev.map(|c| c.value());
        record.fc_keyframe = decision.fc_keyframe.map(|c| c.value());
        record.codec.sad_evals = decision.sad_evals;
        record.is_keyframe = decision.is_keyframe;

        let snapshot = if slack == 0 { shared.peek() } else { window.stale().clone() };
        let start = Instant::now();
        let gray = rgb.to_gray();
        let estimate = coarse.track(camera, &gray, depth, Se3::IDENTITY);
        let mut track_s = span(Layer::Coarse, i, start);
        record.coarse = WorkUnits {
            nn_macs: estimate.backbone.total_macs(),
            gn_rows: estimate.gn_rows,
            ..WorkUnits::default()
        };
        let mut pose = estimate.pose;
        let refine = i > 0 && decision.needs_refinement && !snapshot.cloud().is_empty();
        if refine {
            let start = Instant::now();
            let result = refiner.refine_snapshot(&snapshot, camera, pose, rgb, depth);
            track_s += span(Layer::Refine, i, start);
            record.refine.add_render(&result.workload.render);
            record.refine.grad_ops += result.workload.grad_ops;
            record.refine.iterations += result.workload.iterations;
            pose = result.pose;
            coarse.correct_pose(pose);
        }
        if i == 0 {
            pose = Se3::IDENTITY;
            coarse.correct_pose(pose);
        }
        drop(snapshot);
        record.refined = refine || i == 0;
        trajectory.push(pose);

        let input =
            FrameInput { frame_index: i, camera, images: FrameImages::Borrowed { rgb, depth } };
        let start = Instant::now();
        let mapped = map.process(&input, &decision, pose, &mut shared);
        let map_s = span(Layer::Map, i, start);
        if slack > 0 {
            window.push(shared.publish());
        }
        record.mapping = mapped.mapping;
        record.tile_work = mapped.tile_work;
        record.fp_rate = mapped.fp_rate;
        record.num_gaussians = shared.read().len();
        record.pruned = mapped.pruned;
        record.quantized_splats = mapped.quantized_splats;
        record.map_bytes = mapped.map_bytes;
        record.backend = mapped.backend;
        record.projection_cache_hits = mapped.projection_cache_hits;
        record.projection_cache_misses = mapped.projection_cache_misses;
        record.stage_times = StageTimes { fc_s, track_s, map_s, stall_s: 0.0 };
        trace.frames.push(record);
        decisions.push(decision);
    }
    let busy_s = loop_start.elapsed().as_secs_f64();
    DriverPass { trajectory, cloud: shared.read().clone(), trace, decisions, busy_s }
}

/// Records the codec, track and splat per-layer metrics of traced passes.
pub fn set_layer_metrics(sheet: &mut stats::Sheet, passes: &[DriverPass], spans: &[Span]) {
    let frames: Vec<(&TraceFrame, &FcDecision)> =
        passes.iter().flat_map(|p| p.trace.frames.iter().zip(&p.decisions)).collect();
    let n = frames.len() as f64;
    let per_frame =
        |f: &dyn Fn(&TraceFrame) -> u64| frames.iter().map(|(t, _)| f(t) as f64).sum::<f64>() / n;
    let layer_ms = |layer: Layer| {
        let durs: Vec<f64> =
            spans.iter().filter(|s| s.layer == layer).map(|s| s.dur_s * 1e3).collect();
        (durs.iter().sum::<f64>() / n, format!("per frame; per call {}", stats::describe(&durs)))
    };

    let (fc_ms, note) = layer_ms(Layer::Fc);
    sheet.set("codec.fc_ms", fc_ms, "ms", note);
    sheet.set(
        "codec.sad_evals",
        per_frame(&|t| t.codec.sad_evals),
        "count",
        format!("per frame, n={n}"),
    );
    let later: Vec<&FcDecision> =
        frames.iter().filter(|(t, _)| t.frame_index > 0).map(|(_, d)| *d).collect();
    let skipped = later.iter().filter(|d| !d.needs_refinement).count();
    sheet.set(
        "codec.refine_skip_pct",
        stats::pct(skipped as f64, later.len() as f64),
        "%",
        format!("{skipped} of {} frames after frame 0", later.len()),
    );
    let keys = frames.iter().filter(|(t, _)| t.is_keyframe).count();
    let min_fc_key = frames.iter().filter_map(|(t, _)| t.fc_keyframe).fold(f32::INFINITY, f32::min);
    sheet.set(
        "codec.keyframe_pct",
        stats::pct(keys as f64, n),
        "%",
        format!("{keys} of {n} frames; lowest FC(key frame) {min_fc_key:.3}"),
    );

    let (coarse_ms, note) = layer_ms(Layer::Coarse);
    sheet.set("track.coarse_ms", coarse_ms, "ms", note);
    sheet.set(
        "track.coarse_nn_macs",
        per_frame(&|t| t.coarse.nn_macs),
        "count",
        "per frame".into(),
    );
    sheet.set(
        "track.coarse_gn_rows",
        per_frame(&|t| t.coarse.gn_rows),
        "count",
        "per frame".into(),
    );
    let (refine_ms, note) = layer_ms(Layer::Refine);
    sheet.set("track.refine_ms", refine_ms, "ms", note);
    let calls = spans.iter().filter(|s| s.layer == Layer::Refine).count() as f64;
    sheet.set("track.refine_calls_pct", stats::pct(calls, n), "%", format!("{calls} calls"));
    let iters: f64 = frames.iter().map(|(t, _)| f64::from(t.refine.iterations)).sum();
    sheet.set(
        "track.refine_iters_per_call",
        if calls > 0.0 { iters / calls } else { 0.0 },
        "count",
        format!("n={calls} calls"),
    );
    sheet.set(
        "track.refine_render_alpha",
        per_frame(&|t| t.refine.render_alpha),
        "count",
        "per frame".into(),
    );

    let (map_ms, note) = layer_ms(Layer::Map);
    sheet.set("splat.map_ms", map_ms, "ms", note);
    sheet.set(
        "splat.map_iters",
        per_frame(&|t| u64::from(t.mapping.iterations)),
        "count",
        "per frame".into(),
    );
    sheet.set("splat.pairs", per_frame(&|t| t.mapping.pairs), "count", "per frame".into());
    let (pairs, skipped_pairs) = frames.iter().fold((0.0, 0.0), |(p, s), (t, _)| {
        (p + t.mapping.pairs as f64, s + t.mapping.skipped_pairs as f64)
    });
    sheet.set(
        "splat.skipped_pair_pct",
        stats::pct(skipped_pairs, pairs + skipped_pairs),
        "%",
        "of (splat, tile) pairs".into(),
    );
    sheet.set("splat.grad_ops", per_frame(&|t| t.mapping.grad_ops), "count", "per frame".into());
    sheet.set("splat.splats", per_frame(&|t| t.num_gaussians as u64), "count", "per frame".into());
    let (hits, misses) =
        passes.iter().filter_map(|p| p.trace.frames.last()).fold((0.0, 0.0), |(h, m), f| {
            (h + f.projection_cache_hits as f64, m + f.projection_cache_misses as f64)
        });
    sheet.set(
        "splat.proj_cache_hit_pct",
        stats::pct(hits, hits + misses),
        "%",
        format!("{hits} hits, {misses} misses"),
    );
}

/// Writes the spans as CSV under the build directory (the benchmark's only
/// on-disk output); failure to write is reported, not fatal.
pub fn write_spans(spans: &[Span], name: &str) {
    let dir = std::path::Path::new(".bench_build").join("spans");
    let mut csv = String::from("layer,pass,frame,start_s,dur_s\n");
    for s in spans {
        csv.push_str(&format!(
            "{},{},{},{:.9},{:.9}\n",
            s.layer.name(),
            s.pass,
            s.frame,
            s.start_s,
            s.dur_s
        ));
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
}
