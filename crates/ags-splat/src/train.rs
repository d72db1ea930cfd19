//! One-call training steps combining forward, loss, backward and update.

use crate::backend::BackendKind;
use crate::backward::{backward, BackwardOutput, GradMode};
use crate::gaussian::GaussianCloud;
use crate::idset::IdSet;
use crate::loss::{compute_loss, LossConfig, LossResult};
use crate::optim::Adam;
use crate::render::{rasterize_logged, BlendLog, RenderOptions, RenderOutput};
use ags_image::{DepthImage, RgbImage};
use ags_math::parallel::Parallelism;
use ags_math::Se3;
use ags_scene::PinholeCamera;

/// Workload and quality report of one training step.
#[derive(Debug)]
pub struct StepReport {
    /// Loss before the parameter update.
    pub loss: f32,
    /// The render produced during the forward pass.
    pub render: RenderOutput,
    /// Backward products (pose gradient and/or parameter grads were consumed
    /// by the update but stats remain useful).
    pub backward: BackwardOutput,
}

/// Runs one *mapping* iteration: render → loss → backward → Adam update of
/// Gaussian parameters (pose fixed). This is steps ①–⑤ of the paper's
/// Fig. 2(b) mapping loop.
///
/// `skip` excludes Gaussians from rendering *and* updating — the hook
/// selective mapping uses. `blend_log` carries the forward pass's blend
/// lists to the backward pass; reuse one across iterations.
#[allow(clippy::too_many_arguments)]
pub fn mapping_step(
    cloud: &mut GaussianCloud,
    adam: &mut Adam,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    loss_config: &LossConfig,
    skip: Option<&IdSet>,
    render_options: &RenderOptions,
    blend_log: &mut BlendLog,
) -> StepReport {
    let mut options = render_options.clone();
    options.skip = skip.map(|s| std::sync::Arc::new(s.clone()));
    let backend = options.backend.backend();
    let projection = backend.project(cloud, camera, pose);
    let tables = backend.build_tables(&projection, camera, &options.parallelism);
    let render = rasterize_logged(cloud, &projection, &tables, camera, &options, blend_log);
    let loss = compute_loss(&render, gt_rgb, gt_depth, loss_config);
    let back = backward(
        cloud,
        &projection,
        &tables,
        camera,
        &loss,
        blend_log,
        GradMode::Map,
        &options.parallelism,
    );
    if let Some(grads) = &back.grads {
        adam.step(cloud, grads);
    }
    StepReport { loss: loss.total, render, backward: back }
}

/// Runs one *tracking* gradient evaluation: render → loss → pose gradient.
/// Gaussians are left untouched; the caller applies the pose update (see
/// [`crate::optim::PoseAdam`]). `par` drives both the forward rasterizer and
/// the backward tile walk.
pub fn tracking_gradient(
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    loss_config: &LossConfig,
    par: &Parallelism,
) -> (LossResult, BackwardOutput, RenderOutput) {
    tracking_gradient_with(
        BackendKind::default(),
        cloud,
        camera,
        pose,
        gt_rgb,
        gt_depth,
        loss_config,
        par,
        &mut BlendLog::default(),
    )
}

/// [`tracking_gradient`] with an explicit render backend and a caller-owned
/// `blend_log` (reuse one across a refinement's iterations).
#[allow(clippy::too_many_arguments)]
pub fn tracking_gradient_with(
    backend: BackendKind,
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    loss_config: &LossConfig,
    par: &Parallelism,
    blend_log: &mut BlendLog,
) -> (LossResult, BackwardOutput, RenderOutput) {
    let options = RenderOptions { parallelism: par.clone(), backend, ..RenderOptions::default() };
    let be = backend.backend();
    let projection = be.project(cloud, camera, pose);
    let tables = be.build_tables(&projection, camera, par);
    let render = rasterize_logged(cloud, &projection, &tables, camera, &options, blend_log);
    let loss = compute_loss(&render, gt_rgb, gt_depth, loss_config);
    let back =
        backward(cloud, &projection, &tables, camera, &loss, blend_log, GradMode::Track, par);
    (loss, back, render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::densify::{densify_from_frame, DensifyConfig};
    use crate::gaussian::Gaussian;
    use crate::optim::AdamConfig;
    use crate::render::render;
    use ags_math::{Pcg32, Vec3};

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 24, 1.2)
    }

    /// Builds a "ground truth" scene of a few Gaussians and a target render.
    fn gt_setup() -> (GaussianCloud, RgbImage, DepthImage) {
        let mut gt_cloud = GaussianCloud::new();
        gt_cloud.push(Gaussian::isotropic(
            Vec3::new(-0.2, 0.0, 2.0),
            0.25,
            Vec3::new(0.9, 0.2, 0.1),
            0.9,
        ));
        gt_cloud.push(Gaussian::isotropic(
            Vec3::new(0.25, 0.1, 2.4),
            0.3,
            Vec3::new(0.1, 0.8, 0.3),
            0.9,
        ));
        let out = render(&gt_cloud, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        (gt_cloud, out.color, out.depth)
    }

    #[test]
    fn mapping_iterations_reduce_loss() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        // Start from the GT cloud with perturbed colors.
        let mut cloud = gt_cloud.clone();
        for g in cloud.gaussians_mut() {
            g.color = Vec3::splat(0.5);
        }
        let mut adam = Adam::new(AdamConfig { lr_color: 0.05, ..Default::default() });
        let cam = camera();
        let cfg = LossConfig::mapping();
        let mut log = BlendLog::default();
        let first = mapping_step(
            &mut cloud,
            &mut adam,
            &cam,
            &Se3::IDENTITY,
            &gt_rgb,
            &gt_depth,
            &cfg,
            None,
            &RenderOptions::default(),
            &mut log,
        )
        .loss;
        let mut last = first;
        for _ in 0..40 {
            last = mapping_step(
                &mut cloud,
                &mut adam,
                &cam,
                &Se3::IDENTITY,
                &gt_rgb,
                &gt_depth,
                &cfg,
                None,
                &RenderOptions::default(),
                &mut log,
            )
            .loss;
        }
        assert!(last < first * 0.5, "mapping should converge: {first} -> {last}");
    }

    #[test]
    fn densify_then_train_reconstructs_plane() {
        // End-to-end: empty map + one RGB-D frame -> densify -> train -> PSNR.
        let cam = camera();
        let gt_rgb = RgbImage::filled(cam.width, cam.height, Vec3::new(0.3, 0.5, 0.7));
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.0);
        let mut cloud = GaussianCloud::new();
        let empty = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(7);
        densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &gt_rgb,
            &gt_depth,
            &empty,
            &DensifyConfig::default(),
            &mut rng,
        );
        let mut adam = Adam::new(AdamConfig::default());
        let cfg = LossConfig::mapping();
        let mut log = BlendLog::default();
        for _ in 0..25 {
            mapping_step(
                &mut cloud,
                &mut adam,
                &cam,
                &Se3::IDENTITY,
                &gt_rgb,
                &gt_depth,
                &cfg,
                None,
                &RenderOptions::default(),
                &mut log,
            );
        }
        let out = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let psnr = ags_image::metrics::psnr(&out.color, &gt_rgb);
        assert!(psnr > 20.0, "reconstruction PSNR too low: {psnr}");
        let depth_err = ags_image::metrics::depth_l1(&out.depth, &gt_depth);
        assert!(depth_err < 0.3, "depth error too high: {depth_err}");
    }

    #[test]
    fn skip_set_freezes_skipped_gaussians() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        let mut cloud = gt_cloud.clone();
        for g in cloud.gaussians_mut() {
            g.color = Vec3::splat(0.5);
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        skip.insert(1);
        let frozen_before = cloud.gaussians()[1];
        let mut adam = Adam::new(AdamConfig::default());
        let cam = camera();
        mapping_step(
            &mut cloud,
            &mut adam,
            &cam,
            &Se3::IDENTITY,
            &gt_rgb,
            &gt_depth,
            &LossConfig::mapping(),
            Some(&skip),
            &RenderOptions::default(),
            &mut BlendLog::default(),
        );
        assert_eq!(cloud.gaussians()[1], frozen_before, "skipped gaussian must not move");
        assert_ne!(cloud.gaussians()[0].color, Vec3::splat(0.5), "active gaussian trains");
    }

    #[test]
    fn tracking_gradient_is_nonzero_off_pose() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        let off_pose = Se3::from_translation(Vec3::new(0.03, 0.0, 0.0));
        let (_, back, _) = tracking_gradient(
            &gt_cloud,
            &camera(),
            &off_pose,
            &gt_rgb,
            &gt_depth,
            &LossConfig::tracking(),
            &Parallelism::default(),
        );
        let pg = back.pose.unwrap();
        let norm: f32 = pg.twist.iter().map(|t| t * t).sum::<f32>();
        assert!(norm > 0.0, "off-pose tracking gradient must be non-zero");
    }
}
