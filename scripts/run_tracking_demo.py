#!/usr/bin/env python3
"""Pose-tracking demo: rotate a hex nut against the sensor and track it.

Renders a simulated rotation sequence, reconstructs a rim point cloud per
frame, runs incremental ICP seeded from the previous pose, and prints the
estimated against the true rotation angle for every frame, with the ICP
residual, iteration count and whether ICP converged before its cap.
"""

import argparse

import numpy as np

from tacsense import calib, cli, recon, sim
from tacsense.core import SensorGeometry
from tacsense.pose import Pose, track_pose


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--step-deg", type=float, default=5.0)
    parser.add_argument("--object", default="hex_nut",
                        choices=["slab", "ball_array", "star", "hex_nut"])
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    geom = SensorGeometry()
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    rng = np.random.default_rng(args.seed)

    reference = sim.reference_image(optical, illum)
    press = sim.sphere_press_depth(geom, cli.CALIB_BALL_RADIUS, 1.9,
                                   thickness=optical.thickness)
    diff = recon.difference(reference, sim.render_tactile(press, optical, illum))
    model = calib.calibrate_single(diff, cli.CALIB_BALL_RADIUS, geom)
    pipeline = recon.PipelineConfig(model=model, geom=geom,
                                    depth_clamp=optical.thickness)

    poses = [Pose.rot_z(args.step_deg * k) for k in range(args.frames)]
    frames = sim.render_sequence(sim.object_depth_field(args.object), poses,
                                 geom, optical, illum,
                                 noise_sigma=args.noise, rng=rng)
    clouds = [cli.reconstruct_cloud(recon.difference(reference, f.image),
                                    pipeline, geom, rim_only=True)
              for f in frames]
    reports = track_pose(clouds, clouds[0])

    print(f"{'frame':>5} {'true deg':>9} {'estimated':>10} "
          f"{'rmse mm':>8} {'iters':>5} {'converged':>9}")
    for k, report in enumerate(reports):
        true_deg = args.step_deg * k
        print(f"{k:>5} {true_deg:>9.2f} {report.pose.z_angle_deg():>10.3f} "
              f"{report.rmse:>8.4f} {report.iterations:>5} "
              f"{'yes' if report.converged else 'NO':>9}")


if __name__ == "__main__":
    main()
