"""Acceptance gate: one criterion per test, each printing a pass/fail line.

Every tolerance is pinned in the assertion next to the printed summary, so a
red line here means the stated guarantee is broken, not that a test drifted.
"""

import math
import time

import numpy as np
import pytest

from tacsense import calib, cli, fileio, recon, sim
from tacsense.cli import (
    CALIB_BALL_RADIUS,
    TEST_BALL_RADIUS,
    TEST_PRESSES,
    RunConfig,
)
from tacsense.core import (
    Cylinder,
    DepthMap,
    GrayImage,
    Planar,
    PointCloud,
    RgbImage,
    SensorGeometry,
    Sphere,
    gray_from_rgb,
    surface_axis,
)
from tacsense.pose import SOURCE_BUDGET, Pose, icp, nearest_neighbors, track_pose


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[criterion {criterion:2d}] "
                  f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return _announce


@pytest.fixture(scope="module")
def eval_noiseless():
    """Full five-scheme closed-loop study, noiseless, fixed seed."""
    t0 = time.perf_counter()
    report = cli.run_evaluation(RunConfig(seed=0))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def eval_noisy():
    """Standard-scheme closed loop at sigma = 1 gray level of render noise."""
    t0 = time.perf_counter()
    report = cli.run_evaluation(RunConfig(seed=0, noise_sigma=1.0),
                                schemes=("standard",))
    return report, time.perf_counter() - t0


def single_press_calibration(optical, illum, geom, d_max):
    reference = sim.reference_image(optical, illum)
    depth = sim.sphere_press_depth(geom, CALIB_BALL_RADIUS, d_max,
                                   thickness=optical.thickness)
    diff = recon.difference(reference, sim.render_tactile(depth, optical, illum))
    model = cli.calibrate_single(diff, CALIB_BALL_RADIUS, geom)
    return model, reference


def test_criterion_1_closed_loop_accuracy(eval_noiseless, eval_noisy, announce):
    clean, t_clean = eval_noiseless
    noisy, t_noisy = eval_noisy
    mae_clean = clean["schemes"]["standard"]["single_mae"]
    mae_noisy = noisy["schemes"]["standard"]["single_mae"]
    runtime = t_clean / len(clean["schemes"]) + t_noisy
    ok = mae_clean <= 0.05 and mae_noisy <= 0.10 and runtime <= 30.0
    announce(1, "closed-loop reconstruction accuracy", ok,
             f"MAE {mae_clean:.4f} mm noiseless (<= 0.05), "
             f"{mae_noisy:.4f} mm at sigma=1 (<= 0.10), {runtime:.1f} s (<= 30)")
    assert mae_clean <= 0.05
    assert mae_noisy <= 0.10
    assert runtime <= 30.0


def test_criterion_2_method_ordering(eval_noiseless, announce):
    report, _ = eval_noiseless
    pairs = {s: (c["single_mae"], c["regression_mae"])
             for s, c in report["schemes"].items()}
    ok = all(single <= reg for single, reg in pairs.values())
    detail = ", ".join(f"{s}: {a:.4f} <= {b:.4f}" for s, (a, b) in pairs.items())
    announce(2, "single-image MAE <= regression MAE per scheme", ok, detail)
    for scheme, (single, reg) in pairs.items():
        assert single <= reg, scheme


def test_criterion_3_illumination_robustness(eval_noiseless, announce):
    report, _ = eval_noiseless
    base = report["schemes"]["standard"]["single_mae"]
    ratios = {s: report["schemes"][s]["single_mae"] / base
              for s in ("s1", "s2", "s3")}
    ok = all(r <= 2.0 for r in ratios.values())
    announce(3, "schemes 1-3 MAE within 2x of standard", ok,
             ", ".join(f"{s}: {r:.2f}x" for s, r in ratios.items()))
    for scheme, ratio in ratios.items():
        assert ratio <= 2.0, scheme


def test_criterion_4_reference_statistics(eval_noiseless, announce):
    report, _ = eval_noiseless
    std = {s: report["schemes"][s]["reference_std"] for s in ("standard", "s4")}
    ok = 3.0 <= std["standard"] <= 6.0 and std["s4"] >= 3.0 * std["standard"]
    announce(4, "reference-image uniformity statistics", ok,
             f"standard std {std['standard']:.3f} (in [3, 6]), "
             f"s4 std {std['s4']:.3f} "
             f"({std['s4'] / std['standard']:.2f}x >= 3x)")
    assert 3.0 <= std["standard"] <= 6.0
    assert std["s4"] >= 3.0 * std["standard"]


def test_criterion_5_depth_range_bound(geom, announce):
    results = {}
    for thickness in (1.0, 1.5, 2.0, 2.5, 3.0):
        optical = sim.OpticalModel(thickness=thickness)
        illum = sim.uniform_illumination(geom.crop_size)
        model, reference = single_press_calibration(
            optical, illum, geom, d_max=0.95 * thickness)
        truth = sim.synth_object_depth("set_screw", geom, thickness=thickness,
                                       depth=thickness + 1.0)
        contact = sim.render_tactile(truth, optical, illum)
        pipeline = recon.PipelineConfig(model=model, geom=geom,
                                        depth_clamp=thickness)
        depth = recon.reconstruct(reference, contact, pipeline)
        results[thickness] = float(depth.data.max())
    ok = all(v <= t + 0.02 for t, v in results.items())
    announce(5, "reconstruction bounded by layer thickness", ok,
             ", ".join(f"T={t}: max {v:.3f}" for t, v in results.items()))
    for thickness, peak in results.items():
        assert peak <= thickness + 0.02, thickness


def test_criterion_6_non_planar_consistency(geom, announce):
    zero = DepthMap(np.zeros((geom.crop_size,) * 2))
    sphere_cloud, _ = recon.raycast_project(zero, Sphere(radius=20.0), geom)
    sphere_err = float(np.abs(
        np.linalg.norm(sphere_cloud.points, axis=1) - 20.0).max())
    cyl_cloud, _ = recon.raycast_project(
        zero, Cylinder(radius=15.0, axis=(0.0, 1.0, 0.0)), geom)
    cyl_err = float(np.abs(
        np.linalg.norm(cyl_cloud.points[:, [0, 2]], axis=1) - 15.0).max())
    rng = np.random.default_rng(0)
    bumpy = DepthMap(rng.uniform(0, 2.0, (geom.crop_size,) * 2))
    ray, _ = recon.raycast_project(bumpy, Planar(), geom)
    # Built here, not by depth_to_pointcloud, which raycast_project returns.
    x, y = np.broadcast_arrays(surface_axis(geom), surface_axis(geom)[:, None])
    flat = np.column_stack([x.ravel(), y.ravel(), -bumpy.data.ravel()])
    planar_err = float(np.abs(ray.points - flat).max())
    ok = sphere_err <= 1e-6 and cyl_err <= 1e-6 and planar_err <= 1e-9
    announce(6, "non-planar surface projection consistency", ok,
             f"sphere {sphere_err:.1e} (<= 1e-6), cylinder {cyl_err:.1e} "
             f"(<= 1e-6), planar {planar_err:.1e} (<= 1e-9)")
    assert sphere_err <= 1e-6
    assert cyl_err <= 1e-6
    assert planar_err <= 1e-9


def test_criterion_7_icp_correctness(announce):
    rng = np.random.default_rng(0)
    src = PointCloud(rng.uniform(-10, 10, (500, 3)))
    true = Pose.rot_z(5.0, translation=(0.2, -0.1, 0.05))
    dst = PointCloud(true.apply(src.points))
    clean = icp(src, dst).pose.compose(true.inverse())
    clean_rot = clean.rotation_angle_deg()
    clean_trans = float(np.linalg.norm(clean.translation))

    noisy_dst = PointCloud(true.apply(src.points)
                           + rng.normal(0, 0.01, src.points.shape))
    noisy_rot = icp(src, noisy_dst).pose.compose(
        true.inverse()).rotation_angle_deg()

    monotone = True
    for seed in range(100):
        r = np.random.default_rng(seed)
        pts = PointCloud(r.uniform(-10, 10, (200, 3)))
        pose = Pose.rot_z(float(r.uniform(-10, 10)),
                          translation=r.uniform(-0.5, 0.5, 3))
        target = PointCloud(pose.apply(pts.points))
        rmses = [icp(pts, target, max_iter=k, tol_mm=0.0).rmse
                 for k in range(1, 6)]
        if any(b > a + 1e-12 for a, b in zip(rmses, rmses[1:])):
            monotone = False
            break

    q = PointCloud(rng.uniform(-10, 10, (200, 3)))
    t = PointCloud(rng.uniform(-10, 10, (200, 3)))
    idx, dist = nearest_neighbors(q, t)
    all_d = np.linalg.norm(q.points[:, None, :] - t.points[None, :, :], axis=2)
    nn_exact = (np.array_equal(idx, all_d.argmin(axis=1))
                and np.allclose(dist, all_d.min(axis=1)))

    ok = (clean_rot <= 0.5 and clean_trans <= 0.05 and noisy_rot <= 1.0
          and monotone and nn_exact)
    announce(7, "ICP correctness", ok,
             f"clean error {clean_rot:.2e} deg / {clean_trans:.2e} mm, "
             f"noisy {noisy_rot:.3f} deg, RMSE monotone on 100 instances: "
             f"{monotone}, NN matches brute force: {nn_exact}")
    assert clean_rot <= 0.5 and clean_trans <= 0.05
    assert noisy_rot <= 1.0
    assert monotone
    assert nn_exact


def test_criterion_8_hex_nut_tracking(geom, announce):
    t0 = time.perf_counter()
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    model, reference = single_press_calibration(optical, illum, geom, d_max=1.9)
    pipeline = recon.PipelineConfig(model=model, geom=geom,
                                    depth_clamp=optical.thickness)
    step = 5.0
    poses = [Pose.rot_z(step * k) for k in range(12)]
    frames = sim.render_sequence(sim.object_depth_field("hex_nut"), poses,
                                 geom, optical, illum)
    clouds = [recon.reconstruct_cloud(recon.difference(reference, f.image), pipeline)
              for f in frames]
    reports = track_pose(clouds, clouds[0])
    errors = []
    for k, report in enumerate(reports):
        # Scored modulo the nut's 60-degree rotational symmetry.
        err = (report.pose.z_angle_deg() - step * k + 30.0) % 60.0 - 30.0
        errors.append(abs(err))
    runtime = time.perf_counter() - t0
    worst = max(errors)
    ok = worst <= 2.0 and runtime <= 60.0
    announce(8, "12-frame hex-nut rotation tracking", ok,
             f"worst per-frame error {worst:.3f} deg (<= 2, mod 60), "
             f"{runtime:.1f} s (<= 60)")
    assert worst <= 2.0
    assert runtime <= 60.0


def test_criterion_9_performance(geom, announce):
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    model, reference = single_press_calibration(optical, illum, geom, d_max=1.9)
    pipeline = recon.PipelineConfig(model=model, geom=geom,
                                    depth_clamp=optical.thickness)
    depth = sim.sphere_press_depth(geom, TEST_BALL_RADIUS, 1.2,
                                   thickness=optical.thickness)
    contact = sim.render_tactile(depth, optical, illum)
    rng = np.random.default_rng(0)
    raw = RgbImage(rng.integers(0, 256, (geom.raw_height, geom.raw_width, 3),
                                dtype=np.uint8))
    pipeline_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        cropped = recon.preprocess_raw(gray_from_rgb(raw), pipeline)
        recon.reconstruct(reference, contact, pipeline)
        pipeline_times.append(time.perf_counter() - t0)
        assert cropped.pixels.shape == (geom.crop_size, geom.crop_size)
    pipeline_ms = min(pipeline_times) * 1e3

    src = PointCloud(rng.uniform(-10, 10, (4000, 3)))
    dst = PointCloud(Pose.rot_z(3.0, translation=(0.1, 0.0, 0.0)).apply(src.points))
    icp_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        icp(src, dst)
        icp_times.append(time.perf_counter() - t0)
    icp_ms = min(icp_times) * 1e3
    ok = pipeline_ms <= 50.0 and icp_ms <= 100.0
    announce(9, "runtime performance", ok,
             f"pipeline {pipeline_ms:.1f} ms/frame (<= 50), "
             f"ICP handed {len(src)} points, matching {SOURCE_BUDGET}, "
             f"{icp_ms:.1f} ms (<= 100)")
    assert pipeline_ms <= 50.0
    assert icp_ms <= 100.0


def test_criterion_10_numerical_hygiene(geom, tmp_path, announce):
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    reference = sim.reference_image(optical, illum)
    monotone_runs = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d_max = float(rng.uniform(0.4, 0.95) * optical.thickness)
        center = tuple(rng.uniform(-1.0, 1.0, 2))
        depth = sim.sphere_press_depth(geom, CALIB_BALL_RADIUS, d_max,
                                       center=center,
                                       thickness=optical.thickness)
        img = sim.render_tactile(depth, optical, illum, noise_sigma=1.0, rng=rng)
        diff = recon.difference(reference, img)
        model = cli.calibrate_single(diff, CALIB_BALL_RADIUS, geom)
        if np.all(np.diff(model.depths) >= 0):
            monotone_runs += 1

    rng = np.random.default_rng(1)
    ortho_err = 0.0
    for _ in range(10):
        src = PointCloud(rng.uniform(-10, 10, (300, 3)))
        pose = Pose.rot_z(float(rng.uniform(-15, 15)),
                          translation=rng.uniform(-0.5, 0.5, 3))
        dst = PointCloud(pose.apply(src.points))
        r = icp(src, dst).pose.rotation
        ortho_err = max(ortho_err, float(np.abs(r.T @ r - np.eye(3)).max()))

    img = GrayImage(rng.integers(0, 256, (32, 48), dtype=np.uint8))
    fileio.write_pgm(tmp_path / "a.pgm", img)
    pgm_ok = np.array_equal(fileio.read_pgm(tmp_path / "a.pgm").pixels, img.pixels)
    dm = DepthMap(rng.integers(0, 256, (16, 16)).astype(np.float64) / 128.0)
    fileio.write_depth(tmp_path / "a.dtd", dm)
    depth_ok = np.array_equal(fileio.read_depth(tmp_path / "a.dtd").data, dm.data)
    cloud = PointCloud(rng.integers(-64, 64, (40, 3)).astype(np.float64) / 16.0)
    fileio.write_ply(tmp_path / "a.ply", cloud)
    ply_ok = np.array_equal(fileio.read_ply(tmp_path / "a.ply").points,
                            cloud.points)

    ok = (monotone_runs == 50 and ortho_err <= 1e-9
          and pgm_ok and depth_ok and ply_ok)
    announce(10, "numerical hygiene", ok,
             f"monotone mapping lists {monotone_runs}/50, rotation "
             f"orthonormality {ortho_err:.1e} (<= 1e-9), exact file round "
             f"trips: pgm={pgm_ok} depth={depth_ok} ply={ply_ok}")
    assert monotone_runs == 50
    assert ortho_err <= 1e-9
    assert pgm_ok and depth_ok and ply_ok
