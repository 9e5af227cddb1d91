import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from tacsense import calib, cli, pose as pose_module, recon, sim
from tacsense.core import DegenerateGeometryError, DepthMap, PointCloud, average_frames
from tacsense.pose import (
    IcpReport,
    Pose,
    best_rigid_transform,
    icp,
    nearest_neighbors,
    plane_step,
    track_pose,
)

import oracles


def random_cloud(n=300, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-scale, scale, (n, 3)))


def graph_surface(n, seed, amplitude=1.0):
    """Points on the smooth graph z = f(x, y), like a reconstructed depth map."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-5.0, 5.0, (2, n))
    z = amplitude * (np.sin(0.6 * x) + np.cos(0.4 * y) + 0.05 * x * y)
    return PointCloud(np.column_stack([x, y, z]))


def graph_normals(points, amplitude=1.0):
    """Unit normals of graph_surface's z = f(x, y), from its analytic gradient."""
    x, y = points[:, 0], points[:, 1]
    fx = amplitude * (0.6 * np.cos(0.6 * x) + 0.05 * y)
    fy = amplitude * (-0.4 * np.sin(0.4 * y) + 0.05 * x)
    normals = np.column_stack([-fx, -fy, np.ones_like(x)])
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def plane_rms(pose, source, target):
    """The plane RMS that icp scores `pose` by, over its inlier pairs: of
    (p - q) . n, with n = n_q + R n_p, or n_q for a source without normals."""
    moved = pose.apply(source.points)
    distances, indices = cKDTree(target.points).query(moved, k=1)
    keep = distances <= pose_module.REJECT_RATIO * max(float(np.median(distances)), 1e-12)
    dst = indices[keep]
    normals = target.normals[dst]
    if source.normals is not None:
        normals = normals + source.normals[keep] @ pose.rotation.T
    return pose_module._rms(np.sum((moved[keep] - target.points[dst]) * normals, axis=1))


def assert_same_report(a, b):
    """Two ICP reports agree byte for byte, field by field."""
    assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
    assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
    assert ((a.rmse, a.stop, a.plane_steps, a.svd_steps, a.inlier_fraction)
            == (b.rmse, b.stop, b.plane_steps, b.svd_steps, b.inlier_fraction))


def spy(fn, calls):
    """fn, recording each result in `calls`."""
    def wrapped(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return wrapped


def small_motion(rng, max_deg, max_mm):
    axis = rng.normal(size=3)
    angle = np.radians(rng.uniform(-max_deg, max_deg))
    rot = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
    return Pose(rot, rng.uniform(-max_mm, max_mm, 3))


def noiseless_rims(geom, kind, poses):
    """Rim clouds of the object `kind` rendered without noise at `poses`,
    calibrated from one ball press on a uniform LED field."""
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    reference = sim.reference_image(optical, illum)
    press = sim.sphere_press_depth(geom, cli.CALIB_BALL_RADIUS, 1.9,
                                   thickness=optical.thickness)
    diff = recon.difference(reference, sim.render_tactile(press, optical, illum))
    model = calib.calibrate_single(diff, cli.CALIB_BALL_RADIUS, geom)
    pipeline = recon.PipelineConfig(model=model, geom=geom,
                                    depth_clamp=optical.thickness)
    frames = sim.render_sequence(sim.object_depth_field(kind), poses,
                                 geom, optical, illum)
    assert all(f.in_field for f in frames)
    return [recon.reconstruct_cloud(recon.difference(reference, f.image), pipeline)
            for f in frames]


@pytest.fixture(scope="module")
def hex_nut_rims(geom):
    """Rim clouds of a 12-frame hex-nut rotation in 5-degree steps."""
    return noiseless_rims(geom, "hex_nut", [Pose.rot_z(5.0 * k) for k in range(12)])


def live_track_rims(seed, kind="hex_nut"):
    """Rim clouds of the benchmark's live_track input for `seed`: a noisy
    (sigma 1) 24-frame rotation of the object `kind` (live_track's is the hex
    nut) in 5-degree steps, calibrated from one deep press against an 8-frame
    averaged reference, drawn from the seed as perfbench/workloads.py draws
    them."""
    sigma = 1.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    cfg = cli.RunConfig(noise_sigma=sigma)
    geom, optical, illum = cfg.geometry(), cfg.optical(), cfg.illumination()
    reference = average_frames([
        sim.render_tactile(DepthMap(np.zeros_like(illum.gains)), optical, illum,
                           noise_sigma=sigma, rng=rng) for _ in range(8)])
    press = sim.sphere_press_depth(geom, cli.CALIB_BALL_RADIUS, 0.95 * optical.thickness,
                                   center=tuple(rng.uniform(-1.0, 1.0, size=2)),
                                   thickness=optical.thickness)
    diff = recon.difference(reference, sim.render_tactile(press, optical, illum,
                                                          noise_sigma=sigma, rng=rng))
    pipeline = recon.PipelineConfig(
        model=cli.calibrate_single(diff, cli.CALIB_BALL_RADIUS, geom), geom=geom,
        sigma=cfg.gaussian_sigma, depth_clamp=optical.thickness)
    poses = [Pose.rot_z(5.0 * k) for k in range(24)]
    frames = sim.render_sequence(sim.object_depth_field(kind), poses, geom,
                                 optical, illum, noise_sigma=sigma, rng=rng)
    assert all(f.in_field for f in frames)
    return [recon.reconstruct_cloud(recon.difference(reference, f.image), pipeline)
            for f in frames]


@pytest.fixture(scope="module")
def live_track_708_rims():
    return live_track_rims(708)


class TestPose:
    def test_identity_leaves_points_fixed(self):
        pts = random_cloud(20, seed=1).points
        assert np.array_equal(Pose.identity().apply(pts), pts)

    def test_rot_z_quarter_turn(self):
        pose = Pose.rot_z(90.0)
        out = pose.apply(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_rotation_angle_and_z_angle(self):
        pose = Pose.rot_z(37.0)
        assert pose.rotation_angle_deg() == pytest.approx(37.0, abs=1e-9)
        assert pose.z_angle_deg() == pytest.approx(37.0, abs=1e-9)

    def test_compose_then_inverse_is_identity(self):
        a = Pose.rot_z(25.0, translation=(1.0, -2.0, 0.5))
        b = a.compose(a.inverse())
        assert np.abs(b.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(b.translation).max() < 1e-12

    def test_compose_order_matches_function_composition(self):
        a = Pose.rot_z(30.0, translation=(1.0, 0.0, 0.0))
        b = Pose.rot_z(-10.0, translation=(0.0, 2.0, 0.0))
        pts = random_cloud(15, seed=2).points
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)))

    @pytest.mark.parametrize("rotation", [np.eye(3) * 1.001, np.full((3, 3), 1e200),
                                          np.diag([1e300, 1.0, 1.0])])
    def test_non_orthonormal_rotation_rejected(self, rotation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not orthonormal"):
                Pose(rotation, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("rotation, translation", [
        (np.full((3, 3), np.nan), np.zeros(3)),
        (np.eye(3), [0.0, math.inf, 0.0]),
        (np.eye(3), [math.nan, 0.0, 0.0]),
    ])
    def test_non_finite_pose_rejected(self, rotation, translation):
        with pytest.raises(ValueError, match="non-finite"):
            Pose(rotation, translation)

    @given(st.floats(-179.0, 179.0))
    def test_rot_z_angle_round_trip(self, angle):
        assert Pose.rot_z(angle).z_angle_deg() == pytest.approx(angle, abs=1e-9)


class TestNearestNeighbors:
    def test_self_query_is_identity(self):
        cloud = random_cloud(50, seed=3)
        idx, dist = nearest_neighbors(cloud, cloud)
        assert np.array_equal(idx, np.arange(50))
        assert np.all(dist == 0.0)

    def test_single_target(self):
        q = PointCloud(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        t = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        idx, dist = nearest_neighbors(q, t)
        assert np.array_equal(idx, [0, 0])
        assert dist[1] == pytest.approx(5.0)

    def test_matches_brute_force(self):
        q = random_cloud(200, seed=4)
        t = random_cloud(200, seed=5)
        idx, dist = nearest_neighbors(q, t)
        all_d = np.linalg.norm(q.points[:, None, :] - t.points[None, :, :], axis=2)
        assert np.array_equal(idx, all_d.argmin(axis=1))
        assert np.allclose(dist, all_d.min(axis=1))

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbors(random_cloud(5), PointCloud(np.empty((0, 3))))


class TestBestRigidTransform:
    def test_identity_for_matched_clouds(self):
        cloud = random_cloud(100, seed=6)
        pose = best_rigid_transform(cloud, cloud)
        assert np.abs(pose.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(pose.translation).max() < 1e-9

    def test_recovers_known_transform_exactly(self):
        src = random_cloud(100, seed=7)
        true = Pose.rot_z(10.0, translation=(1.0, 2.0, 3.0))
        dst = PointCloud(true.apply(src.points))
        pose = best_rigid_transform(src, dst)
        assert np.abs(pose.rotation - true.rotation).max() < 1e-9
        assert np.abs(pose.translation - true.translation).max() < 1e-9

    def test_general_rotation_recovered(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        src = random_cloud(80, seed=9)
        dst = PointCloud(src.points @ q.T + [0.5, -0.5, 1.5])
        pose = best_rigid_transform(src, dst)
        assert np.abs(pose.rotation - q).max() < 1e-9

    def test_result_is_never_a_reflection(self):
        # Mirrored targets must still yield a proper rotation (det +1).
        src = random_cloud(60, seed=10)
        dst = PointCloud(src.points * [1.0, 1.0, -1.0])
        pose = best_rigid_transform(src, dst)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_pairs_subset(self):
        src = random_cloud(50, seed=11)
        true = Pose.rot_z(-20.0, translation=(0.0, 1.0, 0.0))
        dst = PointCloud(true.apply(src.points))
        pairs = np.column_stack([np.arange(10), np.arange(10)])
        pose = best_rigid_transform(src, dst, pairs=pairs)
        assert np.abs(pose.rotation - true.rotation).max() < 1e-9

    def test_float32_clouds_are_aligned_in_float64(self):
        # Clouds read from a binary PLY are float32; a float32 fit would give
        # a rotation too far from orthonormal for Pose.
        src = random_cloud(4000, seed=12)
        true = Pose.rot_z(3.0, translation=(0.2, -0.1, 0.0))
        narrow = [PointCloud(p.astype(np.float32))
                  for p in (src.points, true.apply(src.points))]
        pose = best_rigid_transform(*narrow)
        wide = best_rigid_transform(*(PointCloud(c.points.astype(np.float64))
                                      for c in narrow))
        assert np.abs(pose.rotation - wide.rotation).max() < 1e-12
        assert np.abs(pose.translation - wide.translation).max() < 1e-12

    def test_too_few_points_rejected(self):
        two = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        with pytest.raises(DegenerateGeometryError):
            best_rigid_transform(two, two)

    def test_collinear_points_rejected(self):
        line = PointCloud(np.column_stack([np.arange(10.0),
                                           np.zeros(10), np.zeros(10)]))
        with pytest.raises(DegenerateGeometryError):
            best_rigid_transform(line, line)


class TestIcp:
    def test_identical_clouds_converge_to_identity(self):
        cloud = random_cloud(400, seed=12)
        report = icp(cloud, cloud)
        assert report.converged
        assert report.rmse < 1e-9
        assert report.pose.rotation_angle_deg() < 1e-6

    def test_recovers_small_offset(self):
        src = random_cloud(500, seed=13)
        true = Pose.rot_z(5.0, translation=(0.2, -0.1, 0.05))
        dst = PointCloud(true.apply(src.points))
        report = icp(src, dst)
        assert report.converged
        err = report.pose.compose(true.inverse())
        assert err.rotation_angle_deg() <= 0.5
        assert np.linalg.norm(err.translation) <= 0.05

    def test_recovers_offset_with_noise(self):
        rng = np.random.default_rng(14)
        src = random_cloud(800, seed=15)
        true = Pose.rot_z(4.0, translation=(0.15, 0.1, 0.0))
        dst = PointCloud(true.apply(src.points) + rng.normal(0, 0.01, (800, 3)))
        report = icp(src, dst)
        err = report.pose.compose(true.inverse())
        assert err.rotation_angle_deg() <= 1.0

    def test_rmse_non_increasing_across_iterations(self):
        src = random_cloud(300, seed=16)
        true = Pose.rot_z(8.0, translation=(0.5, 0.0, 0.0))
        dst = PointCloud(true.apply(src.points))
        rmses = [icp(src, dst, max_iter=k, tol_mm=0.0).rmse for k in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))

    def test_init_pose_is_used(self):
        src = random_cloud(300, seed=17)
        true = Pose.rot_z(40.0)
        dst = PointCloud(true.apply(src.points))
        seeded = icp(src, dst, init=Pose.rot_z(38.0))
        err = seeded.pose.compose(true.inverse())
        assert err.rotation_angle_deg() <= 0.5

    def test_empty_cloud_rejected(self):
        empty = PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError):
            icp(empty, random_cloud(10))

    def test_report_fields(self):
        cloud = random_cloud(50, seed=18)
        report = icp(cloud, cloud)
        assert isinstance(report, IcpReport)
        assert report.iterations >= 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.2, 2.0))
    def test_rmse_non_increasing_on_graph_surfaces(self, seed, amplitude):
        src = graph_surface(150, seed, amplitude)
        motion = small_motion(np.random.default_rng(seed), 6.0, 0.3)
        dst = PointCloud(motion.apply(src.points))
        rmses = [icp(src, dst, max_iter=k, tol_mm=0.0).rmse for k in range(1, 7)]
        assert all(b <= a for a, b in zip(rmses, rmses[1:]))

    def test_recovers_motion_on_graph_surface(self):
        src = graph_surface(400, seed=22)
        true = small_motion(np.random.default_rng(23), 5.0, 0.3)
        report = icp(src, PointCloud(true.apply(src.points)))
        assert report.converged
        assert report.iterations <= 10
        err = report.pose.compose(true.inverse())
        assert err.rotation_angle_deg() <= 1e-3
        assert np.linalg.norm(err.translation) <= 1e-4

    def test_planar_target_takes_svd_step_and_aligns(self, monkeypatch):
        rng = np.random.default_rng(24)
        target = PointCloud(np.column_stack([rng.uniform(-10, 10, (400, 2)),
                                             np.zeros(400)]))
        true = Pose.rot_z(2.0, translation=(0.1, -0.05, 0.0))
        source = PointCloud(true.inverse().apply(target.points))
        plane_steps, svd_steps = [], []
        monkeypatch.setattr(pose_module, "plane_step",
                            spy(plane_step, plane_steps))
        monkeypatch.setattr(pose_module, "best_rigid_transform",
                            spy(best_rigid_transform, svd_steps))
        report = icp(source, target)
        assert not plane_steps
        assert (report.plane_steps, report.svd_steps) == (0, len(svd_steps))
        assert report.svd_steps > 0
        assert report.converged
        err = report.pose.compose(true.inverse())
        assert np.abs(err.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(err.translation).max() < 1e-9

    def test_planar_target_with_normals_switches_to_svd_steps(self, monkeypatch):
        rng = np.random.default_rng(24)
        target = PointCloud(np.column_stack([rng.uniform(-10, 10, (400, 2)),
                                             np.zeros(400)]),
                            np.tile([0.0, 0.0, 1.0], (400, 1)))
        true = Pose.rot_z(2.0, translation=(0.1, -0.05, 0.0))
        source = PointCloud(true.inverse().apply(target.points))
        plane_steps, svd_steps = [], []
        monkeypatch.setattr(pose_module, "plane_step",
                            spy(plane_step, plane_steps))
        monkeypatch.setattr(pose_module, "best_rigid_transform",
                            spy(best_rigid_transform, svd_steps))
        report = icp(source, target)
        assert plane_steps == [None]
        assert (report.plane_steps, report.svd_steps) == (0, len(svd_steps))
        assert report.svd_steps > 0
        assert report.converged
        err = report.pose.compose(true.inverse())
        assert np.abs(err.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(err.translation).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.2, 2.0))
    def test_plane_rms_non_increasing_on_graph_surfaces_with_normals(self, seed,
                                                                     amplitude):
        src = graph_surface(150, seed, amplitude)
        motion = small_motion(np.random.default_rng(seed), 6.0, 0.3)
        dst = PointCloud(motion.apply(src.points),
                         graph_normals(src.points, amplitude) @ motion.rotation.T)
        scores = [plane_rms(icp(src, dst, max_iter=k, tol_mm=0.0).pose, src, dst)
                  for k in range(1, 7)]
        assert all(b <= a for a, b in zip(scores, scores[1:]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.2, 2.0))
    def test_symmetric_rms_non_increasing_when_both_clouds_carry_normals(self, seed,
                                                                          amplitude):
        points = graph_surface(150, seed, amplitude).points
        motion = small_motion(np.random.default_rng(seed), 6.0, 0.3)
        normals = graph_normals(points, amplitude)
        src = PointCloud(points, normals)
        dst = PointCloud(motion.apply(points), normals @ motion.rotation.T)
        scores = [plane_rms(icp(src, dst, max_iter=k, tol_mm=0.0).pose, src, dst)
                  for k in range(1, 7)]
        assert all(b <= a for a, b in zip(scores, scores[1:]))

    def test_inlier_fraction_counts_rejected_outliers(self):
        surface = graph_surface(200, seed=25).points
        far = np.full((20, 3), 100.0) + np.arange(20)[:, None]
        source = PointCloud(np.vstack([surface, far]))
        report = icp(source, PointCloud(surface))
        assert report.inlier_fraction == pytest.approx(200 / 220)
        assert report.rmse < 1e-9

    def test_cloud_without_normals_takes_no_plane_step(self, monkeypatch):
        src = graph_surface(400, seed=26)
        true = small_motion(np.random.default_rng(27), 4.0, 0.2)

        def refuse(*args):
            raise AssertionError("plane_step called for a cloud without normals")

        monkeypatch.setattr(pose_module, "plane_step", refuse)
        report = icp(src, PointCloud(true.apply(src.points)))
        assert report.converged

    def test_target_normals_drive_plane_steps_to_the_motion(self, monkeypatch):
        src = graph_surface(400, seed=26)
        true = small_motion(np.random.default_rng(27), 4.0, 0.2)
        target = PointCloud(true.apply(src.points),
                            graph_normals(src.points) @ true.rotation.T)
        plane_steps = []
        monkeypatch.setattr(pose_module, "plane_step",
                            spy(plane_step, plane_steps))
        report = icp(src, target)
        assert report.plane_steps == len(plane_steps) > 0
        assert None not in plane_steps and report.svd_steps == 0
        assert report.converged
        err = report.pose.compose(true.inverse())
        assert err.rotation_angle_deg() <= 1e-3
        assert np.linalg.norm(err.translation) <= 1e-4

    def test_stop_names_why_icp_stopped(self, monkeypatch):
        src = graph_surface(400, seed=26)
        true = small_motion(np.random.default_rng(27), 4.0, 0.2)
        target = PointCloud(true.apply(src.points),
                            graph_normals(src.points) @ true.rotation.T)
        settled = icp(src, target)
        assert (settled.stop, settled.converged) == ("settled", True)
        capped = icp(src, target, max_iter=1)
        assert (capped.stop, capped.converged, capped.iterations) == ("max_iter", False, 1)
        monkeypatch.setattr(pose_module, "plane_step", lambda *args: Pose.rot_z(30.0))
        rose = icp(src, target)
        assert (rose.stop, rose.converged, rose.iterations) == ("score_rose", True, 1)
        assert np.array_equal(rose.pose.rotation, np.eye(3))

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_float32_clouds_give_the_report_of_their_widenings(self, with_normals):
        # 4,321 source points are above the budget: ICP strides, then widens.
        for n in (500, 4321):
            src = graph_surface(n, seed=28)
            true = small_motion(np.random.default_rng(29), 4.0, 0.2)
            normals = graph_normals(src.points) @ true.rotation.T if with_normals else None
            source = PointCloud(src.points.astype(np.float32))
            target = PointCloud(true.apply(src.points).astype(np.float32),
                                None if normals is None else normals.astype(np.float32))
            wide = [PointCloud(c.points.astype(np.float64),
                               None if c.normals is None else c.normals.astype(np.float64))
                    for c in (source, target)]
            init = Pose.rot_z(1.0)
            narrow, widened = icp(source, target, init=init), icp(*wide, init=init)
            assert_same_report(narrow, widened)

    @pytest.mark.parametrize("n", [pose_module.SOURCE_BUDGET + 1, 2500, 4000, 10_000])
    def test_source_above_the_budget_matches_its_stride_by_hand(self, n):
        src = graph_surface(n, seed=30)
        true = small_motion(np.random.default_rng(31), 4.0, 0.2)
        dst = graph_surface(3000, seed=32).points
        target = PointCloud(true.apply(dst), graph_normals(dst) @ true.rotation.T)
        step = -(-n // pose_module.SOURCE_BUDGET)
        by_hand = PointCloud(src.points[::step])
        assert len(by_hand) <= pose_module.SOURCE_BUDGET < len(src)
        init = Pose.rot_z(0.5)
        assert_same_report(icp(src, target, init=init), icp(by_hand, target, init=init))

    @pytest.mark.parametrize("n, outliers, sampled", [
        # At the budget the source is matched whole: every outlier counts.
        (pose_module.SOURCE_BUDGET, (1, 3, 4, 8, pose_module.SOURCE_BUDGET - 3),
         pose_module.SOURCE_BUDGET),
        # Above it, every 2nd (budget + 1 points) or 4th (4 x budget) point is
        # matched: only the outliers the stride keeps count, over the sample.
        (pose_module.SOURCE_BUDGET + 1, (1, 3, 4, 8, pose_module.SOURCE_BUDGET - 3),
         pose_module.SOURCE_BUDGET // 2 + 1),
        (4 * pose_module.SOURCE_BUDGET, (1, 2, 4, 8, 4 * pose_module.SOURCE_BUDGET - 4),
         pose_module.SOURCE_BUDGET),
    ], ids=["at_the_budget", "budget_plus_one", "four_budgets"])
    def test_inlier_fraction_is_counted_over_the_sample(self, n, outliers, sampled):
        surface = graph_surface(n, seed=33).points
        points = surface.copy()
        points[list(outliers)] = 100.0 + np.arange(len(outliers))[:, None]
        step = -(-n // pose_module.SOURCE_BUDGET)
        kept_outliers = sum(i % step == 0 for i in outliers)
        report = icp(PointCloud(points), PointCloud(surface))
        assert report.inlier_fraction == (sampled - kept_outliers) / sampled
        assert report.rmse < 1e-9

    @pytest.mark.parametrize("kind, symmetry_deg", [
        item for item in sim.OBJECT_SYMMETRY_DEG.items() if item[1] is not None])
    def test_objects_track_within_a_tenth_of_a_degree_at_noise_one(self, kind,
                                                                   symmetry_deg):
        # 24 noisy frames 5 degrees apart, drawn as live_track's seed 11 draws
        # them; each rim cloud has 2,600-4,000 points, ICP matches at most
        # SOURCE_BUDGET of them.
        rims = live_track_rims(11, kind)
        assert max(map(len, rims)) > pose_module.SOURCE_BUDGET
        for k, report in enumerate(track_pose(rims, rims[0])):
            assert report.converged, k
            err = ((report.pose.z_angle_deg() - 5.0 * k + symmetry_deg / 2.0)
                   % symmetry_deg - symmetry_deg / 2.0)
            assert abs(err) <= 0.1, k

    def test_rim_clouds_track_with_plane_steps(self, hex_nut_rims, monkeypatch):
        plane_steps = []
        monkeypatch.setattr(pose_module, "plane_step",
                            spy(plane_step, plane_steps))
        assert all(cloud.normals is not None for cloud in hex_nut_rims)
        reports = track_pose(hex_nut_rims, hex_nut_rims[0])
        assert all(report.converged for report in reports)
        assert None not in plane_steps
        assert sum(report.plane_steps for report in reports) == len(plane_steps) > 0
        assert all(report.svd_steps == 0 for report in reports)

    def test_hex_nut_rim_sequence_converges_within_ten_iterations(self, hex_nut_rims):
        reports = track_pose(hex_nut_rims, hex_nut_rims[0])
        for k, report in enumerate(reports):
            assert report.converged, k
            assert report.iterations <= 10, k
            # Scored modulo the nut's 60-degree rotational symmetry.
            err = (report.pose.z_angle_deg() - 5.0 * k + 30.0) % 60.0 - 30.0
            assert abs(err) <= 0.555, k


    def test_live_track_seed_708_tracks_within_a_tenth_of_a_degree(
            self, live_track_708_rims):
        # live_track cycles through the 24 frames; on the second pass frame 12
        # (true 180 degrees) once ended 0.94 degrees off.
        reports = track_pose(live_track_708_rims * 2, live_track_708_rims[0])
        for k, report in enumerate(reports):
            assert report.converged, k
            err = (report.pose.z_angle_deg() - 5.0 * k + 30.0) % 60.0 - 30.0
            assert abs(err) <= 0.1, k


class TestIcpMatchesItsReference:
    """`icp` composes raw arrays and gathers each pair once; `oracles.icp` is
    the loop as it was, with a validated Pose per candidate. Their reports
    agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 1000),
           normals=st.sampled_from(["both", "target", "neither", "planar"]),
           turn=st.floats(-3.0, 3.0), max_iter=st.sampled_from([2, 50]),
           tol_mm=st.sampled_from([0.0, 1e-5]))
    def test_reports_are_identical(self, seed, n, normals, turn, max_iter, tol_mm):
        rng = np.random.default_rng(seed)
        amplitude = 0.0 if normals == "planar" else rng.uniform(0.2, 2.0)
        base = graph_surface(n, seed, amplitude).points
        base_normals = graph_normals(base, amplitude)
        # Offsets along the normal spread log-uniformly over four decades, so
        # that the rejection threshold falls among the pair distances.
        points = base + base_normals * 10.0 ** rng.uniform(-4.0, 0.0, (n, 1))
        motion = small_motion(rng, 6.0, 0.3)
        target_normals = None if normals == "neither" else base_normals @ motion.rotation.T
        source = PointCloud(points, base_normals if normals == "both" else None)
        target = PointCloud(motion.apply(base), target_normals)
        init = Pose.rot_z(turn)
        assert_same_report(icp(source, target, init, max_iter, tol_mm),
                        oracles.icp(source, target, init, max_iter, tol_mm))

    def test_rim_tracking_is_identical(self, hex_nut_rims):
        model, now, then = hex_nut_rims[0], Pose.identity(), Pose.identity()
        for cloud in hex_nut_rims:
            new, old = icp(model, cloud, init=now), oracles.icp(model, cloud, init=then)
            assert_same_report(new, old)
            now, then = new.pose, old.pose


class TestTrackingRelation:
    """Turning a whole sequence about the sensor's axis leaves its
    frame-to-frame motion as it was: a metamorphic relation of the chain
    simulator -> depth -> rim cloud -> track_pose."""

    @staticmethod
    def frame_to_frame_deg(geom, turn_deg):
        """The tracked turn between each two frames of a noiseless 8-frame
        hex-nut sequence in 5-degree steps, turned as a whole by `turn_deg`."""
        rims = noiseless_rims(geom, "hex_nut",
                              [Pose.rot_z(turn_deg + 5.0 * k) for k in range(8)])
        return np.diff([r.pose.z_angle_deg() for r in track_pose(rims, rims[0])])

    @pytest.fixture(scope="class")
    def unturned(self, geom):
        return self.frame_to_frame_deg(geom, 0.0)

    def test_unturned_sequence_steps_five_degrees(self, unturned):
        assert np.abs(unturned - 5.0).max() <= 0.1

    @pytest.mark.parametrize("turn_deg", [17.0, 90.0])
    def test_turning_the_sequence_keeps_its_steps(self, geom, unturned, turn_deg):
        assert np.abs(self.frame_to_frame_deg(geom, turn_deg) - unturned).max() <= 0.1


class TestPlaneStep:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_normals=st.booleans())
    def test_one_step_recovers_a_rigid_motion_on_exact_pairs(self, seed, with_normals):
        src = graph_surface(300, seed).points
        true = small_motion(np.random.default_rng(seed), 10.0, 0.5)
        normals = graph_normals(src)
        step = plane_step(src, true.apply(src), normals @ true.rotation.T,
                          normals if with_normals else None)
        assert np.abs(step.rotation - true.rotation).max() < 1e-12
        assert np.abs(step.translation - true.translation).max() < 1e-10

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_plane_step_is_exact_for_pure_translation(self, with_normals):
        src = graph_surface(300, seed=27).points
        normals = graph_normals(src)
        shift = np.array([0.02, -0.01, 0.03])
        step = plane_step(src, src + shift, normals, normals if with_normals else None)
        assert np.abs(step.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(step.translation - shift).max() < 1e-12

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_plane_step_rank_deficient_on_plane(self, with_normals):
        pts = np.column_stack([np.random.default_rng(28).uniform(-5, 5, (50, 2)),
                               np.zeros(50)])
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        assert plane_step(pts, pts + [0.1, 0.0, 0.0], normals,
                          normals if with_normals else None) is None


class TestTrackPose:
    def test_static_frames_stay_at_identity(self):
        model = random_cloud(200, seed=19)
        reports = track_pose([model, model, model], model)
        assert len(reports) == 3
        for r in reports:
            assert r.converged
            assert r.pose.rotation_angle_deg() < 1e-6

    def test_incremental_rotation_sequence(self):
        model = random_cloud(400, seed=20)
        angles = [0.0, 2.0, 4.0, 6.0, 8.0]
        frames = [PointCloud(Pose.rot_z(a).apply(model.points)) for a in angles]
        reports = track_pose(frames, model)
        for a, r in zip(angles, reports):
            assert r.pose.z_angle_deg() == pytest.approx(a, abs=0.5)

    def test_empty_frame_carries_last_pose(self):
        model = random_cloud(100, seed=21)
        turned = PointCloud(Pose.rot_z(3.0).apply(model.points))
        reports = track_pose([turned, PointCloud(np.empty((0, 3)))], model)
        assert not reports[1].converged
        assert (reports[1].stop, reports[1].iterations) == ("no_points", 0)
        assert (reports[1].plane_steps, reports[1].svd_steps) == (0, 0)
        assert np.array_equal(reports[1].pose.rotation, reports[0].pose.rotation)

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError):
            track_pose([], random_cloud(10))
