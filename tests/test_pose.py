import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from tacsense import calib, cli, pose as pose_module, recon, sim
from tacsense.core import DegenerateGeometryError, PointCloud
from tacsense.pose import (
    IcpReport,
    Pose,
    best_rigid_transform,
    estimate_normals,
    icp,
    least_variance_axis,
    nearest_neighbors,
    point_to_plane_step,
    track_pose,
)


def random_cloud(n=300, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-scale, scale, (n, 3)))


def graph_surface(n, seed, amplitude=1.0):
    """Points on the smooth graph z = f(x, y), like a reconstructed depth map."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-5.0, 5.0, (2, n))
    z = amplitude * (np.sin(0.6 * x) + np.cos(0.4 * y) + 0.05 * x * y)
    return PointCloud(np.column_stack([x, y, z]))


def small_motion(rng, max_deg, max_mm):
    axis = rng.normal(size=3)
    angle = np.radians(rng.uniform(-max_deg, max_deg))
    rot = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
    return Pose(rot, rng.uniform(-max_mm, max_mm, 3))


@pytest.fixture(scope="module")
def hex_nut_rims(geom):
    """Rim clouds of a 12-frame hex-nut rotation in 5-degree steps."""
    optical = sim.OpticalModel()
    illum = sim.uniform_illumination(geom.crop_size)
    reference = sim.reference_image(optical, illum)
    press = sim.sphere_press_depth(geom, cli.CALIB_BALL_RADIUS, 1.9,
                                   thickness=optical.thickness)
    diff = recon.difference(reference, sim.render_tactile(press, optical, illum))
    model = calib.calibrate_single(diff, cli.CALIB_BALL_RADIUS, geom)
    pipeline = recon.PipelineConfig(model=model, geom=geom,
                                    depth_clamp=optical.thickness)
    poses = [Pose.rot_z(5.0 * k) for k in range(12)]
    frames = sim.render_sequence(sim.object_depth_field("hex_nut"), poses,
                                 geom, optical, illum)
    return [cli.reconstruct_cloud(recon.difference(reference, f.image),
                                  pipeline, geom, rim_only=True)
            for f in frames]


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

    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

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

        def spy(fn, calls):
            def wrapped(*args, **kwargs):
                calls.append(fn(*args, **kwargs))
                return calls[-1]
            return wrapped

        monkeypatch.setattr(pose_module, "point_to_plane_step",
                            spy(point_to_plane_step, plane_steps))
        monkeypatch.setattr(pose_module, "best_rigid_transform",
                            spy(best_rigid_transform, svd_steps))
        report = icp(source, target)
        assert plane_steps and all(step is None for step in plane_steps)
        assert len(svd_steps) == report.iterations
        assert report.converged
        err = report.pose.compose(true.inverse())
        assert np.abs(err.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(err.translation).max() < 1e-9

    def test_inlier_fraction_counts_rejected_outliers(self):
        surface = graph_surface(200, seed=25).points
        far = np.full((20, 3), 100.0) + np.arange(20)[:, None]
        source = PointCloud(np.vstack([surface, far]))
        report = icp(source, PointCloud(surface))
        assert report.inlier_fraction == pytest.approx(200 / 220)
        assert report.rmse < 1e-9

    def test_hex_nut_rim_sequence_converges_within_ten_iterations(self, hex_nut_rims):
        reports = track_pose(hex_nut_rims, hex_nut_rims[0])
        for k, report in enumerate(reports):
            assert report.converged, k
            assert report.iterations <= 10, k
            # Scored modulo the nut's 60-degree rotational symmetry.
            err = (report.pose.z_angle_deg() - 5.0 * k + 30.0) % 60.0 - 30.0
            assert abs(err) <= 0.555, k


class TestPointToPlane:
    def test_least_variance_axis_matches_eigh(self):
        rng = np.random.default_rng(26)
        q, _ = np.linalg.qr(rng.normal(size=(500, 3, 3)))
        eig = rng.uniform(0.0, 1.0, (500, 3))
        eig[:, 0] *= 0.5  # keep the least axis well separated
        eig.sort(axis=1)
        cov = q @ (eig[:, :, None] * q.transpose(0, 2, 1))
        reference = np.linalg.eigh(cov)[1][:, :, 0]
        axis = least_variance_axis(cov)
        assert np.allclose(np.linalg.norm(axis, axis=1), 1.0, atol=1e-12)
        assert np.abs(np.abs(np.sum(axis * reference, axis=1)) - 1.0).max() < 1e-9

    def test_least_variance_axis_of_zero_matrix_is_zero(self):
        assert np.array_equal(least_variance_axis(np.zeros((2, 3, 3))),
                              np.zeros((2, 3)))

    def test_plane_step_is_exact_for_pure_translation(self):
        src = graph_surface(300, seed=27).points
        normals = estimate_normals(src, cKDTree(src))
        shift = np.array([0.02, -0.01, 0.03])
        step = point_to_plane_step(src, src + shift, normals)
        assert np.abs(step.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(step.translation - shift).max() < 1e-12

    def test_plane_step_rank_deficient_on_plane(self):
        pts = np.column_stack([np.random.default_rng(28).uniform(-5, 5, (50, 2)),
                               np.zeros(50)])
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        assert point_to_plane_step(pts, pts + [0.1, 0.0, 0.0], normals) is None


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
        assert reports[1].iterations == 0
        assert np.array_equal(reports[1].pose.rotation, reports[0].pose.rotation)

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError):
            track_pose([], random_cloud(10))
