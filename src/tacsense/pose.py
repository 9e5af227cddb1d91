"""Rigid pose estimation and tracking on point clouds via guarded ICP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .core import DegenerateGeometryError, PointCloud, Pose, SensorError, _seal

# Smallest/largest eigenvalue ratio below which the point-to-plane system
# counts as rank-deficient.
RANK_TOL = 1e-9
# ICP drops pairs farther than this multiple of the median pair distance.
REJECT_RATIO = 5.0
# ICP matches at most this many source points, every step-th one: most of an
# ICP call is one k-d query per source point per match.
SOURCE_BUDGET = 1000


@dataclass(frozen=True)
class IcpReport:
    """Outcome of one ICP call.

    `rmse` and `inlier_fraction` describe the returned pose on the sampled
    source (see `icp`): its inlier RMSE against its own nearest neighbours,
    and the share of sampled source points kept as inliers by the rejection
    rule.
    """

    pose: Pose
    rmse: float
    iterations: int
    converged: bool
    inlier_fraction: float


def nearest_neighbors(query: PointCloud, target: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor in `target` for each query point.

    Returns (indices, distances).
    """
    if len(target) == 0:
        raise ValueError("target cloud is empty")
    tree = cKDTree(target.points)
    distances, indices = tree.query(query.points, k=1)
    return np.asarray(indices), np.asarray(distances)


def best_rigid_transform(src: PointCloud, dst: PointCloud,
                         pairs: np.ndarray | None = None) -> Pose:
    """Least-squares rigid alignment src -> dst over correspondence pairs.

    `pairs` is an (n, 2) array of (src index, dst index); None pairs the
    clouds index-to-index. SVD solution with reflection correction, in
    float64 also for float32 clouds.
    """
    if pairs is None:
        a = src.points
        b = dst.points
    else:
        pairs = np.asarray(pairs)
        a = src.points[pairs[:, 0]]
        b = dst.points[pairs[:, 1]]
    if a.shape[0] < 3:
        raise DegenerateGeometryError(f"need >= 3 correspondences, got {a.shape[0]}")
    ca = a.mean(axis=0, dtype=np.float64)
    cb = b.mean(axis=0, dtype=np.float64)
    h = (a - ca).T @ (b - cb)
    u, s, vt = np.linalg.svd(h)
    # Collinear correspondences leave the rotation about the line unconstrained.
    if s[1] < 1e-12 * max(s[0], 1e-300):
        raise DegenerateGeometryError("correspondences are collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.diag([1.0, 1.0, d])
    r = vt.T @ flip @ u.T
    t = cb - r @ ca
    return Pose(r, t)


def point_to_plane_step(src: np.ndarray, dst: np.ndarray,
                        normals: np.ndarray) -> Pose | None:
    """Linearised point-to-plane update (Chen & Medioni 1992) for paired points.

    Minimises sum(((R p + t - q) . n)^2) over small rotations about the
    pairs' centroid and returns the incremental pose that maps `src` toward
    `dst`, or None when the 6x6 normal equations are rank-deficient, as for
    a planar target, whose normals leave in-plane motion unconstrained.
    """
    center = src.mean(axis=0)
    arm = src - center
    # Unit-RMS lever arms put the rotation and translation columns on one scale.
    scale = max(float(np.sqrt(np.mean(np.sum(arm ** 2, axis=1)))), 1e-12)
    a = np.hstack([np.cross(arm / scale, normals), normals])
    b = np.sum((dst - src) * normals, axis=1)
    h = a.T @ a
    eigvals = np.linalg.eigvalsh(h)
    if eigvals[0] <= RANK_TOL * eigvals[-1]:
        return None
    x = np.linalg.solve(h, a.T @ b)
    r = Rotation.from_rotvec(x[:3] / scale).as_matrix()
    return Pose(r, center + x[3:] - r @ center)


def _rms(values: np.ndarray) -> float:
    """Root mean square of scalars, or of vector lengths along the last axis."""
    values = values.reshape(len(values), -1)
    return float(np.sqrt(np.mean(np.sum(values ** 2, axis=1))))


def icp(source: PointCloud, target: PointCloud, init: Pose | None = None,
        max_iter: int = 50, tol_mm: float = 1e-5) -> IcpReport:
    """Guarded ICP aligning `source` onto `target`.

    ICP matches a sample of the source, every step-th point with the step
    that leaves at most SOURCE_BUDGET points, against the whole target. Each
    iteration pairs every moved sample point with its nearest target point,
    drops pairs farther than REJECT_RATIO times the median pair distance,
    and takes one step from those pairs, scored by the residual that step
    minimises. A target with normals (`PointCloud.normals`, as rim
    clouds carry them) takes linearised point-to-plane steps, scored by the
    inlier pairs' point-to-plane RMS. A target without normals, or one whose
    plane system turns rank-deficient (e.g. a planar target), takes SVD
    point-to-point steps from then on, scored by the inlier RMSE. A step that
    would raise the score is not taken: ICP keeps the pose and stops,
    converged, as it does after a step that lowers the score by less than
    tol_mm; otherwise it stops, not converged, after max_iter steps. So for
    `icp(..., max_iter=k, tol_mm=0)` the point-to-plane RMS (target with a
    full-rank plane system) or the inlier RMSE (any other target) is
    non-increasing in k.

    The report's `rmse` is the point-to-point inlier RMSE of the returned
    pose on the sample, whichever score guided the steps; `inlier_fraction`
    is the share of sampled source points kept as inliers.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("ICP requires non-empty clouds")
    # ICP works in float64. The source is strided before it is widened, so a
    # large float32 model (a PLY cloud) is never widened whole. Normals only
    # meet float64 operands, so float32 normals need no copy.
    step = -(-len(source) // SOURCE_BUDGET)
    source = PointCloud(_seal(source.points[::step].astype(np.float64)),
                        None if source.normals is None else source.normals[::step])
    if target.points.dtype != np.float64:
        target = PointCloud(_seal(target.points.astype(np.float64)), target.normals)
    # Midpoint splits build the tree faster than median splits; a query's
    # nearest distances are the same.
    tree = cKDTree(target.points, balanced_tree=False)
    normals = target.normals

    def match(candidate: Pose):
        """(candidate, inlier source indices, their nearest target indices,
        moved inliers, inlier RMSE, point-to-plane RMS or None)."""
        moved = candidate.apply(source.points)
        distances, indices = tree.query(moved, k=1)
        keep = distances <= REJECT_RATIO * max(float(np.median(distances)), 1e-12)
        if keep.sum() < 3:
            raise DegenerateGeometryError("fewer than 3 usable correspondences")
        src_idx = np.nonzero(keep)[0]
        dst_idx = indices[keep]
        moved = moved[keep]
        plane_rms = (None if normals is None else _rms(np.sum(
            (moved - target.points[dst_idx]) * normals[dst_idx], axis=1)))
        return candidate, src_idx, dst_idx, moved, _rms(distances[keep]), plane_rms

    pose, src_idx, dst_idx, moved, rmse, plane_rms = match(
        init if init is not None else Pose.identity())
    plane = normals is not None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        step = (point_to_plane_step(moved, target.points[dst_idx], normals[dst_idx])
                if plane else None)
        plane = step is not None
        trial = match(step.compose(pose) if plane else best_rigid_transform(
            source, target, np.column_stack([src_idx, dst_idx])))
        improvement = plane_rms - trial[5] if plane else rmse - trial[4]
        if improvement >= 0:
            pose, src_idx, dst_idx, moved, rmse, plane_rms = trial
        if improvement < 0 or improvement < tol_mm:
            converged = True
            break
    return IcpReport(pose=pose, rmse=rmse, iterations=iterations, converged=converged,
                     inlier_fraction=len(src_idx) / len(source))


def track_pose(frames: list[PointCloud], model: PointCloud) -> list[IcpReport]:
    """Track the model's pose across frames, seeding each ICP from the last pose.

    The first ICP starts from the identity. Empty frames yield a
    not-converged report carrying the last good pose.
    """
    if not frames:
        raise ValueError("need at least one frame")
    pose = Pose.identity()
    reports = []
    for i, cloud in enumerate(frames):
        if len(cloud) < 3:
            reports.append(IcpReport(pose=pose, rmse=math.inf, iterations=0,
                                     converged=False, inlier_fraction=0.0))
            continue
        try:
            report = icp(model, cloud, init=pose)
        except SensorError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
        pose = report.pose
        reports.append(report)
    return reports
