"""Rigid pose estimation and tracking on point clouds via guarded ICP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import DegenerateGeometryError, PointCloud, Pose, SensorError, _seal

# Smallest/largest eigenvalue ratio below which the plane system counts as
# rank-deficient.
RANK_TOL = 1e-9
# ICP drops pairs farther than this multiple of the median pair distance.
REJECT_RATIO = 5.0
# ICP matches at most this many source points, every step-th one: most of an
# ICP call is one k-d query per source point per match. Of the sizes swept
# (1000, 750, 600, 500, 400, 250), 400 is the smallest that keeps every
# tracking scenario within its error bound.
SOURCE_BUDGET = 400
# Points per leaf of ICP's target tree; any leaf size gives the same nearest
# distances. Over live_track's 24-frame hex-nut pass (2-vCPU VM, alternated
# rounds in one process), ICP took 3.16 ms a frame with 32 against 3.22, 3.32
# and 3.31 ms with 16 (scipy's default), 8 and 64; 16 against 32 alone was
# 3.47 against 3.44 ms, 32 faster in 22 of 40 rounds.
LEAF_SIZE = 32


@dataclass(frozen=True)
class IcpReport:
    """Outcome of one ICP call.

    `rmse` and `inlier_fraction` describe the returned pose on the sampled
    source (see `icp`): its inlier RMSE against its own nearest neighbours,
    and the share of sampled source points kept as inliers by the rejection
    rule. `stop` says why ICP stopped (see `icp` and `track_pose`).
    `plane_steps` and `svd_steps` count the steps ICP tried of each kind,
    the plane steps first.
    """

    pose: Pose
    rmse: float
    plane_steps: int
    svd_steps: int
    stop: str
    inlier_fraction: float

    @property
    def iterations(self) -> int:
        return self.plane_steps + self.svd_steps

    @property
    def converged(self) -> bool:
        return self.stop in ("settled", "score_rose")


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


def plane_step(src: np.ndarray, dst: np.ndarray, dst_normals: np.ndarray,
               src_normals: np.ndarray | None = None) -> Pose | None:
    """Linearised symmetric-objective step (Rusinkiewicz 2019) for paired points.

    Minimises sum(((p - q) . n)^2), n = n_q + n_p, or n_q alone without
    `src_normals` (Chen & Medioni's point-to-plane step), over a rotation split
    half onto each cloud and a translation. Returns the pose moving `src` toward
    `dst`, exact for exact pairs, or None for a rank-deficient 6x6 system (a plane).
    """
    n = dst_normals if src_normals is None else dst_normals + src_normals
    center = 0.5 * (np.add.reduce(src) / len(src) + np.add.reduce(dst) / len(dst))
    arm = src + dst
    arm -= 2.0 * center
    # Unit-RMS lever arms put the rotation and translation columns on one scale.
    scale = max(math.sqrt(np.einsum("ij,ij->", arm, arm) / len(arm)), 1e-12)
    arm /= scale
    (x, y, z), (nx, ny, nz) = arm.T, n.T
    a = np.empty((len(arm), 6))
    a[:, 0], a[:, 1], a[:, 2] = y * nz - z * ny, z * nx - x * nz, x * ny - y * nx
    a[:, 3:] = n
    h = a.T @ a
    eigvals = np.linalg.eigvalsh(h)
    if eigvals[0] <= RANK_TOL * eigvals[-1]:
        return None
    solution = np.linalg.solve(h, a.T @ np.einsum("ij,ij->i", dst - src, n))
    # Each half turns by atan|w| about w; by Rodrigues' formula the whole turn
    # is I + 2m and (I + m) shift the translation, exact for exact pairs.
    (wx, wy, wz), shift = solution[:3] / scale, solution[3:]
    skew = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    m = (skew + skew @ skew) / (1.0 + wx * wx + wy * wy + wz * wz)
    return Pose(np.eye(3) + 2.0 * m, shift + m @ (shift - 2.0 * center))


def _rms(values: np.ndarray) -> float:
    """Root mean square of scalars."""
    return math.sqrt(np.add.reduce(values * values) / len(values))


def icp(source: PointCloud, target: PointCloud, init: Pose | None = None,
        max_iter: int = 50, tol_mm: float = 1e-5) -> IcpReport:
    """Guarded ICP aligning `source` onto `target`.

    ICP matches a sample of the source, every step-th point with the step
    that leaves at most SOURCE_BUDGET points, against the whole target. Each
    iteration pairs every moved sample point with its nearest target point,
    drops pairs farther than REJECT_RATIO times the median pair distance,
    and takes one step from those pairs, scored by the residual that step
    minimises. A target with normals (`PointCloud.normals`, as rim clouds
    carry them) takes `plane_step`s, symmetric if the source has normals
    too, scored by the inlier pairs' RMS of (p - q) . n, with the step's n
    at the scored pose. A target without normals, or one whose plane system
    turns rank-deficient (e.g. a planar target), takes SVD point-to-point
    steps from then on, scored by the inlier RMSE. A step that would raise
    the score is not taken: ICP keeps the pose and stops ("score_rose"), as
    it does after a step that lowers the score by less than tol_mm
    ("settled"), both converged; otherwise it stops, not converged, after
    max_iter steps ("max_iter"). So for `icp(..., max_iter=k, tol_mm=0)` the
    plane RMS (target with a full-rank plane system) or the inlier RMSE (any
    other target) is non-increasing in k.

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
    tree = cKDTree(target.points, leafsize=LEAF_SIZE, balanced_tree=False)
    normals = target.normals

    def match(r: np.ndarray, t: np.ndarray):
        """(r, t, inlier source and nearest target indices, moved inliers,
        their nearest target points, their plane normals or None, inlier
        RMSE, plane RMS or None) of the candidate pose p -> r @ p + t."""
        moved = source.points @ r.T + t
        distances, indices = tree.query(moved, k=1)
        # np.median's arithmetic: the mean of the two middle values, one and
        # the same value for an odd count, where (x + x) / 2 is x.
        lower, upper = (len(distances) - 1) // 2, len(distances) // 2
        middle = np.partition(distances, (lower, upper))
        median = (middle[lower] + middle[upper]) / 2
        src_idx = np.flatnonzero(distances <= REJECT_RATIO * max(float(median), 1e-12))
        if len(src_idx) < 3:
            raise DegenerateGeometryError("fewer than 3 usable correspondences")
        dst_idx = indices[src_idx]
        moved, matched = moved[src_idx], target.points[dst_idx]
        normal = (None if normals is None else normals[dst_idx] if source.normals is None
                  else normals[dst_idx] + source.normals[src_idx] @ r.T)
        plane_rms = None if normals is None else _rms(np.einsum(
            "ij,ij->i", moved - matched, normal))
        return (r, t, src_idx, dst_idx, moved, matched, normal,
                _rms(distances[src_idx]), plane_rms)

    init = init if init is not None else Pose.identity()
    r, t, src_idx, dst_idx, moved, matched, normal, rmse, plane_rms = match(
        init.rotation, init.translation)
    plane = normals is not None
    stop, iterations, plane_steps = "max_iter", 0, 0
    for iterations in range(1, max_iter + 1):
        step = plane_step(moved, matched, normal) if plane else None
        plane = step is not None
        plane_steps += plane
        if plane:
            trial = match(step.rotation @ r, step.rotation @ t + step.translation)
        else:
            step = best_rigid_transform(source, target, np.column_stack([src_idx, dst_idx]))
            trial = match(step.rotation, step.translation)
        improvement = plane_rms - trial[8] if plane else rmse - trial[7]
        if improvement >= 0:
            r, t, src_idx, dst_idx, moved, matched, normal, rmse, plane_rms = trial
        if improvement < 0 or improvement < tol_mm:
            stop = "settled" if improvement >= 0 else "score_rose"
            break
    return IcpReport(pose=Pose(r, t), rmse=rmse, plane_steps=plane_steps,
                     svd_steps=iterations - plane_steps, stop=stop,
                     inlier_fraction=len(src_idx) / len(source))


def track_pose(frames: list[PointCloud], model: PointCloud) -> list[IcpReport]:
    """Track the model's pose across frames, seeding each ICP from the last pose.

    The first ICP starts from the identity. A frame of fewer than 3 points
    yields a "no_points" report carrying the last good pose.
    """
    if not frames:
        raise ValueError("need at least one frame")
    pose = Pose.identity()
    reports = []
    for i, cloud in enumerate(frames):
        if len(cloud) < 3:
            reports.append(IcpReport(pose=pose, rmse=math.inf, plane_steps=0,
                                     svd_steps=0, stop="no_points",
                                     inlier_fraction=0.0))
            continue
        try:
            report = icp(model, cloud, init=pose)
        except SensorError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
        pose = report.pose
        reports.append(report)
    return reports
