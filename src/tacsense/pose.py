"""Rigid pose estimation and tracking on point clouds via point-to-plane ICP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .core import DegenerateGeometryError, PointCloud, _freeze

ORTHONORMAL_TOL = 1e-9
# Neighbours per k-NN patch when estimating target normals.
NORMAL_NEIGHBORS = 10
# Smallest/largest eigenvalue ratio below which the point-to-plane system
# counts as rank-deficient.
RANK_TOL = 1e-9


@dataclass(frozen=True)
class Pose:
    """Proper rigid transform: p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def rot_z(cls, angle_deg: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        a = math.radians(angle_deg)
        c, s = math.cos(a), math.sin(a)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self @ other)(p) = self(other(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def rotation_angle_deg(self) -> float:
        """Magnitude of the rotation, in degrees."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return math.degrees(math.acos(min(1.0, max(-1.0, c))))

    def z_angle_deg(self) -> float:
        """In-plane rotation about z, in degrees."""
        return math.degrees(math.atan2(self.rotation[1, 0], self.rotation[0, 0]))


@dataclass(frozen=True)
class IcpReport:
    """Outcome of one ICP call.

    `rmse` and `inlier_fraction` describe the returned pose: its inlier RMSE
    against its own nearest neighbours, and the share of source points kept
    as inliers by the rejection rule.
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
    clouds index-to-index. SVD solution with reflection correction.
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
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
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


def estimate_normals(points: np.ndarray, tree: cKDTree) -> np.ndarray:
    """Unit surface normal per point: least-variance axis of its k-NN patch.

    The sign is arbitrary; a point-to-plane residual only uses the normal's
    line. A patch with no least-variance axis (all points equal) gets a zero
    normal, which gives its pairs no weight in the point-to-plane step.
    """
    k = min(NORMAL_NEIGHBORS, len(points))
    _, idx = tree.query(points, k=k)
    patch = points[idx.reshape(len(points), k)]
    patch -= patch.mean(axis=1, keepdims=True)
    return least_variance_axis(patch.transpose(0, 2, 1) @ patch)


def least_variance_axis(cov: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of each symmetric 3x3 matrix.

    Closed form for a stack of (n, 3, 3) matrices, several times faster than
    a batched `eigh`: the smallest eigenvalue from the trigonometric solution
    of the characteristic cubic (Smith 1961), then the eigenvector as the
    longest cross product of two rows of cov - lambda I. Returns zero
    vectors where that matrix is zero.
    """
    b, c, e = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]
    q = np.trace(cov, axis1=1, axis2=2) / 3.0
    a, d, f = cov[:, 0, 0] - q, cov[:, 1, 1] - q, cov[:, 2, 2] - q
    p = np.sqrt((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0)
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    half_det = det / (2.0 * np.where(p > 0.0, p, 1.0) ** 3)
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    shift = 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    a, d, f = a - shift, d - shift, f - shift
    crosses = np.array([[b * e - c * d, c * b - a * e, a * d - b * b],
                        [b * f - c * e, c * c - a * f, a * e - b * c],
                        [d * f - e * e, e * c - b * f, b * e - d * c]])
    lengths = np.sqrt(np.sum(crosses ** 2, axis=1))
    best = lengths.argmax(axis=0)
    pick = np.arange(len(cov))
    length = lengths[best, pick]
    return (crosses[best, :, pick]
            / np.where(length > 0.0, length, 1.0)[:, None])


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


def _inliers(distances: np.ndarray, reject_ratio: float | None) -> np.ndarray:
    if reject_ratio is None:
        return np.ones(len(distances), dtype=bool)
    return distances <= reject_ratio * max(float(np.median(distances)), 1e-12)


def icp(source: PointCloud, target: PointCloud, init: Pose | None = None,
        max_iter: int = 50, tol_mm: float = 1e-5,
        reject_ratio: float | None = 5.0) -> IcpReport:
    """Guarded point-to-plane ICP aligning `source` onto `target`.

    Target normals are estimated once by k-NN PCA. Each iteration pairs
    every moved source point with its nearest target point, drops pairs
    farther than reject_ratio times the median pair distance, and takes a
    linearised point-to-plane step. The guard re-matches after the step:
    if the inlier RMSE rose, or the plane system was rank-deficient (e.g. a
    planar target), the closed-form SVD point-to-point step from the same
    pairs is taken instead. If that too raises the inlier RMSE, the pose is
    kept and ICP stops as converged. So the reported RMSE never rises from
    one iteration to the next, and `icp(..., max_iter=k, tol_mm=0).rmse` is
    non-increasing in k.

    ICP stops, converged, when a step lowers the RMSE by less than tol_mm,
    or after the SVD step that replaces a plane step which moved the points
    (RMS) by less than the current RMSE: the plane fit has then settled, and
    nearest-neighbour distance only scores poses within the matching noise
    differently. Otherwise it stops, not converged, after max_iter steps.

    The report's `rmse` is the inlier RMSE of the returned pose against its
    own nearest neighbours; `inlier_fraction` is the share of source points
    that rule keeps.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("ICP requires non-empty clouds")
    tree = cKDTree(target.points)
    normals = estimate_normals(target.points, tree)

    def match(candidate: Pose):
        """(candidate, nearest target index per source point, inlier mask, inlier RMSE)."""
        distances, indices = tree.query(candidate.apply(source.points), k=1)
        keep = _inliers(distances, reject_ratio)
        if keep.sum() < 3:
            raise DegenerateGeometryError("fewer than 3 usable correspondences")
        rmse = _rms(distances[keep])
        return candidate, indices, keep, rmse

    pose, indices, keep, rmse = match(init if init is not None else Pose.identity())
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        src_idx = np.nonzero(keep)[0]
        dst_idx = indices[keep]
        moved = pose.apply(source.points[src_idx])
        step = point_to_plane_step(moved, target.points[dst_idx], normals[dst_idx])
        trial = match(step.compose(pose)) if step is not None else None
        settled = False
        if trial is None or trial[3] > rmse:
            # A rejected plane step smaller than the matching residual means
            # the plane fit has settled; the SVD step is then the last one.
            settled = step is not None and _rms(step.apply(moved) - moved) < rmse
            pairs = np.column_stack([src_idx, dst_idx])
            trial = match(best_rigid_transform(source, target, pairs))
            if trial[3] > rmse:
                converged = True
                break
        improvement = rmse - trial[3]
        pose, indices, keep, rmse = trial
        if improvement < tol_mm or settled:
            converged = True
            break
    return IcpReport(pose=pose, rmse=rmse, iterations=iterations,
                     converged=converged, inlier_fraction=float(keep.mean()))


def track_pose(frames: list[PointCloud], model: PointCloud,
               init: Pose | None = None, **icp_kwargs) -> list[IcpReport]:
    """Track the model's pose across frames, seeding each ICP from the last pose.

    Empty frames yield a not-converged report carrying the last good pose.
    """
    if not frames:
        raise ValueError("need at least one frame")
    pose = init if init is not None else Pose.identity()
    reports = []
    for cloud in frames:
        if len(cloud) < 3:
            reports.append(IcpReport(pose=pose, rmse=math.inf, iterations=0,
                                     converged=False, inlier_fraction=0.0))
            continue
        report = icp(model, cloud, init=pose, **icp_kwargs)
        pose = report.pose
        reports.append(report)
    return reports
