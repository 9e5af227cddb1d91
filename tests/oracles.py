"""Slower twins of library code, for tests only: analytic oracles of the
simulator's optical law, and ICP's loop as it was written before it composed
raw arrays."""

import math

import numpy as np
from scipy.spatial import cKDTree

from tacsense import pose
from tacsense.core import DegenerateGeometryError, PointCloud, Pose


def delta_from_depth(model, depth):
    """Intensity drop of `model` (a sim.OpticalModel) relative to the
    unpressed reference."""
    return model.intensity(0.0) - model.intensity(depth)


def depth_from_delta(model, delta):
    """Analytic inverse of delta_from_depth."""
    scale = model.gain * math.exp(-model.attenuation * model.thickness)
    return np.log1p(np.asarray(delta, dtype=np.float64) / scale) / model.attenuation


def plane_step(src, dst, dst_normals, src_normals=None):
    """pose.plane_step as it was: a column stack and fresh lever arms."""
    n = dst_normals if src_normals is None else dst_normals + src_normals
    center = 0.5 * (src.mean(axis=0) + dst.mean(axis=0))
    arm = src + dst - 2.0 * center
    scale = max(math.sqrt(np.einsum("ij,ij->", arm, arm) / len(arm)), 1e-12)
    (x, y, z), (nx, ny, nz) = arm.T / scale, n.T
    a = np.column_stack([y * nz - z * ny, z * nx - x * nz, x * ny - y * nx, nx, ny, nz])
    h = a.T @ a
    eigvals = np.linalg.eigvalsh(h)
    if eigvals[0] <= pose.RANK_TOL * eigvals[-1]:
        return None
    solution = np.linalg.solve(h, a.T @ np.einsum("ij,ij->i", dst - src, n))
    (wx, wy, wz), shift = solution[:3] / scale, solution[3:]
    skew = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    m = (skew + skew @ skew) / (1.0 + wx * wx + wy * wy + wz * wz)
    return Pose(np.eye(3) + 2.0 * m, shift + m @ (shift - 2.0 * center))


def _rms(values):
    return float(np.sqrt(np.mean(values ** 2)))


def icp(source, target, init=None, max_iter=50, tol_mm=1e-5):
    """pose.icp as it was: a validated Pose per candidate, np.median, and the
    pairs gathered again for each step. Its tree has pose.LEAF_SIZE leaves."""
    step = -(-len(source) // pose.SOURCE_BUDGET)
    source = PointCloud(source.points[::step].astype(np.float64),
                        None if source.normals is None else source.normals[::step])
    if target.points.dtype != np.float64:
        target = PointCloud(target.points.astype(np.float64), target.normals)
    tree = cKDTree(target.points, leafsize=pose.LEAF_SIZE, balanced_tree=False)
    normals = target.normals

    def match(candidate):
        moved = candidate.apply(source.points)
        distances, indices = tree.query(moved, k=1)
        keep = distances <= pose.REJECT_RATIO * max(float(np.median(distances)), 1e-12)
        if keep.sum() < 3:
            raise DegenerateGeometryError("fewer than 3 usable correspondences")
        src_idx = np.nonzero(keep)[0]
        dst_idx = indices[keep]
        moved = moved[keep]
        turned = (None if normals is None or source.normals is None
                  else source.normals[src_idx] @ candidate.rotation.T)
        plane_rms = None if normals is None else _rms(np.einsum(
            "ij,ij->i", moved - target.points[dst_idx],
            normals[dst_idx] if turned is None else normals[dst_idx] + turned))
        return candidate, src_idx, dst_idx, moved, turned, _rms(distances[keep]), plane_rms

    current, src_idx, dst_idx, moved, turned, rmse, plane_rms = match(
        init if init is not None else Pose.identity())
    plane = normals is not None
    stop, iterations, plane_steps = "max_iter", 0, 0
    for iterations in range(1, max_iter + 1):
        step = (plane_step(moved, target.points[dst_idx], normals[dst_idx], turned)
                if plane else None)
        plane = step is not None
        plane_steps += plane
        trial = match(step.compose(current) if plane else pose.best_rigid_transform(
            source, target, np.column_stack([src_idx, dst_idx])))
        improvement = plane_rms - trial[6] if plane else rmse - trial[5]
        if improvement >= 0:
            current, src_idx, dst_idx, moved, turned, rmse, plane_rms = trial
        if improvement < 0 or improvement < tol_mm:
            stop = "settled" if improvement >= 0 else "score_rose"
            break
    return pose.IcpReport(pose=current, rmse=rmse, plane_steps=plane_steps,
                          svd_steps=iterations - plane_steps, stop=stop,
                          inlier_fraction=len(src_idx) / len(source))
