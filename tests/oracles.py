"""Analytic oracles of the simulator's optical law, for tests only."""

import math

import numpy as np


def delta_from_depth(model, depth):
    """Intensity drop of `model` (a sim.OpticalModel) relative to the
    unpressed reference."""
    return model.intensity(0.0) - model.intensity(depth)


def depth_from_delta(model, delta):
    """Analytic inverse of delta_from_depth."""
    scale = model.gain * math.exp(-model.attenuation * model.thickness)
    return np.log1p(np.asarray(delta, dtype=np.float64) / scale) / model.attenuation
