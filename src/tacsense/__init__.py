"""Closed-loop tactile sensing stack: simulation, calibration, reconstruction, pose tracking."""

__version__ = "0.1.0"
