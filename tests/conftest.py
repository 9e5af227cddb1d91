import numpy as np
import pytest

from tacsense import sim
from tacsense.core import SensorGeometry


@pytest.fixture(scope="session")
def geom():
    return SensorGeometry()


@pytest.fixture(scope="session")
def optical():
    return sim.OpticalModel()


@pytest.fixture(scope="session")
def uniform_illum(geom):
    return sim.uniform_illumination(geom.crop_size)


@pytest.fixture(scope="session")
def standard_illum(geom):
    return sim.make_illumination("standard", geom.crop_size,
                                 led_sigma=sim.DEFAULT_LED_SIGMA)


@pytest.fixture(scope="session")
def flat_reference(optical, uniform_illum):
    return sim.reference_image(optical, uniform_illum)


@pytest.fixture(scope="session")
def standard_reference(optical, standard_illum):
    return sim.reference_image(optical, standard_illum)
