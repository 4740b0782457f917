import math

import numpy as np
import pytest

from atlaspack import CameraFrame
from atlaspack.geometry import perspective_matrix


@pytest.fixture
def cam90() -> CameraFrame:
    """fov 90 degrees, square aspect, identity view."""
    return CameraFrame.from_params(math.radians(90), 1.0, 0.1, 100.0)


@pytest.fixture
def exact_cam() -> CameraFrame:
    """fov 90, square aspect, identity view, with x_clip = x, y_clip = y and w = -z.

    A world point (X, Y, Z) with Z < 0 lands at NDC (X / -Z, Y / -Z), so
    points built on a dyadic lattice project onto it exactly.
    """
    proj = perspective_matrix(math.radians(90), 1.0, 0.1, 100.0)
    proj[0, 0] = proj[1, 1] = 1.0
    return CameraFrame(math.radians(90), 1.0, 0.1, 100.0, view=np.eye(4), proj=proj)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
