"""Property test: the sorted-window close-pair search of the injectivity
check equals the full matrix of squared distances, pair and tie-break
included, on clouds with exact duplicates, planted pairs just inside and
just outside 1e-9, and magnitudes where 2e-9 is below one ulp."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lsa.affine import GRID_TICKS, _first_close_pair

from affine_reference import first_close_pair_reference

SCALES = (1.0, 1e8, 1e12)
SEPARATIONS = (0.99999e-9, 1.00001e-9)
DIRECTIONS = np.vstack([np.eye(3), np.ones(3) / 3**0.5])  # each axis and a diagonal
LATTICE = np.stack(np.meshgrid(GRID_TICKS, GRID_TICKS, GRID_TICKS, indexing="ij"), axis=-1).reshape(-1, 3)


def planted(centre, sep, direction):
    return [centre - sep / 2 * direction, centre + sep / 2 * direction]


@st.composite
def clouds(draw):
    """Scattered points at one scale, exact duplicates of some of them, and
    planted pairs at 0.99999e-9 or 1.00001e-9 along an axis or the
    diagonal, centred at any scale; shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    points = list(scale * rng.uniform(-1.0, 1.0, (draw(st.integers(0, 40)), 3)))
    for _ in range(draw(st.integers(0, 4)) if points else 0):
        points.append(points[draw(st.integers(0, len(points) - 1))].copy())
    for _ in range(draw(st.integers(0, 3))):
        centre = draw(st.sampled_from(SCALES)) * rng.uniform(-1.0, 1.0, 3)
        points += planted(centre, draw(st.sampled_from(SEPARATIONS)), DIRECTIONS[draw(st.integers(0, 3))])
    cloud = np.array(points, dtype=float).reshape(-1, 3)
    return cloud[rng.permutation(len(cloud))]


# the pair (1, 2) sorts first on every axis, but (0, 3) is row-major first
_A, _B = np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0])
_C = np.array([0.1, 0.2, 0.3])  # off the lattice


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clouds())
@example(np.empty((0, 3)))
@example(np.array([[0.5, -1.0, 2.0]]))
@example(np.tile([0.3, -1.2, 2.0], (50, 1)))
@example(np.tile([1e8, -3e8, 2.5e8], (50, 1)))
@example(LATTICE)
@example(np.vstack([1e8 * LATTICE, 1e8 * LATTICE[[100, 7]]]))
@example(np.array([_A, _B, _B, _A]))
@example(np.array([1e8 * _A, 1e8 * _B, 1e8 * _B, 1e8 * _A]))
@example(np.vstack([LATTICE] + [planted(_C + 0.1 * k, 1.00001e-9, d) for k, d in enumerate(DIRECTIONS)]))
@example(np.vstack([LATTICE] + [planted(_C + 0.1 * k, 0.99999e-9, d) for k, d in enumerate(DIRECTIONS)]))
def test_sorted_window_equals_the_full_matrix(images):
    assert _first_close_pair(images) == first_close_pair_reference(images)
