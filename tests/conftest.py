import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from smaselect import (
    DesignMatrix,
    NoiseSpec,
    SingularGramWarning,
    build_projection_family,
)
from smaselect.experiment import fourier_derivative_values, fourier_values


@pytest.fixture
def toy_design():
    # 3x4 design: columns e1, e2, e3, 0 -> every leading Gram is the identity.
    return DesignMatrix(np.hstack([np.eye(3), np.zeros((3, 1))]))


@pytest.fixture
def toy_family(toy_design):
    return build_projection_family(toy_design, np.eye(toy_design.p), [1, 2, 3])


@pytest.fixture
def toy_noise():
    return NoiseSpec([1.0, 1.0, 1.0, 1.0])


@pytest.fixture
def toy_extended_family():
    # Same coordinate-selector structure, models 1..6 on an 6x8 design.
    design = DesignMatrix(np.hstack([np.eye(6), np.zeros((6, 2))]))
    return build_projection_family(design, np.eye(design.p), range(1, 7))


def orthonormal_rows_design(rng, p, n):
    """Random design whose rows are orthonormal (every leading Gram = I)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return DesignMatrix(q.T[:p])


@st.composite
def small_families(draw, kinds=("prediction", "derivative", "full_vector", "custom", "deficient")):
    """A family on ``p = 3..8`` features, ``n = p + 2..p + 10`` observations
    and two or more models.  ``prediction`` and ``derivative`` put the
    trigonometric basis on ``n`` equispaced points under the prediction or
    the derivative loss (both take the increments kernel); ``full_vector``
    and ``custom`` put a Gaussian design under the full-vector loss or a
    random ``q x p`` weighting, and ``deficient`` repeats a row of a
    Gaussian design inside the largest model, so its Gram is singular."""
    kind = draw(st.sampled_from(kinds))
    p = draw(st.integers(3, 8))
    n = p + draw(st.integers(2, 10))
    models = draw(st.lists(st.integers(1, p), min_size=2, max_size=p, unique=True).map(sorted))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("prediction", "derivative"):
        grid = (np.arange(n) + 0.5) / n
        design = DesignMatrix(fourier_values(grid, p) / np.sqrt(n))
        weights = design.entries if kind == "prediction" else fourier_derivative_values(grid, p)
        weighting = weights.T
    else:
        entries = rng.standard_normal((p, n))
        if kind == "deficient":
            row = draw(st.integers(1, models[-1] - 1))
            entries[row] = entries[row - 1]
        design = DesignMatrix(entries)
        weighting = np.eye(p)
        if kind == "custom":
            weighting = rng.standard_normal((draw(st.integers(1, p)), p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularGramWarning)
        return build_projection_family(design, weighting, models)
