"""Shared fixtures: expensive score constructions and small helpers."""

import os
from pathlib import Path

import numpy as np
import pytest

from lbinorm.scores import ScoreFunction
from lbinorm.stable import score_stable

# pytest's ``pythonpath`` setting reaches only this process: a subprocess that
# runs ``python -m lbinorm.cli`` finds the package through the environment.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


def make_poly_score(coeffs, label="poly"):
    """A ScoreFunction for explicit polynomial coefficients (highest first)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    d = np.polyder(c) if c.size > 1 else np.array([0.0])
    return ScoreFunction(
        evaluate=lambda x, _c=c: np.polyval(_c, x),
        family_label=label,
        polynomial_coeffs=tuple(c.tolist()),
        derivative=lambda x, _d=d: np.polyval(_d, x),
    )


@pytest.fixture(scope="session")
def stable_score0():
    """Symmetric stable-family score (built once; grid inversion is costly)."""
    return score_stable(0.0)


@pytest.fixture
def poly_score():
    return make_poly_score
