"""Shared fixtures: expensive score constructions and small helpers."""

import os
from pathlib import Path

import pytest

from lbinorm.scores import _poly_score
from lbinorm.stable import score_stable

# pytest's ``pythonpath`` setting reaches only this process: a subprocess that
# runs ``python -m lbinorm.cli`` finds the package through the environment.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


def make_poly_score(coeffs, label="poly"):
    """A ScoreFunction for explicit polynomial coefficients (highest first)."""
    return _poly_score(coeffs, label)


@pytest.fixture(scope="session")
def stable_score0():
    """Symmetric stable-family score (built once; grid inversion is costly)."""
    return score_stable(0.0)


@pytest.fixture
def poly_score():
    return make_poly_score
