from fractions import Fraction

import numpy as np
import pytest

import condrsa as cr
from condrsa.tolerances import TOLERANCES


@pytest.fixture(scope="session")
def toy_ctx():
    return cr.builtin("toy").to_context()


@pytest.fixture(scope="session")
def skiing():
    return cr.builtin("skiing")


@pytest.fixture(scope="session")
def garden_party():
    return cr.builtin("garden_party")


@pytest.fixture(scope="session")
def sundowners():
    return cr.builtin("sundowners")


@pytest.fixture(scope="session")
def default_states():
    """The canonical state sample shared by all statistical tests: a
    structured array of relation codes and cells."""
    return cr.sample_default_states(TOLERANCES.default_seed)


@pytest.fixture(scope="session")
def default_ctx(default_states):
    n = len(default_states)
    return cr.ScenarioContext(
        cells=default_states["cells"],
        prior=np.full(n, 1.0 / n),
        relations=default_states["relation"],
        utterances=cr.default_utterances(),
        alpha=TOLERANCES.default_alpha,
        theta=TOLERANCES.default_theta,
    )


@pytest.fixture(scope="session")
def small_ctx():
    """A cheap sampled context for structural (non-statistical) tests."""
    return cr.build_default_context(seed=7, n_states=400)


def frac(text: str) -> Fraction:
    return Fraction(text)
