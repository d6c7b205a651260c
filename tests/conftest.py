from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

import helpers

settings.register_profile("repo", deadline=None, derandomize=True)
# `pytest --hypothesis-profile=deep` gives every property 15 times the
# default 100 examples; the oracle properties are what it is for.
settings.register_profile("deep", settings.get_profile("repo"), max_examples=1500)
settings.load_profile("repo")

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def n1_network():
    return helpers.build_n1()


@pytest.fixture
def n2_network():
    return helpers.build_n2()


@pytest.fixture
def n1_packages():
    return helpers.N1_PACKAGES


@pytest.fixture
def n2_packages():
    return helpers.N2_PACKAGES


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR
