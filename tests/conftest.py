"""Shared fixtures: a small synthetic world and dataset reused across tests.

Also wires the ``slow`` marker: tests marked ``@pytest.mark.slow``
(extended fuzz sweeps, large parity sweeps) are skipped unless pytest
runs with ``--runslow``.
"""

import numpy as np
import pytest

from repro import kernels
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.graphs import GraphBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run tests marked slow (extended sweeps)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test, needs --runslow to execute")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow option to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def world():
    config = GeneratorConfig(
        num_aois=40, num_couriers=4, num_days=6,
        instances_per_courier_day=2, seed=123)
    return SyntheticWorld(config)


@pytest.fixture(scope="session")
def dataset(world):
    return RTPDataset(world.generate())


@pytest.fixture(scope="session")
def splits(dataset):
    return dataset.split_by_day()


@pytest.fixture(scope="session")
def builder():
    return GraphBuilder(k_neighbors=3)


@pytest.fixture(scope="session")
def instance(dataset):
    # A multi-AOI instance with a handful of locations.
    for candidate in dataset:
        if candidate.num_aois >= 2 and candidate.num_locations >= 5:
            return candidate
    return dataset[0]


@pytest.fixture(scope="session")
def graph(builder, instance):
    return builder.build(instance)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def kernel_dispatches(monkeypatch):
    """Backend names of every ``repro.kernels.active()`` dispatch.

    The fused inference paths look the backend up through this call,
    so an empty list after a forward means it never reached
    :mod:`repro.kernels`.
    """
    calls = []
    real_active = kernels.active

    def spy():
        calls.append(kernels.active_name())
        return real_active()

    monkeypatch.setattr(kernels, "active", spy)
    return calls
