"""Shared scenario builders for the test suite.

Two scenarios carry most of the frozen numbers: a pair of second-order
stable systems with very different noise levels competing for one sensor,
and a trio of marginally stable scalar plants observed through
measurement delays. A third-order target with two measurements covers the
vector-measurement branch of the Riccati update.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from sensorsched import DelayChainSpec, LtiTarget, expand_delay_chain


def make_pair() -> list[LtiTarget]:
    noisy = LtiTarget(
        A=[[0.0, 1.0], [-0.49, 1.4]],
        C=[[1.0, 0.0]],
        Q=5.0 * np.eye(2),
        R=[[0.5]],
        label="noisy",
    )
    drifty = LtiTarget(
        A=[[0.0, 1.0], [-0.72, 1.7]],
        C=[[1.0, 0.0]],
        Q=np.eye(2),
        R=[[1.0]],
        label="drifty",
    )
    return [noisy, drifty]


def make_chain_trio() -> list[LtiTarget]:
    specs = [
        (DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=1), "near"),
        (DelayChainSpec(a=1.0, Q=2.0, R=1.0, d=2), "mid"),
        (DelayChainSpec(a=1.0, Q=5.0, R=1.0, d=2), "far"),
    ]
    return [expand_delay_chain(s, label=lbl) for s, lbl in specs]


def make_two_sensor() -> LtiTarget:
    """Three states, one mildly unstable (eigenvalue 1.05), read through
    two correlated measurements, so the innovation covariance is 2x2."""
    return LtiTarget(
        A=[[1.05, 0.2, 0.0], [0.0, 0.9, 0.3], [0.0, 0.0, 0.7]],
        C=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        Q=np.diag([1.0, 0.5, 2.0]),
        R=[[1.0, 0.2], [0.2, 0.5]],
        label="two_sensor",
    )



def random_connected_graph(rng, n: int) -> np.ndarray:
    """A random spanning tree plus a few random extra edges."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(1, n):
        u, v = order[k], order[rng.integers(k)]
        adj[u, v] = adj[v, u] = True
    for _ in range(n // 2):
        u, v = rng.choice(n, size=2, replace=False)
        adj[u, v] = adj[v, u] = True
    return adj

@pytest.fixture()
def pair() -> list[LtiTarget]:
    return make_pair()


@pytest.fixture()
def two_sensor() -> LtiTarget:
    return make_two_sensor()


@pytest.fixture(scope="session")
def unstable_scalar() -> LtiTarget:
    """Scalar plant with a = 2, so q^c = 0.75.

    Session-scoped: the instance is immutable and carries no cached
    state, so every test can share it.
    """
    return LtiTarget(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], label="unstable")


@pytest.fixture()
def chain_trio() -> list[LtiTarget]:
    return make_chain_trio()


@pytest.fixture(scope="session")
def no_slack_pair() -> list[LtiTarget]:
    """Two copies of a scalar plant with q^c = 1 - 0.500012 = 0.499988.

    At the default inner_tol of 1e-5 the floors q^c + tol sum to
    0.999996, leaving 2e-6 of slack per target above its floor.
    """
    t = LtiTarget(A=[[1 / np.sqrt(0.500012)]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], label="tight")
    return [t, t]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance-criteria outcome table after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
