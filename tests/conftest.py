import os
from pathlib import Path

import pytest

from boxicity import intervals
from boxicity.corpus import all_graphs, connected_graphs


@pytest.fixture(scope="session")
def graphs_by_n():
    """Exhaustive corpora: one representative per isomorphism class."""
    return {n: all_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def connected_by_n():
    return {n: connected_graphs(n) for n in range(1, 8)}


@pytest.fixture
def src_env():
    """Environment for a child interpreter with ``src`` first on its path, so
    subprocesses import this checkout even when the package is not installed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def orientation_calls(monkeypatch):
    """The vertex count of each call to the transitive orientation routine,
    made by any module while the test runs."""
    calls = []
    orient = intervals._transitive_orientation

    def counted(n, rows):
        calls.append(n)
        return orient(n, rows)

    monkeypatch.setattr(intervals, "_transitive_orientation", counted)
    return calls
