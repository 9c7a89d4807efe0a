import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

# make sibling helper modules (randspec) importable regardless of cwd
sys.path.insert(0, str(Path(__file__).parent))

from dynlate import simulate
from dynlate.dgp import DgpSpec, HistorySpec, save_spec
from dynlate.latent import NEVER, AdoptionPair

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def make_three_history_spec(noise_sd=0.0):
    """T=2 reference DGP: rf_2 = 0.65, fs_2 = 0.3, one contaminating group."""
    P = AdoptionPair
    return DgpSpec(
        T=2,
        pz=0.5,
        histories=(
            HistorySpec(P(1, NEVER), 0.3, (0.0, 0.0), ((1.0,), (0.0, 2.0))),
            HistorySpec(P(1, 2), 0.1, (0.0, 0.0), ((1.0,), (1.5, 2.0))),
            HistorySpec(P(NEVER, NEVER), 0.6, (0.0, 0.0), ((0.0,), (0.0, 0.0))),
        ),
        noise_sd=noise_sd,
    )


def make_homogeneity_spec(with_ntf2):
    """T=2: C1 reads 1.0 at exposure 0 in both periods, NT1,C2 reads 5.0 at t=2;
    with ``with_ntf2``, NT1,F2 adds 3.0 at the same (t, exposure)."""
    P, zero = AdoptionPair, ((0.0,), (0.0, 0.0))
    histories = [
        HistorySpec(P(1, NEVER), 0.4, (0, 0), ((1.0,), (1.0, 2.0))),
        HistorySpec(P(2, NEVER), 0.2, (0, 0), ((0.0,), (5.0, 0.0))),
        HistorySpec(P(NEVER, NEVER), 0.3 if with_ntf2 else 0.4, (0, 0), zero),
    ]
    if with_ntf2:
        histories.append(HistorySpec(P(NEVER, 2), 0.1, (0, 0), ((0.0,), (3.0, 0.0))))
    return DgpSpec(2, 0.5, tuple(histories))


def make_weak_long_spec(T):
    """fs_1 = 1/24 against rho_2 = 1 over T periods, with unit-variance noise.

    Each exposure of the identified profile grows about 24-fold, so at
    T = 200 the late deltas of one sample reach 1e250 and more.
    """
    effects = tuple((1.0,) * t for t in range(1, T + 1))
    return DgpSpec(T, 0.5, (
        HistorySpec(AdoptionPair(1, 2), 1 / 24, (0.0,) * T, effects),
        HistorySpec(AdoptionPair(NEVER, 2), 23 / 24, (0.0,) * T, effects),
    ), noise_sd=1.0)


@pytest.fixture
def three_history_spec():
    return make_three_history_spec()


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(make_three_history_spec(), str(path))
    return str(path)


@pytest.fixture
def small_panel_csv():
    return str(DATA_DIR / "panel_small.csv")


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every pool the bootstrap or Monte Carlo starts.

    An inline stand-in replaces ``ThreadPoolExecutor`` in ``simulate``,
    which starts every pool, so no thread is started, whatever the code
    under test asks for.
    """
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingExecutor)
    return started


@pytest.fixture
def threaded_pools(monkeypatch):
    """``max_workers`` of every pool started, on real worker threads."""
    started = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", CountingExecutor)
    return started
