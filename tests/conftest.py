import sys
from pathlib import Path

import pytest

# make sibling helper modules (randspec) importable regardless of cwd
sys.path.insert(0, str(Path(__file__).parent))

from dynlate import inference, simulate
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

    An inline stand-in replaces ``ThreadPoolExecutor``, so no thread is
    started, whatever the code under test asks for.
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

    for module in (inference, simulate):
        monkeypatch.setattr(module, "ThreadPoolExecutor", RecordingExecutor)
    return started
