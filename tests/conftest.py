import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arcalg import arc_algebra, diagrams  # noqa: E402  (after the path set-up)


@pytest.fixture
def count_glues(monkeypatch):
    """Call it to count the calls of ``diagrams.glue`` from then on."""
    def start() -> list[int]:
        calls = [0]
        real = diagrams.glue

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(diagrams, "glue", counted)
        return calls
    return start


@pytest.fixture
def table_builds(monkeypatch) -> Counter:
    """The tables built from now on, counted per (shape, alpha, standard_only).

    The test gets a table memo of its own, as large as the package's and
    empty, so a table counts once however often it is read; the package's
    memo is back, untouched, after the test.
    """
    builds: Counter = Counter()
    real = arc_algebra._build_table

    def counted(*key):
        builds[key] += 1
        return real.__wrapped__(*key)

    monkeypatch.setattr(arc_algebra, "_build_table",
                        lru_cache(real.cache_parameters()["maxsize"])(counted))
    return builds
