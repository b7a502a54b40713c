import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arcalg import diagrams  # noqa: E402  (after the path set-up)


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
