"""The load generator's guard on client connections.

Run with ``python3 -m pytest perfbench/test_harness.py``.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def test_more_clients_than_cores_are_refused():
    harness.check_clients(1)
    for clients in (0, (os.cpu_count() or 1) + 1):
        with pytest.raises(ValueError):
            harness.check_clients(clients)
