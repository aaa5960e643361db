"""Shared fixtures: loaders for the published reference quantile tables, and
the checkout's ``src`` on the path of every interpreter a test starts.

tests/data/reference_tables/<token>.csv holds the printed critical values
(four or five decimals) with their standard errors where the source
tabulation was simulated; exact entries have an empty stderr field.
"""

import csv
import os
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data" / "reference_tables"

# the interpreters the tests start import this checkout as well, as
# ``pythonpath`` in pyproject.toml makes the test process do
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

METHOD_TOKENS = (
    "tippett", "fisher", "gm", "min-gm", "stouffer",
    "wilkinson", "edgington", "mg", "harmonic", "chen",
)


def load_reference(token):
    """-> {(n, n_f, q): (estimate, stderr_or_None)}"""
    table = {}
    with open(DATA_DIR / f"{token}.csv") as f:
        for row in csv.DictReader(f):
            key = (int(row["n"]), int(row["n_f"]), float(row["q"]))
            se = float(row["stderr"]) if row["stderr"] else None
            table[key] = (float(row["estimate"]), se)
    return table


@pytest.fixture(scope="session")
def reference_tables():
    return {token: load_reference(token) for token in METHOD_TOKENS}
