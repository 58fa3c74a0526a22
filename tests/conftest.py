import os

# one BLAS thread per test process, as bench/run.py sets for its workers: two numpy
# processes at once on a small machine otherwise oversubscribe OpenBLAS; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import json

import pytest


@pytest.fixture
def case_digest():
    """SHA-256 of a report's [[input, lhs, rhs, equal], ...] case list.

    Golden values pin reports byte for byte across refactors; the encoding is
    the one the benchmark uses for its seed-0 digests.
    """

    def digest(report) -> str:
        rows = [[c.input, c.lhs, c.rhs, bool(c.equal)] for c in report.cases]
        return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode()).hexdigest()

    return digest
