import os
import sys
import threading

import pytest

from dcovselect import svm_reject

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))


@pytest.fixture
def finishes():
    """Run a callable in a thread; fail if it has not returned within ``timeout``.

    Returns ``{"value": result}`` or ``{"error": exception}``.
    """

    def run(fn, timeout=120.0):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except Exception as exc:  # handed back to the test
                box["error"] = exc

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout)
        assert not worker.is_alive(), f"call still running after {timeout} s"
        return box

    return run


@pytest.fixture
def cold_fit_path(monkeypatch):
    """``svm_reject.fit_path`` on its cold route, as where scipy has no ``_Highs``:
    every penalty solved from scratch by ``linprog``."""

    def solve(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(svm_reject, "_highs_core", lambda: None)
            return svm_reject.fit_path(*args, **kwargs)

    return solve
