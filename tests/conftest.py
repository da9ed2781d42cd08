import os
import sys
import threading

import pytest

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
