"""Shared fixtures."""

import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def src_env():
    """Environment for a subprocess that must import ``imvc`` from this
    checkout's ``src``, whatever ``PYTHONPATH`` the test run was given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def failing_json_dump(monkeypatch):
    """Make ``json.dump`` write the start of its document, then fail."""
    def dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:10])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump)


@pytest.fixture
def failing_savetxt(monkeypatch):
    """Make ``np.savetxt`` write the first line of its file, then fail."""
    real = np.savetxt

    def savetxt(fh, X, **kwargs):
        real(fh, np.asarray(X)[:1], **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savetxt", savetxt)
