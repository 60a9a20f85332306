"""What a cluster worker imports stays small: a fresh interpreter that
imports the worker has loaded neither ``asyncio`` nor the obs tooling
it never calls.  A cluster run's cross-process view is its per-party
trace, so no span-track tooling exists or is served."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import repro.obs
from repro.__main__ import main

SRC = Path(repro.obs.__file__).resolve().parents[2]


def test_there_is_no_span_track_merge(capsys):
    assert importlib.util.find_spec("repro.obs.merge") is None
    assert main(["obs", "merge", "spans", "out.json"]) == 2
    assert "invalid choice: 'merge'" in capsys.readouterr().err


def test_worker_import_leaves_the_heavy_modules_unloaded():
    probe = (
        "import json, sys, repro.cluster.worker, repro.net.bind\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'asyncio'"
        " or m.startswith('repro.obs.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], check=True, text=True,
        capture_output=True, env={"PYTHONPATH": str(SRC)}, timeout=60,
    )
    loaded = set(json.loads(done.stdout))
    assert "asyncio" not in loaded
    assert loaded <= {
        "repro.obs.flow", "repro.obs.jsonl", "repro.obs.spans",
    }, loaded
