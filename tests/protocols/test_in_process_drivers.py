"""The committee drivers run on the in-process row, which needs no event
loop: a fresh interpreter that runs all four has not loaded ``asyncio``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def test_the_committee_drivers_leave_asyncio_unloaded():
    probe = (
        "import json, sys\n"
        "from repro.protocols.coin_toss import run_coin_toss\n"
        "from repro.protocols.dolev_strong import run_dolev_strong\n"
        "from repro.protocols.gradecast import run_gradecast\n"
        "from repro.protocols.phase_king import run_phase_king\n"
        "from repro.utils.randomness import Randomness\n"
        "outputs = [\n"
        "    run_phase_king({i: i % 2 for i in range(4)})[0],\n"
        "    run_gradecast(range(4), 0, 1)[0],\n"
        "    run_coin_toss(range(4), Randomness(1))[0],\n"
        "    run_dolev_strong(range(4), 0, 1, Randomness(1))[0],\n"
        "]\n"
        "print(json.dumps([len(o) for o in outputs] + ['asyncio' in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], check=True, text=True,
        capture_output=True, env={"PYTHONPATH": str(SRC)}, timeout=60,
    )
    *sizes, asyncio_loaded = json.loads(done.stdout)
    assert sizes == [4, 4, 4, 4]
    assert asyncio_loaded is False
