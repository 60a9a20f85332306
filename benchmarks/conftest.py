"""Shared fixtures and helpers for the benchmark harness.

Each benchmark module regenerates one table/figure/claim from the paper
(see the experiment index in DESIGN.md), asserts its *shape* (who wins,
by roughly what factor, where crossovers fall), and appends a
human-readable record to ``benchmarks/results/`` for EXPERIMENTS.md.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    """Directory where benchmark modules drop their measurement records."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist one experiment's record (and echo it to stdout)."""
    path = results_dir / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    print(f"\n[{name}]\n{text}")


@pytest.fixture(scope="session")
def bench_json(results_dir):
    """Writer for structured ``BENCH_<name>.json`` records.

    Companion to :func:`write_result`: the text records are for humans,
    these JSON records (schema ``repro-bench/2``) make the cost
    trajectory machine-readable across commits — ``python -m repro report``
    and ``python -m repro obs report <path>`` both render them.
    """
    from repro.obs.bench import bench_payload, write_bench_json

    def _write(name, *, snapshot=None, phase_breakdown=None, extra=None):
        payload = bench_payload(
            name,
            snapshot=snapshot,
            phase_breakdown=phase_breakdown,
            extra=extra,
        )
        path = write_bench_json(results_dir, payload)
        print(f"\n[BENCH_{name}] -> {path}")
        return path

    return _write
