"""Normalisation maths, tail selection, span self time, compare verdicts,
and the BENCHMARK.json contract — none of this touches ``src/``."""

import json
import re
from types import SimpleNamespace

import pytest

from benchmarks.layers import calib, compare, spec
from benchmarks.layers.trace import (
    HARNESS,
    Span,
    Tracer,
    layer_shares,
    self_times,
)


# -- calib -----------------------------------------------------------------------


def test_normalise_scales_by_the_mean_of_the_bracket():
    # A host running the kernel in 40 ms is half as fast as the reference.
    assert calib.normalise(1.0, 0.040, 0.040) == pytest.approx(0.5)
    assert calib.normalise(3.0, 0.010, 0.030) == pytest.approx(3.0)
    timed = calib.Timed(raw_s=2.0, cpu_raw_s=1.0, before_s=0.030, after_s=0.050)
    assert timed.s == pytest.approx(1.0)
    assert timed.cpu_s == pytest.approx(0.5)


def test_timed_excludes_kernel_time_and_shares_adjacent_kernels(monkeypatch):
    runs = []

    def fake_kernel():
        runs.append(1)
        return 0.020

    monkeypatch.setattr(calib, "kernel", fake_kernel)
    host = calib.Host()
    first, value = host.timed(lambda: "out")
    assert value == "out" and len(runs) == 2
    assert first.raw_s < 0.01  # the kernel "ran" outside the region
    host.timed(lambda: None)
    assert len(runs) == 3  # the second region reused the first's after-kernel
    assert host.kernel_samples == [0.020] * 3


@pytest.mark.parametrize(
    "count, expected",
    [(18, 50), (20, 50), (40, 75), (64, 75), (100, 90), (160, 90), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert calib.tail_percentile(count) == expected


def test_percentile_is_nearest_rank_and_p50_is_the_median():
    values = list(range(1, 21))
    assert calib.percentile(values, 75) == 15
    assert calib.percentile(values, 90) == 18
    assert calib.percentile(values, 50) == calib.median(values) == 10.5


# -- trace -------------------------------------------------------------------------


def _span(span_id, layer, start, end, parent=None, name=None):
    return Span(span_id, name or f"s{span_id}", layer, "op", start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, HARNESS, 0.0, 10.0),
        _span(1, "srds", 1.0, 5.0, parent=0),
        _span(2, "net", 4.0, 7.0, parent=0),      # overlaps span 1 by 1 s
        _span(3, "crypto", 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)
    shares = layer_shares(spans)
    assert shares[HARNESS] == pytest.approx(0.4)
    assert shares["crypto"] == pytest.approx(0.1)


def test_tracer_nests_and_adopts_phase_records():
    tracer = Tracer()
    with tracer.span("op", HARNESS, op="w/0") as root:
        with tracer.span("call", "protocols") as call:
            pass
    assert call.parent == root.span_id and call.op == "w/0"
    log = SimpleNamespace(records=[
        SimpleNamespace(name="pi-ba", depth=0, start_wall=call.start, end_wall=call.end),
        SimpleNamespace(name="base-sign", depth=1, start_wall=call.start, end_wall=call.end),
        SimpleNamespace(name="open", depth=1, start_wall=call.start, end_wall=None),
    ])
    tracer.adopt_phases(log, call)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["pi-ba"].parent == call.span_id
    assert by_name["base-sign"].parent == by_name["pi-ba"].span_id
    assert by_name["base-sign"].layer == "srds"
    assert "open" not in by_name


# -- compare -----------------------------------------------------------------------


def test_verdicts():
    assert compare.verdict([1.0], [1.05], "lower", 0.10)[0] == "ok"
    assert compare.verdict([1.0], [1.2], "lower", 0.10)[0] == "regressed"
    assert compare.verdict([10.0], [8.0], "higher", 0.10)[0] == "regressed"
    assert compare.verdict([10.0], [12.0], "higher", 0.10)[0] == "ok"
    # Noisy sides that overlap cannot be called either way ...
    noisy_a, noisy_b = [1.0, 1.3, 0.8, 1.1], [1.2, 0.9, 1.5, 1.1]
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.10)[0] == "unresolved"
    # ... unless every run of B beats (or loses to) every run of A.
    assert compare.verdict(noisy_a, [0.5, 0.7, 0.6, 0.75], "lower", 0.10)[0] == "ok"
    assert compare.verdict(noisy_a, [2.0, 2.6, 2.2, 2.9], "lower", 0.10)[0] == "regressed"
    # Exact metrics: bound 0 flags any growth.
    assert compare.verdict([100], [101], "lower", 0.0)[0] == "regressed"
    assert compare.verdict([100], [100], "lower", 0.0)[0] == "ok"


def _run_file(tmp_path, name, op_s, failed_share=0.0, seed=1):
    document = {
        "schema": "repro-layers/1", "seed": seed,
        "workloads": {"gateway-mix": {
            "failed_share": failed_share,
            "end_to_end": {
                "op_s": {"value": op_s, "unit": "s"},
                "max_bits_per_party": {"value": 1000, "unit": "bits"},
            },
        }},
    }
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    base = _run_file(tmp_path, "a.json", 1.0)
    assert compare.main(base, _run_file(tmp_path, "b.json", 1.04)) == 0
    assert compare.main(base, _run_file(tmp_path, "c.json", 1.5)) == 1
    assert "regressed" in capsys.readouterr().out
    # A higher failed_share fails the comparison on its own.
    assert compare.main(base, _run_file(tmp_path, "d.json", 1.0, failed_share=0.1)) == 1


# -- the contract ------------------------------------------------------------------


def test_benchmark_json_is_the_spec_and_within_the_contract_limits():
    contract = spec.contract()
    assert json.loads(compare.BENCHMARK_JSON.read_text()) == contract
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    )
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(
        unit.match(m["unit"]) and m["better"] in ("lower", "higher")
        for m in contract["end_to_end"] + contract["per_layer"]
    )
    assert 2 <= len(contract["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert 1 <= len(contract["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
