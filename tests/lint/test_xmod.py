"""The interprocedural layer: project rules, call graph, facts cache.

Fixture pairs mirror ``test_rules.py`` (one good/bad tree per rule
family); the graph and cache tests run over the deliberate import cycle
in ``fixtures/xmod_graph``.
"""

import json
import shutil

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import LintConfig
from repro.lint.engine import iter_source_files, load_module, run_lint
from repro.lint.model import ModuleUnit
from repro.lint.rules.schema import struct_field_count
from repro.lint.xmod.cache import build_project
from repro.lint.xmod.callgraph import CALLGRAPH_SCHEMA, CallGraph
from tests.lint.conftest import FIXTURES, lint_fixture, rule_ids_of


# -- TRU001: trust-boundary taint --------------------------------------------

def test_tru001_flags_unguarded_field_and_tainted_sinks():
    result = lint_fixture("xmod_tru_bad", rules=("TRU001",))
    ids = rule_ids_of(result)
    assert ids.count("TRU001") == 4
    messages = " | ".join(v.message for v in result.violations)
    # (a) the decoder lets one field escape unguarded...
    assert "charge_bits" in messages and "escape" in messages
    # (b) ...and wire-derived data reaches both sink kinds.
    assert "record_message" in messages
    assert "record_multicast" in messages
    assert "advance_round" in messages
    assert "wire data ingested at line" in messages


def test_tru001_decoder_field_violation_anchors_at_the_escape_line():
    result = lint_fixture("xmod_tru_bad", rules=("TRU001",))
    field_violations = [
        v for v in result.violations if "escape" in v.message
    ]
    assert len(field_violations) == 1
    # The finding lands on the constructor kwarg line (pragma-able per
    # field), not on the shared unpack line.
    assert "charge_bits=charge_bits" in field_violations[0].snippet


def test_tru001_accepts_guarded_construction_and_sanitizers():
    result = lint_fixture("xmod_tru_ok", rules=("TRU001",))
    assert rule_ids_of(result) == []


# -- SCH001: wire-schema drift -----------------------------------------------

def test_sch001_flags_all_four_drift_kinds():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    ids = rule_ids_of(result)
    assert ids.count("SCH001") == 5
    messages = " | ".join(v.message for v in result.violations)
    assert "field order drift" in messages          # pack order (x2)
    assert "packs 2 value(s)" in messages           # arity
    assert "never read by Ticket.encode" in messages  # coverage
    assert "'stamp'" in messages                    # constructor kwarg
    order = [v for v in result.violations if "order drift" in v.message]
    assert len(order) == 2


def test_sch001_constructor_drift_is_cross_module():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    kwarg = [v for v in result.violations if "'stamp'" in v.message]
    assert [v.path for v in kwarg] == ["xmod_sch_bad/builder.py"]


def test_sch001_accepts_matching_codecs_and_affix_pairs():
    result = lint_fixture("xmod_sch_ok", rules=("SCH001",))
    assert rule_ids_of(result) == []


def test_struct_field_count_parses_repeat_string_and_pad_codes():
    assert struct_field_count(">BIIIII") == 6
    assert struct_field_count(">IIIIqIHI") == 8
    assert struct_field_count("<4s2xI") == 2   # 4s = one value, x = none
    assert struct_field_count("3i") == 3
    assert struct_field_count("!Hp") == 2


# -- ASY002: shared-state lock discipline ------------------------------------

def test_asy002_flags_lock_affine_and_cross_context_mutations():
    result = lint_fixture("xmod_asy_bad", rules=("ASY002",))
    ids = rule_ids_of(result)
    assert ids.count("ASY002") == 3
    messages = " | ".join(v.message for v in result.violations)
    assert "'_inbox'" in messages and "without holding" in messages
    assert "'_journal'" in messages
    assert "both thread and event-loop contexts" in messages


def test_asy002_accepts_locked_mutations_and_single_writers():
    result = lint_fixture("xmod_asy_ok", rules=("ASY002",))
    assert rule_ids_of(result) == []


def test_asy002_is_scoped_to_concurrency_surfaces():
    # The same class outside runtime/cluster/serve is out of scope.
    src = FIXTURES / "xmod_asy_bad" / "runtime" / "state.py"
    elsewhere = FIXTURES / "anywhere" / "_asy002_copy.py"
    elsewhere.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    try:
        result = lint_fixture(
            "anywhere/_asy002_copy.py", rules=("ASY002",)
        )
        assert rule_ids_of(result) == []
    finally:
        elsewhere.unlink()


# -- call-graph export --------------------------------------------------------

def _graph_project(root, cache_path=None):
    config = LintConfig(root=root, paths=("xmod_graph",))
    modules = [
        loaded
        for path in iter_source_files(config)
        if isinstance(loaded := load_module(path, config), ModuleUnit)
    ]
    return build_project(modules, cache_path)


def test_callgraph_golden_document():
    project = _graph_project(FIXTURES)
    doc = CallGraph(project).to_json()
    assert doc["schema"] == CALLGRAPH_SCHEMA
    assert [m["name"] for m in doc["modules"]] == [
        "xmod_graph.pkg", "xmod_graph.pkg.a",
        "xmod_graph.pkg.b", "xmod_graph.pkg.c",
    ]
    by_name = {m["name"]: m for m in doc["modules"]}
    assert by_name["xmod_graph.pkg.a"]["imports"] == ["xmod_graph.pkg.b"]
    assert by_name["xmod_graph.pkg.b"]["imports"] == ["xmod_graph.pkg.a"]
    assert all(len(m["sha256"]) == 64 for m in doc["modules"])
    assert {f["id"] for f in doc["functions"]} == {
        "xmod_graph.pkg.a.alpha", "xmod_graph.pkg.a.orphan",
        "xmod_graph.pkg.b.beta", "xmod_graph.pkg.b.helper",
        "xmod_graph.pkg.c.gamma",
    }
    assert {
        (e["caller"], e["callee"]) for e in doc["edges"]
    } == {
        ("xmod_graph.pkg.a.alpha", "xmod_graph.pkg.b.helper"),
        ("xmod_graph.pkg.b.beta", "xmod_graph.pkg.a.alpha"),
    }
    assert doc["sccs"] == [["xmod_graph.pkg.a", "xmod_graph.pkg.b"]]


def test_callgraph_export_is_json_round_trippable():
    doc = CallGraph(_graph_project(FIXTURES)).to_json()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


# -- facts cache ---------------------------------------------------------------

def test_cache_reanalyzes_only_the_edited_import_scc(tmp_path):
    shutil.copytree(FIXTURES / "xmod_graph", tmp_path / "xmod_graph")
    cache = tmp_path / ".lint-cache.json"

    cold = _graph_project(tmp_path, cache)
    assert set(cold.reanalyzed) == {
        "xmod_graph.pkg", "xmod_graph.pkg.a",
        "xmod_graph.pkg.b", "xmod_graph.pkg.c",
    }
    assert cache.exists()

    warm = _graph_project(tmp_path, cache)
    assert warm.reanalyzed == []
    assert warm.functions.keys() == cold.functions.keys()

    # Touch one member of the a<->b import cycle: its whole SCC
    # re-extracts, the island module `c` stays cached.
    edited = tmp_path / "xmod_graph" / "pkg" / "a.py"
    edited.write_text(
        edited.read_text(encoding="utf-8") + "\n\ndef extra():\n"
        "    return 1\n",
        encoding="utf-8",
    )
    ripple = _graph_project(tmp_path, cache)
    assert set(ripple.reanalyzed) == {
        "xmod_graph.pkg.a", "xmod_graph.pkg.b",
    }
    assert "xmod_graph.pkg.a.extra" in ripple.functions


def test_corrupt_cache_degrades_to_full_extraction(tmp_path):
    shutil.copytree(FIXTURES / "xmod_graph", tmp_path / "xmod_graph")
    cache = tmp_path / ".lint-cache.json"
    cache.write_text("{not json", encoding="utf-8")
    project = _graph_project(tmp_path, cache)
    assert len(project.reanalyzed) == 4  # everything, not an error


def test_cached_and_uncached_runs_agree_on_violations(tmp_path):
    shutil.copytree(FIXTURES / "xmod_tru_bad", tmp_path / "xmod_tru_bad")
    config = LintConfig(
        root=tmp_path, paths=("xmod_tru_bad",), rules=("TRU001",),
    )
    cache = tmp_path / ".lint-cache.json"
    cold = run_lint(config, cache_path=cache)
    warm = run_lint(config, cache_path=cache)
    plain = run_lint(config)
    key = lambda v: (v.path, v.line, v.message)  # noqa: E731
    assert sorted(map(key, cold.violations)) \
        == sorted(map(key, warm.violations)) \
        == sorted(map(key, plain.violations))
    assert len(cold.violations) == 4


# -- baseline pruning ---------------------------------------------------------

def test_baseline_prune_drops_stale_and_clamps_counts():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    baseline = Baseline.from_violations(result.violations)
    baseline.entries.append(BaselineEntry(
        rule="SCH001", path="xmod_sch_bad/gone.py",
        symbol="vanished", snippet="x = 1",
    ))
    # Inflate one real entry's count: pruning must clamp it back.
    baseline.entries[0] = BaselineEntry(
        rule=baseline.entries[0].rule,
        path=baseline.entries[0].path,
        symbol=baseline.entries[0].symbol,
        snippet=baseline.entries[0].snippet,
        count=baseline.entries[0].count + 7,
    )
    pruned = baseline.pruned(result.violations)
    assert [e.key for e in pruned.entries] \
        == [e.key for e in baseline.entries[:-1]]
    assert sum(e.count for e in pruned.entries) == len(result.violations)
    # Pruning is idempotent and only ever tightens.
    again = pruned.pruned(result.violations)
    assert [
        (e.key, e.count) for e in again.entries
    ] == [
        (e.key, e.count) for e in pruned.entries
    ]
    outcome = pruned.apply(result.violations)
    assert outcome.new == [] and outcome.stale == []


def test_baseline_prune_never_adds_entries():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    empty = Baseline([])
    assert empty.pruned(result.violations).entries == []
