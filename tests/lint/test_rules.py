"""Fixture-driven positive/negative tests, one pair per domain rule."""

from tests.lint.conftest import lint_fixture, rule_ids_of


# -- DET001: unseeded randomness --------------------------------------------

def test_det001_flags_every_unseeded_source():
    result = lint_fixture("anywhere/det001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("DET001") == 6  # randint, urandom, token_hex,
    #                                  uuid4, Random(), SystemRandom
    messages = " | ".join(v.message for v in result.violations)
    assert "os.urandom" in messages
    assert "without a seed" in messages


def test_det001_accepts_seeded_random():
    result = lint_fixture("anywhere/det001_ok.py")
    assert rule_ids_of(result) == []


def test_det001_allowlists_the_sanctioned_wrapper():
    # utils/randomness.py is the one file allowed to touch `random`.
    result = lint_fixture("utils/randomness.py")
    assert "DET001" not in rule_ids_of(result)


# -- DET002: wall clock in protocol scopes ----------------------------------

def test_det002_flags_calls_aliases_and_references():
    result = lint_fixture("protocols/det002_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("DET002") == 4  # aliased call, datetime.now,
    #                                  from-import call, bare reference
    assert {v.line for v in result.violations if v.rule_id == "DET002"}


def test_det002_accepts_injected_clock_and_justified_wall_time():
    result = lint_fixture("protocols/det002_ok.py")
    assert rule_ids_of(result) == []
    # The deliberate perf_counter is suppressed, not invisible.
    assert len(result.suppressed) == 1
    violation, pragma = result.suppressed[0]
    assert violation.rule_id == "DET002"
    assert "observability" in pragma.reason


def test_det002_is_scoped_to_protocol_directories():
    # The same wall-clock calls outside protocols/srds/runtime/campaign
    # are not protocol state and pass.
    from pathlib import Path

    from repro.lint.config import LintConfig
    from repro.lint.engine import run_lint
    from tests.lint.conftest import FIXTURES

    src = FIXTURES / "protocols" / "det002_bad.py"
    elsewhere = FIXTURES / "anywhere" / "_det002_copy.py"
    elsewhere.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    try:
        config = LintConfig(
            root=FIXTURES, paths=("anywhere/_det002_copy.py",),
            rules=("DET002",),
        )
        assert run_lint(config).violations == []
    finally:
        Path(elsewhere).unlink()


# -- ACC001: uncharged byte paths -------------------------------------------

def test_acc001_flags_raw_transport_sends():
    result = lint_fixture("protocols/acc001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("ACC001") == 5  # socket(), sendall, writer.write,
    #                                  put_nowait, asyncio.Queue()


def test_acc001_accepts_party_send_and_metrics_charges():
    result = lint_fixture("protocols/acc001_ok.py")
    assert rule_ids_of(result) == []


# -- ASY001: fire-and-forget async ------------------------------------------

def test_asy001_flags_dropped_tasks_and_unawaited_coroutines():
    result = lint_fixture("runtime/asy001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("ASY001") == 4  # create_task, ensure_future,
    #                                  bare pump(), self.drain()
    messages = " | ".join(v.message for v in result.violations)
    assert "garbage-collected" in messages
    assert "never" in messages and "awaited" in messages


def test_asy001_accepts_retained_and_awaited():
    result = lint_fixture("runtime/asy001_ok.py")
    assert rule_ids_of(result) == []


def test_asy001_is_scoped_to_async_execution_layers():
    # The same dropped tasks outside runtime/cluster (e.g. an analysis
    # helper spawning a task) are out of ASY001's blast radius.
    from repro.lint.engine import run_lint
    from tests.lint.conftest import FIXTURES
    from repro.lint.config import LintConfig

    src = FIXTURES / "runtime" / "asy001_bad.py"
    elsewhere = FIXTURES / "anywhere" / "_asy001_copy.py"
    elsewhere.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    try:
        config = LintConfig(
            root=FIXTURES, paths=("anywhere/_asy001_copy.py",),
        )
        result = run_lint(config)
        assert "ASY001" not in rule_ids_of(result)
    finally:
        elsewhere.unlink()


# -- EXC001: swallowed broad excepts ----------------------------------------

def test_exc001_flags_silent_broad_excepts():
    result = lint_fixture("exceptions/exc001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("EXC001") == 3  # except Exception, bare, tuple


def test_exc001_accepts_narrow_reraise_logged_and_justified():
    result = lint_fixture("exceptions/exc001_ok.py")
    assert rule_ids_of(result) == []
    assert [v.rule_id for v, _ in result.suppressed] == ["EXC001"]


# -- OBS001: unspanned charges in instrumented protocols --------------------

def test_obs001_flags_charges_outside_spans():
    result = lint_fixture("obs_bad")
    ids = rule_ids_of(result)
    # bare charge + bare multicast + bare exchange + uncovered helper
    assert ids.count("OBS001") == 4


def test_obs001_span_coverage_is_transitive():
    result = lint_fixture("obs_ok")
    assert rule_ids_of(result) == []


# -- SER001: wire dataclasses need codecs -----------------------------------

def test_ser001_flags_codec_less_wire_dataclasses():
    result = lint_fixture("wire_bad")
    violations = [v for v in result.violations if v.rule_id == "SER001"]
    assert len(violations) == 2
    by_message = " | ".join(v.message for v in violations)
    assert "OrphanRecord" in by_message
    assert "HalfRecord" in by_message and "decoder" in by_message


def test_ser001_accepts_both_codec_styles():
    result = lint_fixture("wire_ok")
    assert rule_ids_of(result) == []


# -- cross-cutting -----------------------------------------------------------

def test_rules_can_be_subset():
    result = lint_fixture("protocols/acc001_bad.py", rules=("DET002",))
    assert rule_ids_of(result) == []  # ACC001 sites, DET002-only run


def test_violations_carry_symbol_and_snippet():
    result = lint_fixture("exceptions/exc001_bad.py")
    violation = result.violations[0]
    assert violation.symbol == "swallow_all"
    assert "except" in violation.snippet
    assert violation.fix_hint
