"""OBS001 negative fixture: lexical spans, transitively covered helpers,
and a charge that carries its own phase label."""

from repro.obs.spans import span  # noqa: F401 - mirrors the real module


def _charge_leaf(metrics) -> None:
    metrics.record_message(0, 1, 64)  # covered: every caller is spanned


def _aggregate(metrics) -> None:
    _charge_leaf(metrics)  # covered transitively via _spanned_run
    metrics.charge_functionality([0, 1], 32, 1)


def _spanned_run(metrics) -> None:
    with span("srds-aggregate"):
        _aggregate(metrics)


def run(metrics) -> None:
    with span("pi-ba"):
        _spanned_run(metrics)
        _charge_leaf(metrics)


def replay(metrics, frame) -> None:
    metrics.record_message(0, 1, 64, phase=frame.phase, kind="frame")
