"""OBS001 positive fixture (path mirrors the instrumented module).

Four unspanned charges: three at bare call sites (point-to-point,
multicast and committee exchange), one in a helper whose only call site is *outside* every span.
"""

from repro.obs.spans import span  # noqa: F401 - mirrors the real module


def _helper_unspanned(metrics, committee) -> None:
    metrics.charge_functionality(committee, 64, 2)  # caller is unspanned


def run(metrics, committee) -> None:
    with span("setup"):
        metrics.record_message(0, 1, 128)  # fine: inside the span
    metrics.record_message(1, 2, 256)  # BAD: outside every span
    metrics.record_multicast(1, committee, 256)  # BAD: outside every span
    metrics.record_exchange(committee, committee, 256)  # BAD: outside every span
    _helper_unspanned(metrics, committee)  # BAD call context
