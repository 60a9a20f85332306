"""Latency models: determinism, bounds, and the pinned random-delay parity.

The load-bearing test here is the *pin*: the campaign's ``random-delay``
schedule began as ad-hoc knobs on
:class:`~repro.runtime.faults.FaultPlan` and is now the
:class:`~repro.net.latency.RandomDelayLatency` model shared with the
asynchronous scheduler.  The knobs are gone; their draw sequence (same
fork labels, same bernoulli-then-range order) survives as SHA-256
goldens, so every historical campaign repro line replays identically.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.adversary import CorruptionPlan
from repro.net.latency import (
    LATENCY_MODEL_NAMES,
    FixedLatency,
    LogNormalLatency,
    PartitionHealLatency,
    RandomDelayLatency,
    UniformLatency,
    halves_partition_heal,
    latency_model_by_name,
)
from repro.runtime.faults import FaultPlan
from repro.utils.randomness import Randomness

coords = st.tuples(
    st.integers(min_value=0, max_value=50),  # sent_round
    st.integers(min_value=0, max_value=63),  # sender
    st.integers(min_value=0, max_value=63),  # recipient
    st.integers(min_value=0, max_value=1000),  # seq
)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_every_listed_name_constructs(self):
        for name in LATENCY_MODEL_NAMES:
            model = latency_model_by_name(name, 16)
            assert model.name == name
            assert model.bound >= 0

    def test_unknown_name_is_loud(self):
        with pytest.raises(ConfigurationError):
            latency_model_by_name("carrier-pigeon", 16)

    def test_models_that_draw_demand_an_rng(self):
        for model in (
            UniformLatency(0, 2),
            LogNormalLatency(),
            RandomDelayLatency(probability=0.5, max_rounds=2),
        ):
            assert model.needs_rng
            with pytest.raises(ConfigurationError):
                model.extra_rounds(None, 0, 0, 1, 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(rounds=-1)
        with pytest.raises(ConfigurationError):
            UniformLatency(low=3, high=1)
        with pytest.raises(ConfigurationError):
            LogNormalLatency(sigma=-0.1)
        with pytest.raises(ConfigurationError):
            RandomDelayLatency(probability=1.5, max_rounds=2)
        with pytest.raises(ConfigurationError):
            RandomDelayLatency(probability=0.5, max_rounds=0)
        with pytest.raises(ConfigurationError):
            PartitionHealLatency(
                group_a=frozenset({0, 1}),
                group_b=frozenset({1, 2}),
                heal_round=3,
            )


# -- per-model properties ----------------------------------------------------


class TestModelProperties:
    @given(coord=coords, rounds=st.integers(min_value=0, max_value=5))
    def test_fixed_is_constant_and_rng_free(self, coord, rounds):
        model = FixedLatency(rounds)
        assert model.extra_rounds(None, *coord) == rounds
        assert model.delivery_delay(None, *coord) == 1.0 + rounds
        assert model.bound == rounds

    @given(coord=coords, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_uniform_bounds_and_determinism(self, coord, seed):
        model = UniformLatency(low=0, high=2)
        first = model.extra_rounds(Randomness(seed), *coord)
        again = model.extra_rounds(Randomness(seed), *coord)
        assert first == again
        assert 0 <= first <= model.bound == 2
        delay = model.delivery_delay(Randomness(seed), *coord)
        assert delay == model.delivery_delay(Randomness(seed), *coord)
        assert 1.0 <= delay <= 3.0

    @given(coord=coords, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_lognormal_capped_and_deterministic(self, coord, seed):
        model = LogNormalLatency(cap=3)
        first = model.extra_rounds(Randomness(seed), *coord)
        assert first == model.extra_rounds(Randomness(seed), *coord)
        assert 0 <= first <= model.bound == 3
        assert 1.0 <= model.delivery_delay(Randomness(seed), *coord) <= 4.0

    def test_partition_heal_holds_cross_cut_until_heal(self):
        model = halves_partition_heal(range(8), heal_round=4)
        # Same-side traffic is never delayed.
        assert model.extra_rounds(None, 0, 0, 1, 0) == 0
        assert model.extra_rounds(None, 0, 5, 6, 0) == 0
        # Cross-cut sends before the heal land exactly at the heal round.
        for sent_round in range(4):
            extra = model.extra_rounds(None, sent_round, 0, 7, 0)
            assert sent_round + 1 + extra == 4
        # After the heal, the link behaves normally.
        assert model.extra_rounds(None, 5, 0, 7, 0) == 0
        assert model.bound == 4

    @given(coord=coords, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_delay_respects_max(self, coord, seed):
        model = RandomDelayLatency(probability=0.5, max_rounds=2)
        extra = model.extra_rounds(Randomness(seed), *coord)
        assert 0 <= extra <= model.bound == 2

    def test_random_delay_probability_zero_draws_nothing(self):
        model = RandomDelayLatency(probability=0.0, max_rounds=0)
        assert model.extra_rounds(None, 0, 0, 1, 0) == 0
        assert model.bound == 0


# -- the pin: RandomDelayLatency's draw sequence is frozen ---------------------

# SHA-256 of the delay / inbox-order vectors the deleted
# ``FaultPlan(random_delay_probability=0.15, random_delay_max=2,
# reorder=True)`` knob form produced at the commit that removed it
# (be59596), over exactly the grids walked below.  The model must keep
# reproducing them: every historical ``campaign/1`` repro line naming
# the ``random-delay`` schedule replays through these draws.
GOLDEN_DELAYS_X = (
    "e144b2c288ebdc2c2991964335374304399b0519ebb3ca8883416469c4300670"
)
GOLDEN_INBOX_X = (
    "69a6d9f94e865771702823c7499ae1eaa2fbcc2bb31faaf6a42f87a8ebf64ec0"
)
GOLDEN_DELAYS_CELL_SCHED = (
    "567e45a576e81f39b6d4b79169a974a5e802ad85f6d029a7fb9042aa65838c00"
)


def _model_plan(rng: Randomness) -> FaultPlan:
    return FaultPlan(
        reorder=True,
        latency=RandomDelayLatency(probability=0.15, max_rounds=2),
        rng=rng,
    )


def _digest(values) -> str:
    return hashlib.sha256(bytes(values)).hexdigest()


class TestRandomDelayParity:
    def test_delay_draws_are_byte_identical(self):
        model = _model_plan(Randomness(7).fork("x"))
        assert model.max_extra_rounds == 2
        delays = [
            model.delay_of(sent_round, sender, recipient, seq)
            for sent_round in range(6)
            for sender in range(16)
            for recipient in range(16)
            for seq in range(3)
        ]
        assert sum(d > 0 for d in delays) == 682  # the 15% arm fires
        assert _digest(delays) == GOLDEN_DELAYS_X

    def test_inbox_orders_are_byte_identical(self):
        model = _model_plan(Randomness(7).fork("x"))
        orders = [
            item
            for round_index in range(6)
            for recipient in range(16)
            for item in model.inbox_order(
                round_index, recipient, list(range(40))
            )
        ]
        assert _digest(orders) == GOLDEN_INBOX_X

    def test_campaign_schedule_is_the_model_form(self):
        """``random-delay`` builds the model-backed plan under the same
        ``sched`` fork the knob form used — the whole schedule is pinned."""
        from repro.campaign.schedules import schedule_by_name

        plan = CorruptionPlan(corrupted=frozenset(), n=16)
        built = schedule_by_name("random-delay").build(
            16, plan, Randomness(7).fork("cell")
        )
        assert built is not None
        assert isinstance(built.latency, RandomDelayLatency)
        assert built.reorder
        delays = [
            built.delay_of(sent_round, sender, recipient, 0)
            for sent_round in range(4)
            for sender in range(16)
            for recipient in range(16)
        ]
        assert _digest(delays) == GOLDEN_DELAYS_CELL_SCHED
