"""Unit tests for the deterministic fault model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.faults import (
    LOOK_AHEAD_LIMIT,
    LOSSY_5PCT,
    FaultSchedule,
    FaultSpec,
)
from repro.rpc.retry import RetryPolicy


def _disjoint_windows(raw):
    """Lay (start, duration) pairs end to end so windows never overlap."""
    windows = []
    cursor = 0.0
    for gap, duration in raw:
        start = cursor + gap
        windows.append((start, start + duration))
        cursor = start + duration
    return tuple(windows)


@st.composite
def fault_specs(draw):
    """Arbitrary valid specs whose canonical form is lossless.

    The spike duration only prints alongside a non-zero rate (it is
    inert without one), so it is drawn dependently: a zero rate keeps
    the field at its default.
    """
    spike_rate = draw(st.floats(0.001, 0.999, exclude_max=True,
                                allow_nan=False) | st.just(0.0))
    spike_s = (draw(st.floats(0.0, 60.0, allow_nan=False))
               if spike_rate else 0.050)
    windows = _disjoint_windows(draw(st.lists(
        st.tuples(st.floats(0.0, 100.0, allow_nan=False),
                  st.floats(0.001, 50.0, allow_nan=False)),
        max_size=3,
    )))
    return FaultSpec(
        seed=draw(st.integers(0, 2**31)),
        loss_rate=draw(st.floats(0.0, 0.999, exclude_max=True,
                                 allow_nan=False)),
        latency_spike_rate=spike_rate,
        latency_spike_s=spike_s,
        partition_windows=windows,
        crash_at_event=draw(st.none() | st.integers(0, 10**6)),
        crash_at_time=draw(st.none()
                           | st.floats(0.0, 1e6, allow_nan=False)),
    )


class TestFaultSpec:
    def test_defaults_inject_nothing(self):
        spec = FaultSpec()
        assert not spec.any_faults
        assert spec.canonical() == "seed=0"

    @pytest.mark.parametrize("text", [
        "seed=42",
        "seed=42,loss=0.05",
        "seed=7,spike=0.1:0.25",
        "seed=1,partition=5:9,partition=20:30",
        "seed=3,crash_at_event=100",
        "seed=3,crash_at_time=12.5",
        "seed=9,loss=0.02,spike=0.01:0.05,partition=1:2,crash_at_event=50",
    ])
    def test_parse_canonical_round_trip(self, text):
        spec = FaultSpec.parse(text)
        assert FaultSpec.parse(spec.canonical()) == spec
        assert spec.canonical() == text

    @given(fault_specs())
    def test_canonical_round_trips_every_spec(self, spec):
        assert FaultSpec.parse(spec.canonical()) == spec

    def test_parse_tolerates_whitespace_and_empty_chunks(self):
        spec = FaultSpec.parse(" seed=5 , loss=0.1 ,")
        assert spec.seed == 5
        assert spec.loss_rate == pytest.approx(0.1)

    def test_partition_windows_are_sorted(self):
        spec = FaultSpec(seed=0, partition_windows=((20.0, 30.0), (5.0, 9.0)))
        assert spec.partition_windows == ((5.0, 9.0), (20.0, 30.0))

    @pytest.mark.parametrize("kwargs", [
        {"loss_rate": 1.0},
        {"loss_rate": -0.1},
        {"latency_spike_rate": 1.5},
        {"latency_spike_s": -1.0},
        {"partition_windows": ((5.0, 5.0),)},
        {"partition_windows": ((9.0, 5.0),)},
        {"partition_windows": ((-1.0, 5.0),)},
        {"partition_windows": ((0.0, 10.0), (5.0, 20.0))},
        {"crash_at_event": -1},
        {"crash_at_time": -0.5},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize("text", [
        "bogus=1",
        "seed",
        "loss=lots",
        "crash_at_event=soon",
    ])
    def test_malformed_spec_strings_rejected(self, text):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(text)

    @pytest.mark.parametrize("text", [
        "loss=nan",
        "spike=nan:0.1",
        "spike=0.1:nan",
        "spike=0.1:inf",
        "partition=nan:5",
        "partition=1:nan",
        "crash_at_time=nan",
    ])
    def test_non_finite_spec_values_rejected(self, text):
        # NaN fails no ``<`` check, so each field must reject it
        # explicitly; an infinite spike would charge the clock forever.
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(text)

    @pytest.mark.parametrize("kwargs", [
        {"loss_rate": math.nan},
        {"latency_spike_rate": math.nan},
        {"latency_spike_s": math.nan},
        {"latency_spike_s": math.inf},
        {"partition_windows": ((math.nan, 5.0),)},
        {"partition_windows": ((1.0, math.nan),)},
        {"partition_windows": ((1.0, 2.0), (math.nan, 5.0))},
        {"crash_at_time": math.nan},
    ])
    def test_nan_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_infinite_window_end_and_crash_time_mean_never(self):
        spec = FaultSpec(partition_windows=((5.0, math.inf),),
                         crash_at_time=math.inf)
        assert FaultSpec.parse(spec.canonical()) == spec

    def test_lossy_preset(self):
        assert LOSSY_5PCT.loss_rate == pytest.approx(0.05)
        assert LOSSY_5PCT.any_faults


class TestFaultSchedule:
    def test_same_seed_same_verdict_stream(self):
        spec = FaultSpec(seed=42, loss_rate=0.3, latency_spike_rate=0.2)
        first = FaultSchedule(spec)
        second = FaultSchedule(spec)
        verdicts = lambda s: [(s.drops_message(), s.latency_spike())
                              for _ in range(200)]
        assert verdicts(first) == verdicts(second)

    def test_reset_rewinds_the_stream(self):
        schedule = FaultSchedule(FaultSpec(seed=9, loss_rate=0.5))
        first = [schedule.drops_message() for _ in range(50)]
        schedule.reset()
        assert [schedule.drops_message() for _ in range(50)] == first

    def test_zero_rates_draw_nothing(self):
        schedule = FaultSchedule(FaultSpec(seed=1))
        state = schedule.rng.getstate()
        assert not schedule.drops_message()
        assert schedule.latency_spike() == 0.0
        # No faults configured means no RNG draws: the stream position
        # (hence determinism) cannot depend on clean-path traffic.
        assert schedule.rng.getstate() == state

    def test_crash_at_event_is_sticky(self):
        schedule = FaultSchedule(FaultSpec(seed=0, crash_at_event=10))
        assert not schedule.crashed(9, 0.0)
        assert schedule.crashed(10, 0.0)
        # Sticky: even an earlier event index keeps it crashed.
        assert schedule.crashed(0, 0.0)

    def test_crash_at_time(self):
        schedule = FaultSchedule(FaultSpec(seed=0, crash_at_time=5.0))
        assert not schedule.crashed(0, 4.9)
        assert schedule.crashed(0, 5.0)

    def test_revive_disarms_the_crash_condition(self):
        schedule = FaultSchedule(FaultSpec(seed=0, crash_at_event=10))
        assert schedule.crashed(10, 0.0)
        schedule.revive()
        # events >= crash_at_event stays true forever; the replacement
        # surrogate must not instantly re-crash.
        assert not schedule.crashed(11, 0.0)
        assert not schedule.crashed(10_000, 1e9)

    def test_reset_rearms_after_revive(self):
        schedule = FaultSchedule(FaultSpec(seed=0, crash_at_event=1))
        schedule.crashed(1, 0.0)
        schedule.revive()
        schedule.reset()
        assert schedule.crashed(1, 0.0)

    def test_partition_until(self):
        spec = FaultSpec(seed=0, partition_windows=((5.0, 9.0), (20.0, 30.0)))
        schedule = FaultSchedule(spec)
        assert schedule.partition_until(4.9) is None
        assert schedule.partition_until(5.0) == 9.0
        assert schedule.partition_until(8.9) == 9.0
        assert schedule.partition_until(9.0) is None
        assert schedule.partition_until(25.0) == 30.0


# -- looking ahead -----------------------------------------------------------

POLICY = RetryPolicy()


def consult(schedule, verdicts):
    """One exchange's consultation, in the order ReliableDelivery makes
    it: loss verdicts until delivered (each loss draws its ack leg and
    its backoff jitter), then the spike.  Appends every verdict."""
    attempt = 0
    while True:
        dropped = schedule.drops_message()
        verdicts.append(("drop", dropped))
        if not dropped:
            break
        verdicts.append(("ack", schedule.lost_leg_is_ack()))
        if attempt >= POLICY.max_retries:
            return
        verdicts.append(("jitter", POLICY.backoff(attempt, schedule.rng)))
        attempt += 1
    verdicts.append(("spike", schedule.latency_spike()))


RATES = st.sampled_from([0.0, 0.05, 0.3]) | st.floats(
    0.0, 0.9, allow_nan=False)


class TestLookAhead:
    @given(
        seed=st.integers(0, 2**16),
        loss=RATES,
        spike=RATES,
        ops=st.lists(st.sampled_from("xxxiiiaavr"), max_size=80),
    )
    def test_look_ahead_replays_the_lazy_stream(self, seed, loss, spike,
                                                ops):
        spec = FaultSpec(seed=seed, loss_rate=loss,
                         latency_spike_rate=spike)
        ahead, lazy = FaultSchedule(spec), FaultSchedule(spec)
        seen, expected = [], []
        for op in ops:
            if op == "a":
                ahead.look_ahead(0.0)
            elif op == "v":
                ahead.revive()
                lazy.revive()
            elif op == "r":
                ahead.reset()
                lazy.reset()
            elif op == "i" and ahead.credit:
                # A caller spending credit inline: the exchange is the
                # clean one the schedule judged ahead.
                ahead.credit -= 1
                seen += [("drop", False), ("spike", 0.0)]
                consult(lazy, expected)
            else:
                consult(ahead, seen)
                consult(lazy, expected)
        assert seen == expected

    def test_credit_counts_clean_exchanges_and_stashes_the_next(self):
        spec = FaultSpec(seed=4, loss_rate=0.2, latency_spike_rate=0.2)
        ahead, lazy = FaultSchedule(spec), FaultSchedule(spec)
        ahead.look_ahead(0.0)
        credit = ahead.credit
        for _ in range(credit):
            verdicts = []
            consult(lazy, verdicts)
            assert verdicts == [("drop", False), ("spike", 0.0)]
        # The exchange after the credit is the stashed one: not clean.
        verdicts = []
        consult(lazy, verdicts)
        assert verdicts != [("drop", False), ("spike", 0.0)]

    def test_without_rates_the_whole_limit_is_credit_and_nothing_drawn(self):
        schedule = FaultSchedule(FaultSpec(seed=1, crash_at_event=9))
        state = schedule.rng.getstate()
        schedule.look_ahead(0.0)
        assert schedule.credit == LOOK_AHEAD_LIMIT
        assert schedule.rng.getstate() == state

    def test_horizon_bounds_crash_and_next_partition(self):
        spec = FaultSpec(seed=0, crash_at_event=50, crash_at_time=40.0,
                         partition_windows=((5.0, 9.0), (20.0, 30.0)))
        schedule = FaultSchedule(spec)
        assert (schedule.horizon_event, schedule.horizon_time) == (-1, -1)
        schedule.look_ahead(0.0)
        assert (schedule.horizon_event, schedule.horizon_time) == (50, 5.0)
        # Inside a window the horizon is already behind the clock.
        schedule.look_ahead(6.0)
        assert schedule.horizon_time == 5.0
        schedule.look_ahead(9.0)
        assert schedule.horizon_time == 20.0
        schedule.look_ahead(35.0)
        assert schedule.horizon_time == 40.0

    def test_horizon_is_gone_once_crashed_and_open_after_revive(self):
        schedule = FaultSchedule(FaultSpec(seed=0, crash_at_event=3))
        assert schedule.crashed(3, 0.0)
        schedule.look_ahead(0.0)
        assert (schedule.horizon_event, schedule.horizon_time) == (-1, -1)
        schedule.revive()
        schedule.look_ahead(0.0)
        assert schedule.horizon_event == math.inf
        assert schedule.horizon_time == math.inf

    def test_reset_clears_credit_stash_and_horizon(self):
        spec = FaultSpec(seed=2, loss_rate=0.5)
        schedule = FaultSchedule(spec)
        schedule.look_ahead(0.0)
        schedule.reset()
        assert schedule.credit == 0
        assert (schedule.horizon_event, schedule.horizon_time) == (-1, -1)
        fresh = FaultSchedule(spec)
        assert ([schedule.drops_message() for _ in range(20)]
                == [fresh.drops_message() for _ in range(20)])
