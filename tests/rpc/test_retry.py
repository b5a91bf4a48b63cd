"""Unit tests for timeouts, backoff, and idempotent retransmission."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import FaultReport, FaultSchedule, FaultSpec
from repro.rpc.retry import ReliableDelivery, RetryPolicy


class FakeSchedule:
    """Scripted fault verdicts: full control for unit tests."""

    def __init__(self, drops=(), ack_losses=(), crashed=False,
                 partition_end=None, spikes=()):
        self.rng = random.Random(0)
        self._drops = list(drops)
        self._ack_losses = list(ack_losses)
        self._crashed = crashed
        self._partition_end = partition_end
        self._spikes = list(spikes)
        self.revived = 0

    def crashed(self, events, now):
        return self._crashed

    def partition_until(self, now):
        return self._partition_end

    def drops_message(self):
        return self._drops.pop(0) if self._drops else False

    def lost_leg_is_ack(self):
        return self._ack_losses.pop(0) if self._ack_losses else False

    def latency_spike(self):
        return self._spikes.pop(0) if self._spikes else 0.0

    def revive(self):
        self.revived += 1
        self._crashed = False


class Clock:
    def __init__(self):
        self.now = 0.0

    def charge(self, seconds):
        self.now += seconds


def delivery(schedule, policy=None, counters=None, clock=None, lost=None):
    clock = clock or Clock()
    return ReliableDelivery(
        policy or RetryPolicy(),
        schedule=schedule,
        charge=clock.charge,
        counters=counters,
        now=lambda: clock.now,
        on_peer_lost=lost,
    ), clock


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0},
        {"max_retries": -1},
        {"backoff_base_s": -0.01},
        {"backoff_base_s": 0.2, "backoff_cap_s": 0.1},
        {"jitter": 1.5},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_then_caps_without_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.010, backoff_cap_s=0.040,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(i, rng) for i in range(5)]
        assert delays == pytest.approx([0.010, 0.020, 0.040, 0.040, 0.040])

    def test_jitter_stays_within_half_band(self):
        policy = RetryPolicy(backoff_base_s=0.010, jitter=0.5)
        rng = random.Random(7)
        for _ in range(200):
            delay = policy.backoff(0, rng)
            assert 0.010 * 0.75 <= delay <= 0.010 * 1.25

    def test_give_up_is_worst_case_ladder(self):
        policy = RetryPolicy(timeout_s=0.025, max_retries=2,
                             backoff_base_s=0.010, backoff_cap_s=0.160,
                             jitter=0.0)
        # 3 timeouts + backoffs of 10ms and 20ms.
        assert policy.give_up_s == pytest.approx(0.025 * 3 + 0.010 + 0.020)

    def test_jitter_widens_the_worst_case(self):
        calm = RetryPolicy(jitter=0.0)
        jumpy = RetryPolicy(jitter=1.0)
        assert jumpy.give_up_s > calm.give_up_s


class TestExchange:
    def test_clean_exchange_applies_once(self):
        sent, _ = delivery(None)
        calls = []
        delivered, result = sent.exchange(lambda: calls.append(1) or "ok")
        assert delivered and result == "ok"
        assert calls == [1]
        assert sent.exchanges == 1

    def test_drops_charge_timeout_and_backoff(self):
        report = FaultReport()
        sent, clock = delivery(FakeSchedule(drops=[True, True]),
                               counters=report)
        assert sent.attempt()
        assert report.retries == 2
        assert report.timeouts == 2
        assert clock.now > 2 * sent.policy.timeout_s
        assert report.fault_time_s == pytest.approx(clock.now)

    def test_lost_ack_applies_once_and_suppresses_duplicate(self):
        report = FaultReport()
        sent, _ = delivery(FakeSchedule(drops=[True], ack_losses=[True]),
                           counters=report)
        calls = []
        delivered, result = sent.exchange(lambda: calls.append(1) or "ok")
        # The request got through (only the ack vanished): the effect
        # ran exactly once and the retransmission was acknowledged as a
        # duplicate, returning the original result.
        assert delivered and result == "ok"
        assert calls == [1]
        assert report.duplicates_suppressed == 1
        assert sent.duplicates_suppressed == 1

    def test_lost_request_never_applies_early(self):
        sent, _ = delivery(FakeSchedule(drops=[True], ack_losses=[False]))
        calls = []
        delivered, _ = sent.exchange(lambda: calls.append(1))
        assert delivered
        assert calls == [1]
        assert sent.duplicates_suppressed == 0

    def test_exhausted_retries_declare_peer_dead(self):
        policy = RetryPolicy(max_retries=2)
        reasons = []
        sent, _ = delivery(FakeSchedule(drops=[True] * 10), policy=policy,
                           lost=reasons.append)
        calls = []
        delivered, _ = sent.exchange(lambda: calls.append(1))
        assert not delivered
        assert calls == []
        assert sent.peer_dead
        assert reasons == ["loss"]

    def test_dead_peer_short_circuits(self):
        sent, clock = delivery(FakeSchedule(crashed=True))
        assert not sent.attempt()
        before = clock.now
        calls = []
        delivered, _ = sent.exchange(lambda: calls.append(1))
        assert not delivered and calls == []
        # No further charging once the death is known.
        assert clock.now == before

    def test_crash_charges_the_full_ladder(self):
        report = FaultReport()
        reasons = []
        sent, clock = delivery(FakeSchedule(crashed=True), counters=report,
                               lost=reasons.append)
        assert not sent.attempt()
        assert clock.now == pytest.approx(sent.policy.give_up_s)
        assert report.timeouts == sent.policy.max_retries + 1
        assert report.surrogate_lost
        assert report.lost_reason == "crash"
        assert reasons == ["crash"]

    def test_short_partition_is_waited_out(self):
        report = FaultReport()
        sent, clock = delivery(FakeSchedule(partition_end=0.050),
                               counters=report)
        assert sent.attempt()
        assert clock.now == pytest.approx(0.050)
        assert report.partition_waits == 1
        assert not sent.peer_dead

    def test_long_partition_declares_peer_dead(self):
        report = FaultReport()
        reasons = []
        sent, clock = delivery(FakeSchedule(partition_end=1e9),
                               counters=report, lost=reasons.append)
        assert not sent.attempt()
        assert clock.now == pytest.approx(sent.policy.give_up_s)
        assert reasons == ["partition"]
        assert report.lost_reason == "partition"

    def test_latency_spike_charged_and_counted(self):
        report = FaultReport()
        sent, clock = delivery(FakeSchedule(spikes=[0.25]), counters=report)
        assert sent.attempt()
        assert clock.now == pytest.approx(0.25)
        assert report.latency_spikes == 1

    def test_revive_resumes_exchanges(self):
        schedule = FakeSchedule(crashed=True)
        sent, _ = delivery(schedule)
        assert not sent.attempt()
        sent.revive()
        assert schedule.revived == 1
        assert not sent.peer_dead
        assert sent.attempt()

    def test_on_peer_lost_fires_once(self):
        reasons = []
        sent, _ = delivery(FakeSchedule(crashed=True), lost=reasons.append)
        sent.attempt()
        sent.attempt()
        assert reasons == ["crash"]


class TestDeterminism:
    def test_identical_seeds_charge_identical_time(self):
        spec = FaultSpec(seed=42, loss_rate=0.2, latency_spike_rate=0.1)

        def run():
            clock = Clock()
            report = FaultReport()
            sent = ReliableDelivery(RetryPolicy(), FaultSchedule(spec),
                                    charge=clock.charge, counters=report,
                                    now=lambda: clock.now)
            for _ in range(300):
                sent.exchange(lambda: None)
            return clock.now, report.as_dict()

        assert run() == run()


class TestLookAhead:
    def test_dead_peer_gets_no_horizon_until_revived(self):
        spec = FaultSpec(seed=0, loss_rate=0.99)
        sent, _ = delivery(FaultSchedule(spec),
                           policy=RetryPolicy(max_retries=0))
        assert not sent.attempt()
        assert sent.peer_dead
        sent.look_ahead()
        schedule = sent.schedule
        assert (schedule.horizon_event, schedule.horizon_time) == (-1, -1)
        sent.revive()
        sent.look_ahead()
        assert schedule.horizon_time > 0

    @pytest.mark.parametrize("spec", [
        FaultSpec(seed=42, loss_rate=0.2, latency_spike_rate=0.1,
                  partition_windows=((1.0, 1.02), (2.0, 9.0)),
                  crash_at_time=12.0),
        FaultSpec(seed=5, crash_at_event=150),
        FaultSpec(seed=6, loss_rate=0.6, latency_spike_rate=0.5),
    ])
    def test_spending_credit_inline_charges_what_the_gauntlet_does(
            self, spec):
        # The replay loop's discipline: spend credit for an exchange
        # judged clean inside the horizon, else run the gauntlet and
        # re-arm.  Clock, counters and exchange count must match a
        # caller that runs the gauntlet every time.
        def run(inline):
            clock = Clock()
            report = FaultReport()
            sent = ReliableDelivery(RetryPolicy(), FaultSchedule(spec),
                                    charge=clock.charge, counters=report,
                                    now=lambda: clock.now)
            schedule = sent.schedule
            outcomes = []
            for i in range(400):
                clock.charge(0.01)
                if i == 300:
                    sent.revive()
                if (inline and schedule.credit
                        and clock.now < schedule.horizon_time
                        and sent.exchanges < schedule.horizon_event):
                    schedule.credit -= 1
                    sent.exchanges += 1
                    outcomes.append(True)
                    continue
                outcomes.append(sent.attempt())
                if inline:
                    sent.look_ahead()
            return outcomes, clock.now, report.as_dict(), sent.exchanges

        assert run(inline=True) == run(inline=False)
