"""Property suite for the durability simulator's stochastic ingredients.

Pins the contracts everything downstream leans on: seeded determinism
(same seed → byte-identical event stream), Weibull sample moments against
the closed forms, event-queue conservation/monotonicity invariants, and
correlated-burst fan-out bounded by the rack size.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.reliability import (
    ComponentLifetimes,
    EventQueue,
    ReliabilitySimulator,
    ReliabilitySpec,
    Weibull,
)
from repro.reliability.simulator import _sample_placements, _wilson_interval
from tests.seeds import DEFAULT_MASTER_SEED, seed_fanout

SMALL = dict(
    k=4,
    m=2,
    n_nodes=12,
    rack_size=4,
    n_spares=4,
    n_stripes=60,
    node_mttf_hours=2500.0,
    burst_rate_per_year=12.0,
    horizon_years=2.0,
    n_trials=1,
    record_events=True,
    check_invariants=True,
)


# --------------------------------------------------------------------- #
# lifetime samplers
# --------------------------------------------------------------------- #
class TestWeibull:
    def test_moments_match_closed_form(self):
        model = Weibull(shape=1.4, mttf_hours=8766.0)
        rng = np.random.default_rng(7)
        draws = model.sample(rng, size=200_000)
        assert draws.min() > 0
        assert math.isclose(float(draws.mean()), model.mean_hours(), rel_tol=0.01)
        assert math.isclose(
            float(draws.var()), model.var_hours2(), rel_tol=0.03
        )

    def test_mean_is_mttf_for_any_shape(self):
        for shape in (0.7, 1.0, 1.12, 2.5):
            assert math.isclose(
                Weibull(shape, 1000.0).mean_hours(), 1000.0
            )

    def test_shape_one_is_exponential(self):
        model = Weibull(shape=1.0, mttf_hours=500.0)
        assert math.isclose(model.scale_hours, 500.0)
        # exponential variance = mean^2
        assert math.isclose(model.var_hours2(), 500.0**2, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Weibull(shape=0.0, mttf_hours=100.0)
        with pytest.raises(ValueError):
            Weibull(shape=1.0, mttf_hours=-1.0)


class TestComponentLifetimes:
    def test_draws_are_pure_function_of_seed_component_index(self):
        model = Weibull(1.12, 10_000.0)
        a = ComponentLifetimes(42, 5, model)
        b = ComponentLifetimes(42, 5, model)
        # interleave draws in a different order on b; per-component streams
        # must be identical regardless of global draw order
        got_a = {(j, i): a.next_lifetime_hours(j) for j in range(5) for i in range(3)}
        got_b = {}
        for i in range(3):
            for j in reversed(range(5)):
                got_b[(j, i)] = b.next_lifetime_hours(j)
        assert got_a == got_b
        assert a.draws == b.draws == [3] * 5

    def test_different_seeds_differ(self):
        model = Weibull(1.12, 10_000.0)
        a = ComponentLifetimes(1, 3, model)
        b = ComponentLifetimes(2, 3, model)
        assert a.next_lifetime_hours(0) != b.next_lifetime_hours(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentLifetimes(0, 0, Weibull(1.0, 1.0))


# --------------------------------------------------------------------- #
# event queue invariants
# --------------------------------------------------------------------- #
class TestEventQueue:
    def test_pop_order_monotone_and_fifo_on_ties(self):
        q = EventQueue()
        q.push(5.0, "fail", node=1)
        q.push(2.0, "scrub")
        q.push(5.0, "burst", node=2)
        out = [q.pop() for _ in range(3)]
        assert [e.kind for e in out] == ["scrub", "fail", "burst"]
        times = [e.time_h for e in out]
        assert times == sorted(times)

    def test_conservation_counters(self):
        rng = np.random.default_rng(3)
        q = EventQueue()
        for t in rng.random(100) * 50:
            q.push(float(t), "fail")
        while len(q):
            q.pop()
        assert q.pushes == q.pops == 100

    def test_rejects_bad_events(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, "fail")
        with pytest.raises(ValueError):
            q.push(float("nan"), "fail")
        with pytest.raises(ValueError):
            q.push(1.0, "frobnicate")

    def test_backwards_time_guard(self):
        q = EventQueue()
        q.push(10.0, "fail")
        q.pop()
        q.push(5.0, "fail")
        with pytest.raises(RuntimeError):
            q.pop()


# --------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------- #
class TestPlacements:
    def test_rows_sorted_distinct_in_range(self):
        rng = np.random.default_rng(11)
        p = _sample_placements(rng, 500, width=6, n_nodes=20)
        assert p.shape == (500, 6)
        assert p.min() >= 0 and p.max() < 20
        assert (np.diff(p, axis=1) > 0).all()  # sorted => distinct

    def test_deterministic(self):
        a = _sample_placements(np.random.default_rng(5), 200, 5, 15)
        b = _sample_placements(np.random.default_rng(5), 200, 5, 15)
        assert (a == b).all()

    def test_width_must_fit(self):
        with pytest.raises(ValueError):
            _sample_placements(np.random.default_rng(0), 1, 10, 5)


# --------------------------------------------------------------------- #
# wilson interval
# --------------------------------------------------------------------- #
class TestWilson:
    def test_zero_successes_still_bounded_away_from_zero(self):
        lo, hi = _wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1

    def test_contains_point_estimate_and_orders(self):
        lo, hi = _wilson_interval(30, 100)
        assert lo < 0.3 < hi
        # more successes shift the interval up
        lo2, hi2 = _wilson_interval(60, 100)
        assert lo2 > lo and hi2 > hi

    def test_degenerate_n(self):
        assert _wilson_interval(0, 0) == (0.0, 1.0)


# --------------------------------------------------------------------- #
# full-trial properties
# --------------------------------------------------------------------- #
class TestTrialDeterminism:
    def test_same_seed_identical_event_stream(self):
        spec = ReliabilitySpec(**SMALL)
        a = ReliabilitySimulator(spec).run_trial(0)
        b = ReliabilitySimulator(spec).run_trial(0)
        assert a.event_log == b.event_log
        assert a == b

    def test_different_trials_differ(self):
        sim = ReliabilitySimulator(ReliabilitySpec(**SMALL))
        assert sim.run_trial(0).event_log != sim.run_trial(1).event_log

    def test_seed_fanout_trials_differ(self):
        # seeds from the suite-wide fan-out give distinct histories too
        s0, s1 = seed_fanout(DEFAULT_MASTER_SEED, 2)
        a = ReliabilitySimulator(
            ReliabilitySpec(**{**SMALL, "seed": s0})
        ).run_trial(0)
        b = ReliabilitySimulator(
            ReliabilitySpec(**{**SMALL, "seed": s1})
        ).run_trial(0)
        assert a.event_log != b.event_log

    def test_scheme_does_not_change_failure_history(self):
        """Common random numbers: kill times are scheme-independent."""

        def kill_times(scheme):
            spec = dataclasses.replace(ReliabilitySpec(**SMALL), scheme=scheme)
            t = ReliabilitySimulator(spec).run_trial(0)
            # first failure of each node is repair-independent
            first = {}
            for time_h, kind, node in t.event_log:
                if kind == "fail" and node not in first:
                    first[node] = time_h
            return first

        assert kill_times("cr") == kill_times("hmbr")


class TestBurstFanout:
    def test_burst_kills_bounded_by_rack_and_fraction(self):
        spec = ReliabilitySpec(
            **{**SMALL, "burst_rate_per_year": 40.0, "burst_loss_fraction": 0.5}
        )
        t = ReliabilitySimulator(spec).run_trial(0)
        bursts = [(h, n) for h, k, n in t.event_log if k == "burst"]
        assert bursts, "burst rate high enough that bursts must occur"
        cap = max(1, round(spec.burst_loss_fraction * spec.rack_size))
        for time_h, rack in bursts:
            kills = [
                n for h, k, n in t.event_log if k == "fail" and h == time_h
            ]
            assert len(kills) <= cap <= spec.rack_size
            lo, hi = rack * spec.rack_size, (rack + 1) * spec.rack_size
            assert all(lo <= n < hi for n in kills)


class TestStateTransitions:
    def test_no_lost_or_duplicated_component_transitions(self):
        """fail/repair-done alternate per node: never two fails without a
        repair between them, never a repair for a node that didn't fail."""
        t = ReliabilitySimulator(ReliabilitySpec(**SMALL)).run_trial(0)
        down = set()
        for _, kind, node in t.event_log:
            if kind == "fail":
                assert node not in down, f"node {node} failed while down"
                down.add(node)
            elif kind == "repair-done":
                assert node in down, f"node {node} repaired while healthy"
                down.remove(node)
        assert t.n_repairs <= t.n_failures
        assert t.max_spares_in_use <= ReliabilitySpec(**SMALL).n_spares

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReliabilitySpec(**{**SMALL, "timing": "guess"})
        with pytest.raises(ValueError):
            ReliabilitySpec(**{**SMALL, "materialize": True})
        with pytest.raises(ValueError):
            ReliabilitySpec(**{**SMALL, "k": 20, "m": 20})
        with pytest.raises(ValueError):
            ReliabilitySpec(**{**SMALL, "burst_loss_fraction": 0.0})
        with pytest.raises(ValueError):
            ReliabilitySimulator(ReliabilitySpec())  # k/m unset
