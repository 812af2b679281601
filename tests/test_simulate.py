"""Tests for the service distributions, busy-cycle simulator and oracles."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossq.simulate
from lossq.ecdf import Sample, build_ecdf, ks_statistics
from lossq.kolmogorov import kolmogorov_cdf, one_sided_cdf
from lossq.moments import moments_exponential
from lossq.recursion import CharacteristicSpec, estimate_characteristic, solve_recursion
from lossq.simulate import (
    REPLICATION_CHUNK,
    SAMPLE_GENERATOR,
    SIMULATION_GENERATOR,
    Deterministic,
    ErlangK,
    Exponential,
    Uniform,
    _expected_served,
    _Pooled,
    _run_cycles,
    draw_samples,
    ks_law_experiment,
    parse_distribution,
    simulate_busy_period,
)

from support import loss_probability_oracle

UNIT_MEAN_DISTS = [
    Exponential(1.0),
    ErlangK(2, 2.0),
    Deterministic(1.0),
    Uniform(0.5, 1.5),
]


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def test_distribution_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Exponential(bad)
        with pytest.raises(ValueError):
            Deterministic(bad)
    for bad in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            ErlangK(bad, 1.0)
    with pytest.raises(ValueError):
        ErlangK(2, -1.0)
    with pytest.raises(ValueError):
        Uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    Uniform(0.0, 2.0)  # zero lower edge is allowed


def test_erlang_shape_past_the_float_range_is_a_value_error():
    # math.isfinite raises OverflowError on such an int; the check turns it
    # into the ValueError that the parser and the CLI report
    with pytest.raises(ValueError, match="float range"):
        ErlangK(10**400, 1.0)
    with pytest.raises(ValueError, match="float range"):
        parse_distribution("erlang:" + "9" * 400 + ":1")
    assert ErlangK(2**1000, 1.0).shape == 2**1000


def test_distribution_means():
    assert Exponential(2.0).mean() == 0.5
    assert ErlangK(3, 1.5).mean() == 2.0
    assert Deterministic(0.7).mean() == 0.7
    assert Uniform(0.5, 1.5).mean() == 1.0


def test_distribution_cdfs_at_known_points():
    assert Exponential(1.0).cdf(0.0) == 0.0
    assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5)
    assert Exponential(1.0).cdf(-1.0) == 0.0
    # Erlang(2, 1) at x: 1 - e^-x (1 + x)
    assert ErlangK(2, 1.0).cdf(1.0) == pytest.approx(1.0 - 2.0 / math.e)
    assert Deterministic(1.0).cdf(0.999) == 0.0
    assert Deterministic(1.0).cdf(1.0) == 1.0
    out = Uniform(0.0, 2.0).cdf(np.array([-1.0, 0.5, 1.0, 3.0]))
    assert np.array_equal(out, [0.0, 0.25, 0.5, 1.0])


def test_law_values_past_the_float_range_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # rate x, and (x - low) / (high - low), overflow to inf
        assert Exponential(700.0).cdf(1e308) == 1.0
        assert Uniform(1e-6, 0.01).cdf(1e308) == 1.0
        # rate high underflows to 0, so every quadrature node is at y = 0
        got = Uniform(1e-308, 1e-200).moments(1e-200, 400)
    assert got.values[0] == 1.0 and not got.values[1:].any() and got.tail == 0.0


def _poisson_tail(k: int, y: float) -> float:
    """P(N >= k) for N ~ Poisson(y), summed in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        yd = Decimal(y)
        term = total = Decimal(1)
        for j in range(1, k):
            term = term * yd / j
            total += term
        return float(1 - (-yd).exp() * total)


@pytest.mark.parametrize("shape", [1, 2, 3, 10, 50, 200, 700, 1000])
@pytest.mark.parametrize("rate", [0.37, 1.0, 2.5])
def test_erlang_cdf_matches_the_poisson_tail(shape, rate):
    # eleven decades of x, and the neighbourhood of the mean, where a large
    # shape puts the CDF near 1/2 at y of several hundred
    mean = shape / rate
    x = np.sort(np.concatenate([np.logspace(-8, 3, 201),
                                mean * np.linspace(0.8, 1.2, 41)]))
    got = ErlangK(shape, rate).cdf(x)
    expected = np.array([_poisson_tail(shape, rate * float(v)) for v in x])
    assert np.max(np.abs(got - expected)) <= 1e-14
    assert np.all(np.diff(got) >= 0.0)


@pytest.mark.parametrize("shape", [1, 2, 3, 10, 50, 200])
def test_erlang_cdf_at_and_below_zero_and_at_infinity(shape):
    d = ErlangK(shape, 1.5)
    assert d.cdf(0.0) == 0.0
    assert np.array_equal(d.cdf(np.array([-np.inf, -1.0, -1e-300])), [0.0, 0.0, 0.0])
    assert d.cdf(np.inf) == 1.0


def test_erlang_cdf_keeps_relative_accuracy_in_the_lower_tail():
    # P(N >= 3) for N ~ Poisson(y) is y^3/6 (1 - 3y/4 + 3y^2/10 - ...)
    y = 1e-5
    expected = y**3 / 6.0 * (1.0 - 0.75 * y + 0.3 * y * y)
    assert ErlangK(3, 1.0).cdf(y) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_labels_round_trip_through_the_parser():
    # an integral float or a bool is a shape too, kept as an int
    for dist in (Exponential(1.0), ErlangK(2, 1.5), ErlangK(2.0, 1.5), ErlangK(True, 1.0),
                 Deterministic(0.7), Uniform(0.0, 2.0)):
        assert parse_distribution(dist.label()) == dist
    assert ErlangK(2.0, 1.5).label() == "erlang:2:1.5"
    assert ErlangK(True, 1.0).label() == "erlang:1:1"
    assert type(ErlangK(2.0, 1.5).shape) is int


def test_labels_keep_every_digit_where_the_short_form_loses_some():
    assert Uniform(1e6, 1e6 + 1e-3).label() == "uniform:1e+06:1000000.001"
    assert Exponential(1.2345678).label() == "exp:1.2345678"
    # the short form stays wherever it reads back as the same float
    assert Exponential(1.0).label() == "exp:1"
    assert Uniform(0.0, 2.0).label() == "uniform:0:2"
    assert Deterministic(0.7).label() == "det:0.7"


_PARAMETERS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(dist=st.one_of(
    _PARAMETERS.map(Exponential),
    st.builds(ErlangK, st.integers(1, 10**6), _PARAMETERS),
    _PARAMETERS.map(Deterministic),
    st.tuples(st.floats(min_value=0.0, allow_infinity=False), _PARAMETERS)
    .map(sorted).filter(lambda edges: edges[0] < edges[1])
    .map(lambda edges: Uniform(*edges)),
))
def test_every_label_reads_back_as_its_law(dist):
    assert parse_distribution(dist.label()) == dist


def test_parser_accepts_case_and_whitespace():
    assert parse_distribution(" EXP:1 ") == Exponential(1.0)
    assert parse_distribution("Erlang:2:1.5") == ErlangK(2, 1.5)


@pytest.mark.parametrize(
    "text", ["gamma:1", "exp", "exp:abc", "erlang:2", "exp:1:2", "det:-1", ""]
)
def test_parser_rejects_bad_specs(text):
    with pytest.raises(ValueError, match="bad distribution spec"):
        parse_distribution(text)


# ---------------------------------------------------------------------------
# Sample drawing
# ---------------------------------------------------------------------------


def test_draw_samples_deterministic_distribution_is_exact():
    sample = draw_samples(Deterministic(1.0), 3, seed=0)
    assert np.array_equal(sample.values, [1.0, 1.0, 1.0])


def test_draw_samples_is_reproducible_and_seed_sensitive():
    a = draw_samples(Exponential(1.0), 1000, seed=42)
    b = draw_samples(Exponential(1.0), 1000, seed=42)
    c = draw_samples(Exponential(1.0), 1000, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_draw_samples_rejects_empty_request():
    with pytest.raises(ValueError, match="at least 1"):
        draw_samples(Exponential(1.0), 0, seed=1)


def test_draw_samples_large_sample_mean():
    sample = draw_samples(Exponential(1.0), 1_000_000, seed=3)
    assert float(sample.values.mean()) == pytest.approx(1.0, abs=0.005)


def test_generator_identifiers():
    assert SAMPLE_GENERATOR == "numpy-pcg64"
    assert SIMULATION_GENERATOR == f"numpy-philox-chunk{REPLICATION_CHUNK}-generations"


# ---------------------------------------------------------------------------
# Busy-cycle simulator
# ---------------------------------------------------------------------------


def test_simulator_validation():
    with pytest.raises(ValueError):
        simulate_busy_period(0.0, Exponential(1.0), 2, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_busy_period(1.0, Exponential(1.0), -1, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_busy_period(1.0, Exponential(1.0), 2, 0, seed=1)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
def test_simulator_rejects_a_non_integer_buffer_or_replication_count(bad):
    with pytest.raises(ValueError, match="buffer must be an integer"):
        simulate_busy_period(1.0, Exponential(1.0), bad, 10, seed=1)
    with pytest.raises(ValueError, match="replications must be an integer"):
        simulate_busy_period(1.0, Exponential(1.0), 2, bad, seed=1)


def test_simulator_accepts_numpy_integers():
    want = simulate_busy_period(0.8, Exponential(1.0), 3, 40, seed=2)
    got = simulate_busy_period(0.8, Exponential(1.0), np.int64(3), np.int32(40), seed=2)
    assert got == want and type(got.replications) is int


@pytest.mark.parametrize("replications", [5, 40])
def test_a_buffer_past_int64_acts_as_one_no_cycle_fills(replications):
    # at load 0.5 no waiting count comes near a million
    huge = simulate_busy_period(0.5, Exponential(1.0), 10**30, replications, seed=3)
    assert huge == simulate_busy_period(0.5, Exponential(1.0), 10**6, replications, seed=3)


def test_zero_buffer_deterministic_service_is_exact():
    # With no waiting room the busy cycle is a single service: length and
    # served count are deterministic, so their standard errors vanish.
    sim = simulate_busy_period(1.0, Deterministic(0.75), 0, 200, seed=5)
    assert sim.busy_period.mean == 0.75 and sim.busy_period.se == 0.0
    assert sim.served.mean == 1.0 and sim.served.se == 0.0
    assert sim.replications == 200 and sim.seed == 5
    assert sim.generator == SIMULATION_GENERATOR


def test_zero_buffer_mean_busy_period_is_the_mean_service():
    for i, dist in enumerate(UNIT_MEAN_DISTS):
        sim = simulate_busy_period(1.3, dist, 0, 40_000, seed=100 + i)
        if sim.busy_period.se == 0.0:
            assert sim.busy_period.mean == dist.mean()
        else:
            margin = 5.0 * sim.busy_period.se
            assert abs(sim.busy_period.mean - dist.mean()) < margin
        assert sim.served.mean == 1.0


def test_simulator_is_reproducible():
    a = simulate_busy_period(1.0, Exponential(1.0), 2, 5000, seed=11)
    b = simulate_busy_period(1.0, Exponential(1.0), 2, 5000, seed=11)
    c = simulate_busy_period(1.0, Exponential(1.0), 2, 5000, seed=12)
    assert a == b
    assert a != c


def test_each_chunk_of_replications_runs_on_its_own_jump_of_the_seed_stream():
    # 2^15 replications: the first chunk is a one-chunk run of the same seed,
    # the second runs on the seed's Philox stream jumped once, and the run
    # pools the two chunks in that order
    full = simulate_busy_period(1.0, Exponential(1.0), 2, 2 * REPLICATION_CHUNK,
                                seed=21)
    head = simulate_busy_period(1.0, Exponential(1.0), 2, REPLICATION_CHUNK,
                                seed=21)
    root = np.random.Philox(np.random.SeedSequence(21))
    pooled = _Pooled()
    for jumps in (0, 1):
        chunk = _run_cycles(np.random.Generator(root.jumped(jumps)), 1.0, Exponential(1.0), 2,
                            REPLICATION_CHUNK)
        assert chunk.shape == (3, REPLICATION_CHUNK)
        pooled.add(chunk)
        if jumps == 0:
            assert [head.busy_period.mean, head.served.mean, head.lost.mean] == pooled.mean.tolist()
    assert [full.busy_period.mean, full.served.mean, full.lost.mean] == pooled.mean.tolist()
    se = np.sqrt(pooled.m2 / (2 * REPLICATION_CHUNK - 1) / (2 * REPLICATION_CHUNK))
    assert [full.busy_period.se, full.served.se, full.lost.se] == se.tolist()


def _one_customer_at_a_time(rng, arrival_rate, dist, buffer, count):
    """Reference generation rounds.  Each round takes every running cycle's
    block, all its present customers or, when the round would serve more
    than ``REPLICATION_CHUNK``, ``REPLICATION_CHUNK // cycles`` (at least
    one) of them; draws the round's service times with one ``dist.draw``
    call and their arrival counts with one ``rng.poisson`` call; and serves
    each block one customer at a time.  Returns (busy time, served, lost)
    of each cycle in replication order, as a (3, count) array, and the
    number of rounds that were capped."""
    chunk = lossq.simulate.REPLICATION_CHUNK
    cycles = [[1, 0.0, 0, 0] for _ in range(count)]
    replications, capped = cycles, 0
    while cycles:
        size = sum(cycle[0] for cycle in cycles)
        cap = size if size <= chunk else max(1, chunk // len(cycles))
        capped += cap < size
        blocks = [min(cycle[0], cap) for cycle in cycles]
        s = dist.draw(rng, sum(blocks))
        services = iter(zip(s.tolist(), rng.poisson(arrival_rate * s).tolist()))
        running = []
        for cycle, block in zip(cycles, blocks):
            waiting = cycle[0] - 1
            for _ in range(block):
                service, arrivals = next(services)
                joined = min(arrivals, buffer - waiting)
                cycle[1] += service
                cycle[2] += 1
                cycle[3] += arrivals - joined
                waiting += joined - 1
            cycle[0] = waiting + 1
            if cycle[0]:
                running.append(cycle)
        cycles = running
    return np.array([cycle[1:] for cycle in replications], dtype=float).T, capped


def _assert_cycles_match_the_reference(arrival_rate, dist, buffer, count, seed):
    """Served and lost exactly, busy time to 1e-12: the reference adds the
    block's services to it one at a time, ``_run_cycles`` a block at once."""

    def stream():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    got = _run_cycles(stream(), arrival_rate, dist, buffer, count)
    want, capped = _one_customer_at_a_time(stream(), arrival_rate, dist, buffer, count)
    assert got.shape == want.shape == (3, count)
    assert np.array_equal(got[1:], want[1:])
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
    # the pooled chunk gives the mean and centred sum of squares of all
    pooled = _Pooled()
    pooled.add(got)
    mean = got.mean(axis=1)
    np.testing.assert_allclose(pooled.mean, mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pooled.m2, ((got - mean[:, None]) ** 2).sum(axis=1),
                               rtol=1e-10, atol=1e-9)
    return capped


# load: the largest buffer drawn.  A cycle at load 1.5 serves about 1.5^buffer
# customers, so its buffers stay small enough for the reference to finish
_LOAD_BUFFERS = {0.3: 60, 0.95: 60, 1.5: 6}
# buffers no cycle fills at these loads: the largest ``_run_cycles`` is given
_UNFILLED_BUFFERS = [(0.3, 2**62), (0.95, 2**62)]
# arrival means of 10 and more take NumPy's other Poisson sampler (PTRS):
# (arrival rate, law, buffer), with every or some services drawing one
_HIGH_ARRIVAL_MEANS = [(1.0, Deterministic(12.0), 0), (1.0, Uniform(8.0, 16.0), 0),
                       (3.0, Exponential(1.0), 2)]


@st.composite
def _cycle_configs(draw):
    """(arrival rate, law, buffer, count), with counts on both sides of the
    scalar tail's threshold."""
    tail = lossq.simulate._SCALAR_TAIL
    count = draw(st.sampled_from([1, tail, tail + 1]) | st.integers(1, 3 * tail))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return (*draw(st.sampled_from(_HIGH_ARRIVAL_MEANS)), count)
    if kind == 1:
        load, buffer = draw(st.sampled_from(_UNFILLED_BUFFERS))
    else:
        load = draw(st.sampled_from(sorted(_LOAD_BUFFERS)))
        buffer = draw(st.integers(0, _LOAD_BUFFERS[load]))
    return load, draw(st.sampled_from(UNIT_MEAN_DISTS)), buffer, count


@settings(max_examples=120, deadline=None)
@given(config=_cycle_configs(), seed=st.integers(0, 2**32 - 1))
def test_cycles_equal_one_customer_at_a_time_on_the_same_blocks(config, seed):
    _assert_cycles_match_the_reference(*config, seed)


@pytest.mark.parametrize("chunk", [8, 64])
def test_capped_rounds_equal_one_customer_at_a_time(monkeypatch, chunk):
    # a small chunk caps the rounds of full-size blocks: on both sides of the
    # scalar tail, with one service a cycle when the cycles outnumber it
    monkeypatch.setattr(lossq.simulate, "REPLICATION_CHUNK", chunk)
    capped = 0
    for seed, (arrival_rate, dist, buffer) in enumerate(
            [(0.95, Exponential(1.0), 60), (1.5, Uniform(0.5, 1.5), 6),
             (3.0, Exponential(1.0), 2), (0.95, ErlangK(2, 2.0), 2**62)]):
        for count in (1, lossq.simulate._SCALAR_TAIL, 3 * lossq.simulate._SCALAR_TAIL):
            capped += _assert_cycles_match_the_reference(arrival_rate, dist, buffer, count, seed)
    assert capped > 0


class _CountingLaw:
    """A law that counts every value it draws."""

    def __init__(self, law):
        self.law, self.drawn = law, 0

    def draw(self, rng, size):
        values = self.law.draw(rng, size)
        self.drawn += values.size
        return values

    def __getattr__(self, name):
        return getattr(self.law, name)


@pytest.mark.parametrize("chunk", [REPLICATION_CHUNK, 64])
@pytest.mark.parametrize("count", [1, 17, 2000])
def test_every_service_drawn_is_served(monkeypatch, chunk, count):
    monkeypatch.setattr(lossq.simulate, "REPLICATION_CHUNK", chunk)
    law = _CountingLaw(Exponential(1.0))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(count)))
    served = _run_cycles(rng, 0.95, law, 50, count)[1]
    assert law.drawn == served.sum()


@pytest.mark.parametrize("chunk", [REPLICATION_CHUNK, 64])
@pytest.mark.parametrize("arrival_rate, dist, buffer, count",
                         [(0.95, Exponential(1.0), 50, 300), (1.5, Uniform(0.5, 1.5), 6, 100),
                          (0.5, Deterministic(1.0), 5, 500), (3.0, Exponential(1.0), 2, 200)])
def test_cycles_do_not_depend_on_where_the_scalar_finish_takes_over(
        monkeypatch, chunk, arrival_rate, dist, buffer, count):
    # every round on arrays, and every round on Python scalars: the same
    # draws, so the same counts; busy time is summed a block at once in one
    # and a service at a time in the other
    monkeypatch.setattr(lossq.simulate, "REPLICATION_CHUNK", chunk)
    runs = []
    for tail in (0, 10**9):
        monkeypatch.setattr(lossq.simulate, "_SCALAR_TAIL", tail)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(count)))
        runs.append(_run_cycles(rng, arrival_rate, dist, buffer, count))
    arrays, scalars = runs
    assert np.array_equal(arrays[1:], scalars[1:])
    np.testing.assert_allclose(arrays[0], scalars[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("low, width, rate", [(1e6, 1e-3, 5e-7), (100.0, 1e-6, 5e-3)])
def test_standard_error_of_a_narrow_law_far_from_zero(low, width, rate):
    # with no waiting room a busy period is one service, so its standard
    # error is width / sqrt(12) / sqrt(N).  A sum of squares less N mean^2
    # cancels to 0.0 on the first law and to 4 times that on the second
    sim = simulate_busy_period(rate, Uniform(low, low + width), 0, 20_000, seed=3)
    assert sim.busy_period.se == pytest.approx(width / math.sqrt(12.0 * 20_000), rel=0.03)


# ---------------------------------------------------------------------------
# Service budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("replications", [1, 100])
def test_an_arrival_mean_past_the_poisson_limit_is_named(replications):
    # the budget passes (a zero buffer serves one customer a cycle); one
    # cycle draws on Python scalars, a hundred start on arrays
    with pytest.raises(ValueError,
                       match=r"largest arrival mean .* is 1e\+20, past .* limit of about 9\.2e18"):
        simulate_busy_period(1e10, Deterministic(1e10), 0, replications, seed=1)


def test_a_run_that_cannot_finish_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("the refused run drew")

    monkeypatch.setattr(lossq.simulate, "_run_cycles", no_draws)
    with pytest.raises(ValueError, match=r"about 5\.07e\+64 services .* budget of 1e\+08"):
        simulate_busy_period(5.0, Deterministic(1.0), 30, 1, seed=1)
    # r_0, the chance that a service brings no arrival, underflows to 0
    with pytest.raises(ValueError, match="about inf services"):
        simulate_busy_period(1000.0, Deterministic(1.0), 1, 1, seed=1)
    with pytest.raises(ValueError, match="budget"):
        simulate_busy_period(1.5, Exponential(1.0), 10**30, 1, seed=1)
    with pytest.raises(ValueError, match="budget"):
        simulate_busy_period(0.5, Exponential(1.0), 0, 10**8 + 1, seed=1)


def test_expected_served_is_the_served_chain():
    assert _expected_served(5.0, Deterministic(1.0), 30) == pytest.approx(5.0708e64, rel=1e-4)
    assert _expected_served(0.95, Exponential(1.0), 50) == pytest.approx(18.538, rel=1e-4)
    # at unit load with exponential services a cycle serves buffer + 1
    assert _expected_served(1.0, Exponential(1.0), 4) == pytest.approx(5.0, rel=1e-12)


def test_expected_served_past_the_computed_levels_grows_at_the_last_ratio(monkeypatch):
    monkeypatch.setattr(lossq.simulate, "_BUDGET_LEVELS", 10)
    chain = solve_recursion(Uniform(0.0, 2.0).moments(1.5, 10), 10).point
    want = chain[-1] * (chain[-1] / chain[-2]) ** 15
    assert _expected_served(1.5, Uniform(0.0, 2.0), 25) == pytest.approx(want, rel=1e-12)
    assert _expected_served(1.5, Uniform(0.0, 2.0), 2**62) == math.inf


@pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
def test_the_budget_admits_exactly_the_runs_within_it(monkeypatch, load):
    monkeypatch.setattr(lossq.simulate, "_SERVICE_BUDGET", 100.0)
    served = _expected_served(load, ErlangK(2, 2.0), 3)
    fits = int(100.0 // served)
    simulate_busy_period(load, ErlangK(2, 2.0), 3, fits, seed=1)
    with pytest.raises(ValueError, match="budget"):
        simulate_busy_period(load, ErlangK(2, 2.0), 3, fits + 1, seed=1)


def test_below_load_one_within_the_bound_no_moments_are_computed(monkeypatch):
    def no_moments(self, rate, order):
        raise AssertionError("moments computed")

    monkeypatch.setattr(lossq.simulate, "_SERVICE_BUDGET", 100.0)
    monkeypatch.setattr(ErlangK, "moments", no_moments)
    # 1 / (1 - 0.5) = 2 customers per cycle at most, so 50 cycles fit
    simulate_busy_period(0.5, ErlangK(2, 2.0), 40, 50, seed=1)
    with pytest.raises(AssertionError, match="moments computed"):
        simulate_busy_period(0.5, ErlangK(2, 2.0), 40, 51, seed=1)


def test_simulated_busy_period_matches_the_recursion():
    # Four unit-mean service laws, buffers 0..4, arrival rate 1: the Monte
    # Carlo mean must sit within a 99.9% band of the recursion value computed
    # from the law's exact moments (20 fixed-seed configs, so a 99% band
    # would trip on ordinary fluctuation).
    for d, dist in enumerate(UNIT_MEAN_DISTS):
        moments = dist.moments(1.0, 4)
        spec = CharacteristicSpec.busy_period(1.0, 1.0)
        theory = estimate_characteristic(spec, moments, 4).natural_values
        for n in range(5):
            sim = simulate_busy_period(1.0, dist, n, 100_000, seed=300 + 10 * d + n)
            if sim.busy_period.se == 0.0:
                assert sim.busy_period.mean == pytest.approx(theory[n], rel=1e-12)
            else:
                margin = 3.29 * sim.busy_period.se + 1e-9
                assert abs(sim.busy_period.mean - theory[n]) < margin, (
                    f"{dist.label()} buffer {n}"
                )


def test_simulated_cycles_satisfy_the_wald_identities():
    # busy = E[S] * served and lost = (lambda E[S] - 1) * served + 1 per
    # busy cycle, for any service law; the point estimates rely on both.
    arrival = 1.1
    dists = [Exponential(1.25), ErlangK(2, 2.5), Deterministic(0.7), Uniform(0.2, 1.4)]
    for d, dist in enumerate(dists):
        m = dist.mean()
        for n in (1, 5):
            sim = simulate_busy_period(arrival, dist, n, 40_000, seed=500 + 10 * d + n)
            busy, served, lost = sim.busy_period, sim.served, sim.lost
            label = f"{dist.label()} buffer {n}"
            margin = 5.0 * (busy.se + m * served.se)
            assert abs(busy.mean - m * served.mean) < margin, label
            slope = arrival * m - 1.0
            margin = 5.0 * (lost.se + abs(slope) * served.se)
            assert abs(lost.mean - (slope * served.mean + 1.0)) < margin, label


# ---------------------------------------------------------------------------
# Loss-probability oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
def test_oracle_balanced_load(c):
    assert loss_probability_oracle(Exponential(1.0), 1.0, c) == 1.0 / (c + 1)


def test_oracle_closed_forms():
    assert loss_probability_oracle(Exponential(2.0), 1.0, 1) == pytest.approx(2.0 / 3.0)
    assert loss_probability_oracle(Exponential(0.5), 1.0, 2) == pytest.approx(1.0 / 7.0)
    heavy = loss_probability_oracle(Exponential(4.0), 1.0, 3)
    assert heavy == pytest.approx((4.0**3 * 3.0) / (4.0**4 - 1.0))


def test_oracle_validation():
    with pytest.raises(ValueError, match="exponential"):
        loss_probability_oracle(Deterministic(1.0), 1.0, 2)
    with pytest.raises(ValueError):
        loss_probability_oracle(Exponential(1.0), 0.0, 2)
    with pytest.raises(ValueError):
        loss_probability_oracle(Exponential(1.0), 1.0, 0)


@pytest.mark.parametrize("arrival", [0.5, 1.0, 2.0])
def test_oracle_agrees_with_the_recursion(arrival):
    moments = moments_exponential(1.0, arrival, 5)
    spec = CharacteristicSpec.loss_probability(1.0)
    estimated = estimate_characteristic(spec, moments, 5).natural_values
    for n in range(1, 6):
        oracle = loss_probability_oracle(Exponential(arrival), 1.0, n)
        assert estimated[n] == pytest.approx(oracle, abs=1e-9)


# ---------------------------------------------------------------------------
# Sup-statistic law experiment
# ---------------------------------------------------------------------------


def test_ks_law_experiment_validation():
    with pytest.raises(ValueError, match="n_obs"):
        ks_law_experiment(Exponential(1.0), 99, 100, seed=1)
    with pytest.raises(ValueError, match="trials"):
        ks_law_experiment(Exponential(1.0), 100, 99, seed=1)


def test_ks_law_experiment_structure_and_reproducibility():
    res = ks_law_experiment(Exponential(1.0), 200, 100, seed=3)
    again = ks_law_experiment(Exponential(1.0), 200, 100, seed=3)
    assert res.trials == 100 and res.n_obs == 200 and res.seed == 3
    assert res.two_sided.shape == (100,)
    assert np.array_equal(res.two_sided,
                          np.maximum(res.one_sided_minus, res.one_sided_plus))
    assert np.array_equal(res.two_sided, again.two_sided)
    assert res.correlation == pytest.approx(
        float(np.corrcoef(res.one_sided_minus, res.one_sided_plus)[0, 1])
    )


def _per_trial_ks(dist, n_obs, trials, seed):
    """The experiment one trial at a time, through ``ks_statistics``."""
    scale = math.sqrt(n_obs)
    rows = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.PCG64(child))
        stats = ks_statistics(build_ecdf(Sample(dist.draw(rng, n_obs))), dist.cdf)
        rows.append([scale * stats.two_sided, scale * stats.one_sided_minus,
                     scale * stats.one_sided_plus])
    two, minus, plus = np.array(rows).T
    return two, minus, plus, float(np.corrcoef(minus, plus)[0, 1])


@pytest.mark.parametrize("dist", [Exponential(1.0), ErlangK(2, 2.0), Uniform(0.5, 1.5)])
@pytest.mark.parametrize("n_obs", [1000, 1500])
def test_blocked_ks_experiment_equals_the_per_trial_one(dist, n_obs):
    trials = 155
    assert trials % (lossq.simulate._KS_BLOCK_VALUES // n_obs) != 0
    res = ks_law_experiment(dist, n_obs, trials, seed=8)
    two, minus, plus, corr = _per_trial_ks(dist, n_obs, trials, 8)
    assert res.two_sided.tobytes() == two.tobytes()
    assert res.one_sided_minus.tobytes() == minus.tobytes()
    assert res.one_sided_plus.tobytes() == plus.tobytes()
    assert res.correlation == corr


class _StubLaw:
    def __init__(self, draw, cdf):
        self.draw, self.cdf = draw, cdf


def test_blocked_ks_experiment_raises_the_per_trial_errors():
    zero = _StubLaw(lambda rng, size: np.zeros(size), lambda x: np.zeros_like(x))
    with pytest.raises(ValueError, match="sample values must be positive finite"):
        ks_law_experiment(zero, 100, 100, seed=1)
    outside = _StubLaw(lambda rng, size: rng.uniform(1.0, 2.0, size), lambda x: x)
    with pytest.raises(ValueError, match="model CDF returned a value outside"):
        ks_law_experiment(outside, 100, 100, seed=1)
    # a scalar-only CDF is evaluated point by point, as by ks_statistics
    scalar = _StubLaw(Exponential(1.0).draw, lambda x: -math.expm1(-x))
    blocked = ks_law_experiment(scalar, 100, 100, seed=2)
    assert blocked.two_sided.tobytes() == _per_trial_ks(scalar, 100, 100, 2)[0].tobytes()


def test_constant_statistics_have_no_correlation_and_no_warning():
    # every draw of a point mass is the same sample, so both one-sided
    # statistics are constant; np.corrcoef would divide 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ks_law_experiment(Deterministic(1.0), 1000, 1000, 42)
    assert np.ptp(res.one_sided_minus) == 0.0 and np.ptp(res.one_sided_plus) == 0.0
    assert math.isnan(res.correlation)


def test_scaled_statistics_follow_their_limit_laws():
    res = ks_law_experiment(Exponential(1.0), 10_000, 500, seed=7)
    two_dist = ks_statistics(build_ecdf(Sample(res.two_sided)), kolmogorov_cdf)
    plus_dist = ks_statistics(build_ecdf(Sample(res.one_sided_plus)), one_sided_cdf)
    assert two_dist.two_sided < 0.08
    assert plus_dist.two_sided < 0.08


def test_one_sided_statistics_correlation_regression():
    # The two sup deviations of one empirical process are strongly
    # negatively correlated; pin the measured value as a regression anchor.
    res = ks_law_experiment(Exponential(1.0), 10_000, 500, seed=7)
    assert res.correlation == pytest.approx(-0.6352, abs=1e-3)
