import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from entcat.errors import CatalysisWindowError, InvalidInputError
from entcat.network import AUX_RICH, FINITE_AUX, NO_AUX, AuxConfig, AuxPath, EdgeParams
from entcat.simulate import (
    _BATCH_TRIALS,
    SimConfig,
    _MaxOfGeometrics,
    result_record,
    run_simulation,
    simulate_abstract,
    simulate_detailed,
    validate_waiting_factor,
)
from entcat.network import rate_catalytic, t_primary, waiting_factor

import oracles

EDGE = EdgeParams(alpha=0.8, copies=2, length_km=25.0, fiber_speed_km_s=2.0e5,
                  herald_probability=0.5)
PCAT_2_08 = 0.8822819946431774


def abstract_config(**kwargs):
    base = dict(n_edges=2, mode="abstract", trials=1000, seed=1,
                p_cat_override=0.5, cycle_time_override_s=1.0)
    base.update(kwargs)
    return SimConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode="slow")

    def test_rejects_capacity_below_stock(self):
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode="detailed", edge=EDGE, initial_stock=3,
                      stock_capacity=2)

    def test_rejects_cycle_time_in_detailed_mode(self):
        # Detailed runs count slots of the edge's own cycle time.
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode="detailed", edge=EDGE, cycle_time_override_s=1.0)
        SimConfig(n_edges=1, mode="detailed", edge=EDGE, p_cat_override=0.5)

    @pytest.mark.parametrize("mode,aux,setting", [
        ("detailed", AuxConfig(AUX_RICH), dict(stock_capacity=3)),
        ("detailed", AuxConfig(NO_AUX), dict(stock_capacity=3)),
        ("detailed", AuxConfig(AUX_RICH), dict(initial_stock=1)),
        ("abstract", AuxConfig(AUX_RICH), dict(initial_stock=1)),
        ("abstract", AuxConfig(NO_AUX), dict(initial_stock=1)),
        ("abstract", AuxConfig(AUX_RICH), dict(stock_capacity=3)),
        ("abstract", AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.9, 2.5e-4),)), dict(stock_capacity=3)),
        ("abstract", AuxConfig(AUX_RICH), dict(max_slots=5000)),
    ])
    def test_rejects_settings_the_run_ignores(self, mode, aux, setting):
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode=mode, edge=EDGE, aux=aux, **setting)

    def test_accepts_settings_the_run_reads(self):
        finite = AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.9, 2.5e-4),))
        SimConfig(n_edges=1, mode="detailed", edge=EDGE, aux=finite, initial_stock=1,
                  stock_capacity=3, max_slots=5000)
        SimConfig(n_edges=1, mode="detailed", edge=EDGE, aux=AuxConfig(NO_AUX), initial_stock=1)
        # The defaults themselves are never an ignored setting.
        SimConfig(n_edges=1, mode="abstract", edge=EDGE, initial_stock=0, stock_capacity=None,
                  max_slots=100_000)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_cycle_time(self, value):
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode="abstract", p_cat_override=0.5, cycle_time_override_s=value)

    @pytest.mark.parametrize("setting", [
        dict(edge=EDGE),
        dict(aux=AuxConfig(NO_AUX)),
        dict(edge=EDGE, aux=AuxConfig(NO_AUX)),
    ])
    def test_rejects_edge_and_aux_with_both_overrides(self, setting):
        # Both overrides fix the run; it would read neither the edge nor the aux mode.
        with pytest.raises(InvalidInputError):
            abstract_config(**setting)
        # With one override left out, the run reads the edge and the aux mode.
        abstract_config(**{**setting, "edge": EDGE, "p_cat_override": None})
        abstract_config(**{**setting, "edge": EDGE, "cycle_time_override_s": None})
        # The default aux mode, written out, is not an ignored setting.
        abstract_config(aux=AuxConfig(AUX_RICH))

    def test_requires_edge_without_overrides(self):
        with pytest.raises(InvalidInputError):
            SimConfig(n_edges=1, mode="abstract", trials=10, seed=0)

    @pytest.mark.parametrize("setting", [
        dict(mode="detailed"),
        dict(mode="detailed", p_cat_override=0.5),
        dict(mode="abstract", p_cat_override=0.5),
        dict(mode="abstract", cycle_time_override_s=1.0),
    ])
    def test_requires_edge_unless_both_overrides_fix_an_abstract_run(self, setting):
        # The one run that reads no edge is an abstract run given both overrides.
        message = ("edge parameters are required unless an abstract run is given both"
                   " p_cat_override and cycle_time_override_s")
        with pytest.raises(InvalidInputError, match=message):
            SimConfig(n_edges=1, **setting)
        SimConfig(n_edges=1, edge=EDGE, **setting)


FINITE_AUX_CONFIG = AuxConfig(FINITE_AUX, (AuxPath(0.9, 0.5, 1e-4),))


@pytest.mark.parametrize("build", [
    lambda v: abstract_config(n_edges=v),
    lambda v: abstract_config(trials=v),
    lambda v: abstract_config(seed=v),
    lambda v: SimConfig(n_edges=2, mode="detailed", edge=EDGE, max_slots=v),
    lambda v: SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=AuxConfig(NO_AUX),
                        initial_stock=v),
    lambda v: SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=FINITE_AUX_CONFIG,
                        stock_capacity=v),
    lambda v: validate_waiting_factor(2, 0.5, v, 0),
    lambda v: validate_waiting_factor(2, 0.5, 100, v),
], ids=["n_edges", "trials", "seed", "max_slots", "initial_stock", "stock_capacity",
        "validate_trials", "validate_seed"])
@pytest.mark.parametrize("value", [2.5, 100.5, 4.0, "4"])
def test_counts_must_be_integers(build, value):
    # a non-integral count once built a config whose run raised a bare
    # TypeError, or gave validate-z a verdict; numpy integers are counts
    with pytest.raises(InvalidInputError, match="integer"):
        build(value)
    build(np.int64(4))


class TestAbstract:
    def test_certain_success_zero_variance(self):
        cfg = abstract_config(n_edges=1, trials=500, p_cat_override=1.0,
                              cycle_time_override_s=0.25)
        res = simulate_abstract(cfg)
        assert res.mean_completion_s == 0.25
        assert res.std_error_s == 0.0

    def test_two_edge_mean_matches_waiting_factor(self):
        cfg = abstract_config(trials=100_000, seed=42)
        res = simulate_abstract(cfg)
        assert abs(res.mean_completion_s - 8.0 / 3.0) <= 3 * res.std_error_s

    def test_large_chain_mean_matches_waiting_factor(self):
        cfg = abstract_config(n_edges=32, trials=100_000, seed=5,
                              p_cat_override=PCAT_2_08)
        res = simulate_abstract(cfg)
        expected = waiting_factor(32, PCAT_2_08)
        assert abs(res.mean_completion_s - expected) <= 3 * res.std_error_s

    def test_parameters_resolved_from_edge(self):
        cfg = SimConfig(n_edges=2, mode="abstract", edge=EDGE, aux=AuxConfig(AUX_RICH),
                        trials=20_000, seed=3)
        res = simulate_abstract(cfg)
        expected = EDGE.copies * EDGE.cycle_time_s / EDGE.herald_probability
        expected *= waiting_factor(2, PCAT_2_08)
        assert abs(res.mean_completion_s - expected) <= 3 * res.std_error_s

    @pytest.mark.parametrize("n_edges", [2, 8, 32])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_mean_matches_waiting_factor_on_grid(self, n_edges, p):
        cfg = abstract_config(n_edges=n_edges, trials=30_000, seed=n_edges * 100 + int(p * 10),
                              p_cat_override=p)
        res = simulate_abstract(cfg)
        expected = waiting_factor(n_edges, p)
        assert abs(res.mean_completion_s - expected) <= 3 * res.std_error_s

    def test_deterministic_given_seed(self):
        a = simulate_abstract(abstract_config(seed=77, trials=50_000))
        b = simulate_abstract(abstract_config(seed=77, trials=50_000))
        assert a == b

    def test_seed_changes_draws(self):
        a = simulate_abstract(abstract_config(seed=1, trials=10_000))
        b = simulate_abstract(abstract_config(seed=2, trials=10_000))
        assert a.mean_completion_s != b.mean_completion_s


class TestDetailed:
    def test_starvation_times_out(self):
        # the only aux path first completes long after the run ends
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, 1e3),))
        cfg = SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=aux,
                        initial_stock=0, max_slots=2000, seed=3)
        res = simulate_detailed(cfg)
        assert res.timed_out
        assert res.deliveries == 0
        assert res.rate_hz == 0.0
        assert all(c.catalysis_attempts == 0 for c in res.counters)

    def test_certain_success_never_consumes(self):
        cfg = SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=AuxConfig(AUX_RICH),
                        max_slots=5000, seed=3, p_cat_override=1.0)
        res = simulate_detailed(cfg)
        assert res.deliveries > 0
        assert all(c.catalysts_consumed == 0 for c in res.counters)
        assert all(c.catalysis_failures == 0 for c in res.counters)

    def test_stock_conservation_with_finite_aux(self):
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.9, 2.5e-4),))
        cfg = SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=aux,
                        initial_stock=1, stock_capacity=5, max_slots=20_000, seed=5)
        res = simulate_detailed(cfg)
        assert res.deliveries > 0
        for c in res.counters:
            final_stock = c.catalysts_produced + cfg.initial_stock - c.catalysts_consumed
            assert 0 <= final_stock <= cfg.stock_capacity

    def test_loading_time_matches_mean(self):
        cfg = SimConfig(n_edges=4, mode="detailed", edge=EDGE, aux=AuxConfig(AUX_RICH),
                        max_slots=30_000, seed=11)
        res = simulate_detailed(cfg)
        for c in res.counters:
            assert c.loads_completed >= 2500
            mean_slots = c.loading_slots / c.loads_completed
            assert mean_slots == pytest.approx(
                EDGE.copies / EDGE.herald_probability, rel=0.02
            )

    def test_mean_completion_matches_markov_oracle(self):
        # The slot-level model has a geometrically loaded cycle, so its chain
        # completion time follows the survival recursion, not the fixed-cycle
        # waiting factor.
        cfg = SimConfig(n_edges=4, mode="detailed", edge=EDGE, aux=AuxConfig(AUX_RICH),
                        max_slots=200_000, seed=11)
        res = simulate_detailed(cfg)
        expected_slots = oracles.chain_mean_completion_slots(
            EDGE.copies, EDGE.herald_probability, PCAT_2_08, 4
        )
        mean_slots = res.mean_completion_s / EDGE.cycle_time_s
        assert abs(mean_slots - expected_slots) <= 3 * res.std_error_s / EDGE.cycle_time_s

    def test_no_aux_single_edge_matches_fixed_cycle_rate(self):
        # At N = 1 the fixed-cycle rate is exact for the slot model (Wald's
        # identity): an attempt after a failure also loads n_cat pairs to
        # rebuild the catalyst, as t_edge_cycle charges.
        cfg = SimConfig(n_edges=1, mode="detailed", edge=EDGE, aux=AuxConfig(NO_AUX),
                        initial_stock=0, max_slots=200_000, seed=8)
        res = simulate_detailed(cfg)
        expected = rate_catalytic(EDGE, AuxConfig(NO_AUX), 1).rate_cat_hz
        sigma = res.rate_hz * res.std_error_s / res.mean_completion_s
        assert abs(res.rate_hz - expected) <= 3 * sigma
        ctr = res.counters[0]
        # one catalyst built at the start and one after every failure
        assert ctr.catalysts_produced in (ctr.catalysis_failures, ctr.catalysis_failures + 1)

    def test_no_aux_chain_rebuilds_from_empty_stock(self):
        cfg = SimConfig(n_edges=4, mode="detailed", edge=EDGE, aux=AuxConfig(NO_AUX),
                        initial_stock=0, max_slots=20_000, seed=3)
        res = simulate_detailed(cfg)
        assert not res.timed_out
        assert res.deliveries > 0
        assert all(c.catalysts_produced > 0 for c in res.counters)

    def test_aux_replenishment_feeds_stock(self):
        # zero initial stock: only auxiliary production can enable catalysis
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, 2.5e-4),))
        cfg = SimConfig(n_edges=1, mode="detailed", edge=EDGE, aux=aux,
                        initial_stock=0, max_slots=10_000, seed=2)
        res = simulate_detailed(cfg)
        assert res.deliveries > 0
        assert all(c.catalysts_produced > 0 for c in res.counters)

    def test_slow_aux_clock_limits_production(self):
        # one aux success per 100 slots at most, needing 3 pairs per catalyst
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, 2.5e-2),))
        cfg = SimConfig(n_edges=1, mode="detailed", edge=EDGE, aux=aux,
                        initial_stock=0, max_slots=10_000, seed=2)
        res = simulate_detailed(cfg)
        assert res.counters[0].catalysts_produced <= 10_000 // 100 // 3

    def test_deterministic_record_bytes(self):
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.9, 2.5e-4),))
        def run():
            cfg = SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=aux,
                            initial_stock=1, stock_capacity=4, max_slots=5000, seed=9)
            return json.dumps(result_record(cfg, simulate_detailed(cfg)))
        assert run() == run()

    def test_dispatch(self):
        cfg = abstract_config(trials=100)
        assert run_simulation(cfg) == simulate_abstract(cfg)


REGIMES = {
    "aux_rich": AuxConfig(AUX_RICH),
    "none": AuxConfig(NO_AUX),
    "finite": AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1e-3))),
}


def stock_settings(regime, initial_stock, stock_capacity=None):
    """The stock settings a detailed run of ``regime`` reads: none with plentiful
    aux paths, the initial stock without aux paths, both with finite ones."""
    if regime == "aux_rich":
        return {}
    if regime == "none":
        return dict(initial_stock=initial_stock)
    return dict(initial_stock=initial_stock, stock_capacity=stock_capacity)


# A period below one slot, periods that are not multiples of it, and P = 1.
FINITE_PATHS = {
    "fast": (AuxPath(0.8, 0.2, 1e-4),),
    "off_slot": (AuxPath(0.8, 0.1, 3.3e-4), AuxPath(0.75, 0.4, 7.5e-4)),
    "certain": (AuxPath(0.8, 1.0, 5e-4), AuxPath(0.9, 0.05, 2.5e-4)),
}


# Near alpha = 1 at a small P0: n_cat = 11 copies rebuild the catalyst.
SLOW_REBUILD = EdgeParams(alpha=0.99, copies=2, length_km=25.0, fiber_speed_km_s=2.0e5,
                          herald_probability=0.002)


def record_bytes(simulate, cfg):
    return json.dumps(result_record(cfg, simulate(cfg)))


class TestMatchesSlotStepper:
    """The detailed simulator against the slot-by-slot reference, byte for byte."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("n_edges", [1, 4, 32])
    @pytest.mark.parametrize("copies", [2, 3])
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("initial_stock", [0, 2])
    @pytest.mark.parametrize("p_cat_override", [None, 0.3])
    def test_record_bytes(self, regime, n_edges, copies, trials, initial_stock, p_cat_override):
        edge = EdgeParams(alpha=0.8, copies=copies, length_km=25.0, fiber_speed_km_s=2.0e5,
                          herald_probability=0.5)
        # One slot times out; the others cut the last delivery short.
        for max_slots in (1, 7, 150):
            cfg = SimConfig(n_edges=n_edges, mode="detailed", edge=edge, aux=REGIMES[regime],
                            max_slots=max_slots, trials=trials, seed=1000 * n_edges + max_slots,
                            p_cat_override=p_cat_override,
                            **stock_settings(regime, initial_stock, 3))
            new = record_bytes(simulate_detailed, cfg)
            assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
            assert json.loads(new)["timed_out"] or max_slots > 1

    @pytest.mark.parametrize("regime,edge,runs,max_slots,seed,more_than", [
        # Thousands of deliveries and tens of thousands of load draws per edge.
        *(pytest.param(regime, EDGE, ((1, 0), (5, 3)), 20_000, 17, 2000, id=regime)
          for regime in sorted(REGIMES)),
        # A load that rebuilds the catalyst takes n + n_cat = 13 successes,
        # against about 4 per block of load draws, so it spans several blocks.
        pytest.param("none", SLOW_REBUILD, ((2, 1),), 300_000, 5, 10, id="none-slow-rebuild"),
    ])
    def test_long_runs_cross_every_block(self, regime, edge, runs, max_slots, seed, more_than):
        for n_edges, initial_stock in runs:
            cfg = SimConfig(n_edges=n_edges, mode="detailed", edge=edge, aux=REGIMES[regime],
                            max_slots=max_slots, trials=2, seed=seed,
                            **stock_settings(regime, initial_stock))
            new = record_bytes(simulate_detailed, cfg)
            assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
            assert json.loads(new)["deliveries"] > more_than

    def test_forced_probability_needs_no_catalyst_with_plentiful_aux(self):
        # alpha = 0.6 at n = 2 lies outside the catalysis window, so the edge
        # has no catalyst.  Plentiful aux paths never read one, in either
        # mode; without aux paths the edge still needs n_cat to rebuild its
        # stock.
        edge = EdgeParams(alpha=0.6, copies=2, length_km=25.0, fiber_speed_km_s=2.0e5,
                          herald_probability=0.5)
        cfg = SimConfig(n_edges=3, mode="detailed", edge=edge, max_slots=500, seed=2,
                        p_cat_override=0.5)
        new = record_bytes(simulate_detailed, cfg)
        assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
        assert json.loads(new)["deliveries"] == 37
        # The abstract edge cycle is the primary assembly time alone.
        abstract = dict(n_edges=3, mode="abstract", trials=2000, seed=2, p_cat_override=0.5)
        t_pri = t_primary(2, edge.cycle_time_s, 0.5)
        assert simulate_abstract(SimConfig(edge=edge, **abstract)) == simulate_abstract(
            SimConfig(cycle_time_override_s=t_pri, **abstract)
        )
        for mode, extra in (("detailed", dict(max_slots=500)), ("abstract", dict(trials=2000))):
            with pytest.raises(CatalysisWindowError):
                run_simulation(SimConfig(n_edges=3, mode=mode, edge=edge, aux=AuxConfig(NO_AUX),
                                         seed=2, p_cat_override=0.5, **extra))

    @pytest.mark.parametrize("paths", sorted(FINITE_PATHS))
    @pytest.mark.parametrize("capacity", [None, 0, 1, 3])
    @pytest.mark.parametrize("n_edges", [1, 4])
    def test_finite_aux_paths(self, paths, capacity, n_edges):
        aux = AuxConfig(FINITE_AUX, FINITE_PATHS[paths])
        for initial_stock, p_cat_override in ((0, None), (int(capacity != 0), 0.3)):
            cfg = SimConfig(n_edges=n_edges, mode="detailed", edge=EDGE, aux=aux,
                            initial_stock=initial_stock, stock_capacity=capacity,
                            max_slots=3000, trials=2, seed=31 + initial_stock,
                            p_cat_override=p_cat_override)
            new = record_bytes(simulate_detailed, cfg)
            assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
            # An empty stock that may not grow never allows an attempt.
            assert (json.loads(new)["deliveries"] == 0) == (capacity == 0 and initial_stock == 0)

    def test_chain_that_starves(self):
        # The path ticks once per 4000 slots and needs more than one tick per
        # catalyst, so none is made: an edge that has spent its stock holds a
        # load it cannot attempt until the run ends.
        aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, 1.0),))
        for initial_stock in (0, 2):
            cfg = SimConfig(n_edges=3, mode="detailed", edge=EDGE, aux=aux,
                            initial_stock=initial_stock, max_slots=5000, trials=2, seed=8,
                            p_cat_override=0.5)
            new = record_bytes(simulate_detailed, cfg)
            assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
            record = json.loads(new)
            assert record["timed_out"] == (initial_stock == 0)
            assert any(c["catalysis_failures"] == cfg.trials * initial_stock
                       and c["loads_completed"] > c["catalysis_attempts"]
                       for c in record["counters"])

    def test_working_memory_does_not_grow_with_slots(self):
        # Ten million slots at N = 1 draw ten million load values; held at
        # once they would take 80 MB.  Only the interval record, 8 bytes per
        # delivery from which the mean and its error are computed, may grow.
        sparse = EdgeParams(alpha=0.8, copies=2, length_km=25.0, fiber_speed_km_s=2.0e5,
                            herald_probability=0.01)
        # The finite-aux run also reads 1.25 million aux ticks.
        finite = dict(aux=REGIMES["finite"], initial_stock=1, stock_capacity=2)
        for edge, max_slots, extra in ((sparse, 10**7, {}), (EDGE, 10**6, {}),
                                       (sparse, 10**6, finite)):
            cfg = SimConfig(n_edges=1, mode="detailed", edge=edge, max_slots=max_slots, seed=4,
                            **extra)
            tracemalloc.start()
            try:
                res = simulate_detailed(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.deliveries > 0
            assert peak <= 4 * 2**20 + 16 * res.deliveries


class TestValidateWaitingFactor:
    def test_single_edge(self):
        check = validate_waiting_factor(1, 0.5, 100_000, 21)
        assert check.analytic == pytest.approx(2.0)
        assert check.passed

    def test_two_edges(self):
        check = validate_waiting_factor(2, 0.5, 100_000, 22)
        assert check.analytic == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert check.passed

    def test_eight_edges_low_p(self):
        check = validate_waiting_factor(8, 0.1, 100_000, 23)
        assert check.passed
        assert check.deviation_sigmas <= 3.0

    def test_needs_two_trials(self):
        with pytest.raises(InvalidInputError):
            validate_waiting_factor(2, 0.5, 1, 0)


def sampled_maxima(p, n_edges, trials, seed, inverted):
    """Each trial's largest geometric count, drawn as validate-z draws it (one
    inverted uniform) or as the abstract simulator draws it (N exponentials)."""
    sampler = _MaxOfGeometrics(p, n_edges, trials, seed)

    def largest(size, rng):
        if inverted:
            return sampler.largest_exponentials(rng.random(size))
        return rng.standard_exponential((size, n_edges)).max(axis=1)

    return np.concatenate([sampler.counts(largest(size, rng)) for size, rng in sampler])


def exact_law_p_value(maxima, p, n_edges):
    """Pearson's chi-square p-value of the maxima against P(max <= k) = (1 - q**k)**N."""
    assert maxima.min() >= 1.0
    top = int(maxima.max())
    cdf = (1.0 - (1.0 - p) ** np.arange(top)) ** n_edges  # P(max <= k), k = 0 .. top-1
    expected = maxima.size * np.diff(np.append(cdf, 1.0))  # the last bin holds max >= top
    observed = np.bincount(maxima.astype(np.int64), minlength=top + 1)[1:]
    bins = pooled(observed, expected)
    stat = sum((o - e) ** 2 / e for o, e in bins)
    assert len(bins) >= 3
    return float(mpmath.gammainc((len(bins) - 1) / 2, stat / 2, mpmath.inf, regularized=True))


def pooled(observed, expected, least=20.0):
    """Merge neighbouring bins, from the left, until each expects ``least`` hits."""
    bins = []
    o, e = 0, 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= least:
            bins.append([o, e])
            o, e = 0, 0.0
    bins[-1][0] += o
    bins[-1][1] += e
    return bins


# Numpy's geometric inverts the same exponentials below p = 1/3; the largest
# double below 1/3 is the last p where it does.
BELOW_A_THIRD = (0.02, 0.3, math.nextafter(1.0 / 3.0, 0.0))
TRIAL_COUNTS = [2, _BATCH_TRIALS - 1, _BATCH_TRIALS, _BATCH_TRIALS + 1, 50_000]


class TestMaxOfGeometrics:
    """The sampler against scalar references and against the exact law."""

    @pytest.mark.parametrize("n_edges", [1, 8, 32])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_waiting_factor_check_matches_geometric_draws(self, n_edges, trials):
        # validate-z's largest count per trial, against the same uniforms
        # inverted one at a time with math.log, math.expm1 and math.ceil.
        for p in (*BELOW_A_THIRD, 1.0 / 3.0, 0.5, 0.9, 1.0):
            check = validate_waiting_factor(n_edges, p, trials, trials + n_edges)
            reference = oracles.max_of_inverted_uniforms(p, n_edges, trials, trials + n_edges)
            assert (check.empirical_mean, check.std_error) == reference

    @pytest.mark.parametrize("n_edges", [1, 8, 32])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("t_cycle", [1.0, 3.7e-4])
    def test_abstract_record_matches_geometric_draws(self, n_edges, trials, t_cycle):
        # The record holds the mean, its error and every edge's attempt total.
        for p in BELOW_A_THIRD:
            cfg = abstract_config(n_edges=n_edges, trials=trials, seed=trials + n_edges,
                                  p_cat_override=p, cycle_time_override_s=t_cycle)
            new = record_bytes(simulate_abstract, cfg)
            assert new == record_bytes(oracles.simulate_abstract_geometric, cfg)

    @pytest.mark.parametrize("n_edges", [1, 8, 32, 4096])
    @pytest.mark.parametrize("p", [*BELOW_A_THIRD, 1.0 / 3.0, 0.5, 0.9])
    def test_maxima_follow_the_exact_law(self, n_edges, p):
        # validate-z's inverted maxima follow the exact law at every p.
        maxima = sampled_maxima(p, n_edges, 100_000, 500 + n_edges, inverted=True)
        assert exact_law_p_value(maxima, p, n_edges) > 1e-3

    @pytest.mark.parametrize("n_edges", [1, 8, 32])
    @pytest.mark.parametrize("p", [1.0 / 3.0, 0.5, 0.9])
    def test_block_maxima_follow_the_exact_law(self, n_edges, p):
        # From p = 1/3 up the abstract simulator's draws differ from numpy's
        # geometric, so its maxima are tested against the exact law instead.
        maxima = sampled_maxima(p, n_edges, 100_000, 500 + n_edges, inverted=False)
        assert exact_law_p_value(maxima, p, n_edges) > 1e-3

    def test_certain_success_counts_one(self):
        sampler = _MaxOfGeometrics(1.0, 4, 10, 3, 0.25)
        for size, rng in sampler:
            assert np.all(sampler.counts(rng.standard_exponential((size, 4))) == 1.0)
            sampler.add(sampler.largest_exponentials(rng.random(size)))
        assert sampler.mean_and_error() == (0.25, 0.0)
        check = validate_waiting_factor(4, 1.0, 10, 3)
        assert (check.empirical_mean, check.analytic, check.std_error) == (1.0, 1.0, 0.0)
        assert check.deviation_sigmas == 0.0 and check.passed
        res = simulate_abstract(abstract_config(n_edges=3, trials=9000, p_cat_override=1.0))
        assert [c.catalysis_attempts for c in res.counters] == [9000] * 3

    def test_count_is_never_zero(self):
        # An exponential draw can be exactly 0.0.
        sampler = _MaxOfGeometrics(0.1, 1, 2, 0)
        assert sampler.counts(np.array([0.0, 5e-324, 0.1])).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_edges", [1, 32, 4096])
    def test_zero_uniform_counts_one_without_a_warning(self, n_edges):
        # Generator.random can return exactly 0.0, whose log is -inf.
        sampler = _MaxOfGeometrics(0.1, n_edges, 2, 0)
        largest = sampler.largest_exponentials(np.array([0.0, 2.0**-53]))
        assert largest[0] == 0.0
        assert largest[1] == pytest.approx(-math.log1p(-(2.0**-53) ** (1.0 / n_edges)), rel=1e-12)
        assert sampler.counts(largest)[0] == 1.0

    @pytest.mark.parametrize("p", [1e-300, 9.9e-11])
    def test_rejects_p_below_the_floor(self, p):
        # At 1e-300 the counts passed INT64_MAX and the check reported a pass.
        with pytest.raises(InvalidInputError):
            validate_waiting_factor(4, p, 1000, 1)
        with pytest.raises(InvalidInputError):
            simulate_abstract(abstract_config(p_cat_override=p))

    def test_floor_statistics_are_finite_and_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = {n: validate_waiting_factor(n, 1e-10, 20_000, 1) for n in (32, 4096)}
            cfg = abstract_config(n_edges=32, trials=20_000, p_cat_override=1e-10)
            new = record_bytes(simulate_abstract, cfg)
        for n_edges, check in checks.items():
            assert check.passed
            reference = oracles.max_of_inverted_uniforms(1e-10, n_edges, 20_000, 1)
            assert (check.empirical_mean, check.std_error) == reference
            # The largest uniform below 1 gives the largest count, ~ (36.74 + ln N) / lam,
            # and below 2**39 a batch of counts sums exactly.
            sampler = _MaxOfGeometrics(1e-10, n_edges, 1, 0)
            top = sampler.counts(sampler.largest_exponentials(np.array([1.0 - 2.0**-53])))[0]
            assert top == pytest.approx((36.7368 + math.log(n_edges)) / sampler.lam, rel=1e-5)
            assert top < 2**39
        assert new == record_bytes(oracles.simulate_abstract_geometric, cfg)

    def test_zero_spread_passes_only_when_exact(self):
        # Each count exceeds 1 with probability 1e-6, so both trials count 1
        # and the error is 0, while the analytic mean is 1 / p.
        check = validate_waiting_factor(1, 1.0 - 1e-6, 2, 5)
        assert (check.empirical_mean, check.std_error) == (1.0, 0.0)
        assert check.analytic > 1.0
        assert check.deviation_sigmas == math.inf
        assert not check.passed

    def test_memory_stays_within_two_batches(self):
        # One uniform per trial whatever N is; a block of all N exponentials
        # would take _BATCH_TRIALS * 4096 * 8 bytes, 268 MB.
        tracemalloc.start()
        try:
            validate_waiting_factor(4096, 0.1, 10**6, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _BATCH_TRIALS * 8 + 16 * 1024

    def test_abstract_memory_is_bounded(self):
        # Every edge's count is drawn, but a batch's block of all N
        # exponentials would take _BATCH_TRIALS * 512 * 8 bytes, 32 MiB; the
        # rows come a chunk at a time, with the same bytes.
        cfg = abstract_config(n_edges=512, trials=_BATCH_TRIALS + 3, seed=6, p_cat_override=0.3)
        tracemalloc.start()
        try:
            new = record_bytes(simulate_abstract, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert new == record_bytes(oracles.simulate_abstract_geometric, cfg)
