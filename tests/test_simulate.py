import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import entcat._engine
from entcat._engine import (
    _BATCH_TRIALS,
    _FIRST_BLOCK_LOADS,
    _MaxOfGeometrics,
    _Stock,
    _completions,
    _period_in_slots,
    _rng,
    _success_bound,
)
from entcat.errors import CatalysisWindowError, InvalidInputError
from entcat.network import AUX_RICH, FINITE_AUX, NO_AUX, AuxConfig, AuxPath, EdgeParams
from entcat.simulate import (
    SimConfig,
    _resolved_parameters,
    result_record,
    run_simulation,
    simulate_abstract,
    simulate_detailed,
    validate_waiting_factor,
)
from entcat.catalysis import copies_for_catalyst
from entcat.network import edge_catalyst, rate_catalytic, rate_slotted, t_primary, waiting_factor

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

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_a_forced_probability_outside_the_unit_interval(self, value):
        with pytest.raises(InvalidInputError, match="forced success probability must lie in"):
            abstract_config(p_cat_override=value)

    @pytest.mark.parametrize("setting", [dict(p_cat_override=True), dict(p_cat_override="0.5"),
                                         dict(cycle_time_override_s=True),
                                         dict(cycle_time_override_s="1")],
                             ids=["p_bool", "p_str", "t_bool", "t_str"])
    def test_rejects_a_forced_value_that_is_not_a_real_number(self, setting):
        # True was once a forced probability of 1 and a cycle of 1 s.
        with pytest.raises(InvalidInputError, match="must be a real number"):
            abstract_config(**setting)

    @pytest.mark.parametrize("run,mode", [(simulate_abstract, "detailed"),
                                          (simulate_detailed, "abstract")])
    def test_each_simulator_takes_its_own_mode(self, run, mode):
        cfg = SimConfig(n_edges=2, mode=mode, edge=EDGE)
        with pytest.raises(InvalidInputError, match="config mode must be"):
            run(cfg)

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
@pytest.mark.parametrize("value", [2.5, 100.5, 4.0, "4", True, np.array([4])])
def test_counts_must_be_integers(build, value):
    # a non-integral count, or a one-entry column, once built a config whose
    # run raised a bare TypeError, or gave validate-z a verdict; numpy
    # integers are counts
    with pytest.raises(InvalidInputError, match="integer"):
        build(value)
    build(np.int64(4))


def test_numpy_counts_give_the_plain_int_record():
    # the config stores plain ints, so its record is JSON and byte for byte
    # the record of the same run given Python ints
    def record(count):
        cfg = SimConfig(n_edges=count(3), mode="detailed", edge=EdgeParams(alpha=0.8),
                        max_slots=count(200), seed=count(1))
        return json.dumps(result_record(cfg, run_simulation(cfg)))

    assert record(np.int64) == record(int)


@pytest.mark.parametrize("real", [np.float32, np.float64])
def test_numpy_reals_give_the_plain_float_record(real):
    # a float32 edge once ran in single precision, and its record could not
    # be written as JSON; the config now stores what float() of it gives
    def record(value):
        edge = EdgeParams(alpha=value(0.8), herald_probability=value(0.5))
        cfg = SimConfig(n_edges=3, mode="detailed", edge=edge, max_slots=200, seed=1,
                        p_cat_override=value(0.75))
        return json.dumps(result_record(cfg, run_simulation(cfg)))

    assert record(real) == record(lambda x: float(real(x)))


def test_numpy_real_gives_a_plain_float_waiting_factor_check():
    # validate-z prints json.dumps(asdict(check)); a float32 p was once
    # echoed as it was given, which json cannot write
    check = validate_waiting_factor(4, np.float32(0.5), 100, 1)
    assert type(check.p) is float
    assert json.dumps(asdict(check)) == json.dumps(asdict(validate_waiting_factor(4, 0.5, 100, 1)))


class TestResolvedParameters:
    # What a run reads: its catalysis probability, the copies one catalyst
    # takes from each supply, and, in abstract mode, its edge-cycle time.
    OUT_OF_WINDOW = EdgeParams(alpha=0.6)  # n_star(0.6) = 2, so no catalyst at n = 2

    def test_both_overrides_read_no_edge(self):
        assert _resolved_parameters(abstract_config()) == (0.5, (), 1.0)

    @pytest.mark.parametrize("mode", ["abstract", "detailed"])
    def test_aux_rich_forced_probability_reads_no_catalyst(self, mode):
        cfg = SimConfig(n_edges=2, mode=mode, edge=self.OUT_OF_WINDOW, p_cat_override=0.5)
        t_cycle = t_primary(2, self.OUT_OF_WINDOW.cycle_time_s, 0.5) if mode == "abstract" else None
        assert _resolved_parameters(cfg) == (0.5, (), t_cycle)

    @pytest.mark.parametrize("aux", [
        AuxConfig(NO_AUX), AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.9, 1e-3),)),
    ], ids=["none", "finite"])
    @pytest.mark.parametrize("mode", ["abstract", "detailed"])
    def test_every_other_run_reads_the_catalyst(self, aux, mode):
        with pytest.raises(CatalysisWindowError):
            _resolved_parameters(SimConfig(n_edges=2, mode=mode, edge=self.OUT_OF_WINDOW,
                                           aux=aux, p_cat_override=0.5))
        cfg = SimConfig(n_edges=2, mode=mode, edge=EDGE, aux=aux)
        p_cat, copies, t_cycle = _resolved_parameters(cfg)
        # n = 2, alpha = 0.8: the two-qubit catalyst takes 3 copies at alpha 0.8.
        assert (p_cat, copies) == (PCAT_2_08, (3,))
        if mode == "abstract":
            assert t_cycle == rate_catalytic(EDGE, aux, 2).t_edge_cycle_s
        else:
            assert t_cycle is None
        forced = SimConfig(n_edges=2, mode=mode, edge=EDGE, aux=aux, p_cat_override=0.5)
        assert _resolved_parameters(forced)[:2] == (0.5, (3,))


def test_numpy_counts_give_a_plain_int_waiting_factor_check():
    # validate-z prints json.dumps(asdict(check)); numpy counts were once
    # echoed as np.int64 fields, which json cannot write
    check = validate_waiting_factor(np.int64(4), 0.5, np.int64(100), np.int64(1))
    assert [type(v) for v in (check.n_edges, check.trials)] == [int, int]
    assert json.dumps(asdict(check)) == json.dumps(asdict(validate_waiting_factor(4, 0.5, 100, 1)))


@pytest.mark.parametrize("build,message", [
    (lambda: abstract_config(n_edges=0), "edge count must be a positive integer, got 0"),
    (lambda: abstract_config(trials=0), "trials must be a positive integer, got 0"),
    (lambda: abstract_config(seed=-1), "seed must be a non-negative integer, got -1"),
    (lambda: SimConfig(n_edges=2, mode="detailed", edge=EDGE, max_slots=0),
     "max_slots must be a positive integer, got 0"),
    (lambda: SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=AuxConfig(NO_AUX),
                       initial_stock=-1),
     "initial stock must be a non-negative integer, got -1"),
    (lambda: SimConfig(n_edges=2, mode="detailed", edge=EDGE, aux=FINITE_AUX_CONFIG,
                       initial_stock=3, stock_capacity=2),
     "stock capacity covering the initial stock of 3 must be an integer >= 3, got 2"),
    (lambda: validate_waiting_factor(0, 0.5, 100, 0),
     "edge count must be a positive integer, got 0"),
    (lambda: validate_waiting_factor(2, 0.5, 1, 0), "trials must be an integer >= 2, got 1"),
    (lambda: validate_waiting_factor(2, 0.5, 100, -1),
     "seed must be a non-negative integer, got -1"),
], ids=["n_edges", "trials", "seed", "max_slots", "initial_stock", "stock_capacity",
        "validate_n_edges", "validate_trials", "validate_seed"])
def test_count_messages_name_the_bound(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


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

    @pytest.mark.parametrize("period", [2.5e-4, 1e-3, 2.5e-3, 1e-2])
    def test_finite_aux_single_edge_stays_under_fluid_bound(self, period):
        # A lone edge delivers no faster than with plentiful aux paths
        # (rate_slotted), nor than its supply allows: each failure spends one
        # catalyst and path i makes s = P_i / (m_i T_i) of them per second, so
        # deliveries come at most at s p / (1 - p).  Only at T = 1e-2 s does
        # the supply term bind.
        path = AuxPath(0.8, 0.9, period)
        catalyst = edge_catalyst(EDGE)
        copies = copies_for_catalyst(catalyst.spectrum, path.alpha)
        supply = path.gen_probability / (copies * period)
        p = catalyst.success_probability
        bound = min(rate_slotted(EDGE, 1), supply * p / (1.0 - p))
        for capacity, seed in itertools.product((1, 2, 8, None), (1, 2)):
            cfg = SimConfig(n_edges=1, mode="detailed", edge=EDGE,
                            aux=AuxConfig(FINITE_AUX, (path,)), initial_stock=1,
                            stock_capacity=capacity, max_slots=200_000, seed=seed)
            res = simulate_detailed(cfg)
            sigma = res.rate_hz * res.std_error_s / res.mean_completion_s
            assert res.rate_hz <= bound + 3 * sigma

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


# A period below one slot, periods that are not multiples of it (3.3e-4 s
# is 33/25 of EDGE's t0 = 2.5e-4 s), P = 1, and a quarter of a slot.  The
# slot_boundary period, 3 t0 (1 + 1e-9), lies just outside delta of three
# slots (_period_in_slots), so it is read as 499999966/166666655 slots and
# tick k lands in slot 3k + 1, not 3k; at 0.55 one copy makes a catalyst,
# so every tick completes one.
FINITE_PATHS = {
    "fast": (AuxPath(0.8, 0.2, 1e-4),),
    "off_slot": (AuxPath(0.8, 0.1, 3.3e-4), AuxPath(0.75, 0.4, 7.5e-4)),
    "certain": (AuxPath(0.8, 1.0, 5e-4), AuxPath(0.9, 0.05, 2.5e-4)),
    "slot_boundary": (AuxPath(0.55, 1.0, float.fromhex("0x1.89374bcd40c94p-11")),),
    "sub_slot": (AuxPath(0.8, 0.2, 6.25e-5),),
}


# Near alpha = 1 at a small P0: n_cat = 11 copies rebuild the catalyst.
SLOW_REBUILD = EdgeParams(alpha=0.99, copies=2, length_km=25.0, fiber_speed_km_s=2.0e5,
                          herald_probability=0.002)


# Deliveries in the detailed simulator's first block of a trial at EDGE's
# p_cat, at N up to 64, where the memory bound allows more.
EDGE_BLOCK = int(_FIRST_BLOCK_LOADS * PCAT_2_08)


def record_bytes(simulate, cfg):
    return json.dumps(result_record(cfg, simulate(cfg)))


def trial_blocks(monkeypatch):
    """Record, for each trial the detailed simulator runs, its deliveries and block sizes."""
    trials = []
    trial, block = entcat._engine._trial, entcat._engine._Runs.block

    def spy_trial(*args):
        trials.append([None, []])
        trials[-1][0] = trial(*args)
        return trials[-1][0]

    def spy_block(self, count):
        trials[-1][1].append(count)
        return block(self, count)

    monkeypatch.setattr(entcat._engine, "_trial", spy_trial)
    monkeypatch.setattr(entcat._engine._Runs, "block", spy_block)
    return trials


class TestMatchesSlotStepper:
    """The detailed simulator against the slot-by-slot reference, byte for byte."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("n_edges", [1, 2, 3, 4, 32])
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

    @pytest.mark.parametrize("regime,edge,runs,max_slots,seed,more_than,blocks", [
        # Thousands of deliveries and tens of thousands of load draws per edge.
        *(pytest.param(regime, EDGE, ((1, 0), (5, 3)), 20_000, 17, 2000, None, id=regime)
          for regime in sorted(REGIMES)),
        # More than three blocks of deliveries per trial, from an empty stock:
        # with the memory bound lowered to 4096 loads, a block holds at most
        # 1024 deliveries, against 3800-4500 per trial.  At the default bound
        # each of these trials takes two blocks, so more shows the bound read.
        *(pytest.param(regime, EDGE, ((1, 0),), 20_000, 23, 6 * EDGE_BLOCK, "capped",
                       id=f"{regime}-three-blocks")
          for regime in sorted(REGIMES)),
        # Trial 0 makes exactly its first block of deliveries, and the end
        # cuts the first delivery of the next block short: max_slots lies
        # between trial 0's EDGE_BLOCK-th delivery and the one after it.
        *(pytest.param(regime, EDGE, ((4, 0, 2),), max_slots, 41, EDGE_BLOCK, "cut",
                       id=f"{regime}-cut-at-block-start")
          for regime, max_slots in (("aux_rich", 6685), ("finite", 8116), ("none", 9089))),
        # At N = 32 some edge fails, and so steps the stock, in almost every
        # delivery; trial 0 passes one block.
        pytest.param("finite", EDGE, ((32, 1, 2),), 17_500, 43, 1800, None, id="finite-32-edges"),
        # A load that rebuilds the catalyst takes n + n_cat = 13 successes at
        # P0 = 0.002, some 6500 load draws, so the loads a block reads need
        # more draws than one read makes, and the load stream is read
        # several times per block.
        pytest.param("none", SLOW_REBUILD, ((2, 1),), 300_000, 5, 10, None,
                     id="none-slow-rebuild"),
    ])
    def test_long_runs_cross_every_block(self, monkeypatch, regime, edge, runs, max_slots, seed,
                                         more_than, blocks):
        if blocks == "capped":
            monkeypatch.setattr(entcat._engine, "_BLOCK_LOADS", 4 * _FIRST_BLOCK_LOADS)
        for n_edges, initial_stock, *capacity in runs:
            cfg = SimConfig(n_edges=n_edges, mode="detailed", edge=edge, aux=REGIMES[regime],
                            max_slots=max_slots, trials=2, seed=seed,
                            **stock_settings(regime, initial_stock, *capacity))
            trials = trial_blocks(monkeypatch)
            new = record_bytes(simulate_detailed, cfg)
            assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
            assert json.loads(new)["deliveries"] > more_than
            if blocks == "capped":
                assert all(len(sizes) > 3 for _, sizes in trials)
            if blocks == "cut":
                delivered, sizes = trials[0]
                assert delivered == sum(sizes[:-1]) == EDGE_BLOCK

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("n_edges,max_slots", [(257, 150), (4096, 10)])
    def test_many_edges(self, regime, n_edges, max_slots):
        # Blocks are capped by the memory bound less the trial's streams,
        # 196 deliveries at N = 257 (42 where finite-aux runs may step, which
        # read a quarter of the loads, and 1 at N = 4096), and by the
        # max_slots // n + 1 a trial can hold, 76 at N = 257 over 150 slots
        # and 6 at N = 4096 over 10.  There most load streams run out inside
        # the first block, some edges find no success at all, and a read
        # leaves some rows empty.  Ten slots are too few for all 4096 edges
        # to finish a run, so that trial times out.
        cfg = SimConfig(n_edges=n_edges, mode="detailed", edge=EDGE, aux=REGIMES[regime],
                        max_slots=max_slots, seed=n_edges + max_slots,
                        **stock_settings(regime, 1, 2))
        new = record_bytes(simulate_detailed, cfg)
        assert new == record_bytes(oracles.simulate_detailed_stepper, cfg)
        record = json.loads(new)
        assert record["timed_out"] == (n_edges == 4096)
        assert sum(c["catalysis_successes"] > 0 for c in record["counters"]) > n_edges // 2

    def test_short_trial_reads_few_attempt_values(self, monkeypatch):
        # Every run takes at least n = 2 loading slots, so a 30-slot trial
        # holds at most 15 deliveries and the one the end cuts: its block
        # asks each edge for 16 successes, one read of
        # ceil((16 + 3 sqrt(16 (1 - p_cat))) / p_cat) + 16 = 39 attempt values.
        # An edge whose load stream is spent reads no more of them.
        taken = []
        streams = entcat._engine._streams

        def spy(seed, shape):
            for rng in streams(seed, shape):
                taken.append(rng)
                yield rng

        monkeypatch.setattr(entcat._engine, "_streams", spy)
        cfg = SimConfig(n_edges=32, mode="detailed", edge=EDGE, max_slots=30, seed=6)
        assert simulate_detailed(cfg).deliveries > 0
        for edge in range(cfg.n_edges):
            # Each stream's next word says how many it has drawn.
            for stream, most in ((0, cfg.max_slots), (1, 39)):
                words = _rng(cfg.seed, 0, edge, stream).bit_generator.random_raw(1024)
                following = taken[2 * edge + stream].bit_generator.random_raw()
                assert 0 < np.flatnonzero(words == following)[0] <= most

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
        # The path ticks once per 4000 slots, or once per some 4e309 slots,
        # whose ratio to t0 overflows a double, and needs more than one tick
        # per catalyst, so none is made: an edge that has spent its stock
        # holds a load it cannot attempt until the run ends.
        for period, initial_stock in itertools.product((1.0, 1e306), (0, 2)):
            aux = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, period),))
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
        # The finite-aux run also reads 1.25 million aux ticks, and the run
        # without aux paths a million load values one success at a time.
        # At N = 1024 every block reads all 2048 streams into whole arrays,
        # and the streams' generators alone take about 2 MB.  The finite-aux
        # chains at N = 32 to 512 step runs, and a stepped block holds its
        # stepped runs as Python ints while it is walked, so it reads a
        # quarter of the loads.  At N = 256 and 512 the aux paths' pieces are
        # a share of the bound; at N = 512 the 2048 streams' generators take
        # about 2 MB too.  A finite chain at N = 1024, whose 4096 streams
        # take about 4 MB, exceeds the bound (README).
        finite = dict(aux=REGIMES["finite"], initial_stock=1, stock_capacity=2)
        for edge, max_slots, extra in ((sparse, 10**7, {}), (EDGE, 10**6, {}),
                                       (sparse, 10**6, finite),
                                       (EDGE, 10**6, dict(aux=REGIMES["none"])),
                                       (EDGE, 3000, dict(n_edges=1024)),
                                       (EDGE, 62_500, dict(finite, n_edges=32)),
                                       (EDGE, 31_250, dict(finite, n_edges=64)),
                                       (EDGE, 15_625, dict(finite, n_edges=128)),
                                       (EDGE, 8_000, dict(finite, n_edges=256)),
                                       (EDGE, 4_000, dict(finite, n_edges=512))):
            cfg = SimConfig(**{"n_edges": 1, **extra}, mode="detailed", edge=edge,
                            max_slots=max_slots, seed=4)
            tracemalloc.start()
            try:
                res = simulate_detailed(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.deliveries > 0
            assert peak <= 4 * 2**20 + 16 * res.deliveries


DELTA = Fraction(1, 10**9)


def smallest_denominator(ratio):
    """The rational of smallest denominator within DELTA relative of ``ratio``, searched."""
    lo, hi = ratio * (1 - DELTA), ratio * (1 + DELTA)
    for den in itertools.count(1):
        num = math.ceil(lo * den)
        if num <= hi * den:
            return num, den


def rational_periods(t0, count, largest):
    """``count`` seeded (period, (a, b)): r = a / b in [0.3, 40] in lowest terms, with b
    at most ``largest``, and a period r t0 off by less than DELTA relative."""
    rng = np.random.default_rng(29)
    periods = []
    while len(periods) < count:
        den = int(rng.integers(1, largest + 1))
        ratio = Fraction(int(rng.integers(math.ceil(0.3 * den), 40 * den + 1)), den)
        off = 1.0 + float(rng.uniform(-0.9, 0.9)) * 1e-9
        periods.append((float(ratio) * t0 * off, (ratio.numerator, ratio.denominator)))
    return periods


def certain_stock(period, max_slots, capacity=None, initial_stock=0):
    """One edge's stock fed by one path of ``period`` at P = 1, one copy a
    catalyst, so that every tick completes one."""
    cfg = SimpleNamespace(stock_capacity=capacity, initial_stock=initial_stock,
                          max_slots=max_slots, n_edges=1,
                          aux=SimpleNamespace(paths=[AuxPath(0.8, 1.0, period)]))
    return _Stock(cfg, [_rng(0)], [1], [_period_in_slots(period, EDGE.cycle_time_s)])


class TestTickRule:
    """The aux tick rule of the detailed simulator: each period a rational number of slots.

    A path's period T is read as the simplest rational a / b slots within
    delta = 1e-9 relative of T / t0 (_period_in_slots), and tick k (counted
    from 1) is applied in the first slot s with k a / b <= s.
    """

    @pytest.mark.parametrize("period", sorted(
        {path.gen_time_s for paths in (REGIMES["finite"].paths, *FINITE_PATHS.values())
         for path in paths}) + ["random"])
    def test_stock_ticks_match_the_fraction_brute_force(self, period):
        # A stock of no capacity refilled slot by slot, through 10**5, has
        # produced exactly the ticks through each slot and holds the slot of
        # the next as its next completion.
        t0 = EDGE.cycle_time_s
        periods = ([period] if period != "random"
                   else [period for period, _ in rational_periods(t0, 8, 1000)])
        slots = 10**5
        for period in periods:
            stock = certain_stock(period, slots)
            step = due = Fraction(*_period_in_slots(period, t0))
            ticks = 0
            for slot in range(1, slots + 1):
                while due <= slot:  # tick k is due at k a / b slots
                    ticks, due = ticks + 1, due + step
                stock.refill(slot)
                assert stock.produced == stock.stock == ticks, (period, slot)
                assert stock.next == math.ceil(due), (period, slot)
            assert stock.next > slots

    def test_snap_is_the_smallest_denominator(self):
        t0 = EDGE.cycle_time_s
        ratios = set()
        for period, (a, b) in rational_periods(t0, 100, 10**4 - 1):
            ratio = Fraction(period) / Fraction(t0)
            snapped = _period_in_slots(period, t0)
            assert snapped == smallest_denominator(ratio), period
            assert snapped[1] <= b
            ratios.add(snapped == (a, b))
        assert ratios == {True, False}  # some snap to a simpler ratio than the one drawn

    def test_tested_periods_read_as_listed(self):
        t0 = EDGE.cycle_time_s
        listed = {2.5e-4: (1, 1), 1e-3: (4, 1), 1e-4: (2, 5), 3.3e-4: (33, 25),
                  7.5e-4: (3, 1), 5e-4: (2, 1), 6.25e-5: (1, 4),
                  FINITE_PATHS["slot_boundary"][0].gen_time_s: (499999966, 166666655)}
        assert {period: _period_in_slots(period, t0) for period in listed} == listed

    def test_delta_bounds_the_snap(self):
        # delta/2 from three slots reads as three, 2 delta from it does not.
        t0 = EDGE.cycle_time_s
        for sign in (1.0, -1.0):
            assert _period_in_slots(3.0 * t0 * (1.0 + sign * 0.5e-9), t0) == (3, 1)
            assert _period_in_slots(3.0 * t0 * (1.0 + sign * 2e-9), t0) != (3, 1)
            assert _period_in_slots(t0 / 3.0 * (1.0 + sign * 0.5e-9), t0) == (1, 3)
        # The bound is closed: 3e9 / (1e9 -+ 1) is exactly delta from three
        # (3 = x (1 -+ delta)), both doubles exact.
        assert _period_in_slots(3e9, 1e9 - 1.0) == _period_in_slots(3e9, 1e9 + 1.0) == (3, 1)

    def test_the_rule_has_no_reach(self):
        # A path of one slot's period ticks once a slot however long the run:
        # a full stock restarted after slot 10**12, with 10**12 ticks through
        # it, completes its next catalyst in slot 10**12 + 1.  The float
        # rule, k T <= s t0 (1 + 1e-9), held 10**9 + 1 ticks through slot 10**9.
        t0 = EDGE.cycle_time_s
        assert _period_in_slots(t0, t0) == (1, 1)
        stock = certain_stock(t0, 10**12, capacity=1, initial_stock=1)
        assert stock.next == math.inf
        stock.resume(10**12)
        assert stock.next == 10**12 + 1
        # A period whose ratio to t0 overflows a double reads as a whole
        # number of slots past any run.
        a, b = _period_in_slots(1e306, t0)
        assert b == 1 and a == math.ceil(Fraction(1e306) / Fraction(t0) * (1 - DELTA))


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

    def counts(size, rng):
        if inverted:
            with np.errstate(divide="ignore"):  # as validate-z calls it
                return sampler.counts(sampler.negated_largest(rng.random(size)), negated=True)
        return sampler.counts(rng.standard_exponential((size, n_edges)).max(axis=1))

    return np.concatenate([counts(size, rng) for size, rng in sampler])


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
            with np.errstate(divide="ignore"):  # as validate-z calls it
                sampler.add(sampler.negated_largest(rng.random(size)), negated=True)
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
    def test_zero_uniform_counts_one_without_a_warning(self, n_edges, monkeypatch):
        # Generator.random can return exactly 0.0, whose log is -inf.
        sampler = _MaxOfGeometrics(0.1, n_edges, 2, 0)
        with np.errstate(divide="ignore"):  # as validate-z calls it
            negated = sampler.negated_largest(np.array([0.0, 2.0**-53]))
        assert negated[0] == 0.0
        assert -negated[1] == pytest.approx(-math.log1p(-(2.0**-53) ** (1.0 / n_edges)), rel=1e-12)
        assert sampler.counts(negated, negated=True)[0] == 1.0

        # validate-z itself, given a batch of zero uniforms.
        class ZeroUniforms:
            def random(self, out):
                out[:] = 0.0
                return out

        monkeypatch.setattr(_MaxOfGeometrics, "__iter__",
                            lambda self: iter([(self.trials, ZeroUniforms())]))
        check = validate_waiting_factor(n_edges, 0.1, 2, 0)
        assert (check.empirical_mean, check.std_error) == (1.0, 0.0)

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
            negated = sampler.negated_largest(np.array([1.0 - 2.0**-53]))
            top = sampler.counts(negated, negated=True)[0]
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


# Edge and aux-path probabilities of the suite and the benchmark, p = 1 and
# the largest p below it, and a p below one word's resolution.
DRAW_PROBABILITIES = [1.0, 1.0 - 2.0**-53, PCAT_2_08, 0.9, 0.5, 0.3, 0.05, 0.002, 2.0**-60]


class TestAuxCompletions:
    """An aux path's completions against every n-th ``Generator.random(limit) < p``."""

    @pytest.mark.parametrize("p", DRAW_PROBABILITIES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_every_nth_success_across_pieces(self, monkeypatch, n, p):
        # Pieces of 7 draws and a limit that is no multiple of 7: the
        # successes carry from piece to piece, draw limit + 1, past every
        # tick, follows the last completion, and no draw is taken past the
        # limit.
        monkeypatch.setattr(entcat._engine, "_DRAW_BLOCK", 7)
        limit = 7 * 1000 + 4
        successes = (_rng(5, 1, 2, 0).random(limit) < p).nonzero()[0] + 1
        expected = successes[n - 1 :: n].tolist()
        rng = _rng(5, 1, 2, 0)
        reads = []  # the size of each read, all 7 but the last

        def read(size):
            reads.append(size)
            return rng.bit_generator.random_raw(size)

        # One path's pieces, which the memory bound leaves at _DRAW_BLOCK.
        completions = _completions(SimpleNamespace(bit_generator=SimpleNamespace(random_raw=read)),
                                   p, n, limit, 1)
        assert list(itertools.islice(completions, len(expected) + 3)) == expected + [limit + 1] * 3
        assert reads == [7] * 1000 + [4]
        next_word = _rng(5, 1, 2, 0).bit_generator.random_raw(limit + 1)[-1]
        assert rng.bit_generator.random_raw() == next_word

    @pytest.mark.parametrize("p", DRAW_PROBABILITIES)
    def test_words_next_to_the_threshold(self, p):
        # The double of word w is (w >> 11) * 2**-53: the first and last
        # words of the last double below p, and of the first one not below.
        k = math.ceil(p * 2.0**53)
        words = [(k - 1) << 11, ((k - 1) << 11) | 0x7FF]
        if k < 2**53:
            words += [k << 11, (k << 11) | 0x7FF]
        succeeds = np.array(words, np.uint64) <= _success_bound(p)
        assert succeeds.tolist() == [(w >> 11) * 2.0**-53 < p for w in words]


# One-, two- and three-word seeds; the last makes a (seed, trial, edge,
# stream) key six words long, past SeedSequence's pool of four.
KEY_SEEDS = [0, 1, 2**31 - 1, 2**32, 2**64 + 5]


class TestStreamKeys:
    """The streams' keys from one vectorised pass against numpy's SeedSequence."""

    @staticmethod
    def raw_words(rng, count=8):
        return rng.bit_generator.random_raw(count).tolist()

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_detailed_keys_are_seedsequence_keys(self, seed):
        rows = np.array([(t, e, k) for t in (0, 1, 99) for e in (0, 1, 2, 31, 255, 1000, 4095)
                         for k in range(4)])
        keys = entcat._engine._philox_keys((seed,), rows)
        assert keys.dtype == np.uint64
        assert keys.tolist() == oracles.seedsequence_keys((seed,), rows).tolist()

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_batch_keys_are_seedsequence_keys(self, seed):
        # Two-word keys, and three- and four-word ones for the larger seeds:
        # SeedSequence pads the pool with hashes of zero.
        rows = np.arange(70)[:, None]
        keys = entcat._engine._philox_keys((seed,), rows)
        assert keys.tolist() == oracles.seedsequence_keys((seed,), rows).tolist()

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("shape", [(3, 5, 4), (70,), (1,), (2,), (1, 1, 2)],
                             ids=["detailed", "batches", "one-batch", "two-batches", "one-edge"])
    def test_streams_are_rng_streams(self, monkeypatch, seed, shape):
        # Chunks of 7 keys end inside a trial and inside an edge's streams;
        # the smallest runs, one batch or one edge's two streams, take the
        # same pass.
        monkeypatch.setattr(entcat._engine, "_KEY_CHUNK", 7)
        passes = []  # the keys of each pass: 7, but fewer in the last
        philox_keys = entcat._engine._philox_keys

        def counted(prefix, rows):
            passes.append(len(rows))
            return philox_keys(prefix, rows)

        monkeypatch.setattr(entcat._engine, "_philox_keys", counted)
        streams = list(entcat._engine._streams(seed, shape))
        indices = list(np.ndindex(*shape))
        assert len(streams) == len(indices)
        assert passes == [min(7, len(indices) - start) for start in range(0, len(indices), 7)]
        for rng, index in zip(streams, indices):
            reference = np.random.Philox(np.random.SeedSequence((seed, *index)))
            assert self.raw_words(rng) == reference.random_raw(8).tolist()

    def test_import_leaves_numpy_random_unloaded(self):
        # The key type subclasses numpy's ISeedSequence, so it is made on
        # first use: numpy.random loads when a run first needs a stream.
        # Older numpy loads numpy.random with numpy itself; only what the
        # entcat import adds is checked.
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import entcat.cli; print(before, 'numpy.random' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(entcat.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        before, after = out.stdout.split()
        assert after == before

    def test_suffix_past_one_word_is_rejected(self):
        with pytest.raises(ValueError):
            entcat._engine._philox_keys((3,), np.array([[1, 2], [2**32, 0]]))

    @pytest.mark.parametrize("n_words,dtype", [(2, np.uint64), (2, "u8"), (1, np.uint64),
                                               (3, np.uint64), (4, np.uint32), (2, np.uint32),
                                               (2, np.int64)])
    def test_key_gives_seedsequence_words_or_raises(self, n_words, dtype):
        key = entcat._engine._philox_keys((5,), np.array([[1, 2, 0]]))[0]
        given = entcat._engine._philox_key_type()(key)
        reference = np.random.SeedSequence((5, 1, 2, 0))
        try:
            words = given.generate_state(n_words, dtype)
        except ValueError:
            assert (n_words, np.dtype(dtype)) != (2, np.uint64)
        else:
            assert words.tolist() == reference.generate_state(n_words, dtype).tolist()
