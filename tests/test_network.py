import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entcat
from entcat.catalysis import (
    ConcentrationProblem,
    copies_for_catalyst,
    locc_probability,
    optimal_two_qubit_catalyst,
)
from entcat.errors import CatalysisWindowError, InvalidInputError, NumericFailureError
from entcat.network import (
    AUX_RICH,
    FINITE_AUX,
    NO_AUX,
    SWEEP_CSV_HEADER,
    WINDOW_OK,
    WINDOW_OUT,
    AuxConfig,
    SweepRow,
    AuxPath,
    EdgeParams,
    alpha_from_transmittivities,
    edge_catalyst,
    rate_catalytic,
    rate_slotted,
    sweep_rates,
    t_catalyst,
    t_edge_cycle,
    t_primary,
    waiting_factor,
    waiting_factor_small_p,
    waiting_factors,
    write_sweep_csv,
)
from entcat import network
from entcat.spectra import make_schmidt

import oracles


class TestPhysicalLayer:
    def test_symmetric_channels(self):
        assert alpha_from_transmittivities(0.3, 0.3) == 0.5

    def test_asymmetric(self):
        assert alpha_from_transmittivities(0.8, 0.2) == pytest.approx(0.8)

    def test_relabeling_symmetry(self):
        assert alpha_from_transmittivities(0.2, 0.8) == pytest.approx(0.8)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            alpha_from_transmittivities(0.0, 0.5)
        with pytest.raises(InvalidInputError):
            alpha_from_transmittivities(0.5, 1.0)


class TestEdgeParams:
    def test_cycle_time(self):
        edge = EdgeParams(alpha=0.8, length_km=25.0, fiber_speed_km_s=2.0e5)
        assert edge.cycle_time_s == pytest.approx(2.5e-4)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EdgeParams(alpha=0.8, copies=1)
        with pytest.raises(InvalidInputError):
            EdgeParams(alpha=0.4)
        with pytest.raises(InvalidInputError):
            EdgeParams(alpha=0.8, catalyst_dim=1)
        with pytest.raises(InvalidInputError):
            EdgeParams(alpha=0.8, herald_probability=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                EdgeParams(alpha=0.8, length_km=bad)
            with pytest.raises(InvalidInputError):
                EdgeParams(alpha=0.8, fiber_speed_km_s=bad)

    def test_any_catalyst_dimension_from_two(self):
        for dim in (2, 3, 4, 5):
            assert EdgeParams(alpha=0.8, catalyst_dim=dim).catalyst_dim == dim


class TestAuxConfig:
    def test_finite_mode_needs_paths(self):
        with pytest.raises(InvalidInputError):
            AuxConfig(FINITE_AUX)

    @pytest.mark.parametrize("mode", [AUX_RICH, NO_AUX])
    def test_paths_only_in_finite_mode(self, mode):
        # Only finite aux reads the paths, so elsewhere they would be ignored.
        with pytest.raises(InvalidInputError):
            AuxConfig(mode, (AuxPath(0.8, 0.9, 2.5e-4),))
        assert AuxConfig(mode).paths == ()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_path_period_must_be_finite(self, bad):
        # An infinite period would give rate_catalytic a zero supply rate.
        with pytest.raises(InvalidInputError):
            AuxPath(0.8, 0.9, bad)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(InvalidInputError, match="aux mode must be one of"):
            AuxConfig("plenty")

    @pytest.mark.parametrize("alpha,probability,what", [
        (0.5, 0.9, "alpha"), (1.0, 0.9, "alpha"), (np.nan, 0.9, "alpha"),
        (0.8, 0.0, "probability"), (0.8, 1.5, "probability"), (0.8, np.nan, "probability"),
    ])
    def test_path_alpha_and_probability_must_lie_in_range(self, alpha, probability, what):
        with pytest.raises(InvalidInputError, match=f"aux path {what} must lie in"):
            AuxPath(alpha, probability, 1e-3)


class TestTimings:
    def test_t_primary_reference(self):
        assert t_primary(2, 2.5e-4, 0.5) == pytest.approx(1e-3)
        assert t_primary(1, 0.125, 1.0) == 0.125
        assert t_primary(4, 1.0, 0.25) == pytest.approx(16.0)

    def test_t_primary_count_must_be_an_integer(self):
        # t_primary(2.5, 1e-3, 0.5) once gave 0.005
        for n in (0, 2.5, 2.0, "2", None):
            with pytest.raises(InvalidInputError, match="copy count must be a positive integer"):
                t_primary(n, 1e-3, 0.5)
        assert t_primary(np.int64(2), 1e-3, 0.5) == t_primary(2, 1e-3, 0.5)

    def test_t_catalyst_single_path(self):
        c0 = 0.5919671916850177
        copies = copies_for_catalyst(make_schmidt([c0, 1.0 - c0]), 0.8)
        assert copies == 3
        time_s = t_catalyst([AuxPath(0.8, 0.5, 1e-3)], (copies,))
        assert time_s == pytest.approx(1.0 / (3 * 0.5 / 1e-3))

    def test_t_catalyst_two_identical_paths_halves(self):
        path = AuxPath(0.8, 0.5, 1e-3)
        one = t_catalyst([path], (3,))
        two = t_catalyst([path, path], (3, 3))
        assert two == pytest.approx(one / 2)

    @pytest.mark.parametrize("copies", [(), (3, 3)])
    def test_t_catalyst_needs_one_count_per_path(self, copies):
        with pytest.raises(InvalidInputError):
            t_catalyst([AuxPath(0.8, 0.5, 1e-3)], copies)

    def test_edge_cycle_aux_rich(self):
        edge = EdgeParams(alpha=0.8, copies=2, herald_probability=0.5)
        tb = t_edge_cycle(0.8822819946431774, edge, AuxConfig(AUX_RICH), ())
        assert tb.t_catalyst_s is None
        assert tb.t_edge_cycle_s == tb.t_primary_s

    def test_edge_cycle_no_aux_reference(self):
        # n=2, n_cat=3, T0/P0 = 5e-4 s, P_cat from the closed form
        edge = EdgeParams(alpha=0.8, copies=2, length_km=50.0, fiber_speed_km_s=2.0e5,
                          herald_probability=1.0)
        assert edge.cycle_time_s == pytest.approx(5e-4)
        catalyst = optimal_two_qubit_catalyst(ConcentrationProblem(2, 0.8))
        p_cat = catalyst.success_probability
        tb = t_edge_cycle(p_cat, edge, AuxConfig(NO_AUX), (3,))
        assert tb.t_primary_s == pytest.approx(1e-3)
        assert tb.t_primary_plus_catalyst_s == pytest.approx(2.5e-3)
        expected = p_cat * 1e-3 + (1 - p_cat) * 2.5e-3
        assert tb.t_edge_cycle_s == pytest.approx(expected, rel=1e-12)
        assert tb.t_edge_cycle_s == pytest.approx(1.1766e-3, abs=1e-7)

    def test_edge_cycle_certain_success(self):
        edge = EdgeParams(alpha=0.8, copies=2)
        for aux in (AuxConfig(AUX_RICH), AuxConfig(NO_AUX)):
            tb = t_edge_cycle(1.0, edge, aux, (3,))
            assert tb.t_edge_cycle_s == pytest.approx(tb.t_primary_s)

    def test_edge_cycle_finite_aux_matches_supply_timing(self):
        edge = EdgeParams(alpha=0.8, copies=2, herald_probability=0.5)
        catalyst = optimal_two_qubit_catalyst(ConcentrationProblem(2, 0.8))
        paths = (AuxPath(0.8, 0.01, 1.0), AuxPath(0.9, 0.05, 0.3))
        copies = tuple(copies_for_catalyst(catalyst.spectrum, path.alpha) for path in paths)
        tb = t_edge_cycle(0.88, edge, AuxConfig(FINITE_AUX, paths), copies)
        assert tb.t_catalyst_s == t_catalyst(paths, copies)

    def test_edge_cycle_finite_aux_takes_max(self):
        edge = EdgeParams(alpha=0.8, copies=2, herald_probability=0.5)
        slow = AuxConfig(FINITE_AUX, (AuxPath(0.8, 0.01, 1.0),))
        tb = t_edge_cycle(0.88, edge, slow, (3,))
        assert tb.t_primary_plus_catalyst_s == pytest.approx(tb.t_catalyst_s)
        fast = AuxConfig(FINITE_AUX, (AuxPath(0.8, 1.0, 1e-9),))
        tb = t_edge_cycle(0.88, edge, fast, (3,))
        assert tb.t_primary_plus_catalyst_s == pytest.approx(tb.t_primary_s)

    # sim-finite-aux's paths.  Against the default edge's t_pri = 1e-3 s, a
    # catalyst of 3 and 3 copies takes t_cat = 6.7e-4 s and one of 9 and 8
    # copies 2.4e-4 s, below t_pri; 1 and 1 copies take 2e-3 s and 2 and 1
    # copies 1.4e-3 s, above it.
    COLUMN_PATHS = (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1.0e-3))

    @pytest.mark.parametrize("mode", [AUX_RICH, NO_AUX, FINITE_AUX])
    def test_edge_cycle_column_equals_its_scalar_calls(self, mode):
        # A sweep prices a block of points in one call; each entry must keep
        # the bits of its own scalar call.
        edge = EdgeParams(alpha=0.8, copies=2)
        aux = AuxConfig(mode, self.COLUMN_PATHS if mode == FINITE_AUX else ())
        p_cats = [0.8822819946431774, 0.3, 1.0, 0.123456789, 0.999]
        counts = [(3, 3), (9, 8), (1, 1), (2, 1), (1001, 2)]
        supplies = [c if mode == FINITE_AUX else c[:1] for c in counts]
        column = t_edge_cycle(np.array(p_cats), edge, aux,
                              tuple(np.array(c) for c in zip(*supplies)))
        scalars = [t_edge_cycle(p, edge, aux, c) for p, c in zip(p_cats, supplies)]
        for field in column._fields:
            got = getattr(column, field)
            want = [getattr(tb, field) for tb in scalars]
            if got is None:
                assert want == [None] * len(p_cats)
                continue
            got = np.broadcast_to(got, len(p_cats)).tolist()
            assert [x.hex() for x in got] == [x.hex() for x in want], field
        for tb in scalars:
            assert all(type(t) is float for t in tb if t is not None)
        if mode == FINITE_AUX:
            t_cats = [tb.t_catalyst_s for tb in scalars]
            assert min(t_cats) < scalars[0].t_primary_s < max(t_cats)

    @pytest.mark.parametrize("mode", [AUX_RICH, NO_AUX, FINITE_AUX])
    def test_edge_cycle_column_rejects_a_probability_outside_the_unit_interval(self, mode):
        edge = EdgeParams(alpha=0.8, copies=2)
        aux = AuxConfig(mode, self.COLUMN_PATHS if mode == FINITE_AUX else ())
        supplies = len(aux.paths) or 1
        copies = (np.array([3, 3]),) * supplies
        t_edge_cycle(np.array([0.5, 0.9]), edge, aux, copies)
        for bad in (0.0, 1.5, -0.2, math.nan):
            with pytest.raises(InvalidInputError):
                t_edge_cycle(np.array([0.5, bad]), edge, aux, copies)
            with pytest.raises(InvalidInputError):
                t_edge_cycle(bad, edge, aux, (3,) * supplies)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, 0.0, -1e-3])
    def test_t_primary_needs_a_positive_finite_slot(self, t0):
        # nan and inf once passed through as the time itself.
        with pytest.raises(InvalidInputError, match="positive finite t0"):
            t_primary(2, t0, 0.5)

    @pytest.mark.parametrize("count", [0, -2, 2.5, "3", None, True])
    def test_t_catalyst_rejects_a_count_below_one_or_not_an_integer(self, count):
        # [0] once raised a bare ZeroDivisionError and [-2] gave -0.001 s.
        with pytest.raises(InvalidInputError, match="copy count must be a positive integer"):
            t_catalyst([AuxPath(0.8, 0.5, 1e-3)], (count,))

    @pytest.mark.parametrize("column", [[3, 0], [3, -1], [3.0, 2.0], [True, True]])
    def test_t_catalyst_rejects_a_bad_column_entry(self, column):
        # A 0 once raised a RuntimeWarning and gave an infinite time.
        with pytest.raises(InvalidInputError, match="copy counts must be positive integers"):
            t_catalyst([AuxPath(0.8, 0.5, 1e-3)], (np.array(column),))

    def test_t_catalyst_takes_an_empty_column(self):
        # A sweep with no in-window point prices an empty block.
        got = t_catalyst([AuxPath(0.8, 0.5, 1e-3)], (np.array([]),))
        assert got.shape == (0,)

    @pytest.mark.parametrize("mode", [NO_AUX, FINITE_AUX])
    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_edge_cycle_rejects_a_count_below_one_or_not_an_integer(self, mode, count):
        # Without aux paths, (0,) once priced a free catalyst and (-3,) a
        # negative one.
        aux = AuxConfig(mode, (AuxPath(0.8, 0.5, 1e-3),) if mode == FINITE_AUX else ())
        with pytest.raises(InvalidInputError, match="copy count must be a positive integer"):
            t_edge_cycle(0.5, EdgeParams(alpha=0.8), aux, (count,))

    def test_t_primary_column_entries_are_the_scalar_calls(self):
        counts = [1, 2, 5, 1001]
        column = t_primary(np.array(counts), 2.5e-4, 0.3)
        assert [t.hex() for t in column.tolist()] == [t_primary(n, 2.5e-4, 0.3).hex()
                                                      for n in counts]

    @pytest.mark.parametrize("n_cat", [3, np.array([1, 3, 7])], ids=["scalar", "column"])
    def test_edge_cycle_without_aux_prices_its_loads_by_t_primary(self, n_cat):
        # The catalyst's n_cat pairs, and the edge's copies with them, cost
        # t_primary's n t0 / P0, bit for bit.
        edge = EdgeParams(alpha=0.8, copies=3, length_km=30.0, herald_probability=0.3)
        tb = t_edge_cycle(0.7, edge, AuxConfig(NO_AUX), (n_cat,))
        t0, p0 = edge.cycle_time_s, edge.herald_probability
        np.testing.assert_array_equal(tb.t_catalyst_s, t_primary(n_cat, t0, p0))
        np.testing.assert_array_equal(tb.t_primary_plus_catalyst_s,
                                      t_primary(edge.copies + n_cat, t0, p0))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    @pytest.mark.parametrize("mode", [NO_AUX, FINITE_AUX])
    def test_edge_cycle_narrow_count_column_is_priced_as_int64(self, mode, dtype):
        # Without aux paths a uint8 n_cat of 255 plus the edge's 2 copies
        # once wrapped to 1 pair: [0.0005] s where int64 gives [0.1285] s.
        edge = EdgeParams(alpha=0.8, copies=2)
        aux = AuxConfig(mode, self.COLUMN_PATHS if mode == FINITE_AUX else ())
        p_cats = np.array([0.5, 0.9, 0.3])
        counts = np.array([1, 7, np.iinfo(dtype).max], dtype=dtype)
        supplies = len(aux.paths) or 1
        narrow = t_edge_cycle(p_cats, edge, aux, (counts,) * supplies)
        wide = t_edge_cycle(p_cats, edge, aux, (counts.astype(np.int64),) * supplies)
        for got, want in zip(narrow, wide):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if mode == NO_AUX and dtype == np.uint8:
            assert narrow.t_primary_plus_catalyst_s[-1] == 0.1285

    @pytest.mark.parametrize("mode", [NO_AUX, FINITE_AUX])
    def test_edge_cycle_numpy_count_gives_plain_floats(self, mode):
        # (np.int64(3),) once gave np.float64 fields.
        aux = AuxConfig(mode, (AuxPath(0.8, 0.5, 1e-3),) if mode == FINITE_AUX else ())
        edge = EdgeParams(alpha=0.8)
        got = t_edge_cycle(0.5, edge, aux, (np.int64(3),))
        assert all(type(t) is float for t in got)
        assert got == t_edge_cycle(0.5, edge, aux, (3,))


class TestWaitingFactor:
    def test_single_edge(self):
        assert waiting_factor(1, 0.25) == pytest.approx(4.0, abs=1e-12)

    def test_two_edges_half(self):
        assert waiting_factor(2, 0.5) == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_certain_success(self):
        assert waiting_factor(32, 1.0) == 1.0

    def test_rejects_zero_probability(self):
        with pytest.raises(InvalidInputError):
            waiting_factor(4, 0.0)

    @pytest.mark.parametrize(
        "n_edges,p",
        [(2, 0.5), (8, 0.1), (32, 0.9), (32, 0.01), (100, 0.3), (1024, 0.3), (1024, 0.05)],
    )
    def test_matches_positive_series_oracle(self, n_edges, p):
        exact = oracles.waiting_factor_series(n_edges, p)
        assert waiting_factor(n_edges, p) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize(
        "n_edges,p",
        [
            (n_edges, p)
            for n_edges in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 256, 1024)
            for p in (1e-6, 1e-4, 1e-3, 0.0099, 0.01, 0.0101, 0.1, 0.5, 0.99, 1.0)
        ]
        + [(4096, 1e-6), (4096, 0.3)],
    )
    def test_matches_mpmath_oracle(self, n_edges, p):
        exact = oracles.waiting_factor_mp(n_edges, p)
        assert waiting_factor(n_edges, p) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n_edges", [10**5, 10**7])
    def test_harmonic_branch_far_beyond_the_oracle(self, n_edges):
        # Above N = 1024, H_N comes from its Euler-Maclaurin expansion; the
        # reference sums every 1/k, in blocks so no list of N floats is built.
        lam = -math.log1p(-1e-3)
        terms = itertools.chain.from_iterable(
            (1.0 / np.arange(start, min(start + 2**16, n_edges + 1))).tolist()
            for start in range(1, n_edges + 1, 2**16)
        )
        expected = math.fsum(terms) / lam + 0.5
        assert waiting_factor(n_edges, 1e-3) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_import_leaves_mpmath_unloaded(self):
        code = "import sys, entcat; print('mpmath' in sys.modules)"
        src = str(Path(entcat.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"

    def test_harmonic_small_p_limit(self):
        for n_edges in (2, 8, 32):
            z = waiting_factor(n_edges, 1e-4)
            assert z * 1e-4 == pytest.approx(oracles.harmonic(n_edges), rel=1e-3)

    def test_lower_bound_and_monotone_in_edges(self):
        for p in (0.1, 0.5, 0.9):
            previous = 0.0
            for n_edges in (1, 2, 4, 8, 16):
                z = waiting_factor(n_edges, p)
                assert z >= 1.0 / p - 1e-12
                assert z > previous
                previous = z
        assert waiting_factor(1, 0.25) == pytest.approx(4.0)


class TestWaitingFactors:
    """The batch gives every p the factor it gets alone, bit for bit."""

    # One p per branch: certain success, the series (and just above its
    # edge), and p <= 1e-2, which is harmonic at 8 <= N <= 1024, asymptotic
    # above and inclusion-exclusion below.
    PS = [1.0, 0.9, 0.5, 0.0101, 0.01, 1e-3, 1e-6]

    @staticmethod
    def series_alone(n_edges, p):
        """The series of one p in a numpy pass of its own."""
        lam = -math.log1p(-p)
        m = np.arange(1, math.ceil((math.log(n_edges) + 40.0) / lam))
        return 1.0 + math.fsum((-np.expm1(n_edges * np.log1p(-np.exp(-lam * m)))).tolist())

    @pytest.mark.parametrize("n_edges", [1, 3, 7, 8, 256, 1024, 1025, 4096])
    def test_every_branch_matches_the_one_point_call(self, n_edges):
        assert waiting_factors(n_edges, self.PS) == [waiting_factor(n_edges, p) for p in self.PS]

    @pytest.mark.parametrize("n_edges", [1, 7, 256, 4096])
    def test_series_matches_its_own_pass(self, n_edges):
        series = [p for p in self.PS if 1e-2 < p < 1.0]
        assert waiting_factors(n_edges, series) == [self.series_alone(n_edges, p) for p in series]

    def test_mixed_order_and_repeats(self):
        ps = [0.3, 1e-3, 0.3, 1.0, 0.05, 1e-3, 0.9, 0.3, 0.011]
        for order in (ps, ps[::-1], sorted(ps)):
            assert waiting_factors(32, order) == [waiting_factor(32, p) for p in order]

    def test_terms_spanning_several_passes(self, monkeypatch):
        ps = [float(p) for p in np.linspace(0.0101, 0.3, 40)]
        counts = [math.ceil((math.log(256) + 40.0) / -math.log1p(-p)) - 1 for p in ps]
        assert sum(counts) > 2 * network._SERIES_PASS_TERMS
        expected = [waiting_factor(256, p) for p in ps]
        assert waiting_factors(256, ps) == expected
        # Passes smaller than one p's terms hold that p alone.
        for size in (1, 100, max(counts)):
            monkeypatch.setattr(network, "_SERIES_PASS_TERMS", size)
            assert waiting_factors(256, ps) == expected

    def test_empty_list(self):
        assert waiting_factors(32, []) == []

    @pytest.mark.parametrize("n_edges,ps", [
        (0, [0.5]), (0, []), (-3, [1.0]),
        (4, [0.5, 0.0]), (4, [1.5]), (4, [0.3, -0.1]), (4, [float("nan")]), (4, [True]),
    ])
    def test_rejects_what_the_one_point_call_rejects(self, n_edges, ps):
        with pytest.raises(InvalidInputError):
            waiting_factors(n_edges, ps)
        for p in ps or [0.5]:
            if n_edges < 1 or not 0.0 < p <= 1.0:
                with pytest.raises(InvalidInputError):
                    waiting_factor(n_edges, p)


class TestWaitingFactorFootnote:
    def test_single_edge_matches_exact(self):
        assert waiting_factor_small_p(1, 0.2) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_a_probability_outside_the_unit_interval(self, p):
        with pytest.raises(InvalidInputError, match="success probability must lie in"):
            waiting_factor_small_p(4, p)

    def test_two_edges_reference(self):
        assert waiting_factor_small_p(2, 0.01) == pytest.approx(150.0)

    def test_two_edges_agrees_asymptotically(self):
        # at N = 2 the approximation happens to coincide with the small-p
        # limit of the exact factor
        p = 1e-6
        assert waiting_factor_small_p(2, p) / waiting_factor(2, p) == pytest.approx(
            1.0, rel=1e-4
        )

    def test_diverges_from_exact_at_many_edges(self):
        # geometric vs harmonic growth: the approximation overshoots hugely
        p = 1e-4
        ratio = waiting_factor_small_p(32, p) / waiting_factor(32, p)
        assert ratio > 1e4


class TestRates:
    def test_reference_point(self):
        # n=2, alpha=0.8, N=2, aux-rich, T0=2.5e-4 s, P0=0.5
        edge = EdgeParams(alpha=0.8, copies=2, length_km=25.0,
                          fiber_speed_km_s=2.0e5, herald_probability=0.5)
        report = rate_catalytic(edge, AuxConfig(AUX_RICH), 2)

        # independent arithmetic for the two-edge waiting factor
        def z2(p):
            return 2.0 / p - 1.0 / (1.0 - (1.0 - p) ** 2)

        p_cat = 0.8822819946431774
        assert report.p_cat == pytest.approx(p_cat, abs=1e-12)
        assert report.p_locc == pytest.approx(0.72, abs=1e-12)
        assert report.z_cat == pytest.approx(z2(p_cat), rel=1e-12)
        assert report.z_locc == pytest.approx(z2(0.72), rel=1e-12)
        assert report.rate_cat_hz == pytest.approx(1.0 / (1e-3 * z2(p_cat)), rel=1e-12)
        assert report.rate_locc_hz == pytest.approx(1.0 / (1e-3 * z2(0.72)), rel=1e-12)
        # published roundings
        assert report.rate_cat_hz == pytest.approx(798.2, abs=0.1)
        assert report.rate_locc_hz == pytest.approx(590.8, abs=0.1)
        assert report.eta_r == pytest.approx(1.351, abs=1e-3)

    def test_eta_r_consistency(self):
        edge = EdgeParams(alpha=0.85, copies=2)
        report = rate_catalytic(edge, AuxConfig(NO_AUX), 8)
        assert report.eta_r == pytest.approx(
            report.rate_cat_hz / report.rate_locc_hz, rel=1e-12
        )
        assert report.eta_p == pytest.approx(report.p_cat / report.p_locc, rel=1e-12)

    def test_equal_probabilities_give_unit_ratio(self):
        # aux-rich: eta_r reduces to the waiting-factor ratio
        edge = EdgeParams(alpha=0.8, copies=2)
        report = rate_catalytic(edge, AuxConfig(AUX_RICH), 4)
        assert report.eta_r == pytest.approx(report.z_locc / report.z_cat, rel=1e-12)

    def test_large_chain_ratio_approaches_probability_ratio(self):
        # small-p regime: waiting factors scale as H_N / p, so the rate ratio
        # collapses onto the probability ratio
        edge = EdgeParams(alpha=1 - 1e-6, copies=2)
        report = rate_catalytic(edge, AuxConfig(AUX_RICH), 32)
        assert report.eta_r == pytest.approx(report.eta_p, rel=0.05)

    def test_copies_for_catalyst_dim4(self):
        edge = EdgeParams(alpha=0.8, copies=2, catalyst_dim=4)
        catalyst = edge_catalyst(edge)
        m = copies_for_catalyst(catalyst.spectrum, 0.8)
        assert m >= 1
        assert rate_catalytic(edge, AuxConfig(AUX_RICH), 4).n_cat == m
        c0 = 0.59196 + 7.2e-6
        two_qubit = copies_for_catalyst(make_schmidt([c0, 1.0 - c0]), 0.8)
        assert two_qubit == 3

    def test_point_fields_are_pinned(self):
        # float.hex of the ten rate fields over alpha x catalyst dimension x
        # aux mode x chain length; the finite paths are the sim-finite-aux ones.
        paths = (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1.0e-3))
        auxes = (AuxConfig(AUX_RICH), AuxConfig(NO_AUX), AuxConfig(FINITE_AUX, paths))
        fields = ("p_locc", "p_cat", "c0", "n_cat", "eta_p", "z_locc", "z_cat",
                  "rate_locc_hz", "rate_cat_hz", "eta_r")
        digest = hashlib.sha256()
        grid = itertools.product((0.7072, 0.75, 0.8, 0.9, 0.95), (2, 3, 4), auxes, (1, 16))
        for alpha, dim, aux, n_edges in grid:
            r = rate_catalytic(EdgeParams(alpha=alpha, copies=2, catalyst_dim=dim), aux, n_edges)
            digest.update(",".join(float(getattr(r, f)).hex() for f in fields).encode() + b"\n")
        expected = "266312c39d815b0c300e4fd3f5ef6f411af0bac45707e0a79a4ea1c02f26e8c2"
        assert digest.hexdigest() == expected

    def test_out_of_window_point_names_the_window(self):
        with pytest.raises(CatalysisWindowError, match=r"catalysis window at alpha=0\.6 is empty"):
            rate_catalytic(EdgeParams(alpha=0.6, copies=2), AuxConfig(AUX_RICH), 4)

    def test_rejects_empty_chain(self):
        with pytest.raises(InvalidInputError):
            rate_catalytic(EdgeParams(alpha=0.8, copies=2), AuxConfig(AUX_RICH), 0)


class TestRateSlotted:
    @pytest.mark.parametrize("n_edges", [1, 4, 32])
    @pytest.mark.parametrize("p0", [0.5, 1.0])
    @pytest.mark.parametrize("copies,alpha", [(2, 0.8), (3, 0.9), (2, 1 - 1e-6)])
    def test_matches_markov_oracle(self, copies, alpha, p0, n_edges):
        # alpha = 1 - 1e-6 needs ~1e5 slots, summed in blocks of thousands
        edge = EdgeParams(alpha=alpha, copies=copies, herald_probability=p0)
        p_cat = edge_catalyst(edge).success_probability
        slots = oracles.chain_mean_completion_slots(copies, p0, p_cat, n_edges)
        expected = 1.0 / (slots * edge.cycle_time_s)
        assert rate_slotted(edge, n_edges) == pytest.approx(expected, rel=1e-12)

    def test_rejects_empty_chain(self):
        with pytest.raises(InvalidInputError):
            rate_slotted(EdgeParams(alpha=0.8, copies=2), 0)

    def test_sum_short_of_its_tail_raises(self, monkeypatch):
        # At P0 = 0.01 the first 16 slots leave almost every edge unfinished,
        # so a sum capped there raises rather than return a truncated rate.
        monkeypatch.setattr(network, "_SLOTTED_MAX_SLOTS", 16)
        with pytest.raises(NumericFailureError,
                           match="^slot-level survival sum failed to converge$"):
            rate_slotted(EdgeParams(alpha=0.8, copies=2, herald_probability=0.01), 4)


@pytest.mark.parametrize("n_edges", [2.5, 4.0, "4", None, np.array([4])])
@pytest.mark.parametrize("call", [
    lambda n: waiting_factors(n, [0.5, 0.005]),
    lambda n: waiting_factor(n, 0.5),
    lambda n: rate_slotted(EdgeParams(alpha=0.8), n),
    lambda n: rate_catalytic(EdgeParams(alpha=0.8), AuxConfig(AUX_RICH), n),
    lambda n: sweep_rates(2, n, [0.8]),
    lambda n: waiting_factor_small_p(n, 0.5),
], ids=["waiting_factors", "waiting_factor", "rate_slotted", "rate_catalytic", "sweep_rates",
        "waiting_factor_small_p"])
def test_edge_count_must_be_an_integer(call, n_edges):
    # a non-integral count once gave a rate (764.68 Hz from rate_catalytic at
    # 2.5, 3.674 from waiting_factor_small_p) or a bare TypeError, and a
    # one-entry column was taken as the count; numpy integers are counts
    # like Python's
    with pytest.raises(InvalidInputError, match="edge count must be a positive integer"):
        call(n_edges)
    assert call(np.int64(4)) == call(4)


# Each real-valued input of the edge and of an aux path, given 0.8, which
# lies in every one's range.
REAL_INPUTS = {
    "edge_alpha": lambda v: EdgeParams(alpha=v).alpha,
    "edge_length": lambda v: EdgeParams(alpha=0.8, length_km=v).length_km,
    "edge_fiber_speed": lambda v: EdgeParams(alpha=0.8, fiber_speed_km_s=v).fiber_speed_km_s,
    "edge_herald": lambda v: EdgeParams(alpha=0.8, herald_probability=v).herald_probability,
    "path_alpha": lambda v: AuxPath(v, 0.5, 1e-3).alpha,
    "path_probability": lambda v: AuxPath(0.8, v, 1e-3).gen_probability,
    "path_time": lambda v: AuxPath(0.8, 0.5, v).gen_time_s,
}


@pytest.mark.parametrize("build", REAL_INPUTS.values(), ids=REAL_INPUTS.keys())
@pytest.mark.parametrize("value", [np.float32(0.8), np.float64(0.8)], ids=["float32", "float64"])
def test_numpy_reals_are_plain_floats(build, value):
    # A float32 was once stored as given, and its arithmetic done in single
    # precision; its record was not JSON.
    got = build(value)
    assert type(got) is float and got == float(value)


def test_python_numbers_are_kept_as_given():
    edge = EdgeParams(alpha=0.8, length_km=25, herald_probability=1)
    path = AuxPath(0.8, 1, 2)
    assert [type(v) for v in (edge.length_km, edge.herald_probability, path.gen_probability,
                              path.gen_time_s)] == [int] * 4


@pytest.mark.parametrize("build", [*REAL_INPUTS.values(), lambda v: waiting_factor(4, v),
                                   lambda v: waiting_factors(4, [0.5, v]),
                                   lambda v: waiting_factor_small_p(4, v)],
                         ids=[*REAL_INPUTS.keys(), "waiting_factor", "waiting_factors",
                              "waiting_factor_small_p"])
@pytest.mark.parametrize("value", [True, "0.8", None, np.array([0.8])],
                         ids=["bool", "str", "None", "array"])
def test_real_inputs_reject_bools_and_non_numbers(build, value):
    # True was once probability 1, "0.8" and None raised a bare TypeError,
    # and a one-entry array passed every range check.
    with pytest.raises(InvalidInputError, match="must be a real number"):
        build(value)


@pytest.mark.parametrize("build", [
    lambda n: ConcentrationProblem(n, 0.8).n,
    lambda n: EdgeParams(alpha=0.8, copies=n).copies,
    lambda n: EdgeParams(alpha=0.8, catalyst_dim=n).catalyst_dim,
    lambda n: sweep_rates(n, 4, [0.8])[0].n_cat,
    lambda n: sweep_rates(2, 4, [0.8], catalyst_dims=[n])[0].catalyst_dim,
], ids=["problem", "edge_copies", "edge_catalyst_dim", "sweep_rates", "sweep_catalyst_dim"])
@pytest.mark.parametrize("count", [np.int64(2), np.int32(2), np.uint8(2)])
def test_numpy_integer_counts_are_plain_ints(build, count):
    # numpy integers are counts like Python's, stored as plain ints
    value = build(count)
    assert type(value) is int and value == build(2)


@pytest.mark.parametrize("build", [
    lambda n: EdgeParams(alpha=0.8, copies=n),
    lambda n: EdgeParams(alpha=0.8, catalyst_dim=n),
    lambda n: sweep_rates(n, 4, [0.8]),
    lambda n: sweep_rates(2, 4, [0.8], catalyst_dims=[n]),
], ids=["edge_copies", "edge_catalyst_dim", "sweep_rates", "sweep_catalyst_dim"])
def test_one_count_rejects_a_column(build):
    # EdgeParams stored array([3]) and a sweep raised a bare TypeError; only
    # the timing functions price columns
    with pytest.raises(InvalidInputError,
                       match=r"must be an? (positive )?integer( >= 2)?, got \[3\]"):
        build(np.array([3]))


class TestSweep:
    def test_row_shape_and_order(self):
        grid = [0.6, 0.75, 0.8]
        rows = sweep_rates(2, 4, grid, [AUX_RICH], [2])
        assert len(rows) == 3
        assert [r.alpha for r in rows] == sorted(grid)
        flags = {r.alpha: r.window_flag for r in rows}
        assert flags[0.6] == "out_of_window"
        assert flags[0.8] == "ok"

    def test_long_chain_bits_are_pinned(self):
        # The CSV prints 12 significant digits, so its pinned digests miss a
        # change in the last bits; this pin hashes every float exactly, over
        # the long-chain sweep (N = 256, both modes, 200 alphas up to 1 - 1e-6).
        rows = sweep_rates(2, 256, np.linspace(0.55, 1.0 - 1e-6, 200), [AUX_RICH, NO_AUX], [2])
        text = "\n".join(",".join(v.hex() if isinstance(v, float) else repr(v) for v in row)
                         for row in rows)
        assert len(rows) == 400
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4ec8902d4ce55849e7c74c63e4d69c3f445ada8490e33fe2566b340cdb5e3323"
        )

    def test_out_of_window_rows_keep_locc(self):
        rows = sweep_rates(2, 4, [0.6], [AUX_RICH], [2])
        row = rows[0]
        assert row.p_cat is None and row.eta_r is None
        assert row.p_locc == 1.0
        assert row.rate_locc_hz > 0

    @pytest.mark.parametrize("grid,dims", [([], [2, 4]), ([0.8], [])], ids=["no_alpha", "no_dim"])
    def test_empty_grid_gives_no_rows(self, grid, dims):
        assert sweep_rates(2, 4, grid, [AUX_RICH, NO_AUX], dims) == []

    def test_no_in_window_point_across_modes_and_dimensions(self):
        # every (mode, dimension) block is all out of window, in output order
        grid = [0.6, 0.65]
        rows = sweep_rates(2, 4, grid, [AUX_RICH, NO_AUX], [2, 4])
        assert [(r.mode, r.catalyst_dim, r.alpha) for r in rows] == [
            (mode, dim, alpha) for mode in (AUX_RICH, NO_AUX) for dim in (2, 4) for alpha in grid
        ]
        for row in rows:
            assert row.window_flag == "out_of_window"
            assert row.p_cat is None and row.eta_r is None
            assert row.p_locc == 1.0
            assert row.rate_locc_hz > 0

    @pytest.mark.parametrize("grid", [[0.8], [0.6]], ids=["in_window", "out_of_window"])
    @pytest.mark.parametrize("dim", [1, 2.5, "4", None])
    def test_rejects_bad_catalyst_dimension(self, grid, dim):
        # checked once per dimension, whether or not any catalyst is searched
        with pytest.raises(InvalidInputError, match="catalyst dimension must be an integer >= 2"):
            sweep_rates(2, 4, grid, [AUX_RICH], [dim])

    def test_none_mode_copy_requirement_non_decreasing(self):
        grid = list(np.linspace(0.75, 0.98, 40))
        rows = sweep_rates(2, 8, grid, [NO_AUX], [2])
        counts = [r.n_cat for r in rows if r.window_flag == "ok"]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_dim4_dominates_dim2(self):
        grid = list(np.linspace(0.75, 0.97, 12))
        rows2 = sweep_rates(2, 8, grid, [AUX_RICH], [2])
        rows4 = sweep_rates(2, 8, grid, [AUX_RICH], [4])
        for a, b in zip(rows2, rows4):
            if a.window_flag == "ok":
                assert b.eta_r >= a.eta_r - 1e-9

    def test_rows_match_rate_catalytic_per_point(self):
        # the sweep shares work across modes and dimensions; every row must
        # still equal what rate_catalytic computes for that point alone
        # 0.7072 lies just inside the n = 2 window, and at 0.7071067811865476,
        # whose square rounds to just above 1/2, the closed-form c0 is 1/2
        # itself; at 0.999999, n_cat is 1001 and p_cat ~2e-3, so z_cat takes
        # the harmonic branch.
        grid = [0.6, 0.7071067811865476, 0.7072, 0.75, 0.8, 0.9, 0.999999]
        paths = (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1.0e-3))
        modes = (AUX_RICH, NO_AUX, FINITE_AUX)
        rows = sweep_rates(2, 8, grid, modes, [2, 4], herald_probability=0.4, aux_paths=paths)
        expected = []
        for mode in modes:
            for dim in (2, 4):
                for alpha in grid:
                    edge = EdgeParams(alpha=alpha, copies=2, herald_probability=0.4,
                                      catalyst_dim=dim)
                    if alpha == 0.6:  # n = 2 is outside the catalysis window
                        p_locc = locc_probability(ConcentrationProblem(2, alpha))
                        point = dict(alpha=alpha, mode=mode, catalyst_dim=dim, p_locc=p_locc)
                        z_locc = waiting_factor(8, p_locc)
                        rate_locc = 1.0 / (t_primary(2, edge.cycle_time_s, 0.4) * z_locc)
                        expected.append(SweepRow(**point, z_locc=z_locc, rate_locc_hz=rate_locc,
                                                 window_flag="out_of_window"))
                        continue
                    aux = AuxConfig(mode, paths if mode == FINITE_AUX else ())
                    expected.append(rate_catalytic(edge, aux, 8))
        assert rows == expected

    @pytest.mark.parametrize("mode", [AUX_RICH, NO_AUX, FINITE_AUX])
    def test_rows_match_the_scalar_composition(self, mode):
        # The sweep builds each (mode, dimension) block from columns; every
        # row must equal the one composed point by point from the public
        # pieces.  0.6 lies out of window, 0.7071067811865476 gives c0 = 1/2,
        # 0.7072 lies just inside, and at 0.999999 n_cat is 1001 and z_cat
        # takes the harmonic branch.  The paths are sim-finite-aux's.
        grid = [0.999999, 0.6, 0.7072, 0.7071067811865476, 0.75, 0.8, 0.9, 0.95]
        paths = (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1.0e-3))
        aux_paths = paths if mode == FINITE_AUX else ()
        rows = sweep_rates(2, 8, grid, [mode], [2, 4], herald_probability=0.4,
                           aux_paths=aux_paths)
        expected = oracles.sweep_rows(2, 8, grid, [mode], [2, 4], herald_probability=0.4,
                                      aux_paths=aux_paths)
        assert [r.n_cat for r in rows if r.alpha == 0.999999 and r.catalyst_dim == 2] == [1001]
        assert rows == expected
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in expected]

    @pytest.mark.parametrize("n,alpha", [
        (3, 0.7937005259840998), (7, 0.9057236642639067), (9, 0.9258747122872905),
    ])
    def test_window_lower_edge_point_equals_its_row(self, n, alpha):
        # alpha**n rounds to just above 1/2, so n is the window's last copy
        # count and the closed-form catalyst is (1/2, 1/2): a point computes
        # there as its sweep row does.
        edge = EdgeParams(alpha=alpha, copies=n)
        for mode in (AUX_RICH, NO_AUX):
            (row,) = sweep_rates(n, 8, [alpha], [mode], [2])
            assert (row.window_flag, row.c0, row.p_cat) == (WINDOW_OK, 0.5, row.p_locc)
            assert rate_catalytic(edge, AuxConfig(mode), 8) == row
        (row,) = sweep_rates(n, 1, [alpha], [AUX_RICH], [2])
        assert rate_slotted(edge, 1) == pytest.approx(row.rate_cat_hz, rel=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidInputError):
            sweep_rates(2, 4, [0.5], [AUX_RICH], [2])

    def test_rejects_aux_paths_without_finite_mode(self):
        # Only the finite mode reads the paths; given without it, they would be ignored.
        paths = (AuxPath(0.8, 0.05, 2.5e-4),)
        with pytest.raises(InvalidInputError, match="finite mode only"):
            sweep_rates(2, 4, [0.8], [AUX_RICH, NO_AUX], [2], aux_paths=paths)
        sweep_rates(2, 4, [0.8], [AUX_RICH, FINITE_AUX], [2], aux_paths=paths)

    @pytest.mark.parametrize("modes,dims", [([AUX_RICH, AUX_RICH], [2]), ([NO_AUX], [4, 4])])
    def test_rejects_repeated_mode_or_dimension(self, modes, dims):
        with pytest.raises(InvalidInputError):
            sweep_rates(2, 4, [0.8], modes, dims)

    def test_finite_output_bytes_are_pinned(self):
        # A finite path list counts each path's copies once per catalyst.
        paths = (AuxPath(0.8, 0.05, 2.5e-4), AuxPath(0.75, 0.3, 1.0e-3))
        grid = [float(a) for a in np.linspace(0.55, 0.999, 40)]
        rows = sweep_rates(2, 8, grid, [FINITE_AUX, AUX_RICH], [2, 4], herald_probability=0.4,
                           aux_paths=paths)
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        expected = "a022f54e62508d413ca9e5a4a998a918a2d1f719ba8bf6755f2358b77a684aac"
        assert digest == expected


class TestSweepCsv:
    def test_header_and_formatting(self):
        rows = sweep_rates(2, 4, [0.6, 0.8], [AUX_RICH], [2])
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        out_row = lines[1].split(",")
        assert out_row[0] == "0.6"
        assert out_row[-1] == "out_of_window"
        assert out_row[4] == ""  # no catalytic probability out of window

    @settings(deadline=None)
    @given(st.data())
    def test_matches_the_writer_that_dispatches_on_type(self, data):
        # Rows of the types sweep_rates builds: floats anywhere from 1e-300 to
        # 1e300 in size, signed zeros and integral floats among them, integer
        # dimensions and copy counts, and an alpha that may be a numpy float.
        floats = st.one_of(
            st.floats(min_value=1e-300, max_value=1e300),
            st.floats(min_value=-1e300, max_value=-1e-300),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e12, 1e15, 123456789012.0]),
            st.integers(-10**15, 10**15).map(float),
        )
        rows = []
        for _ in range(data.draw(st.integers(0, 6))):
            alpha = data.draw(floats)
            point = dict(
                alpha=data.draw(st.sampled_from([alpha, np.float64(alpha)])),
                mode=data.draw(st.sampled_from([AUX_RICH, NO_AUX, FINITE_AUX])),
                catalyst_dim=data.draw(st.integers(2, 64)),
                p_locc=data.draw(floats), z_locc=data.draw(floats),
                rate_locc_hz=data.draw(floats),
            )
            if data.draw(st.booleans()):
                rows.append(SweepRow(
                    **point, p_cat=data.draw(floats), c0=data.draw(floats),
                    n_cat=data.draw(st.integers(1, 10**7)), eta_p=data.draw(floats),
                    z_cat=data.draw(floats), t_edge_cycle_s=data.draw(floats),
                    rate_cat_hz=data.draw(floats), eta_r=data.draw(floats),
                    window_flag=WINDOW_OK,
                ))
            else:
                rows.append(SweepRow(**point, window_flag=WINDOW_OUT))
        new, reference = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, new)
        oracles.write_sweep_csv(rows, reference)
        assert new.getvalue() == reference.getvalue()

    def test_deterministic_bytes(self):
        rows = sweep_rates(2, 4, list(np.linspace(0.72, 0.9, 7)), [AUX_RICH, NO_AUX], [2])
        a, b = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, a)
        write_sweep_csv(sweep_rates(2, 4, list(np.linspace(0.72, 0.9, 7)), [AUX_RICH, NO_AUX], [2]), b)
        assert a.getvalue() == b.getvalue()
