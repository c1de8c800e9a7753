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
from entcat.errors import CatalysisWindowError, InvalidInputError
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


class TestTimings:
    def test_t_primary_reference(self):
        assert t_primary(2, 2.5e-4, 0.5) == pytest.approx(1e-3)
        assert t_primary(1, 0.125, 1.0) == 0.125
        assert t_primary(4, 1.0, 0.25) == pytest.approx(16.0)

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
        (4, [0.5, 0.0]), (4, [1.5]), (4, [0.3, -0.1]), (4, [float("nan")]),
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


@pytest.mark.parametrize("n_edges", [2.5, 4.0, "4", None])
@pytest.mark.parametrize("call", [
    lambda n: waiting_factors(n, [0.5, 0.005]),
    lambda n: waiting_factor(n, 0.5),
    lambda n: rate_slotted(EdgeParams(alpha=0.8), n),
    lambda n: rate_catalytic(EdgeParams(alpha=0.8), AuxConfig(AUX_RICH), n),
    lambda n: sweep_rates(2, n, [0.8]),
], ids=["waiting_factors", "waiting_factor", "rate_slotted", "rate_catalytic", "sweep_rates"])
def test_edge_count_must_be_an_integer(call, n_edges):
    # a non-integral count once gave a rate (764.68 Hz from rate_catalytic at
    # 2.5) or a bare TypeError; numpy integers are counts like Python's
    with pytest.raises(InvalidInputError, match="edge count must be a positive integer"):
        call(n_edges)
    assert call(np.int64(4)) == call(4)


class TestSweep:
    def test_row_shape_and_order(self):
        grid = [0.6, 0.75, 0.8]
        rows = sweep_rates(2, 4, grid, [AUX_RICH], [2])
        assert len(rows) == 3
        assert [r.alpha for r in rows] == sorted(grid)
        flags = {r.alpha: r.window_flag for r in rows}
        assert flags[0.6] == "out_of_window"
        assert flags[0.8] == "ok"

    def test_out_of_window_rows_keep_locc(self):
        rows = sweep_rates(2, 4, [0.6], [AUX_RICH], [2])
        row = rows[0]
        assert row.p_cat is None and row.eta_r is None
        assert row.p_locc == 1.0
        assert row.rate_locc_hz > 0

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
