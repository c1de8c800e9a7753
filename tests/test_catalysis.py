import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entcat.catalysis import (
    CatalystSpec,
    ConcentrationProblem,
    catalysis_probability,
    copies_for_catalyst,
    in_catalysis_window,
    initial_spectrum,
    intermediate_state,
    locc_probability,
    n_star,
    optimal_two_qubit_catalyst,
    search_catalyst,
    search_catalysts,
    target_spectrum,
)
from entcat import _search, catalysis
from entcat.errors import (
    CatalysisWindowError,
    InvalidInputError,
    NumericFailureError,
    ResourceLimitError,
)
from entcat.spectra import (
    TOL,
    SchmidtVector,
    can_convert_deterministically,
    conversion_probabilities,
    conversion_probability,
    make_schmidt,
    monotones,
    tensor_product,
)

import oracles


def two_qubit(c0):
    """The two-qubit spectrum ``(c0, 1 - c0)``, for ``c0`` in [1/2, 1]."""
    return SchmidtVector(np.array([c0, 1.0 - c0]))


# Closed-form reference points, pinned from the formula and cross-checked by
# the numeric search below.
C0_2_08 = 0.5919671916850177
PCAT_2_08 = 0.8822819946431774


class TestInitialAndTargetSpectra:
    def test_single_copy(self):
        p = ConcentrationProblem(1, 0.8)
        np.testing.assert_allclose(initial_spectrum(p).coefficients, [0.8, 0.2])

    def test_two_copies(self):
        p = ConcentrationProblem(2, 0.8)
        np.testing.assert_allclose(
            initial_spectrum(p).coefficients, [0.64, 0.16, 0.16, 0.04], atol=1e-15
        )

    def test_two_copies_balanced_is_uniform(self):
        p = ConcentrationProblem(2, 0.5 + 1e-12)
        np.testing.assert_allclose(initial_spectrum(p).coefficients, [0.25] * 4)

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            initial_spectrum(ConcentrationProblem(25, 0.8))

    @pytest.mark.parametrize("build,sizes", [
        (lambda: initial_spectrum(ConcentrationProblem(25, 0.8)), "2**25 * 1"),
        (lambda: target_spectrum(21), "2**21 * 1"),
        (lambda: catalysis_probability(ConcentrationProblem(19, 0.99),
                                       make_schmidt([0.4, 0.3, 0.2, 0.1])), "2**19 * 4"),
        (lambda: search_catalyst(ConcentrationProblem(19, 0.99), 4), "2**19 * 4"),
    ], ids=["initial", "target", "catalysed", "search"])
    def test_dimension_cap_has_one_message(self, build, sizes):
        # Every spectrum is checked against DIM_CAP by one comparison.
        with pytest.raises(ResourceLimitError) as info:
            build()
        assert str(info.value) == f"combined dimension {sizes} exceeds the cap 1048576"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_target(self, n):
        coeffs = target_spectrum(n).coefficients
        assert coeffs.size == 2**n
        np.testing.assert_allclose(coeffs[:2], [0.5, 0.5])
        assert np.all(coeffs[2:] == 0.0)

    @pytest.mark.parametrize("count", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_target_takes_numpy_counts(self, count):
        # numpy integers are counts here as in ConcentrationProblem
        np.testing.assert_array_equal(target_spectrum(count).coefficients,
                                      target_spectrum(2).coefficients)
        with pytest.raises(InvalidInputError, match="positive integer"):
            target_spectrum(2.0)

    def test_problem_validation(self):
        with pytest.raises(InvalidInputError):
            ConcentrationProblem(0, 0.8)
        with pytest.raises(InvalidInputError):
            ConcentrationProblem(2, 0.5)
        with pytest.raises(InvalidInputError):
            ConcentrationProblem(2, 1.0)

    @pytest.mark.parametrize("alpha", ["0.8", None, np.array([0.8, 0.9]), 0.8j, True])
    def test_problem_alpha_must_be_a_real_number(self, alpha):
        # "0.8" and None once raised a bare TypeError, an array a bare ValueError.
        with pytest.raises(InvalidInputError, match="alpha must"):
            ConcentrationProblem(2, alpha)

    @pytest.mark.parametrize("alpha", [np.float32(0.8), np.float64(0.8), np.longdouble(0.8)])
    def test_numpy_alpha_is_a_plain_float(self, alpha):
        # Its arithmetic is then done in double precision.
        problem = ConcentrationProblem(2, alpha)
        assert type(problem.alpha) is float and problem.alpha == float(alpha)
        assert locc_probability(problem) == locc_probability(ConcentrationProblem(2, float(alpha)))


class TestCountRule:
    def test_bool_is_not_a_count(self):
        # True once priced as one copy; a bool column was already rejected.
        with pytest.raises(InvalidInputError) as info:
            catalysis._count(True)
        assert str(info.value) == "copy count must be a positive integer, got True"
        with pytest.raises(InvalidInputError, match="copy counts must be positive integers"):
            catalysis._count(np.array([True]), column=True)

    @pytest.mark.parametrize("column", [[3, 1], np.array([2, 5], dtype=np.uint8), []])
    def test_column_is_an_array(self, column):
        # only a caller that prices a column of points asks for one
        got = catalysis._count(column, column=True)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, column)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.uint64])
    def test_column_comes_back_as_int64(self, dtype):
        # a uint8 column came back as given, and a sum of counts in it wrapped
        top = 2**63 - 1 if dtype == np.uint64 else int(np.iinfo(dtype).max)
        got = catalysis._count(np.array([1, top], dtype=dtype), column=True)
        assert got.dtype == np.int64
        assert got.tolist() == [1, top]

    def test_column_past_int64_is_rejected(self):
        with pytest.raises(InvalidInputError, match="must fit in 64-bit signed integers"):
            catalysis._count(np.array([1, 2**63], dtype=np.uint64), column=True)

    @pytest.mark.parametrize("build", [
        lambda n: ConcentrationProblem(n, 0.8),
        lambda n: target_spectrum(n),
        lambda n: search_catalysts([ConcentrationProblem(2, 0.8)], n),
        lambda n: search_catalyst(ConcentrationProblem(2, 0.8), n),
    ], ids=["problem", "target", "search_catalysts", "search_catalyst"])
    def test_one_count_rejects_a_column(self, build):
        # ConcentrationProblem stored array([2]); a search raised a bare TypeError
        with pytest.raises(InvalidInputError,
                           match=r"must be an? (positive )?integer( >= 2)?, got \[3\]"):
            build(np.array([3]))


class TestPowerCoefficients:
    GRID = np.linspace(0.55, 1.0 - 1e-6, 200).tolist()  # the sweep-dim4 grid

    @pytest.mark.parametrize("n", range(2, 11))
    def test_column_rows_are_the_one_alpha_rows(self, n):
        # the catalyst search builds psi for its whole batch in one call
        rows = catalysis._power_coefficients(self.GRID, n)
        assert rows.shape == (len(self.GRID), 2**n)
        for alpha, row in zip(self.GRID, rows):
            assert row.tobytes() == catalysis._power_coefficients(alpha, n).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 7, 60, 10**6])
    def test_column_top_entries_are_the_one_alpha_entries(self, m):
        # the copy rule's supply powers: the top few entries of a large power
        rows = catalysis._power_coefficients(self.GRID, m, 5)
        assert rows.shape == (len(self.GRID), 5)
        for alpha, row in zip(self.GRID, rows):
            assert row.tobytes() == catalysis._power_coefficients(alpha, m, 5).tobytes()

    @pytest.mark.parametrize("count", [1, 3, 5, 9])
    def test_count_column_rows_are_the_one_alpha_rows(self, count):
        # each step of the copy rule: one copy count per alpha, some so
        # small that 2**m entries do not fill the row
        m = np.random.default_rng(count).integers(1, 200, len(self.GRID))
        m[:4] = [1, 2, 3, 10**6]
        rows = catalysis._power_coefficients(self.GRID, m, count)
        for alpha, copies, row in zip(self.GRID, m.tolist(), rows):
            assert row.tobytes() == catalysis._power_coefficients(alpha, copies, count).tobytes()


class TestLoccProbability:
    def test_two_copies(self):
        assert locc_probability(ConcentrationProblem(2, 0.8)) == pytest.approx(0.72)

    def test_clamps_to_one(self):
        # n = 4 >= n_star(0.8), the unclamped value would be 1.18
        assert locc_probability(ConcentrationProblem(4, 0.8)) == 1.0

    @pytest.mark.parametrize("n,alpha", [(1, 0.7), (2, 0.8), (3, 0.9), (5, 0.95)])
    def test_equals_min_ratio_route(self, n, alpha):
        p = ConcentrationProblem(n, alpha)
        direct = conversion_probability(initial_spectrum(p), target_spectrum(n))
        assert locc_probability(p) == pytest.approx(direct, abs=1e-12)


class TestNStar:
    def test_known_values(self):
        assert n_star(0.8) == 4
        assert n_star(0.9) == 7

    def test_near_balanced_limit(self):
        # The un-ceiled closed form tends to 1 as alpha -> 1/2 from above; for
        # any alpha strictly above 1/2 one copy is not deterministic, so the
        # ceiling lands at 2.
        alpha = 0.5 + 1e-9
        assert -1.0 / math.log2(alpha) == pytest.approx(1.0, abs=1e-8)
        assert n_star(alpha) == 2

    def test_deterministic_at_and_above(self):
        for alpha in (0.6, 0.77, 0.85, 0.93):
            m = n_star(alpha)
            assert locc_probability(ConcentrationProblem(m, alpha)) == 1.0
            if m > 1:
                assert locc_probability(ConcentrationProblem(m - 1, alpha)) < 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.2])
    def test_rejects(self, alpha):
        with pytest.raises(InvalidInputError):
            n_star(alpha)

    def test_smallest_power_matches_a_brute_force(self):
        # _smallest_power_at_most backs n_star, copies_for_catalyst and every
        # dimension-2 sweep copy count.  Near-boundary inputs, alpha = c**(1/k)
        # or one ulp either side, put its log estimate one too high or one
        # too low often enough that both of its correction loops run here.
        rng = random.Random(2030)
        high = low = 0
        for _ in range(10_000):
            k = rng.randint(1, 400)
            c = 0.5 if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
            root = c ** (1.0 / k)
            alpha = rng.choice([root, math.nextafter(root, 0.0), math.nextafter(root, 1.0)])
            if not 0.0 < alpha < 1.0:
                continue
            m = catalysis._smallest_power_at_most(alpha, c)
            smallest = 1
            while alpha**smallest > c:
                smallest += 1
            assert m == smallest, (alpha, c)
            estimate = max(1, math.ceil(math.log(c) / math.log(alpha)))
            high += estimate > m
            low += estimate < m
        assert high > 0 and low > 0, (high, low)


class TestCatalysisWindow:
    def test_one_power_matches_n_star(self):
        # The window test takes one power, alpha**n > 1/2; it must agree with
        # 2 <= n <= n_star(alpha) - 1 at every window edge 0.5**(1/m), at its
        # 30 float neighbours on each side, and on a fixed random sample.
        alphas = list(np.random.default_rng(7).uniform(0.5, 1.0, 2000))
        for m in range(1, 71):
            edge = 0.5 ** (1.0 / m)
            below = above = edge
            for _ in range(30):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                alphas += [below, above]
            alphas.append(edge)
        alphas = [float(a) for a in alphas if 0.5 < a < 1.0]
        for alpha in alphas:
            star = n_star(alpha)
            for n in range(1, 71):
                problem = ConcentrationProblem(n, alpha)
                assert in_catalysis_window(problem) == (2 <= n <= star - 1), (n, alpha)


class TestOptimalTwoQubitCatalyst:
    def test_closed_form_value(self):
        spec = optimal_two_qubit_catalyst(ConcentrationProblem(2, 0.8))
        assert spec.spectrum.coefficients[0] == pytest.approx(C0_2_08, abs=1e-15)
        assert spec.success_probability == pytest.approx(PCAT_2_08, abs=1e-15)
        # matches the published 5-digit roundings
        assert spec.spectrum.coefficients[0] == pytest.approx(0.59196, abs=1e-5)
        assert spec.success_probability == pytest.approx(0.88227, abs=2e-5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_spec_probability_must_lie_in_the_unit_interval(self, p):
        with pytest.raises(InvalidInputError, match="success probability must lie in"):
            CatalystSpec(two_qubit(C0_2_08), p)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_window_enforced(self, n):
        with pytest.raises(CatalysisWindowError):
            optimal_two_qubit_catalyst(ConcentrationProblem(n, 0.8))

    @pytest.mark.parametrize("n,alpha", [(2, 0.7072), (2, 0.8), (3, 0.9), (2, 0.999999)])
    def test_closed_form_helper_gives_the_same_bits(self, n, alpha):
        problem = ConcentrationProblem(n, alpha)
        spec = optimal_two_qubit_catalyst(problem)
        c0, p_cat = catalysis._two_qubit_closed_form(problem)
        assert (c0, 1.0 - c0) == tuple(spec.spectrum.coefficients)
        assert p_cat == spec.success_probability

    def test_closed_form_helper_checks_its_coefficient(self):
        # Outside the window (n_star(0.8) = 4) the closed form drops below
        # 1/2, which the helper rejects as the spectrum would have.
        with pytest.raises(NumericFailureError, match="not a larger Schmidt coefficient"):
            catalysis._two_qubit_closed_form(ConcentrationProblem(5, 0.8))

    def test_near_unity_asymptotics(self):
        # 1 - c0 approaches sqrt(n (1-alpha) / 2)
        for n in (2, 3):
            alpha = 1.0 - 1e-6
            spec = optimal_two_qubit_catalyst(ConcentrationProblem(n, alpha))
            gap = 1.0 - spec.spectrum.coefficients[0]
            assert gap == pytest.approx(math.sqrt(n * (1 - alpha) / 2), rel=1e-2)


class TestCatalysisProbability:
    def test_optimal_catalyst(self):
        p = ConcentrationProblem(2, 0.8)
        spec = optimal_two_qubit_catalyst(p)
        assert catalysis_probability(p, spec.spectrum) == pytest.approx(
            PCAT_2_08, abs=1e-9
        )

    def test_trivial_catalyst_reduces_to_locc(self):
        p = ConcentrationProblem(2, 0.8)
        assert catalysis_probability(p, make_schmidt([1.0])) == pytest.approx(0.72)
        assert catalysis_probability(p, two_qubit(1.0)) == pytest.approx(0.72)

    def test_deterministic_regime_clamps(self):
        p = ConcentrationProblem(2, 0.500000001)
        assert catalysis_probability(p, make_schmidt([0.7, 0.3])) == 1.0

    def test_closed_form_matches_min_ratio_on_grid(self):
        for n in (2, 3):
            for alpha in np.arange(0.55, 0.95 + 1e-9, 0.05):
                alpha = float(alpha)
                if not 2 <= n <= n_star(alpha) - 1:
                    continue
                p = ConcentrationProblem(n, alpha)
                spec = optimal_two_qubit_catalyst(p)
                evaluated = catalysis_probability(p, spec.spectrum)
                assert abs(evaluated - spec.success_probability) <= 1e-9

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            catalysis_probability(
                ConcentrationProblem(19, 0.8), make_schmidt([0.3, 0.3, 0.2, 0.2])
            )

    def test_catalysed_target_memory(self):
        # the target side is the catalyst's 2 d_c halves: a 2**n d_c target
        # row, built and sorted, peaked at 53 MiB here
        catalyst = make_schmidt([0.4, 0.3, 0.2, 0.1])
        tracemalloc.start()
        try:
            catalysis_probability(ConcentrationProblem(18, 0.99), catalyst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestEfficiencyRatio:
    """The catalytic success probability over the plain LOCC optimum."""

    def test_reference_point(self):
        p = ConcentrationProblem(2, 0.8)
        spec = optimal_two_qubit_catalyst(p)
        ratio = catalysis_probability(p, spec.spectrum) / locc_probability(p)
        assert ratio == pytest.approx(1.2254, abs=1e-3)

    def test_trivial_catalyst(self):
        p = ConcentrationProblem(2, 0.8)
        ratio = catalysis_probability(p, make_schmidt([1.0])) / locc_probability(p)
        assert ratio == pytest.approx(1.0)

    def test_divergence_scaling(self):
        for n in (2, 3):
            alpha = 1.0 - 1e-6
            p = ConcentrationProblem(n, alpha)
            spec = optimal_two_qubit_catalyst(p)
            ratio = catalysis_probability(p, spec.spectrum) / locc_probability(p)
            scaled = ratio * math.sqrt(n * (1 - alpha))
            assert scaled == pytest.approx(1 / math.sqrt(2), rel=0.02)

    def test_advantage_strict_in_window(self):
        for alpha in np.linspace(0.72, 0.97, 12):
            alpha = float(alpha)
            for n in range(2, min(n_star(alpha), 9)):
                p = ConcentrationProblem(n, alpha)
                spec = optimal_two_qubit_catalyst(p)
                assert catalysis_probability(p, spec.spectrum) / locc_probability(p) > 1.0


class TestSearchCatalyst:
    def test_two_dim_matches_closed_form(self):
        p = ConcentrationProblem(2, 0.8)
        found = search_catalyst(p, 2)
        assert abs(found.spectrum.coefficients[0] - C0_2_08) <= 1e-4
        assert abs(found.success_probability - PCAT_2_08) <= 1e-6

    def test_four_dim_dominates_two_dim(self):
        p = ConcentrationProblem(2, 0.8)
        two = optimal_two_qubit_catalyst(p)
        four = search_catalyst(p, 4)
        assert four.success_probability >= two.success_probability - 1e-9

    def test_boundary_recovers_locc(self):
        # the c -> 1 edge of the search space is the trivial catalyst
        p = ConcentrationProblem(3, 0.85)
        assert catalysis_probability(p, two_qubit(1.0)) == pytest.approx(
            locc_probability(p), abs=1e-12
        )

    def test_window_enforced(self):
        with pytest.raises(CatalysisWindowError):
            search_catalyst(ConcentrationProblem(5, 0.8), 2)

    def test_rejects_bad_dimension(self):
        # a dimension of 2.5 once raised a bare TypeError
        for d_c in (1, 2.5, 3.0, "3", None):
            with pytest.raises(InvalidInputError, match="catalyst dimension must be an integer >= 2"):
                search_catalyst(ConcentrationProblem(2, 0.8), d_c)

    def test_two_dim_within_1e9_of_closed_form(self):
        # criterion 1's problems: n in (2, 3), alpha on 0.55..0.95
        for n in (2, 3):
            for alpha in [round(0.55 + 0.05 * i, 2) for i in range(9)]:
                if not 2 <= n <= n_star(alpha) - 1:
                    continue
                problem = ConcentrationProblem(n, alpha)
                closed = optimal_two_qubit_catalyst(problem).success_probability
                found = search_catalyst(problem, 2).success_probability
                assert abs(found - closed) <= 1e-9, (n, alpha, found - closed)

    @pytest.mark.parametrize("n, alpha", [(2, 0.8), (3, 0.9)])
    def test_larger_dimension_never_worse_and_exact(self, n, alpha):
        # zero-padding embeds each dimension in the next, so the certified
        # optimum cannot fall as d_c grows
        problem = ConcentrationProblem(n, alpha)
        initial = initial_spectrum(problem).coefficients
        final = target_spectrum(n).coefficients
        previous = 0.0
        for d_c in range(2, 9):
            found = search_catalyst(problem, d_c)
            assert found.dimension == d_c
            assert found.success_probability >= previous
            previous = found.success_probability
            c = found.spectrum.coefficients
            exact = oracles.exact_conversion_probability(
                np.outer(initial, c).ravel().tolist(), np.outer(final, c).ravel().tolist()
            )
            assert abs(float(exact) - found.success_probability) <= 1e-12

    def test_spectrum_sorted_and_normalised(self):
        for n, alpha, d_c in [(2, 0.8, 3), (3, 0.9, 4), (2, 0.95, 6)]:
            c = search_catalyst(ConcentrationProblem(n, alpha), d_c).spectrum.coefficients
            assert c.size == d_c
            assert np.all(np.diff(c) <= 0.0)
            assert np.all(c >= 0.0)
            assert abs(c.sum() - 1.0) <= 1e-15

    def test_cut_budget_exhausted_raises(self, monkeypatch):
        # an uncertified point is never returned; the best one rides on the error
        monkeypatch.setattr(_search, "_max_cuts", lambda free: 20)
        with pytest.raises(NumericFailureError) as info:
            search_catalyst(ConcentrationProblem(2, 0.8), 4)
        assert info.value.best is not None
        assert info.value.best.dimension == 4

    def test_batch_objective_matches_scalar_route(self):
        # the evaluator passes the catalyst's halves as the target side; the
        # kernel on the full tensored rows, target zero-padded to 2**n d_c
        # entries as the search once built them, must give the same bits,
        # through the batch and through catalysis_probability, zero entries
        # and product catalysts included
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            for alpha in rng.uniform(0.5, 1.0, 3):
                problem = ConcentrationProblem(n, float(alpha))
                initial = initial_spectrum(problem).coefficients
                final = target_spectrum(n).coefficients
                for d_c in range(1, 9):
                    rows = np.sort(rng.random((8, d_c)), axis=1)[:, ::-1]
                    for row in rows:
                        row[d_c - rng.integers(0, d_c) :] = 0.0  # zero tail, first entry kept
                    rows[0, 1:] = 0.0  # product catalyst
                    catalysts = rows / rows.sum(axis=1, keepdims=True)
                    batch = conversion_probabilities(
                        (initial[None, :, None] * catalysts[:, None, :]).reshape(len(rows), -1),
                        (final[None, :, None] * catalysts[:, None, :]).reshape(len(rows), -1),
                    )
                    psi = np.tile(initial, (len(rows), 1))
                    got = catalysis._catalysed_probabilities(psi, catalysts)
                    assert got.tobytes() == batch.tobytes()
                    for row, expected in zip(catalysts, batch):
                        assert catalysis_probability(problem, SchmidtVector(row)) == expected


def _sweep_dim4_problems():
    # the in-window alphas of `entcat sweep --n 3 --steps 200` over the
    # default grid the benchmark's sweep-dim4 workload uses
    grid = np.linspace(0.55, 1.0 - 1e-6, 200)
    problems = [ConcentrationProblem(3, float(a)) for a in grid]
    return [p for p in problems if 3 <= n_star(p.alpha) - 1]


def _assert_same_as_one_at_a_time(problems, d_c):
    batch = search_catalysts(problems, d_c)
    assert len(batch) == len(problems)
    for problem, found in zip(problems, batch):
        alone = search_catalyst(problem, d_c)
        assert np.array_equal(found.spectrum.coefficients, alone.spectrum.coefficients)
        assert found.success_probability == alone.success_probability
    return batch


def _search_digest(results):
    digest = hashlib.sha256()
    for found in results:
        digest.update(found.spectrum.coefficients.tobytes())
        digest.update(float.hex(found.success_probability).encode())
    return digest.hexdigest()


class TestSearchCatalysts:
    # sha256 over each catalyst's coefficient bytes and its probability in
    # hex, taken from the search before its cut loop was rewritten for speed,
    # so any change to the search's arithmetic shows here.  At d_c = 6 the
    # optimum is a face and the point returned depends on where the cuts stop.
    @pytest.mark.parametrize(
        "stride, d_c, expected",
        [
            (1, 4, "a4e0fa573cf574bd23367047ecaaba06d052a65340b889943cc40acf0def0383"),
            (13, 6, "39f3b1456ff7ef89df02ffd990a557cb0b1104e10038ea6505862b59d9790c88"),
        ],
    )
    def test_results_are_pinned(self, stride, d_c, expected):
        found = search_catalysts(_sweep_dim4_problems()[::stride], d_c)
        assert _search_digest(found) == expected

    def test_single_problem_result_is_pinned(self):
        found = search_catalyst(ConcentrationProblem(2, 0.8), 6)
        expected = "4c77d54b7de3d475ec4935428b3ecfd17a0eac96725fdb0c8f9501ff71cdc312"
        assert _search_digest([found]) == expected

    def test_ordered_rows_normalize_as_make_schmidt_does(self):
        rng = np.random.default_rng(3)
        rows = -np.sort(-rng.random((20, 6)), axis=1)
        rows[0, 3:] = 0.0  # a zero tail
        rows[1] = 1.0  # all ties
        normalized, spectra = _search._ordered_spectra(rows)
        for row, norm, spectrum in zip(rows, normalized, spectra):
            expected = make_schmidt(row).coefficients
            assert np.array_equal(norm, expected)
            assert np.array_equal(spectrum.coefficients, expected)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 0.0, 0.0], "must be finite"),  # 0 / 0
            ([0.6, 0.5, -0.1], "must be non-negative"),
            ([0.2, 0.3, 0.5], "must be sorted non-increasing"),
            ([0.5, np.nan, 0.1], "must be finite"),
            ([np.inf, 1.0, 0.0], "must be finite"),
            ([1e308, 1e308, 0.0], "must sum to 1, got 0.0"),  # the sum overflows
        ],
        ids=["zeros", "negative", "unordered", "nan", "inf", "bad-sum"],
    )
    def test_row_that_is_not_a_spectrum_raises(self, row, message):
        # the batch is checked once, by the test each SchmidtVector makes,
        # and a bad row gets SchmidtVector's own message
        row = np.array(row)
        with np.errstate(all="ignore"):
            normalized = row / row.sum()
        with pytest.raises(InvalidInputError) as own:
            SchmidtVector(normalized)
        with pytest.raises(InvalidInputError) as info:
            _search._ordered_spectra(np.array([[0.5, 0.3, 0.2], row]))
        assert str(info.value) == str(own.value)
        assert message in str(info.value)

    def test_checked_rows_are_read_only_spectra(self):
        normalized, spectra = _search._ordered_spectra(np.array([[3.0, 1.0], [2.0, 2.0]]))
        assert not normalized.flags.writeable
        for row, spectrum in zip(normalized, spectra):
            assert isinstance(spectrum, SchmidtVector) and not spectrum.coefficients.flags.writeable
            assert spectrum.coefficients.tobytes() == SchmidtVector(row).coefficients.tobytes()

    @pytest.mark.parametrize(
        "n, d_c, alphas",
        [
            (2, 2, [0.75]),  # exact ties across catalyst entries at the first centre
            (2, 3, [0.75, 0.8, 0.9]),
            (2, 5, [0.8, 0.95]),
            (3, 4, [0.875] + [p.alpha for p in _sweep_dim4_problems()[::9]]),
            (3, 6, [0.9]),
            # problems go flat while others are still searched (at 7, 6 and
            # 5 left), so their columns drop out in the middle of the batch
            (3, 6, [p.alpha for p in _sweep_dim4_problems()[::13]]),
            (4, 3, [0.9, 0.95]),
        ],
        ids=["n2-d2-ties", "n2-d3", "n2-d5", "n3-d4", "n3-d6", "n3-d6-batch", "n4-d3"],
    )
    def test_matches_the_search_that_checks_every_cut(self, monkeypatch, n, d_c, alphas):
        # The reference tests the certificate before every cut and sums the
        # supergradient's weights rank by rank.  The search must return the
        # same bits and certify its last problem at the same cut: with that
        # many cuts it succeeds, with one fewer it runs out.
        problems = [ConcentrationProblem(n, alpha) for alpha in alphas]
        expected, last_cut = oracles.lockstep_search(problems, d_c, _search._max_cuts(d_c - 1))

        def assert_expected(found):
            assert len(found) == len(expected)
            for (coefficients, probability), spec in zip(expected, found):
                assert np.array_equal(spec.spectrum.coefficients, coefficients)
                assert spec.success_probability == probability

        assert_expected(search_catalysts(problems, d_c))
        monkeypatch.setattr(_search, "_max_cuts", lambda free: last_cut + 1)
        assert_expected(search_catalysts(problems, d_c))
        monkeypatch.setattr(_search, "_max_cuts", lambda free: last_cut)
        with pytest.raises(NumericFailureError):
            search_catalysts(problems, d_c)

    def test_batch_is_bit_for_bit_one_at_a_time(self):
        problems = _sweep_dim4_problems()
        assert len(problems) == 92
        batch = _assert_same_as_one_at_a_time(problems, 4)
        final = target_spectrum(3).coefficients
        for problem, found in zip(problems, batch):
            c = found.spectrum.coefficients
            initial = initial_spectrum(problem).coefficients
            exact = oracles.exact_conversion_probability(
                np.outer(initial, c).ravel().tolist(), np.outer(final, c).ravel().tolist()
            )
            assert abs(float(exact) - found.success_probability) <= 1e-12
            # one kernel call for the batch gives each catalyst's own bits
            assert found.success_probability == catalysis_probability(problem, found.spectrum)
            closed = optimal_two_qubit_catalyst(problem).success_probability
            assert found.success_probability >= closed

    def test_shuffled_batch_gives_the_same_rows(self):
        problems = _sweep_dim4_problems()
        batch = search_catalysts(problems, 4)
        perm = np.random.default_rng(9).permutation(len(problems))
        shuffled = search_catalysts([problems[i] for i in perm], 4)
        for i, found in zip(perm, shuffled):
            assert np.array_equal(found.spectrum.coefficients, batch[i].spectrum.coefficients)
            assert found.success_probability == batch[i].success_probability

    @pytest.mark.parametrize("d_c, stride", [(3, 7), (6, 13)])
    def test_subsets_at_other_dimensions(self, d_c, stride):
        problems = _sweep_dim4_problems()[::stride]
        assert len(problems) >= 7
        _assert_same_as_one_at_a_time(problems, d_c)

    def test_empty_batch(self):
        assert search_catalysts([], 4) == []

    def test_cut_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(_search, "_max_cuts", lambda free: 20)
        problems = _sweep_dim4_problems()[::10]
        with pytest.raises(NumericFailureError) as info:
            search_catalysts(problems, 4)
        assert info.value.best is not None
        assert info.value.best.dimension == 4

    def test_out_of_window_problem(self):
        # n = 3 is in the window at alpha = 0.9 but not at 0.7
        problems = [ConcentrationProblem(3, 0.9), ConcentrationProblem(3, 0.7)]
        with pytest.raises(CatalysisWindowError):
            search_catalysts(problems, 4)

    def test_mixed_copy_counts(self):
        problems = [ConcentrationProblem(2, 0.9), ConcentrationProblem(3, 0.9)]
        with pytest.raises(InvalidInputError):
            search_catalysts(problems, 4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            search_catalysts([ConcentrationProblem(2, 0.8)], 1)


def _entropy_bits(values) -> float:
    """The Shannon entropy of the distribution ``values``, in bits."""
    values = np.asarray(values, float)
    values = values[values > 0.0]
    return float(-(values * np.log2(values)).sum())


class TestEntropyBounds:
    # Average entanglement entropy cannot rise under LOCC, and a failed
    # attempt leaves at least 0 ebits.  So plain LOCC, which returns no
    # catalyst, succeeds with at most min(1, n h(alpha)), and a catalyst c
    # that a failure loses gives at most (n h(alpha) + H(c)) / (1 + H(c)).
    # Both are hard checks, with no tolerance, on the sweep-dim4 grid.
    GRID = np.linspace(0.55, 1.0 - 1e-6, 200).tolist()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_locc_stays_under_the_entropy_ceiling(self, n):
        for alpha in self.GRID:
            p = locc_probability(ConcentrationProblem(n, alpha))
            ceiling = min(1.0, n * _entropy_bits([alpha, 1.0 - alpha]))
            assert p <= ceiling
            assert p < ceiling or p == 1.0  # they meet only where both are 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_catalysts_stay_under_the_entropy_ledger(self, n):
        problems = [ConcentrationProblem(n, alpha) for alpha in self.GRID]
        problems = [problem for problem in problems if in_catalysis_window(problem)]
        two_qubit_catalysts = [optimal_two_qubit_catalyst(problem) for problem in problems]
        for catalysts in (two_qubit_catalysts, search_catalysts(problems, 3),
                          search_catalysts(problems, 4)):
            for problem, catalyst in zip(problems, catalysts):
                ebits = n * _entropy_bits([problem.alpha, 1.0 - problem.alpha])
                burned = _entropy_bits(catalyst.spectrum.coefficients)
                assert catalyst.success_probability <= (ebits + burned) / (1.0 + burned)


class TestIntermediateState:
    def test_failed_verification_raises(self, monkeypatch):
        # Every call verifies its state, and one that fails is never returned.
        monkeypatch.setattr(catalysis, "can_convert_deterministically", lambda *_: False)
        message = r"^intermediate state construction failed verification for p=0\.5$"
        with pytest.raises(NumericFailureError, match=message):
            intermediate_state(two_qubit(0.75), two_qubit(0.5))

    def test_probabilistic_case(self):
        gamma = intermediate_state(two_qubit(0.75), two_qubit(0.5))
        np.testing.assert_allclose(gamma.coefficients, [0.75, 0.25], atol=1e-12)

    def test_identity_case(self):
        f = make_schmidt([0.5, 0.3, 0.2])
        gamma = intermediate_state(f, f)
        np.testing.assert_allclose(gamma.coefficients, f.coefficients, atol=1e-12)

    def test_deterministic_case_returns_target(self):
        initial = make_schmidt([0.4, 0.3, 0.2, 0.1])
        final = make_schmidt([0.5, 0.3, 0.2, 0.0])
        assert can_convert_deterministically(initial, final)
        gamma = intermediate_state(initial, final)
        np.testing.assert_allclose(gamma.coefficients, final.coefficients, atol=1e-12)

    def test_small_tail_pair(self):
        # gamma's smallest monotone lands below TOL while the final one is above
        wi = [0.5591280731635895, 0.3056071620846256, 0.10201800306520689,
              0.02346291736134384, 0.007380237985615619, 0.001994747058818766,
              0.00040638815311099777, 2.4711276887714395e-06]
        wf = [0.45441797089070785, 0.27844866304732796, 0.10381830386311722,
              0.0847900815405002, 0.07344519903228255, 0.0050797816233150855,
              2.7492063201644512e-12, 0.0]
        initial, final = make_schmidt(wi), make_schmidt(wf)
        p = conversion_probability(initial, final)
        assert p == pytest.approx(float(oracles.exact_conversion_probability(wi, wf)), abs=1e-12)
        gamma = intermediate_state(initial, final)
        assert can_convert_deterministically(initial, gamma)
        assert abs(conversion_probability(gamma, final) - p) <= 1e-10

    def test_contract_on_random_problems(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            d = int(rng.integers(2, 17))
            initial = make_schmidt(rng.random(d) + 1e-3)
            final = make_schmidt(rng.random(int(rng.integers(2, 17))) + 1e-3)
            p = conversion_probability(initial, final)
            gamma = intermediate_state(initial, final)
            assert can_convert_deterministically(initial, gamma)
            assert abs(conversion_probability(gamma, final) - p) <= 1e-10


class TestSupplyAccounting:
    def test_reference_copy_count(self):
        assert copies_for_catalyst(two_qubit(C0_2_08), 0.8) == 3

    def test_single_copy_when_equal(self):
        assert copies_for_catalyst(two_qubit(0.59196), 0.59196) == 1

    def test_high_quality_supply(self):
        assert copies_for_catalyst(two_qubit(0.9), 0.99) == 11

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            copies_for_catalyst(two_qubit(0.9), 1.0)
        with pytest.raises(InvalidInputError):
            copies_for_catalyst(two_qubit(0.9), 0.5)

    def test_generalized_agrees_with_closed_form(self):
        # a two-qubit catalyst needs the smallest m with alpha**m <= c0
        rng = np.random.default_rng(7)
        for _ in range(100):
            c0 = float(rng.uniform(0.51, 0.99))
            alpha = float(rng.uniform(0.51, 0.99))
            m = 1
            while alpha**m > c0:
                m += 1
            assert copies_for_catalyst(two_qubit(c0), alpha) == m

    def test_generalized_copy_count_is_sufficient(self):
        catalyst = make_schmidt([0.4, 0.3, 0.2, 0.1])
        alpha = 0.9
        m = copies_for_catalyst(catalyst, alpha)
        supply = two_qubit(alpha)
        fewer = supply
        for _ in range(m - 2):
            fewer = tensor_product(fewer, supply)
        assert m > 1
        assert not can_convert_deterministically(fewer, catalyst)  # minimal
        assert can_convert_deterministically(tensor_product(fewer, supply), catalyst)

    def test_combined_supply_matches_copy_count(self):
        # For a two-qubit catalyst, majorization reduces to the largest
        # coefficients: m copies suffice exactly when alpha**m <= c0.
        rng = np.random.default_rng(11)
        for _ in range(3000):
            alpha = float(rng.uniform(0.51, 0.999))
            c0 = float(rng.uniform(0.501, 0.999))
            m = int(rng.integers(1, 60))
            needed = copies_for_catalyst(two_qubit(c0), alpha)
            assert (needed <= m) == (alpha**m <= c0)
            assert alpha**needed <= c0
            assert needed == 1 or alpha ** (needed - 1) > c0

    def test_combined_supply_beyond_twenty_copies(self):
        # the 2**m supply spectrum is never built, so m far above 20 is cheap
        assert copies_for_catalyst(two_qubit(0.6), 0.8) <= 40
        assert copies_for_catalyst(two_qubit(0.6), 0.99) == 51
        rng = np.random.default_rng(11)
        beyond_twenty = 0
        for _ in range(3000):
            alpha = float(rng.uniform(0.51, 0.999))
            c0 = float(rng.uniform(0.501, 0.999))
            m = 1
            while alpha**m > c0:
                m += 1
            assert copies_for_catalyst(two_qubit(c0), alpha) == m
            beyond_twenty += m > 20
        assert beyond_twenty > 50

    def test_two_qubit_count_is_the_exact_majorization_answer(self):
        # m copies majorize a two-qubit catalyst exactly when alpha**m <= c0,
        # decided here in rationals; the catalysts come from the closed form,
        # (c0, 1 - c0) pairs and make_schmidt, and some sum to 1 only within TOL.
        def exact(c0, alpha):
            power, bound, m = Fraction(alpha), Fraction(c0), 1
            while power > bound:
                power *= Fraction(alpha)
                m += 1
            return m

        rng = np.random.default_rng(14)
        catalysts = []
        for _ in range(200):
            n = int(rng.integers(2, 4))
            alpha = float(rng.uniform(0.5 ** (1.0 / (n + 1)), 0.999))
            catalysts.append(optimal_two_qubit_catalyst(ConcentrationProblem(n, alpha)).spectrum)
            catalysts.append(two_qubit(float(rng.uniform(0.5, 1.0))))
            catalysts.append(make_schmidt(rng.random(2) + 1e-3))
            c0 = float(rng.uniform(0.5, 0.999))
            off = float(rng.uniform(-TOL, TOL))
            catalysts.append(SchmidtVector(np.array([c0, 1.0 - c0 + off])))
        for catalyst in catalysts:
            c0 = float(catalyst.coefficients[0])
            for alpha in rng.uniform(0.501, 0.999, 5):
                alpha = float(alpha)
                assert copies_for_catalyst(catalyst, alpha) == exact(c0, alpha)

    def test_copy_count_is_the_exact_majorization_answer(self):
        # Above dimension 2 the count steps up until a^m majorizes the
        # catalyst.  Decided here in rationals on the exact 2**m spectrum:
        # m copies reach the catalyst with certainty, and m - 1 do not.
        def power(alpha, m):
            a = Fraction(alpha)
            return [a**k * (1 - a) ** (m - k) for k in range(m + 1) for _ in range(math.comb(m, k))]

        rng = np.random.default_rng(23)
        cases = stepped = 0
        while cases < 40:
            catalyst = make_schmidt(rng.random(int(rng.integers(3, 7))) ** rng.uniform(1.0, 4.0))
            alpha = float(rng.uniform(0.55, 0.95))
            m = copies_for_catalyst(catalyst, alpha)
            if m > 12:
                continue
            cases += 1
            stepped += alpha ** (m - 1) <= catalyst.coefficients[0]
            assert oracles.exact_deterministic(power(alpha, m), catalyst.coefficients)
            assert not oracles.exact_deterministic(power(alpha, m - 1), catalyst.coefficients)
        assert stepped >= 10  # counts beyond the largest-coefficient bound

    def test_n_star_is_copies_for_the_half_catalyst(self):
        # Concentration is deterministic once the supply power reaches 1/2.
        for alpha in np.linspace(0.501, 0.9999, 2000):
            alpha = float(alpha)
            assert n_star(alpha) == copies_for_catalyst(two_qubit(0.5), alpha)

    # The larger coefficients of the finite aux paths of the simulator's tests
    # and of the benchmark's finite-aux chain.
    PATH_ALPHAS = [0.55, 0.75, 0.8, 0.9]

    def _assert_exact_counts(self, catalysts, alphas):
        # One call per supply state, and one with a supply alpha per row, as
        # a sweep's n_cat takes each point's own alpha.
        for alpha in [alphas, *self.PATH_ALPHAS]:
            got = catalysis._copies_for_catalysts(catalysts, alpha)
            assert got.dtype.kind == "i" and got.shape == (len(catalysts),)
            column = np.broadcast_to(alpha, len(catalysts)).tolist()
            expected = [oracles.copies_to_reach(row.tolist(), a, TOL)
                        for row, a in zip(catalysts, column)]
            assert got.tolist() == expected
        return got

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_batch_counts_are_the_exact_majorization_answer(self, dim):
        rng = np.random.default_rng(40 + dim)
        weights = rng.random((24, dim)) ** rng.uniform(1.0, 4.0, (24, 1))
        catalysts, spectra = _search._ordered_spectra(-np.sort(-weights, axis=1))
        # supply alphas over [0.55, 1 - 1e-6]: both ends, uniform draws, and
        # draws crowding 1, where the counts run to the hundreds of thousands
        alphas = np.concatenate([[0.55, 1.0 - 1e-6], rng.uniform(0.55, 1.0 - 1e-6, 11),
                                 1.0 - 0.45 * 10.0 ** -rng.uniform(0.0, 5.65, 11)])
        column = catalysis._copies_for_catalysts(catalysts, alphas)
        assert column.tolist() == [oracles.copies_to_reach(row.tolist(), a, TOL)
                                   for row, a in zip(catalysts, alphas.tolist())]
        assert max(column) > 10**5
        stepped = 0
        for spectrum, alpha, m in zip(spectra, alphas.tolist(), column.tolist()):
            # copies_for_catalyst is the rule's one-row case
            assert copies_for_catalyst(spectrum, alpha) == m
            stepped += m > catalysis._smallest_power_at_most(alpha, spectrum.coefficients[0])
        self._assert_exact_counts(catalysts, alphas)
        # above dimension 2, some counts step past the largest-coefficient bound
        assert (stepped > 0) == (dim > 2)

    def test_counts_cover_the_catalyst_schmidt_rank(self):
        # Row 18 of the dimension-5 batch above: a rank-5 catalyst whose tail
        # lies below TOL.  Two copies have rank 4, and LOCC cannot raise the
        # Schmidt rank, so every supply needs at least three.
        row = [0.7075783481235891, 0.2742671811945351, 0.012153485554903875,
               0.006000985126970761, 9.420518867184452e-16]
        alphas = [0.55, 0.75, 0.8]
        column = catalysis._copies_for_catalysts(np.array([row] * 3), np.array(alphas))
        assert column.tolist() == [3, 3, 3]
        for alpha in alphas:
            assert copies_for_catalyst(make_schmidt(row), alpha) == 3
            assert oracles.copies_to_reach(row, alpha, TOL) == 3
            assert oracles.copies_to_reach(row, alpha) == 3

    def test_sweep_catalyst_counts_are_the_exact_majorization_answer(self):
        # the dimension-4 catalysts of the sweep-dim4 grid, at their own alphas
        problems = _sweep_dim4_problems()
        found = search_catalysts(problems, 4)
        catalysts = np.array([spec.spectrum.coefficients for spec in found])
        self._assert_exact_counts(catalysts, np.array([p.alpha for p in problems]))


def test_monotone_values_match_spectrum_tail():
    # the last monotone is the smallest coefficient
    s = make_schmidt([5, 3, 2, 1])
    e = monotones(s)
    assert e[-1] == pytest.approx(s.coefficients[-1], abs=1e-15)
