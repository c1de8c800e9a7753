import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcat.errors import InvalidInputError
from entcat.spectra import (
    SchmidtVector,
    can_convert_deterministically,
    conversion_probabilities,
    conversion_probability,
    make_schmidt,
    monotones,
    tensor_product,
)

import oracles


def vec(*coeffs):
    return make_schmidt(coeffs)


def pair(p):
    return SchmidtVector(np.array([p, 1.0 - p]))


# Random spectra as integer weights: their float normalizations are within
# rounding of exact rationals, so the Fraction oracle applies directly.
weight_lists = st.lists(st.integers(0, 100), min_size=1, max_size=6).filter(
    lambda w: sum(w) > 0
)


class TestMakeSchmidt:
    def test_normalizes_symmetric(self):
        np.testing.assert_allclose(vec(2, 2).coefficients, [0.5, 0.5])

    def test_normalizes(self):
        np.testing.assert_allclose(vec(3, 1).coefficients, [0.75, 0.25])

    def test_sorts_only(self):
        np.testing.assert_allclose(
            vec(0.1, 0.4, 0.4, 0.1).coefficients, [0.4, 0.4, 0.1, 0.1]
        )

    def test_zeros_preserved(self):
        s = vec(1.0, 0.0, 1.0)
        assert s.dimension == 3
        np.testing.assert_allclose(s.coefficients, [0.5, 0.5, 0.0])

    # NaN passes every comparison-based check, and inf normalizes to NaN.  The
    # sum of the last overflows; no warning may come before the error.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[], [-0.1, 0.5], [0.0, 0.0], [0.5, math.nan], [1.0, math.inf],
                                     [1e308, 1e308]])
    def test_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            make_schmidt(bad)

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            SchmidtVector(np.array([0.25, 0.75]))

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            SchmidtVector(np.array([0.7, 0.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constructor_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInputError):
            SchmidtVector(np.array([1.0, bad]))

    @pytest.mark.filterwarnings("error")
    def test_constructor_rejects_overflowing_sum(self):
        with pytest.raises(InvalidInputError):
            SchmidtVector(np.array([1e308, 1e308]))

    @pytest.mark.parametrize("bad", [np.array([]), np.array([[0.5, 0.5]])])
    def test_constructor_rejects_a_shape_other_than_a_non_empty_row(self, bad):
        with pytest.raises(InvalidInputError, match="non-empty 1-D"):
            SchmidtVector(bad)

    def test_padded_never_shrinks(self):
        spectrum = vec(0.5, 0.3, 0.2)
        with pytest.raises(InvalidInputError, match="smaller dimension"):
            spectrum.padded(2)
        np.testing.assert_array_equal(spectrum.padded(4).coefficients, [0.5, 0.3, 0.2, 0.0])


class TestTwoQubitState:
    # A two-qubit spectrum is the pair (p, 1 - p), with p the larger coefficient.
    def test_bell(self):
        np.testing.assert_array_equal(pair(0.5).coefficients, [0.5, 0.5])

    def test_generic(self):
        np.testing.assert_allclose(pair(0.8).coefficients, [0.8, 0.2])

    def test_product_state(self):
        np.testing.assert_array_equal(pair(1.0).coefficients, [1.0, 0.0])

    @pytest.mark.parametrize("p", [0.49, 1.01, -1.0])
    def test_rejects_out_of_range(self, p):
        # Below 1/2 the pair is unsorted; outside [0, 1] an entry is negative.
        with pytest.raises(InvalidInputError):
            pair(p)


class TestMonotones:
    def test_bell(self):
        np.testing.assert_allclose(monotones(vec(0.5, 0.5)), [1.0, 0.5])

    def test_uniform(self):
        np.testing.assert_allclose(
            monotones(vec(0.25, 0.25, 0.25, 0.25)), [1.0, 0.75, 0.5, 0.25]
        )

    def test_two_copy_spectrum(self):
        # partial sums of (0.64, 0.16, 0.16, 0.04)
        np.testing.assert_allclose(
            monotones(vec(0.64, 0.16, 0.16, 0.04)),
            [1.0, 0.36, 0.20, 0.04],
            atol=1e-15,
        )

    def test_first_entry_exact(self):
        assert monotones(vec(3, 2, 1))[0] == 1.0

    def test_returns_a_read_only_array(self):
        e = monotones(vec(3, 2, 1))
        with pytest.raises(ValueError):
            e[1] = 0.0

    @given(weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_differencing_recovers_coefficients(self, weights):
        s = make_schmidt(weights)
        e = monotones(s)
        recovered = np.diff(np.concatenate([e, [0.0]])) * -1.0
        np.testing.assert_allclose(recovered, s.coefficients, atol=1e-12)


class TestTensorProduct:
    def test_bell_squared(self):
        out = tensor_product(vec(0.5, 0.5), vec(0.5, 0.5))
        np.testing.assert_allclose(out.coefficients, [0.25] * 4)

    def test_generic(self):
        out = tensor_product(vec(0.6, 0.4), vec(0.7, 0.3))
        np.testing.assert_allclose(out.coefficients, [0.42, 0.28, 0.18, 0.12])

    def test_product_state_identity(self):
        s = vec(0.6, 0.3, 0.1)
        out = tensor_product(s, make_schmidt([1.0]))
        np.testing.assert_allclose(out.coefficients, s.coefficients)

    @given(weight_lists, weight_lists)
    @settings(max_examples=100, deadline=None)
    def test_commutative_and_normalized(self, wa, wb):
        a, b = make_schmidt(wa), make_schmidt(wb)
        ab = tensor_product(a, b)
        ba = tensor_product(b, a)
        np.testing.assert_allclose(ab.coefficients, ba.coefficients, atol=1e-15)
        assert abs(ab.coefficients.sum() - 1.0) <= 1e-12
        assert ab.dimension == a.dimension * b.dimension


class TestDeterministicConversion:
    def test_bell_reaches_anything_two_qubit(self):
        assert can_convert_deterministically(vec(0.5, 0.5), vec(0.75, 0.25))

    def test_cannot_concentrate(self):
        # second monotone: 0.25 < 0.5
        assert not can_convert_deterministically(vec(0.75, 0.25), vec(0.5, 0.5))

    def test_known_blocked_instance(self):
        # third monotone: 0.2 < 0.25
        assert not can_convert_deterministically(
            vec(0.4, 0.4, 0.1, 0.1), vec(0.5, 0.25, 0.25)
        )


class TestConversionProbability:
    def test_concentration(self):
        assert conversion_probability(vec(0.75, 0.25), vec(0.5, 0.5)) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_identity(self):
        s = vec(0.4, 0.3, 0.2, 0.1)
        assert conversion_probability(s, s) == 1.0

    def test_rank_cannot_increase(self):
        assert conversion_probability(vec(0.5, 0.5), vec(0.4, 0.3, 0.3)) == 0.0

    def test_small_positive_initial_monotone(self):
        # the initial tail 3e-13 is below TOL but not zero; it must not force 0
        wi, wf = [0.9, 0.1 - 3e-13, 3e-13], [0.5, 0.5 - 3e-12, 3e-12]
        got = conversion_probability(make_schmidt(wi), make_schmidt(wf))
        expected = float(oracles.exact_conversion_probability(wi, wf))
        assert expected == pytest.approx(0.1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_small_final_monotone_binds(self):
        # both tails are below TOL, the initial one smaller: their ratio binds
        wi, wf = [0.6, 0.4 - 1e-13, 1e-13], [0.6, 0.4 - 5e-13, 5e-13]
        got = conversion_probability(make_schmidt(wi), make_schmidt(wf))
        expected = float(oracles.exact_conversion_probability(wi, wf))
        assert expected == pytest.approx(0.2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_small_tails_match_exact_oracle(self):
        # dimensions 2-8, weights log-uniform down to 1e-13
        rng = np.random.default_rng(12)
        for _ in range(2000):
            wi, wf = (list(10.0 ** rng.uniform(-13, 0, rng.integers(2, 9))) for _ in range(2))
            got = conversion_probability(make_schmidt(wi), make_schmidt(wf))
            expected = float(oracles.exact_conversion_probability(wi, wf))
            assert got == pytest.approx(expected, abs=1e-12), (wi, wf)

    @given(weight_lists, weight_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_oracle(self, wi, wf):
        got = conversion_probability(make_schmidt(wi), make_schmidt(wf))
        expected = float(oracles.exact_conversion_probability(wi, wf))
        assert got == pytest.approx(expected, abs=1e-12)

    @given(weight_lists, weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_one_iff_deterministic(self, wi, wf):
        initial, final = make_schmidt(wi), make_schmidt(wf)
        p = conversion_probability(initial, final)
        assert (p == 1.0) == can_convert_deterministically(initial, final)

    @given(weight_lists, weight_lists, st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_padding(self, wi, wf, extra):
        initial, final = make_schmidt(wi), make_schmidt(wf)
        p = conversion_probability(initial, final)
        padded = initial.padded(initial.dimension + extra)
        assert conversion_probability(padded, final) == pytest.approx(p, abs=1e-12)
        padded_f = final.padded(final.dimension + extra)
        assert conversion_probability(initial, padded_f) == pytest.approx(p, abs=1e-12)

    @given(weight_lists, weight_lists, st.lists(st.integers(1, 50), min_size=1, max_size=3))
    # Exact answer 1 that the old 1 - prefix-sum monotones returned as
    # 0.999999999998781, missing the snap to 1 by rounding in the tail.
    @example(wi=[1, 1, 2, 2, 17, 99], wf=[1, 1, 1, 1, 18, 100], wc=[1, 44])
    @settings(max_examples=150, deadline=None)
    def test_attaching_a_catalyst_never_hurts(self, wi, wf, wc):
        initial, final = make_schmidt(wi), make_schmidt(wf)
        catalyst = make_schmidt(wc)
        plain = conversion_probability(initial, final)
        assisted = conversion_probability(
            tensor_product(initial, catalyst), tensor_product(final, catalyst)
        )
        assert assisted >= plain - 1e-12


def _tensored(weights, catalyst_rows):
    """Joint spectra of one state with each catalyst row, as the search builds them."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    rows = np.asarray(catalyst_rows, dtype=float)
    return (w[None, :, None] * rows[:, None, :]).reshape(rows.shape[0], -1)


def _exact_tensored(weights, catalyst):
    return [Fraction(a) * Fraction(c) for a in weights for c in catalyst]


class TestConversionProbabilities:
    """The batched kernel against the exact oracle on catalyst-tensored spectra."""

    def check(self, wi, wf, catalysts):
        catalysts = np.asarray(catalysts, dtype=float)
        catalysts = catalysts / catalysts.sum(axis=1, keepdims=True)
        got = conversion_probabilities(_tensored(wi, catalysts), _tensored(wf, catalysts))
        exact = [
            oracles.exact_conversion_probability(_exact_tensored(wi, row), _exact_tensored(wf, row))
            for row in catalysts
        ]
        for p, e in zip(got, exact):
            assert p == pytest.approx(float(e), abs=1e-12)
            assert (p == 1.0) == (e == 1)
        return exact

    @pytest.mark.parametrize("n,alpha", [(2, 0.8), (3, 0.9)])
    def test_random_dim4_catalysts(self, n, alpha):
        initial = [alpha**k * (1 - alpha) ** (n - k) for k in range(n, -1, -1)
                   for _ in range(math.comb(n, k))]
        final = [0.5, 0.5] + [0.0] * (2**n - 2)
        rng = np.random.default_rng(3)
        rows = np.sort(rng.random((20, 4)), axis=1)[:, ::-1]
        self.check(initial, final, rows)

    def test_product_catalyst(self):
        self.check([0.64, 0.16, 0.16, 0.04], [0.5, 0.5, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]])

    def test_zero_tails(self):
        self.check([5, 3, 2, 0, 0], [6, 4, 0, 0, 0], [[7, 3, 0, 0], [1, 0, 0, 0], [2, 1, 1, 0]])
        # rank cannot grow: the initial tail vanishes where the final one does not
        self.check([1, 1, 0, 0], [2, 1, 1, 0], [[3, 1], [1, 1]])

    def test_pinned_tail_precision_case(self):
        # exactly 1; monotones taken as 1 - prefix sums gave 0.999999999998781
        exact = self.check([1, 1, 2, 2, 17, 99], [1, 1, 1, 1, 18, 100], [[1, 44]])
        assert exact == [1]

    def test_narrower_final_reads_as_zero_padded(self):
        # a final row narrower than the initial one gives the bits of its
        # zero-padded form, zero rule and snap to 1 included; a wider one is
        # an input error
        rng = np.random.default_rng(5)
        initial = rng.random((200, 12))
        final = rng.random((200, 5))
        for rows in initial, final:
            rows[rng.random(rows.shape) < 0.25] = 0.0
            rows[:, 0] += 1e-3  # no row is all zeros
        initial[:40, 3:] = 0.0  # rank below the final one's: probability 0
        final[-40:] = [1.0, 0.0, 0.0, 0.0, 0.0]  # a product state: probability 1
        initial /= initial.sum(axis=1, keepdims=True)
        final /= final.sum(axis=1, keepdims=True)
        padded = np.hstack([final, np.zeros((200, 7))])
        got = conversion_probabilities(initial, final)
        assert got.tobytes() == conversion_probabilities(initial, padded).tobytes()
        assert (got == 0.0).any() and (got == 1.0).any() and ((0.0 < got) & (got < 1.0)).any()
        with pytest.raises(InvalidInputError):
            conversion_probabilities(final, initial)
