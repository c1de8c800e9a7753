"""Schmidt-spectrum algebra.

Spectra of bipartite pure states are represented as ordered probability
vectors.  Everything needed for LOCC convertibility lives here: tensor
products, entanglement monotones, the deterministic-conversion
(majorization) test and the optimal conversion probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Absolute tolerance for probability comparisons.  Spectra come from closed
# forms and short products, so doubles keep at least 12 significant digits.
TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SchmidtVector:
    """Ordered Schmidt spectrum of a bipartite pure state.

    Coefficients are probabilities sorted in non-increasing order and summing
    to one.  Trailing zeros are legal and preserved, so padding to a common
    dimension stays explicit and predictable.  Use :func:`make_schmidt` to
    build one from unnormalized or unsorted weights.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidInputError("spectrum must be a non-empty 1-D sequence")
        if (coeffs < 0.0).any():
            raise InvalidInputError("Schmidt coefficients must be non-negative")
        # With no entry below zero, a NaN or inf entry makes the sum non-finite,
        # and so does a sum of finite entries that overflows.
        with np.errstate(over="ignore"):
            total = float(coeffs.sum())
        if not math.isfinite(total):
            raise InvalidInputError("Schmidt coefficients must be finite, and so must their sum")
        if (coeffs[1:] - coeffs[:-1] > TOL).any():
            raise InvalidInputError("Schmidt coefficients must be sorted non-increasing")
        if abs(total - 1.0) > TOL:
            raise InvalidInputError(f"Schmidt coefficients must sum to 1, got {total}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dimension(self) -> int:
        return self.coefficients.size

    def padded(self, dimension: int) -> "SchmidtVector":
        """Copy of this spectrum zero-padded to ``dimension``."""
        if dimension < self.dimension:
            raise InvalidInputError("cannot pad to a smaller dimension")
        if dimension == self.dimension:
            return self
        extra = np.zeros(dimension - self.dimension)
        return SchmidtVector(np.concatenate([self.coefficients, extra]))

    def __repr__(self):
        body = ",".join(f"{c:.12g}" for c in self.coefficients)
        return f"SchmidtVector([{body}])"


def make_schmidt(weights) -> SchmidtVector:
    """Normalize and sort non-negative weights into a Schmidt spectrum.

    Zeros are kept so the dimension equals the number of weights supplied.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size == 0:
        raise InvalidInputError("at least one weight is required")
    if np.any(w < 0.0):
        raise InvalidInputError("weights must be non-negative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not math.isfinite(total):
        raise InvalidInputError("weights must be finite, and so must their sum")
    if total <= 0.0:
        raise InvalidInputError("weights must not all be zero")
    return SchmidtVector(np.sort(w / total)[::-1])


def monotones(s: SchmidtVector) -> np.ndarray:
    """LOCC monotones of ``s`` as a read-only array.

    Entry k, counted from 0, is 1 minus the sum of the k largest coefficients.
    Computed as suffix sums of the smallest coefficients, never as a
    difference from 1, so small tail monotones keep their full relative
    precision; entry 0 is set to exactly 1.  The entries never increase, and
    consecutive differences give back the coefficients.
    """
    values = np.cumsum(s.coefficients[::-1])[::-1]
    values[0] = 1.0
    values.flags.writeable = False
    return values


def tensor_product(a: SchmidtVector, b: SchmidtVector) -> SchmidtVector:
    """Spectrum of the joint state: all pairwise products, sorted."""
    prod = np.sort(np.outer(a.coefficients, b.coefficients).ravel())[::-1]
    return SchmidtVector(prod)


def conversion_probabilities(initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Optimal LOCC conversion probability for each pair of rows.

    Row k of ``initial`` and row k of ``final`` are the coefficients of two
    spectra in any order; a narrower ``final`` stands for its zero-padding,
    and a wider one is an :class:`InvalidInputError`.  Sorted ascending, the
    running sum at position j is the monotone made of the j+1 smallest
    coefficients, a suffix sum that keeps the relative precision of small
    tails; the last entry, the whole mass, is set to exactly 1.  The minimum
    over monotones does not depend on their order, so nothing is reversed.

    Zero tails sum to exactly 0.0.  An index where the final monotone is
    exactly zero is never binding and is skipped, as is the padding, whose
    monotones are such zeros; an initial monotone that is exactly zero
    against a positive final one forces the probability to zero.  Every other
    ratio enters the minimum, however small its monotones: a final tail below
    ``TOL`` still binds when the initial tail is smaller.
    """
    if final.shape[1] > initial.shape[1]:
        raise InvalidInputError("final rows must not be wider than the initial rows")
    e_i = np.cumsum(np.sort(initial, axis=1), axis=1)[:, -final.shape[1] :]
    e_f = np.cumsum(np.sort(final, axis=1), axis=1)
    e_i[:, -1] = 1.0
    e_f[:, -1] = 1.0
    num_zero = e_i <= 0.0
    den_zero = e_f <= 0.0
    valid = ~num_zero & ~den_zero
    p = np.min(np.where(valid, e_i / np.where(den_zero, 1.0, e_f), np.inf), axis=1)
    # The whole-mass ratio is identically 1, so p <= 1 up to rounding.  Snap
    # values within tolerance of 1 so that p == 1 exactly when conversion is
    # deterministic under the same tolerance.
    p[p >= 1.0 - TOL] = 1.0
    p[np.any(num_zero & ~den_zero, axis=1)] = 0.0
    return p


def can_convert_deterministically(initial: SchmidtVector, final: SchmidtVector) -> bool:
    """Majorization test: can ``initial`` reach ``final`` with certainty under LOCC?

    Both spectra are zero-padded to the larger dimension; the conversion is
    deterministic when every monotone ratio is within tolerance of 1 or more.
    """
    return conversion_probability(initial, final) == 1.0


def conversion_probability(initial: SchmidtVector, final: SchmidtVector) -> float:
    """Optimal LOCC probability of converting ``initial`` into ``final``.

    Equals the minimum over k of the ratio of the k-th monotones of the two
    spectra (padded to a common dimension).  Returns 1 exactly when
    :func:`can_convert_deterministically` holds.
    """
    d = max(initial.dimension, final.dimension)
    rows = (initial.padded(d).coefficients[None, :], final.padded(d).coefficients[None, :])
    return float(conversion_probabilities(*rows)[0])
