"""Catalyst construction and catalytic conversion probabilities.

The concentration task: turn n copies of a partially entangled two-qubit
state into one Bell pair.  A shared catalyst state raises the optimal
success probability without being consumed on success.  This module holds
the closed-form optimal two-qubit catalyst, a numeric catalyst search for
higher catalyst dimensions, supply accounting (how many copies of a state
are needed to build a catalyst), and the intermediate state of the
two-step conversion protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CatalysisWindowError,
    InvalidInputError,
    NumericFailureError,
    ResourceLimitError,
)
from .spectra import (
    TOL,
    SchmidtVector,
    can_convert_deterministically,
    conversion_probabilities,
    conversion_probability,
    make_schmidt,
    monotones,
    tensor_product,
    two_qubit_state,
)

# Cap on the dimension of any constructed spectrum.  Keeps memory bounded
# while covering every case of interest (n <= ~20 copies, catalyst dim <= 4).
DIM_CAP = 2**20


@dataclass(frozen=True)
class ConcentrationProblem:
    """Concentrate ``n`` copies of a state with larger coefficient ``alpha``."""

    n: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidInputError(f"copy count must be a positive integer, got {self.n}")
        if not 0.5 < self.alpha < 1.0:
            raise InvalidInputError(f"alpha must lie in (0.5, 1), got {self.alpha}")


@dataclass(frozen=True)
class CatalystSpec:
    """A catalyst spectrum together with the success probability it achieves."""

    spectrum: SchmidtVector
    dimension: int
    success_probability: float

    def __post_init__(self):
        if self.dimension != self.spectrum.dimension:
            raise InvalidInputError("catalyst dimension must match its spectrum")
        if self.dimension == 2:
            c = float(self.spectrum.coefficients[0])
            if not 0.5 < c < 1.0:
                raise InvalidInputError(
                    f"two-qubit catalyst coefficient must lie in (0.5, 1), got {c}"
                )
        if not 0.0 <= self.success_probability <= 1.0:
            raise InvalidInputError("success probability must lie in [0, 1]")


def initial_spectrum(problem: ConcentrationProblem) -> SchmidtVector:
    """Spectrum of n copies of the primary state.

    Values ``alpha**k * (1-alpha)**(n-k)`` appear with binomial multiplicity,
    already in non-increasing order for ``alpha > 0.5``.  Dimension ``2**n``.
    """
    n, alpha = problem.n, problem.alpha
    if 2**n > DIM_CAP:
        raise ResourceLimitError(f"2**{n} exceeds the dimension cap {DIM_CAP}")
    ks = np.arange(n, -1, -1)
    values = alpha**ks * (1.0 - alpha) ** (n - ks)
    counts = [math.comb(n, int(k)) for k in ks]
    return SchmidtVector(np.repeat(values, counts))


def target_spectrum(n: int) -> SchmidtVector:
    """Spectrum of one Bell pair padded by the n-1 leftover product pairs."""
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"copy count must be a positive integer, got {n}")
    if 2**n > DIM_CAP:
        raise ResourceLimitError(f"2**{n} exceeds the dimension cap {DIM_CAP}")
    coeffs = np.zeros(2**n)
    coeffs[0] = coeffs[1] = 0.5
    return SchmidtVector(coeffs)


def locc_probability(problem: ConcentrationProblem) -> float:
    """Optimal success probability of concentration without a catalyst."""
    return min(1.0, 2.0 * (1.0 - problem.alpha**problem.n))


def n_star(alpha: float) -> int:
    """Smallest copy count at which concentration is deterministic under LOCC.

    Closed form ``ceil(1 / log2(1/alpha))``, adjusted so that the returned
    value is operationally the smallest m with ``alpha**m <= 1/2``.
    """
    if not 0.5 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0.5, 1), got {alpha}")
    m = max(1, math.ceil(-1.0 / math.log2(alpha)))
    while m > 1 and alpha ** (m - 1) <= 0.5:
        m -= 1
    while alpha**m > 0.5:
        m += 1
    return m


def _require_window(problem: ConcentrationProblem) -> None:
    top = n_star(problem.alpha) - 1
    if not 2 <= problem.n <= top:
        raise CatalysisWindowError(
            f"catalysis unnecessary or unsupported for n={problem.n}: "
            f"the catalysis window at alpha={problem.alpha} is [2, {top}]"
        )


def optimal_two_qubit_catalyst(problem: ConcentrationProblem) -> CatalystSpec:
    """Closed-form optimal two-qubit catalyst for a problem in the window.

    Valid for ``2 <= n <= n_star(alpha) - 1``; outside that window the closed
    form emits coefficients at or below 1/2, which are meaningless as a larger
    Schmidt coefficient, so a window error is raised instead.
    """
    _require_window(problem)
    an = problem.alpha**problem.n
    b = 1.0 + 3.0 * an
    c0 = (b - math.sqrt(b * b - 16.0 * an * an)) / (4.0 * an)
    p_cat = (1.0 - an) / (1.0 - c0)
    return CatalystSpec(
        spectrum=SchmidtVector(np.array([c0, 1.0 - c0])),
        dimension=2,
        success_probability=p_cat,
    )


def catalysis_probability(problem: ConcentrationProblem, catalyst: SchmidtVector) -> float:
    """Optimal conversion probability with the given catalyst attached.

    Evaluates the monotone-ratio formula on the tensored spectra; the catalyst
    appears on both sides and is recovered on success.  A trivial (product)
    catalyst reproduces :func:`locc_probability`.
    """
    if 2**problem.n * catalyst.dimension > DIM_CAP:
        raise ResourceLimitError(
            f"combined dimension 2**{problem.n} * {catalyst.dimension} exceeds {DIM_CAP}"
        )
    initial = tensor_product(initial_spectrum(problem), catalyst)
    final = tensor_product(target_spectrum(problem.n), catalyst)
    return conversion_probability(initial, final)


def efficiency_ratio(problem: ConcentrationProblem, catalyst: SchmidtVector) -> float:
    """Catalytic success probability relative to the plain LOCC optimum."""
    return catalysis_probability(problem, catalyst) / locc_probability(problem)


# ---------------------------------------------------------------------------
# Numeric catalyst search
#
# Sorting of the tensor-product spectrum makes the objective piecewise, so a
# coarse grid over the ordered catalyst simplex is followed by derivative-free
# local refinement (pattern search on the simplex).  The two-qubit closed form
# serves as the correctness oracle in the tests.
# ---------------------------------------------------------------------------

GRID_POINTS = {2: 200, 4: 40}
REFINE_STEP = 1e-6
MAX_SEARCH_EVALUATIONS = 2_000_000


@lru_cache(maxsize=8)
def _ordered_simplex_grid(dimension: int, points_per_axis: int) -> np.ndarray:
    """Grid over sorted catalyst spectra c1 >= ... >= cd >= 0 summing to 1.

    The free coordinates c2..cd are sampled on a regular mesh and filtered to
    the ordered simplex; rows come out sorted by coefficients ascending so a
    first-occurrence argmax breaks ties toward the smaller largest coefficient.
    The array is cached, so it is returned read-only.
    """
    axes = [np.linspace(0.0, 1.0 / (j + 2), points_per_axis) for j in range(dimension - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    tail = np.stack([m.ravel() for m in mesh], axis=1)
    head = 1.0 - tail.sum(axis=1)
    grid = np.concatenate([head[:, None], tail], axis=1)
    ok = grid[:, 0] >= grid[:, 1]
    for j in range(1, dimension - 1):
        ok &= grid[:, j] >= grid[:, j + 1]
    ok &= grid[:, -1] >= 0.0
    grid = grid[ok]
    grid = grid[np.lexsort(grid.T[::-1])]
    grid.flags.writeable = False
    return grid


def _two_qubit_grid(points: int) -> np.ndarray:
    c = np.linspace(0.5, 1.0, points, endpoint=False)
    return np.stack([c, 1.0 - c], axis=1)


def search_catalyst(
    problem: ConcentrationProblem,
    d_c: int,
    *,
    grid_points: int | None = None,
    refine_step: float = REFINE_STEP,
) -> CatalystSpec:
    """Search for the catalyst spectrum of dimension ``d_c`` maximizing success.

    Coarse grid over the ordered simplex, then pattern search shrinking the
    step to ``refine_step``.  For ``d_c > 2`` the best lower-dimensional
    catalyst (zero-padded) is seeded into the candidate set, so the achieved
    probability can never fall below the embedded optimum.
    """
    if d_c < 2:
        raise InvalidInputError(f"catalyst dimension must be at least 2, got {d_c}")
    _require_window(problem)
    if 2**problem.n * d_c > DIM_CAP:
        raise ResourceLimitError("combined dimension exceeds the cap")

    initial = initial_spectrum(problem).coefficients
    final = target_spectrum(problem.n).coefficients
    points = grid_points if grid_points is not None else GRID_POINTS.get(d_c, 12)

    def objective(catalysts: np.ndarray) -> np.ndarray:
        # Tensor every catalyst row onto both sides, one joint spectrum per row.
        rows = catalysts.shape[0]
        return conversion_probabilities(
            (initial[None, :, None] * catalysts[:, None, :]).reshape(rows, -1),
            (final[None, :, None] * catalysts[:, None, :]).reshape(rows, -1),
        )

    if d_c == 2:
        candidates = _two_qubit_grid(points)
    else:
        candidates = _ordered_simplex_grid(d_c, points)
        seed = optimal_two_qubit_catalyst(problem).spectrum.coefficients
        embedded = np.concatenate([seed, np.zeros(d_c - 2)])[None, :]
        candidates = np.concatenate([candidates, embedded], axis=0)

    evaluations = candidates.shape[0]
    probs = objective(candidates)
    best_idx = int(np.argmax(probs))
    best = candidates[best_idx].copy()
    best_p = float(probs[best_idx])

    # Pattern search: move mass between coordinate pairs, halving the step.
    step = 0.5 / (points - 1) if d_c == 2 else 1.0 / (points - 1)
    pairs = [(i, j) for i in range(d_c) for j in range(d_c) if i != j]
    while step >= refine_step:
        moves = []
        for i, j in pairs:
            cand = best.copy()
            cand[i] += step
            cand[j] -= step
            if cand[j] < 0.0 or cand[i] > 1.0:
                continue
            moves.append(np.sort(cand)[::-1])
        if moves:
            batch = np.asarray(moves)
            evaluations += batch.shape[0]
            if evaluations > MAX_SEARCH_EVALUATIONS:
                raise NumericFailureError(
                    "catalyst search exceeded its evaluation budget",
                    best=make_schmidt(best),
                )
            poll = objective(batch)
            k = int(np.argmax(poll))
            if poll[k] > best_p:
                best_p = float(poll[k])
                best = batch[k].copy()
                continue
        step /= 2.0

    spectrum = make_schmidt(best)
    return CatalystSpec(
        spectrum=spectrum,
        dimension=d_c,
        success_probability=catalysis_probability(problem, spectrum),
    )


# ---------------------------------------------------------------------------
# Intermediate state of the two-step protocol
# ---------------------------------------------------------------------------


def _lower_convex_minorant(values: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of ``values`` sampled at integer positions."""
    n = values.size
    hull = [0]
    for k in range(1, n):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (values[j] - values[i]) * (k - j) <= (values[k] - values[j]) * (j - i):
                break
            hull.pop()
        hull.append(k)
    out = np.empty(n)
    for a, b in zip(hull[:-1], hull[1:]):
        ks = np.arange(a, b + 1)
        out[a : b + 1] = values[a] + (values[b] - values[a]) * (ks - a) / (b - a)
    return out


def _spectrum_from_monotones(values: np.ndarray) -> SchmidtVector:
    coeffs = np.diff(np.concatenate([values, [0.0]])) * -1.0
    np.maximum(coeffs, 0.0, out=coeffs)
    return make_schmidt(np.sort(coeffs)[::-1])


def intermediate_state(initial: SchmidtVector, final: SchmidtVector) -> SchmidtVector:
    """Temporary state reached deterministically before the final measurement.

    The returned spectrum gamma satisfies the operational contract of the
    two-step protocol: ``initial`` reaches gamma with certainty, and the
    optimal probability of converting gamma into ``final`` equals that of the
    direct conversion.  The construction is verified on every call; a convex
    minorant over the feasible monotone box is used as a fallback, and a
    verification failure raises rather than returning an unverified state.
    """
    d = max(initial.dimension, final.dimension)
    initial = initial.padded(d)
    final = final.padded(d)
    p = conversion_probability(initial, final)
    e_f = monotones(final).values

    # Every monotone ratio is at least p, so the candidate monotone vector is
    # the final state's scaled by p, with the first entry reset to 1.
    candidate = np.concatenate([[1.0], p * e_f[1:]])
    for values in (candidate, _lower_convex_minorant(candidate)):
        try:
            gamma = _spectrum_from_monotones(values)
        except InvalidInputError:
            continue
        reachable = can_convert_deterministically(initial, gamma)
        p_out = conversion_probability(gamma, final)
        if reachable and abs(p_out - p) <= 1e-10:
            return gamma
    raise NumericFailureError(
        f"intermediate state construction failed verification for p={p}"
    )


# ---------------------------------------------------------------------------
# Catalyst supply accounting
# ---------------------------------------------------------------------------


def _power_top_partial_sums(alpha: float, m: int, count: int) -> np.ndarray:
    """Partial sums of the ``count`` largest coefficients of an m-fold power.

    The spectrum of m copies of ``(alpha, 1-alpha)`` is layered: value
    ``alpha**(m-i) (1-alpha)**i`` with binomial multiplicity, strictly
    decreasing in i, so the top entries come from the first layers without
    materializing the 2**m spectrum.  Entries beyond 2**m count as zero.
    """
    top = []
    layer = 0
    while len(top) < count and layer <= m:
        value = alpha ** (m - layer) * (1.0 - alpha) ** layer
        top.extend([value] * min(math.comb(m, layer), count - len(top)))
        layer += 1
    top.extend([0.0] * (count - len(top)))
    return np.cumsum(top)


def copies_for_catalyst(catalyst: SchmidtVector, alpha_supply: float) -> int:
    """Fewest copies of a two-qubit supply state that reach ``catalyst`` under LOCC.

    m copies of ``(alpha, 1-alpha)`` reach the catalyst with certainty when
    their spectrum majorizes it.  The largest supply coefficient ``alpha**m``
    must not exceed the largest catalyst coefficient, so the count starts at
    the smallest such m and steps up until every monotone of the supply power
    dominates the catalyst's.  For a two-qubit catalyst that first condition
    is the whole test.  Only the first few monotones of the power can bind,
    because the catalyst's vanish beyond its own dimension, so the test stays
    cheap for any copy count.
    """
    if not 0.5 < alpha_supply < 1.0:
        raise InvalidInputError(f"supply alpha must lie in (0.5, 1), got {alpha_supply}")
    c_max = float(catalyst.coefficients[0])
    m = max(1, math.ceil(math.log(c_max) / math.log(alpha_supply)))
    while m > 1 and alpha_supply ** (m - 1) <= c_max:
        m -= 1
    while alpha_supply**m > c_max:
        m += 1
    e_cat = monotones(catalyst).values[1:]
    while not np.all(1.0 - _power_top_partial_sums(alpha_supply, m, e_cat.size) >= e_cat - TOL):
        m += 1
    return m


def combined_supply_feasible(supplies, c0: float) -> bool:
    """Can a mixed bundle of supply states build the catalyst deterministically?

    ``supplies`` is a sequence of ``(alpha_i, m_i)`` pairs meaning m_i copies
    of a two-qubit state with larger coefficient alpha_i.
    """
    supplies = list(supplies)
    if not supplies:
        raise InvalidInputError("at least one supply entry is required")
    total_copies = 0
    for alpha_i, m_i in supplies:
        if not 0.5 < alpha_i < 1.0:
            raise InvalidInputError(f"supply alpha must lie in (0.5, 1), got {alpha_i}")
        if not isinstance(m_i, int) or m_i < 0:
            raise InvalidInputError(f"copy counts must be non-negative integers, got {m_i}")
        total_copies += m_i
    if total_copies == 0:
        raise InvalidInputError("at least one supply copy is required")
    if 2**total_copies > DIM_CAP:
        raise ResourceLimitError("supply product exceeds the dimension cap")
    if not 0.5 < c0 < 1.0:
        raise InvalidInputError(f"catalyst coefficient must lie in (0.5, 1), got {c0}")

    product = None
    for alpha_i, m_i in supplies:
        state = two_qubit_state(alpha_i)
        for _ in range(m_i):
            product = state if product is None else tensor_product(product, state)
    return can_convert_deterministically(product, two_qubit_state(c0))
