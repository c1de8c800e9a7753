"""Catalyst construction and catalytic conversion probabilities.

The concentration task: turn n copies of a partially entangled two-qubit
state into one Bell pair.  A shared catalyst state raises the optimal
success probability without being consumed on success.  This module holds
the copy thresholds (``n_star`` and the catalysis window), the closed-form
optimal two-qubit catalyst, a certified numeric catalyst search for higher
catalyst dimensions, the intermediate state of the two-step conversion
protocol, and supply accounting: :func:`_copies_for_catalysts`, the one
answer to how many copies of a two-qubit supply state build a catalyst with
certainty (by majorization, Nielsen 1999), for rows of catalysts at once;
:func:`copies_for_catalyst` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

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
)

# Cap on the dimension of any constructed spectrum, 2**n times the catalyst
# dimension for a catalysed problem.  Keeps memory bounded while covering
# every case of interest (n <= ~20 copies with a small catalyst).
DIM_CAP = 2**20


_INT64_MAX = np.iinfo(np.int64).max


def _count(value, what: str = "copy count", least: int = 1, *, column: bool = False):
    """``value`` as a plain int if it is an integer >= ``least``.

    Numpy integers count.  With ``column``, an integer column whose every
    count is >= ``least`` comes back as an int64 array, so that sums of
    counts cannot wrap in a narrow dtype, and an empty column passes; only
    code that prices a column of points asks for one.  Anything else, a bool,
    a column where one number is wanted or a count past int64 included,
    raises :class:`InvalidInputError` naming ``what``.
    """
    if type(value) is not int:
        if column and np.ndim(value):
            value = np.asarray(value)
            if value.size == 0 or value.dtype.kind in "iu" and np.all(value >= least):
                if value.dtype.kind == "u" and value.size and value.max() > _INT64_MAX:
                    raise InvalidInputError(
                        f"{what}s must fit in 64-bit signed integers, got {value}")
                return value.astype(np.int64, copy=False)
        elif isinstance(value, Integral) and not isinstance(value, bool):
            value = int(value)
    if type(value) is not int or value < least:
        bound = {0: "non-negative integer", 1: "positive integer"}.get(least, f"integer >= {least}")
        plural = column and np.ndim(value)
        message = (f"{what}s must be {bound.replace('integer', 'integers')}" if plural
                   else f"{what} must be {'an' if least > 1 else 'a'} {bound}")
        raise InvalidInputError(f"{message}, got {value}")
    return value


# The intervals a real input may be asked to lie in, each with its test.
_INTERVALS = {
    "(0.5, 1)": lambda x: 0.5 < x < 1.0,  # a larger Schmidt coefficient
    "(0, 1]": lambda x: 0.0 < x <= 1.0,  # a probability
    "(0, inf)": lambda x: 0.0 < x < math.inf,  # a length, speed or time
}


def _real(value, what: str, interval: str):
    """``value`` if it is a real number in ``interval``, a key of ``_INTERVALS``.

    A Python int or float comes back as given, another real (numpy's) as a plain float.
    Anything else, a bool included, raises :class:`InvalidInputError` naming ``what``.
    """
    if type(value) is not float and type(value) is not int:
        if not isinstance(value, Real) or isinstance(value, bool):
            raise InvalidInputError(f"{what} must be a real number, got {value!r}")
        value = float(value)
    if not _INTERVALS[interval](value):
        raise InvalidInputError(f"{what} must lie in {interval}, got {value}")
    return value


def _check_combined_dimension(n: int, d_c: int) -> None:
    """The one test of ``DIM_CAP``, on n copies with a catalyst of dimension d_c (1 for none)."""
    if 2**n * d_c > DIM_CAP:
        raise ResourceLimitError(f"combined dimension 2**{n} * {d_c} exceeds the cap {DIM_CAP}")


@dataclass(frozen=True)
class ConcentrationProblem:
    """Concentrate ``n`` copies of a state with larger coefficient ``alpha``."""

    n: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n))
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", "(0.5, 1)"))


@dataclass(frozen=True)
class CatalystSpec:
    """A catalyst spectrum together with the success probability it achieves."""

    spectrum: SchmidtVector
    success_probability: float

    def __post_init__(self):
        if not 0.0 <= self.success_probability <= 1.0:
            raise InvalidInputError("success probability must lie in [0, 1]")

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension


def initial_spectrum(problem: ConcentrationProblem) -> SchmidtVector:
    """Spectrum of n copies of the primary state, dimension ``2**n``."""
    return SchmidtVector(_power_coefficients(problem.alpha, problem.n))


def _power_coefficients(alpha, m, count: int | None = None) -> np.ndarray:
    """The ``count`` largest coefficients of m copies of ``(alpha, 1-alpha)``.

    The spectrum is layered: layer j holds ``C(m, j)`` entries
    ``alpha**(m-j) * (1-alpha)**j``, strictly decreasing in j for
    ``alpha > 0.5``, so the top entries come from the first layers.  Entries
    beyond ``2**m`` are zeros.  With no ``count``, all ``2**m`` entries are
    returned, and ``2**m`` must not exceed ``DIM_CAP``.

    ``alpha`` is one coefficient, which gives one row, or a column of them,
    which gives one row per alpha; with ``count`` given, ``m`` may be a
    column too, one copy count per alpha.  The catalyst search's ``psi`` for
    a whole batch and each step of the copy rule come from one call each.
    Every layer value is one numpy power per factor, so row r has the bits
    of the call on ``alpha[r]`` and ``m[r]`` alone.
    """
    if count is None:
        _check_combined_dimension(m, 1)
        count = 2**m
    alpha = np.asarray(alpha, dtype=float)
    m = np.broadcast_to(m, alpha.shape)
    top = np.zeros(alpha.shape + (count,))
    # The entries each layer gives, from the top, per distinct m; the rows
    # whose counts take the same entries (all rows, `...`, in the usual case
    # of one such group) are filled by one repeat.
    rows_of = {}
    for copies in set(np.ravel(m).tolist()):
        taken, left = [], count
        while left and len(taken) <= copies:
            taken.append(min(math.comb(copies, len(taken)), left))
            left -= taken[-1]
        rows_of.setdefault(tuple(taken), []).append(copies)
    for taken, counts in rows_of.items():
        rows = np.isin(m, counts) if len(rows_of) > 1 else ...
        js = np.arange(len(taken))
        a = alpha[rows][..., None]
        values = a ** (m[rows][..., None] - js) * (1.0 - a) ** js
        top[rows, : sum(taken)] = np.repeat(values, taken, axis=-1)
    return top


def target_spectrum(n: int) -> SchmidtVector:
    """Spectrum of one Bell pair padded by the n-1 leftover product pairs."""
    n = _count(n)
    _check_combined_dimension(n, 1)
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
    return _smallest_power_at_most(_real(alpha, "alpha", "(0.5, 1)"), 0.5)


def _smallest_power_at_most(alpha: float, c: float) -> int:
    """Smallest m >= 1 with ``alpha**m <= c``, for alpha in (0, 1) and c in (0, 1].

    Starts from the logarithmic estimate and steps to the first power that
    passes the float test itself, so the estimate's rounding never shows.
    """
    # Python's ** on purpose, here and in _two_qubit_closed_form: numpy's
    # float64 power on an array differs from it in the last bit for about 5%
    # of alphas, which would move copy counts and catalysts at boundaries,
    # so these stay one scalar per point while _power_coefficients batches.
    m = max(1, math.ceil(math.log(c) / math.log(alpha)))
    while m > 1 and alpha ** (m - 1) <= c:
        m -= 1
    while alpha**m > c:
        m += 1
    return m


def in_catalysis_window(problem: ConcentrationProblem) -> bool:
    """Whether a catalyst can help: ``2 <= n <= n_star(alpha) - 1``.

    ``n < n_star(alpha)`` holds exactly when ``alpha**n`` is still above 1/2,
    so one power decides it, with no logarithm and no stepping.
    """
    return problem.n >= 2 and problem.alpha**problem.n > 0.5


def _require_window(problem: ConcentrationProblem) -> None:
    if not in_catalysis_window(problem):
        star = n_star(problem.alpha)
        window = f"[2, {star - 1}]" if star > 2 else f"empty, as n_star(alpha) = {star}"
        raise CatalysisWindowError(
            f"catalysis unnecessary or unsupported for n={problem.n}: "
            f"the catalysis window at alpha={problem.alpha} is {window}"
        )


def optimal_two_qubit_catalyst(problem: ConcentrationProblem) -> CatalystSpec:
    """Closed-form optimal two-qubit catalyst for a problem in the window.

    Valid for ``2 <= n <= n_star(alpha) - 1``; outside that window the closed
    form emits coefficients at or below 1/2, which are meaningless as a larger
    Schmidt coefficient, so a window error is raised instead.  At the window's
    lower edge, where ``alpha**n`` lies just above 1/2, the coefficient may
    round to 1/2 itself: the catalyst is then ``(1/2, 1/2)``, whose success
    probability equals :func:`locc_probability`.
    """
    _require_window(problem)
    c0, p_cat = _two_qubit_closed_form(problem)
    return CatalystSpec(
        spectrum=SchmidtVector(np.array([c0, 1.0 - c0])),
        success_probability=p_cat,
    )


def _two_qubit_closed_form(problem: ConcentrationProblem) -> tuple:
    """``(c0, p_cat)`` of the optimal two-qubit catalyst, for a problem in the window.

    The window check is the caller's.  This keeps only the check that the
    spectrum ``(c0, 1 - c0)`` would make: ``c0`` must be finite and lie in
    ``[1/2 - TOL, 1]``, or :class:`NumericFailureError` is raised.
    """
    # Python's ** on purpose: see _smallest_power_at_most.
    an = problem.alpha**problem.n
    b = 1.0 + 3.0 * an
    c0 = (b - math.sqrt(b * b - 16.0 * an * an)) / (4.0 * an)
    if not 0.5 - TOL <= c0 <= 1.0:  # false for NaN too
        raise NumericFailureError(
            f"closed-form catalyst coefficient {c0} for n={problem.n}, "
            f"alpha={problem.alpha} is not a larger Schmidt coefficient"
        )
    return c0, (1.0 - an) / (1.0 - c0)


def catalysis_probability(problem: ConcentrationProblem, catalyst: SchmidtVector) -> float:
    """Optimal conversion probability with the given catalyst attached.

    Evaluates the monotone-ratio formula on the n copies tensored with the
    catalyst, the target side passed as the catalyst's halves (see
    :func:`_catalysed_probabilities`); the catalyst is recovered on success.
    A trivial (product) catalyst reproduces :func:`locc_probability`.
    """
    _check_combined_dimension(problem.n, catalyst.dimension)
    psi = _power_coefficients(problem.alpha, problem.n)[None, :]
    return float(_catalysed_probabilities(psi, catalyst.coefficients[None, :])[0])


def _catalysed_probabilities(psi: np.ndarray, catalysts: np.ndarray) -> np.ndarray:
    """Optimal probability of ``psi ⊗ c -> target ⊗ c`` for each row pair.

    Row r of ``psi`` holds the ``2**n`` coefficients of n copies of a primary
    state, and row r of ``catalysts`` those of catalyst c.  ``target ⊗ c`` is
    zeros and each ``c_b / 2`` twice: its final row is those halves, which the
    kernel reads as zero-padded.  The kernel sorts, so nothing is sorted here.
    """
    initial = (psi[:, :, None] * catalysts[:, None, :]).reshape(len(catalysts), -1)
    return conversion_probabilities(initial, np.repeat(0.5 * catalysts, 2, axis=1))


def optimal_catalyst(problem: ConcentrationProblem, d_c: int) -> CatalystSpec:
    """Optimal catalyst of dimension ``d_c``: closed form at 2, certified search above."""
    if d_c == 2:
        return optimal_two_qubit_catalyst(problem)
    return search_catalyst(problem, d_c)


def search_catalyst(problem: ConcentrationProblem, d_c: int) -> CatalystSpec:
    """Certified optimal catalyst spectrum of dimension ``d_c``.

    The one-problem case of :func:`search_catalysts`, with the same result
    bit for bit as that problem gets in any batch.
    """
    return search_catalysts([problem], d_c)[0]


def search_catalysts(problems, d_c: int) -> list[CatalystSpec]:
    """Certified optimal catalyst spectra of dimension ``d_c``, one per problem.

    Central-cut ellipsoid method on the ordered catalyst simplex, run for
    every problem in lockstep.  A centre outside the simplex is cut on the
    ordering row it breaks.  Otherwise the probability p(c) is evaluated,
    and the cut is the supergradient of N_k - p(c) L_k at the binding
    monotone k, which keeps every catalyst at least as good.  A problem
    drops out, returning its best evaluated centre, once its ellipsoid's
    trace is at most 1e-20, or once the ellipsoid is flat along a cut (the
    cut's width rounds to zero), so that nothing left in it beats that
    centre.  If the cut budget runs out first, :class:`NumericFailureError`
    is raised, so an uncertified point never returns.

    The problems must share one copy count.  Every operation acts on each
    problem's own values, and sums over the free coordinates run left to
    right (no matrix product across the batch), so a problem's result is
    bit for bit the same whatever else is in the batch.
    """
    problems = list(problems)
    d_c = _count(d_c, "catalyst dimension", 2)
    if not problems:
        return []
    n = problems[0].n
    if any(problem.n != n for problem in problems):
        raise InvalidInputError("the problems of one catalyst search must share the copy count")
    for problem in problems:
        _require_window(problem)
    _check_combined_dimension(n, d_c)

    from ._search import _lockstep_search

    return _lockstep_search(problems, d_c)


# ---------------------------------------------------------------------------
# Intermediate state of the two-step protocol
# ---------------------------------------------------------------------------


def intermediate_state(initial: SchmidtVector, final: SchmidtVector) -> SchmidtVector:
    """Temporary state reached deterministically before the final measurement.

    The returned spectrum gamma satisfies the operational contract of the
    two-step protocol: ``initial`` reaches gamma with certainty, and the
    optimal probability of converting gamma into ``final`` equals that of the
    direct conversion.  The construction is verified on every call, and a
    verification failure raises rather than returning an unverified state.
    """
    d = max(initial.dimension, final.dimension)
    initial = initial.padded(d)
    final = final.padded(d)
    p = conversion_probability(initial, final)
    e_f = monotones(final)

    # Every monotone ratio is at least p, so the candidate monotone vector is
    # the final state's scaled by p, with the first entry reset to 1.  With
    # b_1 >= b_2 >= ... the final coefficients, its steps 1 - p + p*b_1,
    # p*b_2, p*b_3, ... never grow, so it is already convex: they are gamma.
    steps = -np.diff(np.concatenate([[1.0], p * e_f[1:], [0.0]]))
    gamma = make_schmidt(np.sort(np.maximum(steps, 0.0))[::-1])
    reachable = can_convert_deterministically(initial, gamma)
    if reachable and abs(conversion_probability(gamma, final) - p) <= 1e-10:
        return gamma
    raise NumericFailureError(
        f"intermediate state construction failed verification for p={p}"
    )


# ---------------------------------------------------------------------------
# Catalyst supply accounting
# ---------------------------------------------------------------------------


def copies_for_catalyst(catalyst: SchmidtVector, alpha_supply: float) -> int:
    """Fewest copies of a two-qubit supply state that reach ``catalyst`` under LOCC.

    The one-row case of :func:`_copies_for_catalysts`, which a sweep and a
    simulation run call on their catalysts' rows.
    """
    alpha_supply = _real(alpha_supply, "supply alpha", "(0.5, 1)")
    return int(_copies_for_catalysts(catalyst.coefficients[None, :], alpha_supply)[0])


def _copies_for_catalysts(catalysts: np.ndarray, alpha) -> np.ndarray:
    """Fewest supply copies that reach each catalyst under LOCC, as an int column.

    Row r of ``catalysts`` is a catalyst spectrum, and its supply state is
    ``(alpha, 1-alpha)``, with ``alpha`` one larger coefficient in (0.5, 1)
    for every row or a column of them, one per row.  m copies reach the
    catalyst with certainty when their spectrum majorizes it (Nielsen 1999).
    The largest supply coefficient ``alpha**m`` must not exceed the largest
    catalyst coefficient, so each count starts at the smallest such m.  For
    a two-qubit catalyst that first condition is the whole test (its only
    other partial sum is the whole mass), and that m is the count.  Above,
    LOCC cannot raise the Schmidt rank, so the count starts at least at
    ``ceil(log2(rank))``, the rank counting every positive coefficient,
    however small, which the test's tolerance would pass as zero.  From
    there m steps up until every monotone of the supply power dominates the
    catalyst's.  Only the first few monotones of the power can bind, because
    the catalyst's vanish beyond its own dimension, so the test stays cheap
    for any copy count.  Each step takes the supply powers of all the rows
    still short in one :func:`_power_coefficients` call, and every row gets
    the count it gets alone.
    """
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), len(catalysts))
    m = np.array([_smallest_power_at_most(a, c)
                  for a, c in zip(alphas.tolist(), catalysts[:, 0].tolist())], dtype=int)
    dim = catalysts.shape[1]
    if dim <= 2:
        return m
    ranks = np.count_nonzero(catalysts > 0.0, axis=1).tolist()
    np.maximum(m, np.array([(rank - 1).bit_length() for rank in ranks], dtype=int), out=m)
    # Each catalyst's monotones after the first, as monotones() sums them,
    # less the tolerance the test allows.
    floor = np.cumsum(catalysts[:, :0:-1], axis=1)[:, ::-1] - TOL
    short = np.arange(len(m))
    while short.size:
        power = _power_coefficients(alphas[short], m[short], dim - 1)
        passed = np.all(1.0 - np.cumsum(power, axis=1) >= floor[short], axis=1)
        short = short[~passed]
        m[short] += 1
    return m
