"""Catalyst construction and catalytic conversion probabilities.

The concentration task: turn n copies of a partially entangled two-qubit
state into one Bell pair.  A shared catalyst state raises the optimal
success probability without being consumed on success.  This module holds
the copy thresholds (``n_star`` and the catalysis window), the closed-form
optimal two-qubit catalyst, a certified numeric catalyst search for higher
catalyst dimensions, the intermediate state of the two-step conversion
protocol, and supply accounting: :func:`copies_for_catalyst`, the one answer
to how many copies of a two-qubit supply state build a catalyst with
certainty (by majorization, Nielsen 1999).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _power_coefficients(alpha: float, m: int, count: int | None = None) -> np.ndarray:
    """The ``count`` largest coefficients of m copies of ``(alpha, 1-alpha)``.

    The spectrum is layered: value ``alpha**k * (1-alpha)**(m-k)`` with
    binomial multiplicity, strictly decreasing as k falls from m for
    ``alpha > 0.5``, so the top entries come from the first layers.  Entries
    beyond ``2**m`` are zeros.  With no ``count``, all ``2**m`` entries are
    returned, and ``2**m`` must not exceed ``DIM_CAP``.
    """
    if count is None:
        if 2**m > DIM_CAP:
            raise ResourceLimitError(f"2**{m} exceeds the dimension cap {DIM_CAP}")
        count = 2**m
    repeats = []  # entries taken from each layer, from the top
    left = count
    while left and len(repeats) <= m:
        repeats.append(min(math.comb(m, len(repeats)), left))
        left -= repeats[-1]
    ks = np.arange(m, m - len(repeats), -1)
    top = np.zeros(count)
    top[: count - left] = np.repeat(alpha**ks * (1.0 - alpha) ** (m - ks), repeats)
    return top


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
    return _smallest_power_at_most(alpha, 0.5)


def _smallest_power_at_most(alpha: float, c: float) -> int:
    """Smallest m >= 1 with ``alpha**m <= c``, for alpha in (0, 1) and c in (0, 1].

    Starts from the logarithmic estimate and steps to the first power that
    passes the float test itself, so the estimate's rounding never shows.
    """
    m = max(1, math.ceil(math.log(c) / math.log(alpha)))
    while m > 1 and alpha ** (m - 1) <= c:
        m -= 1
    while alpha**m > c:
        m += 1
    return m


def in_catalysis_window(problem: ConcentrationProblem) -> bool:
    """Whether a catalyst can help: ``2 <= n <= n_star(alpha) - 1``."""
    return 2 <= problem.n <= n_star(problem.alpha) - 1


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


def _check_combined_dimension(n: int, d_c: int) -> None:
    if 2**n * d_c > DIM_CAP:
        raise ResourceLimitError(f"combined dimension 2**{n} * {d_c} exceeds the cap {DIM_CAP}")


def _catalysed_probabilities(psi: np.ndarray, catalysts: np.ndarray) -> np.ndarray:
    """Optimal probability of ``psi ⊗ c -> target ⊗ c`` for each row pair.

    Row r of ``psi`` holds the ``2**n`` coefficients of n copies of a primary
    state, and row r of ``catalysts`` those of catalyst c.  ``target ⊗ c`` is
    zeros and each ``c_b / 2`` twice: its final row is those halves, which the
    kernel reads as zero-padded.  The kernel sorts, so nothing is sorted here.
    """
    initial = (psi[:, :, None] * catalysts[:, None, :]).reshape(len(catalysts), -1)
    return conversion_probabilities(initial, np.repeat(0.5 * catalysts, 2, axis=1))


# ---------------------------------------------------------------------------
# Numeric catalyst search
#
# On the ordered simplex c1 >= ... >= cd >= 0 the target side phi x c sorts
# ascending as zeros, then (cd, cd, c(d-1), c(d-1), ..., c1, c1) / 2, so each
# target monotone L_k is linear in c.  Each initial monotone N_k, the sum of
# the k+1 smallest entries of psi x c, is concave.  The superlevel sets
# {p >= t} = {N_k - t L_k >= 0 for every k} are therefore convex: the success
# probability is quasi-concave in the catalyst, and a cutting-plane method
# reaches its global maximum.  A central-cut ellipsoid method runs over the
# free coordinates x = (c2..cd), with c1 = 1 - sum(x).  Every cut keeps every
# catalyst at least as good as the centre it was taken at, so once the
# ellipsoid's trace falls to _CERTIFIED_TRACE, every catalyst better than
# the best evaluated centre lies within sqrt(_CERTIFIED_TRACE) = 1e-10 of the
# ellipsoid's centre.  At an optimum where one monotone binds on a whole
# face (p then depends on fewer coordinates than the catalyst has), the
# ellipsoid can instead go flat along the cut before its trace is small;
# all it holds then lies on the cut's hyperplane, where no catalyst beats
# the centre, and that certifies the best centre as well.
# ---------------------------------------------------------------------------

_CERTIFIED_TRACE = 1e-20


def _max_cuts(free: int) -> int:
    """Cut budget for ``free`` coordinates.

    Over three times the most cuts the certificate took on random in-window
    problems at d_c = 2..10 (10 493 at d_c = 10).
    """
    return 400 * free * (free + 1)


def _ordered_sum(terms, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``terms``, a list or an array's first axis, strictly in order.

    The sum goes into ``out`` if one is given.  Each problem's sum then
    rounds the same way whatever other problems the array holds.
    ``np.add.reduce`` does not: with one problem left, the summed axis
    becomes numpy's inner loop and is summed pairwise, as ``a0 + (a1 + a2)``.
    """
    if len(terms) == 1:
        return np.positive(terms[0], out)
    total = np.add(terms[0], terms[1], out)
    for term in terms[2:]:
        np.add(total, term, total)
    return total


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
    if d_c < 2:
        raise InvalidInputError(f"catalyst dimension must be at least 2, got {d_c}")
    if not problems:
        return []
    n = problems[0].n
    if any(problem.n != n for problem in problems):
        raise InvalidInputError("the problems of one catalyst search must share the copy count")
    for problem in problems:
        _require_window(problem)
    _check_combined_dimension(n, d_c)

    psi = np.array([_power_coefficients(problem.alpha, n) for problem in problems])
    spins = psi.shape[1]
    size = spins * d_c
    free = d_c - 1
    # c = e1 + T x; the ordered simplex is D c >= 0, that is A x <= b, and a
    # centre breaking row j of it is cut along A[j], column j + 1 of `broken`.
    to_c = np.vstack([-np.ones(free), np.eye(free)])
    diffs = np.eye(d_c) - np.eye(d_c, k=1)
    broken = np.zeros((free, d_c + 1))
    broken[:, 1:] = (-diffs @ to_c).T
    # Target monotones on the ordered simplex from the first nonzero one on:
    # L_(zeros + k)(c) = target[:, k] @ c.
    zeros = size - 2 * d_c
    reversed_twice = np.repeat(np.arange(d_c)[::-1], 2)
    target = np.zeros((d_c, 2 * d_c))
    target[reversed_twice, np.arange(2 * d_c)] = 0.5
    target = np.cumsum(target, axis=1)
    weight = np.repeat(psi, d_c, axis=1)  # psi entry behind each entry of psi x c
    column = np.tile(np.arange(d_c), spins)  # catalyst entry behind it
    # The supergradient of N_k gives catalyst entry b the psi weights of its
    # entries among the zeros + k + 1 smallest of psi x c.  Inside the simplex
    # c_b >= 0, so column b ranks as psi ascending and those weights are its
    # smallest psi values, summed smallest first as a rank-ordered sum does.
    # With m of the column's entries ranked above them, that sum is
    # gain[r, m] for problem r.  Only the top 2 d_c - 1 ranks can lie above:
    # rank zeros + 1 + i does so when i >= k, that is unless excluded[i, k].
    gain = np.zeros((len(problems), spins + 1))
    gain[:, :spins] = np.add.accumulate(psi[:, ::-1], axis=1)[:, ::-1]
    excluded = np.arange(2 * d_c - 1)[:, None] < np.arange(2 * d_c)

    # Layout: the K problems of the batch lie along the last axis of every
    # per-problem array, so each step acts on whole rows of K values and each
    # sum over the free coordinates adds whole (free, K) slabs.  Three tables
    # keep one row per problem instead: `joint`, whose rows argsort(axis=1)
    # orders (its tie order picks the supergradient at exact cross-column
    # ties), and `weight` and `gain`, which a row offset reaches.  Column or
    # row r belongs to problem active[r]; once a problem is certified, its
    # best centre moves to `certified`, it is dropped from every array, and
    # the index tables and scratch buffers are rebuilt for the smaller batch.
    # Start from the ellipsoid through the corners of the box 0 <= c_i <= 1/i,
    # i = 2..d, which holds the ordered simplex.  The rows of `centre` are
    # c1, x, a zero, so that its ordering slacks are one difference of
    # neighbours, and the centre's probability p; `best` has the same rows.
    half = 0.5 / np.arange(2, d_c + 1)
    centre = np.zeros((d_c + 2, len(problems)))
    centre[1:d_c] = half[:, None]
    # P = F F^T for problem r, kept as factor[j, i, r] = F[i, j] so that each
    # sum over the free coordinates adds whole (free, K) slabs.
    factor = np.tile(np.diag(math.sqrt(free) * half)[:, :, None], (1, 1, len(problems)))
    # Central-cut update of the factor: the cut direction shrinks by
    # free/(free+1), the others grow by `spread` (no others at free == 1).
    spread = free / math.sqrt(free * free - 1) if free > 1 else 1.0
    along = free / (free + 1) - spread
    # The smallest singular value of that update is free/(free+1), so no cut
    # shrinks the trace of P by more than its square.  After a trace T, the
    # next floor(log(2e-20 / T) / log_shrink) checks of the certificate
    # cannot pass (the factor 2 is far beyond the trace's rounding) and are
    # skipped; the batch checks once any of its problems can pass.  A check
    # changes no value, so every problem stops at the cut it would anyway.
    log_shrink = 2.0 * math.log(free / (free + 1))
    next_check = 0
    # Until a centre inside the simplex is evaluated, every cut keeps the
    # whole simplex, so the trace cannot reach the certificate with no best.
    best = np.zeros_like(centre)
    best[-1] = -1.0
    certified = np.zeros((len(problems), d_c))
    active = np.arange(len(problems))
    count = 0
    flat = None
    for cut_index in range(_max_cuts(free)):
        # Problems whose ellipsoid went flat in the last cut and, at a check,
        # those whose trace passed drop out here with their best centres.
        done = flat
        flat = None
        if cut_index == next_check:
            trace = _ordered_sum(_ordered_sum(factor * factor))
            passed = trace <= _CERTIFIED_TRACE
            done = passed if done is None else done | passed
            if not done.all():
                skip = math.log(2.0 * _CERTIFIED_TRACE / trace[~done].min()) / log_shrink
                next_check = cut_index + 1 + max(0, math.floor(skip))
        if done is not None and done.any():
            certified[active[done]] = best[:d_c, done].T
            keep = ~done
            active, centre, best, factor = (a[..., keep] for a in (active, centre, best, factor))
            weight, gain = weight[keep], gain[keep]
            if active.size == 0:
                break
        if active.size != count:
            # Index tables, scratch buffers and the views the cuts use, made
            # once for each batch size.
            count = active.size
            rows_now = np.arange(count)
            offsets = size * rows_now[:, None]  # where each row of `joint` starts, flattened
            # Flat index into `joint` -> flat index b * count + r of counts[b, r];
            # the bin after the last collects the ranks below the cut.
            bins = (count * column + rows_now[:, None]).ravel()
            below = count * d_c
            gain_rows = (spins + 1) * rows_now
            c, c1, x, p, best_p = centre[:d_c], centre[0], centre[1:d_c], centre[-1], best[-1]
            x_rows = list(x)
            joint = np.empty((count, size))
            slack = np.zeros((d_c + 1, count))  # row 0 stays zero
            ratios = np.empty((2 * d_c, count))
            products = np.empty((free, free, count))
            by_i, by_j = list(products.swapaxes(0, 1)), list(products)
            u, squares, step = np.empty((3, free, count))
            u_col, square_rows = u[:, None, :], list(squares)
            width = np.empty(count)
        np.subtract(1.0, _ordered_sum(x_rows, c1), c1)
        # Slack of each ordering row, A x - b, after a zero: the first maximum
        # is that zero exactly when the centre breaks no row.
        np.subtract(centre[1 : d_c + 1], c, slack[1:])
        j = slack.argmax(axis=0)
        inside = j == 0
        # p(c) at every centre; only those inside the simplex use it.  A
        # centre outside still has e_f > 0 at the last monotone, which is 1.
        np.multiply(weight, c.take(column, axis=0).T, joint)
        order = joint.argsort(axis=1)
        order += offsets
        ranks = order.T  # flat index of each rank's product, rank-major
        e_i = np.add.accumulate(joint.take(ranks), axis=0)[zeros:]
        e_f = np.add.accumulate(c.take(reversed_twice, axis=0), axis=0)
        e_f *= 0.5  # target.T @ c
        ratios.fill(np.inf)
        np.divide(e_i, e_f, out=ratios, where=e_f > 0.0)
        k = ratios.argmin(axis=0)
        ratios.min(axis=0, out=p)
        better = inside & (p > best_p)
        np.copyto(best, centre, where=better)
        ranked = bins.take(ranks[zeros + 1 :])
        np.putmask(ranked, excluded.take(k, axis=1), below)
        counts = np.bincount(ranked.ravel(), minlength=below + 1)[:below].reshape(d_c, count)
        grad = gain.take(counts + gain_rows) - p * target.take(k, axis=1)
        # -(to_c.T @ grad) inside the simplex, the broken row outside.
        cut = np.where(inside, grad[0] - grad[1:], broken.take(j, axis=1))
        np.multiply(factor, cut, products)
        _ordered_sum(by_i, u)  # F^T cut
        np.multiply(u, u, squares)
        _ordered_sum(square_rows, width)  # cut' P cut
        if np.count_nonzero(width) < count:
            # The ellipsoid lies in the cut's hyperplane through its centre.
            # For a broken row, no point of it is in the simplex; for a
            # supergradient, concavity of the binding monotone bounds p by
            # the centre's on that hyperplane.  Either way nothing in it
            # beats the best centre, which certifies that centre too.
            flat = width == 0.0
            if flat.all():
                certified[active] = best[:d_c].T
                break
            width[flat] = 1.0  # their columns finish this cut unused
        np.sqrt(width, width)
        u /= width
        np.multiply(factor, u_col, products)
        _ordered_sum(by_j, step)  # F u
        x -= step / (free + 1)
        factor *= spread
        np.multiply(u_col, step, products)
        products *= along
        factor += products
    else:
        first = 0 if flat is None else int(flat.argmin())  # first problem not certified
        raise NumericFailureError(
            f"catalyst search for n={n}, alpha={problems[active[first]].alpha} did not "
            f"certify within {_max_cuts(free)} cuts",
            best=make_schmidt(best[:d_c, first]) if best[-1, first] >= 0.0 else None,
        )

    # Each catalyst's success probability, as catalysis_probability gives
    # it, from one kernel call over the tensored rows of the whole batch.
    cat, found = _ordered_spectra(certified)
    p_cat = _catalysed_probabilities(psi, cat)
    return [
        CatalystSpec(spectrum=spectrum, success_probability=float(p))
        for spectrum, p in zip(found, p_cat)
    ]


def _ordered_spectra(rows: np.ndarray) -> tuple:
    """Each row over its own sum, as an array and as one spectrum per row.

    :func:`make_schmidt` for rows already in non-increasing order, such as
    centres inside the ordered simplex, with the sort left out: dividing by a
    positive sum keeps the order.  Each :class:`SchmidtVector` still checks
    its row, so a row that is not a spectrum (a negative or unordered entry,
    or all zeros, whose quotient is NaN) raises :class:`InvalidInputError`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = rows / rows.sum(axis=1, keepdims=True)
    return normalized, [SchmidtVector(row) for row in normalized]


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

    m copies of ``(alpha, 1-alpha)`` reach the catalyst with certainty when
    their spectrum majorizes it.  The largest supply coefficient ``alpha**m``
    must not exceed the largest catalyst coefficient, so the count starts at
    the smallest such m.  For a two-qubit catalyst that first condition is
    the whole test (its only other partial sum is the whole mass), and that m
    is returned.  Above, m steps up until every monotone of the supply power
    dominates the catalyst's.  Only the first few monotones of the power can
    bind, because the catalyst's vanish beyond its own dimension, so the test
    stays cheap for any copy count.
    """
    if not 0.5 < alpha_supply < 1.0:
        raise InvalidInputError(f"supply alpha must lie in (0.5, 1), got {alpha_supply}")
    m = _smallest_power_at_most(alpha_supply, float(catalyst.coefficients[0]))
    if catalyst.dimension <= 2:
        return m
    e_cat = monotones(catalyst)[1:]
    while not np.all(1.0 - np.cumsum(_power_coefficients(alpha_supply, m, e_cat.size))
                     >= e_cat - TOL):
        m += 1
    return m

