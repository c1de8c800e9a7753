"""The certified catalyst search, compiled on a search's first use.

:func:`entcat.catalysis.search_catalysts` checks its problems and imports
this module only for a batch with a problem in it, so importing entcat and a
sweep at catalyst dimension 2 do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .catalysis import CatalystSpec, _catalysed_probabilities, _power_coefficients
from .errors import NumericFailureError
from .spectra import SchmidtVector, _check_rows, make_schmidt

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

def _lockstep_search(problems: list, d_c: int) -> list[CatalystSpec]:
    """The search of :func:`entcat.catalysis.search_catalysts`, on problems it has checked.

    ``problems`` is a non-empty list of in-window problems of one copy
    count, whose combined dimension with ``d_c`` is within the cap.
    """
    n = problems[0].n
    psi = _power_coefficients([problem.alpha for problem in problems], n)
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
    positive sum keeps the order.  The whole batch is checked once, by the
    test each :class:`SchmidtVector` makes (:func:`~entcat.spectra._check_rows`),
    and the checked rows are then wrapped with no second check.  So a row
    that is not a spectrum (a negative, non-finite or unordered entry, a sum
    that overflows, or all zeros, whose quotient is NaN) raises
    :class:`InvalidInputError` with the message ``SchmidtVector`` gives it.
    The returned array is read-only: the spectra hold its rows.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        normalized = rows / rows.sum(axis=1, keepdims=True)
    _check_rows(normalized)
    return normalized, SchmidtVector._of_checked_rows(normalized)
