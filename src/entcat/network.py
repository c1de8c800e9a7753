"""Analytic physical-layer and rate model for a chain of entangled edges.

Maps fiber transmittivities to the primary-state asymmetry, models the time
to assemble the states needed for one catalysis attempt per edge under three
auxiliary-path regimes, and composes per-edge success probabilities into
end-to-end entanglement distribution rates through the waiting factor for
an N-edge chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .catalysis import (
    CatalystSpec,
    ConcentrationProblem,
    _copies_for_catalysts,
    _count,
    _real,
    _two_qubit_closed_form,
    in_catalysis_window,
    locc_probability,
    optimal_catalyst,
    search_catalysts,
)
from .errors import InvalidInputError, NumericFailureError

AUX_RICH = "aux_rich"
NO_AUX = "none"
FINITE_AUX = "finite"
AUX_MODES = (AUX_RICH, NO_AUX, FINITE_AUX)

WINDOW_OK = "ok"
WINDOW_OUT = "out_of_window"


@dataclass(frozen=True)
class EdgeParams:
    """Physical parameters of one network edge.

    ``length_km`` is the fiber length to each memory, so a herald round trip
    takes ``2 * length_km / fiber_speed_km_s`` seconds.  Defaults are library
    conveniences for examples, not measured values.
    """

    alpha: float
    copies: int = 2
    length_km: float = 25.0
    fiber_speed_km_s: float = 2.0e5
    herald_probability: float = 0.5
    catalyst_dim: int = 2

    def __post_init__(self):
        # A numpy count is stored as an int and a numpy real as a float.
        for name, what, interval in (
            ("alpha", "alpha", "(0.5, 1)"), ("length_km", "length", "(0, inf)"),
            ("fiber_speed_km_s", "fiber speed", "(0, inf)"),
            ("herald_probability", "herald probability", "(0, 1]"),
        ):
            object.__setattr__(self, name, _real(getattr(self, name), what, interval))
        object.__setattr__(self, "copies", _count(self.copies, "copies", 2))
        object.__setattr__(self, "catalyst_dim", _count(self.catalyst_dim, "catalyst dimension", 2))

    @property
    def cycle_time_s(self) -> float:
        """One generation attempt: photon flight plus heralding, 2 L / c_f."""
        return 2.0 * self.length_km / self.fiber_speed_km_s


@dataclass(frozen=True)
class AuxPath:
    """One auxiliary short-range path supplying catalyst raw material."""

    alpha: float
    gen_probability: float
    gen_time_s: float

    def __post_init__(self):
        for name, what, interval in (("alpha", "aux path alpha", "(0.5, 1)"),
                                     ("gen_probability", "aux path probability", "(0, 1]"),
                                     ("gen_time_s", "aux path generation time", "(0, inf)")):
            object.__setattr__(self, name, _real(getattr(self, name), what, interval))


@dataclass(frozen=True)
class AuxConfig:
    """Auxiliary-path regime: plentiful paths, none, or an explicit finite list."""

    mode: str
    paths: tuple = ()

    def __post_init__(self):
        if self.mode not in AUX_MODES:
            raise InvalidInputError(f"aux mode must be one of {AUX_MODES}, got {self.mode!r}")
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.mode == FINITE_AUX and not self.paths:
            raise InvalidInputError("finite aux mode requires at least one path")
        if self.mode != FINITE_AUX and self.paths:
            raise InvalidInputError(f"aux mode {self.mode} takes no paths; use finite for explicit paths")


class TimingBreakdown(NamedTuple):
    """Mean times entering one catalysis attempt over an edge (seconds)."""

    t_primary_s: float
    t_catalyst_s: Optional[float]
    t_primary_plus_catalyst_s: float
    t_edge_cycle_s: float


def alpha_from_transmittivities(t_left: float, t_right: float) -> float:
    """Larger Schmidt coefficient from the two channels' transmittivities.

    The asymmetry of the heralded state is ``t_left / (t_left + t_right)``,
    mapped onto the larger-coefficient convention.
    """
    if not 0.0 < t_left < 1.0 or not 0.0 < t_right < 1.0:
        raise InvalidInputError("transmittivities must lie in (0, 1)")
    a = t_left / (t_left + t_right)
    return max(a, 1.0 - a)


def t_primary(n, t0_s: float, p0: float):
    """Mean time ``n * t0_s / p0`` to assemble n primary pairs: n a count or an integer column."""
    n = _count(n, column=True)
    if not (0.0 < t0_s < math.inf and 0.0 < p0 <= 1.0):
        raise InvalidInputError(f"need a positive finite t0 and p0 in (0, 1], got {t0_s} and {p0}")
    return n * t0_s / p0


def t_catalyst(paths: Sequence[AuxPath], copies: Sequence[int]) -> float:
    """Mean time, in seconds, for the auxiliary paths to produce one catalyst.

    Path i needs ``copies[i]`` copies (see
    :func:`~entcat.catalysis.copies_for_catalyst`), and its supply rate is
    that copy requirement times ``P_i / T_i``, exactly as the timing model
    states it; the paths' rates add, from int 0.  A count may be an integer
    column, which gives a column of times, each entry its scalar call's.
    Every count must be an integer >= 1; an empty column passes.
    """
    if not paths or len(copies) != len(paths):
        raise InvalidInputError("need at least one auxiliary path and one copy count per path")
    return 1.0 / sum(_count(m, column=True) * p.gen_probability / p.gen_time_s
                     for p, m in zip(paths, copies))


def t_edge_cycle(p_cat, edge: EdgeParams, aux: AuxConfig, copies: Sequence) -> TimingBreakdown:
    """Mean temporal cost of one catalysis attempt over the edge.

    Success costs only the primary assembly time; failure also costs the
    catalyst: nothing extra when auxiliary paths are plentiful, the larger of
    the two generation times with a finite path list, and the :func:`t_primary`
    time of the edge's copies plus ``n_cat`` when no auxiliary paths exist.
    ``copies`` is what one catalyst takes from each supply (see
    :func:`~entcat.catalysis.copies_for_catalyst`): one count per path of a
    finite list, in order, else the edge's own count; plentiful paths use none.
    Every count a mode reads must be an integer >= 1.

    ``p_cat`` is a float or a numpy column, and each count an int or an
    integer column of the same length; a sweep prices a whole block of
    points in one call.  Columns meet only ``+ - * /`` and a maximum, in the
    scalar call's order, so each entry keeps the bits of its own scalar
    call, and a scalar call returns plain floats.
    """
    if not np.all((0.0 < p_cat) & (p_cat <= 1.0)):
        raise InvalidInputError("catalysis probability must lie in (0, 1]")
    t_pri = t_primary(edge.copies, edge.cycle_time_s, edge.herald_probability)
    if aux.mode == AUX_RICH:
        t_cat = None
        t_both = t_pri
    elif aux.mode == FINITE_AUX:
        t_cat = t_catalyst(aux.paths, copies)
        t_both = np.maximum(t_pri, t_cat) if np.ndim(t_cat) else max(t_pri, t_cat)
    else:
        (n_cat,) = copies
        n_cat = _count(n_cat, column=True)  # as int64: adding the edge's count cannot wrap
        t_cat = t_primary(n_cat, edge.cycle_time_s, edge.herald_probability)
        t_both = t_primary(edge.copies + n_cat, edge.cycle_time_s, edge.herald_probability)
    return TimingBreakdown(t_pri, t_cat, t_both, p_cat * t_pri + (1.0 - p_cat) * t_both)


# Series terms :func:`waiting_factors` evaluates in one numpy pass.  A p's
# terms are never split, so a pass holds more only when one p needs more.
_SERIES_PASS_TERMS = 8192


def waiting_factors(n_edges: int, ps: Sequence[float]) -> list[float]:
    """Expected cycles until all N edges have succeeded at least once, per p.

    The expected maximum of N independent geometric waits, in doubles.  With
    ``lam = -log(1 - p)`` each p takes the one form that is exact on its
    region:

    - ``p > 1e-2``: the positive series ``1 + sum_m P(max > m)``, each term
      ``-expm1(N log1p(-exp(-lam m)))``, cut where ``N exp(-lam m) < e**-40``
      (at most ~4 800 terms at N = 4096);
    - ``p <= 1e-2`` and ``N >= 8``: the harmonic asymptotic ``H_N / lam + 1/2``
      (Szpankowski & Rego 1990); its Euler-Maclaurin corrections start at
      order ``lam**N`` and its periodic part at ``exp(-2 pi**2 / lam)``, both
      below double resolution there.  ``H_N`` is summed up to N = 1024 and
      taken from its own Euler-Maclaurin expansion above, within an ulp or
      two of the sum, so this branch costs the same at any N;
    - ``p <= 1e-2`` and ``N < 8``: inclusion-exclusion, whose binomials are at
      most 35, so its alternating terms barely cancel.

    Against a high-precision inclusion-exclusion sum the relative error is
    below 1e-15 for N up to 4096 and p down to 1e-6.

    The series terms of all p's come from flat numpy passes over their
    concatenated ``m`` ranges, whole p's at a time, at most 8 192 terms per
    pass or one p's terms if it has more.  ``H_N`` is found once per call.
    Each p still gets ``1 + fsum`` of exactly its own terms, with its own
    cut, so its factor is bit for bit the one it gets alone.
    """
    n_edges = _count(n_edges, "edge count")
    zs = [1.0] * len(ps)
    series = []  # (index, lam, term count) of each series p, in list order
    cut = math.log(n_edges) + 40.0  # the series stops where N exp(-lam m) < e**-40
    harmonic = None
    for i, p in enumerate(ps):
        p = _real(p, "success probability", "(0, 1]")
        if p == 1.0:
            continue
        lam = -math.log1p(-p)
        if p > 1e-2:
            series.append((i, lam, math.ceil(cut / lam) - 1))
        elif n_edges >= 8:
            if harmonic is None:
                harmonic = _harmonic_number(n_edges)
            zs[i] = harmonic / lam + 0.5
        else:
            zs[i] = math.fsum(
                (-1) ** (j + 1) * math.comb(n_edges, j) / -math.expm1(-j * lam)
                for j in range(1, n_edges + 1)
            )
    start = 0
    while start < len(series):
        stop = start + 1
        total = series[start][2]
        while stop < len(series) and total + series[stop][2] <= _SERIES_PASS_TERMS:
            total += series[stop][2]
            stop += 1
        chunk = series[start:stop]
        counts = [count for _, _, count in chunk]
        firsts = list(itertools.accumulate(counts, initial=0))
        # Each p's lam beside its own m = 1, 2, ..., count.
        lams = np.array([lam for _, lam, _ in chunk]).repeat(counts)
        m = np.arange(1, total + 1) - np.array(firsts[:-1]).repeat(counts)
        terms = (-np.expm1(n_edges * np.log1p(-np.exp(-lams * m)))).tolist()
        for (i, _, _), first, end in zip(chunk, firsts, firsts[1:]):
            zs[i] = 1.0 + math.fsum(terms[first:end])
        start = stop
    return zs


def _harmonic_number(n: int) -> float:
    """H_N, summed up to N = 1024 and from its Euler-Maclaurin expansion above."""
    if n > 1024:
        # To 1 / N**4 plus Euler's constant; the next term, 1 / (252 N**6),
        # is below 1e-20.
        inv2 = 1.0 / (n * n)
        return math.log(n) + 0.5772156649015329 + (0.5 / n - inv2 * (1.0 / 12.0 - inv2 / 120.0))
    return math.fsum(1.0 / k for k in range(1, n + 1))


def waiting_factor(n_edges: int, p: float) -> float:
    """The waiting factor of one p: the one-element call of :func:`waiting_factors`."""
    (z,) = waiting_factors(n_edges, (p,))
    return z


def waiting_factor_small_p(n_edges: int, p: float) -> float:
    """Rough small-p approximation of the waiting factor, for diagnostics only.

    ``1 / (p (2/3)**(N-1))``.  It coincides with the exact factor at N = 1
    and with its small-p limit at N = 2, but grows geometrically in N while
    the exact factor grows only harmonically, so it is never used inside the
    rate computations.
    """
    n_edges = _count(n_edges, "edge count")
    p = _real(p, "success probability", "(0, 1]")
    return 1.0 / (p * (2.0 / 3.0) ** (n_edges - 1))


def edge_catalyst(edge: EdgeParams) -> CatalystSpec:
    """Optimal catalyst for an edge (see :func:`~entcat.catalysis.optimal_catalyst`)."""
    return optimal_catalyst(ConcentrationProblem(edge.copies, edge.alpha), edge.catalyst_dim)


def _supply_copies(aux: AuxConfig, catalysts: np.ndarray, n_cat) -> tuple:
    """The ``copies`` argument of :func:`t_edge_cycle` for rows of catalysts.

    Only a finite aux list has paths: each path's int column, what each row
    of ``catalysts`` takes of its supply state, comes from one call of the
    copy rule (:func:`~entcat.catalysis._copies_for_catalysts`).  Every
    other mode gets ``(n_cat,)``, the edge's own column.
    """
    return tuple(_copies_for_catalysts(catalysts, path.alpha) for path in aux.paths) or (n_cat,)


# Relative size, against the running sum, of the geometric tail left off
# when :func:`rate_slotted` stops summing.
_SLOTTED_TAIL_TOL = 1e-17
_SLOTTED_MAX_SLOTS = 10_000_000
# Slots :func:`rate_slotted` sums per step: the first block, and the size
# the blocks double up to.
_SLOTTED_FIRST_BLOCK = 16
_SLOTTED_BLOCK = 4096


def rate_slotted(edge: EdgeParams, n_edges: int) -> float:
    """Exact long-run delivery rate of the slot-level chain with plentiful aux paths.

    This is the rate of :func:`entcat.simulate.simulate_detailed` in the
    aux-rich regime.  Every slot of length ``edge.cycle_time_s`` is one
    primary attempt succeeding with probability P0, so a load of n pairs lasts
    a negative-binomial number of slots; catalysis is attempted in the slot
    the last pair arrives, and a failure restarts the load.  A delivery waits
    for the edge whose random sum of loads is longest, so the mean interval is
    ``sum_m [1 - (1 - S(m))**N]`` slots, with S(m) the probability that one
    edge is unfinished after m slots, from the Markov recursion over the
    number of pairs held.

    Because the maximum is convex, this never exceeds the fixed-cycle rate of
    :func:`rate_catalytic`; the two coincide at N = 1 (Wald's identity) and at
    P0 = 1, where every load lasts exactly n slots.
    """
    n_edges = _count(n_edges, "edge count")
    n = edge.copies
    p0 = edge.herald_probability
    q0 = 1.0 - p0
    fail = 1.0 - edge_catalyst(edge).success_probability
    # The survival tail decays by the Perron root of the recursion per slot.
    decay = q0 + p0 * fail ** (1.0 / n)
    tail_tol = _SLOTTED_TAIL_TOL * (1.0 - decay)

    # One slot maps the row vector P(unfinished, k pairs held) through `step`.
    step = np.diag(np.full(n, q0)) + np.diag(np.full(n - 1, p0), 1)
    step[n - 1, 0] += p0 * fail
    # Slots are summed in blocks of B: column r of `ahead` is step^r 1, so
    # held @ ahead is S over the next B slots, and `jump` is step^B.  B
    # starts small and doubles, so short sums stay short.
    ahead = np.ones((n, 1))
    jump = step
    while ahead.shape[1] < _SLOTTED_FIRST_BLOCK:
        ahead = np.hstack((ahead, jump @ ahead))
        jump = jump @ jump
    held = np.zeros(n)
    held[0] = 1.0
    total = 0.0
    slot = 0
    while slot < _SLOTTED_MAX_SLOTS:
        survival = np.minimum(held @ ahead, 1.0)
        # P(slowest edge unfinished after each slot), without cancellation.
        with np.errstate(divide="ignore"):
            terms = -np.expm1(n_edges * np.log1p(-survival))
        running = np.cumsum(np.concatenate(([total], terms)))[1:]
        stop = (np.arange(slot, slot + terms.size) >= n) & (terms <= tail_tol * running)
        if stop.any():
            return 1.0 / (running[np.argmax(stop)] * edge.cycle_time_s)
        total = running[-1]
        slot += terms.size
        held = held @ jump
        if terms.size < _SLOTTED_BLOCK:
            ahead = np.hstack((ahead, jump @ ahead))
            jump = jump @ jump
    raise NumericFailureError("slot-level survival sum failed to converge")


# ---------------------------------------------------------------------------
# Chain rates at one point and on a sweep over the primary-state asymmetry
# ---------------------------------------------------------------------------

class _SweepFields(NamedTuple):
    alpha: float
    mode: str
    catalyst_dim: int
    p_locc: float
    p_cat: Optional[float]
    c0: Optional[float]
    n_cat: Optional[int]
    eta_p: Optional[float]
    z_locc: float
    z_cat: Optional[float]
    t_edge_cycle_s: Optional[float]
    rate_locc_hz: float
    rate_cat_hz: Optional[float]
    eta_r: Optional[float]
    window_flag: str


class SweepRow(_SweepFields):
    """The rates of one point; catalyst-dependent fields are None out of window.

    An immutable tuple of its fields in CSV column order, built by keyword.
    Building it is one tuple allocation, not one attribute set per field.
    """

    __slots__ = ()

    def __new__(cls, *, alpha, mode, catalyst_dim, p_locc, p_cat=None, c0=None, n_cat=None,
                eta_p=None, z_locc, z_cat=None, t_edge_cycle_s=None, rate_locc_hz,
                rate_cat_hz=None, eta_r=None, window_flag):
        return tuple.__new__(cls, (alpha, mode, catalyst_dim, p_locc, p_cat, c0, n_cat, eta_p,
                                   z_locc, z_cat, t_edge_cycle_s, rate_locc_hz, rate_cat_hz,
                                   eta_r, window_flag))


SWEEP_CSV_HEADER = ",".join(SweepRow._fields)
# A row from a tuple of its fields in column order, with no keyword call.
_new_row = partial(tuple.__new__, SweepRow)


def _rate_rows(problems: Sequence[ConcentrationProblem], inside: Sequence[int], catalysts: dict,
               auxes: Sequence[AuxConfig], edge: EdgeParams, n_edges: int,
               waits: Callable[[int, list], list] = waiting_factors) -> list[SweepRow]:
    """Catalytic and plain-LOCC chain rates, one row per (aux, dimension, problem).

    One ``edge`` gives every row's timing and one list ``inside`` the
    in-window problems' indices, in order: a dimension picks only the
    catalyst.  ``catalysts`` maps each dimension to the ``(spectra, p_cats)``
    of those problems, in that order: an array whose rows are their
    catalysts' coefficients, and a list of their success probabilities.
    ``waits`` gives the waiting factors of a list of probabilities, every
    LOCC and catalytic one of the call at once.

    The catalytic rate pays the edge-cycle time and waits for all edges at
    the catalytic success probability; the comparator pays only the primary
    assembly time at the plain LOCC probability.  Each quantity is computed
    once: the plain-LOCC columns per problem, ``z_cat``, ``eta_p`` and the
    edge's own copy count ``n_cat`` per (dimension, problem), and only the
    edge-cycle time, the catalytic rate and ``eta_r`` per aux mode.  The
    copy counts of a dimension, ``n_cat`` at each point's alpha and each
    finite path's column, take one call each of the copy rule
    (:func:`~entcat.catalysis._copies_for_catalysts`) on its catalyst rows.
    The rest takes one numpy pass over a block's in-window problems, the
    edge cycle one :func:`t_edge_cycle` call, with the scalar arithmetic's
    operations in its order, so every float keeps its bits.
    """
    t_pri = t_primary(edge.copies, edge.cycle_time_s, edge.herald_probability)
    count, width = len(problems), len(inside)
    alphas = [problem.alpha for problem in problems]
    p_loccs = [locc_probability(problem) for problem in problems]
    zs = waits(n_edges, p_loccs + [p for _, p_cats in catalysts.values() for p in p_cats])
    z_loccs = zs[:count]
    rate_loccs = (1.0 / (t_pri * np.array(z_loccs))).tolist()
    alpha, p_locc, z_locc, rate_locc = (
        [column[i] for i in inside] for column in (alphas, p_loccs, z_loccs, rate_loccs)
    )
    p_locc_column, rate_locc_column = np.array(p_locc), np.array(rate_locc)
    window = set(inside)
    by_aux = [[] for _ in auxes]  # each aux mode's rows, appended in output order
    for k, (dim, (spectra, p_cats)) in enumerate(catalysts.items()):
        c0s = spectra[:, 0].tolist()
        n_cat = _copies_for_catalysts(spectra, alpha)
        n_cats = n_cat.tolist()
        z_cat = zs[count + k * width:count + (k + 1) * width]
        p_cat = np.array(p_cats)
        eta_p = (p_cat / p_locc_column).tolist()
        z_cat_column = np.array(z_cat)
        for aux, rows in zip(auxes, by_aux):
            t_cycle = t_edge_cycle(p_cat, edge, aux,
                                   _supply_copies(aux, spectra, n_cat)).t_edge_cycle_s
            rate_cat = 1.0 / (t_cycle * z_cat_column)
            eta_r = rate_cat / rate_locc_column
            ok = map(_new_row, zip(
                alpha, itertools.repeat(aux.mode), itertools.repeat(dim), p_locc, p_cats, c0s,
                n_cats, eta_p, z_locc, z_cat, t_cycle.tolist(), rate_locc, rate_cat.tolist(),
                eta_r.tolist(), itertools.repeat(WINDOW_OK),
            ))
            rows.extend(
                next(ok) if i in window else
                _new_row((a, aux.mode, dim, p, None, None, None, None, z, None, None, r, None, None,
                          WINDOW_OUT))
                for i, a, p, z, r in zip(range(count), alphas, p_loccs, z_loccs, rate_loccs)
            )
    return list(itertools.chain.from_iterable(by_aux))


def rate_catalytic(edge: EdgeParams, aux: AuxConfig, n_edges: int) -> SweepRow:
    """End-to-end distribution rates with and without catalysis for an N-edge chain.

    The row :func:`sweep_rates` gives for this point, built by the same
    composition from this edge, its one point as the in-window list, and
    the edge's optimal catalyst at its dimension (:func:`edge_catalyst`,
    which raises :class:`~entcat.errors.CatalysisWindowError` out of window).
    The edge-cycle breakdown behind ``t_edge_cycle_s`` is :func:`t_edge_cycle`;
    the edge count is checked where the waiting factors are taken.
    """
    catalyst = edge_catalyst(edge)
    catalysts = {edge.catalyst_dim: (catalyst.spectrum.coefficients[None, :],
                                     [catalyst.success_probability])}
    problem = ConcentrationProblem(edge.copies, edge.alpha)
    # The point's two factors, one waiting_factor call each, so perfbench's
    # tracer books them; a sweep takes all of its factors in one call.
    (row,) = _rate_rows([problem], [0], catalysts, [aux], edge, n_edges,
                        lambda n, ps: [waiting_factor(n, p) for p in ps])
    return row


def sweep_rates(
    copies: int,
    n_edges: int,
    alpha_grid: Sequence[float],
    modes: Sequence[str] = (AUX_RICH,),
    catalyst_dims: Sequence[int] = (2,),
    *,
    length_km: float = 25.0,
    fiber_speed_km_s: float = 2.0e5,
    herald_probability: float = 0.5,
    aux_paths: Sequence[AuxPath] = (),
) -> list[SweepRow]:
    """Rate ratios on a grid of primary-state asymmetries.

    One row per (mode, catalyst dimension, alpha), sorted in that order; a
    repeated mode or dimension is an error.  Grid points where the copy count
    falls outside the catalysis window are flagged and carry only the
    plain-LOCC quantities instead of erroring, so sweeps can span the whole
    asymmetry range.  Only the finite mode reads ``aux_paths``, so paths
    given without it are an error.

    The inputs are validated once, each catalyst dimension checked once, and
    the catalyst found once per (dimension, alpha).  The dimension changes
    neither the timing nor the catalysis window, so one edge and one
    in-window list serve every dimension.  The rows come from the
    composition :func:`rate_catalytic` uses, which computes each quantity
    once.  At dimension 2, each in-window alpha takes ``(c0, p_cat)`` from
    the closed form of :func:`~entcat.catalysis.optimal_two_qubit_catalyst`,
    its catalyst row is ``(c0, 1 - c0)``, with no spectrum and no second
    window check, and the copy rule reads only ``c0`` of it.  Above, the
    catalysts of one dimension come from a single lockstep
    :func:`~entcat.catalysis.search_catalysts` batch over the in-window
    alphas.  That search treats each problem on its own rows, with no
    reduction across the batch, so every row is bit for bit what
    :func:`rate_catalytic` gives for that point alone.  Every dimension's
    copy counts come from its rows in one call of the copy rule per supply
    state (see :func:`_rate_rows`).
    """
    dims = [_count(dim, "catalyst dimension", 2) for dim in catalyst_dims]
    if len(set(modes)) < len(modes) or len(set(dims)) < len(dims):
        raise InvalidInputError(
            f"sweep modes and catalyst dimensions must not repeat, got {list(modes)} "
            f"and {dims}"
        )
    if aux_paths and FINITE_AUX not in modes:
        raise InvalidInputError(f"aux paths apply to the finite mode only, got modes {list(modes)}")
    auxes = [AuxConfig(mode, tuple(aux_paths) if mode == FINITE_AUX else ()) for mode in modes]
    problems = [ConcentrationProblem(copies, alpha) for alpha in sorted(alpha_grid)]
    if not (problems and dims):
        return []
    # One edge validates the timing parameters; no timing depends on alpha
    # or on the catalyst dimension, so every row shares it.
    edge = EdgeParams(problems[0].alpha, copies, length_km, fiber_speed_km_s, herald_probability)
    inside = [i for i, problem in enumerate(problems) if in_catalysis_window(problem)]
    batch = [problems[i] for i in inside]
    catalysts = {}  # (spectra, p_cats) of the in-window alphas, per dimension
    for dim in dims:
        if dim == 2:
            closed = [_two_qubit_closed_form(problem) for problem in batch]
            c0 = np.array([c0 for c0, _ in closed])
            spectra = np.column_stack((c0, 1.0 - c0))
            p_cats = [p_cat for _, p_cat in closed]
        else:
            found = search_catalysts(batch, dim)
            spectra = np.reshape([spec.spectrum.coefficients for spec in found], (-1, dim))
            p_cats = [spec.success_probability for spec in found]
        catalysts[dim] = (spectra, p_cats)
    return _rate_rows(problems, inside, catalysts, auxes, edge, n_edges)


# One format per row kind.  An out-of-window row prints its None cells with
# ``%.0s``, as nothing.
_CSV_ROW_OK = ",".join(["%.12g", "%s", "%d", "%.12g", "%.12g", "%.12g", "%d", "%.12g",
                        "%.12g", "%.12g", "%.12g", "%.12g", "%.12g", "%.12g", "%s"]) + "\n"
_CSV_ROW_OUT = ",".join(["%.12g", "%s", "%d", "%.12g", "%.0s", "%.0s", "%.0s", "%.0s",
                         "%.12g", "%.0s", "%.0s", "%.12g", "%.0s", "%.0s", "%s"]) + "\n"


def write_sweep_csv(rows: Sequence[SweepRow], stream) -> None:
    """Write sweep rows with the fixed header, floats to 12 significant digits.

    Each row is one ``%`` format of its kind: ``%.12g`` for a float, ``%d``
    for ``catalyst_dim`` and ``n_cat``, the mode and window words as they
    are, and empty catalyst cells out of window.  No cell needs CSV quoting.
    """
    stream.write(SWEEP_CSV_HEADER + "\n")
    for r in rows:
        stream.write((_CSV_ROW_OK if r.window_flag == WINDOW_OK else _CSV_ROW_OUT) % r)
