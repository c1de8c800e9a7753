"""The slot-level simulation engine, compiled on a run's first use.

Holds every stream a run reads (:func:`_streams`), the max-of-geometrics
sampler of the abstract simulator and ``validate-z``, and the detailed
simulator's block engine.  :mod:`entcat.simulate` imports this module inside
the public functions that run a simulation, so importing entcat (or building
the CLI's parser) does not compile it.

The slot-level model is computed from block draws, read by demand, with
no per-slot loop: one block engine reads every edge's streams and keeps
all edges' state in whole arrays, one row per edge.  An edge's run, from
one delivery to its next successful attempt, takes as many slots as it
takes load draws, unless an attempt waits for a catalyst.  Only finite aux
paths make an attempt wait, on an empty stock, and a success spends
nothing, so only a run that holds a failure, or the first run from an
empty initial stock, can wait.  Those runs alone are stepped against the
edge's stock by its three rules (:class:`_Stock`); a block of deliveries
with none of them settles at once.  Trials are independently seeded so
results are bit-identical however they are scheduled.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidInputError
from .network import FINITE_AUX, NO_AUX

if TYPE_CHECKING:
    from .simulate import SimConfig

# Trials per batch of the max-of-geometrics sampler, one stream each (_streams).
_BATCH_TRIALS = 8192
# Smallest success probability the sampler takes, where lam ~ 1e-10 and a
# count below 2**39 needs E < 2**39 * lam ~ 54.98.  The abstract simulator's
# exponentials never exceed 45 (numpy's ziggurat tail is r - log1p(-U), U < 1
# on a 2**-53 grid).  validate-z's largest exponential, inverted from the
# largest uniform 1 - 2**-53, is -log(-expm1(log1p(-2**-53) / N)) ~ 36.74 +
# ln N: 45.05 at N = 4096, and below 54.98 for N up to ~8.3e7.  There a
# batch of 8192 counts sums exactly in doubles; much below 1e-10 the counts
# themselves pass 2**53, where doubles no longer hold every integer.
_MIN_GEOMETRIC_P = 1e-10
# The 1 + eps of the tick rule (_ticks_through).
_TICK_SCALE = 1.0 + 1e-9
# A period within this relative distance of r slots, or of a slot over r, for
# a whole number r, may tick on the integer clock; the clock then equals the
# tick rule at every slot s with s b < _CLOCK_SPAN, where b is the path's
# periods per slot, r or 1 (_tick_clock).
_RATIO_TOL = 1e-12
_CLOCK_SPAN = (1.0 - 2.0 * _RATIO_TOL) / (_TICK_SCALE - 1.0 + 2.0 * _RATIO_TOL)


def _rng(*key: int) -> np.random.Generator:
    """``Philox(SeedSequence(key))``, one key at a time: what :func:`_streams` builds in bulk."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# numpy's SeedSequence (after O'Neill's seed_seq): a pool of four 32-bit
# words, two hashes that differ in their constants, and one mix.
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_WORDS = [[d for d in range(_POOL_WORDS) if d != s] for s in range(_POOL_WORDS)]
# Streams whose keys one pass derives; its arrays stay within 16 KiB each.
_KEY_CHUNK = 1 << 10


@functools.lru_cache(maxsize=None)
def _hash_constants(words: int):
    """SeedSequence's hash constants for ``words`` words of entropy, shaped (2, calls, 1).

    A hash xors a word with its constant, then multiplies the constant by a
    factor and the word by the product, so call i's pair is (c_i, c_{i+1}).
    """
    def chain(constant, factor, calls):
        pairs = []
        for _ in range(calls):
            pairs.append((constant, constant * factor & _MASK32))
            constant = pairs[-1][1]
        return np.array(pairs, np.uint32).T[:, :, None]

    extra = max(words - _POOL_WORDS, 0)
    return (chain(0x43B0D7E5, 0x931E8875, _POOL_WORDS * (_POOL_WORDS + extra)),
            chain(0x8B51F9DD, 0x58F38DED, _POOL_WORDS))


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``words`` by each (xor, multiplier) pair of ``constants``."""
    xor, multiplier = constants
    words = np.bitwise_xor(words, xor)
    words *= multiplier
    words ^= words >> 16
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    x = x * _MIX_LEFT
    x -= y * _MIX_RIGHT
    x ^= x >> 16
    return x


def _philox_keys(prefix: tuple, suffixes: np.ndarray) -> np.ndarray:
    """The 128-bit Philox key of each stream ``prefix + row`` of ``suffixes``, in one pass.

    Row i is ``SeedSequence(prefix + tuple(suffixes[i])).generate_state(2,
    np.uint64)``, worked for every row at once in numpy's steps on
    little-endian 32-bit words.  Suffix values must lie below 2**32, one
    word each; a prefix integer may take several.
    """
    head = []
    for value in prefix:
        head.append(value & _MASK32)
        while value := value >> 32:
            head.append(value & _MASK32)
    rows, width = suffixes.shape
    if rows and suffixes.max() > _MASK32:
        raise ValueError("a stream key's suffix values must lie below 2**32")
    count = len(head) + width
    words = np.zeros((max(count, _POOL_WORDS), rows), np.uint32)
    words[: len(head)] = np.array(head, np.uint32)[:, None]
    words[len(head) : count] = suffixes.T
    mixing, output = _hash_constants(count)
    pool = _hashmix(words[:_POOL_WORDS], mixing[:, :_POOL_WORDS])
    call = _POOL_WORDS
    for source, others in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[source], mixing[:, call : call + len(others)])
        pool[others] = _mix(pool[others], hashed)
        call += len(others)
    for word in words[_POOL_WORDS:count]:
        pool = _mix(pool, _hashmix(word, mixing[:, call : call + _POOL_WORDS]))
        call += _POOL_WORDS
    pool = _hashmix(pool, output)
    keys = pool[1::2].astype(np.uint64)
    keys <<= 32
    keys |= pool[::2]
    return keys.T


@functools.lru_cache(maxsize=None)
def _philox_key_type() -> type:
    """numpy's seeding interface over one precomputed Philox key, a class made on first use.

    Philox seeds itself with ``generate_state(2, np.uint64)``, the key; any
    other request raises rather than return words a SeedSequence would not.
    The class subclasses numpy's ``ISeedSequence``, so it is made when a run
    first needs it: importing entcat leaves numpy.random unimported.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.key

    return PhiloxKey


def _streams(seed: int, shape: tuple):
    """Yield ``_rng(seed, *index)`` for every index of ``shape``, in C order.

    Every stream of a run comes from here.  The abstract sampler's shape is
    (batches,): stream b draws batch b's trials.  A detailed run's is
    (trials, edges, 2 + aux paths): stream k of edge e in trial t draws the
    edge's loads (k = 0), its attempts (k = 1) or aux path k - 2's ticks.
    The keys of ``_KEY_CHUNK`` streams come from one :func:`_philox_keys`
    pass, and each stream is built only as it is taken, so a run holds one
    chunk of keys however many streams it takes.  A pass has a fixed cost
    of about 60 us of numpy calls, which a run of one stream pays too.
    """
    philox_key = _philox_key_type()
    total = math.prod(shape)
    for start in range(0, total, _KEY_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _KEY_CHUNK, total)), shape)
        for key in _philox_keys((seed,), np.stack(index, axis=1)):
            yield np.random.Generator(np.random.Philox(philox_key(key)))


class _MaxOfGeometrics:
    """``scale`` times the largest of N independent geometric(p) counts, per trial.

    A geometric(p) count is ``ceil(E / lam)`` with ``E ~ Exp(1)`` and
    ``lam = -log(1 - p)`` (Devroye, *Non-Uniform Random Variate Generation*,
    1986, X.2).  The map does not decrease in E, so a trial's largest count is
    the count of its largest exponential, and only that maximum is inverted.

    Iterating yields each batch of ``_BATCH_TRIALS`` trials as its size and
    its stream (:func:`_streams`).  The caller draws each trial's largest
    exponential from it, of all N or by inverting one uniform
    (``negated_largest``, with ``negated=True``), and passes them to ``add``.
    """

    def __init__(self, p: float, n_edges: int, trials: int, seed: int, scale: float = 1.0):
        if not _MIN_GEOMETRIC_P <= p <= 1.0:
            raise InvalidInputError(
                f"the geometric sampler needs p in [{_MIN_GEOMETRIC_P:g}, 1], got {p}"
            )
        # At p = 1, E / lam is 0 and every count is raised to 1.
        self.lam = math.inf if p == 1.0 else -math.log1p(-p)
        self.n_edges = n_edges
        self.trials = trials
        self.seed = seed
        self.scale = scale
        self.total = 0.0
        self.total_sq = 0.0

    def __iter__(self):
        rngs = _streams(self.seed, (-(-self.trials // _BATCH_TRIALS),))
        for done, rng in zip(range(0, self.trials, _BATCH_TRIALS), rngs):
            yield min(_BATCH_TRIALS, self.trials - done), rng

    def counts(self, draws: np.ndarray, negated: bool = False) -> np.ndarray:
        """The geometric counts of exponential ``draws``, written over them.

        ``negated`` takes the draws' negatives and divides them by ``-lam``,
        which gives the same bits: ``(-a) / b == a / (-b)`` in IEEE
        arithmetic.  A count is at least 1 even where a draw is exactly 0.0.
        """
        np.ceil(np.divide(draws, -self.lam if negated else self.lam, out=draws), out=draws)
        return np.maximum(draws, 1.0, out=draws)

    def negated_largest(self, uniforms: np.ndarray) -> np.ndarray:
        """The largest of N Exp(1) draws, one per uniform, negated and written over them.

        The largest of N uniforms is ``U**(1/N)`` (Devroye 1986, V), so the
        largest of N exponentials, whose law is ``(1 - exp(-x))**N``, is
        ``-log(-expm1(log(U) / N))``; this is that less its last negation,
        for ``counts(..., negated=True)``.  A uniform of exactly 0.0 gives
        0.0, and the caller ignores the divide-by-zero it raises in log.
        """
        np.log(uniforms, out=uniforms)
        np.divide(uniforms, self.n_edges, out=uniforms)
        np.negative(np.expm1(uniforms, out=uniforms), out=uniforms)
        return np.log(uniforms, out=uniforms)

    def add(self, largest: np.ndarray, negated: bool = False) -> None:
        """Add the trials whose largest exponentials are ``largest``, overwriting them.

        ``negated`` as in :meth:`counts`.  The sum of squares stays a square
        and a sum: near the floor p the squared counts are not all exact
        doubles, so a dot product would round them differently.
        """
        sample = self.counts(largest, negated)
        if self.scale != 1.0:
            np.multiply(sample, self.scale, out=sample)
        self.total += float(sample.sum())
        self.total_sq += float(np.square(sample, out=sample).sum())

    def mean_and_error(self):
        """The sample mean over every trial added, and its standard error."""
        mean = self.total / self.trials
        var = max(0.0, (self.total_sq - self.trials * mean * mean) / max(self.trials - 1, 1))
        return mean, math.sqrt(var / self.trials)



# Block and read sizes, and the memory bound they keep: see _trial's block-size comment.
_FIRST_BLOCK_LOADS = 1 << 10
_BLOCK_LOADS = 1 << 16
_STREAM_LOADS = 16
_DRAW_BLOCK = 1 << 11
# Pads each edge's row of entries past its last entry: no load ends there.
_NO_ENTRY = np.iinfo(np.int64).max


def _draws_for(successes: np.ndarray, p: float) -> np.ndarray:
    """The draws expected to hold each count of ``successes`` at ``p``, and a margin.

    The margin is three standard deviations and 16 draws; a caller short of it reads again.
    """
    spread = 3.0 * np.sqrt(successes * (1.0 - p))
    return np.minimum(np.ceil((successes + spread) / p) + 16, _BLOCK_LOADS).astype(np.int64)


def _success_bound(p: float) -> np.uint64:
    """The largest raw word of a draw that succeeds at ``p``, ``Generator.random() < p``.

    ``Generator.random`` makes each 64-bit word w of a stream the double
    ``(w >> 11) * 2**-53``, which lies below p exactly when w lies below
    ``ceil(p * 2**53) * 2**11``: one integer test per draw, with no double
    formed; at p = 1 it is the largest word.  Each draw takes one word, as a
    double would.
    """
    return np.uint64((math.ceil(p * 2.0**53) << 11) - 1)


def _completions(rng: np.random.Generator, p: float, n: int, limit: int, paths: int):
    """Yield the draw at each n-th, 2n-th, ... success of one stream, then infinity.

    Draws are counted from 1 and tested on raw words (:func:`_success_bound`);
    at most ``limit`` are taken, in pieces sized for one of a trial's
    ``paths`` aux paths (:func:`_trial`'s block-size comment), and once they
    run out the next completion never comes.
    """
    words, top = rng.bit_generator.random_raw, _success_bound(p)
    piece = max(1, min(_DRAW_BLOCK, _BLOCK_LOADS // paths))
    skip = n - 1  # the successes before the next completion
    for drawn in range(0, limit, piece):
        hits = (words(min(piece, limit - drawn)) <= top).nonzero()[0]
        found = hits.size
        hits += drawn + 1
        completions = hits[skip::n].tolist()
        del hits  # only the piece's completions are held while they are taken
        skip = (skip - found) % n
        yield from completions
    yield from itertools.repeat(math.inf)


def _ticks_through(period: float, t0: float, slot: int) -> int:
    """The ticks of a path of ``period`` applied by the end of ``slot``.

    The tick rule: tick k of a path (counted from 1) is applied in the first
    slot s with ``k T <= (s t0)(1 + eps)``, the slot stepper's own float
    test.  This function and its inverse :func:`_slot_of` are its one home;
    :func:`_tick_clock` gives their proven-equal integer form for a period
    of whole slots or a whole fraction of one.
    """
    bound = slot * t0 * _TICK_SCALE
    k = int(bound / period)  # the two loops correct any start from 0 up
    while k * period > bound:
        k -= 1
    while (k + 1) * period <= bound:
        k += 1
    return k


def _slot_of(period: float, t0: float, tick) -> float:
    """The slot that applies tick ``tick`` of a path of ``period`` (:func:`_ticks_through`)."""
    if tick == math.inf:
        return math.inf
    at = tick * period
    slot = math.ceil(at / (t0 * _TICK_SCALE))  # at least 1: ticks count from 1
    while slot > 1 and at <= (slot - 1) * t0 * _TICK_SCALE:
        slot -= 1
    while at > slot * t0 * _TICK_SCALE:
        slot += 1
    return slot


def _tick_clock(period: float, t0: float, max_slots: int) -> tuple:
    """The tick rule of a path of ``period`` through slot ``max_slots``: (ticks_through, slot_of).

    Each is a function of the slot or tick alone, equal to
    :func:`_ticks_through` or :func:`_slot_of` with ``period`` and ``t0``
    at every slot through ``max_slots``; a tick whose slot lies past it gets
    a slot past it from both.  A period of r whole slots ticks on the
    integer clock ``slot // r`` and ``tick * r``, and a slot of r whole
    periods on ``slot * r`` and ``ceil(tick / r)``.  Any other period, or a
    ``max_slots`` past the clock's reach, takes the two helpers themselves.

    The reach.  Write the period T = (a / b) t0 rho, with (a, b) = (r, 1) or
    (1, r); a ratio within _RATIO_TOL of r, on doubles of unit roundoff
    u = 2**-53, puts rho within delta = _RATIO_TOL + 3u of 1.  The integer
    clock applies tick k by slot s when k a <= s b, and the rule when
    fl(k T) <= fl(fl(s t0) sigma), sigma = fl(1 + 1e-9).  Where k a <= s b,
    fl(k T) <= s t0 (1 + delta)(1 + u), below s t0 sigma (1 - u)**2 at
    every s.  Where k a >= s b + 1, fl(k T) >= (s + 1 / b) t0 (1 - delta)
    (1 - u), above s t0 sigma (1 + u)**2 when
    s b (sigma - 1 + delta + 4u) < 1 - delta - u, which
    s b < _CLOCK_SPAN ensures, 2 _RATIO_TOL standing for delta + 4u.  So the
    reach, about 1e9 slots at b = 1, shrinks with the periods per slot.
    """
    ratio = period / t0
    if ratio >= 1.0:
        r = round(ratio)
        if abs(ratio - r) <= _RATIO_TOL * r and max_slots < _CLOCK_SPAN:
            return (lambda slot: slot // r), (lambda tick: tick * r)
    else:
        ratio = t0 / period
        r = round(ratio)
        if abs(ratio - r) <= _RATIO_TOL * r and max_slots * r < _CLOCK_SPAN:
            return (lambda slot: slot * r), (
                lambda tick: -(-tick // r) if tick != math.inf else tick)
    return functools.partial(_ticks_through, period, t0), functools.partial(_slot_of, period, t0)


class _Stock:
    """One edge's catalyst stock and the finite aux paths that refill it.

    ``rngs`` holds the paths' streams (:func:`_streams`) and ``clocks`` their
    tick rule (:func:`_tick_clock`).  A path draws one value per tick while
    the stock is below capacity, so its j-th catalyst completes at the draw
    of the (j c)-th success of its stream, which :func:`_completions` reads
    from the ticks ``max_slots`` holds.  Within a slot the paths tick in
    index order, so a completion that fills the stock stops the later
    paths' ticks in that slot.

    The stock's three rules, stated here once.  An attempt first applies
    every completion through its slot (:meth:`refill`).  On an empty stock
    it waits for the next completion, and the run stops if that lies past
    ``max_slots`` (the one wait, in :meth:`_Runs.walk`).  A failure spends
    one catalyst, and on a full stock first restarts the paths (:meth:`resume`).
    """

    __slots__ = ("capacity", "stock", "produced", "paths", "next")

    def __init__(self, cfg: SimConfig, rngs: list, copies_needed, clocks: tuple):
        self.capacity = math.inf if cfg.stock_capacity is None else cfg.stock_capacity
        self.stock = cfg.initial_stock
        self.produced = 0
        through, slot_of = clocks
        streams = [_completions(rng, path.gen_probability, copies, ticks(cfg.max_slots),
                                cfg.n_edges * len(through))
                   for path, copies, rng, ticks in zip(cfg.aux.paths, copies_needed, rngs, through)]
        draws = [next(stream) for stream in streams]
        slots = (
            [math.inf] * len(through) if self.stock >= self.capacity
            else [slot(draw) for slot, draw in zip(slot_of, draws)]
        )
        # One sequence per field, indexed by path: its clock's two functions,
        # the completion draws, the draw of the next completion, the ticks less
        # the draws while the path runs, the draws it had taken when the stock
        # filled, and the slot of its next completion, infinite while the
        # stock is full.
        self.paths = (through, slot_of, streams, draws, [0] * len(through), [0] * len(through),
                      slots)
        self.next = min(slots)  # the slot of the earliest completion

    def refill(self, slot: int) -> None:
        """Apply every completion through ``slot``; one that fills the stock pauses the paths."""
        through, slot_of, streams, draws, offsets, drawn, slots = self.paths
        stock, nxt = self.stock, self.next
        while nxt <= slot:
            j = slots.index(nxt)  # the first of the earliest: paths tick in index order
            stock += 1
            self.produced += 1
            filled = draws[j]
            draws[j] = next(streams[j])
            if stock < self.capacity:
                slots[j] = slot_of[j](draws[j] + offsets[j])
                nxt = min(slots)
                continue
            # Full: every path stops drawing, path j at this completion, the
            # paths before it after this slot's tick and those after it before.
            for p, ticks in enumerate(through):
                drawn[p] = filled if p == j else ticks(nxt if p < j else nxt - 1) - offsets[p]
                slots[p] = math.inf
            nxt = math.inf
        self.stock, self.next = stock, nxt

    def resume(self, slot: int) -> None:
        """Restart a full stock's paused paths from their first tick after ``slot``."""
        through, slot_of, _, draws, offsets, drawn, slots = self.paths
        for p, ticks in enumerate(through):
            offsets[p] = ticks(slot) - drawn[p]
            slots[p] = slot_of[p](draws[p] + offsets[p])
        self.next = min(slots)


def _shift(rows: np.ndarray, by: np.ndarray, width: int) -> np.ndarray:
    """Each row i of ``rows`` moved ``by[i]`` left, ``width`` wide and padded by its last."""
    index = by[:, None] + np.arange(width)
    np.minimum(index, rows.shape[1] - 1, out=index)
    index += (np.arange(len(rows)) * rows.shape[1])[:, None]
    return np.take(rows.reshape(-1), index)


def _windows(values: np.ndarray, width: int, step: int = 1) -> np.ndarray:
    """A view of 1-D ``values`` whose row s is ``values[s : s + step * width : step]``."""
    stride = values.strides[0]
    return np.ndarray((values.size - step * (width - 1), width), values.dtype, values, 0,
                      (stride, step * stride))


class _Runs:
    """Every edge's runs in one trial, read a block of deliveries at a time.

    A run is what an edge does between two deliveries: loads whose attempts
    fail, then one whose attempt succeeds.  Where its loads end (counted in
    load draws from 1) and how their attempts come out depend on its load
    and attempt streams only (:func:`entcat.simulate.simulate_detailed`);
    ``rngs`` yields every edge's streams in turn (:func:`_streams`).

    A load takes n successes of the load stream.  Without aux paths, one
    that starts from an empty stock takes n_cat more and turns them into a
    catalyst; the stock is empty there when the failures so far have spent
    the initial stock and the last attempt failed.

    Each edge is one row of two arrays: ``entries``, the load draws at which
    its unsettled entries end (a load of n successes, or one success where a
    load may rebuild), and ``wins``, the outcomes of the attempts it has
    read; attempt i is made on load i.  A count per row says how many values
    are real; past them ``entries`` holds values above every draw the edge
    has made and ``wins`` False, and the last column is always past them.

    Streams are read by demand, each read tested at once into bools, so no
    more than one edge's raw words are held; the rest is a fixed number of
    numpy calls on whole arrays, whatever the edge count.  A run that may
    wait for a catalyst is stepped (:meth:`walk`); every other run takes
    exactly its no-wait offset, the load draws from its start to its success.
    """

    def __init__(self, cfg: SimConfig, rngs, p_cat, copies):
        n_edges, per_edge = cfg.n_edges, 2 + len(cfg.aux.paths)
        streams = list(itertools.islice(rngs, n_edges * per_edge))
        self.load_words = [rng.bit_generator.random_raw for rng in streams[::per_edge]]
        self.attempt_words = [rng.bit_generator.random_raw for rng in streams[1::per_edge]]
        self.stocks = None
        if cfg.aux.mode == FINITE_AUX:
            # Each path's clock (_tick_clock), as a tuple of ticks_through
            # functions and one of slot_of functions, shared by every stock.
            clocks = tuple(zip(*(_tick_clock(path.gen_time_s, cfg.edge.cycle_time_s,
                                             cfg.max_slots) for path in cfg.aux.paths)))
            self.stocks = [_Stock(cfg, streams[start + 2 : start + per_edge], copies, clocks)
                           for start in range(0, len(streams), per_edge)]
        del streams  # each stream is held by its reader from here on
        self.limit = cfg.max_slots
        self.copies = cfg.edge.copies
        self.rebuild = copies[0] if cfg.aux.mode == NO_AUX else 0
        # A rebuild reads one success per entry; otherwise an entry is a load.
        self.per_entry = 1 if self.rebuild else self.copies
        self.p_load, self.p_cat = cfg.edge.herald_probability, p_cat
        self.load_top, self.attempt_top = _success_bound(self.p_load), _success_bound(p_cat)
        self.initial_stock = cfg.initial_stock
        counts = functools.partial(np.zeros, n_edges, np.int64)
        # Load draws made, and the successes the next read skips before the
        # first that ends an entry.
        self.drawn, self.skip = counts(), np.full(n_edges, self.per_entry - 1)
        self.entries, self.n_entries = np.full((n_edges, 1), _NO_ENTRY), counts()
        self.wins, self.n_attempts, self.n_wins = np.zeros((n_edges, 1), bool), counts(), counts()
        # Edges whose load stream cannot complete the load of an attempt read.
        self.done = np.zeros(n_edges, bool)
        # The failures among settled attempts, and whether the last failed,
        # so that a first load from an empty stock rebuilds.
        self.failures, self.last_failed = counts(), np.ones(n_edges, bool)
        # From the last pairing: _need() of the held attempts, the flattened
        # successes and each row's first, and each row's attempts with loads.
        self.need = self.won = self.first = self.loads = None
        # Settled load draws; settled loads, attempts, successes and rebuilt catalysts.
        self.used, self.totals = counts(), np.zeros((4, n_edges), np.int64)
        self.first_empty = self.stocks is not None and cfg.initial_stock < 1
        # Where the block's runs succeed in the flattened rows, and which come
        # after an edge's last success; with a stock, the successes' columns
        # and (draws used, attempt pending) of stepped runs the end cut.
        self.stops = self.past = self.columns = None
        self.stopped = {}

    def _row_starts(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Where each row of ``rows`` (``wins``), and one past the last, starts flattened."""
        rows = self.wins if rows is None else rows
        return np.arange(len(rows) + 1) * rows.shape[1]

    def _widen(self, name: str, width: int, pad) -> None:
        """Make array ``name`` at least ``width`` columns wide, its new columns ``pad``."""
        rows = getattr(self, name)
        if width > rows.shape[1]:
            wider = np.full((len(rows), width), pad, rows.dtype)
            wider[:, : rows.shape[1]] = rows
            setattr(self, name, wider)

    def _need(self):
        """The entries through each held attempt's load and whether it rebuilds, per row.

        None where a load is one entry.  Past a row's attempts the entries
        only grow and mean nothing.
        """
        if not self.rebuild:
            return None
        failed = ~self.wins
        before = np.cumsum(failed, axis=1)  # the failures before each load
        before -= failed
        before += self.failures[:, None]
        rebuilt = before >= self.initial_stock
        del before  # freed before the need is formed
        rebuilt[:, 1:] &= failed[:, :-1]
        rebuilt[:, 0] &= self.last_failed
        need = rebuilt * self.rebuild
        need += self.copies
        np.cumsum(need, axis=1, out=need)
        return need, rebuilt

    def _entries_of(self, loads: np.ndarray) -> np.ndarray:
        """The entries each row's first ``loads`` loads take."""
        if self.need is None:
            return loads
        last = self._row_starts()[:-1] + np.maximum(loads - 1, 0)
        return np.where(loads > 0, np.take(self.need[0].reshape(-1), last), 0)

    def block(self, count: int):
        """The first ``count`` runs of every edge: where each succeeds, and which step.

        Both are (edge, run) arrays: the load draw at which each run succeeds
        (or ends, :meth:`settle`), and, with a stock, whether each run steps
        (None without one).
        """
        least = self.copies if self.rebuild else 1
        if self.rebuild and self.need is None:  # settled since the last pairing
            self.need = self._need()
        paired = False
        while True:
            spare = self.n_entries - self._entries_of(self.n_attempts)
            short = (self.n_wins < count) & ~self.done
            short &= (self.drawn < self.limit) | (spare >= least)  # spent: while it holds a load
            read = short.nonzero()[0]
            if paired and not read.size:
                return self._ends(count)
            if read.size:
                self._read_attempts(read, count - self.n_wins[read])
            self._pair(count)
            paired = True

    def _read_attempts(self, read: np.ndarray, short: np.ndarray) -> None:
        """Read the attempt values of edges ``read`` expected to hold ``short`` more successes."""
        start = self.n_attempts[read]
        stop = start + _draws_for(short, self.p_cat)
        self._widen("wins", int(stop.max()) + 1, False)
        base = read * self.wins.shape[1]
        flat, top, words = self.wins.reshape(-1), self.attempt_top, self.attempt_words
        for e, a, b in zip(read.tolist(), (base + start).tolist(), (base + stop).tolist()):
            np.less_equal(words[e](b - a), top, out=flat[a:b])
        self.n_attempts[read] = stop

    def _pair(self, count: int) -> None:
        """Read the loads a block of ``count`` runs needs, pair them, and find the successes.

        An edge needs the loads of its attempts through its ``count``-th
        success, or of all it holds; later attempts wait, unpaired, for the
        next block.  An attempt a spent stream leaves without a load is never
        made, and that edge completes no more loads.
        """
        self.need = self._need()
        self._find_wins()
        attempts, held, starts = self.n_attempts, self.n_entries, self._row_starts()[:-1]
        through = attempts
        if (self.n_wins >= count).any():
            last = np.take(self.won, np.minimum(self.first[:-1] + count - 1, self.won.size - 1))
            through = np.where(self.n_wins >= count, last - starts + 1, attempts)
        want = self._entries_of(through)
        if (lack := ((held < want) & (self.drawn < self.limit)).nonzero()[0]).size:
            self.won = None  # freed while the loads are read
        while lack.size:
            self._read_loads(lack, want[lack] - held[lack])
            lack = ((held < want) & (self.drawn < self.limit)).nonzero()[0]
        if self.need is None:
            loads = np.minimum(held, through)
        else:
            loads = np.minimum(np.count_nonzero(self.need[0] <= held[:, None], axis=1), through)
        if (over := loads < through).any():
            self.wins[over] &= np.arange(self.wins.shape[1]) < loads[over, None]
            attempts[over] = loads[over]
            self.done |= over
        if over.any() or self.won is None:  # the successes moved, or were freed
            self._find_wins()
        self.loads = loads

    def _find_wins(self) -> None:
        """Where the held successes lie in the flattened wins, each row's first, and their count."""
        self.won = self.wins.reshape(-1).nonzero()[0]
        self.first = np.searchsorted(self.won, self._row_starts())
        self.n_wins = self.first[1:] - self.first[:-1]

    def _read_loads(self, lack: np.ndarray, missing: np.ndarray) -> None:
        """Read the load values of edges ``lack`` expected to end ``missing`` more entries.

        An entry ends at every n-th success of an edge's stream, counted over
        all its reads; no edge uses more values than there are slots, so each
        reads at most ``max_slots``.  The reads are tested into one array, and
        each edge's row is one window of every n-th success in it, placed
        after the entries it holds.  Successes of no edge pad the array so
        that every window lies within it: in front, for the held entries'
        columns, which keep their values, and after, for the widest row.  A
        window that runs past its edge's successes reads later ones, above
        every draw the edge has made.
        """
        n, drawn, held = self.per_entry, self.drawn[lack], self.n_entries[lack]
        sizes = np.minimum(_draws_for(missing * n, self.p_load), self.limit - drawn)
        everyone = lack.size == len(self.entries)
        floor = 0 if everyone else self.entries.shape[1]
        widest = max(floor, int((held + sizes // n).max()) + 2)
        bounds = np.empty(lack.size + 1, np.int64)
        bounds[0] = n * int(held.max())
        np.cumsum(sizes, out=bounds[1:])
        bounds[1:] += bounds[0]
        draws = np.empty(int(bounds[-1]) + n * widest, bool)
        draws[: bounds[0]] = draws[bounds[-1] :] = True
        top, words = self.load_top, self.load_words
        for e, a, b in zip(lack.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            np.less_equal(words[e](b - a), top, out=draws[a:b])
        hits = draws.nonzero()[0]
        del draws
        first = np.searchsorted(hits, bounds)  # each edge's first success in hits
        found = first[1:] - first[:-1]
        skip = self.skip[lack]
        self.skip[lack] = (skip - found) % n
        self.drawn[lack] += sizes
        ended = (found - skip + n - 1) // n
        width = max(floor, int((held + ended).max()) + 1)
        rows = _windows(hits, width, n)[first[:-1] + skip - n * held]
        rows += (drawn + 1 - bounds[:-1])[:, None]  # the edge's own draw count, from 1
        old = self.entries if everyone else self.entries[lack]
        kept = int(held.max())
        np.copyto(rows[:, :kept], old[:, :kept], where=np.arange(kept) < held[:, None])
        if everyone:
            self.entries = rows
        else:
            self._widen("entries", width, _NO_ENTRY)
            self.entries[lack] = rows
        self.n_entries[lack] += ended

    def _ends(self, count: int):
        """:meth:`block`'s arrays, from the successes of the last pairing.

        Each edge's run stops are one window of the flattened successes; a
        window that runs past the edge's successes belongs to runs past its
        last success.
        """
        won, self.won = self.won, None  # freed once the stops are read
        if self.first[-2] + count > won.size:  # the last row's window runs past the end
            won = np.concatenate((won, np.zeros(count, np.int64)))
        self.stops = stops = _windows(won, count)[self.first[:-1]]
        del won
        # Each success's load, flattened in entries: the same column without a
        # rebuild, and the entry that ends it with one.
        at, shift = stops, self._row_starts(self.entries)[:-1] - self._row_starts()[:-1]
        if self.need is not None:
            at = np.take(self.need[0].reshape(-1), stops)
            shift += self._row_starts()[:-1] - 1
        if shift.any():
            at = at + shift[:, None]
        ends = np.take(self.entries.reshape(-1), at, mode="clip")
        self.past = None
        if self.n_wins.min() < count:
            self.past = np.arange(count) >= self.n_wins[:, None]
            ends[self.past] = self.limit + 1
        if self.stocks is None:
            return ends, None
        columns = stops - self._row_starts()[:-1, None]
        if self.past is not None:
            # A run with no success ends past every load read.
            np.copyto(columns, self.loads[:, None], where=self.past)
        steps = np.empty(ends.shape, bool)
        np.greater(columns[:, 0], 0, out=steps[:, 0])
        np.greater(columns[:, 1:] - columns[:, :-1], 1, out=steps[:, 1:])
        steps[:, 0] |= self.first_empty
        self.columns = columns
        return ends, steps

    def walk(self, steps: np.ndarray, gaps: np.ndarray, slot: int) -> None:
        """Correct in place the gaps of a block whose runs in ``steps`` step.

        ``gaps`` holds each delivery's largest no-wait offset, which a stepped
        run can only lengthen.  The stepped (delivery, edge) pairs are walked
        in order from ``slot`` until a delivery starts at or past the end.  A
        stepped run loads from the slot after its delivery's start, fixed at
        its first stepped pair; a wait found on one edge shifts only later
        deliveries.  One numpy pass gathers the load ends of the stepped runs
        whose delivery may start before the end (a run whose load stream ran
        out ends at a load past every slot) and each run's no-wait base, the
        slot before its first load less the draws loaded by then.  A load
        ending at draw ``end`` is attempted in slot ``base + end`` by the
        stock's three rules (:class:`_Stock`); a wait moves ``base`` on.  A
        run the end cuts leaves its counts in ``stopped`` (:meth:`settle`).
        """
        limit = self.limit
        starts = slot + np.cumsum(gaps) - gaps  # without the waits, which only add
        delivery, edge = np.nonzero(steps.T)
        taken = np.searchsorted(delivery, np.searchsorted(starts, limit))
        delivery, edge = delivery[:taken], edge[:taken]
        last = self.columns[edge, delivery]
        first = np.where(delivery > 0, self.columns[edge, delivery - 1] + 1, 0)
        sizes = last - first + 1
        bounds = np.zeros(taken + 1, np.int64)
        np.cumsum(sizes, out=bounds[1:])
        rows = np.repeat(edge, sizes)
        at = np.arange(bounds[-1]) - np.repeat(bounds[:-1] - first, sizes)  # each load's column
        ends = np.where(at < self.loads[rows], self.entries[rows, at], _NO_ENTRY)
        del rows, at
        begins = starts[delivery]
        bases = begins - np.where(first > 0, self.entries[edge, first - 1], self.used[edge])
        stocks = self.stocks
        ends, bounds = ends.tolist(), bounds.tolist()
        added = 0
        current = -1
        for k, e, a, b, nowait, begin, gap in zip(
                delivery.tolist(), edge.tolist(), bounds, bounds[1:], bases.tolist(),
                begins.tolist(), gaps[delivery].tolist()):
            if k != current:
                current, shift, longest = k, added, gap
                start = begin + shift
                if start >= limit:
                    break
            stock, base, final = stocks[e], nowait + shift, ends[b - 1]
            for end in ends[a:b]:
                ready = base + end
                if ready > limit:
                    ready, self.stopped[e] = limit + 1, (limit - base, False)
                    break
                if stock.next <= ready:  # most loads find no completion due: skip the call
                    stock.refill(ready)
                if stock.stock < 1:  # the empty-stock wait
                    if stock.next > limit:
                        ready, self.stopped[e] = limit + 1, (end, True)
                        break
                    ready = stock.next
                    stock.refill(ready)
                if end == final:  # its attempt succeeds
                    break
                if stock.stock >= stock.capacity:  # it fails, on a full stock
                    stock.resume(ready)
                stock.stock -= 1
                base = ready - end
            if ready > start + longest:
                added += ready - start - longest
                longest = gaps[k] = ready - start

    def settle(self, used: np.ndarray, runs: int, cut: bool) -> None:
        """Count and drop each edge's loads through its first ``runs`` runs of the block.

        The one home of the end-of-trial accounting.  ``used`` holds each
        edge's load draws so far.  Deliveries settle until their running sum
        passes ``max_slots``; a run whose load stream runs out, or that the
        end cuts, ends at ``max_slots + 1``, past every slot.  In the run the
        end ``cut``, an edge not stepped has used ``min(offset, slots left)``
        draws and a stepped one those in ``stopped``, with whether a load
        still waits for its attempt.  The counters cover exactly those draws:
        their completed loads, all but such a last one attempted.
        :meth:`tally` then applies every aux completion through the end, as
        an attempt in its last slot would.  After a cut nothing is read
        again, so nothing is dropped.
        """
        starts = self._row_starts()[:-1]
        loads = self.stops[:, runs - 1] - starts + 1 if runs else np.zeros_like(starts)
        tried, successes = loads, runs
        if cut:
            pending = np.zeros_like(loads)
            for e, (draws, waits) in self.stopped.items():
                used[e], pending[e] = draws, waits
            # The cut run's loads lie between the last whole run's and its
            # success, or the last attempt held after an edge's last success.
            end = self.stops[:, runs] - starts + 1
            if self.past is not None:
                end = np.where(self.past[:, runs], self.loads, end)
            window = loads[:, None] + np.arange(max(int((end - loads).max()), 0))
            inside = window < end[:, None]
            window = np.minimum(window, self.wins.shape[1] - 1)
            if self.need is not None:  # the entry that ends each load
                window = np.take(self.need[0].reshape(-1), window + starts[:, None]) - 1
            window += self._row_starts(self.entries)[:-1, None]
            inside &= np.take(self.entries.reshape(-1), window, mode="clip") <= used[:, None]
            loads = loads + np.count_nonzero(inside, axis=1)
            tried = loads - pending
            finished = tried == end  # the cut run's success is attempted
            if self.past is not None:
                finished &= ~self.past[:, runs]
            successes = runs + finished
        for total, count in zip(self.totals, (loads, tried, successes)):
            total += count
        if self.need is not None:
            column = np.arange(self.wins.shape[1])
            self.totals[3] += np.count_nonzero(self.need[1] & (column < loads[:, None]), axis=1)
        self.used, self.stops = used, None
        if cut:
            return
        dropped = self._entries_of(loads)
        if self.need is not None:
            # Each edge's last settled attempt succeeded.
            self.failures += loads - runs
            self.last_failed[:] = False
        self.n_attempts -= loads
        self.n_entries -= dropped
        self.n_wins -= runs
        self.wins = _shift(self.wins, loads, int(self.n_attempts.max()) + 1)
        self.entries = _shift(self.entries, dropped, int(self.n_entries.max()) + 1)
        self.need = self.won = None
        self.first_empty = False

    def tally(self, counters: list) -> None:
        """Add each edge's settled events to its counters."""
        produced = self.totals[3]
        if self.stocks is not None:
            for stock in self.stocks:
                stock.refill(self.limit)
            produced = produced + [stock.produced for stock in self.stocks]
        for ctr, *run in zip(counters, self.used.tolist(), *self.totals[:3].tolist(),
                             produced.tolist()):
            ctr.add_run(*run)


def _trial(cfg: SimConfig, rngs, p_cat, copies, counters, intervals):
    """One replication of a chain; returns the delivery count.

    ``rngs`` yields the trial's streams (:func:`_streams`).  The k-th
    delivery comes in the slot where the last edge finishes its k-th run,
    counted from the slot of the (k-1)-th.  Where no run in a block of
    deliveries steps, each delivery's interval is the largest offset over
    the edges and the block settles with no Python per delivery; otherwise
    the block is walked (:meth:`_Runs.walk`).  The trial ends as
    :meth:`_Runs.settle` says.
    """
    limit = cfg.max_slots
    runs = _Runs(cfg, rngs, p_cat, copies)
    slot = 0
    deliveries = 0
    # Block sizes, and the one home of the memory bound.  A first block of
    # about _FIRST_BLOCK_LOADS loads per edge whatever p_cat is, then blocks
    # sized from the delivery rate so far, all within `cap`.  No stream read
    # makes more than _BLOCK_LOADS draws, and no block reads more than about
    # `loads` loads over all its edges or holds more than _BLOCK_LOADS // 4
    # deliveries, each with a few values of its own, so its arrays stay
    # within about 4 MiB whatever max_slots and the success probabilities
    # are.  The trial's streams count against it: each Philox object takes
    # about the bytes of _STREAM_LOADS loads, up to half the bound, which a
    # thousand edges' streams reach.  An aux path reads its ticks in pieces
    # and holds a piece's completions as Python ints, about half a load's
    # bytes each, until the stock takes them: the trial's N * paths pieces
    # together span at most _BLOCK_LOADS draws, and each at most _DRAW_BLOCK
    # (_completions), so they hold at most about that half of the bound
    # again, and P / c of it for paths of success probability P that take c
    # successes per catalyst.  A block whose runs may step also holds its
    # stepped runs' loads, and a few values per stepped run, as Python ints
    # while it is walked (_Runs.walk), several times their bytes in arrays.
    # Where most runs step, as at p_cat = 0.3, that nears the bound at half
    # the loads, so such a block reads a quarter.  Every run takes at least
    # n loading slots, so no block needs more deliveries than max_slots // n
    # and the one the end cuts.
    block = max(1, int(_FIRST_BLOCK_LOADS * p_cat))
    streams = cfg.n_edges * (2 + len(cfg.aux.paths))
    loads = _BLOCK_LOADS - min(_STREAM_LOADS * streams, _BLOCK_LOADS // 2)
    cap = max(1, min(int((loads if runs.stocks is None else loads // 4) * p_cat / cfg.n_edges),
                     _BLOCK_LOADS // 4, limit // cfg.edge.copies + 1))
    while True:
        block = min(block, cap)
        ends, steps = runs.block(block)
        offsets = np.empty_like(ends)  # np.diff with used prepended, less its copy of ends
        np.subtract(ends[:, 1:], ends[:, :-1], out=offsets[:, 1:])
        np.subtract(ends[:, 0], runs.used, out=offsets[:, 0])
        gaps = offsets.max(axis=0)
        if steps is not None and steps.any():
            runs.walk(steps, gaps, slot)
        elapsed = slot + np.cumsum(gaps)
        settled = int(np.searchsorted(elapsed, limit, side="right"))
        intervals.append(gaps[:settled] * cfg.edge.cycle_time_s)
        deliveries += settled
        cut = settled < block
        used = runs.used
        if settled:
            used = ends[:, settled - 1].copy()
            slot = int(elapsed[settled - 1])
        if cut:
            used = used + np.minimum(offsets[:, settled], limit - slot)
        runs.settle(used, settled, cut)
        if cut:
            runs.tally(counters)
            return deliveries
        del ends, offsets, steps  # freed before the next block reads
        # The slots left hold about `left` deliveries at the mean interval so
        # far; the next block reads 3 sigma (of their sum and of the mean) and
        # 16 more, so that it is rarely short and reads little past the end.
        mean = slot / deliveries
        left = (limit - slot) / mean
        spread = float(gaps.std()) / mean * math.sqrt(left + left * left / deliveries)
        block = math.ceil(left + 3.0 * spread) + 16
