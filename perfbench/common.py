"""Shared pieces of the benchmark: requests, the span tracer, and the exact
oracles that check answers without going through the code under test."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from time import perf_counter

import numpy as np


class OracleError(AssertionError):
    """A request returned an answer its independent oracle rejects."""


def check(cond, what):
    if not cond:
        raise OracleError(what)


class Request:
    """One closed-loop request: ``run(tracer)`` makes the library calls and
    raises when the answer is wrong.  ``counts`` holds work sizes computed
    from the inputs (e.g. matrix cells), added to the trace when it runs.
    ``slot`` is the request's place in the round's fixed list of kinds, the
    same in every round whatever order the round runs in."""

    __slots__ = ("kind", "run", "counts", "slot")

    def __init__(self, kind, run, counts=None):
        self.kind = kind
        self.run = run
        self.counts = counts or {}
        self.slot = None


def shuffled(rng, reqs):
    """Number the requests by slot, then shuffle them."""
    for i, req in enumerate(reqs):
        req.slot = i
    rng.shuffle(reqs)
    return reqs


class Tracer:
    """Spans around the benchmark's own calls into projdyn's modules.

    A span is (name, start, end, request id), named ``<module>.<function>``;
    its parent is the request span (request id, kind, start, end).  Spans and
    counters stay in memory until the run ends.  A disabled tracer calls
    straight through.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.requests = []
        self.counters = {}
        self.warmup_counters = {}
        self.request_id = 0

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter(), self.request_id))

    def count(self, name, n=1):
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def counted(self, fn, name):
        """``fn`` wrapped to count its calls under ``name`` (traced runs only)."""
        if not self.enabled:
            return fn

        def wrapper(*args):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args)

        return wrapper


class HostSpeed:
    """The host's current speed, from a short probe that does not use projdyn.

    On a shared host the CPU runs about 1.5x slower for seconds at a time,
    which moves a run's wall-clock figures by 20% and more.  The probe (exact
    fractions, a dict, small numpy arrays: the kinds of work projdyn does)
    runs at most every ``STALE_S`` seconds, outside every request's timer.
    ``normalize`` scales a wall time by ``REFERENCE_S`` over the mean probe
    time around it: the time the request takes on a host where the probe
    takes ``REFERENCE_S``, its median on the 2-vCPU Xeon of the baseline.
    """

    REFERENCE_S = 0.0007
    STALE_S = 0.1

    def __init__(self):
        self.value = self.probe()
        self.at = perf_counter()

    def current(self):
        if perf_counter() - self.at > self.STALE_S:
            self.value = self.probe()
            self.at = perf_counter()
        return self.value

    def normalize(self, seconds, before, after):
        return seconds * self.REFERENCE_S / (0.5 * (before + after))

    @staticmethod
    def probe():
        """Best of two passes of a fixed ~0.7 ms computation."""
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            x, table = Fraction(0), {}
            for i in range(1, 120):
                x += Fraction(i, i + 1)
                table[i, i + 1] = x
            a = np.arange(6.0)
            for _ in range(40):
                a = a * 0.5 + np.sqrt(a)
            best = min(best, perf_counter() - start)
        return best


# ---------------------------------------------------------------------------
# closed-form oracles

def hook_lengths(rows):
    cols = [sum(1 for r in rows if r > c) for c in range(rows[0])]
    return [rows[i] - j + cols[j] - i - 1 for i in range(len(rows)) for j in range(rows[i])]


def hook_product(rows):
    """Product of hook lengths: the Young scalar n!/f^lambda."""
    return math.prod(hook_lengths(rows))


def hook_content_dim(rows, dim):
    """Dimension of the Schur module of shape ``rows`` over a dim-space."""
    num = math.prod(dim + j - i for i in range(len(rows)) for j in range(rows[i]))
    out = Fraction(num, hook_product(rows))
    check(out.denominator == 1, "hook-content formula is not integral")
    return int(out)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def conjugate(rows):
    return tuple(sum(1 for r in rows if r > c) for c in range(rows[0]))


def group_algebra_sizes(rows):
    """(|row group|, |column group|) of a shape."""
    return (math.prod(math.factorial(r) for r in rows),
            math.prod(math.factorial(c) for c in conjugate(rows)))


# ---------------------------------------------------------------------------
# small exact linear algebra used only by the oracles

def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det(m):
    """Exact determinant by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


_P = (1 << 61) - 1


def rank_mod_p(rows):
    """Rank over GF(p) after clearing denominators (p = 2^61 - 1)."""
    mat = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        mat.append([int(Fraction(x) * lcm) % _P for x in row])
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        p = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[rank], mat[p] = mat[p], mat[rank]
        inv = pow(mat[rank][c], _P - 2, _P)
        mat[rank] = [x * inv % _P for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % _P for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def proportional(a, b):
    """True iff the flattened rationals a and b satisfy a = c * b with c != 0."""
    ratio = None
    for x, y in zip(a, b):
        x, y = Fraction(x), Fraction(y)
        if (x == 0) != (y == 0):
            return False
        if y:
            r = x / y
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


def flat(m):
    return [x for row in m for x in row]


def compound(b, k):
    """k-th compound matrix of a square matrix: k x k minors, lexicographic."""
    n = len(b)
    subsets = list(itertools.combinations(range(n), k))
    return [[det([[b[i][j] for j in cols] for i in rows]) for cols in subsets] for rows in subsets]


def random_symmetric(rng, d, lo=-2, hi=2, boost=None):
    """Seeded symmetric integer matrix; ``boost`` adds to the diagonal."""
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            g[i][j] = g[j][i] = rng.randint(lo, hi)
        if boost:
            g[i][i] = boost + abs(g[i][i])
    return g


def corank_one_symmetric(rng, d, signs=(1,)):
    """Seeded P^T diag(a_1, ..., a_{d-1}, 0) P with P unit upper triangular:
    symmetric of rank d-1, semidefinite when every sign is +1."""
    P = [[(1 if i == j else rng.randint(-1, 1)) if j >= i else 0 for j in range(d)] for i in range(d)]
    D = [[rng.randint(1, 3) * rng.choice(signs) if i == j < d - 1 else 0 for j in range(d)] for i in range(d)]
    return mat_mul(mat_mul([list(r) for r in zip(*P)], D), P)


def random_invertible(rng, d, lo=-2, hi=2, boost=4):
    """Seeded diagonally dominant (hence invertible) integer matrix."""
    m = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        m[i][i] = boost * d + rng.randint(0, 2)
    return m
