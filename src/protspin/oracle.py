"""Direct numerical propagation of the two-level Schrodinger equation.

This module is the ground truth the closed forms are checked against.  It
shares no algebra with them: from the package it imports only public names
of core, which tests/test_import_graph.py asserts.  Each time step applies an
exact 2x2 unitary exp(+i c.sigma) whose exponent c approximates the step's
evolution under (omega0T/2) [sigma_z + xi gT(s) (n.sigma)].  The default is
the two-Gauss-point Magnus rule (fourth order in the step size; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), whose commutator term on
su(2) is a cross product, so a step costs about as much as an exponential
midpoint step (second order), which compare.crosscheck runs.  Both are
exactly unitary at every step.

Every step and every product of steps is an SU(2) matrix, stored as its
Cayley-Klein pair (alpha, beta) with U = [[alpha, beta], [-conj(beta),
conj(alpha)]].  A step's pair needs cos|c| and sin|c|/|c|.  On a chunk whose
largest |c|^2 is at most 1/16 (as on the fine refinements, where nearly all
steps are) they are Taylor series in |c|^2, cut where the first omitted term
is below 2**-64, so the step costs a few multiplies and no sine or cosine; a
chunk with larger steps takes np.sin and np.cos.  Each chunk of at most
_CHUNK steps, and then the chunk factors, are multiplied by pairwise
reduction at four complex multiplies per product, and each reduced product
is rescaled by sqrt(|alpha|^2 + |beta|^2) to hold it on SU(2).

A nominal step count is shared among the segments by their shares of the
summed omega0T.  Steps are equal within a segment, except on a tabulated
profile: there every knot is a step edge and each knot interval is split
into equal steps, its share of the step count rounded up.  The coupling is
then linear across every step, so the fourth order holds through the kinks
of the interpolant, and a knot interval narrower than a step is still
sampled.  The adaptive rule doubles the step count, from 2**8 Magnus steps
or 2**14 midpoint steps, until successive refinements agree within
ADAPTIVE_TOLERANCE; the error of the finer result is then about their
difference over 15 for the fourth-order rule and over 3 for the midpoint
rule.

Each profile kind is evaluated on the steps one way.  A built-in profile
takes coupling_grid on each uniform part, which, from _GRID_TABLE_MIN steps
on, combines two tables of about sqrt(steps) cosines by angle addition
instead of taking a cosine per step.  A tabulated profile interpolates its
knots once over a pass, on a uniform grid or a knot-aligned one.

All steps of a constant segment are equal, so a run computes one and
reduces copies of it: one full chunk, whose factor stands for every full
chunk, and a shorter last chunk.  The reduction still multiplies every copy,
so the product has the bits of one built from steps computed one by one.
The Hamiltonian is then static and the stepping exact at any step count, so
adaptive propagation of a schedule whose segments are all constant takes one
step per segment.  Such a schedule, and one given a fixed step count that
comes to one step per segment, is computed in scalar arithmetic (math and
Python complex): on so few steps numpy's fixed cost per call would be most
of the time.  crosscheck always runs the midpoint doubling from 2**14, which
is the check that static stepping is exact at every step count.

Some runs take place whatever the stop test says: propagate's first pair
(2**8 and 2**9 Magnus steps) and crosscheck's three order runs (2**10 to
2**12 midpoint steps), from which it estimates the midpoint rule's order.
On a single-segment schedule with a driven profile each is one chunk on a
uniform grid, so they are stepped together: one pass of the step kernel over
their concatenated steps and one of the reduction.  Each run keeps its own
couplings, overflow check, cos and sinc pass and normalization, so every
result has the bits of the runs made one by one.  A run that comes to one
factor, as every run of such a pass does, is finished in scalar arithmetic.

What such a pass of parts all below _GRID_TABLE_MIN steps needs of the
profile alone, its step widths and its couplings before the factor xi, is
kept on the profile (CouplingProfile._grid_memo), filled on first use and
keyed by the part sizes and the coupling offsets.  Only such passes are
kept, so the memo is bounded whatever the geometries: in adaptive use it
holds propagate's first pair alone (crosscheck's order runs are longer),
and otherwise a fixed steps of 2**k below _GRID_TABLE_MIN on a
single-segment schedule; a multi-segment schedule keeps nothing.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .core import (
    TWO_PI, CouplingProfile, HamiltonianSchedule, MeasurementGeometry, ProfileKind, Segment, SpinState,
)

# First step count of the adaptive doubling, by order of the rule: 4 for
# propagate's Magnus steps, 2 for crosscheck's midpoint steps.
START_STEPS = {2: 2 ** 14, 4: 2 ** 8}
MAX_ADAPTIVE_STEPS = 2 ** 22
ADAPTIVE_TOLERANCE = 1e-10
# Steps per chunk: the float arrays of one chunk (128 KiB each) stay in a
# core's L2 cache; chunks of 2**16 steps and more ran crosscheck about 1.6x
# slower.  128 KiB is also glibc's default mmap threshold, so until a process
# frees a larger block each such array is mapped afresh: a 2**17-step
# midpoint run then takes about 2300 minor faults and 2.5 ms, against none
# and 1.2 ms after an 8 MB array has been freed (2-CPU AMD EPYC).
_CHUNK = 2 ** 14
# sqrt(3)/6: the distance of the two Gauss-Legendre nodes from the step
# midpoint, in steps, and the weight of the Magnus commutator term.
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# Taylor coefficients of cos(x) and sin(x)/x in p = x^2.  With n terms the
# first omitted term is below 2**-64, far under an ulp of the sums (which lie
# near 1), for every p below _SERIES_REACH[n - 1]; seven terms reach past
# p = 1/16.
_SERIES_MAX_P = 1.0 / 16.0
_COS_SERIES = tuple((-1) ** k / math.factorial(2 * k) for k in range(7))
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(7))
_SERIES_REACH = tuple((math.factorial(2 * n) * 2.0 ** -64) ** (1.0 / n) for n in range(1, 8))
# The cos and sinc coefficients of p**k as a (2, 1) column, which broadcasts
# over the cos and sinc rows of an output.
_SERIES_COLUMNS = np.array([_COS_SERIES, _SINC_SERIES]).T[:, :, np.newaxis]
# Below this many points coupling_grid takes one cosine per point: the fixed
# cost of building and combining two tables exceeds the cosines it saves.
_GRID_TABLE_MIN = 1024


class ConvergenceError(RuntimeError):
    """Adaptive step doubling hit the cap without meeting the tolerance."""


def _compose(
    alpha: np.ndarray, beta: np.ndarray, sizes: list[int] | None = None,
) -> list[tuple[complex, complex]]:
    """Time-ordered products of Cayley-Klein factors, element 0 applied first.

    Factor k is U_k = [[alpha_k, beta_k], [-conj(beta_k), conj(alpha_k)]].
    Pairwise reduction: U_2 U_1 has alpha = a2 a1 - b2 conj(b1) and
    beta = a2 b1 + b2 conj(a1), four complex multiplies per product.
    Without sizes all factors make one product; with sizes, consecutive
    parts of those lengths, powers of two in ascending order, make one each.
    Their levels are reduced in the same numpy calls, and a part is taken off
    the front once it is reduced to one factor.  Returns a pair per part.
    """
    products = []
    levels = 0
    for size in [alpha.size] if sizes is None else sizes:
        # a part of `size` factors is one factor after ceil(log2(size)) levels
        for _ in range((size - 1).bit_length() - levels):
            m = alpha.size // 2
            a1, a2 = alpha[0:2 * m:2], alpha[1:2 * m:2]
            b1, b2 = beta[0:2 * m:2], beta[1:2 * m:2]
            # Each product goes to a fresh array: numpy's complex multiply
            # written in place onto an operand can move the last bits.  Sums
            # are exact either way, so they accumulate in place.
            head_a = a2 * a1
            head_a -= b2 * np.conjugate(b1)
            head_b = a2 * b1
            head_b += b2 * np.conjugate(a1)
            if alpha.size % 2:
                # only a lone part has an odd length
                head_a = np.append(head_a, alpha[-1])
                head_b = np.append(head_b, beta[-1])
            alpha, beta = head_a, head_b
        levels = (size - 1).bit_length()
        # The form is closed under products, so the only drift from SU(2) is
        # in det U = |a|^2 + |b|^2.  Determinants multiply, so one rescale of
        # the root removes the drift of every level below it.
        products.append(_rescaled(complex(alpha[0]), complex(beta[0])))
        alpha, beta = alpha[1:], beta[1:]
    return products


def _rescaled(a: complex, b: complex) -> tuple[complex, complex]:
    """The Cayley-Klein pair (a, b) divided by sqrt(|a|^2 + |b|^2), so that det U = 1."""
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a / norm, b / norm


def _step_edges(edges: np.ndarray, counts: np.ndarray, start: int, stop: int):
    """Left edges and widths of steps start..stop-1 of a knot-aligned grid (see _grids)."""
    j = np.arange(start, stop, dtype=float)
    # the intervals lo..hi-1 hold the chunk, `taken` of its steps each; step
    # j of interval i starts at edges[i] + (j - first[i]) w[i]
    first = np.cumsum(counts) - counts
    lo = np.searchsorted(first, start, side="right") - 1
    hi = np.searchsorted(first, stop)
    taken = np.minimum(first[lo:hi] + counts[lo:hi], stop) - np.maximum(first[lo:hi], start)
    w = np.diff(edges[lo:hi + 1]) / counts[lo:hi]
    width = np.repeat(w, taken)
    left = np.repeat(edges[lo:hi] - first[lo:hi] * w, taken)
    j *= width
    left += j
    return left, width


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _per_step(values: list[float], sizes: list[int]):
    """values[i] for each of the sizes[i] steps of part i; a lone part's value as a float."""
    return values[0] if len(values) == 1 else np.repeat(values, sizes)


def _cos_sinc_series(p: np.ndarray, p_max: float, out: np.ndarray) -> None:
    """cos(x) and sin(x)/x at x = sqrt(p) into the two rows of out.

    p_max, the largest value of p, is at most _SERIES_MAX_P.  Both are
    Taylor series in p, summed by Horner's rule on both rows at once, to the
    fewest terms whose first omitted term at p_max is below 2**-64.
    """
    terms = bisect.bisect_right(_SERIES_REACH, p_max) + 1
    if terms == 1:
        out.fill(1.0)
        return
    np.multiply(p, _SERIES_COLUMNS[terms - 1], out=out)
    for k in range(terms - 2, -1, -1):
        out += _SERIES_COLUMNS[k]
        if k:
            out *= p


def _cos_sinc(p: np.ndarray, p_max: list[float], ends: list[int]) -> np.ndarray:
    """cos|c| and sin|c|/|c| at |c|^2 = p, as the rows of one (2, m) array.

    Part i of p runs up to ends[i] and has largest value p_max[i].  Each part
    is computed on its own: one with p_max <= _SERIES_MAX_P takes the series,
    any other np.sqrt, np.sin and np.cos.
    """
    row = np.empty((2, p.size))
    for lo, hi, top in zip([0, *ends], ends, p_max):
        if top <= _SERIES_MAX_P:
            _cos_sinc_series(p[lo:hi], top, row[:, lo:hi])
        else:
            phi = np.sqrt(p[lo:hi])
            np.cos(phi, out=row[0, lo:hi])
            # sin(phi)/phi; phi = 0 only where c = 0, so the guard leaves it exact
            np.divide(np.sin(phi), np.where(phi > 0.0, phi, 1.0), out=row[1, lo:hi])
    return row


def _overflow(geom: MeasurementGeometry) -> ValueError:
    return ValueError(f"oracle step overflows at xi={geom.xi!r}, omega0T={geom.omega0T!r}")


def coupling_grid(profile: CouplingProfile, n: int, start: int, stop: int, offset: float) -> np.ndarray:
    """core.coupling_eval on the uniform grid s_j = (j + offset)/n, j = start..stop-1.

    For a built-in profile and 0 <= offset <= 1, so every s_j lies in [0, 1].
    The cosine shapes need cos u_j, u_j = 2 pi (s_j - 1/2), with s_j formed
    as j/n + offset/n.  From _GRID_TABLE_MIN points on, cos u_j comes by
    angle addition from two tables of about B = sqrt(stop - start) entries:
    with j = start + q B + r and d = 2 pi/n,

        cos(u + r d) = cos u - (cos u (1 - cos r d) + sin u sin r d),

    where u runs over the angles at every B-th point and
    1 - cos r d = 2 sin^2(r d/2).  The bracket is small, so its rounding
    hardly reaches the sum, and the values stay within about 1e-15 of
    coupling_eval's.  The optimized shape 1 + (4/3) cos u + (1/3) cos 2u is
    (2/3)(1 + cos u)^2, so it needs no second cosine.
    """
    m = stop - start
    if profile.kind is ProfileKind.CONSTANT:
        return np.ones(m)
    width = 1.0 / n
    inner = 1 if m < _GRID_TABLE_MIN else math.isqrt(m - 1) + 1
    u = np.arange(start, stop, inner, dtype=float)
    u *= width
    u += offset * width
    u -= 0.5
    u *= TWO_PI
    c = np.cos(u)
    if inner > 1:
        # the bracket cos u (1 - cos r d) + sin u sin r d, as one matrix product
        rows = np.empty((u.size, 2))
        rows[:, 0] = c
        np.sin(u, out=rows[:, 1])
        r = np.arange(inner) * (TWO_PI * width)
        cols = np.empty((2, inner))
        np.sin(0.5 * r, out=cols[0])
        cols[0] *= cols[0]
        cols[0] *= 2.0
        np.sin(r, out=cols[1])
        c = np.subtract(c[:, None], rows @ cols)
    g = c.ravel()[:m]
    g += 1.0
    if profile.kind is ProfileKind.OPTIMIZED:
        g *= g
        g *= 2.0 / 3.0
    return g


def _couplings(profile: CouplingProfile, parts: list[tuple], sizes: list[int], offsets: tuple) -> tuple:
    """Step widths, and couplings gT before xi at left + offset width, of the steps of parts.

    parts are as in _steps.  The widths are a float for a lone uniform part
    and one per step otherwise; the couplings are one fresh array per offset.
    A built-in profile takes coupling_grid part by part.  A tabulated profile
    takes one np.interp on its knots over the whole pass, which is
    coupling_eval inside (0, 1), where every sample lies.
    """
    (edges, counts), start, stop = parts[0]
    if edges is not None:
        # a knot-aligned grid, in a part of its own
        left, width = _step_edges(edges, counts, start, stop)
    else:
        width = _per_step([1.0 / grid[1] for grid, _, _ in parts], sizes)
        if profile.kind is not ProfileKind.TABULATED:
            return width, [
                _joined([coupling_grid(profile, grid[1], start, stop, offset) for grid, start, stop in parts])
                for offset in offsets
            ]
        left = _joined([np.arange(start, stop, dtype=float) for _, start, stop in parts])
        left *= width
    return width, [np.interp(left + offset * width, *profile._knots) for offset in offsets]


def _memoized_couplings(
    profile: CouplingProfile, parts: list[tuple], sizes: list[int], offsets: tuple,
) -> tuple:
    """_couplings, kept in profile._grid_memo under the part sizes and the offsets, as read-only arrays."""
    key = (tuple(sizes), offsets)
    entry = profile._grid_memo.get(key)
    if entry is None:
        width, couplings = _couplings(profile, parts, sizes, offsets)
        for array in (width, *couplings):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        entry = profile._grid_memo[key] = (width, tuple(couplings))
    return entry


def _steps(
    seg: Segment, parts: list[tuple], order: int, memoized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pairs of the steps of each part (grid, start, stop), concatenated.

    Part (grid, start, stop) is steps start..stop-1 of a grid of the
    segment (see _grids).  Several parts must be whole uniform grids
    (None, n) in ascending n; they go through every array operation
    together, with the step width and half below as per-step arrays.

    Step j is exp(+i c_j.sigma).  With half = (omega0T/2) times the step
    width, the midpoint rule (order 2) takes c = half (e_z + g n) at the
    step midpoint.  The two-Gauss-point Magnus rule (order 4) takes
    c = half (e_z + gbar n) - (sqrt(3)/6) half^2 (g1 - g2) (e_z x n), with g1
    and g2 the couplings at the Gauss points and gbar their mean; on su(2)
    its commutator term is this cross product.  A constant profile makes
    the two rules equal, so it takes the one-point form.  Then alpha =
    cos|c| + i c_z sin|c|/|c| and beta = (c_y + i c_x) sin|c|/|c|.

    The widths and the couplings before xi come from _couplings, or, if
    memoized, from the profile's memo (_memoized_couplings), filled on
    first use; the product with xi then goes to a fresh array, which has the
    bits of the product in place.  If every step of a part has
    p = |c|^2 <= 1/16, cos|c| and sin|c|/|c| are their Taylor series in p,
    cut where the first omitted term at the part's largest p is below
    2**-64 (at most 7 terms), so no step needs a sine or cosine.  A part
    with a larger step takes np.sqrt, np.sin and np.cos.
    """
    geom = seg.geom
    profile = seg.profile
    sizes = [stop - start for _, start, stop in parts]
    ends = list(itertools.accumulate(sizes))
    one_point = order == 2 or profile.kind is ProfileKind.CONSTANT
    offsets = (0.5,) if one_point else (0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET)

    sin_g = math.sin(geom.gamma)
    nx = sin_g * math.cos(geom.eta)
    ny = sin_g * math.sin(geom.eta)
    nz = math.cos(geom.gamma)

    # At a huge xi the exponents overflow; a part's p_max is then inf or
    # NaN, and the step is refused instead of propagating NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        if memoized:
            width, couplings = _memoized_couplings(profile, parts, sizes, offsets)
            couplings = [g * geom.xi for g in couplings]
        else:
            width, couplings = _couplings(profile, parts, sizes, offsets)
            for g in couplings:
                g *= geom.xi
        half = 0.5 * geom.omega0T * width
        if one_point:
            [g] = couplings
            cx = (half * nx) * g
            cy = (half * ny) * g
        else:
            g1, g2 = couplings
            g = 0.5 * (g1 + g2)
            w = (_GAUSS_OFFSET * half * half) * (g2 - g1)
            cx = (half * nx) * g - ny * w
            cy = (half * ny) * g + nx * w
        cz = g * nz
        cz += 1.0
        cz *= half
        p = cx * cx
        p += cy * cy
        p += cz * cz
        p_max = np.maximum.reduceat(p, [0, *ends[:-1]]).tolist()
    if not all(map(math.isfinite, p_max)):
        raise _overflow(geom)
    row = _cos_sinc(p, p_max, ends)
    alpha = np.empty(ends[-1], dtype=complex)
    beta = np.empty(ends[-1], dtype=complex)
    cos, t = row[0], row[1]
    alpha.real = cos
    np.multiply(cz, t, out=alpha.imag)
    np.multiply(cy, t, out=beta.real)
    np.multiply(cx, t, out=beta.imag)
    return alpha, beta


def _grids(schedule: HamiltonianSchedule, steps: int) -> list[tuple]:
    """Step grid of each segment for a nominal total of steps.

    Segment k is due n = max(1, round(steps * share)) steps, its share being
    its omega0T over the schedule's summed omega0T.  The budgets are divided
    by the largest before they are summed, so the sum cannot overflow; if
    all are 0 the segments share the steps equally.  On a tabulated profile
    the segment's grid is a pair (edges, counts) of arrays: knot interval i
    runs from edges[i] to edges[i + 1] and holds counts[i] = ceil(n h) equal
    steps, h its width, so the coupling is linear across every step and no
    interval, however narrow, falls between sample points.
    On a built-in profile it is (None, n): n equal steps over [0, 1]; so it
    is on a tabulated one whose knot intervals come out with equal steps.
    """
    budgets = [seg.geom.omega0T for seg in schedule.segments]
    top = max(budgets)
    ratios = [b / top for b in budgets] if top > 0.0 else [1.0] * len(budgets)
    total = math.fsum(ratios)
    grids = []
    for seg, ratio in zip(schedule.segments, ratios):
        n = max(1, round(steps * (ratio / total)))
        if seg.profile.kind is not ProfileKind.TABULATED:
            grids.append((None, n))
            continue
        edges = seg.profile._knots[0]
        h = seg.profile._panels.width
        counts = np.ceil(n * h).astype(np.int64)
        width = h / counts
        if width.max() - width.min() <= 1e-12 * width.min():
            # equally spaced knots: equal steps already have an edge on each
            grids.append((None, int(counts.sum())))
        else:
            grids.append((edges, counts))
    return grids


def _refine(grids: list[tuple]) -> list[tuple]:
    """The grids with every step halved."""
    return [(edges, 2 * counts) for edges, counts in grids]


def _run(schedule: HamiltonianSchedule, psi: np.ndarray, grids: list[tuple], order: int) -> np.ndarray:
    """Apply steps of the given order on grids[k] to segment k of the schedule, to psi."""
    return _runs(schedule, psi, [grids], order)[0]


def _runs(
    schedule: HamiltonianSchedule, psi: np.ndarray, grid_lists: list[list[tuple]], order: int,
) -> list[np.ndarray]:
    """_run on each list of grids, with the runs that fit one chunk stepped together.

    Each chunk of at most _CHUNK steps reduces to one factor, and the chunk
    factors then reduce through the same kernel, in the order applied.  All
    steps of a constant segment are equal, so its first step alone goes
    through _steps.  Copies of it fill one full chunk, which is reduced once
    and its factor listed for each full chunk, and a shorter last chunk,
    reduced on its own.  _compose still multiplies every copy, so the factor
    list, hence the product, has the bits of one with every step computed
    and every chunk reduced.

    On a single-segment schedule whose profile is not constant, the runs on
    a uniform grid of a power-of-two step count of at most _CHUNK are one
    chunk each.  They go through one _steps and one _compose pass as parts
    in ascending length, which gives each the bits of its own pass.  If
    every part is below _GRID_TABLE_MIN steps, the pass takes its widths and
    couplings from the profile's memo (_memoized_couplings): in adaptive use it is
    propagate's first pair alone, and otherwise a fixed steps of 2**k below
    _GRID_TABLE_MIN.  Those are the only keys, so the memo stays bounded.

    A run of one factor, as every such run is, is finished in scalar
    arithmetic: _compose of a lone factor only rescales it once more, and
    Python complex arithmetic has the bits of numpy's on complex128 scalars.
    """
    factors = [[] for _ in grid_lists]
    seg = schedule.segments[0]
    if len(schedule.segments) == 1 and seg.profile.kind is not ProfileKind.CONSTANT:
        batch = sorted(
            (counts, i) for i, [(edges, counts)] in enumerate(grid_lists)
            if edges is None and counts <= _CHUNK and counts & (counts - 1) == 0
        )
        if batch:
            parts = [((None, n), 0, n) for n, _ in batch]
            memoized = batch[-1][0] < _GRID_TABLE_MIN
            pairs = _compose(*_steps(seg, parts, order, memoized), [n for n, _ in batch])
            for (_, i), pair in zip(batch, pairs):
                factors[i].append(pair)
    for grids, run_factors in zip(grid_lists, factors):
        if run_factors:
            continue
        for seg, grid in zip(schedule.segments, grids):
            edges, counts = grid
            total = counts if edges is None else int(counts.sum())
            if seg.profile.kind is ProfileKind.CONSTANT:
                [a], [b] = _steps(seg, [(grid, 0, 1)], order)
                full, rest = divmod(total, _CHUNK)
                if full:
                    run_factors += _compose(np.full(_CHUNK, a), np.full(_CHUNK, b)) * full
                if rest:
                    run_factors += _compose(np.full(rest, a), np.full(rest, b))
                continue
            for start in range(0, total, _CHUNK):
                run_factors += _compose(*_steps(seg, [(grid, start, min(start + _CHUNK, total))], order))
    p0, p1 = complex(psi[0]), complex(psi[1])
    finals = []
    for run_factors in factors:
        if len(run_factors) == 1:
            a, b = _rescaled(*run_factors[0])
        else:
            [(a, b)] = _compose(*(np.array(column) for column in zip(*run_factors)))
        finals.append(np.array([a * p0 + b * p1, -b.conjugate() * p0 + a.conjugate() * p1]))
    return finals


def _run_static(schedule: HamiltonianSchedule, psi0: SpinState) -> SpinState:
    """One exact step per segment of an all-constant schedule, in scalar arithmetic.

    The same step as _run on grids [(None, 1)] * len(segments): on a
    constant profile _steps takes c = (omega0T/2) (e_z + xi n) over the
    whole segment.  The pairs are multiplied in the order applied, as
    _compose's U_2 U_1, and the product is rescaled once to SU(2).  For a
    one-step schedule numpy's fixed cost per call is most of the work, so
    this path builds no array.
    """
    a, b = 1.0 + 0.0j, 0.0j
    for seg in schedule.segments:
        geom = seg.geom
        half = 0.5 * geom.omega0T
        sin_g = math.sin(geom.gamma)
        cx = (half * (sin_g * math.cos(geom.eta))) * geom.xi
        cy = (half * (sin_g * math.sin(geom.eta))) * geom.xi
        cz = half * (1.0 + geom.xi * math.cos(geom.gamma))
        phi = math.sqrt(cx * cx + cy * cy + cz * cz)
        if not math.isfinite(phi):
            raise _overflow(geom)
        t = math.sin(phi) / (phi if phi > 0.0 else 1.0)
        step_a = complex(math.cos(phi), cz * t)
        step_b = complex(cy * t, cx * t)
        a, b = step_a * a - step_b * b.conjugate(), step_a * b + step_b * a.conjugate()
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    a, b = a / norm, b / norm
    return SpinState(
        a * psi0.c_plus + b * psi0.c_minus, -b.conjugate() * psi0.c_plus + a.conjugate() * psi0.c_minus,
    )


def _propagate_adaptive(
    schedule: HamiltonianSchedule, psi: np.ndarray, order: int,
) -> tuple[np.ndarray, int]:
    steps = START_STEPS[order]
    grids = _grids(schedule, steps)
    # The first refinement runs whatever the stop test says, so it is
    # stepped in one pass with the first run.
    first = [grids, _refine(grids)] if steps < MAX_ADAPTIVE_STEPS else [grids]
    previous, *ahead = _runs(schedule, psi, first, order)
    while steps < MAX_ADAPTIVE_STEPS:
        steps *= 2
        grids = _refine(grids)
        current = ahead.pop() if ahead else _run(schedule, psi, grids, order)
        if np.max(np.abs(current - previous)) < ADAPTIVE_TOLERANCE:
            return current, steps
        previous = current
    raise ConvergenceError(
        f"no convergence to {ADAPTIVE_TOLERANCE} within {MAX_ADAPTIVE_STEPS} steps"
    )


def propagate(schedule: HamiltonianSchedule, psi0: SpinState, steps: int | None = None) -> SpinState:
    """Propagate psi0 through the schedule.

    Parameters
    ----------
    schedule : HamiltonianSchedule
    psi0 : SpinState
        Must be normalized within 1e-10.
    steps : int or None
        Fixed count of two-Gauss-point Magnus steps, allocated across
        segments by their shares of the summed omega0T, which are their
        shares of the time; on a tabulated profile each knot interval
        rounds its share up to whole steps.  None selects the adaptive
        rule.  If every segment has a constant profile the Hamiltonian is
        piecewise static and each segment takes one exact step, in scalar
        arithmetic; so does a fixed count that gives each such segment one
        step.  Otherwise the step count doubles from 2**8, halving every
        step, until two successive refinements agree within 1e-10, capped at
        MAX_ADAPTIVE_STEPS (ConvergenceError beyond it).  The error of the
        returned state is then about that last difference over 15.  A step
        whose exponent overflows (xi near 1e300 and beyond) raises
        ValueError naming xi and omega0T.

    Returns
    -------
    SpinState
    """
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError(f"initial state must be normalized, |psi| = {psi0.norm()!r}")
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        grids = _grids(schedule, int(steps))
    if all(seg.profile.kind is ProfileKind.CONSTANT for seg in schedule.segments) and (
        steps is None or all(counts == 1 for _, counts in grids)
    ):
        return _run_static(schedule, psi0)
    psi = psi0.as_array()
    if steps is not None:
        final = _run(schedule, psi, grids, 4)
    else:
        final, _ = _propagate_adaptive(schedule, psi, 4)
    return SpinState(complex(final[0]), complex(final[1]))


def _midpoint_check(schedule: HamiltonianSchedule) -> tuple[SpinState, int, float | None]:
    """|+> by the adaptive midpoint rule, the steps taken and the rule's order (see compare.crosscheck)."""
    psi = SpinState.plus().as_array()
    final, steps_used = _propagate_adaptive(schedule, psi, 2)
    order = None
    if schedule.segments[0].profile.kind is not ProfileKind.CONSTANT:
        # static Hamiltonians are integrated exactly, leaving only round-off
        grids = [_grids(schedule, 2 ** 10)]
        for _ in range(2):
            grids.append(_refine(grids[-1]))
        coarse = _runs(schedule, psi, grids, 2)
        d1 = float(np.max(np.abs(coarse[0] - coarse[1])))
        d2 = float(np.max(np.abs(coarse[1] - coarse[2])))
        if d1 > 1e-13 and d2 > 1e-13:
            order = math.log2(d1 / d2)
    return SpinState(complex(final[0]), complex(final[1])), steps_used, order
