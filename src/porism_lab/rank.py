"""The certified rank filter: the rank test sigma_min > 1e-12 sigma_max of a
3 x k matrix, k = 3 (a conic) or 4 (a circumconic's incidence system),
decided as the SVD decides it, and the largest condition number of a stack.

Both twins decide their rank tests here: ``rank_test`` for one matrix and
``rank_test_batch`` for a stack, in the manner of Shewchuk's static filters
(*Discrete Comput. Geom.* 18, 1997).  Each returns the 3x3 minors it
decided from, the same Laplace expansions in both twins: ``rank_test``
forms them with ``_laplace``, an arithmetic-only core that runs on exact
numbers too, and ``rank_test_batch`` gathers them over a block of matrices
at a time in its own loop (``_filter``), the faster one for arrays.  The
circumconic's null vector is taken from them by ``null_vector``, so only
this module knows the order of the minors.

The filter has two tiers, each decided by one core for both twins.  The
determinant tier (``_certified_full``) certifies full rank from |det| and
the Frobenius norm alone, which need only the 2x2 minors of rows 0 and 1;
only a matrix it leaves open forms the other 2x2 minors, the second
compound, for the full filter (``_rank_decision``), and then, if still
open, the SVD.  A stack whose largest condition number is asked for
(``rank_test_batch`` with ``condition``) is decided on the same path, and
besides forms the norm P of every matrix's 2x2 minors from the tier's own
(``_compound_norm``): with the tier's norms F and D it gives every matrix
a condition estimate (``_condition_estimate``), so that the largest
condition number needs the SVD only of the matrices that can hold it.
The norms never leave this module.

It imports only ``math``, ``itertools`` and numpy: ``geom`` and ``conics``
import from it, never the reverse.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Scale-free degeneracy threshold of the whole package (see the module tests
# of ``geom`` for the rationale: comparisons are made after max-entry or
# longest-side normalization), here that of sigma_min / sigma_max.
DEGENERACY_EPS = 1e-12


def singular_values_batch(a: np.ndarray) -> np.ndarray:
    """One stacked SVD over a (n, k, l) stack.  A row holding a non-finite
    entry (such as a sample outside the rows of a partial stage) gets NaN
    instead of failing the whole stack."""
    ok = np.isfinite(a).all(axis=(1, 2))
    sv = np.full((a.shape[0], min(a.shape[1:])), np.nan)
    if ok.any():
        sv[ok] = np.linalg.svd(a[ok], compute_uv=False)
    return sv


_U = 2.0 ** -53  # unit roundoff of float64
# Relative margin of the filter's decisions: it covers the SVD's own error,
# |computed - exact| <= p u sigma_max with p up to about 100 (a relative
# 100 u / 1e-12 = 1.1% at the threshold), and the relative rounding of the
# norms and products below (a few dozen u).
_RANK_MARGIN = 1.0 / 32
# Products of three entries of a matrix of Frobenius norm <= 2^100 neither
# overflow nor lose more than _UNDERFLOW to underflow, all terms together.
# Below 2^-100 the squares summed into D can underflow to zero for a
# well-conditioned matrix (2^-180 I), so the filter leaves such rows open.
_FILTER_MAX_NORM = 2.0 ** 100
_UNDERFLOW = 2.0 ** -900
_SQRT3 = math.sqrt(3.0)


def _minor_index(k: int):
    """Index arrays into the entries of a 3 x k matrix, flattened row by
    row: the products a[r, i] a[s, j] and a[r, j] a[s, i] of every 2x2 minor
    (rows r < s, columns i < j; those of rows 0, 1 first), and for every 3x3
    minor (columns i < j < l) its row-2 entries and the positions of the
    row-(0, 1) minors of columns (j, l), (i, l), (i, j)."""
    pairs = list(itertools.combinations(range(k), 2))
    products = [(r * k + i, s * k + j, r * k + j, s * k + i)
                for r, s in ((0, 1), (0, 2), (1, 2)) for i, j in pairs]
    triples = list(itertools.combinations(range(k), 3))
    pos = [(pairs.index((j, l)), pairs.index((i, l)), pairs.index((i, j))) for i, j, l in triples]
    return np.array(products).T, 2 * k + np.array(triples), np.array(pos)


_MINOR_INDEX = {k: _minor_index(k) for k in (3, 4)}


# Entries per 2x2-minor temporary of one pass of the filter, which splits a
# long stack into passes over as many columns, so that its temporaries stay
# small: about 0.7 KB per column of a 3x4 stack, 0.6 MB per pass at most.
# A pass costs about 85 us besides its columns (Xeon, Python 3.11, numpy
# 2.4), so 2^13 would add nine passes to a 720-sample verify; one pass per
# stack made the verify about 10% slower.
_FILTER_ENTRIES = 2 ** 14

# Most columns per block of the column-blocked kernels (the condition
# estimate here, ``geom.canonicalize_batch``), whose temporaries take about
# 0.15 KB per column: at 2^11 a 720-sample verify's canonical forms took
# about 30% longer (a block costs about 150 us besides its columns on a
# Xeon, Python 3.11, numpy 2.4), and 2^12 or 2^13 made no difference to a
# verify's time.
_COLUMN_BLOCK = 2 ** 12


def _blocks(n: int, most: int) -> list[tuple[int, int]]:
    """The (start, stop) of the fewest blocks of at most ``most`` of n
    columns, as equal in size as they can be: a short last block would
    cost a block's overhead, a long one its temporaries."""
    count = -(-n // most)
    return [(n * b // count, n * (b + 1) // count) for b in range(count)]


def rank_test_batch(k: int, n: int, entries, condition: bool = False) -> tuple:
    """The rank test sigma_min > 1e-12 sigma_max of every matrix of a stack
    of n 3 x k matrices, k = 3 or 4, decided as ``singular_values_batch``
    decides it, and the minors it is decided from.  The entries are made a
    block at a time, never all at once: ``entries(cols)`` gives the
    entry-major (3k, m) entries of the m matrices ``cols``, a slice or an
    index array, whose row e holds entry e of every matrix, entries
    numbered row by row.  A slice is one pass of the filter (``_blocks``:
    at most ``_FILTER_ENTRIES`` entries per 2x2-minor temporary); an index
    array, the candidates of ``_max_condition``.

    Returns the sign of sigma_min - 1e-12 sigma_max (int8, 0 for a matrix
    with a non-finite entry); the (1, n) determinants, or for k = 4 the
    (4, n) minors of columns (012, 013, 023, 123), each its Laplace
    expansion along row 2; and with ``condition`` the largest
    sigma_max / sigma_min of the stack (``_max_condition``), else None, as
    for an empty stack.  Each pass's results are written into them as it
    ends; then one SVD decides the matrices that no pass decided.

    A certified filter brackets sigma_3 / sigma_1 within a factor of 3:
    sigma_1 sigma_2 sigma_3 is the norm D of the 3x3 minors (the determinant,
    or Cauchy-Binet for k = 4), sigma_1 sigma_2 lies in [P/sqrt 3, P] for the
    norm P of the 2x2 minors (the second compound), and sigma_1 in
    [F/sqrt 3, F] for the Frobenius norm F, so that the ratio lies in
    [D/(P F), 3 D/(P F)].  D and P are widened by rounding bounds on the
    minors, as in Shewchuk's static filters: 3 u (|p| + |q|) per 2x2 minor
    p - q and 6 u of the absolute Laplace terms per 3x3 minor.  The SVD runs
    only on the rows that the widened bracket, with ``_RANK_MARGIN``, leaves
    undecided (``_rank_decision``): a ratio within about [1e-12/3, 3e-12],
    minors that cancel to their rounding bound (nearly rank 1), F outside
    [2^-100, 2^100] (``_FILTER_MAX_NORM``), or a non-finite entry.

    Each pass runs the determinant tier first (``_filter`` with ``tier``):
    it forms only the row-(0, 1) 2x2 minors that the 3x3 minors are
    expanded from, and certifies full rank where ``_certified_full`` does.
    Only the columns it leaves open, non-finite ones among them, go on to
    the full filter, and those the filter leaves open to the SVD.  With
    ``condition`` the pass also forms the other 2x2 minors of every column,
    but no rounding bound of them, for the norm P that the condition
    estimate reads with the tier's F and D (``_compound_norm``).  The
    decisions take one path, so the signs and minors are the same bits
    either way.  ``rank_test`` is the scalar twin."""
    norms = np.empty((3, n)) if condition else None
    sign, minors3 = _passes(k, n, entries, norms)
    return sign, minors3, _max_condition(k, norms, entries) if condition and n else None


def _passes(k: int, n: int, entries, norms: np.ndarray | None) -> tuple:
    """The signs and minors of ``rank_test_batch``, pass by pass, and then
    the SVD of the matrices no pass decided.  Every pass takes the
    determinant tier first, and only the columns it leaves open go on to
    the full filter; with ``norms`` the tier's pass also writes every
    column's (F, P, D) into them, P from the tier's own row-(0, 1) minors
    (``_compound_norm``)."""
    sign = np.empty(n, np.int8)
    minors3 = np.empty((len(_MINOR_INDEX[k][1]), n))
    open_at, open_entries = [], []
    for i, j in _blocks(n, _FILTER_ENTRIES // _MINOR_INDEX[k][0].shape[1]):
        x = entries(slice(i, j))
        full, minors2, minors3[:, i:j], F, D = _filter(x, k, tier=True)
        if norms is not None:
            norms[:, i:j] = F, _compound_norm(x, k, minors2), D
        sign[i:j] = full
        if full.all():
            continue
        cols, x = i + np.flatnonzero(~full), x[:, ~full]
        full, deficient = _filter(x, k)
        sign[cols] = full.astype(np.int8) - deficient
        undecided = ~(full | deficient)
        if undecided.any():
            open_at.append(cols[undecided])
            open_entries.append(x[:, undecided])
    if open_at:
        sv = singular_values_batch(np.concatenate(open_entries, axis=1).T.reshape(-1, 3, k))
        sign[np.concatenate(open_at)] = ((sv[:, -1] > DEGENERACY_EPS * sv[:, 0]).astype(np.int8)
                                         - (sv[:, -1] < DEGENERACY_EPS * sv[:, 0]))
    return sign, minors3


def _products(x: np.ndarray, products: np.ndarray) -> tuple:
    """The products p = a[r, i] a[s, j] and q = a[r, j] a[s, i] of the 2x2
    minors p - q at the entry positions ``products`` (columns of
    ``_MINOR_INDEX``'s first array) of every column of ``x``.  Gathered by
    np.take, of a contiguous x, a few times faster here than indexing with
    an array, and multiplied in place."""
    p = np.take(x, products[0], axis=0)
    p *= np.take(x, products[1], axis=0)
    q = np.take(x, products[2], axis=0)
    q *= np.take(x, products[3], axis=0)
    return p, q


def _filter(x: np.ndarray, k: int, tier: bool = False) -> tuple:
    """The full filter of ``rank_test_batch`` on the columns of ``x``: its
    full-rank and rank-deficient decisions (``_rank_decision``).  With
    ``tier`` it is the determinant tier of ``rank_test_batch``: it forms
    only the row-(0, 1) 2x2 minors (the first third of ``_MINOR_INDEX``'s
    products), which the 3x3 minors are expanded from, and no rounding
    bound of P, and returns its full-rank decisions (``_certified_full``;
    it decides rank deficiency nowhere), those 2x2 minors, the 3x3 minors
    and the norms F and D."""
    products, row2, pos = _MINOR_INDEX[k]
    if tier:
        products = products[:, :products.shape[1] // 3]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are left open
        # Absolute values in place, each temporary dropped once used: fresh
        # temporaries take about half the time at n = 720, and the peak
        # memory of a stack of several systems per sample grows with each
        # one kept.
        p, q = _products(x, products)
        minors2 = p - q
        abs2 = np.abs(p, out=p)
        abs2 += np.abs(q, out=q)
        del q
        x2 = np.take(x, row2, axis=0)
        laplace = np.take(minors2, pos, axis=0)
        laplace *= x2
        minors3 = laplace[:, 0] - laplace[:, 1] + laplace[:, 2]
        del laplace
        F = np.sqrt(np.einsum("ij,ij->j", x, x))
        D = np.sqrt(np.einsum("ij,ij->j", minors3, minors3))
        x2 = np.abs(x2, out=x2)
        x2 *= np.take(abs2, pos, axis=0)
        e_D = 6.0 * _U * x2.sum(axis=(0, 1)) + _UNDERFLOW
        if tier:
            return _certified_full(F, D, e_D), minors2, minors3, F, D
        P = np.sqrt(np.einsum("ij,ij->j", minors2, minors2))
        e_P = 3.0 * _U * abs2.sum(axis=0) + _UNDERFLOW
        return _rank_decision(F, P, D, e_P, e_D)


def _compound_norm(x: np.ndarray, k: int, top: np.ndarray) -> np.ndarray:
    """The norm P of the 2x2 minors (the second compound) of the columns of
    ``x``, given their row-(0, 1) minors ``top`` from the determinant tier:
    it forms only the products of the row-(0, 2) and row-(1, 2) minors and
    their differences, with no absolute terms, rounding bound or 3x3
    minor.  The squares of ``top`` and of the others are summed apart, so
    P can differ from the full filter's in its last bits, within the bound
    ``_condition_estimate`` assumes: copying all of them into one array
    first, for the full filter's bits, made a verify slower."""
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows get no estimate
        p, q = _products(x, _MINOR_INDEX[k][0][:, len(top):])
        p -= q
        return np.sqrt(np.einsum("ij,ij->j", top, top) + np.einsum("ij,ij->j", p, p))


def _certified_full(F, D, e_D):
    """Whether the determinant tier certifies sigma_min > 1e-12 sigma_max
    from the Frobenius norm F, the norm D of the 3x3 minors and its
    rounding bound e_D alone, before any other 2x2 minor is formed.  By
    Maclaurin's inequality the norm P of the 2x2 minors is at most
    F^2 / sqrt 3, so the filter's bracket gives
    sigma_3 / sigma_1 >= D / (P F) >= sqrt 3 D / F^3.  The margin and the
    range of F are ``_rank_decision``'s, whose margin also covers the
    rounding of sqrt 3 and of F^3 (a few u).  The tier never certifies
    rank deficiency; it leaves open the rows whose sigma_2 / sigma_1 is
    small, where sqrt 3 P falls well below F^2.  Arithmetic only, for
    floats and arrays."""
    in_range = (F >= 1.0 / _FILTER_MAX_NORM) & (F <= _FILTER_MAX_NORM)
    return in_range & (_SQRT3 * (D - e_D) > DEGENERACY_EPS * (1.0 + _RANK_MARGIN) * F * F * F)


def _rank_decision(F, P, D, e_P, e_D):
    """Whether the filter certifies sigma_min > 1e-12 sigma_max (full) or
    sigma_min < 1e-12 sigma_max (deficient) from the norms (F, P, D) and
    the rounding bounds e_P, e_D of P and D; neither outside
    [1 / _FILTER_MAX_NORM, _FILTER_MAX_NORM], where products of entries or
    the squares of the norms could under- or overflow.  Arithmetic only,
    for floats and arrays."""
    in_range = (F >= 1.0 / _FILTER_MAX_NORM) & (F <= _FILTER_MAX_NORM)
    full = in_range & (D - e_D > DEGENERACY_EPS * (1.0 + _RANK_MARGIN) * (P + e_P) * F)
    deficient = in_range & (3.0 * (D + e_D)
                            < DEGENERACY_EPS * (1.0 - _RANK_MARGIN) * (P - e_P) * F)
    return full, deficient


# ``_MINOR_INDEX`` as tuples, for ``_laplace`` and ``rank_test``: the four
# entry positions of the products of every row-(0, 1) 2x2 minor and of
# every other one, and for every 3x3 minor its row-2 entries and the
# positions of its row-(0, 1) minors.
_SCALAR_MINOR_INDEX = {k: (tuple(zip(*products[:, :products.shape[1] // 3].tolist())),
                           tuple(zip(*products[:, products.shape[1] // 3:].tolist())),
                           tuple(zip(row2.tolist(), pos.tolist())))
                       for k, (products, row2, pos) in _MINOR_INDEX.items()}


def _scalar_products(x, products) -> tuple[list, list]:
    """The 2x2 minors p - q of the entries ``x`` at the positions
    ``products``, and their absolute terms |p| + |q|."""
    minors2, abs2 = [], []
    for a, b, c, d in products:
        p, q = x[a] * x[b], x[c] * x[d]
        minors2.append(p - q)
        abs2.append(abs(p) + abs(q))
    return minors2, abs2


def _laplace(x, k: int) -> tuple:
    """What the determinant tier of ``rank_test`` forms of one 3 x k
    matrix, k = 3 or 4, given as its 3k entries row by row: the row-(0, 1)
    2x2 minors with their absolute terms; the determinant, or for k = 4 the
    minors of columns (012, 013, 023, 123), each its Laplace expansion
    along row 2; and the sum of the absolute Laplace terms of all of them.
    Arithmetic only, so it runs on floats and on exact numbers alike."""
    top, _, laplace = _SCALAR_MINOR_INDEX[k]
    minors2, abs2 = _scalar_products(x, top)
    minors3, terms = [], 0
    for (r0, r1, r2), (j0, j1, j2) in laplace:
        minors3.append(x[r0] * minors2[j0] - x[r1] * minors2[j1] + x[r2] * minors2[j2])
        terms += abs(x[r0]) * abs2[j0] + abs(x[r1]) * abs2[j1] + abs(x[r2]) * abs2[j2]
    return minors2, abs2, minors3, terms


def rank_test(x, k: int) -> tuple[int, list[float]]:
    """The scalar twin of ``rank_test_batch``: the sign of
    sigma_min - 1e-12 sigma_max of one 3 x k matrix, k = 3 or 4, given as
    its 3k entries row by row, and the 3x3 minors it is decided from
    (``_laplace``).  The determinant tier comes first
    (``_certified_full``, from F, D and e_D); only a matrix it leaves
    open forms the other 2x2 minors, those of rows (0, 2) and (1, 2), for
    the full filter (the norm P, its rounding bound and
    ``_rank_decision``), and only a matrix that leaves open too goes to the
    SVD.  A matrix with a non-finite entry gives 0."""
    minors2, abs2, minors3, terms = _laplace(x, k)
    # math.hypot: the norms without squares that could overflow.
    F, D, e_D = math.hypot(*x), math.hypot(*minors3), 6.0 * _U * terms + _UNDERFLOW
    if _certified_full(F, D, e_D):
        return 1, minors3
    more2, more_abs = _scalar_products(x, _SCALAR_MINOR_INDEX[k][1])
    full, deficient = _rank_decision(F, math.hypot(*minors2, *more2), D,
                                     3.0 * _U * sum(abs2 + more_abs) + _UNDERFLOW, e_D)
    if full or deficient:
        return int(full) - int(deficient), minors3
    if not all(map(math.isfinite, x)):
        return 0, minors3
    s = np.linalg.svd(np.reshape(x, (3, k)), compute_uv=False)
    low, high = float(s[-1]), DEGENERACY_EPS * float(s[0])
    return (low > high) - (low < high), minors3


def null_vector(m):
    """The null vector of a 3x4 system from its Laplace minors ``m`` of
    columns (012, 013, 023, 123), as both twins return them: entry j is
    the minor without column j, signed (-1)^j.  For floats and for rows of
    arrays; it rounds nothing, so it is exact on exact numbers."""
    return m[3], -m[2], m[1], -m[0]


# A certified condition estimate is within this relative error of the exact
# condition number (see ``_condition_estimate``).
_KAPPA_ERROR = 2.0 ** -12
# Bound on how far the rounding of x^2, y^2 and of the closed form move the
# normalized cubic near its largest root (38 u from the inputs, the rest
# for the closed form).
_CUBIC_ERROR = 64 * _U


def _max_condition(k: int, norms: np.ndarray, entries) -> float:
    """The largest sigma_max / sigma_min, as ``singular_values_batch``
    gives it, over a stack of n > 0 3 x k matrices, given the (3, n) norms
    (F, P, D) that the passes of ``rank_test_batch`` computed for them
    (``_passes``) and its ``entries``.  ``_condition_estimate`` estimates
    every row from the norms, in blocks of at most ``_COLUMN_BLOCK`` rows,
    so that the temporaries of its error bound stay small.  One stacked SVD runs,
    over the candidate rows only: no other row's entries are made.

    The candidates are the rows whose estimate ``kappa`` is NaN or at
    least (1 - m) kappa_max, with kappa_max the largest estimate and
    m = 2^-10 + 256 u kappa_max.  The result is bit for bit the maximum over
    every row: numpy's stacked SVD calls LAPACK once per matrix, so a row
    gives the same singular values in any subset.  A non-finite row has a
    NaN estimate, so its NaN ratio propagates as through ``np.max``.

    The margin covers both errors.  LAPACK's singular values satisfy
    |computed - exact| <= p u sigma_1 (*LAPACK Users' Guide*, 4.9), p up to
    about 100 here, so a ratio r computed for a matrix of condition number
    kappa <= 2.3e11 is within e <= 101 u (kappa + 1) of it, relative; a
    certified estimate is within beta <= 2^-12.  Let i be a row with the
    largest estimate and j a row with r_j >= r_i.  Then
    kappa_j >= r_j / (1 + e_j) >= (1 - e_i) kappa_i / (1 + e_j), so
    estimate_j / kappa_max >= 1 - 2 beta - e_i - e_j
    >= 1 - 2^-11 - 203 u (kappa_max + 1) > 1 - m: row j is a candidate, and
    so is the row of the largest ratio.  At ``LabConfig()`` a verify
    sends 26 of its 3600 circumconic rows to the SVD.
    """
    kappa = np.empty(norms.shape[1])
    for i, j in _blocks(len(kappa), _COLUMN_BLOCK):
        kappa[i:j] = _condition_estimate(*norms[:, i:j])
    top = np.max(kappa, initial=0.0, where=np.isfinite(kappa))
    candidate = ~(kappa < (1.0 - 2.0 ** -10 - 256 * _U * top) * top)
    sv = singular_values_batch(entries(np.flatnonzero(candidate)).T.reshape(-1, 3, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(sv[:, 0] / sv[:, -1]))


def _condition_estimate(F: np.ndarray, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """An estimate of sigma_max / sigma_min for every row, from the norms
    (F, P, D) of a stack of 3 x k matrices, and without an SVD: F and D as
    the determinant tier forms them, P from the tier's row-(0, 1) 2x2
    minors and the others (``_compound_norm``).  It is NaN where it is not
    certified to lie within ``_KAPPA_ERROR`` = 2^-12 (relative) of the
    exact condition number of the floating-point matrix, which includes
    every non-finite row.

    By Cauchy-Binet, F^2, P^2 and D^2 are the elementary symmetric functions
    of sigma_1^2 >= sigma_2^2 >= sigma_3^2, the roots of
    lam^3 - F^2 lam^2 + P^2 lam - D^2 (Horn and Johnson, *Matrix Analysis*,
    0.8, on compound matrices).  Scaled by F^2 the roots lam_i sum to 1 and
    the cubic is g(lam) = lam^3 - lam^2 + x^2 lam - y^2, x = P/F^2,
    y = D/F^3.  The largest root lam_1 has a trigonometric closed form.  The
    smallest one is found without cancellation as the smaller root of
    mu^2 - s mu + p, where p = lam_2 lam_3 = y^2/lam_1 and
    s = lam_2 + lam_3 = (x^2 - p)/lam_1, taken as 2p / (s + sqrt(s^2 - 4p)).
    The estimate is sqrt(lam_1 / lam_3).

    Error bound, to first order in u = 2^-53.  The filter's rounding bounds
    give |P - P_exact| <= 12 u F^2 and |D - D_exact| <= 9.3 u F^3 (the
    absolute Laplace terms of the 3x3 minors sum to at most (4/3)^1.5 F^3).
    The bound on P holds whatever order its squares are summed in: they
    are nonnegative, so the rounding of a sum of m of them is at most
    (m - 1) u of it, relative, in every order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 4.2).
    So x^2 and y^2 carry relative errors e_x <= 24u/x + 55u and
    e_y <= 19u/y + 59u:

    - lam_1: these and the closed form move g by at most 64u near lam_1,
      and g(lam_1 + h) = g' h + g'' h^2/2 + h^3 there, so lam_1 moves by at
      most h_1 = min(64u/g', sqrt(128u/g''), (64u)^(1/3)), a relative
      e_1 = h_1/lam_1;
    - p and s: relative errors d_p <= e_y + e_1 + 2u and
      d_s <= 1.5 e_x + 0.5 e_y + 1.5 e_1 + 3u (p <= x^2/3, so x^2 - p does
      not cancel);
    - lam_3: s^2 - 4p moves by at most W = s^2 (2 d_s + d_p + d_s^2 + 6u),
      its square root by at most min(sqrt W, W / sqrt(s^2 - 4p)) (a pair
      lam_2 = lam_3 is the square-root case), and lam_3 by a relative
      e_3 <= d_p + d_s + min(...)/s.

    The estimate is therefore within beta = (e_1 + e_3)/2 + 4u of the exact
    condition number.  It is NaN where beta > 2^-12, or where F lies outside
    [2^-100, 2^100], where products of entries could under- or overflow.
    Since e_y <= 2 beta, a certified row has condition number at most
    F^3/D <= 2^42/19 = 2.3e11, below the rank threshold 1/DEGENERACY_EPS.
    Nearly rank-1 rows and near-triple clusters are left uncertified.  On
    random stacks with chosen singular values (clustered, nearly rank 1,
    up to kappa = 1e11), against 60-digit mpmath, the error stays within
    0.09 beta.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = P / (F * F)
        y = D / (F * F * F)
        b, c = x * x, y * y
        t = 1.0 - 3.0 * b
        r = np.sqrt(np.maximum(t, 0.0))
        cos3 = np.clip((2.0 - 9.0 * b + 27.0 * c) / (2.0 * t * r), -1.0, 1.0)
        lam1 = (1.0 + np.where(r > 0.0, 2.0 * r * np.cos(np.arccos(cos3) / 3.0), 0.0)) / 3.0
        del t, r, cos3  # each temporary dropped once read for the last time
        p = c / lam1
        s = (b - p) / lam1
        root = np.sqrt(np.maximum(s * s - 4.0 * p, 0.0))
        kappa = np.sqrt(lam1 * (s + root) / (2.0 * p))

        e_x = 24.0 * _U / x + 55.0 * _U
        e_y = 19.0 * _U / y + 59.0 * _U
        del x, y, c
        g1 = (3.0 * lam1 - 2.0) * lam1 + b
        g2 = 6.0 * lam1 - 2.0
        h1 = np.minimum(np.minimum(_CUBIC_ERROR / np.maximum(g1, 0.0),
                                   np.sqrt(2.0 * _CUBIC_ERROR / np.maximum(g2, 0.0))),
                        np.cbrt(_CUBIC_ERROR))
        del b, g1, g2
        e_1 = h1 / lam1
        d_p = e_y + e_1 + 2.0 * _U
        d_s = 1.5 * e_x + 0.5 * e_y + 1.5 * e_1 + 3.0 * _U
        del h1, e_x, e_y
        W = s * s * (2.0 * d_s + d_p + d_s * d_s + 6.0 * _U)
        e_3 = d_p + d_s + np.minimum(np.sqrt(W), W / root) / s
        del W, p, s, root, d_p, d_s
        beta = 0.5 * (e_1 + e_3) + 4.0 * _U
        certified = ((beta <= _KAPPA_ERROR) & (F >= 1.0 / _FILTER_MAX_NORM)
                     & (F <= _FILTER_MAX_NORM))
    return np.where(certified, kappa, np.nan)
