"""Exact linear algebra on the subset levels of a point domain.

Functions on k-subsets form a vector space with the k-subsets (in colex
order) as basis.  The inclusion map sends a function f on (k-1)-subsets
to the function on k-subsets that sums f over the facets of each subset;
its matrix is the 0/1 inclusion incidence matrix, and its injectivity
for n >= 2k-1 is what makes orbit counts grow level by level.  The sign
matrices with entries (-1)^|intersection| are a candidate for a family
of maps composing multiplicatively between levels; the exploration
report computes the composite and compares, asserting nothing.

All arithmetic is exact: int entries, fraction-free (Bareiss) elimination
over the integers, and an independent elimination mod a large prime as a
cheap full-rank certificate for the bigger matrices.  The inclusion
matrix is stored sparse, as the k columns that hold a 1 in each row, and
both eliminations read those columns directly; its dense entries are
derived only when they are read (entry, matmul, CSV).  Every other
matrix holds its entries as a tuple of rows of ints, and nothing else: a
bool, a float, a Fraction or a numpy integer is refused when the matrix
is made.  The modular route reduces each entry mod p into an int64
array, so ints of any size go in.  The modulus must be a prime.  Both
eliminations touch only nonzeros: the exact one holds each row as a dict
of its nonzero entries, and the modular one updates only the columns
where the pivot row is nonzero.  Inclusion matrices stay sparse while
they are eliminated.

In colex order the inclusion matrix is [[A, 0], [I, B]]: the k-subsets
without the last point come first, and each k-subset T + {n-1} meets the
column of T in an identity block of size m = C(n-1, k-1).  The modular
route recognises that form in the stored columns and eliminates the
identity block in one step: the rank is m + rank(A * B) over any field,
so only A * B is made an array and pivoted.  The exact route takes a
sparse 0/1 matrix's rows bottom-up, since the rank does not depend on
row order: every column of the identity block then meets its unit row
first, so a pivot puts only A * B into the rows above, where the
top-down order filled them almost dense.  A sparse matrix without the
form goes to the modular kernel whole, its rows bottom-up too.

The sign matrices are int64 arrays: the intersection sizes are one
product of 0/1 point-membership rows, the composite of two sign maps is
one more, and it is compared with the direct map as one array.  A dense
allocation, the modular route's int64 array, derived entries, or any
array of the sign maps, is refused with CapExceeded past CELLS_PER_CAP
cells per unit of the element cap.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy

from .config import check_cap
from .errors import AxiomsFailed, OutOfRange
from .groups import (
    GenGroup,
    _bounded_cache,
    _capped_order,
    _chain,
    _subsets_colex,
    order,
)
from .perms import Permutation

__all__ = [
    "CELLS_PER_CAP",
    "EXACT_RANK_LIMIT",
    "ExactMatrix",
    "build_r_matrix",
    "build_theta_matrix",
    "subset_permutation_matrix",
    "rank",
    "rank_mod_p",
    "orbit_count_inequality",
    "ThetaReport",
    "theta_exploration",
]


# Both sides at most this: `lw` and the battery rank exactly, else mod p.
EXACT_RANK_LIMIT = 130

# Cells a dense matrix may allocate per unit of the element cap: the int64
# array of rank_mod_p and derived entries alike.  At the default cap that
# is 12.8 M cells; the widest inclusion matrix on 12 points is 924 x 792.
CELLS_PER_CAP = 64

def _check_cells(n_rows: int, n_cols: int, cap: int | None = None) -> None:
    """Raise CapExceeded before a dense n_rows x n_cols allocation past the
    cell budget of the cap (the active one by default): each unit of the
    cap admits CELLS_PER_CAP cells."""
    cells = n_rows * n_cols
    what = f"{cells} cells in a dense {n_rows}x{n_cols} matrix at {CELLS_PER_CAP} per unit of cap"
    check_cap(-(-cells // CELLS_PER_CAP), what, cap)


def _dense_rows(ones: tuple[tuple[int, ...], ...], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """The 0/1 rows whose ones sit in the given columns."""
    dense = []
    for row in ones:
        cells = [0] * n_cols
        for j in row:
            cells[j] = 1
        dense.append(tuple(cells))
    return tuple(dense)


def _check_ones(ones: tuple[tuple[int, ...], ...], n_cols: int) -> None:
    """Raise ValueError naming the first stored row that is not strictly
    increasing ints in 0..n_cols-1, or not as long as row 0.  A valid
    matrix is checked a stored column at a time, not row by row."""
    width = len(ones[0]) if ones else 0
    columns = list(zip(*ones))
    if (
        set(map(len, ones)) <= {width}
        and set(map(type, itertools.chain(*columns))) <= {int}
        and (width == 0 or (0 <= min(columns[0]) and max(columns[-1]) < n_cols))
        and all(all(map(operator.lt, a, b)) for a, b in zip(columns, columns[1:]))
    ):
        return
    for i, row in enumerate(ones):
        if len(row) != width:
            raise ValueError(f"ones row {i} holds {len(row)} ones, row 0 {width}")
        # -1 < row[0] < ... < row[-1] < n_cols
        if set(map(type, row)) - {int} or not all(map(operator.lt, (-1, *row), (*row, n_cols))):
            raise ValueError(f"ones row {i} is not strictly increasing ints in 0..{n_cols - 1}")


class ExactMatrix:
    """Exact matrix whose rows and columns are labeled by subsets.

    ExactMatrix(rows, cols, entries) holds its entries as a tuple of rows,
    each entry of type int exactly; any other entry (a bool, a float, a
    Fraction, a numpy integer) raises ValueError naming its row, as
    _check_ones does for stored columns.  ExactMatrix(rows, cols, ones=...)
    is a 0/1 matrix stored sparse: for each row, the increasing columns
    that hold a 1, as many in every row; any other rows raise ValueError.
    The rank kernels read those columns directly, and its entries are
    derived on first read, after the cell budget is checked.
    """

    __slots__ = ("rows", "cols", "ones", "_entries")

    def __init__(
        self,
        rows: tuple[tuple[int, ...], ...],
        cols: tuple[tuple[int, ...], ...],
        entries: tuple[tuple[int, ...], ...] | None = None,
        *,
        ones: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        if (entries is None) == (ones is None):
            raise ValueError("give either entries or ones")
        self.rows = rows
        self.cols = cols
        self.ones = ones
        self._entries = entries
        if len(ones if entries is None else entries) != len(rows):
            raise ValueError("row count mismatch")
        for i, row in enumerate(entries or ()):
            if len(row) != len(cols):
                raise ValueError("column count mismatch")
            if set(map(type, row)) - {int}:
                odd = next(type(x).__name__ for x in row if type(x) is not int)
                raise ValueError(f"entries row {i} holds an entry of type {odd}, not int")
        if ones is not None:
            _check_ones(ones, len(cols))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            _check_cells(*self.shape)
            self._entries = _dense_rows(self.ones, len(self.cols))
        return self._entries

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def entry(self, row_label, col_label) -> int:
        i = self.rows.index(tuple(sorted(row_label)))
        j = self.cols.index(tuple(sorted(col_label)))
        return self.entries[i][j]

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("label mismatch in matrix product")
        columns = tuple(zip(*other.entries))
        product = tuple(
            tuple(sum(map(operator.mul, row, col)) for col in columns)
            for row in self.entries
        )
        return ExactMatrix(self.rows, other.cols, product)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.entries)


def _inclusion_shape(n: int, k: int) -> tuple[int, int]:
    """C(n, k) x C(n, k-1), the shape of build_r_matrix(n, k), after its
    range check on k and the check of the larger level against the cap."""
    if not 1 <= k <= n:
        raise OutOfRange(f"k={k} outside 1..{n}")
    shape = math.comb(n, k), math.comb(n, k - 1)
    check_cap(max(shape), f"{max(shape)} subsets on one level of {n} points")
    return shape


def build_r_matrix(n: int, k: int) -> ExactMatrix:
    """Inclusion incidence matrix from (k-1)-subsets to k-subsets.

    Entry (S, F) is 1 exactly when F is S minus one point, so applying
    the matrix to a function on the (k-1)-level sums it over the facets
    of each k-subset.  After the range check on k, the larger of the two
    levels is checked against the cap before any subset is listed.

    The matrix is stored sparse: row S holds the colex ranks of its k
    facets, in increasing order.  In the combinatorial number system the
    rank of s_0 < ... < s_(m-1) is the sum of C(s_i, i + 1), so dropping
    s_d leaves the terms C(s_i, i + 1) before it and shifts every later
    point down one place, to C(s_i, i).  Dense entries, when read, are
    bounded by the cell budget, not by this cap.
    """
    _inclusion_shape(n, k)
    rows = _subsets_colex(n, k)
    cols = _subsets_colex(n, k - 1)
    comb = [[math.comb(x, i) for i in range(k + 1)] for x in range(n)]
    ones = []
    for s in rows:
        kept = [comb[x][i + 1] for i, x in enumerate(s)]
        head = sum(kept) - kept[-1]  # dropping the last point: the smallest rank
        tail = 0
        facets = [head]
        for d in range(k - 1, 0, -1):
            head -= kept[d - 1]
            tail += comb[s[d]][d]
            facets.append(head + tail)
        ones.append(tuple(facets))
    return ExactMatrix(rows, cols, ones=tuple(ones))


def _members(n: int, subsets: tuple[tuple[int, ...], ...]) -> numpy.ndarray:
    """0/1 int64 rows, one per subset, with a 1 in the column of each point."""
    members = numpy.zeros((len(subsets), n), dtype=numpy.int64)
    members[numpy.arange(len(subsets))[:, None], numpy.array(subsets, dtype=numpy.intp)] = 1
    return members


def _signs(rows: numpy.ndarray, cols: numpy.ndarray) -> numpy.ndarray:
    """(-1)^|S & R| for every row subset S and column subset R, given as
    membership rows: the intersection sizes are one product."""
    return 1 - 2 * (rows @ cols.T & 1)


def _check_sign_cells(n: int, steps, cap: int | None = None) -> None:
    """Check the largest array the sign maps of the (low, high) steps need
    against the cell budget, before any is allocated: a membership array,
    C(n, m) x n, for each level, or a sign array, C(n, high) x C(n, low),
    for each step.  A cap that admits it admits them all."""
    levels = {m for step in steps for m in step}
    shapes = [(math.comb(n, m), n) for m in levels]
    shapes += [(math.comb(n, high), math.comb(n, low)) for low, high in steps]
    _check_cells(*max(shapes, key=math.prod), cap)


def _sign_matrix(n: int, r: int, s: int) -> ExactMatrix:
    """The sign matrix from r-subsets to s-subsets, with no check."""
    rows, cols = _subsets_colex(n, s), _subsets_colex(n, r)
    signs = _signs(_members(n, rows), _members(n, cols))
    return ExactMatrix(rows, cols, tuple(map(tuple, signs.tolist())))


def build_theta_matrix(n: int, r: int, s: int) -> ExactMatrix:
    """Sign matrix from r-subsets to s-subsets: (-1)^|intersection|.

    It is built as an int64 array: the intersection sizes are the product
    of the 0/1 point-membership rows of the s-subsets and of the r-subsets,
    and each sign is 1 - 2 * (size mod 2).  The membership arrays and the
    sign array are checked against the cell budget before any is
    allocated, and the entries are the sign array's rows.
    """
    if not 0 <= r <= n or not 0 <= s <= n:
        raise OutOfRange(f"levels ({r},{s}) outside 0..{n}")
    _check_sign_cells(n, [(r, s)])
    return _sign_matrix(n, r, s)


def subset_permutation_matrix(g: Permutation, k: int) -> ExactMatrix:
    """Permutation matrix of g acting on the k-subsets of its domain."""
    labels = _subsets_colex(g.degree, k)
    index = {s: i for i, s in enumerate(labels)}
    entries = [[0] * len(labels) for _ in labels]
    for j, s in enumerate(labels):
        image = tuple(sorted(g.images[p] for p in s))
        entries[index[image]][j] = 1
    return ExactMatrix(labels, labels, tuple(tuple(row) for row in entries))


def rank(matrix: ExactMatrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers.

    After a pivot every row below it becomes lead * row - factor * top,
    divided by the previous pivot; that division is exact because each
    entry is then a minor of the input.  Each row is held sparse, as a
    dict from column to nonzero int, taken from the int entries as they
    are, or straight from the stored columns of a sparse 0/1 matrix, read
    bottom-up so that an inclusion matrix meets its unit rows first (see
    the module docstring); only nonzeros are touched: a row with factor 0 is rescaled over its own
    nonzeros, and left alone when the pivot equals the previous one, and
    any other row is recomputed over the columns where it or the pivot
    row is nonzero, dropping the entries that cancel.  Columns left of
    the pivot are already zero below it, so they hold no entries.
    """
    if matrix.ones is None:
        work = [{j: x for j, x in enumerate(row) if x} for row in matrix.entries]
    else:
        work = [dict.fromkeys(row, 1) for row in reversed(matrix.ones)]
    n_rows, n_cols = matrix.shape
    found = 0
    previous = 1
    for col in range(n_cols):
        pivot = next((i for i in range(found, n_rows) if col in work[i]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        top = work[found]
        lead = top[col]
        top_get = top.get
        for i in range(found + 1, n_rows):
            row = work[i]
            factor = row.get(col)
            if factor is None:
                if lead != previous:
                    work[i] = {j: lead * a // previous for j, a in row.items()}
                continue
            get = row.get
            work[i] = {
                j: v
                for j in top.keys() | row.keys()
                if (v := (lead * get(j, 0) - factor * top_get(j, 0)) // previous)
            }
        previous = lead
        found += 1
        if found == n_rows:
            break
    return found


@_bounded_cache
def _is_prime(p: int) -> bool:
    """Trial division by every d with d * d <= p: a thousand divisions for
    the default modulus, so the answer is kept."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _unit_block(ones: numpy.ndarray) -> int:
    """m when the stored columns, one row of increasing columns each, form
    [[A, 0], [I, B]] with I the identity on the last m rows, else 0.

    The last m rows hold their first one in columns 0..m-1, in order, and
    all their others at column m or later; the rows above hold ones only
    left of m.  The last row's first one fixes m.
    """
    n_rows, weight = ones.shape
    if weight == 0:
        return 0
    m = int(ones[-1, 0]) + 1
    if m > n_rows:
        return 0
    above, unit = ones[: n_rows - m], ones[n_rows - m :]
    if (above[:, -1] >= m).any() or (unit[:, 0] != numpy.arange(m)).any():
        return 0
    return 0 if (unit[:, 1:] < m).any() else m


def _eliminate_mod_p(a: numpy.ndarray, p: int) -> int:
    """Rank mod p of an int64 array, which the elimination overwrites."""
    n_rows, n_cols = a.shape
    found = 0
    for col in range(n_cols):
        if found == n_rows:
            break
        column = a[found:, col]
        column %= p
        hits = numpy.flatnonzero(column)
        if hits.size == 0:
            continue
        pivot = found + int(hits[0])
        if pivot != found:
            # the row moved out of found is zero in this column
            held = a[found, col:].copy()
            a[found, col:] = a[pivot, col:]
            a[pivot, col:] = held
        top = a[found, col:] % p * pow(int(column[0]), -1, p) % p
        live = hits[1:] + found
        if live.size:
            support = numpy.flatnonzero(top)
            a[live[:, None], support + col] -= column[hits[1:], None] * top[support]
        found += 1
    return found


def rank_mod_p(matrix: ExactMatrix, p: int = 1_000_003) -> int:
    """Rank of the reduction mod p; a lower bound for the rational rank.

    Equality with the column count therefore certifies injectivity over
    the rationals without touching big-number arithmetic.  p must be a
    prime, else OutOfRange: the elimination divides by pivots.  It must
    also be below 2**32, since a larger p overflows int64 on any matrix;
    that bound keeps the trial division short.

    The rows x cols int64 array is checked against the cell budget
    (CELLS_PER_CAP per unit of the element cap) before anything is
    allocated, and CapExceeded is raised past it.  A sparse 0/1 matrix in
    the block form [[A, 0], [I, B]] of an inclusion matrix (see the module
    docstring) has rank m + rank(A * B) over any field, m the size of I:
    subtracting A times the unit rows from the rows above is unimodular.
    Only A * B is then made an array, summed from B's rows one stored
    column of A at a time, reduced, and eliminated with its rows
    bottom-up.  Any other sparse matrix fills the full array with one
    assignment from its stored columns, its rows in reverse order.  A
    matrix of entries is reduced mod p entry by entry, as Python ints,
    before it is made an array: every residue fits int64, however large
    the int.

    One nonzero search per column finds the pivot and the live rows: the
    column's other hits, since a row swapped out of the pivot's place is
    zero there.  Rows are swapped by slices, and only when the pivot
    moves.  One broadcast update then changes the live rows, and in them
    only the columns where the normalised pivot row is nonzero; every
    other entry would take a zero.  Entries are reduced lazily: a column
    only when it is searched for a pivot, so an entry takes at most
    min(rows, cols) unreduced updates below p^2 each, and p must keep
    that sum inside int64.
    """
    if not (p < 2**32 and _is_prime(p)):
        raise OutOfRange(f"p={p} is not a prime below 2**32")
    n_rows, n_cols = matrix.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    if min(n_rows, n_cols) * (p - 1) ** 2 + p >= 2**63:
        raise OutOfRange(
            f"p={p} overflows int64 elimination on a {n_rows}x{n_cols} matrix"
        )
    _check_cells(n_rows, n_cols)
    if matrix.ones is not None:
        ones = numpy.array(matrix.ones, dtype=numpy.intp)
        m = _unit_block(ones)
        if m:
            b = numpy.zeros((m, n_cols - m), dtype=numpy.int64)
            b[numpy.arange(m)[:, None], ones[n_rows - m :, 1:] - m] = 1
            a = numpy.zeros((n_rows - m, n_cols - m), dtype=numpy.int64)
            for facet in ones[: n_rows - m][::-1].T:  # A's rows bottom-up
                a += b[facet]
            a %= p
            return m + _eliminate_mod_p(a, p)
        a = numpy.zeros((n_rows, n_cols), dtype=numpy.int64)
        a[numpy.arange(n_rows)[:, None], ones[::-1]] = 1
    else:
        a = numpy.array([[x % p for x in row] for row in matrix.entries], dtype=numpy.int64)
    return _eliminate_mod_p(a, p)


def _fixed_subset_counts(lengths: tuple[int, ...], kmax: int) -> list[int]:
    """Subsets of each size 0..kmax that an element with these cycle
    lengths fixes setwise: the unions of whole cycles."""
    ways = [0] * (kmax + 1)
    ways[0] = 1
    for length in lengths:
        for j in range(kmax, length - 1, -1):
            ways[j] += ways[j - length]
    return ways


def _element_table(group: GenGroup) -> numpy.ndarray:
    """Every element of G exactly once, one row of images each, in chain order.

    Sifting writes each element uniquely as a product of one transversal
    element per chain level, the deepest level applied first (Butler,
    Fundamental Algorithms for Permutation Groups, 1991; Seress 2003,
    §4.1).  Each nontrivial level is one fancy-index composition: row
    i*|U| + j of the next table is "apply row i, then u_j" for the level's
    transversal U.  Entries take the smallest unsigned dtype that holds
    degree - 1, one byte per entry up to degree 256.  The caller checks
    the cap first; nothing here does.
    """
    n = group.degree
    dtype = numpy.min_scalar_type(max(n - 1, 0))
    table = numpy.arange(n, dtype=dtype).reshape(1, n)
    for level in reversed(_chain(group).transversal):
        if len(level) > 1:
            u = numpy.array([v for v, _ in level.values()], dtype=dtype)
            picks = numpy.arange(len(u)).reshape(1, -1, 1)
            table = u[picks, table[:, None, :]].reshape(-1, n)
    return table


def _cycle_types(table: numpy.ndarray) -> dict[tuple[int, ...], int]:
    """How many rows of the element table have each cycle type.

    A point's first-return time under g is the length of its cycle, so
    the powers g^1 .. g^(n-1) of the whole table give every point's cycle
    length: a point not back by then is on a cycle of length n.  Each row
    of return times is sorted, and equal rows are counted through a bytes
    view, one byte per point up to degree 255.
    """
    rows, n = table.shape
    if n == 0:
        return {(): rows}
    points = numpy.arange(n, dtype=table.dtype)
    picks = numpy.arange(rows).reshape(-1, 1)
    returns = numpy.ones(table.shape, dtype=numpy.min_scalar_type(n))
    waiting = numpy.ones(table.shape, dtype=bool)
    power = table
    for step in range(1, n):
        waiting &= power != points
        returns += waiting
        if step < n - 1:
            power = table[picks, power]
    returns.sort(axis=1)
    keys = returns.view(numpy.dtype((numpy.void, returns.itemsize * n))).ravel()
    distinct, counts = numpy.unique(keys, return_counts=True)
    types = {}
    for key, count in zip(distinct, counts.tolist()):
        times = numpy.frombuffer(key.tobytes(), dtype=returns.dtype).tolist()
        lengths = []
        point = 0
        while point < n:  # a cycle of length m holds m equal return times
            lengths.append(times[point])
            point += times[point]
        types[tuple(lengths)] = count
    return types


def _fixed_subset_totals(group: GenGroup, kmax: int, cap: int | None) -> list[int]:
    """Fixed k-subsets summed over the whole group, for k = 0..kmax.

    |G| from the stabilizer chain is checked against the cap first, and
    CapExceeded is raised before any array is allocated.  The elements
    then come from the chain's element table, one row of the smallest
    unsigned dtype holding degree - 1 each (uint8 for degree <= 256);
    they are counted per cycle type, and the count of fixed subsets is
    worked out once per type.
    """
    _capped_order(group, cap)
    totals = [0] * (kmax + 1)
    for lengths, count in _cycle_types(_element_table(group)).items():
        for j, ways in enumerate(_fixed_subset_counts(lengths, kmax)):
            totals[j] += count * ways
    return totals


def _subset_orbit_count(group: GenGroup, k: int, cap: int | None = None) -> int:
    """Orbits of G on its k-subsets, from the generators' images alone.

    C(n, k) is checked against the cap before any subset is listed.  Each
    generator sends the colex k-subsets, one int array of points per row,
    to sorted image rows, ranked in the combinatorial number system as in
    build_r_matrix.  Every subset then carries a label, at first its own
    rank: each sweep lowers a label to its image's under every generator
    in turn, then to its label's label, until a sweep changes nothing.  A
    label is always the rank of a subset in the same orbit and never above
    its own, and once it is stable it is at most the image's label under
    every generator, so, as a generator has finite order, it is constant
    on the orbit: exactly one subset per orbit is its own label.
    """
    n = group.degree
    size = math.comb(n, k)
    check_cap(size, f"derived domain of size {size}", cap)
    subsets = numpy.array(_subsets_colex(n, k), dtype=numpy.intp)
    # C(x, i + 1) where point x may sit at place i, n - k + i at the most:
    # each term is at most the last subset's rank, below C(n, k)
    comb = numpy.array(
        [[math.comb(x, i + 1) if x <= n - k + i else 0 for i in range(k)] for x in range(n)],
        dtype=numpy.int64,
    )
    places = numpy.arange(k)
    images = []
    for g in group.generators:
        moved = numpy.array(g.images, dtype=numpy.intp)[subsets]
        moved.sort(axis=1)
        images.append(comb[moved, places].sum(axis=1))
    labels = numpy.arange(size)
    while True:
        lowered = labels
        for image in images:
            lowered = numpy.minimum(lowered, lowered[image])
        lowered = lowered[lowered]
        if numpy.array_equal(lowered, labels):
            return int(numpy.count_nonzero(labels == numpy.arange(size)))
        labels = lowered


def orbit_count_inequality(
    group: GenGroup, kmax: int, cap: int | None = None
) -> tuple[int, ...]:
    """Orbit counts on k-subsets for k = 0..kmax, with the growth law.

    Counts come from the generators' images on the colex k-subsets
    (_subset_orbit_count), with no induced group built; each is
    cross-checked against the number of fixed k-subsets summed over the
    whole group (Burnside), and the counts must be nondecreasing while
    n >= 2k.  A failed check raises AxiomsFailed.  The Burnside sum ignores
    order, so it reads the stabilizer chain's transversal products rather
    than the BFS element list, and |G| is the chain's order.  |G| is
    checked against the cap before anything is built; the products then
    form one array, a row per element, in the smallest unsigned dtype that
    holds degree - 1 (one byte per entry up to degree 256).
    """
    n = group.degree
    if not 0 <= kmax <= n:
        raise OutOfRange(f"kmax={kmax} outside 0..{n}")
    size = order(group, cap)
    totals = _fixed_subset_totals(group, kmax, cap)
    counts = [1]
    for k in range(1, kmax + 1):
        count = _subset_orbit_count(group, k, cap)
        if totals[k] != count * size:
            raise AxiomsFailed(
                f"{count} orbits on {k}-subsets, but the Burnside average is "
                f"{Fraction(totals[k], size)}"
            )
        counts.append(count)
    for k in range(1, kmax + 1):
        if n >= 2 * k and counts[k - 1] > counts[k]:
            raise AxiomsFailed(
                f"orbit count falls from {counts[k - 1]} to {counts[k]} "
                f"at level {k} on {n} points"
            )
    return tuple(counts)


@dataclass(frozen=True)
class ThetaReport:
    """Outcome of composing two sign matrices against the direct one.

    scalar is the exact factor when the composite is proportional to the
    direct matrix, else None.  Ranks of all three matrices ride along.
    No claim is made beyond the arithmetic.
    """

    n: int
    r: int
    s: int
    t: int
    proportional: bool
    scalar: Fraction | None
    rank_rs: int
    rank_st: int
    rank_rt: int


@_bounded_cache
def _theta_rank(n: int, r: int, s: int) -> int:
    """Exact rank of one sign matrix, whose cells the caller has checked;
    only the int is kept, not the matrix."""
    return rank(_sign_matrix(n, r, s))


def theta_exploration(
    n: int, r: int, s: int, t: int, cap: int | None = None
) -> ThetaReport:
    """Compose the sign maps level r -> s -> t and compare with r -> t.

    The widest level is checked against the cap first, then every array
    this builds against the cell budget: the three levels' membership
    arrays, the three sign arrays, and so the composite, which has the
    shape of the r -> t array.  The sign arrays are int64, the composite
    is one matrix product, and proportionality is one array comparison:
    the r -> t entry at (first t-subset, first r-subset) is (-1)^r, never
    0.  The three exact ranks come from a cache keyed on (n, r, s), since
    many triples share a level pair.
    """
    if not 0 <= r <= s <= t <= n:
        raise OutOfRange(f"levels ({r},{s},{t}) not increasing within 0..{n}")
    widest = max(math.comb(n, m) for m in (r, s, t))
    check_cap(widest, f"{widest} subsets on one level of {n} points", cap)
    _check_sign_cells(n, [(r, s), (s, t), (r, t)], cap)
    members = {m: _members(n, _subsets_colex(n, m)) for m in {r, s, t}}
    theta_rt = _signs(members[t], members[r])
    composite = _signs(members[t], members[s]) @ _signs(members[s], members[r])
    c0, d0 = int(composite[0, 0]), int(theta_rt[0, 0])
    proportional = bool(numpy.array_equal(composite * d0, theta_rt * c0))
    return ThetaReport(
        n,
        r,
        s,
        t,
        proportional,
        Fraction(c0, d0) if proportional else None,
        _theta_rank(n, r, s),
        _theta_rank(n, s, t),
        _theta_rank(n, r, t),
    )
