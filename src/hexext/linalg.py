"""Exact dense linear algebra over Z and Z/m.

Smith normal form with recorded unimodular transforms, kernel computation,
canonical coset representatives (via column Hermite form) and the linear
solver under ``modules.lift``, the library's one solve path.  All arithmetic
uses Python's arbitrary-precision integers; intermediate Smith-form entries
can grow well past machine width and overflow would be a correctness bug,
not a performance issue.

Over Z/m, kernels and Smith data lift the matrix to Z and adjoin
``m * identity`` columns.  Span membership (:func:`shrink_generators`), the
Hermite form and solving lift nothing: they grow one echelon basis a column
at a time from the lattice ``m * Z^n``; its pivots divide m and its other
entries stay below m.  A solve reduces ``(b; 0)`` against the cached
Hermite form of the graph ``[A; -I]`` and returns the canonical solution.

Caches keep only what callers read, each bounded at :data:`CACHE_SIZE`
entries: the Hermite form, keyed on the matrix and the number of graph
unknowns, is canonical for its key, so eviction never changes an answer.
Kernels and Smith transforms are never kept here; the callers of
:func:`kernel_columns` cache what they build from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .rings import RingSpec, xgcd

IntRows = tuple[tuple[int, ...], ...]

# the one bound on every engine cache (here, in ``modules`` and in ``ext``)
CACHE_SIZE = 4096


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix over a :class:`RingSpec`, row-major entries.
    :meth:`from_rows` and :meth:`from_cols` are the checked entries for outside
    data; the plain constructor, used by the operations below, checks nothing."""

    ring: RingSpec
    rows: int
    cols: int
    data: IntRows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, rows: list[list[int]] | IntRows, cols: int | None = None) -> "ExactMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("matrix data does not match declared shape")
        m = ring.modulus
        data = tuple(tuple(x % m for x in r) for r in rows) if m else tuple(tuple(r) for r in rows)
        return ExactMatrix(ring, len(rows), cols, data)

    @staticmethod
    def from_cols(ring: RingSpec, cols: list[list[int]], rows: int) -> "ExactMatrix":
        if any(len(c) != rows for c in cols):
            raise ValueError("matrix data does not match declared shape")
        m = ring.modulus
        if not cols:
            data = ((),) * rows
        elif m:
            data = tuple(tuple(x % m for x in r) for r in zip(*cols))
        else:
            data = tuple(zip(*cols))
        return ExactMatrix(ring, rows, len(cols), data)

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "ExactMatrix":
        return ExactMatrix(ring, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(ring, rows, cols, tuple((0,) * cols for _ in range(rows)))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("matrix product shape/ring mismatch")
        if self.cols == 0 or other.cols == 0:
            return ExactMatrix.zeros(self.ring, self.rows, other.cols)
        red = self.ring.reduce
        ocols = list(zip(*other.data))
        out = tuple(
            tuple(red(sum(a * b for a, b in zip(r, c))) for c in ocols)
            for r in self.data
        )
        return ExactMatrix(self.ring, self.rows, other.cols, out)

    def apply(self, vec: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        """Matrix @ column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        red = self.ring.reduce
        return tuple(red(sum(a * b for a, b in zip(r, vec))) for r in self.data)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("matrix sum shape/ring mismatch")
        red = self.ring.reduce
        return ExactMatrix(
            self.ring, self.rows, self.cols,
            tuple(tuple(red(a + b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        red = self.ring.reduce
        return ExactMatrix(self.ring, self.rows, self.cols, tuple(tuple(red(-x) for x in r) for r in self.data))

    def scale(self, c: int) -> "ExactMatrix":
        red = self.ring.reduce
        return ExactMatrix(self.ring, self.rows, self.cols, tuple(tuple(red(c * x) for x in r) for r in self.data))

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows or self.ring != other.ring:
            raise ValueError("hstack shape/ring mismatch")
        return ExactMatrix(self.ring, self.rows, self.cols + other.cols,
                           tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)))

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols or self.ring != other.ring:
            raise ValueError("vstack shape/ring mismatch")
        return ExactMatrix(self.ring, self.rows + other.rows, self.cols, self.data + other.data)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.data) + "]"


def block_diag(ring: RingSpec, blocks: list[ExactMatrix]) -> ExactMatrix:
    cols = sum(b.cols for b in blocks)
    rows = []
    left = 0
    for b in blocks:
        pad_l, pad_r = (0,) * left, (0,) * (cols - left - b.cols)
        rows.extend(pad_l + r + pad_r for r in b.data)
        left += b.cols
    return ExactMatrix(ring, len(rows), cols, tuple(rows))


# ---------------------------------------------------------------------------
# Integer Smith normal form with full transforms
# ---------------------------------------------------------------------------


def _identity_list(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_int(a: IntRows, nrows: int, ncols: int):
    """Smith normal form of an integer matrix.

    Returns ``(U, Uinv, D, V)`` as tuples with ``U @ A @ V == D``,
    U, V unimodular, D diagonal with a divisibility chain and zeros last.
    Pivoting: smallest nonzero absolute value, ties broken by lowest
    (row, column) index, so the output is deterministic.  Not cached: the
    transforms are large and callers read only a small part of them, which
    they cache themselves.
    """
    d = [list(r) for r in a]
    u = _identity_list(nrows)
    uinv = _identity_list(nrows)
    v = _identity_list(ncols)

    def swap_rows(i, j):
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        di, dj = d[i], d[j]
        for k in range(ncols):
            di[k] += q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(nrows):
            ui[k] += q * uj[k]
        for r in uinv:
            r[j] -= q * r[i]

    def add_col(j, i, q):
        # col_j += q * col_i
        if q == 0:
            return
        for r in d:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    n = min(nrows, ncols)
    t = 0
    while t < n:
        # locate pivot: smallest |entry| != 0 in the trailing submatrix
        best = None
        for i in range(t, nrows):
            di = d[i]
            for j in range(t, ncols):
                x = di[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
        if best is None:
            break
        swap_rows(best[1], t)
        swap_cols(best[2], t)

        while True:
            col_clean = all(d[i][t] == 0 for i in range(t + 1, nrows))
            row_clean = all(d[t][j] == 0 for j in range(t + 1, ncols))
            if col_clean and row_clean:
                break
            if not col_clean:
                # euclidean clearing of column t; remainder swaps shrink the
                # pivot, so this terminates
                for i in range(t + 1, nrows):
                    while d[i][t]:
                        q = d[i][t] // d[t][t]
                        add_row(i, t, -q)
                        if d[i][t]:
                            swap_rows(i, t)
                continue
            for j in range(t + 1, ncols):
                while d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(j, t)
        # enforce divisibility of the remaining block by the pivot
        piv = d[t][t]
        bad = None
        for i in range(t + 1, nrows):
            di = d[i]
            for j in range(t + 1, ncols):
                if di[j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue  # redo the clearing at the same t
        if piv < 0:
            negate_row(t)
        t += 1

    to_t = lambda m_: tuple(tuple(r) for r in m_)
    return to_t(u), to_t(uinv), to_t(d), to_t(v)


def _rank_of_diag(d: IntRows, nrows: int, ncols: int) -> int:
    r = 0
    for i in range(min(nrows, ncols)):
        if d[i][i]:
            r += 1
        else:
            break
    return r


# ---------------------------------------------------------------------------
# Solving and kernels
# ---------------------------------------------------------------------------


def _lifted(a: ExactMatrix) -> tuple[IntRows, int, int]:
    """Integer lift; over Z/m the columns ``m * e_i`` are adjoined so that
    solvability over Z of the lift matches solvability mod m."""
    if not a.ring.is_modular:
        return a.data, a.rows, a.cols
    m = a.ring.modulus
    data = tuple(
        tuple(a.data[i]) + tuple(m if j == i else 0 for j in range(a.rows))
        for i in range(a.rows)
    )
    return data, a.rows, a.cols + a.rows


def _kernel_int(data: IntRows, nrows: int, ncols: int) -> list[tuple[int, ...]]:
    _u, _uinv, d, v = _snf_int(data, nrows, ncols)
    rank = _rank_of_diag(d, nrows, ncols)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(rank, ncols)]


def solve_linear(a: ExactMatrix, b: tuple[int, ...] | list[int], k: int | None = None) -> tuple[int, ...] | None:
    """The first ``k`` entries (all of them by default) of the canonical
    solution ``x`` of ``A x = b`` over the matrix's ring, as a tuple; ``None``
    when unsolvable.

    The canonical solution is the representative, reduced by
    :func:`reduce_mod_lattice`, of the coset of solutions modulo the solution
    lattice of ``A x = 0``.  It is deterministic and independent of
    elimination internals, and for every k its first k entries are the
    canonical representative modulo that lattice's projection to the first k
    coordinates.

    ``(b; 0)`` is reduced against the Hermite form of the graph lattice
    spanned by the columns of ``[A; -I_k 0]`` (and ``m * Z^(rows+k)`` over
    Z/m), cached on ``(A, k)``: ``b`` is reachable exactly when the top rows
    reduce to zero, and the bottom rows are then the first k entries of the
    canonical solution.  The identity rows of the unknowns past k are left out: a
    column Hermite form is zero above each pivot, so its first ``rows + k``
    rows are the Hermite form of the full graph's projection to those rows,
    and the pivots below them never touch the entries read.  No Smith form
    is built.  The library solves only through ``modules.lift``.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    n = a.cols
    k = n if k is None else k
    if not 0 <= k <= n:
        raise ValueError("number of unknowns out of range")
    v = _reduce_by_pivots([int(t) for t in b] + [0] * k, _hermite_cols(a.data, a.ring.modulus or 0, k)[0])
    if any(v[: a.rows]):
        return None
    return tuple(v[a.rows:])


def kernel_columns(a: ExactMatrix) -> ExactMatrix:
    """Columns generating ``{x : A x = 0}`` over the ring.

    Over Z the columns form a lattice basis; over Z/m they are a generating
    set (projections of an integer kernel basis of the lifted matrix).
    Zero and duplicate columns are dropped; order is deterministic.  Not
    cached: its callers, ``modules._preimage``, ``ext.free_resolution`` and
    ``ext._syzygy3``, cache what they build from it.
    """
    data, nr, nc = _lifted(a)
    cols = _kernel_int(data, nr, nc)
    red = a.ring.reduce
    seen = set()
    out = []
    for cvec in cols:
        c = tuple(red(t) for t in cvec[: a.cols])
        if any(c) and c not in seen:
            seen.add(c)
            out.append(c)
    out.sort(key=lambda c: (sum(1 for t in c if t), c))
    return ExactMatrix.from_cols(a.ring, [list(c) for c in out], a.cols)


def smith_lattice(a: ExactMatrix) -> tuple[tuple[int, ...], IntRows, IntRows]:
    """``(diagonal, U, U^-1)`` of the Smith form ``U A V = D`` of the column
    lattice of ``a`` (over Z/m, of its lift with ``m * identity`` adjoined).

    ``diagonal`` holds the nonzero Smith entries, so its length is the rank.
    Not cached: its callers, ``modules._structure`` and ``modules.simplify``,
    cache what they build from it.
    """
    data, nr, nc = _lifted(a)
    u, uinv, d, _v = _snf_int(data, nr, nc)
    rank = _rank_of_diag(d, nr, nc)
    return tuple(d[i][i] for i in range(rank)), u, uinv


# ---------------------------------------------------------------------------
# Echelon (column Hermite) bases: span membership, canonical coset representatives
# ---------------------------------------------------------------------------


def _echelon_start(nrows: int, m: int) -> list[list[int] | None]:
    """Echelon basis of the zero lattice over Z (``m == 0``), or of
    ``m * Z^nrows`` over Z/m: the relations that lifting to Z adjoins."""
    if not m:
        return [None] * nrows
    return [[m if i == r else 0 for i in range(nrows)] for r in range(nrows)]


def _echelon_insert(basis: list[list[int] | None], vec: tuple[int, ...] | list[int], m: int) -> bool:
    """Add the column ``vec`` to the lattice with echelon basis ``basis``.

    ``basis[r]`` is ``None`` or the basis column with its pivot in row r:
    zero above r, positive at r.  ``vec`` is divided down the pivot rows;
    where a pivot does not divide it, the two columns are replaced by their
    xgcd combination, whose new pivot is the gcd, and the remainder goes on
    down.  Changed columns are then reduced against the later pivots.  Over
    Z/m every row has a pivot, each pivot divides m and the remainder is
    kept mod m, so every other entry stays below m.  Returns False, leaving
    ``basis`` untouched, exactly when ``vec`` already lies in the lattice.
    """
    v = [t % m for t in vec] if m else list(vec)
    changed = []
    for r in range(len(v)):
        x = v[r]
        if not x:
            continue
        c = basis[r]
        if c is None:
            basis[r] = v if x > 0 else [-t for t in v]
            changed.append(r)
            break
        p = c[r]
        q, rem = divmod(x, p)
        if rem:
            g, s, t = xgcd(p, x)
            pg, xg = p // g, x // g
            basis[r] = [s * a + t * b for a, b in zip(c, v)]
            v = [pg * b - xg * a for a, b in zip(c, v)]
            changed.append(r)
        else:
            v = [b - q * a for a, b in zip(c, v)]
        if m:
            v = [b % m for b in v]
    for r in changed:
        _reduce_below(basis, r)
    return bool(changed)


def _reduce_below(basis: list[list[int] | None], r: int) -> None:
    """Reduce the entries of ``basis[r]`` at each later pivot row s into
    ``range(basis[s][s])``, in increasing s."""
    c = basis[r]
    for s in range(r + 1, len(c)):
        b = basis[s]
        if b is not None and c[s]:
            q = c[s] // b[s]
            if q:
                for i in range(s, len(c)):
                    c[i] -= q * b[i]


def shrink_generators(a: ExactMatrix) -> ExactMatrix:
    """Drop columns lying in the span of the columns kept so far.

    Greedy and deterministic; used to keep presentations and kernel
    generating sets small before they feed into resolutions.  Span
    membership is read off one echelon basis of the kept span, grown a
    column at a time by :func:`_echelon_insert`; no Smith form is built.
    """
    m = a.ring.modulus or 0
    basis = _echelon_start(a.rows, m)
    kept = [c for c in a.columns() if _echelon_insert(basis, c, m)]
    return ExactMatrix.from_cols(a.ring, kept, a.rows)


@lru_cache(maxsize=CACHE_SIZE)
def _hermite_cols(data: IntRows, m: int, k: int):
    """Canonical column Hermite form of the lattice spanned by the columns
    of the graph ``[A; -I_k 0]`` of the matrix ``A`` with rows ``data`` (and,
    when ``m`` is nonzero, by ``m * e_i``), with the lattice's order.  With
    ``k == 0`` the graph is ``A`` itself; the graph is built only on a miss.

    Returns ``(pivots, order)``.  ``pivots`` lists the pivot columns
    ``(pivot_row, column)`` with strictly increasing pivot rows, positive
    pivots, and entries below each pivot row reduced modulo the later pivots.
    ``order`` is ``|Z^n / L|``, the product of the pivots, or ``None`` when
    some row has no pivot and the quotient is infinite.
    """
    nrows = len(data) + k
    basis = _echelon_start(nrows, m)
    # with no rows, A's columns are empty; only the k graph columns count
    for j, col in enumerate(zip(*data) if data else [()] * k):
        _echelon_insert(basis, col + ((0,) * j + (-1,) + (0,) * (k - 1 - j) if j < k else (0,) * k), m)
    pivots = [(r, c) for r, c in enumerate(basis) if c is not None]
    for r, _c in pivots:
        _reduce_below(basis, r)
    order = prod(c[r] for r, c in pivots) if len(pivots) == nrows else None
    return tuple((r, tuple(c)) for r, c in pivots), order


def reduce_mod_lattice(vec: tuple[int, ...] | list[int], lattice: ExactMatrix) -> tuple[int, ...]:
    """Canonical representative of ``vec`` modulo the integer column lattice.

    Over Z/m the lattice also holds ``m * Z^n``, so representatives are
    canonical mod m as well.
    """
    if len(vec) != lattice.rows:
        raise ValueError("vector length mismatch")
    # over Z/m every row has a pivot dividing m, so the result is already reduced
    pivots = _hermite_cols(lattice.data, lattice.ring.modulus or 0, 0)[0]
    return tuple(_reduce_by_pivots([int(t) for t in vec], pivots))


def _reduce_by_pivots(v: list[int], pivots) -> list[int]:
    """Reduce ``v`` in place against Hermite pivot columns, in row order, so
    that each pivot row ends in ``range(pivot)``."""
    for row, col in pivots:
        q = v[row] // col[row]
        if q:
            for i in range(row, len(v)):
                v[i] -= q * col[i]
    return v


def lattice_pivot_profile(lattice: ExactMatrix) -> tuple[tuple[int, int], ...]:
    """Pivot (row, value) pairs of the canonical Hermite form; the canonical
    representatives produced by :func:`reduce_mod_lattice` range over
    ``0 <= v[row] < value`` at the pivot rows and are unconstrained elsewhere
    (over Z) -- everything over Z/m has full pivot structure."""
    pivots = _hermite_cols(lattice.data, lattice.ring.modulus or 0, 0)[0]
    return tuple((r, c[r]) for r, c in pivots)


def lattice_order(lattice: ExactMatrix) -> int | None:
    """``|ring^n / span(lattice)|``, kept with the cached Hermite form; always
    finite over Z/m, ``None`` over Z when the quotient is infinite."""
    return _hermite_cols(lattice.data, lattice.ring.modulus or 0, 0)[1]
