"""Exact dense linear algebra over Z and Z/m.

Smith normal form, kernel computation, canonical coset representatives (via
column Hermite form) and the linear solver under ``modules.lift``, the
library's one solve path.  All arithmetic uses Python's arbitrary-precision
integers; intermediate Smith-form entries can grow well past machine width
and overflow would be a correctness bug, not a performance issue.

Each kernel does only the arithmetic its callers read.  The Smith form
carries only the transforms its caller names, since its pivot choices read
the diagonal alone: :func:`kernel_columns` carries the rows of V for the
matrix's own columns, ``modules.simplify`` carries U and U^-1, and
``modules._structure`` the diagonal alone.

Over Z/m, kernels and Smith data lift the matrix to Z and adjoin
``m * identity`` columns.  Span membership (:func:`shrink_generators`), the
Hermite form and solving lift nothing: they grow one echelon basis a column
at a time from the lattice ``m * Z^n``; its pivots divide m and its other
entries stay below m.  A row whose pivot is still the adjoined ``m * e_r``
is implicit, never written out as a column: an elimination step against it
changes one entry, and only the Hermite form that :func:`_hermite_cols`
returns writes it out.  A solve reduces ``(b; 0)`` against the cached
Hermite form of the relations ``R`` beside the graph ``[A; -I]`` and returns
the canonical solution.

Caches keep only what callers read, each bounded at :data:`CACHE_SIZE`
entries.  The one Hermite cache is keyed on ``(R, A, m, k)``: the lattice
spanned by ``[R; 0]`` and by the graph ``[A; -I_k 0]``.  With no A the entry
is R's own form; any other entry resumes from that one, so only A's columns
are inserted, and an order-only entry (``k`` is ``None``) keeps the order
alone.  Each entry is canonical for its key, so eviction never changes an
answer.  Kernels and Smith transforms are never kept here; the one caller
of :func:`kernel_columns`, ``modules._preimage``, caches what it builds
from it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from operator import add, mul

from .rings import RingSpec, xgcd

IntRows = tuple[tuple[int, ...], ...]

# the one bound on every engine cache (here, in ``modules`` and in ``ext``)
CACHE_SIZE = 4096


class ExactMatrix:
    """Immutable dense matrix over a :class:`RingSpec`, row-major entries.
    :meth:`from_rows` and :meth:`from_cols` are the checked entries for outside
    data; the plain constructor, used by the operations below, checks nothing.

    A value type built with plain slot stores: equality is by value on every
    field (an object equals itself at once), and the hash is computed on first
    use and kept.  Nothing assigns to a field after ``__init__``; a test scans
    the sources for such stores in place of a run-time guard, which would cost
    every build and every field read."""

    __slots__ = ("ring", "rows", "cols", "data", "_hash")

    def __init__(self, ring: RingSpec, rows: int, cols: int, data: IntRows):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and self.data == other.data
                and self.ring == other.ring)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ring, self.rows, self.cols, self.data))
        return h

    def __reduce__(self):
        # the kept hash reads the ring's, which differs between processes
        return ExactMatrix, (self.ring, self.rows, self.cols, self.data)

    def __repr__(self) -> str:
        return f"ExactMatrix(ring={self.ring!r}, rows={self.rows!r}, cols={self.cols!r}, data={self.data!r})"

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
            data = tuple([tuple([x % m for x in r]) for r in zip(*cols)])
        else:
            data = tuple(zip(*cols))
        return ExactMatrix(ring, rows, len(cols), data)

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "ExactMatrix":
        zeros = (0,) * n
        return ExactMatrix(ring, n, n, tuple([zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)]))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(ring, rows, cols, ((0,) * cols,) * rows)

    # -- access ------------------------------------------------------------

    def col(self, j: int) -> tuple[int, ...]:
        return tuple([r[j] for r in self.data])

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("matrix product shape/ring mismatch")
        if self.cols == 0 or other.cols == 0:
            return ExactMatrix.zeros(self.ring, self.rows, other.cols)
        m = self.ring.modulus
        ocols = list(zip(*other.data))
        if m:
            out = tuple([tuple([sum(map(mul, r, c)) % m for c in ocols]) for r in self.data])
        else:
            out = tuple([tuple([sum(map(mul, r, c)) for c in ocols]) for r in self.data])
        return ExactMatrix(self.ring, self.rows, other.cols, out)

    def apply(self, vec: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        """Matrix @ column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        m = self.ring.modulus
        if m:
            return tuple([sum(map(mul, r, vec)) % m for r in self.data])
        return tuple([sum(map(mul, r, vec)) for r in self.data])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("matrix sum shape/ring mismatch")
        m = self.ring.modulus
        if m:
            data = tuple([tuple([(a + b) % m for a, b in zip(r1, r2)]) for r1, r2 in zip(self.data, other.data)])
        else:
            data = tuple([tuple(map(add, r1, r2)) for r1, r2 in zip(self.data, other.data)])
        return ExactMatrix(self.ring, self.rows, self.cols, data)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        m = self.ring.modulus
        if m:
            data = tuple([tuple([-x % m for x in r]) for r in self.data])
        else:
            data = tuple([tuple([-x for x in r]) for r in self.data])
        return ExactMatrix(self.ring, self.rows, self.cols, data)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows or self.ring != other.ring:
            raise ValueError("hstack shape/ring mismatch")
        return ExactMatrix(self.ring, self.rows, self.cols + other.cols, tuple(map(add, self.data, other.data)))

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols or self.ring != other.ring:
            raise ValueError("vstack shape/ring mismatch")
        return ExactMatrix(self.ring, self.rows + other.rows, self.cols, self.data + other.data)


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
# Integer Smith normal form, carrying only the transforms a caller reads
# ---------------------------------------------------------------------------


def _identity_list(n: int, rows: int | None = None) -> list[list[int]]:
    """The first ``rows`` entries of each row (all n by default) of the
    n x n identity."""
    rows = n if rows is None else rows
    out = [[0] * rows for _ in range(n)]
    for i in range(min(n, rows)):
        out[i][i] = 1
    return out


def _snf_int(a: IntRows, nrows: int, ncols: int, with_u: bool = True, v_rows: int | None = None):
    """Smith normal form ``U @ A @ V == D`` of an integer matrix: U, V
    unimodular, D diagonal with a divisibility chain and zeros last.
    Pivoting: smallest nonzero absolute value, ties broken by lowest
    (row, column) index, so the output is deterministic.

    Returns ``(U, U^-1, diagonal, vcols)`` as the loop keeps them: U and
    U^-1 as lists of rows (``None`` unless ``with_u``), the nonzero entries
    of D (as many as the rank) and the columns of V's first ``v_rows`` rows
    (all of them by default).  Every pivot choice reads D alone, so the loop
    carries only what its caller reads; a column operation updates each row
    of V on its own, so those rows come out as in a full run.
    :func:`kernel_columns` carries V's rows for the matrix's own columns,
    ``smith_lattice`` U and U^-1 for ``modules.simplify`` and the diagonal
    alone for ``modules._structure``.  Not cached: callers cache what they
    build from it.
    """
    d = [list(r) for r in a]
    u = _identity_list(nrows) if with_u else None
    uinv = _identity_list(nrows) if with_u else None
    vc = _identity_list(ncols, v_rows)  # the columns of V's leading rows

    def swap_rows(i, j):
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        if with_u:
            u[i], u[j] = u[j], u[i]
            for r in uinv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in d:
            r[i], r[j] = r[j], r[i]
        vc[i], vc[j] = vc[j], vc[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        if with_u:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            for r in uinv:
                r[j] -= q * r[i]

    def add_col(j, i, q):
        # col_j += q * col_i
        if q == 0:
            return
        for r in d:
            r[j] += q * r[i]
        vc[j] = [x + q * y for x, y in zip(vc[j], vc[i])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if with_u:
            u[i] = [-x for x in u[i]]
            for r in uinv:
                r[i] = -r[i]

    n = min(nrows, ncols)
    t = 0
    while t < n:
        # locate pivot: smallest |entry| != 0 in the trailing submatrix; the
        # first entry of size 1 cannot be beaten
        best = None
        for i in range(t, nrows):
            di = d[i]
            for j in range(t, ncols):
                x = di[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
                        if ax == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        swap_rows(best[1], t)
        swap_cols(best[2], t)

        while True:
            if any(d[i][t] for i in range(t + 1, nrows)):
                # euclidean clearing of column t; remainder swaps shrink the
                # pivot, so this terminates
                for i in range(t + 1, nrows):
                    while d[i][t]:
                        q = d[i][t] // d[t][t]
                        add_row(i, t, -q)
                        if d[i][t]:
                            swap_rows(i, t)
                continue
            if not any(d[t][t + 1:]):
                break
            for j in range(t + 1, ncols):
                while d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(j, t)
        # enforce divisibility of the remaining block by the pivot
        piv = d[t][t]
        if piv != 1 and piv != -1:
            bad = next((i for i in range(t + 1, nrows) if any(x % piv for x in d[i][t + 1:])), None)
            if bad is not None:
                add_row(t, bad, 1)
                continue  # redo the clearing at the same t
        if piv < 0:
            negate_row(t)
        t += 1
    # the loop stops at the first zero pivot, so t is the rank
    return u, uinv, tuple([d[i][i] for i in range(t)]), vc


# ---------------------------------------------------------------------------
# Solving and kernels
# ---------------------------------------------------------------------------


def _lifted(a: ExactMatrix) -> tuple[IntRows, int, int]:
    """Integer lift; over Z/m the columns ``m * e_i`` are adjoined so that
    solvability over Z of the lift matches solvability mod m."""
    if not a.ring.is_modular:
        return a.data, a.rows, a.cols
    m, n = a.ring.modulus, a.rows
    zeros = (0,) * n
    data = tuple([r + zeros[:i] + (m,) + zeros[i + 1:] for i, r in enumerate(a.data)])
    return data, n, a.cols + n


def solve_linear(a: ExactMatrix, b: tuple[int, ...] | list[int], k: int | None = None,
                 relations: ExactMatrix | None = None) -> tuple[int, ...] | None:
    """The first ``k`` entries (all of them by default) of the canonical
    solution ``x`` of ``A x = b`` over the matrix's ring, read modulo the
    column span of ``relations`` (none by default), as a tuple; ``None``
    when unsolvable.

    The canonical solution is the representative, reduced by
    :func:`reduce_mod_lattice`, of the coset of solutions ``x`` of ``A x + R
    y = b`` modulo the projection to x of the solution lattice of ``A x + R y
    = 0``.  It is deterministic and independent of elimination internals,
    and for every k its first k entries are the canonical representative
    modulo that lattice's projection to the first k coordinates.

    ``(b; 0)`` is reduced against the Hermite form of the lattice spanned by
    the columns of ``[R; 0]`` and of the graph ``[A; -I_k 0]`` (and ``m *
    Z^(rows+k)`` over Z/m), cached on ``(R, A, m, k)`` and resumed from R's
    own cached form, so a miss inserts only A's columns: ``b`` is reachable
    exactly when the top rows reduce to zero, and the bottom rows are then
    the first k entries of the canonical solution.  The slack unknowns y and
    the unknowns past k get no identity rows: a column Hermite form is zero
    above each pivot, so its first ``rows + k`` rows are the Hermite form of
    the full graph's projection to those rows, and the pivots below them
    never touch the entries read.  No Smith form is built and no hstack of
    A and R either.  The library solves only through ``modules.lift``.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    if relations is None:
        relations = ExactMatrix.zeros(a.ring, a.rows, 0)
    elif relations.rows != a.rows or relations.ring != a.ring:
        raise ValueError("relation matrix shape/ring mismatch")
    n = a.cols
    k = n if k is None else k
    if not 0 <= k <= n:
        raise ValueError("number of unknowns out of range")
    v = _reduce_by_pivots([int(t) for t in b] + [0] * k, _span_form(relations, a, k)[0])
    if any(v[: a.rows]):
        return None
    return tuple(v[a.rows:])


def kernel_columns(a: ExactMatrix) -> ExactMatrix:
    """Columns generating ``{x : A x = 0}`` over the ring.

    Over Z the columns form a lattice basis; over Z/m they are a generating
    set (projections of an integer kernel basis of the lifted matrix).
    Zero and duplicate columns are dropped; order is deterministic.  The
    Smith form carries only the first ``a.cols`` rows of V, the rows read
    here, and neither U nor U^-1.  Not cached: its one caller,
    ``modules._preimage``, caches what it builds from it.
    """
    data, nr, nc = _lifted(a)
    _u, _uinv, diag, vcols = _snf_int(data, nr, nc, False, a.cols)
    m = a.ring.modulus
    seen = set()
    out = []
    for c in vcols[len(diag):]:
        c = tuple([t % m for t in c]) if m else tuple(c)
        if any(c) and c not in seen:
            seen.add(c)
            out.append(c)
    out.sort(key=lambda c: (len(c) - c.count(0), c))
    return ExactMatrix(a.ring, a.cols, len(out), tuple(zip(*out)) if out else ((),) * a.cols)


def smith_lattice(a: ExactMatrix, with_u: bool = True) -> tuple[tuple[int, ...], list | None, list | None]:
    """``(diagonal, U, U^-1)`` of the Smith form ``U A V = D`` of the column
    lattice of ``a`` (over Z/m, of its lift with ``m * identity`` adjoined),
    as :func:`_snf_int` returns them: the nonzero Smith entries, as many as
    the rank, and U and U^-1 as lists of rows, only ``with_u`` (else
    ``None``); V is never carried.  ``modules.simplify`` reads U and U^-1,
    ``modules._structure`` the diagonal alone.  Not cached: those callers
    cache what they build from it.
    """
    data, nr, nc = _lifted(a)
    u, uinv, diag, _v = _snf_int(data, nr, nc, with_u, 0)
    return diag, u, uinv


# ---------------------------------------------------------------------------
# Echelon (column Hermite) bases: span membership, canonical coset representatives
# ---------------------------------------------------------------------------


def _echelon_insert(basis: list[list[int] | None], vec: tuple[int, ...] | list[int], m: int) -> bool:
    """Add the column ``vec`` to the lattice with echelon basis ``basis``.

    ``basis[r]`` is ``None`` or the basis column with its pivot in row r:
    zero above r, positive at r.  ``[None] * nrows`` is the echelon basis
    of the zero lattice over Z, or of ``m * Z^nrows`` over Z/m: the
    relations that lifting to Z adjoins.  Over Z a ``None`` row has no
    pivot; over Z/m it holds the implicit pivot column ``m * e_r``, which
    this function and :func:`_reduce_below` treat as the single entry m and
    only :func:`_hermite_cols` writes out in the form it returns.

    ``vec`` is divided down the pivot rows; where a pivot does not divide
    it, the two columns are replaced by their xgcd combination, whose new
    pivot is the gcd, and the remainder goes on down.  Both are zero above
    the current row, so each step touches only the rows at and below it;
    against an implicit pivot ``m * e_r`` a step scales the remainder's
    lower rows alone.  Changed columns are then reduced against the later
    pivots.  Over Z/m every row has a pivot, each pivot divides m and the
    remainder is kept mod m, so every other entry stays below m.  Returns
    False, leaving ``basis`` untouched, exactly when ``vec`` already lies in
    the lattice.
    """
    v = [t % m for t in vec] if m else list(vec)
    changed = []
    for r in range(len(v)):
        x = v[r]
        if not x:
            continue
        c = basis[r]
        if c is None:
            if not m:
                basis[r] = v if x > 0 else [-t for t in v]
                changed.append(r)
                break
            # the implicit pivot m * e_r, which never divides 0 < x < m: with
            # t x = g mod m, the pair becomes t v + s m e_r and (m / g) v
            g = gcd(m, x)
            t = pow(x // g, -1, m // g)
            tail = v[r + 1:]
            basis[r] = v[:r] + [g] + [t * b for b in tail]
            changed.append(r)
            if g == 1:
                break  # the remainder m v is 0 mod m
            v[r] = 0
            v[r + 1:] = [m // g * b % m for b in tail]
            continue
        p = c[r]
        q, rem = divmod(x, p)
        if rem:
            g, s, t = xgcd(p, x)
            pg, xg = p // g, x // g
            ct, vt = c[r:], v[r:]
            basis[r] = v[:r] + [s * a + t * b for a, b in zip(ct, vt)]
            v[r:] = [pg * b - xg * a for a, b in zip(ct, vt)]
            changed.append(r)
        else:
            v[r:] = [b - q * a for a, b in zip(c[r:], v[r:])]
        if m:
            v[r + 1:] = [b % m for b in v[r + 1:]]
    for r in changed:
        _reduce_below(basis, r, m)
    return bool(changed)


def _reduce_below(basis: list[list[int] | None], r: int, m: int) -> None:
    """Reduce the entries of ``basis[r]`` at each later pivot row s into
    ``range(pivot)``, in increasing s; an implicit pivot ``m * e_s`` changes
    entry s alone."""
    c = basis[r]
    for s in range(r + 1, len(c)):
        y = c[s]
        if not y:
            continue
        b = basis[s]
        if b is None:
            if m:
                c[s] = y % m
            continue
        q = y // b[s]
        if q:
            c[s:] = [x - q * z for x, z in zip(c[s:], b[s:])]


def shrink_generators(a: ExactMatrix) -> ExactMatrix:
    """Drop columns lying in the span of the columns kept so far.

    Greedy and deterministic; used to keep presentations and kernel
    generating sets small before they feed into resolutions.  Span
    membership is read off one echelon basis of the kept span, grown a
    column at a time by :func:`_echelon_insert`; no Smith form is built.
    """
    m = a.ring.modulus or 0
    basis = [None] * a.rows
    kept = [c for c in a.columns() if _echelon_insert(basis, c, m)]
    return ExactMatrix.from_cols(a.ring, kept, a.rows)


@lru_cache(maxsize=CACHE_SIZE)
def _hermite_cols(rel: IntRows, a: IntRows, m: int, k: int | None):
    """Canonical column Hermite form of the lattice spanned by the columns
    of ``[R; 0]`` for the relations ``R`` with rows ``rel``, of the graph
    ``[A; -I_k 0]`` of the matrix ``A`` with rows ``a`` and, when ``m`` is
    nonzero, of ``m * e_i``, with the lattice's order.  ``a == ()`` stands
    for an A with no columns (or no rows); with it and ``k == 0`` the entry
    is R's own form.  Any other entry resumes from that one, kept in this
    same cache under ``(rel, (), m, 0)``: its columns are padded with k zero
    rows, a written-out ``m * e_r`` turns back into an implicit row, and
    only A's columns are inserted.

    Returns ``(pivots, order)``.  ``pivots`` lists the pivot columns
    ``(pivot_row, column)`` with strictly increasing pivot rows, positive
    pivots, and entries below each pivot row reduced modulo the later pivots.
    ``order`` is ``|Z^n / L|``, the product of the pivots, or ``None`` when
    some row has no pivot and the quotient is infinite.  Over Z/m the rows
    whose pivot is still the implicit ``m * e_r`` are written out only here.
    With ``k`` ``None`` the entry is order-only: the graph has no identity
    rows, ``pivots`` is ``None``, and the final reduction is skipped, since
    the pivots of any echelon basis multiply to the order.
    """
    g = k or 0
    nrows = len(rel) + g
    basis = [None] * nrows
    if a or k != 0:
        pad = [0] * g
        for r, c in _hermite_cols(rel, (), m, 0)[0]:
            if c[r] != m:
                basis[r] = list(c) + pad
        # with no rows, A's columns are empty; only the k graph columns count
        for j, col in enumerate(zip(*a) if a else [()] * g):
            _echelon_insert(basis, col + ((0,) * j + (-1,) + (0,) * (g - 1 - j) if j < g else (0,) * g), m)
    else:
        for col in zip(*rel):
            _echelon_insert(basis, col, m)
    if k is None:
        if not m and None in basis:
            return None, None
        return None, prod(m if c is None else c[r] for r, c in enumerate(basis))
    for r, c in enumerate(basis):
        if c is not None:
            _reduce_below(basis, r, m)
    if m:
        zeros = [0] * nrows
        basis = [zeros[:r] + [m] + zeros[r + 1:] if c is None else c for r, c in enumerate(basis)]
    pivots = tuple((r, tuple(c)) for r, c in enumerate(basis) if c is not None)
    order = prod(c[r] for r, c in pivots) if len(pivots) == nrows else None
    return pivots, order


def _span_form(relations: ExactMatrix, a: ExactMatrix | None = None, k: int | None = 0):
    """The cached :func:`_hermite_cols` entry of ``relations`` beside the
    graph of ``a`` with k unknowns; ``a`` with no columns (or ``None``)
    reads the relations' own form, which also holds their order."""
    m = relations.ring.modulus or 0
    if a is None or not a.cols:
        return _hermite_cols(relations.data, (), m, 0)
    return _hermite_cols(relations.data, a.data, m, k)


def reduce_mod_lattice(vec: tuple[int, ...] | list[int], lattice: ExactMatrix) -> tuple[int, ...]:
    """Canonical representative of ``vec`` modulo the integer column lattice.

    Over Z/m the lattice also holds ``m * Z^n``, so representatives are
    canonical mod m as well.
    """
    if len(vec) != lattice.rows:
        raise ValueError("vector length mismatch")
    # over Z/m every row has a pivot dividing m, so the result is already reduced
    return tuple(_reduce_by_pivots([int(t) for t in vec], _span_form(lattice)[0]))


def _reduce_by_pivots(v: list[int], pivots) -> list[int]:
    """Reduce ``v`` in place against Hermite pivot columns, in row order, so
    that each pivot row ends in ``range(pivot)``."""
    for row, col in pivots:
        q = v[row] // col[row]
        if q:
            v[row:] = [x - q * y for x, y in zip(v[row:], col[row:])]
    return v


def lattice_pivot_profile(lattice: ExactMatrix) -> tuple[tuple[int, int], ...]:
    """Pivot (row, value) pairs of the canonical Hermite form; the canonical
    representatives produced by :func:`reduce_mod_lattice` range over
    ``0 <= v[row] < value`` at the pivot rows and are unconstrained elsewhere
    (over Z) -- everything over Z/m has full pivot structure."""
    return tuple((r, c[r]) for r, c in _span_form(lattice)[0])


def lattice_order(lattice: ExactMatrix) -> int | None:
    """``|ring^n / span(lattice)|``, kept with the cached Hermite form; always
    finite over Z/m, ``None`` over Z when the quotient is infinite."""
    return _span_form(lattice)[1]
