"""Exact linear algebra: Smith form invariants, solving, kernels."""

import copy
import pickle
import re
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import hexext.linalg as linalg
from hexext.linalg import (
    ExactMatrix,
    _snf_int,
    kernel_columns,
    lattice_order,
    lattice_pivot_profile,
    reduce_mod_lattice,
    shrink_generators,
    smith_lattice,
    solve_linear,
)
from hexext.rings import ZZ, RingSpec, Zmod, xgcd

R4 = Zmod(4)


def mat(ring, rows):
    return ExactMatrix.from_rows(ring, rows, len(rows[0]) if rows else 0)


def diagonal(m: ExactMatrix) -> tuple[int, ...]:
    return tuple(m.data[i][i] for i in range(min(m.rows, m.cols)))


def smith_matrices(u, uinv, diag, vcols, rows: int, cols: int):
    """``(U, U^-1, D, V)`` as matrices over Z from what :func:`_snf_int`
    returns: D rebuilt from the diagonal, V from its columns."""
    d = tuple(tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols)) for i in range(rows))
    return (ExactMatrix(ZZ, rows, rows, tuple(map(tuple, u))), ExactMatrix(ZZ, rows, rows, tuple(map(tuple, uinv))),
            ExactMatrix(ZZ, rows, cols, d), ExactMatrix(ZZ, cols, cols, tuple(zip(*vcols))))


def smith(a: ExactMatrix):
    """``(U, U^-1, D, V)`` of the integer Smith form as matrices over Z."""
    return smith_matrices(*_snf_int(a.data, a.rows, a.cols), a.rows, a.cols)


# -- Smith normal form -------------------------------------------------------


def test_snf_2x2_example():
    # invariant factors from gcds of minors: d1 = gcd of entries = 2,
    # d1*d2 = |det| = |2*8 - 4*6| = 8, so D = diag(2, 4)
    a = mat(ZZ, [[2, 4], [6, 8]])
    u, _uinv, d, v = smith(a)
    assert diagonal(d) == (2, 4)
    assert u @ a @ v == d


def test_snf_identity():
    a = ExactMatrix.identity(ZZ, 3)
    assert smith(a)[2] == a


def test_snf_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        a = ExactMatrix.zeros(ZZ, rows, cols)
        u, _uinv, d, v = smith(a)
        assert u @ a @ v == d


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    return mat(ZZ, rows)


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_snf_invariants_random(a):
    u, uinv, d, v = smith(a)
    assert u @ a @ v == d
    assert u @ uinv == ExactMatrix.identity(ZZ, a.rows)
    # V is unimodular iff its own Smith form is the identity
    assert diagonal(smith(v)[2]) == (1,) * a.cols
    diag = diagonal(d)
    seen_zero = False
    for i, x in enumerate(diag):
        assert x >= 0
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zeros must come last"
            if i > 0 and diag[i - 1]:
                assert x % diag[i - 1] == 0
    # off-diagonal zero
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d.data[i][j] == 0


@given(int_matrices(max_dim=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_snf_stable_under_unimodular_shuffle(a, seed):
    import random

    rng = random.Random(seed)
    rows = [list(r) for r in a.data]
    for _ in range(4):
        i, j = rng.randrange(a.rows), rng.randrange(a.rows)
        if i != j:
            q = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    b = mat(ZZ, rows)
    assert diagonal(smith(a)[2]) == diagonal(smith(b)[2])


# -- solving ------------------------------------------------------------------


def test_solve_no_solution_over_z():
    assert solve_linear(mat(ZZ, [[2]]), [3]) is None


def test_solve_mod4_with_kernel():
    a = mat(R4, [[2]])
    sol = solve_linear(a, [2])
    assert sol is not None
    # enumerate Z/4 to cross-check: solutions of 2x = 2 are {1, 3}
    sols = {x for x in range(4) if (2 * x) % 4 == 2}
    assert sol[0] in sols
    kernel = {x for x in range(4) if (2 * x) % 4 == 0}
    spanned = {0}
    gens = kernel_columns(a)
    for j in range(gens.cols):
        g = gens.col(j)[0]
        spanned |= {(g * t) % 4 for t in range(4)}
    assert spanned == kernel


def test_solve_identity():
    a = ExactMatrix.identity(ZZ, 3)
    assert solve_linear(a, [5, -7, 11]) == (5, -7, 11)
    # relations beside the map: 5 and 11 are read modulo 2 and 3
    rels = mat(ZZ, [[2, 0], [0, 0], [0, 3]])
    assert solve_linear(a, [5, -7, 11], rels) == (1, -7, 2)
    for bad in (mat(ZZ, [[2, 0], [0, 3]]), mat(Zmod(4), [[2], [0], [1]])):
        with pytest.raises(ValueError, match="relation"):
            solve_linear(a, [5, -7, 11], bad)
    assert kernel_columns(a).cols == 0


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=40, deadline=None)
def test_solve_and_kernel_brute_force_mod_m(m, data):
    ring = Zmod(m)
    r = data.draw(st.integers(min_value=1, max_value=2))
    c = data.draw(st.integers(min_value=1, max_value=2))
    a = mat(ring, [[data.draw(st.integers(0, m - 1)) for _ in range(c)] for _ in range(r)])
    b = [data.draw(st.integers(0, m - 1)) for _ in range(r)]
    import itertools

    brute = [x for x in itertools.product(range(m), repeat=c)
             if all(sum(a.data[i][j] * x[j] for j in range(c)) % m == b[i] for i in range(r))]
    sol = solve_linear(a, b)
    if not brute:
        assert sol is None
        return
    assert sol is not None and list(sol) in [list(t) for t in brute]
    # the kernel columns must span exactly the brute-force solution set of Ax=0
    kern = [x for x in itertools.product(range(m), repeat=c)
            if all(sum(a.data[i][j] * x[j] for j in range(c)) % m == 0 for i in range(r))]
    spanned = {(0,) * c}
    frontier = [(0,) * c]
    gens = [kernel_columns(a).col(j) for j in range(kernel_columns(a).cols)]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((x + y) % m for x, y in zip(v, g))
                if w not in spanned:
                    spanned.add(w)
                    nxt.append(w)
        frontier = nxt
    assert spanned == set(kern)


def smith_route(a: ExactMatrix, b):
    """Reference: the particular solution read off the lifted Smith form
    ``U A V = D``, or ``None`` when there is none."""
    data, nr, nc = linalg._lifted(a)
    u, _uinv, diag, vcols = _snf_int(data, nr, nc)
    rank = len(diag)
    c = [sum(u[i][k] * b[k] for k in range(nr)) for i in range(nr)]
    if any(c[i] % diag[i] for i in range(rank)) or any(c[rank:]):
        return None
    y = [c[i] // diag[i] for i in range(rank)] + [0] * (nc - rank)
    x = [sum(vcols[k][i] * y[k] for k in range(nc)) for i in range(a.cols)]
    m = a.ring.modulus
    return tuple(v % m for v in x) if m else tuple(x)


@st.composite
def linear_systems(draw):
    ring = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]))
    entries = st.integers(-6, 6) if ring == ZZ else st.integers(0, ring.modulus - 1)
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = mat(ring, [[draw(entries) for _ in range(cols)] for _ in range(rows)]) if rows else ExactMatrix.zeros(ring, 0, cols)
    if draw(st.booleans()):
        b = a.apply([draw(entries) for _ in range(cols)])
    else:  # often unsolvable
        m = ring.modulus
        b = tuple(x % m if m else x for x in [draw(entries) for _ in range(rows)])
    return a, b


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_solve_matches_smith_route(system):
    a, b = system
    ref = smith_route(a, b)
    sol = solve_linear(a, b)
    if ref is None:
        assert sol is None and solve_linear(a, b) is None
        return
    kernel = kernel_columns(a)
    assert sol == solve_linear(a, b) == reduce_mod_lattice(ref, kernel)
    assert a.apply(sol) == b
    # every prefix is canonical modulo the kernel's projection to those rows
    for k in range(a.cols + 1):
        assert sol[:k] == reduce_mod_lattice(ref[:k], ExactMatrix.from_rows(a.ring, kernel.data[:k], kernel.cols))


def test_solve_builds_no_smith_form(monkeypatch):
    calls = []
    work = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda *args: calls.append(args) or work(*args))
    import random

    rng = random.Random(20261018)
    for ring in (ZZ, Zmod(12), Zmod(36)):
        hi = 97 if ring == ZZ else ring.modulus - 1
        # a shape no other test uses, so no cache could hide a call
        a = mat(ring, [[rng.randint(0, hi) for _ in range(11)] for _ in range(5)])
        x = [rng.randint(0, hi) for _ in range(11)]
        sol = solve_linear(a, a.apply(x))
        assert sol is not None and solve_linear(a, a.apply(x)) == sol
    assert calls == []


# -- value semantics -----------------------------------------------------------


def test_rings_are_interned_and_keep_their_messages():
    assert Zmod(7) is Zmod(7) and Zmod(4) is R4 and ZZ is RingSpec("Z")
    assert Zmod(4) != Zmod(8) and ZZ != R4
    assert repr(R4) == "RingSpec(kind='Zmod', modulus=4)" and repr(ZZ) == "RingSpec(kind='Z', modulus=None)"
    for args, message in [(("Z", 4), "ring Z carries no modulus"), (("Zmod", 1), "modulus must be an integer >= 2"),
                          (("Zmod", "4"), "modulus must be an integer >= 2"), (("Q",), "unknown ring kind 'Q'")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            RingSpec(*args)


def test_every_ring_is_its_interned_object():
    # equality of rings is identity, so every way to make a ring must
    # return the one the constructor interned
    assert "__eq__" not in vars(RingSpec) and "__hash__" not in vars(RingSpec)
    for ring in (ZZ, R4, Zmod(9)):
        for made in (RingSpec(ring.kind, ring.modulus), copy.copy(ring), copy.deepcopy(ring),
                     pickle.loads(pickle.dumps(ring))):
            assert made is ring
        a = ExactMatrix.identity(ring, 2)
        assert copy.deepcopy(a).ring is ring and pickle.loads(pickle.dumps(a)) == a


def test_matrices_are_values():
    from hexext.modules import _preimage

    rows = [[1, 2, 3], [0, 2, 1]]
    a, b = mat(R4, rows), mat(R4, rows)
    assert a is not b and a == b and hash(a) == hash(b)
    rels = ExactMatrix.from_cols(R4, [[2, 0]], 2)
    first = _preimage(a, rels)
    hits = _preimage.cache_info().hits
    assert _preimage(b, mat(R4, [[2], [0]])) is first
    assert _preimage.cache_info().hits == hits + 1
    # a difference in ring alone, in cols alone, or in rows alone with no
    # columns makes the matrices unequal
    assert mat(Zmod(8), rows) != a and mat(ZZ, rows) != a
    assert ExactMatrix(R4, 0, 2, ()) != ExactMatrix(R4, 0, 3, ())
    assert ExactMatrix(R4, 2, 0, ()) != ExactMatrix(R4, 3, 0, ())
    assert ExactMatrix.zeros(R4, 2, 0) != ExactMatrix.zeros(R4, 3, 0)
    assert a != (a.ring, a.rows, a.cols, a.data) and (a.ring, a.rows, a.cols, a.data) != a
    assert repr(ExactMatrix(R4, 1, 2, ((1, 3),))) == (
        "ExactMatrix(ring=RingSpec(kind='Zmod', modulus=4), rows=1, cols=2, data=((1, 3),))")


def test_sums_and_negatives_reduce_entrywise():
    for ring in (ZZ, R4, Zmod(9)):
        a, b = mat(ring, [[1, -7, 3], [5, 0, -2]]), mat(ring, [[3, 4, -8], [-5, 6, 2]])
        red = (lambda x: x % ring.modulus) if ring.modulus else (lambda x: x)
        assert (a + b).data == tuple(tuple(red(x + y) for x, y in zip(r, s)) for r, s in zip(a.data, b.data))
        assert (-a).data == tuple(tuple(red(-x) for x in r) for r in a.data)
        assert a - a == ExactMatrix.zeros(ring, 2, 3)


def test_constructors_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="declared shape"):
        ExactMatrix.from_cols(R4, [[1, 2, 3]], 2)
    with pytest.raises(ValueError, match="declared shape"):
        ExactMatrix.from_cols(R4, [[1, 2], [3]], 2)
    with pytest.raises(ValueError, match="declared shape"):
        ExactMatrix.from_cols(R4, [[1, 2], [3, 4, 5]], 2)
    with pytest.raises(ValueError, match="declared shape"):
        ExactMatrix.from_rows(R4, [[1, 2]], 3)
    with pytest.raises(ValueError, match="declared shape"):
        ExactMatrix.from_rows(ZZ, [[1, 2], [3]])
    assert ExactMatrix.from_cols(R4, [[5, -1], [2, 6]], 2).data == ((1, 2), (3, 2))
    assert ExactMatrix.from_rows(ZZ, [[5, -1]], 2).data == ((5, -1),)
    assert ExactMatrix.from_cols(ZZ, [], 3) == ExactMatrix.zeros(ZZ, 3, 0)
    assert ExactMatrix.from_rows(R4, [], 2) == ExactMatrix.zeros(R4, 0, 2)


def test_kernel_examples():
    assert kernel_columns(mat(ZZ, [[1, 0]])).columns() == [(0, 1)]
    assert kernel_columns(mat(R4, [[2]])).columns() == [(2,)]
    assert kernel_columns(mat(ZZ, [[3]])).cols == 0


# -- canonical reduction ------------------------------------------------------


def test_reduce_mod_lattice_canonical():
    lat = mat(ZZ, [[2, 0], [0, 3]])
    assert reduce_mod_lattice((5, 7), lat) == (1, 1)
    assert reduce_mod_lattice((0, 0), lat) == (0, 0)
    # representatives are unique per coset
    seen = {}
    for x in range(-4, 5):
        for y in range(-4, 5):
            rep = reduce_mod_lattice((x, y), lat)
            key = (x % 2, y % 3)
            assert seen.setdefault(key, rep) == rep


def test_solve_canonical_deterministic():
    a = mat(R4, [[2, 2]])
    s1 = solve_linear(a, [0])
    s2 = solve_linear(a, [0])
    assert s1 == s2 == (0, 0)


def test_pivot_profile_counts_cosets():
    lat = mat(ZZ, [[2, 0], [0, 0]])
    prof = lattice_pivot_profile(lat)
    assert prof == ((0, 2),)


# -- span membership ----------------------------------------------------------


def greedy_shrink(a: ExactMatrix) -> ExactMatrix:
    """Reference: keep a column when ``solve_linear`` cannot reach it from
    the columns kept so far."""
    kept: list[list[int]] = []
    for j in range(a.cols):
        c = a.col(j)
        if not any(c):
            continue
        if kept and solve_linear(ExactMatrix.from_cols(a.ring, kept, a.rows), c) is not None:
            continue
        kept.append(list(c))
    return ExactMatrix.from_cols(a.ring, kept, a.rows)


@st.composite
def generator_matrices(draw):
    ring = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]))
    entries = st.integers(-6, 6) if ring == ZZ else st.integers(0, ring.modulus - 1)
    rows = draw(st.integers(0, 4))
    cols = [draw(st.lists(entries, min_size=rows, max_size=rows)) for _ in range(draw(st.integers(0, 6)))]
    # zero and duplicate columns at drawn positions
    for _ in range(draw(st.integers(0, 2))):
        extra = [0] * rows if not cols or draw(st.booleans()) else list(draw(st.sampled_from(cols)))
        cols.insert(draw(st.integers(0, len(cols))), extra)
    return ExactMatrix.from_cols(ring, cols, rows)


@given(generator_matrices())
@settings(max_examples=300, deadline=None)
def test_shrink_generators_matches_greedy_solve(a):
    assert shrink_generators(a) == greedy_shrink(a)


def test_shrink_generators_edge_shapes():
    for ring in (ZZ, Zmod(6)):
        assert shrink_generators(ExactMatrix.zeros(ring, 0, 3)) == ExactMatrix.zeros(ring, 0, 0)
        assert shrink_generators(ExactMatrix.zeros(ring, 3, 0)) == ExactMatrix.zeros(ring, 3, 0)
        assert shrink_generators(ExactMatrix.zeros(ring, 2, 2)) == ExactMatrix.zeros(ring, 2, 0)
    # 3 = 3 * 1 mod 12 and 2 * (1, 5) = (2, 10)
    a = mat(Zmod(12), [[1, 3, 2, 0], [5, 3, 10, 4]])
    assert shrink_generators(a).columns() == [(1, 5), (0, 4)]


def test_shrink_generators_builds_no_smith_form(monkeypatch):
    calls = []
    work = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda *args: calls.append(args) or work(*args))
    # each basis shrink_generators grows, read off the argument it inserts into
    bases = []
    insert = linalg._echelon_insert

    def recording(basis, vec, m):
        if not any(basis is seen for seen in bases):
            bases.append(basis)
        return insert(basis, vec, m)

    monkeypatch.setattr(linalg, "_echelon_insert", recording)
    import random

    rng = random.Random(20240611)
    for ring in (ZZ, Zmod(12), Zmod(36)):
        hi = 97 if ring == ZZ else ring.modulus - 1
        # a shape no other test uses, so no cache could hide a call
        a = mat(ring, [[rng.randint(0, hi) for _ in range(13)] for _ in range(7)])
        shrink_generators(a)
    assert calls == []
    # over Z/m every row keeps a pivot dividing m and every other entry stays
    # below m; a row left as None holds the implicit pivot column m * e_r
    assert len(bases) == 3   # one basis per call
    for m, basis in zip((12, 36), bases[1:]):
        assert any(col is not None for col in basis)
        for r, col in enumerate(basis):
            assert col is None or m % col[r] == 0 and all(0 <= x < m for i, x in enumerate(col) if i != r)


@given(generator_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_hermite_form_is_canonical(a, rnd):
    """Shuffling the columns and appending members of their span leaves the
    Hermite form, and so every coset representative, unchanged."""
    cols = a.columns()
    rnd.shuffle(cols)
    for _ in range(2):
        if cols:
            x, y, k = rnd.choice(cols), rnd.choice(cols), rnd.randint(-2, 2)
            cols.append(tuple(s + k * t for s, t in zip(x, y)))
    b = ExactMatrix.from_cols(a.ring, [list(c) for c in cols], a.rows)
    assert lattice_pivot_profile(a) == lattice_pivot_profile(b)
    vec = tuple(rnd.randint(-20, 20) for _ in range(a.rows))
    assert reduce_mod_lattice(vec, a) == reduce_mod_lattice(vec, b)


@given(generator_matrices())
@settings(max_examples=100, deadline=None)
def test_lattice_order_is_the_smith_product(a):
    diag, _u, _uinv = smith_lattice(a)
    assert lattice_order(a) == (prod(diag) if len(diag) == a.rows else None)


# -- argument checks ------------------------------------------------------------


_A = ExactMatrix.zeros(R4, 2, 3)
_B = ExactMatrix.zeros(R4, 3, 2)
_Z = ExactMatrix.zeros(ZZ, 2, 3)

# each check with a call that fails it and the message it raises
ARGUMENT_CHECKS = {
    "matmul-shape": (lambda: _A @ _A, "matrix product shape/ring mismatch"),
    "matmul-ring": (lambda: _A @ ExactMatrix.zeros(ZZ, 3, 2), "matrix product shape/ring mismatch"),
    "apply-length": (lambda: _A.apply((0, 0)), "vector length mismatch"),
    "add-shape": (lambda: _A + _B, "matrix sum shape/ring mismatch"),
    "add-ring": (lambda: _A + _Z, "matrix sum shape/ring mismatch"),
    "hstack-shape": (lambda: _A.hstack(_B), "hstack shape/ring mismatch"),
    "hstack-ring": (lambda: _A.hstack(_Z), "hstack shape/ring mismatch"),
    "vstack-shape": (lambda: _A.vstack(_B), "vstack shape/ring mismatch"),
    "vstack-ring": (lambda: _A.vstack(_Z), "vstack shape/ring mismatch"),
    "solve-rhs-length": (lambda: solve_linear(_A, (0, 0, 0)), "right-hand side length mismatch"),
    "reduce-vector-length": (lambda: reduce_mod_lattice((0, 0, 0), _A), "vector length mismatch"),
}


@pytest.mark.parametrize("name", list(ARGUMENT_CHECKS))
def test_argument_check_raises_its_typed_error(name):
    call, message = ARGUMENT_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.type is ValueError


# -- reference: the dense echelon insertion -------------------------------------
#
# Each basis column is written out in full and every step runs the column's
# whole height; over Z/m the basis starts as the n written-out columns
# m * e_r.  The column Hermite form of a lattice is unique, so the library's
# kernels must return exactly what this reference returns.


def dense_insert(basis, vec, m):
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
            basis[r] = [s * a + t * b for a, b in zip(c, v)]
            v = [p // g * b - x // g * a for a, b in zip(c, v)]
            changed.append(r)
        else:
            v = [b - q * a for a, b in zip(c, v)]
        if m:
            v = [b % m for b in v]
    for r in changed:
        dense_reduce_below(basis, r)
    return bool(changed)


def dense_reduce_below(basis, r):
    c = basis[r]
    for s in range(r + 1, len(c)):
        b = basis[s]
        if b is not None and c[s]:
            q = c[s] // b[s]
            for i in range(s, len(c)):
                c[i] -= q * b[i]


def dense_start(nrows, m):
    return [[m if i == r else 0 for i in range(nrows)] for r in range(nrows)] if m else [None] * nrows


def dense_hermite(data, m, k):
    nrows = len(data) + k
    basis = dense_start(nrows, m)
    for j, col in enumerate(zip(*data) if data else [()] * k):
        dense_insert(basis, col + ((0,) * j + (-1,) + (0,) * (k - 1 - j) if j < k else (0,) * k), m)
    pivots = [(r, c) for r, c in enumerate(basis) if c is not None]
    for r, _c in pivots:
        dense_reduce_below(basis, r)
    order = prod(c[r] for r, c in pivots) if len(pivots) == nrows else None
    return tuple((r, tuple(c)) for r, c in pivots), order


@st.composite
def graph_inputs(draw):
    """``(A, k)`` for a graph ``[A; -I_k 0]``: 0-row and 0-column shapes,
    duplicate and zero columns, and graphs with k > 0 unknowns."""
    a = draw(generator_matrices())
    return a, draw(st.integers(0, a.cols))


def map_key(a: ExactMatrix):
    """A map's part of the ``_hermite_cols`` key: ``()`` when it has no
    columns."""
    return a.data if a.cols else ()


@given(graph_inputs())
@settings(max_examples=400, deadline=None)
def test_hermite_form_matches_the_dense_insertion(args):
    # the graph beside relations with no columns, and the matrix's own form,
    # which every other entry resumes from
    a, k = args
    m = a.ring.modulus or 0
    no_rels = ((),) * a.rows
    assert linalg._hermite_cols.__wrapped__(no_rels, map_key(a), m, k) == dense_hermite(a.data, m, k)
    assert linalg._hermite_cols.__wrapped__(a.data, (), m, 0) == dense_hermite(a.data, m, 0)


@st.composite
def resumed_inputs(draw):
    """``(R, A, k)``: relations R with zero and duplicate columns beside a
    map A on the same rows, which may repeat R's columns or be zero, and
    every k in ``0..A.cols``; 0-row and 0-column shapes included."""
    rel = draw(generator_matrices())
    entries = st.integers(-6, 6) if rel.ring == ZZ else st.integers(0, rel.ring.modulus - 1)
    cols = [draw(st.lists(entries, min_size=rel.rows, max_size=rel.rows)) for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        pool = [list(c) for c in rel.columns()] + cols
        extra = [0] * rel.rows if not pool or draw(st.booleans()) else draw(st.sampled_from(pool))
        cols.insert(draw(st.integers(0, len(cols))), extra)
    a = ExactMatrix.from_cols(rel.ring, cols, rel.rows)
    return rel, a, draw(st.integers(0, a.cols))


@given(resumed_inputs())
@settings(max_examples=400, deadline=None)
def test_resumed_form_matches_the_dense_graph(args):
    # resuming from R's cached form and inserting only A's columns gives the
    # form of the hstacked graph [A | R; -I_k 0 0]; the order-only entry
    # gives its order, None over Z when infinite
    rel, a, k = args
    m = rel.ring.modulus or 0
    graph = a.hstack(rel).data
    assert linalg._hermite_cols.__wrapped__(rel.data, map_key(a), m, k) == dense_hermite(graph, m, k)
    assert linalg._hermite_cols.__wrapped__(rel.data, map_key(a), m, None) == (None, dense_hermite(graph, m, 0)[1])


@given(generator_matrices())
@settings(max_examples=300, deadline=None)
def test_shrink_generators_keeps_the_dense_insertion_columns(a):
    m = a.ring.modulus or 0
    basis = dense_start(a.rows, m)
    kept = [c for c in a.columns() if dense_insert(basis, c, m)]
    assert shrink_generators(a).columns() == kept


@given(generator_matrices())
@settings(max_examples=200, deadline=None)
def test_selective_smith_matches_the_full_transforms(a):
    # on integer matrices and on the lifts [A | m I] that Z/m callers use
    data, nr, nc = linalg._lifted(a)
    full = _snf_int(data, nr, nc)
    u, uinv, d, v = smith_matrices(*full, nr, nc)
    lifted = ExactMatrix(ZZ, nr, nc, data)
    assert u @ lifted @ v == d and u @ uinv == ExactMatrix.identity(ZZ, nr)
    diag = full[2]
    assert all(x > 0 for x in diag) and all(y % x == 0 for x, y in zip(diag, diag[1:]))
    for v_rows in range(nc + 1):
        # the columns of V's first v_rows rows
        vcols = [list(col[:v_rows]) for col in v.columns()]
        assert _snf_int(data, nr, nc, True, v_rows) == (full[0], full[1], diag, vcols)
        assert _snf_int(data, nr, nc, False, v_rows) == (None, None, diag, vcols)


# -- bounded caches -----------------------------------------------------------


def _engine_caches():
    """``qualified name -> callable`` for every ``cache_info()`` callable in
    the ``hexext`` modules, module-level or on a class defined there."""
    import importlib
    import pkgutil

    import hexext

    out = {}
    for info in pkgutil.iter_modules(hexext.__path__):
        mod = importlib.import_module(f"hexext.{info.name}")
        holders = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                 if isinstance(c, type) and c.__module__ == mod.__name__]
        for ns in holders:
            for name, obj in ns.items():
                if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                    out[f"{info.name}.{name}"] = obj
    return out


def test_every_engine_cache_is_bounded_by_one_cap():
    import functools

    caches = _engine_caches()
    assert set(caches) == {"linalg._hermite_cols", "modules._preimage", "modules._structure",
                           "modules.simplify", "ext.free_resolution", "ext.ext_module",
                           "oracle._tabulate", "oracle._shared_table", "oracle._ext1_walk",
                           "oracle._ext1_classes"}
    # one mechanism: a hand-written memo exposing cache_info() fails here
    assert all(isinstance(fn, functools._lru_cache_wrapper) for fn in caches.values())
    assert {name: fn.cache_info().maxsize for name, fn in caches.items()} == dict.fromkeys(caches, linalg.CACHE_SIZE)
    # Smith transforms and bare kernels are never kept
    assert not hasattr(linalg._snf_int, "cache_info")
    assert not hasattr(kernel_columns, "cache_info")


def test_cached_preimage_is_the_computed_preimage():
    import random

    from hexext.modules import _preimage

    rng = random.Random(20261019)
    _preimage.cache_clear()
    for ring in (ZZ, Zmod(12)):
        hi = 9 if ring == ZZ else ring.modulus - 1
        for rows, cols in [(0, 3), (1, 1), (2, 3), (3, 2), (4, 5)] * 4:
            a = ExactMatrix.from_cols(ring, [[rng.randint(-hi, hi) for _ in range(rows)] for _ in range(cols)], rows)
            rels = ExactMatrix.from_cols(ring, [[rng.randint(-hi, hi) for _ in range(rows)]
                                                for _ in range(rng.randint(0, 2))], rows)
            assert _preimage(a, rels) == _preimage.__wrapped__(a, rels) == _preimage(a, rels)
    assert _preimage(ExactMatrix.zeros(ZZ, 0, 3), ExactMatrix.zeros(ZZ, 0, 0)).columns() == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_graph_kernel_spans_the_smith_preimage():
    # {x : a x in span(R)} read off the graph Hermite form is the lattice the
    # Smith route spans, on every ring and on empty and all-zero shapes
    import random

    from hexext.linalg import _graph_kernel
    from hexext.modules import _first_outside, _preimage

    rng = random.Random(20261022)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (3, 5)]
    for ring in (Zmod(4), Zmod(8), Zmod(12), Zmod(36), ZZ):
        hi = 9 if ring == ZZ else ring.modulus - 1
        for rows, cols in shapes * 3:
            for entries in (lambda: rng.randint(-hi, hi), lambda: 0):
                a = ExactMatrix.from_cols(ring, [[entries() for _ in range(rows)] for _ in range(cols)], rows)
                rels = ExactMatrix.from_cols(ring, [[entries() for _ in range(rows)]
                                                    for _ in range(rng.randint(0, 2))], rows)
                kernel, smith_route = _graph_kernel(a, rels), _preimage(a, rels)
                assert (kernel.rows, kernel.ring) == (cols, ring)
                assert _first_outside(kernel, smith_route) is None and _first_outside(smith_route, kernel) is None
                assert _first_outside(a @ kernel, rels) is None
                assert all(any(c) for c in kernel.columns())
                if ring == ZZ:
                    # a basis: as many columns as the rank of their span
                    assert len(lattice_pivot_profile(kernel)) == kernel.cols
                else:
                    assert all(0 <= x < ring.modulus for row in kernel.data for x in row)


def test_repeated_solve_adds_no_hermite_miss():
    # with and without relations beside the map: the entry keyed on
    # (R, A, m, k) and the R form it resumes from both stay cached
    a = mat(Zmod(12), [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 0]])
    rels = mat(Zmod(12), [[4, 0], [0, 6], [3, 3]])
    b = a.apply([1, 1, 2, 3])
    for relations in (None, rels):
        first = solve_linear(a, b, relations)
        misses = linalg._hermite_cols.cache_info().misses
        assert solve_linear(a, b, relations) == first
        assert linalg._hermite_cols.cache_info().misses == misses
