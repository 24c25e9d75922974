"""Finitely presented modules over Z or Z/m and the constructions between them.

A module is the cokernel of its relation matrix: ``ring^g / span(columns)``.
Elements are coefficient columns over the generators; two columns are equal
iff their difference lies in the relation span, decided by exact linear
algebra.  Quotients and submodules always come with their structural
morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .errors import (
    NonComposableError,
    NotExactError,
    WellDefinednessError,
)
from .linalg import (
    CACHE_SIZE,
    ExactMatrix,
    block_diag,
    kernel_columns,
    lattice_order,
    lattice_pivot_profile,
    reduce_mod_lattice,
    shrink_generators,
    smith_lattice,
    solve_linear,
    _reduce_by_pivots,
    _span_form,
)
from .rings import RingSpec


class PresentedModule:
    """``ring^generators`` modulo the column span of ``relations``.

    The relation matrix defines the module: its ring and its row count are
    the module's ring and generator count, kept in slots of their own so
    that reading them costs a slot read.  Equality and hash are those of
    the matrix."""

    __slots__ = ("ring", "generators", "relations")

    def __init__(self, relations: ExactMatrix):
        self.ring = relations.ring
        self.generators = relations.rows
        self.relations = relations

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.relations == other.relations

    def __hash__(self) -> int:
        return hash(self.relations)

    def __reduce__(self):
        return PresentedModule, (self.relations,)

    def __repr__(self) -> str:
        return f"PresentedModule(relations={self.relations!r})"

    @staticmethod
    def make(ring: RingSpec, generators: int, relation_cols: list[list[int]]) -> "PresentedModule":
        return PresentedModule(ExactMatrix.from_cols(ring, relation_cols, generators))

    @staticmethod
    def zero(ring: RingSpec) -> "PresentedModule":
        return PresentedModule(ExactMatrix.zeros(ring, 0, 0))

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "PresentedModule":
        return PresentedModule(ExactMatrix.zeros(ring, rank, 0))

    @staticmethod
    def cyclic(ring: RingSpec, order: int) -> "PresentedModule":
        """Z/order over Z, or the cyclic Z/m-module killed by ``order``."""
        return PresentedModule.make(ring, 1, [[order]])

    @staticmethod
    def from_invariant_factors(ring: RingSpec, factors: list[int], free_rank: int = 0) -> "PresentedModule":
        g = len(factors) + free_rank
        cols = [[factors[j] if i == j else 0 for i in range(g)] for j in range(len(factors))]
        return PresentedModule.make(ring, g, cols)

    # -- structure ----------------------------------------------------------

    def canonical_rep(self, vec) -> tuple[int, ...]:
        return reduce_mod_lattice(vec, self.relations)

    def invariant_factors(self):
        return _structure(self)[1]

    def free_rank(self) -> int:
        return _structure(self)[0]

    def cardinality(self) -> int | None:
        """The module's order, ``None`` when its free rank is positive."""
        return lattice_order(self.relations)

    def is_isomorphic_to(self, other: "PresentedModule") -> bool:
        return self.ring == other.ring and _structure(self) == _structure(other)

    def elements(self):
        """All canonical coefficient columns (finite modules only)."""
        pivots = lattice_pivot_profile(self.relations)
        if len(pivots) < self.generators:
            raise ValueError("module is infinite; cannot enumerate elements")
        ranges = [range(val) for _row, val in pivots]
        # pivot rows are 0..g-1 in order when the profile is full
        for combo in iproduct(*ranges):
            vec = [0] * self.generators
            for (row, _val), x in zip(pivots, combo):
                vec[row] = x
            yield tuple(vec)


@lru_cache(maxsize=CACHE_SIZE)
def _structure(m: PresentedModule):
    """(free_rank, invariant factors != 1) computed from the Smith form of the
    lifted relation lattice."""
    diag, _u, _uinv = smith_lattice(m.relations, False)
    return (m.generators - len(diag), tuple(x for x in diag if x != 1))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class ModuleMorphism:
    """A matrix on generators (target generators x source generators) that
    maps every source relation into the target relation span.  The
    constructor checks nothing; :func:`hom` is the checked entry for matrices
    from outside the library.

    A value type like :class:`PresentedModule`, compared by all three
    fields; its hash, rarely asked for, is not kept."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedModule, target: PresentedModule, matrix: ExactMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    def __repr__(self) -> str:
        return f"ModuleMorphism(source={self.source!r}, target={self.target!r}, matrix={self.matrix!r})"

    def apply(self, vec) -> tuple[int, ...]:
        return self.matrix.apply(vec)

    def __matmul__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """Composition ``self after other``."""
        if other.target != self.source:
            raise NonComposableError("composition endpoint mismatch")
        return ModuleMorphism(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        if (self.source, self.target) != (other.source, other.target):
            raise NonComposableError("sum endpoint mismatch")
        return ModuleMorphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return self + (-other)

    def __neg__(self) -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, -self.matrix)

    def equals(self, other: "ModuleMorphism") -> bool:
        """Equality as morphisms: the difference sends every generator into
        the target relation span."""
        if (self.source, self.target) != (other.source, other.target):
            return False
        return _first_outside(self.matrix - other.matrix, self.target.relations) is None

    def is_zero(self) -> bool:
        return _first_outside(self.matrix, self.target.relations) is None

    def is_injective(self) -> bool:
        """Counted as ``|B| = |A| |coker f|`` when source and target are
        finite; otherwise the kernel must lie in the source relation span."""
        source, target = lattice_order(self.source.relations), lattice_order(self.target.relations)
        if source is not None and target is not None:
            return target == source * _coker_order(self)
        return _first_outside(preimage_kernel_columns(self), self.source.relations) is None

    def is_surjective(self) -> bool:
        return _coker_order(self) == 1

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()


def _coker_order(f: ModuleMorphism) -> int | None:
    """``|coker f|``; ``None`` when infinite.  It is the order-only Hermite
    entry of the target relations beside f's columns: on a miss it resumes
    from the target relations' cached form and inserts only f's columns,
    with no final reduction and no pivot columns kept.  A map with no
    columns reads the relations' own order."""
    return _span_form(f.target.relations, f.matrix, None)[1]


def _first_outside(cols: ExactMatrix, span: ExactMatrix, beside: ExactMatrix | None = None) -> int | None:
    """Index of the first column of ``cols`` outside the column span of
    ``span`` and ``beside`` over the ring, or ``None`` when every column
    lies inside."""
    if not cols.cols:
        return None
    if cols.rows != span.rows:
        raise ValueError("vector length mismatch")
    pivots = _span_form(span, beside)[0]
    for j, c in enumerate(cols.columns()):
        if any(_reduce_by_pivots(list(c), pivots)):
            return j
    return None


def hom(source: PresentedModule, target: PresentedModule, matrix) -> ModuleMorphism:
    """Checked constructor for outside matrices; raises
    :class:`NonComposableError` when the matrix's ring or shape does not fit
    the endpoints and :class:`WellDefinednessError` when a source relation is
    not respected."""
    if not isinstance(matrix, ExactMatrix):
        matrix = ExactMatrix.from_rows(source.ring, matrix, source.generators)
    if not source.ring == target.ring == matrix.ring:
        raise NonComposableError(
            f"matrix over {matrix.ring} between modules over {source.ring} and {target.ring}")
    if (matrix.rows, matrix.cols) != (target.generators, source.generators):
        raise NonComposableError(f"matrix is {matrix.rows}x{matrix.cols} but the endpoints need "
                                 f"{target.generators}x{source.generators}")
    bad = _first_outside(matrix @ source.relations, target.relations)
    if bad is not None:
        raise WellDefinednessError(bad)
    return ModuleMorphism(source, target, matrix)


def zero_morphism(source: PresentedModule, target: PresentedModule) -> ModuleMorphism:
    return ModuleMorphism(source, target, ExactMatrix.zeros(source.ring, target.generators, source.generators))


@lru_cache(maxsize=CACHE_SIZE)
def _preimage(a: ExactMatrix, relations: ExactMatrix) -> ExactMatrix:
    """Columns spanning ``{x : a x in span(relations)}``: the kernel of
    ``[a | relations]`` cut to its top ``a.cols`` rows, shrunk.  Cached, so
    a repeated kernel, image or submodule reuses the shrunk generators."""
    ker = kernel_columns(a.hstack(relations))
    return shrink_generators(ExactMatrix(a.ring, a.cols, ker.cols, ker.data[: a.cols]))


def preimage_kernel_columns(f: ModuleMorphism) -> ExactMatrix:
    """Columns spanning ``{x in source coords : f(x) = 0 in target}``.

    Includes the source relation directions; this is the kernel of the map
    on coefficient columns, not yet a presented submodule.
    """
    return _preimage(f.matrix, f.target.relations)


def submodule_generated(ambient: PresentedModule, gens: ExactMatrix):
    """The submodule generated by the given coefficient columns, presented on
    those columns, with its inclusion morphism."""
    sub = PresentedModule(_preimage(gens, ambient.relations))
    return sub, ModuleMorphism(sub, ambient, gens)


def morphism_kernel(f: ModuleMorphism):
    """``(ker f, inclusion into the source)``, presented on generators of the
    kernel of the map on coefficient columns.  An injective f, decided by
    the order count of :meth:`ModuleMorphism.is_injective`, has the zero
    module on no generators as its kernel, and nothing is eliminated."""
    if f.is_injective():
        zero = PresentedModule.zero(f.source.ring)
        return zero, zero_morphism(zero, f.source)
    return submodule_generated(f.source, preimage_kernel_columns(f))


def morphism_image(f: ModuleMorphism):
    """``(im f, inclusion into the target, corestriction from the source)``;
    the image is the source modulo ker f, presented on the source generators,
    so the corestriction's matrix is the identity."""
    image = PresentedModule(shrink_generators(f.source.relations.hstack(preimage_kernel_columns(f))))
    return (image, ModuleMorphism(image, f.target, f.matrix),
            ModuleMorphism(f.source, image, ExactMatrix.identity(f.source.ring, f.source.generators)))


# ---------------------------------------------------------------------------
# Sums and pullbacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSum:
    module: PresentedModule
    inject_left: ModuleMorphism
    inject_right: ModuleMorphism
    project_left: ModuleMorphism
    project_right: ModuleMorphism


def direct_sum(a: PresentedModule, b: PresentedModule) -> DirectSum:
    if a.ring != b.ring:
        raise NonComposableError("direct sum over different rings")
    ring = a.ring
    m = PresentedModule(block_diag(ring, [a.relations, b.relations]))
    ia = ExactMatrix.identity(ring, a.generators).vstack(ExactMatrix.zeros(ring, b.generators, a.generators))
    ib = ExactMatrix.zeros(ring, a.generators, b.generators).vstack(ExactMatrix.identity(ring, b.generators))
    pa = ExactMatrix.identity(ring, a.generators).hstack(ExactMatrix.zeros(ring, a.generators, b.generators))
    pb = ExactMatrix.zeros(ring, b.generators, a.generators).hstack(ExactMatrix.identity(ring, b.generators))
    return DirectSum(m, ModuleMorphism(a, m, ia), ModuleMorphism(b, m, ib),
                     ModuleMorphism(m, a, pa), ModuleMorphism(m, b, pb))


@dataclass(frozen=True)
class Pullback:
    module: PresentedModule
    to_left: ModuleMorphism    # pullback -> A
    to_right: ModuleMorphism   # pullback -> B
    inclusion: ModuleMorphism  # pullback -> A (+) B


def pullback(f: ModuleMorphism, g: ModuleMorphism) -> Pullback:
    """``A x_C B`` for ``f : A -> C`` and ``g : B -> C`` with its projections
    and its inclusion into ``A (+) B``."""
    if f.target != g.target:
        raise NonComposableError("pullback legs must share a target")
    w = _preimage(f.matrix.hstack(-g.matrix), f.target.relations)
    ds = direct_sum(f.source, g.source)
    pb, incl = submodule_generated(ds.module, w)
    return Pullback(pb, ds.project_left @ incl, ds.project_right @ incl, incl)


def pullback_factor(pb: Pullback, u: ModuleMorphism, v: ModuleMorphism) -> ModuleMorphism:
    """Factor a commuting cone ``(u : T -> A, v : T -> B)`` through the
    pullback: lift ``(u, v) : T -> A (+) B`` through its inclusion."""
    x = lift(pb.inclusion, u.matrix.vstack(v.matrix))
    if x is None:
        raise NonComposableError("cone does not factor through the pullback")
    return hom(u.source, pb.module, x)


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------


EXACT = "exact"
COMPOSITE_NONZERO = "composite nonzero"
IMAGE_PROPER = "image strictly smaller than kernel"


def exactness_report(maps: list[ModuleMorphism]) -> list[tuple[str, str]]:
    """Position-by-position exactness of ``0 -> A0 -> ... -> An -> 0`` for a
    chain of one or more composable morphisms: ``(position, verdict)`` pairs
    for ``left``, each ``interior i`` and ``right``, with verdicts ``exact``,
    ``composite nonzero`` (image not inside kernel) and ``image strictly
    smaller than kernel``.

    Each position is decided by counting orders read off cached Hermite
    pivots whenever the orders it needs are finite, on either ring:
    ``f : A -> B`` with A and B finite is injective iff ``|B| = |A| |coker
    f|``; every map is surjective iff ``|coker f| = 1``; and, once ``g f =
    0``, ``A -> B -> C`` with B and C finite is exact at B iff ``|coker f|
    |coker g| = |C|`` (``im f`` lies in the finite B, so A may be
    infinite).  No kernel is built.  Over Z/m every module is finite; over
    Z, when a needed order is infinite, the kernel of the map is compared
    with the source relations or with the image of the map before.
    """
    for i in range(len(maps) - 1):
        if maps[i].target != maps[i + 1].source:
            raise NonComposableError(f"maps {i} and {i + 1} do not compose")
    out = [("left", EXACT if maps[0].is_injective() else IMAGE_PROPER)]
    for i in range(len(maps) - 1):
        f, g = maps[i], maps[i + 1]
        comp = g @ f
        if not comp.is_zero():
            out.append((f"interior {i}", COMPOSITE_NONZERO))
            continue
        middle, target = lattice_order(g.source.relations), lattice_order(g.target.relations)
        if middle is not None and target is not None:
            ok = _coker_order(f) * _coker_order(g) == target
        else:
            ok = _first_outside(preimage_kernel_columns(g), f.target.relations, f.matrix) is None
        out.append((f"interior {i}", EXACT if ok else IMAGE_PROPER))
    out.append(("right", EXACT if maps[-1].is_surjective() else IMAGE_PROPER))
    return out


def exactness_violations(name: str, maps: list[ModuleMorphism]) -> list[str]:
    """``name/position: verdict`` for each position of the chain that is not
    exact; empty iff the chain is exact."""
    return [f"{name}/{pos}: {verdict}"
            for pos, verdict in exactness_report(maps) if verdict != EXACT]


@dataclass(frozen=True)
class ShortExactSequence:
    """``0 -> left -> middle -> right -> 0``, defined by its two maps: its
    three objects are the maps' ends.  The constructor checks nothing; it is
    for sequences whose exactness the caller has already established or
    checks right after.  :func:`make_ses` is the checked one."""

    inject: ModuleMorphism
    project: ModuleMorphism

    @property
    def left(self) -> PresentedModule:
        return self.inject.source

    @property
    def middle(self) -> PresentedModule:
        return self.inject.target

    @property
    def right(self) -> PresentedModule:
        return self.project.target


def make_ses(inject: ModuleMorphism, project: ModuleMorphism) -> ShortExactSequence:
    """Validated constructor: the maps compose, inject is injective, project
    surjective, and image = kernel in the middle."""
    for pos, verdict in exactness_report([inject, project]):
        if verdict != EXACT:
            raise NotExactError(f"{pos}: {verdict}")
    return ShortExactSequence(inject, project)


def split_ses(a: PresentedModule, b: PresentedModule) -> ShortExactSequence:
    """``0 -> A -> A (+) B -> B -> 0``; a direct sum, exact by construction."""
    ds = direct_sum(a, b)
    return ShortExactSequence(ds.inject_left, ds.project_right)


# ---------------------------------------------------------------------------
# Hom spaces out of free modules
# ---------------------------------------------------------------------------


def _hom_space(rank: int, p: PresentedModule) -> PresentedModule:
    """Hom(free^rank, P) = P^rank, flattened with index (j, a) -> j*g_P + a."""
    return PresentedModule(block_diag(p.ring, [p.relations] * rank) if rank else ExactMatrix.zeros(p.ring, 0, 0))


def _induced_matrix(d: ExactMatrix, p: PresentedModule, rank_from: int, rank_to: int) -> ExactMatrix:
    """Matrix of ``phi -> phi o d`` on flattened Hom spaces, where
    ``d : free^rank_to -> free^rank_from``."""
    gp = p.generators
    rows = rank_to * gp
    cols = rank_from * gp
    out = [[0] * cols for _ in range(rows)]
    for j in range(rank_to):
        for l in range(rank_from):
            c = d.data[l][j]
            if c:
                for a in range(gp):
                    out[j * gp + a][l * gp + a] = c
    return ExactMatrix(p.ring, rows, cols, tuple(map(tuple, out)))


def _flatten(mat: ExactMatrix) -> ExactMatrix:
    """g_P x rank morphism matrix -> flat Hom-space vector, as one column."""
    gp, rank = mat.rows, mat.cols
    return ExactMatrix(mat.ring, gp * rank, 1, tuple((mat.data[a][j],) for j in range(rank) for a in range(gp)))


def _unflatten(vec, gp: int, rank: int, ring: RingSpec) -> ExactMatrix:
    return ExactMatrix(ring, gp, rank, tuple(tuple(vec[j * gp + a] for j in range(rank)) for a in range(gp)))


# ---------------------------------------------------------------------------
# Lifting and the constrained-morphism solver
# ---------------------------------------------------------------------------


def lift(f: ModuleMorphism, rhs: ExactMatrix) -> ExactMatrix | None:
    """The canonical source columns ``x`` with ``f(x) = rhs`` column by
    column, equality read in ``f``'s target; ``None`` when some column of
    ``rhs`` lies outside ``im(f)``.

    Each column is one solve of ``A x + R y = b`` for ``A = f.matrix`` and
    the target's relations ``R``, which ``solve_linear`` receives beside A,
    so no hstack of the two is built or hashed: the Hermite form of the
    graph is keyed on ``(R, A)`` and resumes from R's own cached form,
    inserting only A's columns.  Only the ``g`` source unknowns ``x`` are
    asked for, so the slack ``y`` gets no rows in the solver's graph.
    Every linear solve of the library goes through here.
    """
    rels = f.target.relations
    g = f.source.generators
    cols = []
    for b in rhs.columns():
        x = solve_linear(f.matrix, b, g, rels)
        if x is None:
            return None
        cols.append(x)
    return ExactMatrix(f.source.ring, g, rhs.cols, tuple(zip(*cols)) if cols else ((),) * g)


def lift_through_inclusion(incl: ModuleMorphism, h: ModuleMorphism) -> ModuleMorphism:
    """The ``l : T -> S`` with ``incl @ l == h`` for injective ``incl`` and
    ``h`` landing inside the image of ``incl``."""
    x = lift(incl, h.matrix)
    if x is None:
        raise NonComposableError("morphism does not land in the submodule")
    return hom(h.source, incl.source, x)


def solve_morphism(source: PresentedModule, target: PresentedModule,
                   pre: list[tuple[ModuleMorphism, ModuleMorphism]] = (),
                   post: list[tuple[ModuleMorphism, ModuleMorphism]] = ()) -> ModuleMorphism | None:
    """Find ``Z : source -> target`` with ``Z @ g == rhs`` for each ``(g, rhs)``
    in ``pre`` and ``p @ Z == rhs`` for each ``(p, rhs)`` in ``post``.

    Well-definedness of ``Z`` is part of the system.  Returns the canonical
    (deterministically reduced) solution or ``None``.
    """
    z = _solve_matrix(source, target, pre, post)
    return None if z is None else hom(source, target, z)


def _solve_matrix(source: PresentedModule, target: PresentedModule,
                  pre: list[tuple[ModuleMorphism, ModuleMorphism]] = (),
                  post: list[tuple[ModuleMorphism, ModuleMorphism]] = ()) -> ExactMatrix | None:
    """The matrix of :func:`solve_morphism`'s canonical solution, or ``None``;
    nothing is checked of it.  Over a free source the system is only the
    pre-constraints, which is how the grid maps of a realized diagram solve
    for their part in P alone (:func:`hexext.diagram._grid_map`)."""
    ring = source.ring
    gs, gt = source.generators, target.generators
    for g_, rhs_m in pre:
        if g_.target != source or rhs_m.target != target or rhs_m.source != g_.source:
            raise NonComposableError("pre-constraint endpoints mismatch")
    for p_, rhs_m in post:
        if p_.source != target or rhs_m.source != source or rhs_m.target != p_.target:
            raise NonComposableError("post-constraint endpoints mismatch")

    # Z is a vector of Hom(free^gs, target).  Precomposing with the source
    # relations (Z well defined: rhs zero) and with each pre-constraint's g is
    # one block; each post-constraint's p acts on Z column by column.
    d, rhs = source.relations, ExactMatrix.zeros(ring, gt, source.relations.cols)
    for g_, rhs_m in pre:
        d, rhs = d.hstack(g_.matrix), rhs.hstack(rhs_m.matrix)
    mat, flat, spaces = _induced_matrix(d, target, gs, d.cols), _flatten(rhs), [_hom_space(d.cols, target)]
    for p_, rhs_m in post:
        mat, flat = mat.vstack(block_diag(ring, [p_.matrix] * gs)), flat.vstack(_flatten(rhs_m.matrix))
        spaces.append(_hom_space(gs, p_.target))
    ambient = PresentedModule(block_diag(ring, [h.relations for h in spaces]))
    z = lift(ModuleMorphism(_hom_space(gs, target), ambient, mat), flat)
    return None if z is None else _unflatten(z.col(0), gt, gs, ring)


# ---------------------------------------------------------------------------
# Presentation simplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Simplified:
    module: PresentedModule
    to_min: ModuleMorphism     # original -> simplified
    from_min: ModuleMorphism   # simplified -> original


@lru_cache(maxsize=CACHE_SIZE)
def simplify(m: PresentedModule) -> Simplified:
    """An isomorphic module on invariant-factor generators, together with the
    isomorphisms both ways.  Keeps downstream resolutions small."""
    ring = m.ring
    diag, u, uinv = smith_lattice(m.relations)
    # the diagonal runs from units through the torsion factors toward zeros
    # over Z and toward m over Z/m, so the free generators come last
    diag = list(diag) + [0] * (m.generators - len(diag))
    keep = [i for i, di in enumerate(diag) if di != 1]
    factors = [di for di in diag if di not in (0, 1, ring.modulus)]
    mod = PresentedModule.from_invariant_factors(ring, factors, len(keep) - len(factors))
    gN = len(keep)
    to_rows = [[u[i][j] for j in range(m.generators)] for i in keep]
    from_rows = [[uinv[i][j] for j in keep] for i in range(m.generators)]
    to_min = ModuleMorphism(m, mod, ExactMatrix.from_rows(ring, to_rows, m.generators))
    from_min = ModuleMorphism(mod, m, ExactMatrix.from_rows(ring, from_rows, gN))
    return Simplified(mod, to_min, from_min)
