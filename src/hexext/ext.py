"""Free resolutions and Ext groups with explicit cocycle representatives.

Ext^i(Q, P) is computed from a free resolution of Q truncated at the depth
the degree needs, as the homology of the induced Hom complex.  Classes carry
representing cocycles (morphisms from a resolution term into P), which is
what makes sequences-from-classes and the downstream middle-object
construction possible; coordinates alone would not suffice.

What the diagram pipeline needs of Ext is here: the class of an exact
sequence (a staircase chase of the resolution) and the cocycle that chase
reads off, the sequence of a degree-1 class, the restriction map along a map
of the first argument, the Ext^2 class of two short exact sequences spliced
through a shared end object, and the cochains Hom(F_k, P) modulo
coboundaries, in which a cocycle is zero exactly when its class is.  The
chased cocycle and the cochains let a caller compare restricted classes as
cocycles, without building the Ext module they live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ArgumentMismatchError, NotExactError
from .linalg import CACHE_SIZE, ExactMatrix, shrink_generators
from .modules import (
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    Simplified,
    lift,
    make_ses,
    preimage_kernel_columns,
    simplify,
    submodule_generated,
    _flatten,
    _hom_space,
    _induced_matrix,
    _unflatten,
)


@dataclass(frozen=True)
class FreeResolution:
    """``F2 --d2--> F1 --d1--> F0 --aug--> M`` with free F_i.

    ``aug`` is the identity on generators, ``d1`` spans the relation columns,
    ``d2`` spans the kernel of ``d1``.  Deeper syzygies are computed on
    demand (degree-2 cohomology needs the kernel of ``d2`` as well).
    """

    target: PresentedModule
    d1: ExactMatrix
    d2: ExactMatrix

    def rank(self, i: int) -> int:
        """The rank of F_i."""
        return self.target.generators if i == 0 else self.differential(i).cols

    def differential(self, i: int) -> ExactMatrix:
        if i == 1:
            return self.d1
        if i == 2:
            return self.d2
        if i == 3:
            return preimage_kernel_columns(_free_map(self.d2))
        raise ValueError(f"no differential at degree {i}")


@lru_cache(maxsize=CACHE_SIZE)
def free_resolution(m: PresentedModule) -> FreeResolution:
    """Each differential below ``d1`` is the shrunk kernel of the one above,
    the preimage of zero that ``modules._preimage`` caches on the matrix, so
    resolutions whose differentials agree share one kernel."""
    d1 = shrink_generators(m.relations)
    return FreeResolution(m, d1, preimage_kernel_columns(_free_map(d1)))


@dataclass(frozen=True)
class ExtModule:
    """Ext^degree(Q, P) as a presented module with a cocycle basis.

    ``cocycles[t]`` is the morphism matrix ``F_degree -> P`` representing the
    t-th presentation generator; ``_basis`` holds the same cocycles
    flattened, as the injective map from the presentation into the cochains
    (:func:`_cochains`), so a class and its cocycle are one product or one
    lift apart.
    """

    degree: int
    q: PresentedModule
    p: PresentedModule
    presentation: PresentedModule
    cocycles: tuple[ExactMatrix, ...]
    resolution: FreeResolution
    _basis: ModuleMorphism

    def class_of_cocycle(self, mat: ExactMatrix) -> "ExtClass":
        coords = lift(self._basis, _flatten(mat))
        if coords is None:
            raise ArgumentMismatchError("matrix is not a cocycle for this Ext module")
        return ExtClass(self, coords.col(0))

    def zero_class(self) -> "ExtClass":
        return ExtClass(self, (0,) * self.presentation.generators)

    def class_from_coords(self, coords) -> "ExtClass":
        return ExtClass(self, tuple(coords))

    def all_classes(self):
        for vec in self.presentation.elements():
            yield ExtClass(self, vec)

    def cardinality(self) -> int | None:
        return self.presentation.cardinality()


@dataclass(frozen=True)
class ExtClass:
    """A class of ``parent``; the constructor reduces ``coords`` to their
    canonical representative, the only place where coordinates are reduced."""

    parent: ExtModule
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.parent.presentation.canonical_rep(self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if other.parent is not self.parent and other.parent != self.parent:
            raise ArgumentMismatchError("classes live in different Ext modules")
        return ExtClass(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def cocycle(self) -> ExactMatrix:
        """A representing morphism matrix ``F_degree -> P``."""
        e = self.parent
        return _unflatten(e._basis.apply(self.coords), e.p.generators, e.resolution.rank(e.degree), e.p.ring)


@lru_cache(maxsize=CACHE_SIZE)
def ext_module(degree: int, q: PresentedModule, p: PresentedModule) -> ExtModule:
    """Ext^degree(Q, P) for degree in {0, 1, 2}: homology of Hom(F., P)."""
    if degree not in (0, 1, 2):
        raise ValueError("only degrees 0, 1, 2 are computed")
    if q.ring != p.ring:
        raise ArgumentMismatchError("arguments over different rings")
    res = free_resolution(q)
    rank_i = res.rank(degree)
    cochains = _cochains(degree, res, p)

    # boundary out of degree: phi -> phi o d_{degree+1}, well defined on
    # cochains modulo coboundaries as d o d = 0
    d_out = res.differential(degree + 1)
    rank_next = d_out.cols
    out_mat = _induced_matrix(d_out, p, rank_i, rank_next)
    out_map = ModuleMorphism(cochains, _hom_space(rank_next, p), out_mat)
    kmat = preimage_kernel_columns(out_map)

    simp: Simplified = simplify(submodule_generated(cochains, kmat)[0])
    basis = kmat @ simp.from_min.matrix
    cocycles = tuple(_unflatten(col, p.generators, rank_i, p.ring) for col in basis.columns())
    return ExtModule(degree, q, p, simp.module, cocycles, res, ModuleMorphism(simp.module, cochains, basis))


def _cochains(degree: int, res: FreeResolution, p: PresentedModule) -> PresentedModule:
    """Hom(F_degree, P), flattened as ``modules._hom_space`` flattens it,
    modulo the coboundaries ``phi o d_degree`` of Hom(F_(degree-1), P) and
    P's relations: the ambient of the homology that :func:`ext_module`
    presents.  A cocycle is zero in it exactly when its class in
    Ext^degree(Q, P) is zero, so two cocycles are compared here without
    building Ext^degree(Q, P)."""
    rank = res.rank(degree)
    h = _hom_space(rank, p)
    if degree == 0:
        return h
    d_in = res.differential(degree)
    return PresentedModule(_induced_matrix(d_in, p, d_in.rows, rank).hstack(h.relations))


# ---------------------------------------------------------------------------
# Classes <-> short exact sequences (degree 1)
# ---------------------------------------------------------------------------


_SES_FAILURES = ("image of the injection does not absorb the chase", "projection is not surjective")


def _chase_cocycle(maps: list[ModuleMorphism], failures: tuple[str, ...], res: FreeResolution) -> ExactMatrix:
    """The degree-k cocycle ``F_k(Q) -> P`` of an exact ``0 -> P -> X_k ->
    ... -> X_1 -> Q -> 0`` given by its k + 1 maps, left to right: lift
    ``res``, the resolution of Q, through the maps from the right (staircase
    chase).  ``failures[i]`` is the message raised when the chase leaves
    the image of ``maps[i]``.  Nothing checks that the result is a cocycle;
    the caller's class or comparison does."""
    q = res.target
    # F0 -> Q is the identity on generators
    step = ExactMatrix.identity(q.ring, q.generators)
    for i, (f, failure) in enumerate(zip(reversed(maps), reversed(failures))):
        if i:
            step = step @ res.differential(i)
        step = lift(f, step)
        if step is None:
            raise NotExactError(failure)
    return step


def _chase(maps: list[ModuleMorphism], failures: tuple[str, ...]) -> ExtClass:
    """The class in Ext^k(Q, P) of the cocycle :func:`_chase_cocycle`
    reads off the k + 1 maps."""
    e = ext_module(len(maps) - 1, maps[-1].target, maps[0].source)
    return e.class_of_cocycle(_chase_cocycle(maps, failures, e.resolution))


def _ses_cocycle(s: ShortExactSequence, res: FreeResolution) -> ExactMatrix:
    """The cocycle ``F1(Q) -> P`` whose class :func:`class_of_ses` gives,
    on ``res``, the resolution of Q."""
    return _chase_cocycle([s.inject, s.project], _SES_FAILURES, res)


def class_of_ses(s: ShortExactSequence) -> ExtClass:
    """The class of ``0 -> P -> X -> Q -> 0`` in Ext^1(Q, P)."""
    return _chase([s.inject, s.project], _SES_FAILURES)


def ses_of_class(c: ExtClass) -> ShortExactSequence:
    """Realize a degree-1 class as ``0 -> P -> X -> Q -> 0`` with the middle
    presented on ``P (+) F0`` with relations twisted by a representing
    cocycle."""
    if c.parent.degree != 1:
        raise ArgumentMismatchError("only degree-1 classes are realizable as short exact sequences")
    return ses_of_cocycle(c.parent, c.cocycle())


def ses_of_cocycle(e: ExtModule, phi: ExactMatrix) -> ShortExactSequence:
    """Realize an explicit degree-1 cocycle (any representative will do)."""
    p, q, res = e.p, e.q, e.resolution
    ring = p.ring
    gp, f0, f1 = p.generators, res.rank(0), res.rank(1)
    cols = []
    for j in range(p.relations.cols):
        cols.append(list(p.relations.col(j)) + [0] * f0)
    for j in range(f1):
        cols.append([-x for x in phi.col(j)] + list(res.d1.col(j)))
    x = PresentedModule.make(ring, gp + f0, cols)
    inj = ModuleMorphism(p, x, ExactMatrix.identity(ring, gp).vstack(ExactMatrix.zeros(ring, f0, gp)))
    proj = ModuleMorphism(x, q, ExactMatrix.zeros(ring, q.generators, gp).hstack(ExactMatrix.identity(ring, f0)))
    return make_ses(inj, proj)


# ---------------------------------------------------------------------------
# Restriction along a map of the first argument
# ---------------------------------------------------------------------------


def _free_map(d: ExactMatrix) -> ModuleMorphism:
    """A differential of a resolution as a morphism between free modules."""
    return ModuleMorphism(PresentedModule.free(d.ring, d.cols), PresentedModule.free(d.ring, d.rows), d)


def chain_map(res_from: FreeResolution, res_to: FreeResolution, f: ModuleMorphism, depth: int):
    """Lift ``f : M -> N`` to a chain map between resolutions, up to the given
    depth.  ``maps[i] : F_i(M) -> F_i(N)`` with ``d o maps[i] = maps[i-1] o d``."""
    maps = [f.matrix]  # F0 = generators, aug = identity on both sides
    for i in range(1, depth + 1):
        step = lift(_free_map(res_to.differential(i)), maps[i - 1] @ res_from.differential(i))
        if step is None:
            raise ArgumentMismatchError("chain map lift failed; resolution invariant broken")
        maps.append(step)
    return maps


def restriction(e: ExtModule, f: ModuleMorphism) -> ModuleMorphism:
    """``f^* : Ext^k(Q, P) -> Ext^k(Q', P)`` for ``f : Q' -> Q``: one chain
    lift of ``f``, composed with each generating cocycle of ``e``.  The map
    is well defined by construction, so it is not checked here."""
    if f.target != e.q:
        raise ArgumentMismatchError("restriction needs a map into the module's Q")
    e2 = ext_module(e.degree, f.source, e.p)
    lifted = chain_map(e2.resolution, e.resolution, f, e.degree)[e.degree]
    cols = [list(e2.class_of_cocycle(phi @ lifted).coords) for phi in e.cocycles]
    return ModuleMorphism(e.presentation, e2.presentation,
                          ExactMatrix.from_cols(e.p.ring, cols, e2.presentation.generators))


# ---------------------------------------------------------------------------
# Yoneda products into Ext^2
# ---------------------------------------------------------------------------


def yoneda_product_of_ses(s_left: ShortExactSequence, s_right: ShortExactSequence) -> ExtClass:
    """The Ext^2 class of ``0->P->A->S->0`` spliced with ``0->S->B->Q->0``
    through the shared S: the chase of ``0 -> P -> A -> B -> Q -> 0``.  That
    sequence is exact because both short ones are, so nothing is re-checked
    here."""
    if s_left.right != s_right.left:
        raise ArgumentMismatchError("splice needs a shared end object")
    return _chase([s_left.inject, s_right.inject @ s_left.project, s_right.project],
                  ("chase left the image of the injection", "chase left the image of the middle map",
                   "two-extension projection is not surjective"))
