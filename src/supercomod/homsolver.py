"""Morphism spaces between truncated comodules, and the derived
constructions built from them: kernels, images, cokernels, equalizers,
exactness reports and isomorphism verdicts.

A degree-preserving linear map f: M -> N is a comodule morphism when
psi_N(f(m)) = (f (x) 1)(psi_M(m)) for every basis element m.  Over a
truncation every computation here first restricts its objects to the
degrees that `comodule.TrustedRegion` trusts, then reads the restricted
objects whole; the region is the least box of the objects, so a smaller
one comes from `truncate`-ing the objects.
The solver sets up one global linear system over F_p whose unknowns are
the entries of all blocks of f and returns a basis of its solution space.
The system is emitted as sparse rows {unknown: coeff}, one per coordinate
of N (x) monomial, and solved by `fplinalg.sparse_kernel_basis`; its rows
have about two nonzeros each and many repeat, which it drops before the
one elimination of `fplinalg`, the same that reduces every per-degree block
below.  Set the `supercomod` logger to DEBUG to see
each system's size: `supercomod.fplinalg` reports its unique rows and
nonzeros, then `supercomod.homsolver` the unknowns, rows emitted, rank and
dimension.

Kernels, images and cokernels (and equalizers, as kernels) come from one
builder of induced comodules: per degree, one rref of the map's block
gives the new basis vectors inside the ambient comodule and a coordinate
map onto them, and the ambient coaction is pushed through that map.

Exactness has one per-degree rank rule, `is_exact`; a short exact sequence
is an exact sequence padded by zero objects.  An isomorphism is a
degreewise bijection that is a comodule map (`is_isomorphism`), and
`find_isomorphism` decides, with no search, whether one exists: it answers
"iso" with a certified isomorphism, "none" only with a proof, and
"undecided" when the morphism space has dimension 2 or more.  Two closed
forms come from the universal properties: a morphism into a J cofree on
degree d is one functional on the source's degree-d part (`cofree_map`),
and one out of an F free on degree d is one element of the target's
degree-d part (`free_map`).  The canonical maps of `objects` are such
closed forms, and `find_isomorphism` certifies one with no linear system
when that part is one line; only when it fails is the morphism space
solved, and "none" and "undecided" always come from the solver.
`supercomod.homsolver` logs at DEBUG which route each verdict took.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .bialgebra import format_monomial
from .comodule import (
    Comodule,
    ComoduleMorphism,
    TrustedRegion,
    morphism_from_assignment,
    zero_comodule,
    zero_morphism,
)
from .fplinalg import FpMatrix, sparse_kernel_basis

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# morphism spaces


@dataclass
class MorphismSpace:
    """A basis of hom(source, target), solved in their trusted region up to `box`."""

    source: Comodule
    target: Comodule
    basis: list = field(default_factory=list)
    box: int | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(M: Comodule, N: Comodule) -> MorphismSpace:
    """Basis of the space of comodule morphisms M -> N.

    Unknowns are the matrix entries of the blocks f_d for every degree d
    of M and N restricted to their trusted region; equations equate the
    two routes around the coaction square, coordinate by coordinate in
    N (x) monomial.  The basis maps the original M to N: in every trusted
    degree they have the restricted objects' labels.
    """
    if M.preset != N.preset:
        raise ValueError("hom_space requires matching presets")
    p = M.p
    region = TrustedRegion(M, N)
    source, target = region.restrict(M), region.restrict(N)
    # one unknown per entry (i, j) of the block f_d
    place = [(d, i, j) for d in source.degrees()
             for i in range(target.dim(d)) for j in range(source.dim(d))]
    if not place:
        return MorphismSpace(M, N, [], region.bound)
    var = {key: v for v, key in enumerate(place)}

    rows: list[dict] = []
    for d in source.degrees():
        for j, mlab in enumerate(source.components[d]):
            coords: dict = {}
            for i, nlab in enumerate(target.components.get(d, ())):
                v = var[d, i, j]
                for c2, nlab2, b in target.coaction[nlab]:
                    row = coords.setdefault((nlab2, b), {})
                    row[v] = row.get(v, 0) + c2
            for c, mlab2, b in source.coaction[mlab]:
                d2 = source.degree_of(mlab2)
                j2 = source.index_of(mlab2)
                for i2, nlab2 in enumerate(target.components.get(d2, ())):
                    row = coords.setdefault((nlab2, b), {})
                    v = var[d2, i2, j2]
                    row[v] = row.get(v, 0) - c
            rows.extend(coords.values())

    null = sparse_kernel_basis(p, rows, len(place))
    log.debug("hom_space %s -> %s: %d unknowns, %d rows emitted, rank %d, dim %d",
              M.name, N.name, len(place), len(rows), len(place) - len(null), len(null))

    basis = []
    for vec in null:
        columns: dict = {}
        for v, c in vec.items():
            d, i, j = place[v]
            if d not in columns:
                columns[d] = [[] for _ in range(M.dim(d))]
            columns[d][j].append((i, c))
        basis.append(ComoduleMorphism(
            M, N, {d: FpMatrix(p, N.dim(d), cols) for d, cols in columns.items()}))
    return MorphismSpace(M, N, basis, region.bound)


# ---------------------------------------------------------------------------
# sub- and quotient comodules with induced coactions


def _induced(M: Comodule, vectors: dict, coords: dict, name: str, sub: bool):
    """Comodule on new basis elements of M, with the coaction pushed through
    a coordinate map, and its map to or from M.

    Per degree d, the columns of the FpMatrix vectors[d] are the new basis
    elements as vectors of M_d, and the FpMatrix coords[d] takes a vector of
    M_d to its coordinates in the new basis.  A subcomodule (sub=True,
    labels v0, v1, ...) comes with its inclusion and raises if its span is
    not closed under the coaction.  A quotient (sub=False, labels q0, q1,
    ...) comes with the projection coords, which must vanish on a
    subcomodule; its vectors are representatives.
    """
    prefix = "v" if sub else "q"
    labels: dict = {}
    seq = 0
    for d in M.degrees():
        if d in vectors and vectors[d].cols:
            labels[d] = [f"{prefix}{seq + i}" for i in range(vectors[d].cols)]
            seq += vectors[d].cols
    coaction: dict = {}
    for d, labs in labels.items():
        basis = M.basis(d)
        for k, lab in enumerate(labs):
            out: dict = {}
            for j, c in vectors[d].column(k):
                for c2, mlab2, b in M.coaction[basis[j]]:
                    out.setdefault((M.degree_of(mlab2), b), []).append(
                        (M.index_of(mlab2), c * c2))
            terms = []
            for (d2, b), entries in sorted(out.items(),
                                           key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
                w = FpMatrix(M.p, M.dim(d2), [entries])
                if w.is_zero():
                    continue
                if d2 not in labels:
                    if sub:
                        raise ValueError(f"span not closed under the coaction: {lab} "
                                         f"hits degree {d2} outside the span")
                    continue
                x = coords[d2].mul(w)
                if sub and vectors[d2].mul(x) != w:
                    raise ValueError(f"span not closed under the coaction at degree {d2}")
                terms.extend((c, labels[d2][r], b) for r, c in x.column(0))
            coaction[lab] = tuple(terms)
    S = Comodule._trusted(M.preset, labels, coaction, box=M.box, name=name)
    if sub:
        return S, ComoduleMorphism(S, M, {d: vectors[d] for d in labels})
    return S, ComoduleMorphism(M, S, {d: coords[d] for d in labels})


def kernel(f: ComoduleMorphism, name: str = ""):
    """Kernel subcomodule with its inclusion into the source; a kernel
    vector's coordinates are its entries at the free columns."""
    vectors, coords = {}, {}
    for d in f.source.degrees():
        _, _, free, null = f.block(d).echelon()
        vectors[d] = null.transpose()
        coords[d] = FpMatrix(f.p, f.source.dim(d), [[(j, 1)] for j in free]).transpose()
    return _induced(f.source, vectors, coords, name or "ker", sub=True)


def image(f: ComoduleMorphism):
    """Image subcomodule with its inclusion into the target; an image
    vector's coordinates are its entries at the pivot columns."""
    vectors, coords = {}, {}
    for d in f.source.degrees():
        if f.target.dim(d):
            rows, pivots, _, _ = f.block(d).transpose().echelon()
            vectors[d] = rows.transpose()
            coords[d] = FpMatrix(f.p, f.target.dim(d), [[(j, 1)] for j in pivots]).transpose()
    return _induced(f.target, vectors, coords, "im", sub=True)


def cokernel(f: ComoduleMorphism):
    """Quotient of the target by the image, with the projection map.

    The quotient basis consists of the target coordinates away from the
    pivot columns of the image; the induced coaction pushes the target
    coaction through the projection.
    """
    vectors, coords = {}, {}
    for d in f.target.degrees():
        _, _, free, coords[d] = f.block(d).transpose().echelon()
        vectors[d] = FpMatrix(f.p, f.target.dim(d), [[(j, 1)] for j in free])
    return _induced(f.target, vectors, coords, "coker", sub=False)


def equalizer(f: ComoduleMorphism, g: ComoduleMorphism):
    """Equalizer of a parallel pair, as the kernel of their difference."""
    return kernel(f.sub(g), name="eq")


# ---------------------------------------------------------------------------
# exactness and isomorphism tests


@dataclass
class ExactnessReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_exact(maps: list) -> ExactnessReport:
    """Exactness at every interior joint of a composable sequence.

    At each joint, im(f) = ker(g) is certified per degree in the shared
    trusted region: the composite must vanish and the ranks must satisfy
    rank f_d = dim - rank g_d.
    """
    failures = []
    for idx in range(len(maps) - 1):
        f, g = maps[idx], maps[idx + 1]
        if not f.target.matches(g.source):
            failures.append(f"joint {idx}: target/source mismatch")
            continue
        mid = f.target
        for d in TrustedRegion(f.source, mid, g.target).restrict(mid).degrees():
            A, B = f.block(d), g.block(d)
            comp = B.mul(A)
            if not comp.is_zero():
                failures.append(f"joint {idx} at {d}: composite is nonzero")
                continue
            r_im = A.rank()
            r_ker = mid.dim(d) - B.rank()
            if r_im != r_ker:
                failures.append(
                    f"joint {idx} at {d}: dim im = {r_im}, dim ker = {r_ker}"
                )
    return ExactnessReport(not failures, failures)


def is_short_exact(f: ComoduleMorphism, g: ComoduleMorphism) -> ExactnessReport:
    """0 -> A -f-> B -g-> C -> 0, as exactness of the padded sequence: at A
    it says f is injective, at C that g is surjective."""
    Z = zero_comodule(f.source.preset)
    return is_exact([zero_morphism(Z, f.source), f, g, zero_morphism(g.target, Z)])


def is_isomorphism(f: ComoduleMorphism) -> bool:
    """Whether f is a comodule isomorphism in the trusted region of its
    source and target: bijective in every trusted degree, and a comodule
    map there (`check` finds nothing)."""
    region = TrustedRegion(f.source, f.target)
    source, target = region.restrict(f.source), region.restrict(f.target)
    for d in source.components.keys() | target.components.keys():
        n, m = target.dim(d), source.dim(d)
        if n != m:
            return False
        if m and f.block(d).rank() != m:
            return False
    return f.check() == []


def cofree_map(M: Comodule, J: Comodule, g: str) -> ComoduleMorphism:
    """The morphism M -> J given by the functional g* on g's degree, for J a
    J cofree on that degree: x goes to the sum of c * [b] over the coaction
    terms (c, g, b) of x, where [b] is the basis element of J labelled by
    the monomial b.  Coassociativity makes it a comodule map."""
    assign = {lab: [(c, format_monomial(b)) for c, x, b in terms if x == g]
              for lab, terms in M.coaction.items()}
    return morphism_from_assignment(M, J, assign)


def free_map(F: Comodule, N: Comodule, n: str) -> ComoduleMorphism:
    """The morphism F -> N given by the element n, for F an F free on n's
    degree: the dual basis vector of the monomial m goes to the sum of
    (-1)^{|m|} c * x over the coaction terms (c, x, m) of n; the sign undoes
    the twist of `dualize_left`."""
    assign: dict = {}
    for c, x, b in N.coaction[n]:
        assign.setdefault(format_monomial(b), []).append((-c if b.parity else c, x))
    return morphism_from_assignment(F, N, assign)


def find_isomorphism(M: Comodule, N: Comodule) -> tuple:
    """Decide whether M and N are isomorphic in their trusted region.

    Returns a verdict (kind, f):
      ("iso", f)          f: M -> N is an isomorphism;
      ("none", None)      proof that none exists: the Poincare tables differ
                          in the trusted region, or the morphism space is at
                          most one line, so every morphism is a multiple of
                          one candidate and that candidate is not an
                          isomorphism;
      ("undecided", None) the morphism space has dimension 2 or more; no
                          search is made, so this is neither answer.

    A closed-form candidate is tried first: `cofree_map` of g* when N is
    cofree on a trusted degree d (`N.cofree_on`) and M_d = <g>, else
    `free_map` of n when M is free on a trusted d (`M.free_on`) and
    N_d = <n>.  It is returned only when `is_isomorphism` certifies it, the
    same certificate the solver route gives; otherwise the verdict comes
    from `hom_space`.
    """
    region = TrustedRegion(M, N)
    source, target = region.restrict(M), region.restrict(N)
    if source.poincare() != target.poincare():
        return "none", None
    route = None
    d = N.cofree_on
    if d is not None and source.dim(d) == 1:
        route, f = "cofree", cofree_map(M, N, M.basis(d)[0])
    d = M.free_on
    if route is None and d is not None and target.dim(d) == 1:
        route, f = "free", free_map(M, N, N.basis(d)[0])
    if route and is_isomorphism(f):
        log.debug("find_isomorphism %s -> %s: %s candidate certified, dim %d",
                  M.name, N.name, route, M.total_dim())
        return "iso", f
    log.debug("find_isomorphism %s -> %s: solver%s, dim %d",
              M.name, N.name, f" after a failed {route} candidate" if route else "",
              M.total_dim())
    space = hom_space(M, N)
    if space.dim > 1:
        return "undecided", None
    f = space.basis[0] if space.basis else zero_morphism(M, N)
    return ("iso", f) if is_isomorphism(f) else ("none", None)
