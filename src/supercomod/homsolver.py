"""Morphism spaces between truncated comodules, and the derived
constructions built from them: kernels, images, cokernels, equalizers,
exactness reports and isomorphism certification.

A degree-preserving linear map f: M -> N is a comodule morphism when
psi_N(f(m)) = (f (x) 1)(psi_M(m)) for every basis element m.  Over a
truncation both sides are compared inside the shared safe region only;
the solver sets up one global linear system over F_p whose unknowns are
the entries of all blocks of f and returns a basis of its solution
space.  The system is emitted as sparse rows {unknown: coeff}, one per
coordinate of N (x) monomial, and solved by `fplinalg.sparse_kernel_basis`;
its rows have about two nonzeros each and many repeat, which the solver
removes before eliminating.  Set the `supercomod` logger to DEBUG to see
each system's size: `supercomod.fplinalg` reports its unique rows and
nonzeros, then `supercomod.homsolver` the unknowns, rows emitted, rank and
dimension.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bialgebra import total_of
from .comodule import Comodule, ComoduleMorphism
from .fplinalg import FpMatrix, sparse_kernel_basis

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# morphism spaces


@dataclass
class MorphismSpace:
    source: Comodule
    target: Comodule
    basis: list = field(default_factory=list)
    box: int | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)


def _region_bound(*objects, box: int | None = None) -> int | None:
    bounds = [M.safe_bound() for M in objects]
    if box is not None:
        bounds.append(box)
    bounds = [b for b in bounds if b is not None]
    return min(bounds) if bounds else None


def hom_space(M: Comodule, N: Comodule, box: int | None = None) -> MorphismSpace:
    """Basis of the space of comodule morphisms M -> N.

    Unknowns are the matrix entries of the blocks f_d for every degree d
    inside the region where both objects live; equations equate the two
    routes around the coaction square, coordinate by coordinate in
    N (x) monomial.
    """
    if M.preset != N.preset:
        raise ValueError("hom_space requires matching presets")
    p = M.p
    sb = _region_bound(M, N, box=box)

    def ok(d) -> bool:
        return sb is None or total_of(d) <= sb

    shared = [d for d in M.degrees() if ok(d) and N.dim(d)]
    offset: dict = {}
    nvar = 0
    for d in shared:
        offset[d] = nvar
        nvar += N.dim(d) * M.dim(d)
    if nvar == 0:
        return MorphismSpace(M, N, [], sb)

    def var(d, i, j) -> int:
        return offset[d] + i * M.dim(d) + j

    rows: list[dict] = []
    for d in M.degrees():
        if not ok(d):
            continue
        for j, mlab in enumerate(M.basis(d)):
            coords: dict = {}
            if d in offset:
                for i, nlab in enumerate(N.basis(d)):
                    v = var(d, i, j)
                    for c2, nlab2, b in N.coaction[nlab]:
                        if not ok(N.degree_of(nlab2)):
                            continue
                        row = coords.setdefault((nlab2, b), {})
                        row[v] = row.get(v, 0) + c2
            for c, mlab2, b in M.coaction[mlab]:
                d2 = M.degree_of(mlab2)
                if not ok(d2) or d2 not in offset:
                    continue
                j2 = M.index_of(mlab2)
                for i2, nlab2 in enumerate(N.basis(d2)):
                    row = coords.setdefault((nlab2, b), {})
                    v = var(d2, i2, j2)
                    row[v] = row.get(v, 0) - c
            rows.extend(coords.values())

    null = sparse_kernel_basis(p, rows, nvar)
    log.debug("hom_space %s -> %s: %d unknowns, %d rows emitted, rank %d, dim %d",
              M.name, N.name, nvar, len(rows), nvar - null.rows, null.rows)

    basis = []
    for k in range(null.rows):
        v = null.a[k]
        blocks = {}
        for d in shared:
            n, m = N.dim(d), M.dim(d)
            mat = FpMatrix(p, v[offset[d]:offset[d] + n * m].reshape(n, m))
            if not mat.is_zero():
                blocks[d] = mat
        basis.append(ComoduleMorphism(M, N, blocks))
    return MorphismSpace(M, N, basis, sb)


# ---------------------------------------------------------------------------
# sub- and quotient comodules with induced coactions


def _label_scheme(prefix: str, count: int, start: int) -> list[str]:
    return [f"{prefix}{start + i}" for i in range(count)]


def _subcomodule(M: Comodule, vectors: dict, name: str):
    """Comodule structure on the span of `vectors` ({degree: FpMatrix with
    basis vectors as rows}), plus its inclusion into M.

    Raises if the span is not closed under the coaction inside the
    stored region.
    """
    p = M.p
    components: dict = {}
    labels: dict = {}
    seq = 0
    degs = [d for d in M.degrees() if d in vectors and vectors[d].rows]
    for d in degs:
        labs = _label_scheme("v", vectors[d].rows, seq)
        seq += vectors[d].rows
        components[d] = labs
        labels[d] = labs
    coaction: dict = {}
    for d in degs:
        K = vectors[d]
        for k in range(K.rows):
            out: dict = {}
            for j, mlab in enumerate(M.basis(d)):
                c = int(K.a[k, j])
                if not c:
                    continue
                for c2, mlab2, b in M.coaction[mlab]:
                    d2 = M.degree_of(mlab2)
                    key = (d2, b)
                    vec = out.setdefault(key, np.zeros(M.dim(d2), dtype=np.int64))
                    vec[M.index_of(mlab2)] += c * c2
            terms = []
            for (d2, b), w in sorted(out.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
                w = w % p
                if not w.any():
                    continue
                if d2 not in vectors or not vectors[d2].rows:
                    raise ValueError(
                        f"span not closed under the coaction: {labels[d][k]} "
                        f"hits degree {d2} outside the span"
                    )
                x = FpMatrix(p, vectors[d2].a.T).solve(w)
                if x is None:
                    raise ValueError(
                        f"span not closed under the coaction at degree {d2}"
                    )
                for i, ci in enumerate(x):
                    if ci % p:
                        terms.append((int(ci) % p, labels[d2][i], b))
            coaction[labels[d][k]] = terms
    S = Comodule(M.preset, components, coaction, box=M.box, margin=M.margin,
                 name=name)
    blocks = {d: FpMatrix(p, vectors[d].a.T) for d in degs}
    incl = ComoduleMorphism(S, M, blocks)
    return S, incl


def kernel(f: ComoduleMorphism, name: str = ""):
    """Kernel subcomodule with its inclusion into the source."""
    vectors = {d: f.block(d).kernel_basis() for d in f.source.degrees()}
    return _subcomodule(f.source, vectors, name or f"ker")


def image(f: ComoduleMorphism, name: str = ""):
    """Image subcomodule with its inclusion into the target."""
    p = f.p
    vectors = {}
    for d in f.source.degrees():
        if not f.target.dim(d):
            continue
        block = f.block(d)
        vectors[d] = FpMatrix(p, block.a.T).row_space_basis()
    return _subcomodule(f.target, vectors, name or f"im")


def cokernel(f: ComoduleMorphism, name: str = ""):
    """Quotient of the target by the image, with the projection map.

    The quotient basis consists of the target coordinates away from the
    pivot columns of the image; the induced coaction pushes the target
    coaction through the projection.
    """
    p = f.p
    N = f.target
    proj: dict = {}
    free_of: dict = {}
    for d in N.degrees():
        n = N.dim(d)
        block = f.block(d)
        B = FpMatrix(p, block.a.T).row_space_basis()
        red, pivots = B.rref()
        free = [j for j in range(n) if j not in pivots]
        free_of[d] = free
        P = np.zeros((len(free), n), dtype=np.int64)
        for col in range(n):
            y = np.zeros(n, dtype=np.int64)
            y[col] = 1
            for r, c in enumerate(pivots):
                if y[c]:
                    y = (y - y[c] * red.a[r]) % p
            P[:, col] = y[free]
        proj[d] = FpMatrix(p, P)

    components: dict = {}
    labels: dict = {}
    seq = 0
    for d in N.degrees():
        if not free_of[d]:
            continue
        labs = _label_scheme("q", len(free_of[d]), seq)
        seq += len(labs)
        components[d] = labs
        labels[d] = labs
    coaction: dict = {}
    for d, labs in components.items():
        for k, j in enumerate(free_of[d]):
            rep = N.basis(d)[j]
            terms: dict = {}
            for c, nlab2, b in N.coaction[rep]:
                d2 = N.degree_of(nlab2)
                if d2 not in labels:
                    continue
                col = proj[d2].a[:, N.index_of(nlab2)]
                for i, ci in enumerate(col):
                    if (c * ci) % p:
                        key = (labels[d2][i], b)
                        terms[key] = (terms.get(key, 0) + c * ci) % p
            coaction[labs[k]] = [(c, lab, b) for (lab, b), c in terms.items() if c]
    Q = Comodule(N.preset, components, coaction, box=N.box, margin=N.margin,
                 name=name or "coker")
    blocks = {d: proj[d] for d in components}
    return Q, ComoduleMorphism(N, Q, blocks)


def equalizer(f: ComoduleMorphism, g: ComoduleMorphism, name: str = ""):
    """Equalizer of a parallel pair, as the kernel of their difference."""
    if f.source is not g.source and f.source.components != g.source.components:
        raise ValueError("equalizer needs a shared source")
    if f.target is not g.target and f.target.components != g.target.components:
        raise ValueError("equalizer needs a shared target")
    return kernel(f.sub(g), name or "eq")


# ---------------------------------------------------------------------------
# exactness and isomorphism tests


@dataclass
class ExactnessReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_exact(maps: list, box: int | None = None) -> ExactnessReport:
    """Exactness at every interior joint of a composable sequence.

    At each joint, im(f) = ker(g) is certified per degree in the shared
    safe region: the composite must vanish and the ranks must satisfy
    rank f_d = dim - rank g_d.
    """
    failures = []
    for idx in range(len(maps) - 1):
        f, g = maps[idx], maps[idx + 1]
        if f.target is not g.source and f.target.components != g.source.components:
            failures.append(f"joint {idx}: target/source mismatch")
            continue
        mid = f.target
        sb = _region_bound(f.source, mid, g.target, box=box)
        for d in mid.degrees():
            if sb is not None and total_of(d) > sb:
                continue
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


def is_short_exact(f: ComoduleMorphism, g: ComoduleMorphism,
                   box: int | None = None) -> ExactnessReport:
    """0 -> A -f-> B -g-> C -> 0: injectivity, exactness, surjectivity."""
    report = is_exact([f, g], box=box)
    failures = list(report.failures)
    sb = _region_bound(f.source, f.target, g.target, box=box)

    def ok(d) -> bool:
        return sb is None or total_of(d) <= sb

    for d in f.source.degrees():
        if ok(d) and f.block(d).rank() != f.source.dim(d):
            failures.append(f"at {d}: first map is not injective")
    for d in g.target.degrees():
        if ok(d) and g.block(d).rank() != g.target.dim(d):
            failures.append(f"at {d}: second map is not surjective")
    return ExactnessReport(not failures, failures)


def is_isomorphism(f: ComoduleMorphism, box: int | None = None) -> bool:
    sb = _region_bound(f.source, f.target, box=box)
    degs = set(f.source.degrees()) | set(f.target.degrees())
    for d in degs:
        if sb is not None and total_of(d) > sb:
            continue
        n, m = f.target.dim(d), f.source.dim(d)
        if n != m:
            return False
        if m and f.block(d).rank() != m:
            return False
    return True


def find_isomorphism(M: Comodule, N: Comodule, box: int | None = None,
                     tries: int = 64) -> ComoduleMorphism | None:
    """Search the morphism space for an isomorphism M -> N.

    Tries each basis morphism, then `tries` seeded random linear
    combinations.  None means that this search found no isomorphism, not
    that none exists; it is a proof of absence only when the space is 0.
    """
    space = hom_space(M, N, box=box)
    for f in space.basis:
        if is_isomorphism(f, box=box):
            return f
    if space.dim > 1:
        rng = np.random.default_rng(20259)
        p = M.p
        for _ in range(tries):
            coeffs = rng.integers(0, p, size=space.dim)
            if not coeffs.any():
                continue
            f = space.basis[0].scale(int(coeffs[0]))
            for c, g in zip(coeffs[1:], space.basis[1:]):
                if c:
                    f = f.add(g.scale(int(c)))
            if is_isomorphism(f, box=box):
                return f
    return None
