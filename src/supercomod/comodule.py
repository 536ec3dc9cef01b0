"""Truncated comodules over the preset bialgebras, and maps between them.

A right comodule M is stored as a basis of labelled elements, graded by an
integer or by a bidegree, together with the structure map

    psi(m) = sum_i  c_i * m'_i (x) b_i

where each b_i is a bialgebra monomial satisfying the matric convention

    left(b_i) = degree(m'_i),        right(b_i) = degree(m).

Infinite comodules are truncated: `box` bounds the total degree of the
basis that is guaranteed complete, and `margin` extra layers of basis
elements are stored beyond it so that coassociativity can be tested
honestly at the edge (coactions over the full algebra can lower total
degree by one, through w).  `box=None` means the comodule is finite and
complete, and every check is exact.
"""

from __future__ import annotations

import json
from collections import Counter

from .bialgebra import (
    CoalgebraPreset,
    Deg,
    Monomial,
    add_deg,
    coproduct,
    counit,
    format_monomial,
    get_preset,
    mono_tau,
    parity_of,
    parse_monomial,
    product,
    quotient_map,
    total_of,
)
from .fplinalg import FpMatrix

Term = tuple[int, str, Monomial]


def deg_key(d):
    return (total_of(d), d if isinstance(d, tuple) else (d,))


class Comodule:
    """A truncated right comodule with a chosen homogeneous basis."""

    def __init__(
        self,
        preset: CoalgebraPreset,
        components: dict,
        coaction: dict,
        box: int | None,
        margin: int = 0,
        name: str = "",
    ):
        self.preset = preset
        self.box = box
        self.margin = int(margin)
        self.name = name
        self.components = {}
        self._deg_of = {}
        self._index_of = {}
        for d, labels in components.items():
            labels = list(labels)
            if not labels:
                continue
            self.components[d] = labels
            for i, lab in enumerate(labels):
                if lab in self._deg_of:
                    raise ValueError(f"duplicate label {lab!r}")
                self._deg_of[lab] = d
                self._index_of[lab] = i
        self.coaction = {}
        p = preset.p
        for lab, terms in coaction.items():
            if lab not in self._deg_of:
                raise ValueError(f"coaction given for unknown label {lab!r}")
            merged: dict[tuple[str, Monomial], int] = {}
            for c, to_label, b in terms:
                if to_label not in self._deg_of:
                    raise ValueError(
                        f"coaction of {lab!r} hits unknown label {to_label!r}"
                    )
                key = (to_label, b)
                merged[key] = (merged.get(key, 0) + c) % p
            self.coaction[lab] = tuple(
                (c, to_label, b) for (to_label, b), c in merged.items() if c
            )
        for lab in self._deg_of:
            self.coaction.setdefault(lab, ())

    # ---- basic queries

    @property
    def p(self) -> int:
        return self.preset.p

    def degrees(self) -> list:
        return sorted(self.components, key=deg_key)

    def dim(self, d) -> int:
        return len(self.components.get(d, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.components.values())

    def basis(self, d) -> list[str]:
        return list(self.components.get(d, ()))

    def degree_of(self, label: str):
        return self._deg_of[label]

    def index_of(self, label: str) -> int:
        return self._index_of[label]

    def terms(self, label: str) -> tuple[Term, ...]:
        return self.coaction[label]

    def safe_bound(self) -> int | None:
        return None if self.box is None else self.box + self.margin

    def stored(self, d) -> bool:
        sb = self.safe_bound()
        return sb is None or total_of(d) <= sb

    def poincare(self) -> dict:
        return {d: len(labels) for d, labels in self.components.items()}

    def matches(self, other: "Comodule") -> bool:
        """Whether `other` is this comodule: the same object, or the same
        preset, components and coaction, each label's coaction compared as
        a multiset of terms so that term order does not matter."""
        if self is other:
            return True
        return (
            self.preset == other.preset
            and self.components == other.components
            and all(Counter(terms) == Counter(other.coaction[lab])
                    for lab, terms in self.coaction.items())
        )

    def __repr__(self) -> str:
        nm = self.name or "comodule"
        return (
            f"<{nm}: preset {self.preset.name} p={self.p} box={self.box} "
            f"dim {self.total_dim()}>"
        )

    # ---- validation

    def validate(self, max_problems: int = 5) -> list[str]:
        """Check homogeneity, counit, degree direction and coassociativity
        inside the safe region.  Returns a list of problems, empty if valid.
        """
        problems: list[str] = []
        p = self.p
        preset = self.preset
        drop_floor = -1 if preset.name == "b" else 0
        for lab, terms in self.coaction.items():
            d = self._deg_of[lab]
            counit_part: dict[str, int] = {}
            for c, to_label, b in terms:
                if to_label not in self._deg_of:
                    problems.append(f"{lab}: coaction hits unknown label {to_label!r}")
                    continue
                try:
                    preset.validate_monomial(b)
                except ValueError as exc:
                    problems.append(f"{lab}: {exc}")
                    continue
                if preset.left_degree(b) != self._deg_of[to_label]:
                    problems.append(
                        f"{lab}: term {to_label} (x) {b} has left({b}) = "
                        f"{preset.left_degree(b)} but {to_label} sits in degree "
                        f"{self._deg_of[to_label]}"
                    )
                if preset.right_degree(b) != d:
                    problems.append(
                        f"{lab}: term {to_label} (x) {b} has right({b}) = "
                        f"{preset.right_degree(b)}, expected {d}"
                    )
                if preset.total_degree(b) < drop_floor:
                    problems.append(
                        f"{lab}: coaction lowers total degree by "
                        f"{-preset.total_degree(b)} via {b}"
                    )
                if counit(preset, b):
                    counit_part[to_label] = (counit_part.get(to_label, 0) + c) % p
            counit_part = {k: v for k, v in counit_part.items() if v}
            if counit_part != {lab: 1}:
                problems.append(
                    f"{lab}: counit fails, (1 (x) eps) psi = {counit_part}, expected itself"
                )
            if len(problems) >= max_problems:
                return problems[:max_problems]
        problems.extend(self._coassoc_problems(max_problems - len(problems)))
        return problems[:max_problems]

    def _coassoc_problems(self, budget: int) -> list[str]:
        if budget <= 0:
            return []
        problems = []
        p = self.p
        sb = self.safe_bound()

        def ok(d) -> bool:
            return sb is None or total_of(d) <= sb

        for lab, terms in self.coaction.items():
            lhs: dict = {}
            rhs: dict = {}
            for c, mid_label, b in terms:
                if mid_label not in self._deg_of:
                    continue
                mid_deg = self._deg_of[mid_label]
                # route A: psi again on the comodule slot
                for c2, far_label, b2 in self.coaction.get(mid_label, ()):
                    far = self._deg_of[far_label]
                    if ok(far) and ok(mid_deg):
                        key = (far_label, b2, b)
                        v = (lhs.get(key, 0) + c * c2) % p
                        if v:
                            lhs[key] = v
                        else:
                            lhs.pop(key, None)
                # route B: coproduct on the algebra slot
                for (b1, b2), c2 in coproduct(self.preset, b).items():
                    far = self.preset.left_degree(b1)
                    mid = self.preset.right_degree(b1)
                    if ok(far) and ok(mid):
                        key = (mid_label, b1, b2)
                        v = (rhs.get(key, 0) + c * c2) % p
                        if v:
                            rhs[key] = v
                        else:
                            rhs.pop(key, None)
            if lhs != rhs:
                keys = set(lhs) | set(rhs)
                bad = sorted(
                    (k for k in keys if (lhs.get(k, 0) - rhs.get(k, 0)) % p),
                    key=lambda k: (k[0], k[1].sort_key(), k[2].sort_key()),
                )[0]
                problems.append(
                    f"{lab}: coassociativity fails at term "
                    f"{bad[0]} (x) {bad[1]} (x) {bad[2]}: "
                    f"(psi x 1)psi gives {lhs.get(bad, 0)}, (1 x D)psi gives {rhs.get(bad, 0)}"
                )
                if len(problems) >= budget:
                    return problems
        return problems

    # ---- serialization

    def to_dict(self) -> dict:
        comps = []
        for d in self.degrees():
            comps.append(
                {
                    "bidegree": list(d) if isinstance(d, tuple) else d,
                    "labels": list(self.components[d]),
                }
            )
        coact = []
        for d in self.degrees():
            for lab in self.components[d]:
                for c, to_label, b in self.coaction[lab]:
                    coact.append(
                        {
                            "from_label": lab,
                            "to_label": to_label,
                            "monomial": format_monomial(b),
                            "coeff": int(c),
                        }
                    )
        return {
            "p": self.p,
            "preset": self.preset.name,
            "box": self.box,
            "margin": self.margin,
            "name": self.name,
            "components": comps,
            "coaction": coact,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, data: dict) -> "Comodule":
        preset = get_preset(data["preset"], data["p"])
        components = {}
        for entry in data["components"]:
            d = entry["bidegree"]
            d = tuple(d) if isinstance(d, list) else d
            components[d] = list(entry["labels"])
        coaction: dict[str, list[Term]] = {}
        for entry in data["coaction"]:
            coaction.setdefault(entry["from_label"], []).append(
                (entry["coeff"], entry["to_label"], parse_monomial(entry["monomial"]))
            )
        return cls(
            preset,
            components,
            coaction,
            box=data.get("box"),
            margin=data.get("margin", 0),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "Comodule":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# constructions


def dualize_left(preset: CoalgebraPreset, components: dict, coaction: dict,
                 box: int | None, name: str = "") -> Comodule:
    """Graded dual of a left comodule N, as a right comodule.

    N has the basis `components` ({degree: labels}) and the left coaction
    coaction[n] = [(c, b, n'), ...], meaning lambda(n) = sum c * b (x) n'
    with left(b) = degree(n) and right(b) = degree(n').  The dual keeps the
    degrees of total degree <= box and satisfies
    psi(n'*) = sum (-1)^{parity(b)} c * n* (x) b .

    Coassociativity forces the twist sign to be multiplicative in the
    parity of the algebra factor alone, so the only consistent choices
    are this one and no sign at all; they differ by the parity-flip
    automorphism f -> (-1)^{|f|} f, hence give isomorphic comodules.
    """
    kept = {
        d: list(labels) for d, labels in components.items()
        if box is None or total_of(d) <= box
    }
    dual: dict[str, list[Term]] = {lab: [] for labels in kept.values() for lab in labels}
    for labels in kept.values():
        for lab in labels:
            for c, b, to_label in coaction.get(lab, ()):
                if to_label in dual:
                    dual[to_label].append((-c if b.parity else c, lab, b))
    return Comodule(preset, kept, dual, box=box, margin=0, name=name)


def simple_comodule(preset: CoalgebraPreset, d, label: str = "e") -> Comodule:
    """The one-dimensional comodule concentrated in degree d."""
    if preset.bigraded:
        a, b = d
        if preset.name == "xi_poly":
            if a != 0:
                raise ValueError("xi-polynomial preset has no first grading")
            m = Monomial(xi=((0, b),)) if b else Monomial()
        else:
            m = Monomial(u=a, xi=(((0, b),) if b else ()))
    elif preset.name == "b2":
        m = Monomial(xi=(((0, d),) if d else ()))
    else:
        m = Monomial(u=d)
    preset.validate_monomial(m)
    if preset.left_degree(m) != d or preset.right_degree(m) != d:
        raise ValueError(f"no grouplike monomial in degree {d}")
    return Comodule(
        preset,
        {d: [label]},
        {label: [(1, label, m)]},
        box=None,
        name=f"simple{d}",
    )


def zero_comodule(preset: CoalgebraPreset, box: int | None = None) -> Comodule:
    return Comodule(preset, {}, {}, box=box, name="0")


def tensor(M: Comodule, N: Comodule, name: str = "") -> Comodule:
    """Tensor product of comodules, with the Koszul sign
    psi(m (x) n) = sum +- (m' (x) n') (x) b_m b_n,
    the sign being (-1)^{parity(b_m) parity(n')}."""
    if M.preset != N.preset:
        raise ValueError("tensor requires matching presets")
    p = M.p
    if M.box is None and N.box is None:
        box, margin = None, 0
    elif M.box is None:
        box, margin = N.box, N.margin
    elif N.box is None:
        box, margin = M.box, M.margin
    else:
        box, margin = min(M.box, N.box), min(M.margin, N.margin)
    bound = None if box is None else box + margin
    components: dict = {}
    pair_label: dict[tuple[str, str], str] = {}
    seen: set[str] = set()
    for dm in M.degrees():
        for dn in N.degrees():
            d = add_deg(dm, dn)
            if bound is not None and total_of(d) > bound:
                continue
            labs = components.setdefault(d, [])
            for lm in M.components[dm]:
                for ln in N.components[dn]:
                    lab = f"{lm}|{ln}"
                    if lab in seen:
                        raise ValueError(f"label collision {lab!r}")
                    seen.add(lab)
                    pair_label[(lm, ln)] = lab
                    labs.append(lab)
    coaction: dict[str, list[Term]] = {}
    for (lm, ln), lab in pair_label.items():
        out: list[Term] = []
        for c1, lm2, bm in M.coaction[lm]:
            pm = bm.parity
            for c2, ln2, bn in N.coaction[ln]:
                key = (lm2, ln2)
                if key not in pair_label:
                    continue
                sign = -1 if (pm and parity_of(N.degree_of(ln2))) else 1
                s, b = product(bm, bn)
                if not s:
                    continue
                out.append((c1 * c2 * sign * s, pair_label[key], b))
        coaction[lab] = out
    return Comodule(M.preset, components, coaction, box=box, margin=margin,
                    name=name or f"{M.name}(x){N.name}")


def suspend(M: Comodule, d, name: str = "") -> Comodule:
    """Shift by tensoring with the simple comodule in degree d on the left."""
    S = simple_comodule(M.preset, d, label="s")
    out = tensor(S, M, name=name or f"S{d}{M.name}")
    return out


def _push_coaction(M: Comodule, dst: CoalgebraPreset) -> dict:
    """M's coaction with each algebra factor sent through the quotient
    M.preset -> dst."""
    return {
        lab: [(c * c2, to_label, b2) for c, to_label, b in terms
              for c2, b2 in quotient_map(M.preset, dst, b)]
        for lab, terms in M.coaction.items()
    }


def corestrict_psi(M: Comodule, name: str = "") -> Comodule:
    """Push a comodule over the full algebra down to the quotient with w = 0."""
    if M.preset.name != "b":
        raise ValueError("corestrict_psi starts from preset b")
    dst = get_preset("bbar", M.p)
    return Comodule(dst, M.components, _push_coaction(M, dst), box=M.box,
                    margin=M.margin, name=name or f"Psi({M.name})")


def corestrict_theta(M: Comodule, name: str = "") -> Comodule:
    """Collapse a w=0 comodule to the single grading s + 2t, over the
    quotient that also identifies x0 with u^2."""
    if M.preset.name != "bbar":
        raise ValueError("corestrict_theta starts from preset bbar")
    dst = get_preset("atilde", M.p)
    components: dict = {}
    for d in M.degrees():
        n = total_of(d)
        components.setdefault(n, []).extend(M.components[d])
    for n in components:
        components[n].sort()
    return Comodule(dst, components, _push_coaction(M, dst), box=M.box,
                    margin=M.margin, name=name or f"Theta({M.name})")


def embed_xi_polynomial(M: Comodule, name: str = "") -> Comodule:
    """Reinterpret a comodule over the xi-polynomial subalgebra as one over
    the w = 0 algebra, along the inclusion of bialgebras."""
    if M.preset.name != "xi_poly":
        raise ValueError("embed_xi_polynomial starts from preset xi_poly")
    dst = get_preset("bbar", M.p)
    return Comodule(dst, M.components, M.coaction, box=M.box, margin=M.margin,
                    name=name or M.name)


def truncate(M: Comodule, box: int, name: str = "") -> Comodule:
    """Restrict a comodule to the sub-box `box`, keeping its margin."""
    if M.box is not None and box > M.box:
        raise ValueError(f"cannot grow the box from {M.box} to {box}")
    if M.preset.name == "b" and M.box is not None and M.margin < 1:
        raise ValueError(
            "margin violation: coactions over the full algebra can lower "
            "degree, so truncating needs at least one stored margin layer"
        )
    bound = box + M.margin
    components = {d: labs for d, labs in M.components.items() if total_of(d) <= bound}
    kept = {lab for labs in components.values() for lab in labs}
    coaction = {
        lab: [(c, t, b) for c, t, b in M.coaction[lab] if t in kept]
        for lab in kept
    }
    return Comodule(M.preset, components, coaction, box=box, margin=M.margin,
                    name=name or M.name)


# ---------------------------------------------------------------------------
# morphisms


class ComoduleMorphism:
    """A degreewise linear map; blocks[d] has shape (dim target_d, dim source_d)."""

    def __init__(self, source: Comodule, target: Comodule, blocks: dict):
        if source.preset != target.preset:
            raise ValueError("morphism requires matching presets")
        self.source = source
        self.target = target
        self.blocks = {}
        for d, mat in blocks.items():
            if mat.is_zero():
                continue
            if mat.shape != (target.dim(d), source.dim(d)):
                raise ValueError(
                    f"block at {d} has shape {mat.shape}, expected "
                    f"({target.dim(d)}, {source.dim(d)})"
                )
            self.blocks[d] = mat

    @property
    def p(self) -> int:
        return self.source.p

    def block(self, d) -> FpMatrix:
        if d in self.blocks:
            return self.blocks[d]
        return FpMatrix.zeros(self.p, self.target.dim(d), self.source.dim(d))

    def image_of(self, label: str) -> list[tuple[int, str]]:
        """f(label) as a list of (coeff, target_label)."""
        d = self.source.degree_of(label)
        j = self.source.index_of(label)
        mat = self.block(d)
        out = []
        for i, tl in enumerate(self.target.basis(d)):
            c = int(mat.a[i, j]) if d in self.blocks else 0
            if c:
                out.append((c, tl))
        return out

    def safe_bound(self) -> int | None:
        bounds = [b for b in (self.source.safe_bound(), self.target.safe_bound())
                  if b is not None]
        return min(bounds) if bounds else None

    def check(self) -> list[str]:
        """Verify psi_target(f(m)) = (f (x) 1)(psi_source(m)) inside the
        region both sides can see.  Returns a list of discrepancies."""
        problems = []
        p = self.p
        sb = self.safe_bound()

        def ok(d) -> bool:
            return sb is None or total_of(d) <= sb

        for d in self.source.degrees():
            if not ok(d):
                continue
            for j, lab in enumerate(self.source.basis(d)):
                lhs: dict = {}
                for c, tlab in self.image_of(lab):
                    for c2, tlab2, b in self.target.coaction[tlab]:
                        if not ok(self.target.degree_of(tlab2)):
                            continue
                        key = (tlab2, b)
                        v = (lhs.get(key, 0) + c * c2) % p
                        if v:
                            lhs[key] = v
                        else:
                            lhs.pop(key, None)
                rhs: dict = {}
                for c, slab2, b in self.source.coaction[lab]:
                    d2 = self.source.degree_of(slab2)
                    if not ok(d2):
                        continue
                    for c2, tlab2 in self.image_of(slab2):
                        key = (tlab2, b)
                        v = (rhs.get(key, 0) + c * c2) % p
                        if v:
                            rhs[key] = v
                        else:
                            rhs.pop(key, None)
                if lhs != rhs:
                    keys = sorted(set(lhs) | set(rhs),
                                  key=lambda k: (k[0], k[1].sort_key()))
                    bad = [k for k in keys if (lhs.get(k, 0) - rhs.get(k, 0)) % p][0]
                    problems.append(
                        f"{lab}: psi f - (f x 1) psi has term {bad[0]} (x) {bad[1]} "
                        f"with coeffs {lhs.get(bad, 0)} vs {rhs.get(bad, 0)}"
                    )
                    if len(problems) >= 5:
                        return problems
        return problems

    def is_comodule_map(self) -> bool:
        return not self.check()

    def compose(self, other: "ComoduleMorphism") -> "ComoduleMorphism":
        """self after other (other first)."""
        if not other.target.matches(self.source):
            raise ValueError("composition mismatch")
        blocks = {}
        for d in other.blocks:
            if self.source.dim(d) and self.target.dim(d):
                blocks[d] = self.block(d).mul(other.block(d))
        return ComoduleMorphism(other.source, self.target, blocks)

    def add(self, other: "ComoduleMorphism") -> "ComoduleMorphism":
        blocks = {}
        for d in set(self.blocks) | set(other.blocks):
            blocks[d] = self.block(d).add(other.block(d))
        return ComoduleMorphism(self.source, self.target, blocks)

    def sub(self, other: "ComoduleMorphism") -> "ComoduleMorphism":
        blocks = {}
        for d in set(self.blocks) | set(other.blocks):
            blocks[d] = self.block(d).sub(other.block(d))
        return ComoduleMorphism(self.source, self.target, blocks)

    def scale(self, c: int) -> "ComoduleMorphism":
        return ComoduleMorphism(
            self.source, self.target, {d: m.scale(c) for d, m in self.blocks.items()}
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def rank(self, d) -> int:
        return self.block(d).rank() if d in self.blocks else 0


def identity_morphism(M: Comodule) -> ComoduleMorphism:
    blocks = {d: FpMatrix.identity(M.p, M.dim(d)) for d in M.degrees()}
    return ComoduleMorphism(M, M, blocks)


def zero_morphism(M: Comodule, N: Comodule) -> ComoduleMorphism:
    return ComoduleMorphism(M, N, {})


def morphism_from_assignment(M: Comodule, N: Comodule, assign: dict) -> ComoduleMorphism:
    """Build a morphism from label-level data: assign[src_label] is a list of
    (coeff, target_label) pairs in the same degree.  Missing labels map to 0."""
    p = M.p
    blocks = {}
    for d in M.degrees():
        src = M.basis(d)
        tgt = N.basis(d)
        if not src or not tgt:
            continue
        mat = FpMatrix.zeros(p, len(tgt), len(src))
        for j, lab in enumerate(src):
            for c, tl in assign.get(lab, ()):
                if N.degree_of(tl) != d:
                    raise ValueError(f"{lab} -> {tl} changes degree")
                i = N.index_of(tl)
                mat.a[i, j] = (int(mat.a[i, j]) + c) % p
        blocks[d] = mat
    return ComoduleMorphism(M, N, blocks)


def direct_sum(mods: list, name: str = "") -> Comodule:
    """Direct sum; labels are prefixed "i:" by summand position."""
    if not mods:
        raise ValueError("empty direct sum")
    preset = mods[0].preset
    boxes = [M.box for M in mods if M.box is not None]
    if boxes:
        box = min(boxes)
        margin = min(M.margin for M in mods if M.box is not None)
    else:
        box, margin = None, 0
    components: dict = {}
    coaction: dict = {}
    for i, M in enumerate(mods):
        if M.preset != preset:
            raise ValueError("direct sum requires matching presets")
        for d in M.degrees():
            if box is not None and total_of(d) > box + margin:
                continue
            components.setdefault(d, []).extend(f"{i}:{lab}" for lab in M.components[d])
        for lab, terms in M.coaction.items():
            d = M.degree_of(lab)
            if box is not None and total_of(d) > box + margin:
                continue
            coaction[f"{i}:{lab}"] = [
                (c, f"{i}:{t}", b)
                for c, t, b in terms
                if box is None or total_of(M.degree_of(t)) <= box + margin
            ]
    return Comodule(preset, components, coaction, box=box, margin=margin,
                    name=name or "(+)".join(M.name for M in mods))


def summand_inclusion(S: Comodule, mods: list, i: int) -> ComoduleMorphism:
    """Inclusion of the i-th summand into a direct sum built by direct_sum."""
    M = mods[i]
    assign = {}
    for d in M.degrees():
        for lab in M.basis(d):
            if f"{i}:{lab}" in S._deg_of:
                assign[lab] = [(1, f"{i}:{lab}")]
    return morphism_from_assignment(M, S, assign)


def summand_projection(S: Comodule, mods: list, i: int) -> ComoduleMorphism:
    """Projection of a direct sum onto its i-th summand."""
    M = mods[i]
    assign = {}
    for d in M.degrees():
        for lab in M.basis(d):
            key = f"{i}:{lab}"
            if key in S._deg_of:
                assign[key] = [(1, lab)]
    return morphism_from_assignment(S, M, assign)


# ---------------------------------------------------------------------------
# Steenrod-type actions on singly graded comodules


def steenrod_action(M: Comodule, lam: Monomial) -> dict:
    """The operation dual to multiplication by (powers of u times) lam.

    For a comodule over the single-graded quotient, act(lam)(m) collects the
    coaction coefficients at u^k * lam for all k >= 0:

        act(lam)(m) = sum_k sum_{m'} c(m, m', u^k lam) m' .

    Returns {source_degree: matrix} with block shape
    (dim at d + shift, dim at d), where shift is the total degree of lam.
    """
    if M.preset.bigraded:
        raise ValueError("actions are defined on singly graded comodules")
    shift = M.preset.total_degree(lam)
    p = M.p
    # The degree-0 grouplike that pads coaction terms is u at odd primes
    # and x0 for the p = 2 polynomial algebra.
    pad_xi0 = M.preset.name == "b2"
    if pad_xi0:
        lam_rest = tuple((j, e) for j, e in lam.xi if j != 0)
        lam_pad = dict(lam.xi).get(0, 0)
    out: dict = {}
    for d in M.degrees():
        src = M.basis(d)
        tgt_deg = d + shift
        tgt = M.basis(tgt_deg)
        if not src:
            continue
        mat = FpMatrix.zeros(p, len(tgt), len(src))
        index = {lab: i for i, lab in enumerate(tgt)}
        for j, lab in enumerate(src):
            for c, to_label, b in M.coaction[lab]:
                if b.w != lam.w or b.tau != lam.tau:
                    continue
                if pad_xi0:
                    if tuple((k, e) for k, e in b.xi if k != 0) != lam_rest:
                        continue
                    if dict(b.xi).get(0, 0) < lam_pad:
                        continue
                else:
                    if b.xi != lam.xi or b.u < lam.u:
                        continue
                if to_label in index:
                    i = index[to_label]
                    mat.a[i, j] = (int(mat.a[i, j]) + c) % p
        out[d] = mat
    return out


def action_composite(M: Comodule, lam1: Monomial, lam2: Monomial) -> dict:
    """act(lam1) after act(lam2), degreewise; missing blocks count as zero."""
    a1 = steenrod_action(M, lam1)
    a2 = steenrod_action(M, lam2)
    shift1 = M.preset.total_degree(lam1)
    shift2 = M.preset.total_degree(lam2)
    out = {}
    for d, m2 in a2.items():
        m1 = a1.get(d + shift2)
        if m1 is None:
            m1 = FpMatrix.zeros(M.p, M.dim(d + shift2 + shift1), m2.rows)
        out[d] = m1.mul(m2)
    return out


def instability_check(M: Comodule, imax: int = 6) -> list[str]:
    """validate() plus operation-level spot checks: the i-th power operation
    vanishes below degree 2i (degree i at p=2), and the Bockstein squares
    to zero."""
    problems = M.validate()
    if problems:
        return problems
    p = M.p
    threshold = (lambda i: i) if p == 2 else (lambda i: 2 * i)
    for i in range(1, imax + 1):
        blocks = steenrod_action(M, Monomial(xi=((1, i),)))
        for d, mat in blocks.items():
            if d < threshold(i) and not mat.is_zero():
                problems.append(
                    f"power operation {i} does not vanish on degree {d} < {threshold(i)}"
                )
    if p != 2:
        for d, mat in action_composite(M, mono_tau(0), mono_tau(0)).items():
            if not mat.is_zero():
                problems.append(f"Bockstein does not square to zero on degree {d}")
                break
    return problems


def operation_closure(M: Comodule, seeds: list, ops: list[Monomial]) -> dict:
    """Smallest graded subspace of M containing the seed vectors and closed
    under the given operations.  Seeds are (degree, coefficient_row) pairs;
    returns {degree: FpMatrix of basis rows}.
    """
    p = M.p
    actions = [(M.preset.total_degree(op), steenrod_action(M, op)) for op in ops]
    span: dict = {}

    def insert(d, row) -> bool:
        cur = span.get(d)
        if cur is None:
            mat = FpMatrix.from_rows(p, [row])
            if mat.rank() == 0:
                return False
            span[d] = mat.rref()[0]
            return True
        if cur.in_row_space(row) is not None:
            return False
        rows = [list(map(int, r)) for r in cur.a] + [row]
        new = FpMatrix.from_rows(p, rows).rref()[0]
        keep = [list(map(int, r)) for r in new.a if any(r)]
        span[d] = FpMatrix.from_rows(p, keep)
        return True

    frontier = []
    for d, row in seeds:
        if insert(d, list(row)):
            frontier.append((d, list(row)))
    while frontier:
        d, row = frontier.pop()
        for shift, blocks in actions:
            mat = blocks.get(d)
            if mat is None or mat.rows == 0:
                continue
            out = mat.apply(row)
            if any(out):
                if insert(d + shift, list(map(int, out))):
                    frontier.append((d + shift, list(map(int, out))))
    return {d: m for d, m in span.items() if m.rows}


def closure_dims(span: dict) -> dict:
    return {d: m.rows for d, m in sorted(span.items())}


# ---------------------------------------------------------------------------
# Poincare tables


def poincare_product(t1: dict, t2: dict, bound: int | None = None) -> dict:
    out: dict = {}
    for d1, c1 in t1.items():
        for d2, c2 in t2.items():
            d = add_deg(d1, d2)
            if bound is not None and total_of(d) > bound:
                continue
            out[d] = out.get(d, 0) + c1 * c2
    return out


def poincare_power(t: dict, n: int, bound: int | None = None) -> dict:
    out = {(0, 0) if any(isinstance(d, tuple) for d in t) else 0: 1}
    for _ in range(n):
        out = poincare_product(out, t, bound)
    return out


def poincare_theta(t: dict) -> dict:
    out: dict = {}
    for d, c in t.items():
        out[total_of(d)] = out.get(total_of(d), 0) + c
    return out


def poincare_shift(t: dict, d0) -> dict:
    return {add_deg(d0, d): c for d, c in t.items()}


def poincare_restrict(t: dict, bound: int) -> dict:
    return {d: c for d, c in t.items() if total_of(d) <= bound}
