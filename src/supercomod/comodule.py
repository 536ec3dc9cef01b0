"""Truncated comodules over the preset bialgebras, and maps between them.

A right comodule M is stored as a basis of labelled elements, graded by an
integer or by a bidegree, together with the structure map

    psi(m) = sum_i  c_i * m'_i (x) b_i

where each b_i is a bialgebra monomial satisfying the matric convention

    left(b_i) = degree(m'_i),        right(b_i) = degree(m).

Infinite comodules are truncated: a comodule with a `box` stores every
basis element of total degree at most box and none above it.  A truncation
is exact in every degree it stores, since both sides of each coaction
identity lose the same terms past the cut, even over the full algebra,
where w lowers total degree by one.  `box=None` means the comodule is
finite and complete.

Outside data (a JSON document, a test, a user) goes through the validating
`Comodule(...)`, which checks and merges it.  Every construction here emits
the stored form and goes through `Comodule._trusted`; the tensor product
multiplies its terms in bialgebra.

`action_table` reads every Steenrod-type operation of a singly graded
comodule off its coaction in one pass, filing each term under its monomial
with the grouplike pad cleared; `instability_check` reads that table.
"""

from __future__ import annotations

import json
from collections import Counter

from .bialgebra import (
    CoalgebraPreset,
    Monomial,
    _coaction_product,
    add_deg,
    coproduct,
    counit,
    first_difference,
    format_monomial,
    get_preset,
    mono_tau,
    parity_of,
    parse_monomial,
    quotient_map,
    total_of,
)
from .fplinalg import FpMatrix

Term = tuple[int, str, Monomial]

# validate() and ComoduleMorphism.check() stop after this many problems
MAX_PROBLEMS = 5


def _json_int(value, where: str) -> int:
    """`value` if it is a plain int (a bool is not); else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{where}: {value!r} is not an integer")
    return value


def _json_keys(obj: dict, keys: tuple, where: str) -> None:
    """A ValueError naming `where` and the first key of `keys` that `obj`
    lacks, if any."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")


def _json_objects(value, where: str, keys: tuple) -> list:
    """`value` if it is a list of JSON objects, each with every key of
    `keys`; else a ValueError naming the entry."""
    if not isinstance(value, list):
        raise ValueError(f"{where}: {json.dumps(value)[:60]} is not a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"{where}[{i}]: {json.dumps(entry)[:60]} is not an object")
        _json_keys(entry, keys, f"{where}[{i}]")
    return value


def deg_key(d):
    return (total_of(d), d if isinstance(d, tuple) else (d,))


class TrustedRegion:
    """The degrees a computation over the given comodules may trust.

    A truncated comodule is complete up to total degree box; a computation
    over several of them trusts the degrees that all of them store.
    `bound` is that total degree, the least box, None when nothing bounds
    it.  A computation `restrict`s its objects to the region once,
    then walks their coactions whole; `d in region` tests a degree that no
    stored label carries.  A smaller region comes from smaller objects:
    `truncate` them.
    """

    __slots__ = ("bound",)

    def __init__(self, *objects: "Comodule"):
        boxes = [M.box for M in objects if M.box is not None]
        self.bound = min(boxes) if boxes else None

    def __contains__(self, d) -> bool:
        return self.bound is None or total_of(d) <= self.bound

    def restrict(self, M: "Comodule") -> "Comodule":
        """M without its degrees above the bound: M itself when none can lie
        there (M's box is within it), else `_cut` of M, which keeps M's
        labels and their order in each degree it keeps."""
        bound = self.bound
        if bound is None or (M.box <= bound if M.box is not None
                             else all(total_of(d) <= bound for d in M.components)):
            return M
        return _cut(M, bound)


def _cut(M: "Comodule", box: int) -> "Comodule":
    """M with this box: its degrees above box dropped, and with them the
    coaction terms that hit their labels."""
    components = {d: list(labs) for d, labs in M.components.items() if total_of(d) <= box}
    kept = {lab for labs in components.values() for lab in labs}
    coaction = {lab: tuple(t for t in M.coaction[lab] if t[1] in kept)
                for labs in components.values() for lab in labs}
    return Comodule._trusted(M.preset, components, coaction, box=box, name=M.name)


class Comodule:
    """A truncated right comodule with a chosen homogeneous basis.  It
    stores no degree above its box: the constructor rejects one.

    `cofree_on` is the degree d on which the comodule is cofree on one
    cogenerator, so that a morphism into it is the same thing as a
    functional on the source's degree-d part; `free_on` is the degree d on
    which it is free, so that a morphism out of it is the same thing as an
    element of the target's degree-d part.  Only the J and F builders set
    them, and every other construction leaves them None.
    """

    cofree_on = free_on = None

    def __init__(self, preset: CoalgebraPreset, components: dict, coaction: dict,
                 box: int | None, name: str = ""):
        """The validating constructor, for outside data: it checks the
        degrees and labels, and merges each label's terms by (label,
        monomial) in the order first met, dropping those that sum to 0."""
        kept = {d: list(labels) for d, labels in components.items()}
        kept = {d: labels for d, labels in kept.items() if labels}
        for d in kept:
            if box is not None and total_of(d) > box:
                raise ValueError(f"degree {d} lies above box = {box}")
        self._store(preset, kept, {}, box, name)
        p = preset.p
        for lab, terms in coaction.items():
            if lab not in self._deg_of:
                raise ValueError(f"coaction given for unknown label {lab!r}")
            merged: dict[tuple[str, Monomial], int] = {}
            for c, to_label, b in terms:
                if to_label not in self._deg_of:
                    raise ValueError(f"coaction of {lab!r} hits unknown label {to_label!r}")
                key = (to_label, b)
                merged[key] = (merged.get(key, 0) + c) % p
            self.coaction[lab] = tuple((c, t, b) for (t, b), c in merged.items() if c)
        for lab in self._deg_of:
            self.coaction.setdefault(lab, ())

    @classmethod
    def _trusted(cls, preset, components: dict, coaction: dict, box,
                 name: str = "") -> "Comodule":
        """The trusted constructor, for the internal builders: the comodule
        that `Comodule(...)` would build from arguments that are already in
        its stored form (no empty component, no degree above its box,
        and for every label a tuple of merged terms with coefficients nonzero
        mod p, each hitting a label).  Only a repeated label raises."""
        M = cls.__new__(cls)
        M._store(preset, components, coaction, box, name)
        return M

    def _store(self, preset, components: dict, coaction: dict, box, name) -> None:
        """Set the stored fields: the one place both constructors do."""
        self.preset, self.box, self.name = preset, box, name
        self.components, self.coaction = components, coaction
        self._deg_of, self._index_of = {}, {}
        for d, labels in components.items():
            for i, lab in enumerate(labels):
                if lab in self._deg_of:
                    raise ValueError(f"duplicate label {lab!r}")
                self._deg_of[lab] = d
                self._index_of[lab] = i

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

    def poincare(self) -> dict:
        return {d: len(labels) for d, labels in self.components.items()}

    def matches(self, other: "Comodule") -> bool:
        """Whether `other` is this comodule: the same object, or the same
        preset, components and coaction, each label's coaction compared as
        a multiset of terms so that term order does not matter (a coaction
        equal term for term skips the multisets)."""
        if self is other:
            return True
        return (
            self.preset == other.preset
            and self.components == other.components
            and (self.coaction == other.coaction
                 or all(Counter(terms) == Counter(other.coaction[lab])
                        for lab, terms in self.coaction.items()))
        )

    def __repr__(self) -> str:
        nm = self.name or "comodule"
        return (
            f"<{nm}: preset {self.preset.name} p={self.p} box={self.box} "
            f"dim {self.total_dim()}>"
        )

    # ---- validation

    def validate(self) -> list[str]:
        """Check homogeneity, counit and coassociativity inside the trusted
        region.  Returns a list of at most MAX_PROBLEMS problems, empty if
        valid.  (Every term hits a label, as both constructors ensure, and no
        monomial lowers total degree by more than its power of w.)
        """
        problems: list[str] = []
        p = self.p
        preset = self.preset
        for lab, terms in self.coaction.items():
            d = self._deg_of[lab]
            counit_part: dict[str, int] = {}
            for c, to_label, b in terms:
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
                if counit(preset, b):
                    counit_part[to_label] = (counit_part.get(to_label, 0) + c) % p
            counit_part = {k: v for k, v in counit_part.items() if v}
            if counit_part != {lab: 1}:
                problems.append(
                    f"{lab}: counit fails, (1 (x) eps) psi = {counit_part}, expected itself"
                )
            if len(problems) >= MAX_PROBLEMS:
                return problems[:MAX_PROBLEMS]
        problems.extend(self._coassoc_problems(MAX_PROBLEMS - len(problems)))
        return problems[:MAX_PROBLEMS]

    def _coassoc_problems(self, budget: int) -> list[str]:
        problems = []
        p = self.p
        # route A walks whole coactions; route B tests coproduct degrees
        region = TrustedRegion(self)
        for lab, terms in self.coaction.items():
            lhs: dict = {}
            rhs: dict = {}
            for c, mid_label, b in terms:
                # route A: psi again on the comodule slot
                for c2, far_label, b2 in self.coaction[mid_label]:
                    key = (far_label, b2, b)
                    lhs[key] = lhs.get(key, 0) + c * c2
                # route B: coproduct on the algebra slot
                for (b1, b2), c2 in coproduct(self.preset, b).items():
                    far = self.preset.left_degree(b1)
                    mid = self.preset.right_degree(b1)
                    if far in region and mid in region:
                        key = (mid_label, b1, b2)
                        rhs[key] = rhs.get(key, 0) + c * c2
            bad = lhs != rhs and first_difference(
                p, lhs, rhs, lambda k: (k[0], k[1].sort_key(), k[2].sort_key()))
            if bad:
                problems.append(
                    f"{lab}: coassociativity fails at term "
                    f"{bad[0]} (x) {bad[1]} (x) {bad[2]}: (psi x 1)psi gives "
                    f"{lhs.get(bad, 0) % p}, (1 x D)psi gives {rhs.get(bad, 0) % p}"
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
            "name": self.name,
            "components": comps,
            "coaction": coact,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, data: dict) -> "Comodule":
        """The comodule of a `to_dict` document.  A malformed entry raises a
        ValueError naming it: a missing key, a number that is not a plain int
        (a float or a bool), a negative box, a bidegree not of the
        preset's grading, a list of entries that are not objects, or a preset,
        name, label or monomial that is not a string."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {json.dumps(data)[:60]}")
        _json_keys(data, ("p", "preset", "components", "coaction"), "document")
        box = data.get("box")
        if box is not None and _json_int(box, "box") < 0:
            raise ValueError(f"box: {box} is negative")
        for key in ("preset", "name"):
            if not isinstance(data.get(key, ""), str):
                raise ValueError(f"{key}: {data[key]!r} is not a string")
        preset = get_preset(data["preset"], _json_int(data["p"], "p"))
        name = data.get("name", "")
        components = {}
        for i, entry in enumerate(_json_objects(data["components"], "components",
                                                ("bidegree", "labels"))):
            d, labels = entry["bidegree"], entry["labels"]
            if isinstance(d, list) != preset.bigraded or preset.bigraded and len(d) != 2:
                raise ValueError(f"components[{i}] bidegree {d!r} is not a "
                                 f"{'bi' if preset.bigraded else ''}degree of {preset.name}")
            for x in d if isinstance(d, list) else [d]:
                _json_int(x, f"components[{i}] bidegree {d!r}")
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise ValueError(f"components[{i}] labels {labels!r}: not a list of strings")
            key = tuple(d) if isinstance(d, list) else d
            if key in components:
                raise ValueError(f"components[{i}] bidegree {d!r} is listed twice")
            components[key] = labels
        coaction: dict[str, list[Term]] = {}
        parsed: dict[str, Monomial] = {}  # each distinct monomial text is parsed once
        for i, entry in enumerate(_json_objects(data["coaction"], "coaction",
                                                ("from_label", "to_label", "monomial", "coeff"))):
            where = f"coaction[{i}] ({entry['from_label']} -> {entry['to_label']})"
            for key in ("from_label", "to_label", "monomial"):
                if not isinstance(entry[key], str):
                    raise ValueError(f"{where} {key} {entry[key]!r} is not a string")
            c, text = _json_int(entry["coeff"], f"{where} coeff"), entry["monomial"]
            b = parsed.get(text) or parsed.setdefault(text, parse_monomial(text))
            coaction.setdefault(entry["from_label"], []).append((c, entry["to_label"], b))
        return cls(preset, components, coaction, box=box, name=name)

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

    The caller guarantees that no component is empty or repeats a label,
    and that each coaction[n] has one term per (b, n'), with a coefficient
    nonzero mod p (as the coproduct terms of the F builder have), so the
    dual's terms come merged and it goes through the trusted constructor.
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
                    dual[to_label].append(((-c if b.parity else c) % preset.p, lab, b))
    return Comodule._trusted(preset, kept, {lab: tuple(terms) for lab, terms in dual.items()},
                             box=box, name=name)


def simple_comodule(preset: CoalgebraPreset, d, label: str = "e") -> Comodule:
    """The one-dimensional comodule concentrated in degree d."""
    # the grouplikes are u in bidegree (1, 0) and x0 in (0, 1); a singly
    # graded preset uses u if it has u, else x0
    a, b = d if preset.bigraded else (d, 0) if preset.row.u else (0, d)
    m = Monomial(u=a, xi=(((0, b),) if b else ()))
    preset.validate_monomial(m)
    if preset.left_degree(m) != d or preset.right_degree(m) != d:
        raise ValueError(f"no grouplike monomial in degree {d}")
    return Comodule._trusted(preset, {d: [label]}, {label: ((1, label, m),)}, box=None,
                             name=f"simple{d}")


def zero_comodule(preset: CoalgebraPreset) -> Comodule:
    return Comodule._trusted(preset, {}, {}, box=None, name="0")


def tensor(M: Comodule, N: Comodule, name: str = "") -> Comodule:
    """Tensor product of comodules, with the Koszul sign
    psi(m (x) n) = sum +- (m' (x) n') (x) b_m b_n,
    the sign being (-1)^{parity(b_m) parity(n')}, and m (x) n labelled "m|n"
    (two pairs that join to one label raise).  `_coaction_product` multiplies
    and merges the terms in bialgebra, so they are stored as built."""
    if M.preset != N.preset:
        raise ValueError("tensor requires matching presets")
    box = TrustedRegion(M, N).bound
    components: dict = {}
    pair_label: dict[tuple[str, str], str] = {}
    for dm in M.degrees():
        for dn in N.degrees():
            d = add_deg(dm, dn)
            if box is not None and total_of(d) > box:
                continue
            labs = components.setdefault(d, [])
            for lm in M.components[dm]:
                for ln in N.components[dn]:
                    labs.append(pair_label.setdefault((lm, ln), f"{lm}|{ln}"))
    odd = {ln: parity_of(d) for ln, d in N._deg_of.items()}
    coaction = _coaction_product(M.p, pair_label, M.coaction, N.coaction, odd)
    return Comodule._trusted(M.preset, components, coaction, box=box,
                             name=name or f"{M.name}(x){N.name}")


def suspend(M: Comodule, d) -> Comodule:
    """Shift by tensoring with the simple comodule in degree d on the left."""
    return tensor(simple_comodule(M.preset, d, label="s"), M, name=f"S{d}{M.name}")


def _push_coaction(M: Comodule, dst: CoalgebraPreset) -> dict:
    """M's coaction with each algebra factor sent through the quotient
    M.preset -> dst, each distinct monomial once, and the terms that land
    on one (label, image) merged in the same pass, as `Comodule` would."""
    images: dict = {}
    p = M.p
    out = {}
    for lab, terms in M.coaction.items():
        merged: dict = {}
        for c, to_label, b in terms:
            if b not in images:
                images[b] = quotient_map(M.preset, dst, b)
            if images[b] is not None:
                key = (to_label, images[b])
                merged[key] = (merged.get(key, 0) + c) % p
        out[lab] = tuple([(c, to_label, b2) for (to_label, b2), c in merged.items() if c])
    return out


def corestrict_psi(M: Comodule) -> Comodule:
    """Push a comodule over the full algebra down to the quotient with w = 0."""
    if M.preset.name != "b":
        raise ValueError("corestrict_psi starts from preset b")
    dst = get_preset("bbar", M.p)
    return Comodule._trusted(dst, {d: list(labs) for d, labs in M.components.items()},
                             _push_coaction(M, dst), box=M.box, name=f"Psi({M.name})")


def corestrict_theta(M: Comodule) -> Comodule:
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
    return Comodule._trusted(dst, components, _push_coaction(M, dst), box=M.box,
                             name=f"Theta({M.name})")


def embed_xi_polynomial(M: Comodule) -> Comodule:
    """Reinterpret a comodule over the xi-polynomial subalgebra as one over
    the w = 0 algebra, along the inclusion of bialgebras."""
    if M.preset.name != "xi_poly":
        raise ValueError("embed_xi_polynomial starts from preset xi_poly")
    dst = get_preset("bbar", M.p)
    return Comodule._trusted(dst, M.components, M.coaction, box=M.box, name=M.name)


def truncate(M: Comodule, box: int) -> Comodule:
    """Restrict a comodule to the sub-box `box`."""
    if M.box is not None and box > M.box:
        raise ValueError(f"cannot grow the box from {M.box} to {box}")
    return _cut(M, box)


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
            if mat.shape != (target.dim(d), source.dim(d)):
                raise ValueError(
                    f"block at {d} has shape {mat.shape}, expected "
                    f"({target.dim(d)}, {source.dim(d)})"
                )
            if not mat.is_zero():
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
        if d not in self.blocks:
            return []
        tgt = self.target.basis(d)
        return [(c, tgt[i]) for i, c in self.blocks[d].column(self.source.index_of(label))]

    def check(self) -> list[str]:
        """Verify psi_target(f(m)) = (f (x) 1)(psi_source(m)) on the source
        and target restricted to the region both can see, each side summed
        unreduced and compared mod p once (`first_difference`).  Returns a
        list of at most MAX_PROBLEMS discrepancies, reduced mod p."""
        problems = []
        p = self.p
        region = TrustedRegion(self.source, self.target)
        source, target = region.restrict(self.source), region.restrict(self.target)
        image = {lab: self.image_of(lab) for lab in source.coaction}
        for d in source.degrees():
            for lab in source.components[d]:
                lhs: dict = {}
                for c, tlab in image[lab]:
                    for c2, tlab2, b in target.coaction[tlab]:
                        key = (tlab2, b)
                        lhs[key] = lhs.get(key, 0) + c * c2
                rhs: dict = {}
                for c, slab2, b in source.coaction[lab]:
                    for c2, tlab2 in image[slab2]:
                        key = (tlab2, b)
                        rhs[key] = rhs.get(key, 0) + c * c2
                bad = lhs != rhs and first_difference(
                    p, lhs, rhs, lambda k: (k[0], k[1].sort_key()))
                if bad:
                    problems.append(
                        f"{lab}: psi f - (f x 1) psi has term {bad[0]} (x) {bad[1]} "
                        f"with coeffs {lhs.get(bad, 0) % p} vs {rhs.get(bad, 0) % p}"
                    )
                    if len(problems) >= MAX_PROBLEMS:
                        return problems
        return problems

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
        if not other.source.matches(self.source):
            raise ValueError("addition mismatch: the morphisms need a shared source")
        if not other.target.matches(self.target):
            raise ValueError("addition mismatch: the morphisms need a shared target")
        return ComoduleMorphism(self.source, self.target, {
            d: self.block(d).add(other.block(d)) for d in set(self.blocks) | set(other.blocks)})

    def sub(self, other: "ComoduleMorphism") -> "ComoduleMorphism":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "ComoduleMorphism":
        return ComoduleMorphism(
            self.source, self.target, {d: m.scale(c) for d, m in self.blocks.items()}
        )

    def is_zero(self) -> bool:
        return not self.blocks


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
        for lab in src:
            for c, tl in assign.get(lab, ()):
                if N.degree_of(tl) != d:
                    raise ValueError(f"{lab} -> {tl} changes degree")
        blocks[d] = FpMatrix(p, len(tgt), [
            [(N.index_of(tl), c) for c, tl in assign.get(lab, ())] for lab in src])
    return ComoduleMorphism(M, N, blocks)


def direct_sum(mods: list) -> Comodule:
    """Direct sum; labels are prefixed "i:" by summand position."""
    if not mods:
        raise ValueError("empty direct sum")
    preset = mods[0].preset
    region = TrustedRegion(*mods)
    components: dict = {}
    coaction: dict = {}
    for i, M in enumerate(mods):
        if M.preset != preset:
            raise ValueError("direct sum requires matching presets")
        M = region.restrict(M)
        for d in M.degrees():
            components.setdefault(d, []).extend(f"{i}:{lab}" for lab in M.components[d])
        for lab, terms in M.coaction.items():
            coaction[f"{i}:{lab}"] = tuple([(c, f"{i}:{t}", b) for c, t, b in terms])
    return Comodule._trusted(preset, components, coaction, box=region.bound,
                             name="(+)".join(M.name for M in mods))


def summand_inclusion(S: Comodule, mods: list, i: int) -> ComoduleMorphism:
    """Inclusion of the i-th summand into a direct sum built by direct_sum."""
    return morphism_from_assignment(mods[i], S, {
        lab: [(1, f"{i}:{lab}")] for lab in mods[i].coaction if f"{i}:{lab}" in S.coaction})


def summand_projection(S: Comodule, mods: list, i: int) -> ComoduleMorphism:
    """Projection of a direct sum onto its i-th summand."""
    return morphism_from_assignment(S, mods[i], {
        f"{i}:{lab}": [(1, lab)] for lab in mods[i].coaction})


# ---------------------------------------------------------------------------
# Steenrod-type actions on singly graded comodules


def action_table(M: Comodule) -> dict:
    """M's Steenrod-type operations, read off its coaction in one pass:
    {lam: {d: matrix}}, each block of shape (dim at d + |lam|, dim at d); an
    operation or degree that the table lacks acts as zero.

    act(lam) is dual to multiplication by lam: act(lam)(m) = sum_k sum_m'
    c(m, m', g^k lam) m', where g is the grouplike pad of degree 0 (u, or x0
    without u), so a term at b is filed under lam = ``PresetRow.unpadded(b)``.
    """
    if M.preset.bigraded:
        raise ValueError("actions are defined on singly graded comodules")
    preset, unpadded = M.preset, M.preset.row.unpadded
    columns: dict = {}
    for d, labels in M.components.items():
        for j, lab in enumerate(labels):
            for c, t, b in M.coaction[lab]:
                blocks = columns.setdefault(unpadded(b), {})
                if d not in blocks:
                    blocks[d] = [[] for _ in labels]
                blocks[d][j].append((M.index_of(t), c))
    return {lam: {d: FpMatrix(M.p, M.dim(d + preset.total_degree(lam)), cols)
                  for d, cols in blocks.items()}
            for lam, blocks in columns.items()}


def instability_check(M: Comodule, table: dict | None = None) -> list[str]:
    """validate() plus instability: each block of each operation lam in M's
    action table (`table`, if the caller has built it) vanishes below degree
    right(lam), e + 2i for beta^e P^i and i for Sq^i; where the preset has
    tau, beta squares to zero.  The proof, from the matric grading: a term at
    g^k lam of a label in degree d has right(g^k lam) = d, which validate()
    checks, and right(g) = 1, so d = right(lam) + k: an unstable module is a
    comodule over the quotient bialgebra."""
    problems = M.validate()
    if problems:
        return problems
    preset = M.preset
    table = action_table(M) if table is None else table
    for lam, blocks in table.items():
        threshold = preset.right_degree(lam)
        for d, mat in blocks.items():
            if d < threshold and not mat.is_zero():
                problems.append(f"act({lam}) does not vanish on degree {d} < {threshold}")
    if preset.row.tau:
        beta = table.get(mono_tau(0), {})
        for d, mat in beta.items():
            if d + 1 in beta and not beta[d + 1].mul(mat).is_zero():
                problems.append(f"Bockstein does not square to zero on degree {d}")
                break
    return problems


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
