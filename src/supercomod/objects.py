"""Standard comodules: injective-type J's, projective-type F's, the model
algebra H, simples and suspensions, and the canonical maps between them.

Over the w = 0 quotient:

* ``J(a, b)`` is spanned by the monomials of left bidegree (a, b), graded by
  right bidegree, with the coproduct itself as coaction.  It is finite and
  co-represents evaluation: hom(M, J(a,b)) has the dimension of M_{(a,b)}.
* ``F(a, b)`` is the graded dual of the left comodule spanned by the
  monomials of right bidegree (a, b); it represents evaluation and is
  infinite, so it carries a truncation box.

``Jn``/``Fn`` are the singly graded versions over the quotient that also
identifies x0 with u^2.  ``H`` is the exterior-times-polynomial comodule
algebra on two generators y, x over the full bialgebra (at p = 2, the
polynomial algebra on x over its F_2 analogue).
"""

from __future__ import annotations

from .bialgebra import (
    Monomial,
    _monomial,
    coproduct,
    enumerate_left,
    enumerate_right,
    format_monomial,
    get_preset,
    mono_tau,
    mono_u,
    mono_w,
    mono_xi,
    parse_monomial,
    product,
)
from .comodule import (
    Comodule,
    ComoduleMorphism,
    dualize_left,
    morphism_from_assignment,
    simple_comodule,
    suspend,
    corestrict_psi,
    corestrict_theta,
    tensor,
)

# ---------------------------------------------------------------------------
# J-type objects


def _build_J_on(preset, left, name: str) -> Comodule:
    """Monomials of the given left degree, graded by right degree and
    coacted on by the coproduct."""
    span = enumerate_left(preset, left)
    labels = {m: format_monomial(m) for m in span}
    components: dict = {}
    for m in span:
        components.setdefault(preset.right_degree(m), []).append(labels[m])
    coaction = {
        labels[m]: [(c, labels[m1], b2) for (m1, b2), c in coproduct(preset, m).items()]
        for m in span
    }
    return Comodule(preset, components, coaction, box=None, name=name)


def build_J(p: int, a: int, b: int) -> Comodule:
    """Monomials of left bidegree (a, b), coacted on by the coproduct."""
    return _build_J_on(get_preset("bbar", p), (a, b), f"J({a},{b})")


def build_Jn(p: int, n: int) -> Comodule:
    """Single-graded analogue of build_J over the x0 = u^2 quotient."""
    return _build_J_on(get_preset("atilde", p), n, f"J{n}")


# ---------------------------------------------------------------------------
# F-type objects


def _build_F_on(preset, right, box: int, name: str) -> Comodule:
    """Dual of the left comodule on the monomials of the given right degree
    and left total degree <= box, graded by left degree."""
    span = enumerate_right(preset, right, box)
    labels = {m: format_monomial(m) for m in span}
    components: dict = {}
    for m in span:
        components.setdefault(preset.left_degree(m), []).append(labels[m])
    coaction = {
        labels[m]: [(c, b1, labels[m2]) for (b1, m2), c in coproduct(preset, m).items()
                    if m2 in labels]
        for m in span
    }
    return dualize_left(preset, components, coaction, box=box, name=name)


def build_F(p: int, a: int, b: int, box: int) -> Comodule:
    """Dual of the left comodule on the right-(a, b) monomials, truncated."""
    return _build_F_on(get_preset("bbar", p), (a, b), box, f"F({a},{b})")


def build_Fn(p: int, n: int, box: int) -> Comodule:
    """Single-graded representing object, dual to the right-degree-n span."""
    return _build_F_on(get_preset("atilde", p), n, box, f"F{n}")


# ---------------------------------------------------------------------------
# the model algebra H


def h_label(eps: int, m: int) -> str:
    if eps and m:
        return f"y*x^{m}" if m > 1 else "y*x"
    if eps:
        return "y"
    if m:
        return f"x^{m}" if m > 1 else "x"
    return "1"


def build_H(p: int, box: int) -> Comodule:
    """The comodule algebra Lambda(y) (x) F[x] over the full bialgebra,
    with psi(y) = y (x) u + sum x^{p^i} (x) t_i and
    psi(x) = y (x) w + sum x^{p^j} (x) x_j.  At p = 2 this is F_2[x] with
    psi(x) = sum x^{2^j} (x) x_j.  At odd p, where coactions can lower
    total degree through w, it is stored one layer past the box."""
    odd = p != 2
    preset = get_preset("b" if odd else "b2", p)
    bound = box + 1 if odd else box
    xdeg = 2 if odd else 1  # total degree of x; y has degree 1

    def mul(t1: dict, t2: dict) -> dict:
        out: dict = {}
        for (e1, m1, b1), c1 in t1.items():
            pb = b1.parity
            for (e2, m2, b2), c2 in t2.items():
                if e1 and e2:
                    continue
                e, m = e1 + e2, m1 + m2
                if e + xdeg * m > bound:
                    continue
                sign = -1 if (pb and e2) else 1
                s, b = product(b1, b2)
                if not s:
                    continue
                key = (e, m, b)
                v = (out.get(key, 0) + c1 * c2 * sign * s) % p
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    psi_y = {(1, 0, mono_u()): 1}  # used only at odd p, where y exists
    i = 0
    while 2 * p**i <= bound:
        psi_y[(0, p**i, mono_tau(i))] = 1
        i += 1
    psi_x = {(1, 0, mono_w()): 1} if odd else {}
    j = 0
    while xdeg * p**j <= bound:
        psi_x[(0, p**j, mono_xi(j))] = 1
        j += 1

    powers = [{(0, 0, Monomial()): 1}]
    while xdeg * len(powers) <= bound:
        powers.append(mul(powers[-1], psi_x))

    components: dict = {}
    coaction: dict = {}
    for m in range(bound // xdeg + 1):
        for eps in (0, 1) if odd else (0,):
            if eps + xdeg * m > bound:
                continue
            lab = h_label(eps, m)
            components.setdefault((eps, m) if odd else m, []).append(lab)
            ts = mul(psi_y, powers[m]) if eps else powers[m]
            coaction[lab] = [(c, h_label(e2, m2), b) for (e2, m2, b), c in ts.items()]
    return Comodule(preset, components, coaction, box=box, margin=bound - box, name="H")


def build_H_tensor(p: int, n: int, box: int) -> Comodule:
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    H = build_H(p, box)
    out = H
    for _ in range(n - 1):
        out = tensor(out, H)
    out.name = f"H^(x){n}" if n > 1 else "H"
    return out


def psi_H(p: int, box: int) -> Comodule:
    """H pushed down to the w = 0 quotient."""
    return corestrict_psi(build_H(p, box), name="Psi(H)")


def theta_psi_H(p: int, box: int) -> Comodule:
    """H pushed all the way down to the single-graded quotient."""
    return corestrict_theta(psi_H(p, box), name="Theta(Psi(H))")


# ---------------------------------------------------------------------------
# canonical morphisms


def cap_morphism(p: int, lam: Monomial | str) -> ComoduleMorphism:
    """Contraction against lam: J(0, m) -> J(right(lam)) for left(lam) = (0, m),
    sending m' to the coefficient of lam (x) - in the coproduct of m'."""
    if isinstance(lam, str):
        lam = parse_monomial(lam)
    preset = get_preset("bbar", p)
    la, lb = preset.left_degree(lam)
    if la != 0:
        raise ValueError(f"contraction element must have left bidegree (0, m), got {lam}")
    source = build_J(p, 0, lb)
    ra, rb = preset.right_degree(lam)
    target = build_J(p, ra, rb)
    assign: dict = {}
    for mp in enumerate_left(preset, (0, lb)):
        terms = []
        for (b1, b2), c in coproduct(preset, mp).items():
            if b1 == lam:
                terms.append((c, format_monomial(b2)))
        assign[format_monomial(mp)] = terms
    return morphism_from_assignment(source, target, assign)


def verschiebung(p: int, n: int) -> ComoduleMorphism:
    """V_n = contraction against x1^n: J(0, np) -> J(0, n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return cap_morphism(p, Monomial(xi=((1, n),)))


def verschiebung_twisted(p: int, n: int) -> ComoduleMorphism:
    """V'_n = contraction against t0*x1^n: J(0, np+1) -> J(1, n)."""
    return cap_morphism(p, Monomial(tau=(0,), xi=((1, n),) if n else ()))


def xi0_multiplication(p: int, m: int) -> ComoduleMorphism:
    """Multiplication by x0, as S^{(0,1)} J(0, m-1) -> J(0, m)."""
    if m < 1:
        raise ValueError("need m >= 1")
    source_core = build_J(p, 0, m - 1)
    source = suspend(source_core, (0, 1))
    target = build_J(p, 0, m)
    assign = {}
    for mp in enumerate_left(get_preset("bbar", p), (0, m - 1)):
        s, prod = product(mono_xi(0), mp)
        assign[f"s|{format_monomial(mp)}"] = [(s, format_monomial(prod))]
    return morphism_from_assignment(source, target, assign)


def u_suspension_iso(p: int, n: int) -> ComoduleMorphism:
    """The canonical identification S^{(1,0)} J(0, n) -> J(1, n), s|m -> u*m."""
    source = suspend(build_J(p, 0, n), (1, 0))
    target = build_J(p, 1, n)
    assign = {}
    for mp in enumerate_left(get_preset("bbar", p), (0, n)):
        s, prod = product(mono_u(), mp)
        assign[f"s|{format_monomial(mp)}"] = [(s, format_monomial(prod))]
    return morphism_from_assignment(source, target, assign)


# ---- the mu family and the canonical l / r maps


def _xi0_rewrite_preimage(m: Monomial, a: int, b: int) -> Monomial | None:
    """The unique monomial with right bidegree (a, b) mapping to m under the
    x0 -> u^2 rewrite, if any."""
    e_high = sum(e for j, e in m.xi)
    e0 = b - e_high
    if e0 < 0:
        return None
    u = m.u - 2 * e0
    if u < 0 or u + len(m.tau) != a:
        return None
    xi = tuple(sorted(([(0, e0)] if e0 else []) + list(m.xi)))
    return _monomial(m.w, m.tau, u, xi)


def theta_F(p: int, a: int, b: int, box: int) -> Comodule:
    return corestrict_theta(build_F(p, a, b, box), name=f"Theta(F({a},{b}))")


def theta_J(p: int, a: int, b: int) -> Comodule:
    return corestrict_theta(build_J(p, a, b), name=f"Theta(J({a},{b}))")


def mu_quotient(p: int, n: int, a: int, b: int, box: int,
                target: Comodule | None = None,
                source: Comodule | None = None) -> ComoduleMorphism:
    """The quotient F(n) -> Theta F(a, b) dual to rewriting x0 as u^2 on the
    right-(a, b) monomials, for a + 2b = n."""
    if a + 2 * b != n:
        raise ValueError("need a + 2b = n")
    source = source or build_Fn(p, n, box)
    target = target or theta_F(p, a, b, box)
    assign: dict = {}
    for m in enumerate_right(get_preset("atilde", p), n, box):
        pre = _xi0_rewrite_preimage(m, a, b)
        if pre is not None and format_monomial(pre) in target._deg_of:
            assign[format_monomial(m)] = [(1, format_monomial(pre))]
    return morphism_from_assignment(source, target, assign)


def _divide_by_grouplike(p: int, a: int, b: int, box: int, shift,
                         source: Comodule | None,
                         target: Comodule | None) -> ComoduleMorphism:
    """F(a,b) -> S^shift F((a,b) - shift) for shift = (da, db), dual to
    multiplying the right-((a,b) - shift) span by the grouplike u^da x0^db:
    it sends the dual of m to the dual of m / (u^da x0^db), and to 0 when
    that division leaves no monomial."""
    da, db = shift
    source = source or build_F(p, a, b, box)
    target = target or suspend(build_F(p, a - da, b - db, box), shift)
    assign: dict = {}
    for m in enumerate_right(get_preset("bbar", p), (a, b), box):
        xi = m.xi_dict()
        if m.u < da or xi.get(0, 0) < db:
            continue
        xi[0] = xi.get(0, 0) - db
        quo = _monomial(m.w, m.tau, m.u - da, tuple(sorted((j, e) for j, e in xi.items() if e)))
        tl = f"s|{format_monomial(quo)}"
        if tl in target._deg_of:
            assign[format_monomial(m)] = [(1, tl)]
    return morphism_from_assignment(source, target, assign)


def canonical_l(p: int, a: int, b: int, box: int,
                source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    """The generator F(a,b) -> S^{(2,0)} F(a-2,b), dual to multiplying the
    right-(a-2, b) span by u^2; it divides the dual basis by u^2."""
    if a < 2:
        raise ValueError("need a >= 2")
    return _divide_by_grouplike(p, a, b, box, (2, 0), source, target)


def canonical_r(p: int, a: int, b: int, box: int,
                source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    """The generator F(a,b) -> S^{(0,1)} F(a,b-1), dual to multiplying the
    right-(a, b-1) span by x0; it divides the dual basis by x0."""
    if b < 1:
        raise ValueError("need b >= 1")
    return _divide_by_grouplike(p, a, b, box, (0, 1), source, target)


def canonical_u(p: int, a: int, b: int, box: int,
                source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    """The surjection F(a,b) -> S^{(1,0)} F(a-1,b), dual to multiplying the
    right-(a-1, b) span by u; it divides the dual basis by u."""
    if a < 1:
        raise ValueError("need a >= 1")
    return _divide_by_grouplike(p, a, b, box, (1, 0), source, target)


def build_PhiF(p: int, a: int, box: int):
    """Kernel of the canonical l on F(a, 0), with its inclusion; for
    a in {0, 1} this is all of F(a, 0)."""
    if a < 2:
        F = build_F(p, a, 0, box)
        F.name = f"PhiF({a})"
        from .comodule import identity_morphism

        return F, identity_morphism(F)
    from .homsolver import kernel

    f = canonical_l(p, a, 0, box)
    K, incl = kernel(f, name=f"PhiF({a})")
    return K, incl


# ---------------------------------------------------------------------------
# object ids (shared by the command line and the verifier)


def parse_object_id(text: str, p: int, box: int) -> Comodule:
    """Build a standard object from its id.

    Supported:  H | H^k | F:a,b | J:a,b | Fn:n | Jn:n | S:a,b | PhiF:a
    """
    text = text.strip()
    if text == "H":
        return build_H(p, box)
    if text.startswith("H^"):
        return build_H_tensor(p, int(text[2:]), box)
    head, _, rest = text.partition(":")
    if not rest:
        raise ValueError(f"unrecognized object id {text!r}")
    args = [int(x) for x in rest.split(",")]
    if any(x < 0 for x in args):
        raise ValueError(f"object id {text!r}: indices must be >= 0")
    if head == "F" and len(args) == 2:
        return build_F(p, args[0], args[1], box)
    if head == "J" and len(args) == 2:
        return build_J(p, args[0], args[1])
    if head == "Fn" and len(args) == 1:
        return build_Fn(p, args[0], box)
    if head == "Jn" and len(args) == 1:
        return build_Jn(p, args[0])
    if head == "S" and len(args) == 2:
        return simple_comodule(get_preset("bbar", p), (args[0], args[1]))
    if head == "PhiF" and len(args) == 1:
        return build_PhiF(p, args[0], box)[0]
    raise ValueError(f"unrecognized object id {text!r}")
