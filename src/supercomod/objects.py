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
    ONE,
    Monomial,
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
    tensor_mul,
)
from .comodule import (
    Comodule,
    ComoduleMorphism,
    dualize_left,
    identity_morphism,
    simple_comodule,
    suspend,
    corestrict_psi,
    corestrict_theta,
    tensor,
    zero_morphism,
)
from .homsolver import cofree_map, free_map, kernel

# ---------------------------------------------------------------------------
# J-type objects


def _build_J_on(preset, left, name: str) -> Comodule:
    """Monomials of the given left degree, graded by right degree and
    coacted on by the coproduct: the comodule cofree on one cogenerator in
    degree `left`.  Each coproduct key (m1, b2) is one term, so the
    coaction is merged as built and goes through the trusted constructor."""
    span = enumerate_left(preset, left)
    labels = {m: format_monomial(m) for m in span}
    components: dict = {}
    for m in span:
        components.setdefault(preset.right_degree(m), []).append(labels[m])
    coaction = {
        labels[m]: tuple([(c, labels[m1], b2) for (m1, b2), c in coproduct(preset, m).items()])
        for m in span
    }
    J = Comodule._trusted(preset, components, coaction, box=None, name=name)
    J.cofree_on = left
    return J


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
    F = dualize_left(preset, components, coaction, box=box, name=name)
    F.free_on = right
    return F


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
    psi(x) = sum x^{2^j} (x) x_j.  It is stored up to its box, as every
    truncation is, though w lowers total degree.

    Lambda(y) (x) F[x] is the subalgebra Lambda(t0) (x) F[x0] of the
    bialgebra, with y = t0 (odd) and x = x0 (even), so psi(y), psi(x) and
    the powers of psi(x) are elements {(a, b): c} of B (x) B multiplied by
    ``tensor_mul``, their terms past the box dropped after each product."""
    odd = p != 2
    preset = get_preset("b" if odd else "b2", p)
    xdeg = 2 if odd else 1  # total degree of x; y has degree 1

    def eps_m(a: Monomial) -> tuple[int, int]:
        """(number of y's, exponent of x) of the H element t0^eps * x0^m."""
        return len(a.tau), dict(a.xi).get(0, 0)

    def within(eps: int, m: int) -> bool:
        return eps + xdeg * m <= box

    def bounded(ts: dict) -> dict:
        return {k: c for k, c in ts.items() if within(*eps_m(k[0]))}

    psi_y = {(mono_tau(0), mono_u()): 1}  # used only at odd p
    psi_x = {(mono_tau(0), mono_w()): 1} if odd else {}
    i = 0
    while within(0, p**i):
        psi_y[mono_xi(0, p**i), mono_tau(i)] = 1
        psi_x[mono_xi(0, p**i), mono_xi(i)] = 1
        i += 1

    powers = [{(ONE, ONE): 1}]
    while within(0, len(powers)):
        powers.append(bounded(tensor_mul(p, powers[-1], psi_x)))

    components: dict = {}
    coaction: dict = {}
    for m in range(box // xdeg + 1):
        for eps in (0, 1) if odd else (0,):
            if not within(eps, m):
                continue
            lab = h_label(eps, m)
            components.setdefault((eps, m) if odd else m, []).append(lab)
            ts = bounded(tensor_mul(p, psi_y, powers[m])) if eps else powers[m]
            coaction[lab] = tuple([(c, h_label(*eps_m(a)), b) for (a, b), c in ts.items()])
    return Comodule._trusted(preset, components, coaction, box=box, name="H")


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
    return corestrict_psi(build_H(p, box))


def theta_psi_H(p: int, box: int) -> Comodule:
    """H pushed all the way down to the single-graded quotient."""
    return corestrict_theta(psi_H(p, box))


# ---------------------------------------------------------------------------
# canonical morphisms


def _from_element(source: Comodule, target: Comodule, d) -> ComoduleMorphism:
    """`free_map` of the one basis element of the target in the source's free
    degree d; the zero map when the target's box leaves none."""
    gens = target.basis(d)
    return free_map(source, target, gens[0]) if gens else zero_morphism(source, target)


def cap_morphism(p: int, lam: Monomial | str) -> ComoduleMorphism:
    """Contraction against lam: J(0, m) -> J(right(lam)) for left(lam) = (0, m),
    sending m' to the coefficient of lam (x) - in the coproduct of m'."""
    if isinstance(lam, str):
        lam = parse_monomial(lam)
    preset = get_preset("bbar", p)
    la, lb = preset.left_degree(lam)
    if la != 0:
        raise ValueError(f"contraction element must have left bidegree (0, m), got {lam}")
    return cofree_map(build_J(p, 0, lb), build_J(p, *preset.right_degree(lam)),
                      format_monomial(lam))


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
    source = suspend(build_J(p, 0, m - 1), (0, 1))
    return cofree_map(source, build_J(p, 0, m), source.basis((0, m))[0])


def u_suspension_iso(p: int, n: int) -> ComoduleMorphism:
    """The canonical identification S^{(1,0)} J(0, n) -> J(1, n), s|m -> u*m."""
    source = suspend(build_J(p, 0, n), (1, 0))
    return cofree_map(source, build_J(p, 1, n), source.basis((1, n))[0])


# ---- the mu family and the grouplike divisions


def theta_F(p: int, a: int, b: int, box: int) -> Comodule:
    return corestrict_theta(build_F(p, a, b, box))


def theta_J(p: int, a: int, b: int) -> Comodule:
    return corestrict_theta(build_J(p, a, b))


def mu_quotient(p: int, n: int, a: int, b: int, box: int,
                target: Comodule | None = None,
                source: Comodule | None = None) -> ComoduleMorphism:
    """The quotient F(n) -> Theta F(a, b) dual to rewriting x0 as u^2 on the
    right-(a, b) monomials, for a + 2b = n."""
    if a + 2 * b != n:
        raise ValueError("need a + 2b = n")
    return _from_element(source or build_Fn(p, n, box),
                         target or theta_F(p, a, b, box), n)


def grouplike_division(p: int, a: int, b: int, box: int, shift: tuple[int, int],
                       source: Comodule | None = None,
                       target: Comodule | None = None) -> ComoduleMorphism:
    """The generator F(a,b) -> S^shift F((a,b) - shift), dual to multiplying
    the right-((a,b) - shift) span by the grouplike of bidegree shift; it
    divides the dual basis by that grouplike: u^2 at (2,0) (the l of the
    structure theory), x0 at (0,1) (r) and u at (1,0) (the surjection of the
    u-filtration)."""
    i, j = shift
    if a < i or b < j:
        raise ValueError(f"division by the grouplike of bidegree {shift} needs "
                         f"a >= {i} and b >= {j}, got ({a},{b})")
    return _from_element(source or build_F(p, a, b, box),
                         target or suspend(build_F(p, a - i, b - j, box), shift), (a, b))


# l, r and the u-surjection under the names that perfbench/tracer.py patches
def canonical_l(p: int, a: int, b: int, box: int, source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    return grouplike_division(p, a, b, box, (2, 0), source, target)


def canonical_r(p: int, a: int, b: int, box: int, source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    return grouplike_division(p, a, b, box, (0, 1), source, target)


def canonical_u(p: int, a: int, b: int, box: int, source: Comodule | None = None,
                target: Comodule | None = None) -> ComoduleMorphism:
    return grouplike_division(p, a, b, box, (1, 0), source, target)


def build_PhiF(p: int, a: int, box: int):
    """Kernel of the u^2-division l on F(a, 0), with its inclusion; for
    a in {0, 1} this is all of F(a, 0)."""
    if a < 2:
        F = build_F(p, a, 0, box)
        F.name = f"PhiF({a})"
        return F, identity_morphism(F)
    return kernel(grouplike_division(p, a, 0, box, (2, 0)), name=f"PhiF({a})")


# ---------------------------------------------------------------------------
# object ids (shared by the command line and the verifier)


def parse_object_id(text: str, p: int, box: int) -> Comodule:
    """Build a standard object from its id; a ValueError when the box leaves
    it no basis element, which for F:a,b and Fn:n names the least box, the
    total degree a + 2b or n of the generator.

    Supported:  H | H^k | F:a,b | J:a,b | Fn:n | Jn:n | S:a,b | PhiF:a
    """
    text = text.strip()
    M, least = _build_object(text, p, box)
    if not M.total_dim():
        hint = "" if least is None else f"; the least box for it is {least}"
        raise ValueError(f"object {text!r} has no basis element in the box {box}{hint}")
    return M


def _build_object(text: str, p: int, box: int) -> tuple[Comodule, int | None]:
    """The object of an id, and the least box of an F:a,b or Fn:n."""
    if text == "H":
        return build_H(p, box), None
    head, sep, rest = text.partition("^" if text.startswith("H^") else ":")
    if not rest:
        raise ValueError(f"unrecognized object id {text!r}")
    try:
        args = [int(x) for x in rest.split(",")]
    except ValueError:
        raise ValueError(f"object id {text!r}: indices must be integers") from None
    if any(x < 0 for x in args):
        raise ValueError(f"object id {text!r}: indices must be >= 0")
    if sep == "^" and len(args) == 1:
        return build_H_tensor(p, args[0], box), None
    if head == "F" and len(args) == 2:
        return build_F(p, args[0], args[1], box), args[0] + 2 * args[1]
    if head == "J" and len(args) == 2:
        return build_J(p, args[0], args[1]), None
    if head == "Fn" and len(args) == 1:
        return build_Fn(p, args[0], box), args[0]
    if head == "Jn" and len(args) == 1:
        return build_Jn(p, args[0]), None
    if head == "S" and len(args) == 2:
        return simple_comodule(get_preset("bbar", p), (args[0], args[1])), None
    if head == "PhiF" and len(args) == 1:
        return build_PhiF(p, args[0], box)[0], None
    raise ValueError(f"unrecognized object id {text!r}")
