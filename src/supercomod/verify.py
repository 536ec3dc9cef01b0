"""Named verification suites for the structure theory: each suite runs a
battery of exact checks at desk scale into a structured report with
per-check witnesses. The runner builds the report from the suite's name and
parameters and passes it in as `rep`; the suite states its claim and adds
its checks.

Reports serialize to JSON as
{suite, params, status, checks: [{name, status, witness}], claim};
a check's status is "pass", "fail", or "note" (informational, never
adjudicating), and the suite passes iff no check fails.

The suites of run_all are independent, and so are the rows of brown_gitler,
tensor_splittings, mahowald and fn_structure (fn_structure's even and odd n
build disjoint objects): `_fan_out` computes either in two processes where two
CPUs are usable, and the reports are the same either way; fan-outs never nest.
j0n and g_filtration run serially, in about what a fork costs.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import os
import threading
from dataclasses import dataclass, field

from .bialgebra import (
    check_bialgebra_axioms,
    check_hopf_ideal,
    get_preset,
    mono_tau,
    mono_xi,
)
from .comodule import (
    action_table,
    corestrict_psi,
    corestrict_theta,
    direct_sum,
    instability_check,
    morphism_from_assignment,
    poincare_power,
    poincare_product,
    poincare_theta,
    summand_inclusion,
    summand_projection,
    suspend,
    tensor,
    truncate,
)
from .functorcomb import (
    count_distinct_powers,
    count_hom,
    eval_dims,
    poincare_r_prime,
)
from .homsolver import (
    equalizer,
    find_isomorphism,
    hom_space,
    is_isomorphism,
    is_short_exact,
    kernel,
)
from .objects import (
    build_F,
    build_Fn,
    build_H,
    build_J,
    build_Jn,
    build_PhiF,
    canonical_l,
    canonical_r,
    canonical_u,
    mu_quotient,
    theta_J,
    theta_psi_H,
    u_suspension_iso,
    verschiebung,
    verschiebung_twisted,
    xi0_multiplication,
)


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "note"
    witness: str = ""


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list = field(default_factory=list)
    claim: str = ""

    @property
    def status(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    ok = property(lambda self: self.status == "pass", doc="Whether no check failed.")

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, "pass" if passed else "fail", witness))

    def note(self, name: str, witness: str) -> None:
        self.checks.append(Check(name, "note", witness))

    def add_rows(self, rows) -> None:
        """Add the checks of each row, a list of (name, passed, witness), in order."""
        for checks in rows:
            for check in checks:
                self.add(*check)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "status": self.status,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "claim": self.claim,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def _fmt(obj) -> str:
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return json.dumps(obj, default=str)


# ---------------------------------------------------------------------------
# independent suites and rows on two CPUs

# True while this process computes a share of a fan-out, so fan-outs never nest
_INLINE = False


def _share(fn, items: list, start: int) -> tuple:
    """(rows, i, exc): the rows of items[start::2] up to items[i], the first
    whose row raises exc, or all of them, len(items) and None."""
    rows = []
    for i in range(start, len(items), 2):
        try:
            rows.append(fn(items[i]))
        except Exception as exc:
            return rows, i, exc
    return rows, len(items), None


def _fan_out(fn, items: list) -> list:
    """[fn(x) for x in items], in two processes where two CPUs are usable:
    this one computes items[0::2] and a forked child items[1::2], whose rows
    (or first error) it pickles back through a pipe; neither share fans out
    again. Where the pipe or the fork fails, this process computes every row."""
    global _INLINE
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    # a forked child would inherit the locks of other threads, held or not
    if (cpus < 2 or len(items) < 2 or _INLINE or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    import pickle

    fds: tuple = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:  # short of processes or memory
        for fd in fds:
            os.close(fd)
        return [fn(x) for x in items]
    if pid == 0:  # the child: pickle its share's outcome, and leave
        status = 1
        try:
            _INLINE = True
            data = pickle.dumps(_share(fn, items, 1))
            with os.fdopen(w, "wb") as out:
                out.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    _INLINE = True
    try:
        ours = _share(fn, items, 0)
    finally:
        _INLINE = False
        # read the child to EOF, so that it never blocks on a full pipe, and reap it
        with os.fdopen(r, "rb") as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
    if not data:
        raise RuntimeError(f"fan-out child {pid} died without its rows "
                           f"(exit status {os.waitstatus_to_exitcode(status)})")
    (even, i, error), (odd, j, odd_error) = ours, pickle.loads(data)
    error = error if i < j else odd_error  # the first item's, as on one CPU
    if error is not None:
        raise error
    rows = [None] * len(items)
    rows[0::2], rows[1::2] = even, odd
    return rows


# ---------------------------------------------------------------------------
# suites


def _require_least(suite: str, param: str, value: int, least: int) -> None:
    """A ValueError when the suite's parameter `param` is below its least
    value, where some check would be decided on no instance, or on an object
    that the box leaves empty."""
    if value < least:
        raise ValueError(f"suite {suite!r} cannot decide its checks at {param} {value}: "
                         f"the least {param} for these parameters is {least}")


def suite_axioms(rep: SuiteReport, p: int = 3, box: int = 30) -> None:
    rep.claim = ("the endomorphism super-bialgebra and its quotients satisfy coassociativity, "
                 "counit, multiplicativity, graded commutativity and mod-2 grading compatibility; "
                 "(w) and (w, xi0 - u^2) are Hopf ideals")
    _require_least("axioms", "box", box, 0)
    names = ["b2"] if p == 2 else ["b", "bbar", "atilde"]
    for name in names:
        preset = get_preset(name, p)
        failure = check_bialgebra_axioms(preset, box)
        rep.add(
            f"axioms[{name}]",
            failure is None,
            "no counterexample" if failure is None else str(failure),
        )
    if p != 2:
        B = get_preset("b", p)
        for gens in (["w"], ["w", "x0-u^2"]):
            r = check_hopf_ideal(B, gens)
            rep.add(
                f"hopf_ideal({', '.join(gens)})",
                r.is_hopf_ideal,
                r.counterexample or "coideal with vanishing counit",
            )


def suite_unstable(rep: SuiteReport, p: int = 3, box: int = 40) -> None:
    rep.claim = ("the coaction on H = Lambda(y) (x) F[x] carries the unstable Steenrod action: "
                 "beta(y) = x, beta(x^m) = 0, P^i(x^m) = C(m,i) x^{m+i(p-1)}, "
                 "and the top power is the Frobenius")
    T = theta_psi_H(p, box) if p != 2 else build_H(2, box)
    xdeg = T.preset.collapse(0, 1)  # the degree of x, in bidegree (0, 1)
    _require_least("unstable", "box", box, p * xdeg)  # the degree of P^1 x = x^p
    table = action_table(T)

    def entry(lam, src_deg, expect):
        # the first basis element's coefficient; an absent block acts as zero
        mat = table.get(lam, {}).get(src_deg)
        return (0 if mat is None else dict(mat.column(0)).get(0, 0)) == expect % p

    if p != 2:
        rep.add("beta(y) = x", entry(mono_tau(0), 1, 1))
        bad = [m for m in range(1, box // 2) if not entry(mono_tau(0), 2 * m, 0)]
        rep.add("beta(x^m) = 0", not bad, _fmt(bad))
        rep.add("P^1(y) = 0 (degree too low)", entry(mono_xi(1), 1, 0))

    pairs = [(m, i) for i in range(1, box // (xdeg * (p - 1)) + 1)
             for m in range(1, box // xdeg - i * (p - 1) + 1)]
    bad = [(m, i) for m, i in pairs if not entry(mono_xi(1, i), xdeg * m, math.comb(m, i))]
    top_bad = [m for m, i in pairs if m == i and not entry(mono_xi(1, i), xdeg * m, 1)]
    rep.add("P^i(x^m) = C(m,i) x^{m+i(p-1)}", not bad, _fmt(bad))
    rep.add("P^m(x^m) = x^{mp}", not top_bad, _fmt(top_bad))

    problems = instability_check(T, table)
    rep.add("operations below the instability threshold vanish", not problems,
            "; ".join(problems))


def suite_j0n(rep: SuiteReport, p: int = 3, n_max: int = 12) -> None:
    rep.claim = ("J(0,n) realizes Hom(Gamma^n, Lambda^a (x) Gamma^b): "
                 "its dimension in bidegree (a,b) is the number of p-power decompositions of n "
                 "into a distinct and b repeatable parts")
    _require_least("j0n", "n_max", n_max, 0)
    for n in range(n_max + 1):
        J = build_J(p, 0, n)
        bad = []
        for d in J.degrees():
            s, t = d
            if J.dim(d) != count_hom(p, n, s, t):
                bad.append((d, J.dim(d), count_hom(p, n, s, t)))
        for s in range(2 * n + 2):
            for t in range(2 * n + 2):
                if J.dim((s, t)) == 0 and count_hom(p, n, s, t) != 0:
                    bad.append(((s, t), 0, count_hom(p, n, s, t)))
        rep.add(f"J(0,{n}) dims", not bad, _fmt(bad))
    J1 = build_J(p, 0, 1)
    worst = max(s + 2 * t for (s, t) in J1.degrees())
    rep.note(
        "connectivity",
        "components of J(0,n) satisfy s + 2t <= 2n (e.g. J(0,1) tops out "
        f"at s + 2t = {worst}); the stronger componentwise bound s <= a, "
        "t <= b already fails for J(0,1), which has a class in bidegree "
        "(1,0); reports state the computed bound without adjudicating",
    )


def suite_tensor_splittings(rep: SuiteReport, p: int = 3, a_max: int = 3, b_max: int = 3,
                            box: int = 60) -> None:
    rep.claim = ("J(a,b) = J(a,0) (x) J(0,b) and F(a,b) = F(a,0) (x) F(0,b) "
                 "by certified isomorphisms")
    _require_least("tensor_splittings", "a_max", a_max, 0)
    _require_least("tensor_splittings", "b_max", b_max, 0)
    _require_least("tensor_splittings", "box", box, a_max + 2 * b_max)  # F(a,b) starts at a + 2b
    J = functools.cache(lambda a, b: build_J(p, a, b))
    F = functools.cache(lambda a, b: build_F(p, a, b, box))

    def cell(ab):
        a, b = ab
        # closed-form candidates into the cofree J(a,b) and out of the free F(a,b)
        verdict, _ = find_isomorphism(tensor(J(a, 0), J(0, b)), J(a, b))
        yield (f"J({a},{b}) splits", verdict == "iso",
               _fmt(J(a, b).poincare()) if verdict == "iso" else f"verdict {verdict}")
        verdict, _ = find_isomorphism(F(a, b), tensor(F(a, 0), F(0, b)))
        yield (f"F({a},{b}) splits", verdict == "iso",
               f"dim {sum(F(a, b).poincare().values())}" if verdict == "iso"
               else f"verdict {verdict}")

    # each process builds the J(a,0) and F(a,0) column of its own cells
    rep.add_rows(_fan_out(lambda ab: list(cell(ab)),
                          [(a, b) for a in range(a_max + 1) for b in range(b_max + 1)]))


def suite_g_filtration(rep: SuiteReport, p: int = 3, a_max: int = 5, box: int = 60) -> None:
    rep.claim = ("F(a,0) carries a finite filtration by u-divisibility whose quotients are "
                 "suspended duals of exterior powers; "
                 "dividing by u is surjective with kernel the dual of Lambda^a")
    _require_least("g_filtration", "a_max", a_max, 0)
    _require_least("g_filtration", "box", box, a_max)  # F(a,0) starts in degree a
    for a in range(a_max + 1):
        F = build_F(p, a, 0, box)
        predicted: dict = {}
        for j in range(a + 1):
            for t in range(box // 2 + 1):
                d = count_distinct_powers(p, t, a - j)
                if d and j + 2 * t <= box:
                    key = (j, t)
                    predicted[key] = predicted.get(key, 0) + d
        rep.add(f"Poincare(F({a},0)) matches filtration", F.poincare() == predicted,
                _fmt(F.poincare()))
        if a >= 1:
            u = canonical_u(p, a, 0, box)
            K, inc = kernel(u)
            report = is_short_exact(inc, u)
            rep.add(f"0 -> dual Lambda^{a} -> F({a},0) -> shifted F({a-1},0) -> 0",
                    report.ok, "; ".join(report.failures))
            rep.add(f"kernel of u-division on F({a},0) has Lambda^{a} dims",
                    K.poincare() == {(0, t): dim for t, dim
                                     in poincare_r_prime(p, a, 0, box // 2).items()},
                    _fmt(K.poincare()))


def _theta_morphism(f, TM, TN):
    assign = {}
    for d in f.source.degrees():
        for lab in f.source.basis(d):
            assign[lab] = f.image_of(lab)
    return morphism_from_assignment(TM, TN, assign)


def _fn_slots(n: int) -> list:
    return sorted((a, (n - a) // 2) for a in range(n % 2, n + 1, 2))


# The two grouplike divisions of the equalizer diagram: (shift, canonical
# map dividing the dual basis by the grouplike, its name in the reports).
DIVISIONS = (((2, 0), canonical_l, "u^2"), ((0, 1), canonical_r, "xi0"))


def suite_fn_structure(rep: SuiteReport, p: int = 3, n_max: int = 6, box: int = 60) -> None:
    rep.claim = ("F(n) embeds by the quotient-dual maps mu into the sum of Theta F(a,b) with "
                 "a+2b = n, identifies with the equalizer of the u^2/xi0-division diagram, "
                 "and its Poincare series equals the associated graded of the "
                 "Verschiebung-kernel filtration")
    _require_least("fn_structure", "n_max", n_max, 0)
    _require_least("fn_structure", "box", box, n_max)  # F(a,b) with a + 2b = n starts at n
    F = functools.cache(lambda a, b: build_F(p, a, b, box))
    shifted = functools.cache(lambda shift, a, b: suspend(F(a, b), shift))
    shifted_theta = functools.cache(lambda shift, a, b: corestrict_theta(shifted(shift, a, b)))
    PhiF = functools.cache(lambda a: build_PhiF(p, a, box)[0])

    def row(n):
        slots = _fn_slots(n)
        Fn = build_Fn(p, n, box)
        thetas = {ab: corestrict_theta(F(*ab)) for ab in slots}
        D = direct_sum(list(thetas.values()))
        summed = None
        for i, ab in enumerate(slots):
            mu = mu_quotient(p, n, *ab, box, target=thetas[ab], source=Fn)
            leg = summand_inclusion(D, list(thetas.values()), i).compose(mu)
            summed = leg if summed is None else summed.add(leg)
        bad = [d for d in Fn.degrees() if summed.block(d).rank() != Fn.dim(d)]
        yield f"(+) mu into sum Theta F(a,b) is injective, n={n}", not bad, _fmt(bad)

        # each division F(a,b) -> shifted F((a,b) - shift): representability
        # checks, and (through Theta) one leg of the equalizer diagram on
        # explicit direct sums; the two suspensions collapse to the same
        # single grading, so both legs land in the (2,0)-suspension's Theta
        tslots = _fn_slots(n - 2)
        targets = {ab: shifted_theta((2, 0), *ab) for ab in tslots}
        DT = direct_sum(list(targets.values())) if targets else None
        legs = []
        checks = {}
        for k, (shift, divide, word) in enumerate(DIVISIONS):
            total = None
            for i, (a, b) in enumerate(slots):
                q = (a - shift[0], b - shift[1])
                if min(q) < 0:
                    continue
                S = shifted(shift, *q)
                g = divide(p, a, b, box, source=F(a, b), target=S)
                hs = hom_space(F(a, b), S)
                surj = all(g.block(d).rank() == S.dim(d) for d in S.degrees())
                checks[(i, k)] = (
                    f"hom(F({a},{b}), shifted F({q[0]},{q[1]})) is one line "
                    f"spanned by {word}-division",
                    hs.dim == 1 and surj and not g.check() and not g.is_zero(),
                    f"dim hom = {hs.dim}")
                if not shifted_theta(shift, *q).matches(targets[q]):
                    raise ValueError("suspension collapse mismatch")
                T = _theta_morphism(g, thetas[(a, b)], targets[q])
                leg = (summand_inclusion(DT, list(targets.values()), tslots.index(q))
                       .compose(T)
                       .compose(summand_projection(D, list(thetas.values()), i)))
                total = leg if total is None else total.add(leg)
            legs.append(total)
        if n >= 2:
            L, R = legs
            square = L.compose(summed).sub(R.compose(summed))
            yield f"l o mu = r o mu on F({n})", square.is_zero(), "commuting square with scalar 1"
            E, _ = equalizer(L, R)
            yield (f"equalizer of the diagram has F({n}) dims",
                   E.poincare() == Fn.poincare(), _fmt(Fn.poincare()))
        elif slots:
            ab = slots[0]
            yield (f"F({n}) = Theta F{ab} (single slot)",
                   Fn.poincare() == thetas[ab].poincare(), _fmt(Fn.poincare()))
        for key in sorted(checks):
            yield checks[key]

        # Poincare identities: via Phi-decomposition and via the
        # associated-graded count
        table: dict = {}
        graded: dict = {}
        for (a, b) in slots:
            prod = poincare_product(PhiF(a).poincare(), F(0, b).poincare(), bound=box)
            for deg, dim in poincare_theta(prod).items():
                table[deg] = table.get(deg, 0) + dim
            for t in range(box // 2 + 1):
                d0 = count_hom(p, t, a, b)
                if d0 and 2 * t <= box:
                    graded[2 * t] = graded.get(2 * t, 0) + d0
                d1 = count_hom(p, t, a - 1, b)
                if d1 and 2 * t + 1 <= box:
                    graded[2 * t + 1] = graded.get(2 * t + 1, 0) + d1
        fn_table = {d: dim for d, dim in Fn.poincare().items() if d <= box}
        yield (f"Poincare(F({n})) = sum of Theta(Phi F(a,0) (x) F(0,b))",
               fn_table == {d: v for d, v in table.items() if d <= box}, _fmt(fn_table))
        yield f"Poincare(F({n})) matches the associated graded", fn_table == graded, _fmt(graded)

    # row n reads F(a,b) with a + 2b in {n, n - 2} and PhiF(a) with a = n mod 2,
    # so the even and the odd rows, one process each, build disjoint objects
    rep.add_rows(_fan_out(lambda n: list(row(n)), list(range(n_max + 1))))


def suite_mahowald(rep: SuiteReport, p: int = 3, n_max: int = 4, m_max: int = 20) -> None:
    rep.claim = ("xi0-multiplication, the Verschiebung and its twist form short exact sequences "
                 "of standard objects; "
                 "xi0-multiplication is an isomorphism exactly when m is not 0 or 1 mod p")
    _require_least("mahowald", "n_max", n_max, 1)
    _require_least("mahowald", "m_max", m_max, p + 1)  # m = 1..p+1: every residue, 1 twice

    def row(item):
        n, m = item
        if m:  # an entry of the iso pattern
            return is_isomorphism(xi0_multiplication(p, m))
        f = xi0_multiplication(p, p * n)
        g = verschiebung(p, n)
        report = is_short_exact(f, g)
        dims = (sum(f.source.poincare().values()),
                sum(g.target.poincare().values()),
                sum(f.target.poincare().values()))
        f2 = xi0_multiplication(p, p * n + 1)
        g2 = verschiebung_twisted(p, n)
        report2 = is_short_exact(f2, g2)
        return [(f"0 -> shifted J(0,{p*n-1}) -> J(0,{p*n}) -> J(0,{n}) -> 0",
                 report.ok and dims[0] + dims[1] == dims[2],
                 f"dims {dims[0]} + {dims[1]} = {dims[2]}"
                 + ("; " + "; ".join(report.failures) if report.failures else "")),
                (f"0 -> shifted J(0,{p*n}) -> J(0,{p*n+1}) -> J(1,{n}) -> 0",
                 report2.ok, "; ".join(report2.failures)),
                (f"J(1,{n}) is the u-suspension of J(0,{n})",
                 is_isomorphism(u_suspension_iso(p, n)), "")]

    # no objects are cached, so the n rows and the m entries share one fan-out
    rows = _fan_out(row, [(n, 0) for n in range(1, n_max + 1)]
                    + [(0, m) for m in range(1, m_max + 1)])
    rep.add_rows(rows[:n_max])
    pattern = dict(zip(range(1, m_max + 1), rows[n_max:]))
    expected = {m: (m % p not in (0, 1)) for m in pattern}
    rep.add("xi0-multiplication iso pattern (m not 0,1 mod p)", pattern == expected,
            _fmt({m: v for m, v in pattern.items() if v}))


def suite_brown_gitler(rep: SuiteReport, p: int = 3, n_max: int = 8) -> None:
    rep.claim = ("the doubling functor Theta carries J(0,n) to J(2n) and J(1,n) to J(2n+1), "
                 "by certified isomorphisms")
    _require_least("brown_gitler", "n_max", n_max, 0)

    def row(n_eps):
        n, eps = n_eps
        J = build_Jn(p, 2 * n + eps)
        verdict, _ = find_isomorphism(theta_J(p, eps, n), J)
        return [(f"Theta J({eps},{n}) = J({2*n+eps})", verdict == "iso",
                 _fmt(J.poincare()) if verdict == "iso" else f"verdict {verdict}")]

    # on two CPUs the eps = 0 and eps = 1 chains run side by side
    rep.add_rows(_fan_out(row, [(n, eps) for n in range(n_max + 1) for eps in (0, 1)]))


def suite_h_tensor(rep: SuiteReport, p: int = 3, n_max: int = 4, box: int = 40) -> None:
    rep.claim = ("the n-fold tensor power of H has dimension C(n,a) C(b+n-1,n-1) "
                 "in bidegree (a,b) and represents evaluation against the standard objects")
    _require_least("h_tensor", "n_max", n_max, 0)
    _require_least("h_tensor", "box", box, 0 if p == 2 else 5)  # H^(x)2 at (1,2)
    H = build_H(p, box)
    T2 = tensor(H, H, name="H^(x)2") if n_max >= 2 else None
    # the tables of H^(x)n for n <= 2 are read off the objects themselves
    tables = [{(0, 0) if p != 2 else 0: 1}, H.poincare(), T2 and T2.poincare()]
    for n in range(n_max + 1):
        table = tables[n] if n <= 2 else poincare_power(tables[1], n, bound=box)
        bad = []
        if p == 2:
            for b in range(box + 1):
                want = eval_dims(n, 0, b)
                if table.get(b, 0) != want:
                    bad.append((b, table.get(b, 0), want))
        else:
            for a in range(n + 1):
                b = 0
                while a + 2 * b <= box:
                    want = eval_dims(n, a, b)
                    got = table.get((a, b), 0)
                    if got != want:
                        bad.append(((a, b), got, want))
                    b += 1
        rep.add(f"H^(x){n} dims are C({n},a) C(b+{n}-1,{n}-1)", not bad,
                _fmt(bad[:4]))
    if T2 is not None and p != 2:
        rep.add("witness dim H^(x)2 at (1,2) = 6", T2.dim((1, 2)) == 6,
                str(T2.dim((1, 2))))
        probe_box = min(box, 20)
        PsiT2 = corestrict_psi(truncate(T2, probe_box))
        bad = []
        for (a, b) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            hs = hom_space(PsiT2, build_J(p, a, b))
            if hs.dim != eval_dims(2, a, b):
                bad.append(((a, b), hs.dim, eval_dims(2, a, b)))
        rep.add("hom(Psi H^(x)2, J(a,b)) dims represent evaluation",
                not bad, _fmt(bad))


# ---------------------------------------------------------------------------
# the runner

SUITES = {
    "axioms": suite_axioms,
    "unstable": suite_unstable,
    "j0n": suite_j0n,
    "tensor_splittings": suite_tensor_splittings,
    "g_filtration": suite_g_filtration,
    "fn_structure": suite_fn_structure,
    "mahowald": suite_mahowald,
    "brown_gitler": suite_brown_gitler,
    "h_tensor": suite_h_tensor,
}


# The suites whose objects exist at p = 2; the others need an odd prime.
P2_SUITES = ("axioms", "unstable", "h_tensor")


def run_suite(name: str, **params) -> SuiteReport:
    """The suite's report at its defaults overridden by the non-None params it reads."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if params.get("p") == 2 and name not in P2_SUITES:
        raise ValueError(f"suite {name!r} needs an odd prime; at p = 2 only "
                         f"{', '.join(P2_SUITES)} run")
    fn = SUITES[name]
    _, *accepted = inspect.signature(fn).parameters.values()  # all but `rep`
    rep = SuiteReport(name, {a.name: a.default if params.get(a.name) is None
                             else params[a.name] for a in accepted})
    fn(rep, **rep.params)
    return rep


def run_all(names=None, **params) -> list:
    """The reports of the named suites (all that run at p by default), in
    order, computed through `_fan_out`: a lone suite here, so that it fans
    out its own rows."""
    if not names:
        names = [n for n in SUITES if params.get("p") != 2 or n in P2_SUITES]
    return _fan_out(functools.partial(run_suite, **params), names)
