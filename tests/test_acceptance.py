"""Acceptance battery.

One test per headline claim, at the scale the engine is expected to certify
on a desk machine: exact arithmetic, exact equality, no tolerances.  Each
test prints as a single pass/fail line under ``pytest -v``.
"""
from __future__ import annotations

import math

from supercomod.bialgebra import (
    check_bialgebra_axioms,
    check_hopf_ideal,
    get_preset,
    mono_tau,
    mono_xi,
)
from supercomod.comodule import (
    action_table,
    corestrict_psi,
    corestrict_theta,
    truncate,
)
from supercomod.functorcomb import eval_dims
from supercomod.homsolver import hom_space, image, kernel
from supercomod.objects import (
    build_F,
    build_Fn,
    build_H,
    build_H_tensor,
    build_J,
    build_Jn,
    theta_J,
    theta_psi_H,
    verschiebung_twisted,
    xi0_multiplication,
)
from supercomod.verify import run_suite

from support import action_block, closure_dims, operation_closure


def suite_ok(name, **params):
    rep = run_suite(name, **params)
    assert rep.ok, [(c.name, c.witness) for c in rep.checks if c.status == "fail"]
    return rep


def test_01_bialgebra_axioms_all_presets_three_primes():
    for p in (2, 3, 5):
        names = ["b2"] if p == 2 else ["b", "bbar", "atilde"]
        for name in names:
            failure = check_bialgebra_axioms(get_preset(name, p), 30)
            assert failure is None, f"p={p} preset {name}: {failure}"


def test_02_hopf_ideals():
    for p in (3, 5):
        B = get_preset("b", p)
        for gens in (["w"], ["w", "x0-u^2"]):
            r = check_hopf_ideal(B, gens, box=30)
            assert r.is_hopf_ideal, f"p={p} ({', '.join(gens)}): {r.counterexample}"


def test_03_steenrod_closed_forms():
    T = theta_psi_H(3, 40)
    table = action_table(T)

    def act(lam, d):
        return action_block(T, table, lam, d).to_list()

    assert act(mono_tau(0), 1) == [[1]]  # beta(y) = x
    for m in range(1, 20):
        assert act(mono_tau(0), 2 * m) == [[0]]  # beta(x^m) = 0
    for i in range(1, 9):
        for m in range(1, 20):
            if 2 * m + 4 * i > 40:
                continue
            assert act(mono_xi(1, i), 2 * m) == [[math.comb(m, i) % 3]], (m, i)
    # named instances: P^1(x^2) = 2 x^4 and P^2(x^2) = x^6
    assert act(mono_xi(1, 1), 4) == [[2]]
    assert act(mono_xi(1, 2), 4) == [[1]]


def test_04_cyclic_injective_dimensions():
    suite_ok("j0n", p=3, n_max=12, box=60)
    assert build_J(3, 0, 1).poincare() == {(0, 1): 1, (1, 0): 1}
    assert build_J(3, 0, 2).poincare() == {(0, 2): 1, (1, 1): 1}
    assert build_J(3, 0, 3).total_dim() == 4


def test_05_mahowald_sequences():
    suite_ok("mahowald", p=3, n_max=4, m_max=20)
    suite_ok("mahowald", p=5, n_max=2, m_max=20)
    # witness n=1, p=3: 2 + 2 = 4 across the first sequence
    assert xi0_multiplication(3, 3).source.total_dim() == 2
    assert build_J(3, 0, 3).total_dim() == 4
    assert build_J(3, 0, 1).total_dim() == 2
    # second sequence: twisted Verschiebung on J(0,4) has kernel 4, image 2
    Vt = verschiebung_twisted(3, 1)
    K, _ = kernel(Vt)
    assert K.total_dim() == 4
    I, _ = image(Vt)
    assert I.total_dim() == 2


def test_06_brown_gitler_identification():
    suite_ok("brown_gitler", p=3, n_max=8)
    assert build_Jn(3, 2).poincare() == {1: 1, 2: 1}
    assert build_Jn(3, 3).poincare() == {2: 1, 3: 1}


def test_07_free_unstable_object_structure():
    suite_ok("fn_structure", p=3, n_max=6, box=60)
    assert build_Fn(3, 1, 60).poincare() == {1: 1, 2: 1, 6: 1, 18: 1, 54: 1}
    F2 = build_Fn(3, 2, 60).poincare()
    assert {d: c for d, c in F2.items() if d <= 8} == {2: 1, 3: 1, 6: 1, 7: 1, 8: 1}


def test_08_operation_closure_cross_check():
    # dims of F(1) and F(2) recomputed from the coaction alone, as closures
    # of explicit classes under beta and the power operations
    T = theta_psi_H(3, 60)
    ops = [mono_tau(0)] + [mono_xi(1, i) for i in range(1, 16)]
    row = [0] * T.dim(1)
    row[T.basis(1).index("y")] = 1
    span = operation_closure(T, [(1, row)], ops)
    assert closure_dims(span) == build_Fn(3, 1, 60).poincare()

    T2 = corestrict_theta(corestrict_psi(build_H_tensor(3, 2, 24)))
    labs = T2.basis(2)
    seed = [1 if lab in ("1|x", "x|1", "y|y") else 0 for lab in labs]
    assert sum(seed) == 3
    ops = [mono_tau(0)] + [mono_xi(1, i) for i in range(1, 7)]
    span2 = operation_closure(T2, [(2, seed)], ops)
    assert closure_dims(span2) == build_Fn(3, 2, 24).poincare()


def test_09_splittings_representability_endomorphisms():
    suite_ok("tensor_splittings", p=3, a_max=3, b_max=3, box=60)

    probes = [
        corestrict_psi(truncate(build_H(3, 20), 20)),
        build_J(3, 0, 2),
        build_J(3, 0, 3),
        truncate(build_F(3, 1, 1, 16), 16),
    ]
    for M in probes:
        for ab in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            want = M.dim(ab)
            assert hom_space(build_F(3, *ab, 20), M).dim == want, (M.name, ab)
            assert hom_space(M, build_J(3, *ab)).dim == want, (M.name, ab)

    for b in range(0, 7):
        for a in range(0, 13 - 2 * b):
            TJ = theta_J(3, a, b)
            assert hom_space(TJ, TJ).dim == 1, (a, b)
            TF = corestrict_theta(build_F(3, a, b, 2 * (a + 2 * b) + 6))
            assert hom_space(TF, TF).dim == 1, (a, b)


def test_10_ambient_tensor_power_dimensions():
    suite_ok("h_tensor", p=3, n_max=4, box=40)
    T2 = build_H_tensor(3, 2, 40)
    assert T2.dim((1, 2)) == 6 == eval_dims(2, 1, 2)
