from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import settings

import skewgrass as sg

# Seeded runs stay reproducible bit for bit: every property draws the same
# examples on every run, and nothing is written to a local example database.
settings.register_profile("skewgrass", derandomize=True, database=None, deadline=None)
settings.load_profile("skewgrass")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, desc in sorted(results):
        terminalreporter.write_line(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="session")
def Q():
    return sg.rational_algebra()


@pytest.fixture(scope="session")
def Qi():
    return sg.field_algebra([1, 0, 1])


@pytest.fixture(scope="session")
def H():
    return sg.quaternion_algebra(-1, -1)


def subspace_rows(v):
    """Rows of the transposed basis matrix, as plain rationals (D = Q only)."""
    assert v.algebra.dim == 1
    return tuple(
        tuple(v.basis.entries[r][j].coords[0] for r in range(v.ambient_dim))
        for j in range(v.dim)
    )


def sampled_ideals(action, kvec, seeds=3):
    """One seeded random ideal of the type per seed in range(seeds)."""
    return [sg.ProductIdeal.from_subspaces([
        sg.random_subspace(b.algebra, b.n, k, sg.subseed(seed, i))
        for i, (b, k) in enumerate(zip(action.product.blocks, kvec))]) for seed in range(seeds)]


def _zeta5_power_lifts(Z5):
    """x -> x^a on Q(zeta_5) for a = 2, 3, 4; column j is the image of x^j."""
    def power(e):
        e %= 5
        # x^4 = -1 - x - x^2 - x^3
        return [-1, -1, -1, -1] if e == 4 else [1 if t == e else 0 for t in range(4)]

    return [sg.AlgebraAutomorphism(Z5, [[power(a * j)[i] for j in range(4)] for i in range(4)],
                                   name=f"x^{a}") for a in (2, 3, 4)]


def lifted_algebras():
    """(algebra, lift table) for Q, Q(i), H, (-1,3|Q) and Q(zeta_5), all lifts listed."""
    Q = sg.rational_algebra()
    Qi = sg.field_algebra([1, 0, 1])
    H = sg.quaternion_algebra(-1, -1)
    B6 = sg.quaternion_algebra(-1, 3)
    Z5 = sg.field_algebra([1, 1, 1, 1, 1])
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    return [
        (Q, sg.LiftTable.build(Q)),
        (Qi, sg.LiftTable.build(Qi, [conj])),
        (H, sg.LiftTable.build(H)),
        (B6, sg.LiftTable.build(B6)),
        (Z5, sg.LiftTable.build(Z5, _zeta5_power_lifts(Z5))),
    ]


def _sqrt2_quaternion_algebra():
    """D = H (x) Q(sqrt 2) on the basis 1, i, j, k, r, ri, rj, rk, r = sqrt 2 central."""
    H = sg.quaternion_algebra(-1, -1)

    def vec(q, power):  # r^power * q, power in {0, 1, 2}, as 8 coordinates
        scale, half = (2, 0) if power == 2 else (1, power)
        out = [0] * 8
        for t, c in enumerate(q):
            out[4 * half + t] = scale * c
        return out

    table = [[vec(H.table[a % 4][b % 4], a // 4 + b // 4) for b in range(8)] for a in range(8)]
    return sg.algebra_from_table(["1", "i", "j", "k", "r", "ri", "rj", "rk"], table,
                                 [1, 0, 0, 0, 0, 0, 0, 0], label="H(x)Q(sqrt2)")


def _sqrt2_quaternions():
    """(D, lift table) for D = H (x) Q(sqrt 2) and its one lift tw(x) = w s(x) w^{-1}.

    s sends r = sqrt 2 to -r and fixes H, and w = i + r j.  tw o tw is
    conjugation by w s(w) = 1 - 2 r k, which is not central: that composite
    is no table entry, and the unit relating it to the identity lift is not
    central.
    """
    D = _sqrt2_quaternion_algebra()
    s = sg.AlgebraAutomorphism(D, [[(1 if i < 4 else -1) if i == j else 0 for j in range(8)]
                                   for i in range(8)])
    w = D.element([0, 1, 0, 0, 0, 0, 1, 0])
    w_inv = w.inv()
    images = [(w * s.apply(b) * w_inv).coords for b in D.basis_elements()]
    tw = sg.AlgebraAutomorphism(D, [[images[j][i] for j in range(8)] for i in range(8)], name="tw")
    return D, sg.LiftTable.build(D, [tw])


def oracle_algebras():
    """Every lifted algebra, H (x) Q(sqrt 2), and the definite (-1/2,-3/5|Q).

    The last one is the only table with non-integral structure constants
    (table denominator 10), so a wrong table denominator shows there.
    """
    algebras = [alg for alg, _ in lifted_algebras()]
    return algebras + [_sqrt2_quaternion_algebra(), sg.quaternion_algebra(Fraction(-1, 2), Fraction(-3, 5))]


@pytest.fixture(scope="session")
def HQ2():
    """H (x) Q(sqrt 2) with a lift whose square is inner by a non-central unit."""
    return _sqrt2_quaternions()
