"""Automorphisms of M_n(D) and their inner/semilinear decomposition.

Every automorphism factors as M -> P sigma(M) P^{-1} where sigma applies a
lifted center automorphism entrywise and P is invertible over D; past
ingestion an automorphism is held as that pair (P, sigma) and nothing else.
sigma is pinned down by the action on the center and P is unique up to a
central factor, so action_key decides equality of two pairs exactly.

A raw linear map handed over by a caller is a rational matrix on the
coordinates E_st * b_u (entry b_u at position (s, t)), ordered by
(s, t, u).  decompose splits it into its pair: P is built from matrix
units, where the images of E_i1 give a frame Q that carries E_ij to itself,
and the automorphism of D left over is inner by Skolem-Noether, conjugation
by a unit u found from a d^2 x d rational system, so P = Q u up to a
central factor.
"""

from __future__ import annotations

from math import lcm

from . import qlinalg
from .algebra import (
    AlgebraAutomorphism,
    AlgebraElement,
    DivisionAlgebra,
    LiftTable,
    center,
    center_values,
)
from .errors import ValidationError
from .linalg import (
    MatrixOverD,
    RightSubspace,
    apply_matrix,
    apply_sigma,
    column_echelon,
    try_inverse,
)


class Block:
    """One matrix-algebra factor M_n(D) together with its lift table."""

    __slots__ = ("algebra", "n", "lifts")

    def __init__(self, algebra: DivisionAlgebra, n: int, lifts: LiftTable | None = None):
        if n < 1:
            raise ValidationError("matrix size must be at least 1")
        self.algebra = algebra
        self.n = n
        self.lifts = lifts if lifts is not None else LiftTable.build(algebra)
        if self.lifts.algebra != algebra:
            raise ValidationError("lift table belongs to a different algebra")

    @property
    def dim_q(self) -> int:
        return self.algebra.dim * self.n * self.n

    @property
    def label(self) -> str:
        return f"M_{self.n}({self.algebra.label})"

    def basis_position(self, q: int) -> tuple[int, int, int]:
        d = self.algebra.dim
        s, rem = divmod(q, self.n * d)
        t, u = divmod(rem, d)
        return s, t, u

    def flatten(self, m: MatrixOverD):
        if m.rows != self.n or m.cols != self.n or m.algebra != self.algebra:
            raise ValidationError(f"matrix does not live in {self.label}")
        return m.coords()

    def unflatten(self, vec) -> MatrixOverD:
        d = self.algebra.dim
        ents = []
        pos = 0
        for _ in range(self.n):
            row = []
            for _ in range(self.n):
                row.append(AlgebraElement(self.algebra, tuple(vec[pos:pos + d])))
                pos += d
            ents.append(row)
        return MatrixOverD(self.algebra, ents)

    def same_description(self, other: "Block") -> bool:
        return self.n == other.n and self.algebra == other.algebra and self.lifts == other.lifts

    def __eq__(self, other):
        if not isinstance(other, Block):
            return NotImplemented
        return self.same_description(other)

    def __hash__(self):
        return hash((self.n, self.algebra))

    def __repr__(self):
        return f"Block({self.label})"


class MatrixAlgebraAutomorphism:
    """A raw linear map of M_n(D) as its rational coordinate matrix.

    Nothing but its shape is checked here; decompose proves it is an
    automorphism by rebuilding it from its (P, sigma) pair.
    """

    __slots__ = ("block", "linear_map")

    def __init__(self, block: Block, linear_map):
        self.block = block
        self.linear_map = tuple(tuple(row) for row in linear_map)
        dq = block.dim_q
        if len(self.linear_map) != dq or any(len(r) != dq for r in self.linear_map):
            raise ValidationError(f"linear map must be {dq}x{dq} for {block.label}")

    def apply_flat(self, vec):
        return tuple(qlinalg.matvec(self.linear_map, vec))

    def apply(self, m: MatrixOverD) -> MatrixOverD:
        return self.block.unflatten(self.apply_flat(self.block.flatten(m)))

    def __repr__(self):
        return f"MatrixAlgebraAutomorphism({self.block.label})"


def _conjugation_image(p: MatrixOverD, pinv: MatrixOverD, s: int, t: int,
                       x: AlgebraElement) -> MatrixOverD:
    """P (E_st x) P^{-1} without forming the sparse middle matrix."""
    alg = p.algebra
    n = p.rows
    left = [p.entries[r][s] * x for r in range(n)]
    ents = [[left[r] * pinv.entries[t][c] for c in range(n)] for r in range(n)]
    return MatrixOverD(alg, ents)


def from_pair(block: Block, p: MatrixOverD, sigma: AlgebraAutomorphism,
              pinv: MatrixOverD | None = None) -> MatrixAlgebraAutomorphism:
    """Automorphism M -> P sigma(M) P^{-1} as a coordinate matrix."""
    if p.rows != block.n or p.cols != block.n or p.algebra != block.algebra:
        raise ValidationError(f"P must be an invertible {block.n}x{block.n} matrix over {block.algebra.label}")
    if sigma.algebra != block.algebra:
        raise ValidationError("sigma acts on a different algebra")
    if pinv is None:
        pinv = try_inverse(p)
        if pinv is None:
            raise ValidationError(f"P is singular over {block.algebra.label}")
    dq = block.dim_q
    cols = []
    for q in range(dq):
        s, t, u = block.basis_position(q)
        x = sigma.apply(block.algebra.basis_element(u))
        cols.append(block.flatten(_conjugation_image(p, pinv, s, t, x)))
    rows = tuple(tuple(cols[q][r] for q in range(dq)) for r in range(dq))
    return MatrixAlgebraAutomorphism(block, rows)


def _intertwining_unit(alg: DivisionAlgebra, lefts, rights) -> AlgebraElement:
    """Unit u of D with theta(x) u = u rho(x), given theta(b_v) and rho(b_v).

    theta and rho agree on the center, so rho^{-1} theta is an inner
    automorphism of D (Skolem-Noether) and the solutions form u Z.  The
    first kernel vector is taken: in a division algebra every nonzero
    solution is a unit.
    """
    d = alg.dim
    basis = alg.basis_elements()
    system = []
    for left, right in zip(lefts, rights):
        # column c of this block holds left * b_c - b_c * right
        cols = [(left * b - b * right).coords for b in basis]
        for r in range(d):
            system.append([col[r] for col in cols])
    kernel = qlinalg.kernel_basis(system)
    if not kernel:
        raise ValidationError(f"no element of {alg.label} intertwines the two automorphisms")
    u = AlgebraElement(alg, kernel[0])
    if u.try_inv() is None:
        raise ValidationError(f"intertwining element of {alg.label} is not a unit")
    return u


def _central_normal_form(p: MatrixOverD):
    """Flat coordinates of the representative of P Z (Z the center of D).

    On flat coordinates, let j_1 < ... < j_c be the positions at which some
    element of the Q-span P Z has its last nonzero entry.  The representative
    is the element with coordinate 1 at j_1 and 0 at j_2, ..., j_c, read off
    as the last row of the reduced echelon form of the reversed coordinate
    vectors.  It depends on the span P Z alone, and it is what a Q-kernel
    basis of h(B) X = X B puts first; the CLI and golden outputs are pinned
    to it.  Each vector is passed as integer numerators over the common
    denominator of its entries; scaling a row leaves the RREF unchanged.
    """
    rows = []
    for z in center(p.algebra).basis:
        flat = [z * e for row in p.entries for e in row]
        den = lcm(*[e.den for e in flat])
        rows.append([x * (den // e.den) for e in reversed(flat) for x in reversed(e.num)])
    reduced, _ = qlinalg.rref(rows)
    return tuple(reversed(reduced[-1]))


def action_key(p: MatrixOverD, sigma: AlgebraAutomorphism):
    """Hashable key of M -> P sigma(M) P^{-1}; equal keys mean equal actions.

    Exact for sigma taken from one lift table: distinct lifts restrict to
    distinct center automorphisms, so equal actions share sigma, and P is
    unique up to a central unit, which _central_normal_form removes.
    """
    return sigma.matrix, _central_normal_form(p)


def acts_as_identity(p: MatrixOverD, sigma: AlgebraAutomorphism) -> bool:
    """Whether M -> P sigma(M) P^{-1} is the identity map of M_n(D).

    For sigma from a lift table that happens exactly when sigma is the
    identity and P is a central homothety.
    """
    if not sigma.is_identity():
        return False
    n = p.rows
    lam = p.entries[0][0]
    for i in range(n):
        for j in range(n):
            e = p.entries[i][j]
            if i == j:
                if e != lam:
                    return False
            elif not e.is_zero():
                return False
    return all(lam * b == b * lam for b in p.algebra.basis_elements())


def inner_conjugator(f: MatrixAlgebraAutomorphism, sigma: AlgebraAutomorphism) -> MatrixOverD:
    """Invertible P with f(M) = P sigma(M) P^{-1}, for sigma with f's center action.

    With h = f o sigma^{-1}, which is trivial on the center, h is read on
    n + d matrices only: h(E_i1) = f(E_i1) and h(b I) = f(sigma^{-1}(b) I).
    Matrix units: with w the first nonzero column of h(E_11), the matrix Q
    whose column i is h(E_i1) w satisfies h(E_ij) Q = Q E_ij.  Hence
    Q^{-1} h(x I) Q = psi(x) I for an automorphism psi of D fixing the
    center, and psi(x) u = u x for a unit u (Skolem-Noether), so P = Q u.
    P is unique up to a central factor, fixed by _central_normal_form.
    """
    block = f.block
    alg, n = block.algebra, block.n
    sigma_inv = sigma.inverse()
    basis = alg.basis_elements()
    scalars = [f.apply_flat(block.flatten(MatrixOverD.scalar(alg, n, sigma_inv.apply(b))))
               for b in basis]
    # h(z I) = z I on the center; this also rejects a raw f with some f(z I) not scalar
    for z in center(alg).basis:
        image = tuple(sum(c * v[q] for c, v in zip(z.coords, scalars)) for q in range(block.dim_q))
        if image != block.flatten(MatrixOverD.scalar(alg, n, z)):
            raise ValidationError(
                f"sigma does not match the action on the center of this automorphism of {block.label}"
            )
    images = [f.apply(MatrixOverD.unit_entry(alg, n, n, i, 0, alg.one())) for i in range(n)]
    # w = h(E_11) e_j, so h(E_i1) w = h(E_i1 E_11) e_j is column j of h(E_i1)
    j = next((j for j in range(n) if any(not e.is_zero() for e in images[0].column(j))), None)
    if j is None:
        raise ValidationError(f"no conjugator exists for this map on {block.label}")
    q = MatrixOverD.from_columns(alg, [m.column(j) for m in images], n)
    qinv = try_inverse(q)
    if qinv is None:
        raise ValidationError(f"images of the matrix units of {block.label} give a singular frame")
    psi = [(qinv * block.unflatten(v) * q).entries[0][0] for v in scalars]
    u = _intertwining_unit(alg, psi, basis)
    return block.unflatten(_central_normal_form(q * MatrixOverD.scalar(alg, n, u)))


def decompose(f: MatrixAlgebraAutomorphism):
    """Split f into (P, sigma) with f(M) = P sigma(M) P^{-1}, sigma from the lifts.

    The center action pins down sigma: it is the lift whose center_values
    are the (0, 0) entries of f(z I) for the center basis z.  What is left
    is inner; inner_conjugator rejects f if some f(z I) is not that scalar.
    f comes from outside and need not be multiplicative, so the result is
    verified exactly on every coordinate basis matrix before it is returned.
    That check proves f = from_pair(P, sigma), which is an automorphism, so
    it is the only check a raw map needs.
    """
    block = f.block
    alg, n = block.algebra, block.n
    sigma = block.lifts.for_center_values(tuple(
        f.apply(MatrixOverD.scalar(alg, n, z)).entries[0][0].coords for z in center(alg).basis))
    p = inner_conjugator(f, sigma)
    if from_pair(block, p, sigma).linear_map != f.linear_map:
        raise ValidationError(
            f"decomposition of an automorphism of {block.label} failed to reconstruct it"
        )
    return p, sigma


def _composite_lift(block: Block, s1: AlgebraAutomorphism, s2: AlgebraAutomorphism):
    """(sigma, u) for two lifts of the block's table, worked out once per table.

    sigma is the table entry with the center action of s1 s2, and u a unit
    with (s1 s2)(b) u = u sigma(b), checked by multiplication on every basis
    element b of D rather than trusted from the kernel solve.  Both depend on
    the two lifts alone; the table keeps them, keyed by the lifts' positions.
    """
    lifts = block.lifts
    try:
        key = (lifts.entries.index(s1), lifts.entries.index(s2))
    except ValueError:
        raise ValidationError(f"composition on {block.label} needs two lifts from its table") from None
    found = lifts.composites.get(key)
    if found is None:
        alg = block.algebra
        s_comp = s1.compose(s2)
        sigma = lifts.for_center_values(center_values(s_comp))
        basis = alg.basis_elements()
        lefts = [s_comp.apply(b) for b in basis]
        rights = [sigma.apply(b) for b in basis]
        u = _intertwining_unit(alg, lefts, rights)
        if any(left * u != u * right for left, right in zip(lefts, rights)):
            raise ValidationError(f"composition on {block.label} failed to reconstruct the product action")
        found = lifts.composites[key] = (sigma, u)
    return found


def compose_autos(block: Block, pair1, pair2):
    """Compose (P1, s1) after (P2, s2) into (P, sigma); P1 and P2 must be invertible.

    s1 and s2 are table lifts, and s1 was checked multiplicative when the
    table was built, so the composite is M -> F (s1 s2)(M) F^{-1} with
    F = P1 s1(P2).  With sigma and u from _composite_lift, P = F (u I).
    No composite needs a check of its own: rest = s1(P2^{-1}) P1^{-1} P is
    u I, so F (s1 s2)(g) rest == P sigma(g) on the generators g of M_n(D)
    holds exactly when (s1 s2)(g) u == u sigma(g).  That is always true on
    E_{i,i+1} and E_{i+1,i}, and on b I it is the identity in D that
    _composite_lift checks once per pair of table entries.
    """
    p1, s1 = pair1
    p2, s2 = pair2
    sigma, u = _composite_lift(block, s1, s2)
    return p1 * apply_sigma(s1, p2) * MatrixOverD.scalar(block.algebra, block.n, u), sigma


def is_trivial_on_grassmannian(p: MatrixOverD, sigma: AlgebraAutomorphism, k: int) -> bool:
    """Whether M -> P sigma(M) P^{-1} fixes every k-subspace of D^n.

    Exact, not sampled: for 1 <= k <= n-1 the action is trivial exactly when
    it is the identity (acts_as_identity); for k = 0 or k = n the
    Grassmannian is a single point and everything acts trivially.
    """
    n = p.rows
    if k < 0 or k > n:
        raise ValidationError(f"subspace dimension {k} out of range for ambient dimension {n}")
    return k == 0 or k == n or acts_as_identity(p, sigma)


def act_on_subspace(p: MatrixOverD, sigma: AlgebraAutomorphism, v: RightSubspace) -> RightSubspace:
    """Image of a subspace under the automorphism (P, sigma)."""
    return apply_matrix(p, apply_sigma(sigma, v))


def probe_subspaces(algebra: DivisionAlgebra, n: int, k: int):
    """Deterministic k-subspaces of D^n, for 1 <= k <= n-1, that see every mover.

    First the coordinate k-subspaces, then span(e_i + e_j x, e_F) for
    i != j, x a basis element of D and e_F the first k - 1 unit vectors
    other than e_i and e_j.  find_moved_subspace says why they suffice.
    """
    from itertools import combinations

    if not 1 <= k <= n - 1:
        raise ValidationError(f"probe subspaces need 1 <= k <= {n - 1}, got k = {k}")
    zero, one = algebra.zero(), algebra.one()

    def std(r):
        return tuple(one if i == r else zero for i in range(n))

    for rows in combinations(range(n), k):
        cols = [std(r) for r in rows]
        yield column_echelon(MatrixOverD.from_columns(algebra, cols, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            free = [r for r in range(n) if r not in (i, j)][: k - 1]
            for x in algebra.basis_elements():
                mixed = tuple(one if r == i else (x if r == j else zero) for r in range(n))
                cols = [mixed] + [std(r) for r in free]
                yield column_echelon(MatrixOverD.from_columns(algebra, cols, n))


def find_moved_subspace(p: MatrixOverD, sigma: AlgebraAutomorphism, k: int) -> RightSubspace | None:
    """A k-subspace moved by (P, sigma), or None exactly when the action is trivial.

    For k = 0 or k = n the Grassmannian is one point and nothing moves.
    Otherwise the first probe_subspaces member that moves is returned.  For
    sigma from a lift table the probes see every mover.  sigma maps each
    e_r to itself, so fixing every coordinate k-subspace means P fixes
    them, hence every coordinate line (their intersection, as k < n):
    P = diag(lambda_r).  Fixing span(e_i + e_j x, e_F) then forces
    lambda_j sigma(x) = x lambda_i on a basis, so for all x by linearity;
    x = 1 gives lambda_i = lambda_j, so P = lambda I and sigma is
    conjugation by lambda^{-1}.  Being inner, that sigma has the identity's
    center values, and lift table entries have distinct ones, so sigma = id
    and lambda is central: the action is trivial.
    """
    n = p.rows
    if not 0 <= k <= n:
        raise ValidationError(f"subspace dimension {k} out of range for ambient dimension {n}")
    if k in (0, n):
        return None
    return next((v for v in probe_subspaces(p.algebra, n, k) if act_on_subspace(p, sigma, v) != v), None)
