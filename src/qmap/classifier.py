"""Class computation and canonical-pair recovery for q-semiclassical functionals.

The class of a functional is read off a co-prime (A, C, D) triple as
max(deg C - 1, deg D); reduction to co-primality removes the gcd of the three
polynomials, which over an algebraically closed coefficient field is exactly
the condition "no common zero".  The module also transports distributional
pairs across the power substitution in both directions: descending from the
original sequence to the mapped one through a simple-set decomposition, and
ascending back through the cofactor eta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QmapError
from .functionals import MomentFunctional, PearsonPair, pearson_residual
from .mapping import lift_power
from .polyalg import Poly, compose_xk, dilate_poly, divrem, hahn_poly, hahn_poly_qinv, poly_gcd, simple_set_decompose
from .scalars import QParam
from .stieltjes import ACDTriple

__all__ = [
    "ClassReport",
    "BoundsReport",
    "reduce_acd",
    "class_from_acd",
    "phi_psi_from_acd",
    "classify",
    "class_bounds_check",
    "descend_pearson",
    "ascend_pearson",
]


@dataclass(frozen=True)
class ClassReport:
    reduced: ACDTriple
    s: int
    phi: Poly
    psi: Poly
    trace: tuple[Poly, ...]


@dataclass(frozen=True)
class BoundsReport:
    ok: bool
    down_ok: bool      # s_tilde <= floor(s / k)
    up_ok: bool        # s <= (s_tilde + 3) k - 3
    classical_ok: bool  # s <= k - 1 implies s_tilde = 0


def reduce_acd(t: ACDTriple) -> tuple[ACDTriple, tuple[Poly, ...]]:
    """Remove the common factor of (A, C, D) and normalize A monic.

    Divides the triple once by the monic gcd g of all three polynomials, which
    leaves them with a constant gcd, so no common zero in the algebraic
    closure; the trace is (g,), or () when g is already constant.
    """
    A, C, D = t.A, t.C, t.D
    g = poly_gcd(poly_gcd(A, C), D)
    trace = (g,) if g.degree > 0 else ()
    if trace:
        A, C, D = (divrem(P, g)[0] for P in (A, C, D))
    lead = A.lc.inv()
    return ACDTriple(A * lead, C * lead, D * lead), trace


def class_from_acd(t: ACDTriple) -> int:
    """s = max(deg C - 1, deg D) for a co-prime triple."""
    if t.C.is_zero and t.D.is_zero:
        raise QmapError("C = D = 0 does not define a q-difference equation")
    dc = t.C.degree - 1 if not t.C.is_zero else None
    dd = t.D.degree if not t.D.is_zero else None
    vals = [v for v in (dc, dd) if v is not None]
    return int(max(vals))


def phi_psi_from_acd(t: ACDTriple, q: QParam) -> PearsonPair:
    """Recover the distributional pair from a co-prime triple with monic A.

    Phi = q^(-deg A) h_q A,  Psi = q^(-deg A) (H_q A + C/q).
    """
    da = t.A.degree
    scale = q.power(da).inv()
    phi = scale * dilate_poly(t.A, q.q)
    psi = scale * (hahn_poly(t.A, q) + q.q.inv() * t.C)
    return PearsonPair(phi, psi)


def classify(t: ACDTriple, q: QParam) -> ClassReport:
    """Reduce, read the class, and recover the canonical pair in one step."""
    reduced, trace = reduce_acd(t)
    s = class_from_acd(reduced)
    pair = phi_psi_from_acd(reduced, q)
    return ClassReport(reduced, s, pair.phi, pair.psi, trace)


def class_bounds_check(s: int, s_tilde: int, k: int) -> BoundsReport:
    """The two class inequalities plus the classical specialization."""
    down_ok = s_tilde <= s // k
    up_ok = s <= (s_tilde + 3) * k - 3
    classical_ok = (s > k - 1) or (s_tilde == 0)
    return BoundsReport(down_ok and up_ok and classical_ok, down_ok, up_ok, classical_ok)


def descend_pearson(pair_u: PearsonPair, s: int, basis, q: QParam, v: MomentFunctional) -> PearsonPair:
    """Transport the pair of u to a pair (f_0, g_0) for the mapped functional v.

    ``basis`` is the simple set of u's first k orthogonal polynomials p_0..p_{k-1},
    so k = len(basis).  With l = 1 + s//k and p = l*k - 1 - s >= 0, decompose
    x^(k+p-1) Phi and q^(-p) [k]_q^(-1) (x^p Psi + [p]_q x^(p-1) Phi) over the
    basis; the residue-zero components satisfy
    H_{q^k}(f_0 v) = g_0 v, which is verified on the tracked moments before
    returning.
    """
    k = len(basis)
    ell = 1 + s // k
    p = ell * k - 1 - s
    if p < 0:
        raise QmapError(f"negative shift p = {p}")
    phi, psi = pair_u.phi, pair_u.psi
    bk_inv = q.bracket(k).inv()

    lhs = Poly.monomial(k + p - 1) * phi
    f_comps = simple_set_decompose(lhs, basis)

    if p == 0:
        rhs = bk_inv * psi
    else:
        rhs = (q.power(p).inv() * bk_inv) * (
            Poly.monomial(p) * psi + q.bracket(p) * (Poly.monomial(p - 1) * phi)
        )
    g_comps = simple_set_decompose(rhs, basis)

    pair_v = PearsonPair(f_comps[0], g_comps[0])
    residual = pearson_residual(v, pair_v, q.pow(k))
    if any(residual):
        raise QmapError("descended pair does not annihilate the mapped moments; inputs are inconsistent")
    return pair_v


def ascend_pearson(pair_v: PearsonPair, eta: Poly, q: QParam) -> PearsonPair:
    """Transport a pair of the mapped functional back to the original one, at k = deg eta + 1.

    Phi(x) = q^(1-k) eta(qx) Phi_v(x^k),
    Psi(x) = q^(1-k) ([k]_q x^(k-1) eta(x/q) Psi_v(x^k)
             + ((H_q eta)(x) + (H_{1/q} eta)(x)/q) Phi_v(x^k)).
    """
    k = lift_power(eta)
    scale = q.power(k - 1).inv()
    phi_k = compose_xk(pair_v.phi, k)
    psi_k = compose_xk(pair_v.psi, k)
    phi = scale * (dilate_poly(eta, q.q) * phi_k)
    bracket_term = hahn_poly(eta, q) + q.q.inv() * hahn_poly_qinv(eta, q)
    psi = scale * (
        q.bracket(k) * (Poly.monomial(k - 1) * dilate_poly(eta, q.q.inv()) * psi_k) + bracket_term * phi_k
    )
    return PearsonPair(phi, psi)
