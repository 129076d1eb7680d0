"""Frobenius and Taylor series solutions of second-order operators, and the
residual check that certifies series solutions of composed operators.

The operator is cleared to polynomial coefficients A2 y'' + A1 y' + A0 y and
recentred at the expansion point.  Writing y = t^rho * sum c_k t^k, the
coefficient of each power collapses to a banded recurrence

    sum_k c_k * w_{s-k}(rho + k) = 0,
    w_j(L) = a2_j * L(L-1) + a1_{j-1} * L + a0_{j-2},

where a_{i,j} are the Taylor coefficients of the cleared, shifted A_i.  The
first index v with w_v not identically zero carries the indicial polynomial
w_v(L); the point is regular (two exponents) exactly when that polynomial is
quadratic in L.  Coefficients are solved exactly in the active field; a zero
pivot with a nonzero right-hand side is a genuine resonance and is refused.

Row s of the recurrence reads only rows below s, so the solution at a
smaller truncation is a prefix of a longer one: one recurrence per exponent
serves every truncation (FrobeniusSolution.truncated).

series_residual evaluates L applied to the truncated series at exact
rational points of a circle (Pythagorean parametrization, so the points have
radius exactly r) and measures magnitudes with mpmath, so residuals far below
double precision remain meaningful and the N -> residual decay is monotone.
The j-th derivative needs the weights c_k * (rho+k)(rho+k-1)... (j
factors).  Each solution builds these rows once, as Polynomials in t, and
caches them: row j is (rho-j+1) * row_{j-1} + t * row_{j-1}'.  A row is
evaluated by Polynomial.eval, exactly: by Horner's rule over Gaussian
integers for a rational row at a Gaussian rational point, by a FieldElement
loop otherwise.

series_residuals checks several solutions at one expansion point and shares
the radius guard and the operator's values at each point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from .field import FieldElement, ONE, ZERO, Q, quadratic_roots
from .diffop import DiffOp, over_common_denominator
from .poly import P_X, Polynomial


class IrregularSingularPointError(ValueError):
    pass


class ResonanceError(ValueError):
    """Integer exponent difference with an inconsistent recurrence row."""


@dataclass(frozen=True)
class FrobeniusSolution:
    x0: FieldElement
    rho: FieldElement
    coeffs: tuple  # c_0 .. c_N, c_0 = 1
    truncation: int
    # weight rows, built on first use by _weight_rows
    _rows: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def truncated(self, n: int) -> "FrobeniusSolution":
        """The solution cut at order n.  Row s of the recurrence reads only
        rows below s, so this equals frobenius_series at truncation n."""
        return FrobeniusSolution(self.x0, self.rho, self.coeffs[:n + 1], n)

    def _weight_rows(self, max_order: int) -> list:
        """Rows j = 0..max_order: the Polynomials sum_k c_k *
        (rho+k)(rho+k-1)... (j factors) * t^k.  Row j is
        (rho-j+1) * row_{j-1} + t * row_{j-1}'."""
        rows = self._rows
        if not rows:
            rows.append(Polynomial(self.coeffs))
        while len(rows) <= max_order:
            prev = rows[-1]
            rows.append(prev.scale(self.rho - (len(rows) - 1))
                        + P_X * prev.derivative())
        return rows

    def derivative_values(self, t: FieldElement, max_order: int):
        """Exact values of S^(j)(x0 + t) / t^(rho - j) for j = 0..max_order.

        Dividing out the common power keeps everything in the field; the
        caller reattaches |t^(rho-j)| numerically.  The value for j is
        weight row j at t.
        """
        return [row.eval(t)
                for row in self._weight_rows(max_order)[:max_order + 1]]


def _cleared_local_data(op: DiffOp, x0: FieldElement):
    """Shifted polynomial coefficients (A2, A1, A0), the reduced
    coefficients over the lcm of their denominators (a product's own form
    may carry a common factor that only lengthens the recurrence)."""
    if op.order != 2:
        raise ValueError("series machinery expects an order-2 operator")
    nums, _ = over_common_denominator(DiffOp(op.coeffs))
    return [num.shift(x0) for num in reversed(nums)]


def _w_coeff(polys, j: int):
    """The quadratic w_j as coefficient triple (of L(L-1), L, 1)."""
    a2p, a1p, a0p = polys
    return (a2p.coeff(j), a1p.coeff(j - 1), a0p.coeff(j - 2))


def _w_eval(w, lam: FieldElement) -> FieldElement:
    c2, c1, c0 = w
    return c2 * lam * (lam - 1) + c1 * lam + c0


def _indicial_data(op: DiffOp, x0: FieldElement):
    polys = _cleared_local_data(op, x0)
    max_j = max(p.degree for p in polys if not p.is_zero) + 2
    for v in range(max_j + 1):
        w = _w_coeff(polys, v)
        if not (w[0].is_zero and w[1].is_zero and w[2].is_zero):
            return polys, v, w
    raise ValueError("zero operator has no indicial data")


def indicial_roots(op: DiffOp, x0: FieldElement):
    """Both local exponents at an ordinary or regular singular point."""
    x0 = FieldElement._coerce(x0)
    _, _, w = _indicial_data(op, x0)
    c2, c1, c0 = w
    if c2.is_zero:
        raise IrregularSingularPointError(
            f"irregular singular point at {x0}: indicial polynomial "
            "degenerates below degree 2")
    # c2*L^2 + (c1 - c2)*L + c0
    return quadratic_roots(c2, c1 - c2, c0)


def frobenius_series(op: DiffOp, x0, rho, n: int) -> FrobeniusSolution:
    """Exact series solution t^rho * (1 + c_1 t + ... + c_N t^N) at x0.

    rho must satisfy the indicial equation.  When the recurrence pivot
    vanishes at some order (integer exponent difference) and the row is
    consistent, that coefficient is set to zero and the recursion continues;
    an inconsistent row raises ResonanceError.
    """
    x0 = FieldElement._coerce(x0)
    rho = FieldElement._coerce(rho)
    if n < 4:
        raise ValueError("truncation order must be at least 4")
    polys, v, w_v = _indicial_data(op, x0)
    if not _w_eval(w_v, rho).is_zero:
        raise ValueError(f"{rho} is not an indicial exponent at {x0}")
    max_band = max(p.degree for p in polys if not p.is_zero) + 2
    w_table = [_w_coeff(polys, j) for j in range(max_band + 1)]
    coeffs = [ONE]
    for s in range(1, n + 1):
        rhs = ZERO
        for k in range(max(0, s - max_band + v), s):
            j = v + s - k
            if j <= max_band:
                w = w_table[j]
                if not (w[0].is_zero and w[1].is_zero and w[2].is_zero):
                    rhs = rhs + coeffs[k] * _w_eval(w, rho + k)
        pivot = _w_eval(w_v, rho + s)
        if pivot.is_zero:
            if rhs.is_zero:
                coeffs.append(ZERO)
                continue
            raise ResonanceError(
                f"resonant exponent at {x0}: order {s} row is inconsistent "
                "(integer exponent difference); choose the larger exponent "
                "or move the expansion point")
        coeffs.append(-rhs / pivot)
    return FrobeniusSolution(x0, rho, tuple(coeffs), n)


def circle_points(radius, count: int):
    """Exact Gaussian-rational points with |x| = radius (rational radius).

    Pythagorean parametrization: for rational s, the point
    radius * ((1-s^2) + 2si) / (1+s^2) has norm exactly radius.
    """
    params = [Q(0), Q(1, 4), Q(1, 2), Q(1), Q(2), Q(-1, 2), Q(-1), Q(-4)]
    if count > len(params):
        # i/(2i+1) is injective and misses the base list
        params = params + [Q(i, 2 * i + 1)
                           for i in range(3, 3 + count - len(params))]
    radius = Q(radius)
    out = []
    for s in params[:count]:
        den = 1 + s * s
        re = radius * (1 - s * s) / den
        im = radius * (2 * s) / den
        out.append(FieldElement.make(re, im))
    return out


@dataclass(frozen=True)
class SeriesResidualResult:
    max_residual: float
    truncation: int
    radius: object
    points: int

    def __float__(self):
        return self.max_residual


def _nearest_pole_distance(op: DiffOp, x0: FieldElement) -> float | None:
    """Distance from x0 to the nearest other pole of the operator's
    coefficients, exact roots and numeric ones; poly_roots runs once per
    distinct denominator."""
    from .ratfunc import poly_roots

    best = None
    x0c = x0.to_complex()
    dens = []
    for c in op.coeffs:
        if c.den.degree >= 1 and c.den not in dens:
            dens.append(c.den)
    for den in dens:
        exact, numeric = poly_roots(den)
        for root in [r.to_complex() for r, _m in exact] + numeric:
            dist = abs(root - x0c)
            if dist > 1e-12 and (best is None or dist < best):
                best = dist
    return best


def series_residual(op: DiffOp, sol: FrobeniusSolution, radius,
                    points: int = 8, dps: int = 60) -> SeriesResidualResult:
    """max_j |op(S_N)(x_j)| over exact circle points around the expansion.

    Everything except the final magnitude is computed exactly: the truncated
    series and its derivatives are field values at the rational points, and
    the operator coefficients are evaluated exactly, so cancellation below
    double precision is not lost.  The radius must stay strictly inside the
    distance to the nearest other singularity of the operator.
    """
    return series_residuals(op, [sol], radius, points, dps)[0]


def series_residuals(op: DiffOp, sols, radius, points: int = 8,
                     dps: int = 60) -> list:
    """series_residual for several solutions at one expansion point.

    The radius guard, the circle points and the operator's coefficients at
    each point are computed once and shared by every solution.
    """
    x0 = sols[0].x0
    if any(sol.x0 != x0 for sol in sols):
        raise ValueError("solutions expand about different points")
    limit = _nearest_pole_distance(op, x0)
    if limit is not None and float(radius) >= limit - 1e-12:
        raise ValueError(
            f"radius {radius} reaches the nearest singularity "
            f"(distance {limit:.6g})")
    order = op.order
    worst = [mpmath.mpf(0)] * len(sols)
    with mpmath.workdps(dps):
        for t in circle_points(radius, points):
            x = x0 + t
            cvals = [None if op.coeff(j).is_zero
                     else op.coeff(j).eval(x).to_mpc(mpmath.mp)
                     for j in range(order + 1)]
            # reattach the principal power t^(rho-j) split off by
            # derivative_values, once per exponent rho
            logt = mpmath.log(t.to_mpc(mpmath.mp))
            scales = {}
            for i, sol in enumerate(sols):
                if sol.rho not in scales:
                    scales[sol.rho] = [
                        mpmath.exp((sol.rho - j).to_mpc(mpmath.mp) * logt)
                        for j in range(order + 1)]
                derivs = sol.derivative_values(t, order)
                acc = mpmath.mpc(0)
                for cval, value, scale in zip(cvals, derivs, scales[sol.rho]):
                    if cval is not None:
                        acc += cval * value.to_mpc(mpmath.mp) * scale
                total = abs(acc)
                if total > worst[i]:
                    worst[i] = total
    return [SeriesResidualResult(float(w), sol.truncation, radius, points)
            for w, sol in zip(worst, sols)]
