"""Curve counts on the rational elliptic surface.

The genus-zero counts of section-plus-fiber classes assemble into a series
determined two independent ways: by a first-order recursion against the
divisor-sum series (splitting off multiple fiber covers), and as the twelfth
power of the partition generating function.  Higher-genus series are the
genus-zero one times powers of the derivative of the divisor-sum series.
The genus-one recursion and the fiber-sum identity suite tie these together;
every identity is checked exactly as a vanishing residual series.
"""

from __future__ import annotations

from fractions import Fraction

from sumkit.oracles import divisor_sum
from sumkit.series import Series, VariableContext


def fiber_context() -> VariableContext:
    """Single fiber-degree variable; the section-class marker is implicit."""
    return VariableContext("t")


def sigma_series(cutoff: int) -> Series:
    """Divisor-sum generating function ``sum sigma(n) t^n``."""
    ctx = fiber_context()
    return Series(ctx, cutoff, {
        ctx.exponents({"t": n}): divisor_sum(n) for n in range(1, cutoff + 1)
    })


def f0_via_ode(cutoff: int) -> Series:
    """Genus-zero section-class series from ``t F' = 12 G F`` with ``F(0) = 1``.

    Coefficientwise: ``n c_n = 12 sum_{k=1..n} sigma(k) c_{n-k}``.
    """
    sigma = [0] + [divisor_sum(n) for n in range(1, cutoff + 1)]
    coeffs = [Fraction(1)]
    for n in range(1, cutoff + 1):
        total = sum(sigma[k] * coeffs[n - k] for k in range(1, n + 1))
        coeffs.append(Fraction(12 * total, n))
    ctx = fiber_context()
    return Series(ctx, cutoff,
                  {ctx.exponents({"t": n}): c for n, c in enumerate(coeffs)})


def f0_product(cutoff: int) -> Series:
    """The same series as the twelfth power of the partition series
    ``prod_{d>=1} (1 - t^d)^(-1)``, through order ``cutoff``.

    Built on a list of Python ints, dividing by each factor ``1 - t^d``
    twelve times.  One division is the running sum ``b_n = a_n + b_(n-d)``,
    ascending in ``n`` so that ``b_(n-d)`` is already divided.
    """
    coeffs = [1] + [0] * cutoff
    for d in range(1, cutoff + 1):
        for _ in range(12):
            for n in range(d, cutoff + 1):
                coeffs[n] += coeffs[n - d]
    ctx = fiber_context()
    return Series(ctx, cutoff,
                  {ctx.exponents({"t": n}): c for n, c in enumerate(coeffs)})


def fg(g: int, cutoff: int, f0: Series) -> Series:
    """Genus-``g`` series: the genus-zero one times ``(G')^g``.

    ``f0`` is the genus-zero series (:func:`f0_product`) through ``cutoff``
    or further; it is truncated to ``cutoff``.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    f = f0.truncate(cutoff)
    if g == 0:
        return f
    gprime = sigma_series(cutoff + 1).differentiate("t")
    return f * gprime ** g


def genus1_via_fiber_recursion(cutoff: int, f0: Series) -> Series:
    """Genus-one series built by the descendant recursion: ``(tF0'-F0)/12 + F0 G``.

    It needs the genus-zero series one order further, through ``cutoff +
    1``; ``f0`` is it, or a longer one, as in :func:`fg`.
    """
    f0 = f0.truncate(cutoff + 1)
    t = Series.term(fiber_context(), cutoff + 1, {"t": 1})
    tfp = t * f0.differentiate("t")
    return (tfp - f0.truncate(cutoff)) * Fraction(1, 12) \
        + (f0 * sigma_series(cutoff + 1)).truncate(cutoff)


def genus1_via_fiber_sum(cutoff: int, f0: Series) -> Series:
    """The same series from splitting off the trivial fibration: ``2 F0 (G - 1/24)``.

    ``f0`` is the genus-zero series, as in :func:`fg`.
    """
    f0 = f0.truncate(cutoff)
    return f0 * (sigma_series(cutoff) - Fraction(1, 24)) * 2


def lsplit_suite(g_max: int, cutoff: int, f0: Series) -> dict[str, Series]:
    """Residuals of the fiber-sum identity suite; all must vanish.

    The point-conditioned relative series ``FVg(p) = Fg - F(g-1) G'`` is what
    the one-point splitting leaves after the fiber-conditioned series is
    identified with the absolute one.  The doubled fiber sum has no curves at
    all, forcing ``FVg(p) F0 + F(g-1) FV1(p) = 0``; at genus one this solves
    (dividing by the invertible genus-zero series) to ``FV1(p) = 0``, which
    propagates up the genus ladder and collapses it to multiplication by
    ``G'``.  The returned residual series are indexed by identity name.
    ``f0`` is the genus-zero series, as in :func:`fg`, shared by every
    genus.
    """
    if g_max < 1:
        raise ValueError("need g_max >= 1")
    f0 = f0.truncate(cutoff)
    gprime = sigma_series(cutoff + 1).differentiate("t")
    f = {g: fg(g, cutoff, f0) for g in range(0, g_max + 1)}
    fv_point = {g: (f[g] - f[g - 1] * gprime).truncate(cutoff)
                for g in range(1, g_max + 1)}

    residuals: dict[str, Series] = {}
    for g in range(1, g_max + 1):
        residuals[f"fv{g}-point-vanishes"] = fv_point[g]
        # doubled fiber sum: FVg(p) F0 + F(g-1) FV1(p) = 0
        residuals[f"k3-vanishing-g{g}"] = (
            fv_point[g] * f0 + f[g - 1] * fv_point[1]
        ).truncate(cutoff)
        # genus ladder: Fg = F(g-1) G'
        residuals[f"ladder-g{g}"] = fv_point[g]
        # closed form: Fg = F0 (G')^g
        residuals[f"closed-form-g{g}"] = (
            f[g] - f[0] * gprime ** g
        ).truncate(cutoff)
    return residuals


def identity_residuals(g_max: int, cutoff: int) -> dict[str, Series]:
    """Every elliptic identity as a named residual series; all must vanish.

    In order: the recursion against the product expansion, the two
    genus-one routes, then the fiber-sum suite of :func:`lsplit_suite`.
    The product series is built once, through ``cutoff + 1`` as the
    recursion route needs, and every route takes it from there.
    """
    f0 = f0_product(cutoff + 1)
    residuals = {
        "recursion-vs-product": f0_via_ode(cutoff) - f0.truncate(cutoff),
        "genus1-two-routes": genus1_via_fiber_recursion(cutoff, f0)
        - genus1_via_fiber_sum(cutoff, f0),
    }
    residuals.update(lsplit_suite(g_max, cutoff, f0))
    return residuals
