"""Scale-parameter algebra for the harvest pipelines.

Each regime fixes how Z, W (and Y) scale as powers of X in terms of a density
deficit alpha, subject to a chain of feasibility inequalities whose boundaries
are 1/5, 1/6 and the real roots of two cubics near 0.54.  Inequalities are
evaluated non-strictly at their exact thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintViolation, DomainError

THEOREMS = ("thm1", "thm2")
VARIANTS = ("conditional", "unconditional")


def cubic_real_root(coeffs: tuple[float, float, float, float], lo: float, hi: float) -> float:
    """Root of c3 x^3 + c2 x^2 + c1 x + c0 in [lo, hi] by bisection, to 1e-12."""
    c3, c2, c1, c0 = coeffs

    def p(t: float) -> float:
        return ((c3 * t + c2) * t + c1) * t + c0

    flo, fhi = p(lo), p(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise DomainError(f"no sign change of cubic on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = p(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)


# the two feasibility cubics: 4x^3 - 5x^2 + 9x - 4 and x^3 - 2x^2 - x + 1
ALPHA_THM2_UNCONDITIONAL = cubic_real_root((4.0, -5.0, 9.0, -4.0), 0.0, 1.0)
ALPHA_THM2_CONDITIONAL = cubic_real_root((1.0, -2.0, -1.0, 1.0), 0.5, 1.0)


@dataclass(frozen=True)
class RegimeExponents:
    theorem: str
    variant: str
    alpha: float
    z_exp: float
    w_exp: float
    y_exp: float | None = None

    def as_dict(self) -> dict:
        d = {
            "theorem": self.theorem,
            "variant": self.variant,
            "alpha": self.alpha,
            "Z": self.z_exp,
            "W": self.w_exp,
        }
        if self.y_exp is not None:
            d["Y"] = self.y_exp
        return d


_BOUNDARY_SLACK = 1e-9  # non-strict thresholds evaluated on floats


def check_constraints(theorem: str, variant: str, alpha: float) -> list[tuple[str, float, bool]]:
    """Evaluate the regime's feasibility chain; each entry is (name, margin, satisfied).

    Margins are oriented so that satisfied == (margin >= 0), with a hair of
    slack so the exact thresholds (including the cubic roots, which are only
    float approximations) count as satisfied; only alpha_positive is strict.
    The cubics are in Horner form, which overflows to an infinite margin
    where a power such as alpha**3 raises OverflowError.
    """
    if theorem not in THEOREMS or variant not in VARIANTS:
        raise DomainError(f"unknown regime {theorem}/{variant}")

    def sat(margin: float) -> bool:
        return margin >= -_BOUNDARY_SLACK

    out = [("alpha_positive", alpha, alpha > 0)]
    if theorem == "thm1":
        thresh = 0.2 if variant == "conditional" else 1.0 / 6.0
        name = "alpha_le_one_fifth" if variant == "conditional" else "alpha_le_one_sixth"
        out.append((name, thresh - alpha, sat(thresh - alpha)))
    else:
        out.append(("alpha_ge_one_half", alpha - 0.5, sat(alpha - 0.5)))
        if variant == "conditional":
            q = -(alpha * alpha + 3.0 * alpha - 2.0)
            out.append(("quadratic_alpha2_3alpha_2_negative", q, sat(q)))
            c = ((alpha - 2.0) * alpha - 1.0) * alpha + 1.0
            out.append(("cubic_x3_2x2_x_1_positive", c, sat(c)))
        else:
            c = -(((4.0 * alpha - 5.0) * alpha + 9.0) * alpha - 4.0)
            out.append(("cubic_4x3_5x2_9x_4_negative", c, sat(c)))
    return out


def regime_exponents(theorem: str, variant: str, alpha: float) -> RegimeExponents:
    """Closed-form Z/W(/Y) exponents as powers of X for a feasible alpha."""
    for name, value, ok in check_constraints(theorem, variant, alpha):
        if not ok:
            raise ConstraintViolation(name, value)
    if theorem == "thm1":
        if variant == "conditional":
            z = (1.0 - 2.0 * alpha) / (1.0 + alpha)
            w = (1.0 - 4.0 * alpha + alpha * alpha) / (1.0 + alpha)
        else:
            z = (1.0 - 3.0 * alpha) / (1.0 + 3.0 * alpha)
            w = (1.0 - 5.0 * alpha) / (1.0 + 3.0 * alpha)
        return RegimeExponents(theorem, variant, alpha, z, w)
    if variant == "conditional":
        z = (2.0 * alpha - 1.0) / (1.0 - alpha) ** 2
        y = alpha / (1.0 - alpha)
        w = (2.0 * alpha - 1.0) / (1.0 - alpha)
    else:
        den = 2.0 - 4.5 * alpha + 2.0 * alpha * alpha
        z = (-2.0 + 4.0 * alpha) / den
        y = (-2.0 * alpha * alpha + 2.5 * alpha - 0.5) / den
        w = (-4.0 * alpha * alpha + 7.0 * alpha - 2.5) / den
    return RegimeExponents(theorem, variant, alpha, z, w, y)


def optimality_frontier(k: int, I: tuple[int, ...] | frozenset) -> tuple[float, float]:
    """(theta, sup of feasible alpha) for a k-fold factorization with sieve indices I."""
    if k < 2:
        raise DomainError("k must be >= 2")
    Iset = set(I)
    if not Iset <= set(range(2, k + 1)):
        raise DomainError("I must be a subset of {2, ..., k}")
    theta = sum(2.0 ** (-i) for i in Iset)
    num = 1.0 - 2.0 ** (1 - k) + 2.0 * theta
    den = 5.0 - 2.0 ** (2 - k) + 12.0 * theta - 2.0 ** (2 - k) * theta + 4.0 * theta * theta
    return theta, num / den
