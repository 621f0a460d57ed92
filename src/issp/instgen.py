"""Deterministic, seedable generators for four benchmark instance families.

Families:
  A: pure subset-sum, a_i = 2**(k+n+1) + 2**(k+i) + 1 with k = floor(log2 n)
     and T = floor(sum(a)/2).  Hard for branch-and-bound; n is capped at 62.
  B: pure subset-sum, a_i = n(n+1) + i and
     T = floor((n-1)/2) * n(n+1) + n(n-1)/2.
  C: hi uniform in [1, 10**14], lo = max(1, floor(hi/c)) for a fixed
     rational ratio c > 1, T = 3 * 10**14.
  D: hi as in C; each item gets its own ratio c_i drawn uniformly from the
     rationals with denominator 10**6 in [1, Cap]; lo = max(1, floor(hi/c_i)).

Each family's rules (its n range and parameter) live in ``_check`` alone;
``GenSpec`` runs it at construction and each generator on its arguments.

Randomness comes from SplitMix64 (Steele, Lea & Flood's published
generator: additive constant 0x9E3779B97F4A7C15 with two xor-shift-multiply
finalizer rounds), so streams are reproducible bit-for-bit across platforms
and easy to re-implement in other languages.  Uniform integers are drawn by
rejection sampling, avoiding modulo bias.  Ratios are exact rationals and
all floors are integer divisions, so generated instances are bit-exact
functions of (family, n, parameter, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Instance, exact_ratio, validate_columns

HI_RANGE = 10**14
TARGET_CD = 3 * 10**14
RATIO_DENOM = 10**6

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 pseudo-random generator (64-bit output per step)."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, n: int) -> int:
        """Uniform integer in [1, n] via rejection sampling.

        A draw joins the fewest 64-bit words whose range [0, span) covers n
        values, so bounds up to 2**64 take one word per draw.
        """
        if n < 1:
            raise ValueError(f"range bound must be >= 1, got {n}")
        span = 1 << 64
        while span < n:
            span <<= 64
        limit = span - span % n
        while True:
            r = self.next_u64()
            if span > 1 << 64:  # keeps the common one-word draw loop-free
                for _ in range(span.bit_length() // 64 - 1):
                    r = (r << 64) | self.next_u64()
            if r < limit:
                return 1 + r % n


def _check(family: str, n: int, param: object = None) -> Optional[Fraction]:
    """Refuse an instance outside its family's rules; return the parameter
    as a Fraction, or None for families A and B, which ignore it."""
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    if param is None and family in ("C", "D"):
        what = "ratio parameter c" if family == "C" else "ratio bound parameter"
        raise ValueError(f"family {family} requires the {what}")
    if family == "A" and not 1 <= n <= 62:
        raise ValueError(f"family A supports 1 <= n <= 62, got {n}")
    if n < 1:
        raise ValueError(f"family {family} requires n >= 1, got {n}")
    if family in ("A", "B"):
        return None
    param = exact_ratio(param)
    if param <= 1:
        what = "ratio c" if family == "C" else "Cap"
        raise ValueError(f"family {family} requires {what} > 1, got {param}")
    return param


@dataclass(frozen=True)
class GenSpec:
    """A valid instance description: construction runs ``_check`` and keeps its parameter."""

    family: str  # "A", "B", "C", or "D"
    n: int
    param: Optional[Fraction] = None  # C's ratio c or D's bound Cap, as text or a number
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "param", _check(self.family, self.n, self.param))


def gen_a(n: int) -> Instance:
    _check("A", n)
    k = n.bit_length() - 1  # floor(log2 n)
    items = [2 ** (k + n + 1) + 2 ** (k + i) + 1 for i in range(1, n + 1)]
    target = sum(items) // 2
    return validate_columns(items, items, target)


def gen_b(n: int) -> Instance:
    _check("B", n)
    items = [n * (n + 1) + i for i in range(1, n + 1)]
    target = ((n - 1) // 2) * n * (n + 1) + n * (n - 1) // 2
    if target < 1:
        # n = 1 gives target 0; keep the instance valid, every item is
        # dropped by preprocessing and the optimum is 0.
        target = 1
    return validate_columns(items, items, target)


def gen_c(n: int, c: Fraction, seed: int) -> Instance:
    return validate_columns(*ratio_columns(SplitMix64(seed), n, c), TARGET_CD)


def ratio_columns(rng: SplitMix64, n: int, c: Fraction) -> tuple[list[int], list[int]]:
    """The lo and hi columns of n draws of family C: hi uniform in
    [1, HI_RANGE] and lo = max(1, floor(hi / c)); n and c obey family C's rules."""
    c = _check("C", n, c)
    hi = [rng.randint(HI_RANGE) for _ in range(n)]
    p, q = c.denominator, c.numerator
    return [max(1, b * p // q) for b in hi], hi


def gen_d(n: int, cap: Fraction, seed: int) -> Instance:
    cap = _check("D", n, cap)
    cap_scaled = int(cap * RATIO_DENOM)  # floor; c_i numerators live in [10**6, this]
    rng = SplitMix64(seed)
    lo, hi = [], []
    for _ in range(n):
        b = rng.randint(HI_RANGE)
        # c_i = num / 10**6, uniform over denominators-10**6 rationals in [1, Cap]
        num = RATIO_DENOM - 1 + rng.randint(cap_scaled - RATIO_DENOM + 1)
        lo.append(max(1, b * RATIO_DENOM // num))
        hi.append(b)
    return validate_columns(lo, hi, TARGET_CD)


def generate(spec: GenSpec) -> Instance:
    if spec.family in ("A", "B"):
        return (gen_a if spec.family == "A" else gen_b)(spec.n)
    return (gen_c if spec.family == "C" else gen_d)(spec.n, spec.param, spec.seed)


def instance_a_optimum(n: int) -> int:
    """Exact optimum of family A in closed form.

    With k = floor(log2 n) and H = 2^(k+n+1), a subset of j items sums to
    jH + B + j, B a sum of j distinct powers 2^(k+i), 1 <= i <= n.  Since
    B <= H - 2^(k+1) and j <= n < 2^(k+1), B + j < H: sums are ordered by
    j first and by B second.  The target T = floor(sum(a) / 2) is
    floor(n/2) H + 2^(k+n) - 2^k + floor(n/2), plus 2^(k+n) for odd n;
    its remainder past floor(n/2) H is below H (2^k > floor(n/2)), so the
    best subset has j = floor(n/2) items and then the largest B that fits.
    For odd n every B fits, so B takes the top j powers, up to p = n.  For
    even n, B <= 2^(k+n) - 2^k excludes the top power 2^(k+n), and the
    next j powers, up to p = n - 1, fit.  Either way
    B = 2^(k+p+1) - 2^(k+p+1-j).
    """
    _check("A", n)
    k = n.bit_length() - 1
    j, p = n // 2, n if n % 2 else n - 1
    return j * ((1 << k + n + 1) + 1) + (1 << k + p + 1) - (1 << k + p + 1 - j)


def instance_b_optimum(n: int) -> int:
    """Exact optimum of family B in closed form.

    Picking k items contributes k*n(n+1) plus a sum of k distinct indices
    from 1..n; those index sums cover every integer between k(k+1)/2 and
    k(2n-k+1)/2, so the best total for each cardinality is immediate.
    """
    inst = gen_b(n)
    t = inst.target
    base = n * (n + 1)
    best = 0
    for k in range(0, n + 1):
        rem = t - k * base
        if rem < k * (k + 1) // 2:
            break
        s = min(rem, k * (2 * n - k + 1) // 2)
        best = max(best, k * base + s)
    return best
