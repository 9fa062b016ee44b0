"""Concrete exact arithmetic for checking the constructions on real elements.

Everything here computes with honest numbers: rationals with their
p-valuation and quaternions with explicit coordinates.  The symbolic
engine's claims about involutions, parameters and residue decompositions
are re-derived on elements and compared, never assumed.

The quaternion presentation is (a, b)/Q_p with i*i = a, j*j = b and
ij = -ji, where a is a nonsquare unit and b has odd valuation; for that
presentation the integral elements are exactly those with p-integral
coordinates, and the residue ring is the quadratic extension of the prime
field generated by the image of i.

A quaternion is stored as an integer lattice element: four integer
numerators over one positive common denominator, in lowest terms.  The
algebra clears the denominators of its slots once, so products, norms and
inverses are integer formulas; valuations and residues are read from the
integers, and ``coords`` turns them back into Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .errors import EngineError, UnsupportedShapeError
from .fields import (
    CDVField,
    FiniteField,
    SquareClass,
    class_of_rational,
    legendre,
    record,
    smallest_nonresidue,
    split_valuation,
    valuation_unit,
)
from .quadform import QuadForm, qf_is_isotropic, qf_is_isotropic_oracle


@record
class LabAlgebra:
    """Quaternion presentation (a, b) over the p-adic rationals."""

    __slots__ = ("__dict__",)  # for the cleared slots, the hash and norm_classes
    a: Fraction
    b: Fraction
    p: int

    def __new__(cls, a: Fraction, b: Fraction, p: int):
        FiniteField(p)  # an odd prime within the size bound, so the split ends
        if a == 0 or (split := valuation_unit(a, p))[0] != 0:
            raise ValueError(f"slot a = {a} of the symbol is not a {p}-adic unit")
        self = tuple.__new__(cls, (a, b, p))
        # The slots with their denominators cleared once: a = A/da, b = B/db
        # and D = da*db, so D times a product or a norm is an integer form in
        # the numerators.
        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        object.__setattr__(self, "_cleared", (da * db, a.numerator * db,
                                              b.numerator * da, a.numerator * b.numerator))
        # Read per decomposition and per memo lookup: the residue of a, and
        # the hash, so that no lookup goes through Fraction.__hash__.
        object.__setattr__(self, "_a_residue", split[1])
        object.__setattr__(self, "_hash", tuple.__hash__(self))
        return self

    def __hash__(self) -> int:
        return self._hash

    def tower(self) -> CDVField:
        return CDVField(FiniteField(self.p))

    @cached_property
    def norm_classes(self) -> tuple:
        """Square classes of the norm form <1, -a, -b, ab>, over ``tower()``."""
        k = self.tower()
        return tuple(class_of_rational(k, c) for c in (1, -self.a, -self.b, self.a * self.b))

    def is_division(self) -> bool:
        return not qf_is_isotropic(QuadForm(self.tower(), self.norm_classes))


@lru_cache(maxsize=64)
def standard_algebra(p: int) -> LabAlgebra:
    """(u, p) with u the least positive nonresidue mod p, memoised per
    prime, so smallest_nonresidue runs once per prime here; a non-prime p
    raises on every call."""
    FiniteField(p)  # an odd prime within the size bound, so the search ends
    return LabAlgebra(Fraction(smallest_nonresidue(p)), Fraction(p), p)


@record
class QuaternionElt:
    """x0 + x1*i + x2*j + x3*ij with exact rational coordinates.

    Stored as a lattice element: four integer numerators over one positive
    common denominator, in lowest terms, so equal elements have equal
    fields and hash alike.  ``coords`` gives the four Fractions back.
    """

    alg: LabAlgebra
    nums: tuple  # four ints
    den: int

    def __new__(cls, alg: LabAlgebra, coords):
        if len(coords) != 4:
            raise ValueError("four coordinates required")
        coords = [Fraction(c) for c in coords]
        # over the lcm of reduced denominators no prime divides every slot
        den = lcm(*(c.denominator for c in coords))
        return tuple.__new__(cls, (alg, tuple(c.numerator * (den // c.denominator)
                                              for c in coords), den))

    def __reduce__(self):
        return _lattice, (self.alg, *self.nums, self.den)

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other):
        if self._foreign(other):
            return NotImplemented
        d, e = self.den, other.den
        return _lattice(self.alg, *(x * e + y * d for x, y in zip(self.nums, other.nums)),
                        d * e)

    def __sub__(self, other):
        if self._foreign(other):
            return NotImplemented
        d, e = self.den, other.den
        return _lattice(self.alg, *(x * e - y * d for x, y in zip(self.nums, other.nums)),
                        d * e)

    def __neg__(self):
        x0, x1, x2, x3 = self.nums
        return _lattice(self.alg, -x0, -x1, -x2, -x3, self.den)

    def __mul__(self, other):
        if self._foreign(other):
            return NotImplemented
        d, ad, bd, ab = self.alg._cleared
        x0, x1, x2, x3 = self.nums
        y0, y1, y2, y3 = other.nums
        return _lattice(
            self.alg,
            d * x0 * y0 + ad * x1 * y1 + bd * x2 * y2 - ab * x3 * y3,
            d * (x0 * y1 + x1 * y0) + bd * (x3 * y2 - x2 * y3),
            d * (x0 * y2 + x2 * y0) + ad * (x1 * y3 - x3 * y1),
            d * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1),
            d * self.den * other.den)

    def scale(self, c: Fraction):
        c = Fraction(c)
        n = c.numerator
        x0, x1, x2, x3 = self.nums
        return _lattice(self.alg, n * x0, n * x1, n * x2, n * x3, c.denominator * self.den)

    def conj(self):
        """Canonical involution: negates the pure part."""
        x0, x1, x2, x3 = self.nums
        return _lattice(self.alg, x0, -x1, -x2, -x3, self.den)

    def _norm_numerator(self) -> int:
        """D * den**2 * nrd, with D the cleared slot denominator."""
        d, ad, bd, ab = self.alg._cleared
        x0, x1, x2, x3 = self.nums
        return d * x0 * x0 - ad * x1 * x1 - bd * x2 * x2 + ab * x3 * x3

    def nrd(self) -> Fraction:
        return Fraction(self._norm_numerator(), self.alg._cleared[0] * self.den * self.den)

    def inverse(self):
        n = self._norm_numerator()
        if n == 0:
            raise ZeroDivisionError("not invertible: reduced norm vanishes")
        # conj / nrd: each coordinate +-x/den times D * den**2 / n
        f = self.alg._cleared[0] * self.den
        if n < 0:
            n, f = -n, -f
        x0, x1, x2, x3 = self.nums
        return _lattice(self.alg, f * x0, -f * x1, -f * x2, -f * x3, n)

    def is_integral(self) -> bool:
        # in lowest terms, p divides the common denominator exactly when it
        # divides some coordinate's denominator
        return self.den % self.alg.p != 0

    def _foreign(self, other) -> bool:
        """Whether other is not a quaternion, which the operators answer with
        NotImplemented; an element of another algebra is refused."""
        if not isinstance(other, QuaternionElt):
            return True
        if other.alg is not self.alg and other.alg != self.alg:
            raise ValueError("mixed quaternion algebras")
        return False

    def __str__(self):
        names = ("", "i", "j", "ij")
        parts = [f"{c}{n}" if n else f"{c}" for c, n in zip(self.coords, names) if c != 0]
        return " + ".join(parts) if parts else "0"


def _lattice(alg: LabAlgebra, x0: int, x1: int, x2: int, x3: int, den: int) -> QuaternionElt:
    """The element (x0 + x1*i + x2*j + x3*ij) / den, den > 0, in lowest terms."""
    g = gcd(x0, x1, x2, x3, den)
    if g != 1:
        x0, x1, x2, x3, den = x0 // g, x1 // g, x2 // g, x3 // g, den // g
    return tuple.__new__(QuaternionElt, (alg, (x0, x1, x2, x3), den))


def scalar(alg: LabAlgebra, c) -> QuaternionElt:
    c = Fraction(c)
    return _lattice(alg, c.numerator, 0, 0, 0, c.denominator)


def basis_i(alg: LabAlgebra) -> QuaternionElt:
    return _lattice(alg, 0, 1, 0, 0, 1)


def basis_j(alg: LabAlgebra) -> QuaternionElt:
    return _lattice(alg, 0, 0, 1, 0, 1)


def basis_ij(alg: LabAlgebra) -> QuaternionElt:
    return _lattice(alg, 0, 0, 0, 1, 1)


def _twice_value(x: QuaternionElt) -> int:
    """The valuation of the reduced norm, twice the value w(x)."""
    if x.is_zero:
        raise ValueError("zero has no value")
    p = x.alg.p
    num = split_valuation(x._norm_numerator(), p)[0]
    den = split_valuation(x.alg._cleared[0] * x.den * x.den, p)[0]
    return num - den


def w_value(x: QuaternionElt) -> Fraction:
    """Half the valuation of the reduced norm; half-integers allowed."""
    return Fraction(_twice_value(x), 2)


def residue_elt(x: QuaternionElt, allow_positive: bool = False):
    """Residue pair (c0, c1) standing for c0 + c1*sqrt(u) over the prime field.

    Needs p-integral coordinates; the j and ij parts fall into the maximal
    ideal.  By default the element must be a unit; pass allow_positive to
    reduce elements of positive value to (0, 0).
    """
    if not x.is_integral():
        raise ValueError("non-integral coordinates")
    if not x.is_zero:
        w = _twice_value(x)
        if w < 0 or (w != 0 and not allow_positive):
            raise ValueError(f"value {Fraction(w, 2)} is not zero")
    p = x.alg.p
    inv = pow(x.den, -1, p)
    return (x.nums[0] * inv % p, x.nums[1] * inv % p)


# ---------------------------------------------------------------------------
# involutions and parameters

@record
class Involution:
    """Either the canonical involution or its twist by conjugation with i."""

    alg: LabAlgebra
    name: str  # "gamma" | "int(i)*gamma"

    def __call__(self, x: QuaternionElt) -> QuaternionElt:
        if self.name == "gamma":
            return x.conj()
        i = basis_i(self.alg)
        return i * x.conj() * i.inverse()


def gamma_involution(alg: LabAlgebra) -> Involution:
    return Involution(alg, "gamma")


def choose_sigma(alg: LabAlgebra) -> Involution:
    """The orthogonal involution conjugating the canonical one by i.

    Verified on the spot: it squares to the identity, negates i, fixes j
    and ij, and its residue moves sqrt(u), so the residue involution is
    of the second kind while alpha = i has unit square u.
    """
    if not alg.is_division():
        raise UnsupportedShapeError("the presentation is split; no residue "
                                    "division algebra to work in")
    sigma = Involution(alg, "int(i)*gamma")
    i, j, ij = basis_i(alg), basis_j(alg), basis_ij(alg)
    if sigma(i) != -i or sigma(j) != j or sigma(ij) != ij:
        raise EngineError("involution table broke")
    for x in (i, j, ij, i + j, scalar(alg, 3) + ij):
        if sigma(sigma(x)) != x:
            raise EngineError("involution does not square to the identity")
    if _involution_kind(sigma, alg) != "conjugation":
        raise EngineError("residue involution is not of the second kind")
    return sigma


@record
class PidResult:
    pid: QuaternionElt
    eps_prime: int
    case: int
    checks: dict


def choose_pid(alg: LabAlgebra, sigma: Involution, t: QuaternionElt) -> PidResult:
    """Build the symmetrized parameter from t and verify its properties.

    Case 1 (residue of sigma(t)/t is 1): pid = t + sigma(t), fixed by
    sigma.  Case 2 (otherwise): pid = alpha*t - sigma(alpha*t), negated
    by sigma.  In both cases the value of t is preserved and conjugation
    by pid composed with sigma fixes the residue of alpha.
    """
    if not alg.is_division():
        raise UnsupportedShapeError("split presentation")
    if t.is_zero:
        raise ValueError("zero is not a parameter")
    wt = _twice_value(t)
    if wt % 2 == 0:
        raise ValueError(f"parameter must have half-odd value, got {Fraction(wt, 2)}")

    ratio = sigma(t) * t.inverse()
    alpha = basis_i(alg)  # skew under both supported involutions, with unit square
    checks = {}
    if residue_elt(ratio) == (1, 0):
        case = 1
        pid = t + sigma(t)
        eps_prime = 1
        checks["case1_residue_is_two"] = residue_elt(pid * t.inverse()) == (2 % alg.p, 0)
    else:
        case = 2
        at = alpha * t
        pid = at - sigma(at)
        eps_prime = -1
        chain = (pid * alpha * pid.inverse() + alpha) * (pid * t.inverse())
        checks["case2_chain_vanishes"] = residue_elt(chain, allow_positive=True) == (0, 0)
        checks["case2_ratio_nonzero"] = residue_elt(pid * t.inverse()) != (0, 0)

    checks["sign"] = sigma(pid) == (pid if eps_prime == 1 else -pid)
    checks["value_preserved"] = _twice_value(pid) == wt
    fixed = pid * sigma(alpha) * pid.inverse()
    checks["residue_fixes_alpha"] = residue_elt(fixed) == residue_elt(alpha, allow_positive=True)

    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise EngineError(f"parameter checks failed: {failed}")
    return PidResult(pid, eps_prime, case, checks)


# ---------------------------------------------------------------------------
# concrete residue decomposition

@record
class ResidueForm:
    """Diagonal form over the residue quadratic extension."""

    p: int
    u: int
    entries: tuple           # residue pairs
    involution: str          # "conjugation" | "identity"
    eps: int

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_isotropic(self) -> bool:
        if self.involution == "conjugation":
            # norms are surjective onto the prime field
            return self.rank >= 2
        if self.eps == -1:
            if self.entries:
                raise EngineError("skew entries over the identity residue involution")
            return False
        if self.rank != 2:
            return self.rank >= 3
        # -c1*c2 is a square of F_p(sqrt(u)) iff its norm N(c1)*N(c2) is a
        # square mod p: x is a square iff N(x) is, and N(-1) = 1
        (a, b), (c, d) = self.entries
        n = (a * a - self.u * b * b) * (c * c - self.u * d * d)
        return legendre(n, self.p) > 0


@record
class LarmourResult:
    h1: ResidueForm
    h2: ResidueForm

    @property
    def isotropic(self) -> bool:
        return self.h1.is_isotropic() or self.h2.is_isotropic()


def _involution_kind(sigma, alg: LabAlgebra) -> str:
    i = basis_i(alg)
    moved = residue_elt(sigma(i) * i.inverse())
    return "conjugation" if moved == (alg.p - 1, 0) else "identity"


@lru_cache(maxsize=16)
def _parameter_data(sigma: Involution, pid: QuaternionElt):
    """What the decomposition needs from (sigma, pid) alone: pid's inverse,
    the twisted involution, pid's sign eps' under sigma, r = 2*w(pid)
    (which must be odd) and the residue involution kinds of sigma and of
    the twisted involution."""
    eps_prime = 1 if sigma(pid) == pid else -1
    r = _twice_value(pid)
    if r % 2 == 0:
        raise ValueError("the twisting element must have half-odd value")
    pid_inv = pid.inverse()

    def sigma_twisted(y):
        return pid * sigma(y) * pid_inv

    return (pid_inv, sigma_twisted, eps_prime, r,
            _involution_kind(sigma, pid.alg), _involution_kind(sigma_twisted, pid.alg))


def larmour_decompose(entries, sigma: Involution, pid: QuaternionElt,
                      eps: int = 1) -> LarmourResult:
    """Split a diagonal form into two residue forms along the parameter.

    Entries of integer value are rescaled by powers of the parameter into
    units and reduced under sigma; entries of half-odd value first shed
    one parameter factor and land in the twisted part, whose involution
    is conjugation by the parameter composed with sigma and whose sign
    picks up the parameter's sign.  Rescaling by sigma(x) * d * x never
    changes the form, so the verdict "isotropic iff one residue part is"
    can be compared against an independent reduction.  The data fixed by
    (sigma, pid) is computed once per pair and memoised; every entry is
    checked afresh.
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    alg = pid.alg
    pid_inv, sigma_twisted, eps_prime, r, kind1, kind2 = _parameter_data(sigma, pid)

    def rescaler(shift: int) -> QuaternionElt:
        """An element x with 2*w(x) = shift: p**k or pid * p**k."""
        if shift % 2 == 0:
            (x0, x1, x2, x3), den, k = (1, 0, 0, 0), 1, shift // 2
        else:
            (x0, x1, x2, x3), den, k = pid.nums, pid.den, (shift - r) // 2
        if k < 0:
            return _lattice(alg, x0, x1, x2, x3, den * alg.p ** -k)
        f = alg.p ** k
        return _lattice(alg, f * x0, f * x1, f * x2, f * x3, den)

    # (involution, sign, residue kind, residues) of the plain and twisted parts
    parts = ((sigma, eps, kind1, []), (sigma_twisted, eps * eps_prime, kind2, []))
    for d in entries:
        if d.is_zero:
            raise ValueError("zero diagonal entry")
        if sigma(d) != (d if eps == 1 else -d):
            raise ValueError("entry is not eps-symmetric under sigma")
        wd = _twice_value(d)
        twisted = wd % 2
        if twisted:
            d = d * pid_inv
            wd = _twice_value(d)
            if wd % 2:
                raise EngineError("parameter stripping left a half-odd value")
        inv, sign, _, residues = parts[twisted]
        x = rescaler(-wd // 2)
        unit = inv(x) * d * x
        if _twice_value(unit) != 0:
            raise EngineError("rescaling missed the unit range")
        if twisted and inv(unit) != (unit if sign == 1 else -unit):
            raise EngineError("twisted entry has the wrong symmetry")
        residues.append(residue_elt(unit))
    return LarmourResult(*(ResidueForm(alg.p, alg._a_residue, tuple(residues), kind, sign)
                           for _, sign, kind, residues in parts))


def jacobson_verdict(scalars, alg: LabAlgebra) -> bool:
    """Isotropy of a scalar-entry form over the canonical involution,
    through the norm-form tensor reduction and the symbolic decider."""
    k = alg.tower()
    # Square classes multiply, so the class of c*n is the XOR of their masks.
    masks = [class_of_rational(k, c).data for c in scalars]
    classes = tuple(SquareClass(k, m ^ n.data) for m in masks for n in alg.norm_classes)
    form = QuadForm(k, classes)
    verdict = qf_is_isotropic(form)
    oracle = qf_is_isotropic_oracle(form)
    if verdict != oracle:
        raise EngineError("the two quadratic deciders disagree")
    return verdict


LARMOUR_SWEEP_FORMS = 120


def larmour_mismatches(p: int) -> int:
    """On how many of LARMOUR_SWEEP_FORMS seeded scalar forms over
    standard_algebra(p) and gamma the decomposition's verdict (with the
    case-2 parameter from j) differs from the trace reduction's."""
    alg = standard_algebra(p)
    gamma = gamma_involution(alg)
    pid = choose_pid(alg, gamma, basis_j(alg)).pid
    rng = random.Random(97 * p + 11)
    mismatches = 0
    for _ in range(LARMOUR_SWEEP_FORMS):
        rank = rng.randint(1, 3)
        scalars = []
        while len(scalars) < rank:
            m = rng.randint(-20, 20)
            if m % p:  # m is a p-adic unit
                scalars.append(Fraction(m * p ** rng.randint(0, 2)))
        entries = [scalar(alg, c) for c in scalars]
        verdict = larmour_decompose(entries, gamma, pid).isotropic
        mismatches += verdict != jacobson_verdict(scalars, alg)
    return mismatches
