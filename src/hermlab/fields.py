"""Symbolic field towers and their exact square-class calculus.

A tower is a finite base field (or an axiomatized global function field)
wrapped in zero or more complete discretely valued layers.  Square classes
are carried exactly and recursively: two classes over an odd finite base,
doubling with every valued layer.  Over a global-function-field base the
class group is a free symbolic group on named generators; it multiplies
but cannot be enumerated.

Quadratic extensions and their class-transport maps are the only way two
towers talk to each other.  A ramified extension reuses the same field
descriptor; only the transport map knows that the uniformizer changed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    EngineError,
    FieldMismatchError,
    InvalidExtensionError,
    ParseError,
    UnsupportedFieldError,
)


# Primality is decided by trial division, about sqrt(n) steps.  Sizes above
# this bound (a fraction of a second of division) are refused, not tested.
MAX_FIELD_SIZE = 10 ** 12


def _check_size(n: int) -> None:
    if n > MAX_FIELD_SIZE:
        raise ValueError(f"field size {n} is above the supported bound "
                         f"{MAX_FIELD_SIZE}")


def _is_prime(n: int) -> bool:
    _check_size(n)
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _odd_prime_power(q: int) -> bool:
    _check_size(q)
    if q < 3 or q % 2 == 0:
        return False
    p = 3
    while p * p <= q:
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return m == 1
        p += 2
    return True  # q itself is prime


@dataclass(frozen=True)
class FiniteField:
    """The field with p**e elements, p an odd prime."""

    p: int
    e: int = 1

    def __post_init__(self):
        if self.p == 2 or not _is_prime(self.p):
            raise ValueError(f"finite base needs an odd prime, got {self.p}")
        if self.e < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.e}")

    @property
    def order(self) -> int:
        return self.p ** self.e

    def __str__(self) -> str:
        return field_to_str(self)


@dataclass(frozen=True)
class GlobalFunctionField:
    """Axiomatized global function field with odd constant field size q.

    It has no computable square-class group and no extension operator;
    it enters the calculus only through tabulated base values.
    """

    q: int

    def __post_init__(self):
        if not _odd_prime_power(self.q):
            raise ValueError(f"constant field size must be an odd prime power, got {self.q}")

    def __str__(self) -> str:
        return field_to_str(self)


@dataclass(frozen=True)
class CDVField:
    """Complete discretely valued layer over a residue tower."""

    residue: "FieldDesc"

    def __post_init__(self):
        if not isinstance(self.residue, (FiniteField, GlobalFunctionField, CDVField)):
            raise ValueError("residue must be a field descriptor")

    def __str__(self) -> str:
        return field_to_str(self)


FieldDesc = Union[FiniteField, GlobalFunctionField, CDVField]


def height(k: FieldDesc) -> int:
    """Number of valued layers above the base."""
    h = 0
    while isinstance(k, CDVField):
        h += 1
        k = k.residue
    return h


def base_field(k: FieldDesc) -> FieldDesc:
    while isinstance(k, CDVField):
        k = k.residue
    return k


def is_finite_based(k: FieldDesc) -> bool:
    return isinstance(base_field(k), FiniteField)


# Uniformizer display names by layer depth, counted from the bottom:
# the innermost valued layer is "pi", the next "t", then "s", "s2", ...
_UNIFORMIZER_NAMES = {1: "pi", 2: "t", 3: "s"}


def uniformizer_name(depth: int) -> str:
    if depth in _UNIFORMIZER_NAMES:
        return _UNIFORMIZER_NAMES[depth]
    return f"s{depth - 2}"


def field_to_str(k: FieldDesc) -> str:
    if isinstance(k, FiniteField):
        return f"F{k.p}" if k.e == 1 else f"F{k.p}^{k.e}"
    if isinstance(k, GlobalFunctionField):
        return f"GFF({k.q})"
    return f"CDV({field_to_str(k.residue)})"


_FINITE_RE = re.compile(r"^F(\d+)(?:\^(\d+))?$")
_GFF_RE = re.compile(r"^GFF\((\d+)\)$")
_CDV_RE = re.compile(r"^CDV\((.+)\)$")
_QP_RE = re.compile(r"^Qp\[p=(\d+)\]$")
_QPT_RE = re.compile(r"^Qp\(\(t\)\)\[p=(\d+)\]$")


def parse_field(text: str) -> FieldDesc:
    """Parse the field grammar: F5, F5^2, GFF(9), CDV(...), Qp[p=5], Qp((t))[p=5]."""
    s = text.strip().replace(" ", "")
    m = _QP_RE.match(s)
    if m:
        return CDVField(FiniteField(int(m.group(1))))
    m = _QPT_RE.match(s)
    if m:
        return CDVField(CDVField(FiniteField(int(m.group(1)))))
    m = _FINITE_RE.match(s)
    if m:
        try:
            return FiniteField(int(m.group(1)), int(m.group(2) or 1))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    m = _GFF_RE.match(s)
    if m:
        try:
            return GlobalFunctionField(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    m = _CDV_RE.match(s)
    if m:
        return CDVField(parse_field(m.group(1)))
    raise ParseError(f"unrecognized field descriptor: {text!r}")


@dataclass(frozen=True)
class SquareClass:
    """Canonical element of k*/k*^2 over a tower field.

    Payload by base: an int bit over a finite field (0 = squares,
    1 = the fixed nonsquare), a frozenset of generator names over a
    global function field, and a (unit class, valuation parity) pair
    over a valued layer.
    """

    field: FieldDesc
    data: object

    @property
    def is_one(self) -> bool:
        if isinstance(self.field, FiniteField):
            return self.data == 0
        if isinstance(self.field, GlobalFunctionField):
            return not self.data
        unit, vpar = self.data
        return vpar == 0 and unit.is_one

    def decompose(self):
        """Over a valued layer: (unit class of the residue, valuation parity)."""
        if not isinstance(self.field, CDVField):
            raise UnsupportedFieldError("decompose needs a valued layer")
        return self.data

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return sqcl_mul(self.field, self, other)

    def __str__(self) -> str:
        return class_to_str(self)


def one(k: FieldDesc) -> SquareClass:
    if isinstance(k, FiniteField):
        return SquareClass(k, 0)
    if isinstance(k, GlobalFunctionField):
        return SquareClass(k, frozenset())
    return SquareClass(k, (one(k.residue), 0))


def nonsquare_unit(k: FieldDesc) -> SquareClass:
    """The canonical nonsquare unit: the lifted nonsquare of the finite base."""
    if isinstance(k, FiniteField):
        return SquareClass(k, 1)
    if isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("no canonical nonsquare over a global function field")
    return SquareClass(k, (nonsquare_unit(k.residue), 0))


def uniformizer(k: FieldDesc) -> SquareClass:
    if not isinstance(k, CDVField):
        raise UnsupportedFieldError("uniformizer class needs a valued layer")
    return SquareClass(k, (one(k.residue), 1))


def from_parts(k: CDVField, unit: SquareClass, vpar: int) -> SquareClass:
    if unit.field != k.residue:
        raise FieldMismatchError("unit part must live over the residue field")
    return SquareClass(k, (unit, vpar & 1))


def lift(k: CDVField, residue_class: SquareClass) -> SquareClass:
    """Unit lift of a residue class into the valued layer."""
    return from_parts(k, residue_class, 0)


def symbolic(k: GlobalFunctionField, *names: str) -> SquareClass:
    if not isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("symbolic classes exist only over a global function field")
    return SquareClass(k, frozenset(names))


def sqcl_mul(k: FieldDesc, a: SquareClass, b: SquareClass) -> SquareClass:
    if a.field != k or b.field != k:
        raise FieldMismatchError(f"class product over {field_to_str(k)} got classes over "
                                 f"{field_to_str(a.field)} and {field_to_str(b.field)}")
    if isinstance(k, FiniteField):
        return SquareClass(k, a.data ^ b.data)
    if isinstance(k, GlobalFunctionField):
        return SquareClass(k, a.data ^ b.data)  # symmetric difference
    (ua, va), (ub, vb) = a.data, b.data
    return SquareClass(k, (sqcl_mul(k.residue, ua, ub), va ^ vb))


def sqcl_group(k: FieldDesc) -> list:
    """All square classes in canonical order: identity first, then by
    (valuation parity, unit class) recursively."""
    if isinstance(k, FiniteField):
        return [SquareClass(k, 0), SquareClass(k, 1)]
    if isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("square classes over a global function field "
                                    "are symbolic and cannot be enumerated")
    inner = sqcl_group(k.residue)
    return [SquareClass(k, (u, vp)) for vp in (0, 1) for u in inner]


def minus_one(k: FieldDesc) -> SquareClass:
    """The square class of -1."""
    if isinstance(k, FiniteField):
        return SquareClass(k, 0 if k.order % 4 == 1 else 1)
    if isinstance(k, GlobalFunctionField):
        return SquareClass(k, frozenset() if k.q % 4 == 1 else frozenset({"-1"}))
    return SquareClass(k, (minus_one(k.residue), 0))


def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise EngineError(f"no nonresidue found mod {p}")  # pragma: no cover


def split_valuation(x: Fraction, p: int):
    """(v, num, den) with x = p**v * num/den and p dividing neither num nor
    den; x must be nonzero."""
    if x == 0:
        raise ValueError("zero has no valuation")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def class_of_rational(k: FieldDesc, x) -> SquareClass:
    """Square class of a nonzero rational inside a tower whose base is F_p.

    Rationals sit inside every valued layer as units with respect to the
    outer uniformizers; only the innermost layer sees the p-valuation.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    if isinstance(k, FiniteField):
        if k.e != 1:
            raise UnsupportedFieldError("rational classes need a prime base field")
        num = x.numerator % k.p
        den = x.denominator % k.p
        if num == 0 or den == 0:
            raise ValueError(f"{x} is not a unit mod {k.p}")
        r = num * pow(den, k.p - 2, k.p) % k.p
        return SquareClass(k, 0 if pow(r, (k.p - 1) // 2, k.p) == 1 else 1)
    if isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("rational classes need a finite-based tower")
    if isinstance(k.residue, FiniteField):
        v, num, den = split_valuation(x, k.residue.p)
        unit = class_of_rational(k.residue, Fraction(num, den))
        return SquareClass(k, (unit, v & 1))
    return SquareClass(k, (class_of_rational(k.residue, x), 0))


# ---------------------------------------------------------------------------
# serialization

def class_to_str(a: SquareClass) -> str:
    gens = _generator_names(a)
    return "*".join(gens) if gens else "1"


def _generator_names(a: SquareClass, depth_offset: int = 0) -> list:
    k = a.field
    if isinstance(k, FiniteField):
        return ["u"] if a.data else []
    if isinstance(k, GlobalFunctionField):
        return sorted(a.data)
    unit, vpar = a.data
    names = _generator_names(unit)
    if vpar:
        names.append(uniformizer_name(height(k)))
    return names


_NAME_ALIASES = {"p": "pi", "nu": "u"}


def parse_class(k: FieldDesc, text: str) -> SquareClass:
    """Parse a class written as a product of generators, e.g. "u*pi", "t", "1"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty square-class descriptor")
    result = one(k)
    for token in s.split("*"):
        if token in ("1", "+1"):
            continue
        result = result * _parse_generator(k, token)
    return result


def _parse_generator(k: FieldDesc, token: str) -> SquareClass:
    token = _NAME_ALIASES.get(token, token)
    if token == "-1":
        return minus_one(k)
    # uniformizer of some layer?
    h = height(k)
    for depth in range(1, h + 1):
        if token == uniformizer_name(depth):
            return _lift_layer_uniformizer(k, depth)
    if token == "u":
        if is_finite_based(k):
            return nonsquare_unit(k)
        return _lift_symbol(k, "u")
    if re.fullmatch(r"-?\d+", token):
        return class_of_rational(k, int(token))
    if not is_finite_based(k) and re.fullmatch(r"[A-Za-z]\w*", token):
        return _lift_symbol(k, token)
    raise ParseError(f"unknown square-class generator {token!r} over {field_to_str(k)}")


def _lift_layer_uniformizer(k: FieldDesc, depth: int) -> SquareClass:
    if not isinstance(k, CDVField):
        raise ParseError("uniformizer generator outside a valued tower")
    if height(k) == depth:
        return uniformizer(k)
    return lift(k, _lift_layer_uniformizer(k.residue, depth))


def _lift_symbol(k: FieldDesc, name: str) -> SquareClass:
    if isinstance(k, GlobalFunctionField):
        return symbolic(k, name)
    if isinstance(k, CDVField):
        return lift(k, _lift_symbol(k.residue, name))
    raise ParseError(f"symbolic generator {name!r} needs a global-function-field base")


# ---------------------------------------------------------------------------
# quadratic extensions and transport maps

@dataclass(frozen=True)
class TransitionMap:
    """Group homomorphism between square-class groups of two towers.

    Kinds: "finite-ext" (everything dies), "unramified"
    (payload: residue-level map, parity preserved) and "ramified"
    (payload: the unit part of the extension class; parities fold into
    the unit part because the old uniformizer becomes a square times
    that unit)."""

    source: FieldDesc
    target: FieldDesc
    kind: str
    payload: object = None


def transport(m: TransitionMap, a: SquareClass) -> SquareClass:
    if a.field != m.source:
        raise FieldMismatchError("class does not live over the map's source field")
    if m.kind == "finite-ext":
        return one(m.target)
    if m.kind == "unramified":
        unit, vpar = a.data
        return SquareClass(m.target, (transport(m.payload, unit), vpar))
    if m.kind == "ramified":
        unit, vpar = a.data
        s: SquareClass = m.payload
        new_unit = unit * s if vpar else unit
        return SquareClass(m.target, (new_unit, 0))
    raise EngineError(f"unknown transition kind {m.kind!r}")  # pragma: no cover


def quadratic_extension(k: FieldDesc, lam: SquareClass):
    """Extension k(sqrt(lam)) together with the class-transport map.

    Over a finite base the result is the quadratic field extension and
    every class becomes a square.  Over a valued layer a unit class
    extends the residue field (parity preserved), while an odd-parity
    class keeps the residue and replaces the uniformizer.
    """
    if lam.field != k:
        raise FieldMismatchError("extension class must live over the field")
    if lam.is_one:
        raise InvalidExtensionError("the trivial class defines no quadratic extension")
    if isinstance(k, FiniteField):
        target = FiniteField(k.p, 2 * k.e)
        return target, TransitionMap(k, target, "finite-ext")
    if isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("no symbolic extension operator over a global function field")
    unit, vpar = lam.data
    if vpar == 0:
        res_target, res_map = quadratic_extension(k.residue, unit)
        target = CDVField(res_target)
        return target, TransitionMap(k, target, "unramified", res_map)
    # ramified: same residue, new uniformizer tau with tau^2 = unit * pi
    return k, TransitionMap(k, k, "ramified", unit)
