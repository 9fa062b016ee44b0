"""Symbolic field towers and their exact square-class calculus.

A tower is a finite base field (or an axiomatized global function field)
wrapped in zero or more complete discretely valued layers.  Each valued
layer doubles the square-class group into (unit class, uniformizer
parity), so over a finite base of height h the classes are the F_2-vector
space of (h+1)-bit masks: bit 0 is the base nonsquare u, bit i the parity
of the depth-i uniformizer (pi, t, s, s2, ... counted from the innermost
layer), and the product is XOR.  The canonical order of the group is the
integer order of the masks.  Over a global-function-field base the unit
part is a free symbolic group on named generators, kept as a set next to
the uniformizer bits; it multiplies but cannot be enumerated.

Quadratic extensions and their class-transport maps are the only way two
towers talk to each other.  A ramified extension reuses the same field
descriptor; only the transport map knows that the uniformizer changed.
"""

from __future__ import annotations

import re
import weakref
from collections import namedtuple

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

# parse_field recurses once per CDV layer of its text, so texts that nest
# more layers than this are refused before any recursion.  A descriptor
# reads its height, base, text and hash from the layer below once.
MAX_FIELD_HEIGHT = 64


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2; a size above the bound is refused
    before any division."""
    if n > MAX_FIELD_SIZE:
        raise ValueError(f"field size {n} is above the supported bound "
                         f"{MAX_FIELD_SIZE}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


def _odd_prime_power(q: int) -> bool:
    if q < 3:
        return False
    p = _least_prime_factor(q)
    while q % p == 0:
        q //= p
    return p != 2 and q == 1


_set = object.__setattr__
# (class, *arguments) -> live descriptor; a CDVField is keyed on id(residue).
_INTERNED = weakref.WeakValueDictionary()


class Frozen:
    """Base of the hand-written immutable values: assignment raises, and
    repr and pickling go through the constructor's arguments, which are the
    class's own public slots in order."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__ if n[0] != "_")

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({args})"


class _Record(tuple):
    """Base of the classes that `record` builds: values, not sequences, so
    tuple `+` and `*` are refused."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __setattr__ = __delattr__ = Frozen.__setattr__
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


def record(cls):
    """The immutable value record of cls's annotated fields, in order, a
    class attribute of a field's name giving its default: a namedtuple
    subclass with cls's methods, equal only to a record of its own class,
    hashed by value and repr'd as ``Name(field=value, ...)``.  A class
    whose constructor checks its arguments defines ``__new__`` and builds
    with ``tuple.__new__(cls, fields)``; ``__slots__ = ("__dict__",)`` keeps
    an instance dict, for cached properties."""
    attrs = vars(cls)
    names = tuple(cls.__annotations__)
    base = namedtuple(cls.__name__, names, defaults=[attrs[n] for n in names if n in attrs])
    ns = {k: v for k, v in attrs.items()
          if k not in names and k not in ("__dict__", "__weakref__")}
    if ns.pop("__slots__", ()) != ("__dict__",):
        ns["__slots__"] = ()
    return type(cls.__name__, (base, _Record), ns)


class FieldDesc(Frozen):
    """A tower descriptor: a FiniteField or GlobalFunctionField base under
    zero or more CDVField layers.  Each distinct tower is one live object,
    so equality is identity and copies are that object; so is each square
    class over it (see SquareClass).  Height, base, text, the mask of -1's
    class (``minus_one_bit``: 1, the nonsquare u, iff the finite base's
    order is 3 mod 4; None over a global-function-field base) and hash are
    computed once, when it is built; the hash is that of the constructor's
    arguments, ints at the base, whatever the hash seed.

    The table of a tower's classes and the classes' field slots make a
    cycle, so a released tower waits for the cycle collector.  A CDVField
    is therefore interned under id(residue), not the residue itself: a key
    holding its residue would keep each lower layer reachable until the
    layer above was collected, one collection per layer.  The id is safe,
    because the entry lives exactly as long as its CDVField, which holds
    the residue."""

    __slots__ = ("_hash", "height", "base", "text", "minus_one_bit", "_classes",
                 "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.text


def _intern(key: tuple, args: tuple, height: int, base, text: str,
            minus_one_bit) -> FieldDesc:
    """A new descriptor of class key[0] under key, its own slots set from
    args; base None is itself."""
    cls = key[0]
    k = object.__new__(cls)
    for name, value in (*zip(cls.__slots__, args), ("_hash", hash(args)), ("height", height),
                        ("base", k if base is None else base), ("text", text),
                        ("minus_one_bit", minus_one_bit), ("_classes", {})):
        _set(k, name, value)
    _INTERNED[key] = k
    return k


class FiniteField(FieldDesc):
    """The field with p**e elements, p an odd prime."""

    __slots__ = ("p", "e")

    def __new__(cls, p: int, e: int = 1):
        key = (cls, p, e)
        k = _INTERNED.get(key)
        if k is None:
            if p == 2 or not _is_prime(p):
                raise ValueError(f"finite base needs an odd prime, got {p}")
            if e < 1:
                raise ValueError(f"extension degree must be >= 1, got {e}")
            k = _intern(key, (p, e), 0, None, f"F{p}" if e == 1 else f"F{p}^{e}",
                        pow(p, e, 4) >> 1)
        return k


class GlobalFunctionField(FieldDesc):
    """Axiomatized global function field with odd constant field size q.

    It has no computable square-class group and no extension operator;
    it enters the calculus only through tabulated base values.
    """

    __slots__ = ("q",)

    def __new__(cls, q: int):
        key = (cls, q)
        k = _INTERNED.get(key)
        if k is None:
            if not _odd_prime_power(q):
                raise ValueError(f"constant field size must be an odd prime power, got {q}")
            k = _intern(key, (q,), 0, None, f"GFF({q})", None)
        return k


class CDVField(FieldDesc):
    """Complete discretely valued layer over a residue tower."""

    __slots__ = ("residue",)

    def __new__(cls, residue: FieldDesc):
        if not isinstance(residue, FieldDesc):
            raise ValueError("residue must be a field descriptor")
        key = (cls, id(residue))
        k = _INTERNED.get(key)
        if k is None:
            k = _intern(key, (residue,), residue.height + 1, residue.base,
                        f"CDV({residue.text})", residue.minus_one_bit)
        return k


def height(k: FieldDesc) -> int:
    """Number of valued layers above the base."""
    return k.height


def is_finite_based(k: FieldDesc) -> bool:
    return isinstance(k.base, FiniteField)


# Uniformizer display names by layer depth, counted from the bottom:
# the innermost valued layer is "pi", the next "t", then "s", "s2", ...
_UNIFORMIZER_NAMES = {1: "pi", 2: "t", 3: "s"}


def uniformizer_name(depth: int) -> str:
    if depth in _UNIFORMIZER_NAMES:
        return _UNIFORMIZER_NAMES[depth]
    return f"s{depth - 2}"


# Digits are ASCII 0-9 only: \d and int() would also read other Unicode digits.
_FINITE_RE = re.compile(r"^F([0-9]+)(?:\^([0-9]+))?$")
_GFF_RE = re.compile(r"^GFF\(([0-9]+)\)$")
_CDV_RE = re.compile(r"^CDV\((.+)\)$")
_QP_RE = re.compile(r"^Qp\[p=([0-9]+)\]$")
_QPT_RE = re.compile(r"^Qp\(\(t\)\)\[p=([0-9]+)\]$")


def _field_int(digits: str) -> int:
    """A size, prime or exponent of the field grammar, from ASCII digits."""
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"an integer of {len(digits)} digits in a field descriptor "
                         "is too long") from None


def parse_field(text: str) -> FieldDesc:
    """Parse the field grammar: F5, F5^2, GFF(9), CDV(...), Qp[p=5], Qp((t))[p=5]."""
    s = text.strip().replace(" ", "")
    if s.startswith("CDV(" * (MAX_FIELD_HEIGHT + 1)):
        raise ParseError(f"a field descriptor nests at most {MAX_FIELD_HEIGHT} CDV layers")
    try:
        m = _QP_RE.match(s)
        if m:
            return CDVField(FiniteField(_field_int(m.group(1))))
        m = _QPT_RE.match(s)
        if m:
            return CDVField(CDVField(FiniteField(_field_int(m.group(1)))))
        m = _FINITE_RE.match(s)
        if m:
            return FiniteField(_field_int(m.group(1)), _field_int(m.group(2) or "1"))
        m = _GFF_RE.match(s)
        if m:
            return GlobalFunctionField(_field_int(m.group(1)))
    except ValueError as exc:  # a size the field constructors refuse
        raise ParseError(str(exc)) from exc
    m = _CDV_RE.match(s)
    if m:
        return CDVField(parse_field(m.group(1)))
    raise ParseError(f"unrecognized field descriptor: {text!r}")


class SquareClass(Frozen):
    """Element of k*/k*^2 over a tower field, as a bit mask.

    Bit 0 of ``data`` is the fixed nonsquare unit ``u`` of a finite base,
    and bit i (1 <= i <= height) the parity of the depth-i uniformizer.
    Over a global-function-field base ``names`` holds the symbolic unit
    generators and bit 0 stays clear; over a finite base ``names`` is
    empty.  The product is XOR on both parts.

    Classes are interned like towers: the constructor returns the one live
    object for its value, from a table of the tower's classes filled on
    first use (at most 2**(h+1) over a finite base), so equality is
    identity and copies are that object.  The hash, that of
    (field, data, names), is computed once, when the class is built, and
    the text on the first `class_to_str`.
    """

    __slots__ = ("field", "data", "names", "_hash", "_text")

    def __new__(cls, field: FieldDesc, data: int, names: frozenset = frozenset()):
        key = (data, names) if names else data
        a = field._classes.get(key)
        if a is None:
            a = object.__new__(cls)
            _set(a, "field", field)
            _set(a, "data", data)
            _set(a, "names", names)
            _set(a, "_hash", hash((field, data, names)))
            _set(a, "_text", None)
            field._classes[key] = a
        return a

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_one(self) -> bool:
        return not self.data and not self.names

    def decompose(self):
        """Over a valued layer: (unit class of the residue, valuation parity)."""
        k = self.field
        if not isinstance(k, CDVField):
            raise UnsupportedFieldError("decompose needs a valued layer")
        h = k.height
        return SquareClass(k.residue, self.data & ~(1 << h), self.names), self.data >> h

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return sqcl_mul(self.field, self, other)

    def __str__(self) -> str:
        return class_to_str(self)


def one(k: FieldDesc) -> SquareClass:
    return SquareClass(k, 0)


def nonsquare_unit(k: FieldDesc) -> SquareClass:
    """The canonical nonsquare unit: the lifted nonsquare of the finite base."""
    if not is_finite_based(k):
        raise UnsupportedFieldError("no canonical nonsquare over a global function field")
    return SquareClass(k, 1)


def uniformizer(k: FieldDesc) -> SquareClass:
    if not isinstance(k, CDVField):
        raise UnsupportedFieldError("uniformizer class needs a valued layer")
    return SquareClass(k, 1 << k.height)


def lift(k: CDVField, residue_class: SquareClass) -> SquareClass:
    """Unit lift of a residue class into the valued layer."""
    if residue_class.field is not k.residue:
        raise FieldMismatchError("unit part must live over the residue field")
    return SquareClass(k, residue_class.data, residue_class.names)


def sqcl_mul(k: FieldDesc, a: SquareClass, b: SquareClass) -> SquareClass:
    if a.field is not k or b.field is not k:
        raise FieldMismatchError(f"class product over {k} got classes over "
                                 f"{a.field} and {b.field}")
    return SquareClass(k, a.data ^ b.data, a.names ^ b.names)


def sqcl_group(k: FieldDesc) -> list:
    """All square classes in canonical order, the integer order of their
    masks: identity first, then by (valuation parity, unit class)."""
    if not is_finite_based(k):
        raise UnsupportedFieldError("square classes over a global function field "
                                    "are symbolic and cannot be enumerated")
    return [SquareClass(k, m) for m in range(2 << k.height)]


def minus_one(k: FieldDesc) -> SquareClass:
    """The square class of -1, a unit of the base."""
    base = k.base
    if isinstance(base, GlobalFunctionField):
        return SquareClass(k, 0, frozenset() if base.q % 4 == 1 else frozenset({"-1"}))
    return SquareClass(k, k.minus_one_bit)


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) by Euler's criterion, p an odd prime not dividing a."""
    a %= p
    if a == 0:
        raise ValueError("legendre symbol of a multiple of p")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime; callers check
    the prime against the field bound first and memoise per prime."""
    for n in range(2, p):
        if legendre(n, p) < 0:
            return n
    raise EngineError(f"no nonresidue found mod {p}")  # pragma: no cover


def split_valuation(x, p: int):
    """(v, num, den) with x = p**v * num/den and p dividing neither num nor
    den; x must be a nonzero rational (int or Fraction)."""
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


def valuation_unit(x, p: int):
    """(v, unit mod p) with x = p**v * unit, x a nonzero int or Fraction."""
    v, num, den = split_valuation(x, p)
    return v, num * pow(den, p - 2, p) % p


def class_of_rational(k: FieldDesc, x) -> SquareClass:
    """Square class of a nonzero int or Fraction inside a tower over F_p.

    Rationals sit inside every valued layer as units with respect to the
    outer uniformizers; only the innermost layer sees the p-valuation.
    """
    if x == 0:
        raise ValueError("zero has no square class")
    base = k.base
    if isinstance(base, GlobalFunctionField):
        raise UnsupportedFieldError("rational classes need a finite-based tower")
    if base.e != 1:
        raise UnsupportedFieldError("rational classes need a prime base field")
    p = base.p
    v, r = valuation_unit(x, p)
    if v and not isinstance(k, CDVField):
        raise ValueError(f"{x} is not a unit mod {p}")
    return SquareClass(k, (legendre(r, p) < 0) | (v & 1) << 1)


# ---------------------------------------------------------------------------
# serialization

def class_to_str(a: SquareClass) -> str:
    """Generators innermost first: symbolic names sorted, then u, pi, t, ...
    Built on a class's first call and kept: a class is one object per value."""
    text = a._text
    if text is None:
        gens = sorted(a.names) + [uniformizer_name(d) if d else "u"
                                  for d in range(a.data.bit_length()) if a.data >> d & 1]
        text = "*".join(gens) if gens else "1"
        _set(a, "_text", text)
    return text


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
    for depth in range(1, k.height + 1):
        if token == uniformizer_name(depth):
            return SquareClass(k, 1 << depth)
    finite = is_finite_based(k)
    if token == "u" and finite:
        return SquareClass(k, 1)
    if re.fullmatch(r"-?[0-9]+", token):
        try:
            n = int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"an integer generator of {len(token)} digits is too long") from None
        try:
            return class_of_rational(k, n)
        except ValueError as exc:  # zero, or a multiple of p over F_p
            raise ParseError(str(exc)) from None
    if not finite and re.fullmatch(r"[A-Za-z]\w*", token):
        return SquareClass(k, 0, frozenset({token}))
    raise ParseError(f"unknown square-class generator {token!r} over {k}")


# ---------------------------------------------------------------------------
# quadratic extensions and transport maps

@record
class TransitionMap:
    """Group homomorphism from the square classes of source to those of
    target, for the extension source(sqrt(lam)).

    With d the top bit of ``lam.data``, the extension is unramified above
    depth d and ramified at depth d; for d = 0 it extends the finite base.
    A class with bit d clear keeps its mask, and one with bit d set is
    multiplied by lam, because the old depth-d uniformizer becomes lam's
    unit part times a square (for d = 0: u becomes a square).  So lam
    itself maps to 1.
    """

    source: FieldDesc
    target: FieldDesc
    lam: SquareClass


def transport(m: TransitionMap, a: SquareClass) -> SquareClass:
    if a.field is not m.source:
        raise FieldMismatchError("class does not live over the map's source field")
    lam = m.lam
    if a.data >> (lam.data.bit_length() - 1) & 1:
        return SquareClass(m.target, a.data ^ lam.data, a.names ^ lam.names)
    return SquareClass(m.target, a.data, a.names)


def check_extension_class(k: FieldDesc, lam: SquareClass) -> None:
    """Refuse lam unless it names a quadratic extension of k: a class over
    k other than 1."""
    if lam.field is not k:
        raise FieldMismatchError("extension class over the wrong field")
    if lam.is_one:
        raise InvalidExtensionError("the trivial class defines no quadratic extension")


def quadratic_extension(k: FieldDesc, lam: SquareClass) -> TransitionMap:
    """The class-transport map of the extension k(sqrt(lam)); its target
    is the extended field.

    Over a finite base the result is the quadratic field extension and
    every class becomes a square.  Over a valued layer a unit class
    extends the residue field (parity preserved), while an odd-parity
    class keeps the residue and replaces the uniformizer; so the target
    is k itself unless lam is the base nonsquare u, which extends the
    base to F_{p^2e} under the same valued layers.
    """
    check_extension_class(k, lam)
    if not lam.data:
        raise UnsupportedFieldError("no symbolic extension operator over a global function field")
    target = k
    if lam.data == 1:
        base = k.base
        target = FiniteField(base.p, 2 * base.e)
        for _ in range(k.height):
            target = CDVField(target)
    return TransitionMap(k, target, lam)
