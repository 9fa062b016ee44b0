"""Period-two Brauer classes as lists of quaternion symbols.

Over a finite-based tower of height h, with e_0 = u and e_i the depth-i
uniformizer, the symbols (e_i, e_j), i < j, are a basis of the Brauer
two-torsion (Witt 1937; Tignol-Wadsworth, Value Functions on Simple
Algebras, 2015).  A class's key is its coordinates in that basis: the
class is trivial iff the key is zero, and its single-symbol representative
is looked up by key.  The residue character and residue class over a
valued layer, which the unitary cases read, come from `bc_ramification`.

Division testing covers classes with at most two symbols.  Symbol lists
are representations, not canonical forms, and every predicate here is
representation-independent.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import (
    EngineError,
    FieldMismatchError,
    NotDivisionError,
    ParseError,
    UnsupportedClassError,
    UnsupportedFieldError,
)
from .fields import (
    CDVField,
    FieldDesc,
    Frozen,
    SquareClass,
    TransitionMap,
    check_extension_class,
    class_to_str,
    is_finite_based,
    minus_one,
    parse_class,
    quadratic_extension,
    record,
    transport,
)
from .quadform import albert_form, norm_form, qf_is_isotropic


class BrauerClass(Frozen):
    """The sum of symbols, pairs (a, b) of square classes over field (none:
    the trivial class).  The walk memo keys on it, so it hashes once, and
    derivation labels print it, so it builds its text once."""

    __slots__ = ("field", "symbols", "_hash", "_effective", "_text")

    def __init__(self, field: FieldDesc, symbols):
        # stored as tuples, so that a class built from lists still hashes
        symbols = tuple((a, b) for a, b in symbols)
        for a, b in symbols:
            if a.field is not field or b.field is not field:
                raise FieldMismatchError("symbol slot over the wrong field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_effective", None)
        object.__setattr__(self, "_text", None)

    def __eq__(self, other):
        if other.__class__ is not BrauerClass:
            return NotImplemented
        return self.field is other.field and self.symbols == other.symbols

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.field, self.symbols)))
        return self._hash

    @property
    def effective_symbols(self) -> tuple:
        """Symbols with both slots nontrivial; the rest are split.  Built on
        first read, like the hash: most classes are never read."""
        if self._effective is None:
            object.__setattr__(self, "_effective", tuple(
                (a, b) for a, b in self.symbols if not a.is_one and not b.is_one))
        return self._effective

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", ";".join(
                f"({class_to_str(a)},{class_to_str(b)})" for a, b in self.symbols) or "1")
        return self._text


def trivial_class(k: FieldDesc) -> BrauerClass:
    return BrauerClass(k, ())


def parse_symbols(text: str, slot) -> list:
    """The symbol-list grammar "(a,b);(c,d)", each slot read by slot; a
    malformed list is a ParseError."""
    symbols = []
    for part in text.strip().replace(" ", "").split(";"):
        if not (part.startswith("(") and part.endswith(")")):
            raise ParseError(f"malformed symbol {part!r}")
        slots = part[1:-1].split(",")
        if len(slots) != 2:
            raise ParseError(f"a symbol has two slots: {part!r}")
        symbols.append((slot(slots[0]), slot(slots[1])))
    return symbols


def parse_brauer(k: FieldDesc, text: str) -> BrauerClass:
    """A Brauer class as a symbol list "(u,pi);(v,t)". "1" is the trivial class."""
    if text.strip() in ("", "1"):
        return trivial_class(k)
    return BrauerClass(k, parse_symbols(text, lambda x: parse_class(k, x)))


@record
class RamificationData:
    character: SquareClass       # residue class; trivial = unramified
    residue_class: BrauerClass   # unramified part, over the residue field


def bc_ramification(B: BrauerClass) -> RamificationData:
    """Split a class over a valued layer into residue symbols and character,
    on masks: a slot's unit part is its mask below the top bit, its
    valuation parity the top bit."""
    k = B.field
    if not isinstance(k, CDVField):
        raise UnsupportedFieldError("ramification data needs a valued layer")
    res, h = k.residue, k.height
    unit = (1 << h) - 1
    m1 = minus_one(res)
    character, names = 0, frozenset()
    residue_symbols = []
    for a, b in B.symbols:
        s, t = a.data & unit, b.data & unit
        i, j = a.data >> h, b.data >> h
        if j:
            character ^= s
            names ^= a.names
        if i:
            character ^= t
            names ^= b.names
        if i and j:
            character ^= m1.data
            names ^= m1.names
        if (s or a.names) and (t or b.names):
            residue_symbols.append((SquareClass(res, s, a.names), SquareClass(res, t, b.names)))
    return RamificationData(SquareClass(res, character, names),
                            BrauerClass(res, tuple(residue_symbols)))


def _symbol_key(a: int, b: int, h: int, m1: int) -> int:
    """Key of the symbol of two class masks over a tower of height h: bit
    i*(h+1) + j, for i < j, is the coordinate of (e_i, e_j)."""
    key = a & b & ~1 if m1 else 0  # (e_i, e_i) = (e_i, -1) = (e_0, e_i)
    for i in range(h):
        row = (b if a >> i & 1 else 0) ^ (a if b >> i & 1 else 0)
        key ^= (row & -(2 << i)) << (i * (h + 1))
    return key


def bc_key(B: BrauerClass) -> int:
    """A class's coordinates in the symbol basis: its symbols' keys XORed."""
    k = B.field
    if not is_finite_based(k):
        raise UnsupportedFieldError("Brauer keys need a finite-based tower")
    h, m1 = k.height, k.minus_one_bit
    key = 0
    for a, b in B.symbols:
        key ^= _symbol_key(a.data, b.data, h, m1)
    return key


def bc_is_trivial(B: BrauerClass) -> bool:
    """Trivial iff the key is zero; over a GFF base, iff no symbol is effective."""
    if not is_finite_based(B.field):
        if B.effective_symbols:
            raise UnsupportedFieldError("triviality over a global-function-field "
                                        "base is not computable")
        return True
    return not bc_key(B)


class DivisionKind(str, Enum):
    SPLIT = "split"
    QUATERNION = "quaternion"
    BIQUATERNION = "biquaternion"


def bc_supported_symbols(B: BrauerClass) -> tuple:
    """B's effective symbols, of which division testing covers at most two."""
    syms = B.effective_symbols
    if len(syms) > 2:
        raise UnsupportedClassError(f"{len(syms)} symbols; only classes with at "
                                    "most two are supported")
    return syms


def _index_form(syms):
    """The form whose isotropy decides the index of the sum of syms: the
    norm form of one symbol, the Albert form of two, none otherwise."""
    return (norm_form(*syms[0]) if len(syms) == 1 else
            albert_form(*syms) if len(syms) == 2 else None)


def bc_is_division(B: BrauerClass) -> DivisionKind:
    """Index of a class with at most two symbols, by its index form."""
    if not is_finite_based(B.field):
        raise UnsupportedFieldError("division testing needs a finite-based tower; "
                                    "supply an assertion instead")
    syms = bc_supported_symbols(B)
    if syms and not qf_is_isotropic(_index_form(syms)):
        return DivisionKind.QUATERNION if len(syms) == 1 else DivisionKind.BIQUATERNION
    return DivisionKind.SPLIT if len(syms) < 2 or bc_is_trivial(B) else DivisionKind.QUATERNION


# Most square classes of a tower whose single-symbol table is built.  The
# table enumerates every pair of classes, (2**(h+1))**2 of them: 262,144 at
# height 8 (512 classes), four times as many per further layer.
MAX_TABLE_CLASSES = 512


@lru_cache(maxsize=16)
def _single_symbol_table(h: int, m1: int) -> dict:
    """Key -> the first mask pair with that key, a outer and b inner, over
    every tower of height h whose -1 has mask m1."""
    n = 2 << h
    if n > MAX_TABLE_CLASSES:
        raise ValueError(f"single-symbol representatives cover towers of at most "
                         f"{MAX_TABLE_CLASSES} square classes; a height-{h} tower has {n}")
    # _symbol_key is bilinear, so each row a is filled from the keys of a
    # with the h+1 single bits b = 1 << j, in the order of b
    table = {}
    for a in range(n):
        row = [0]
        for j in range(h + 1):
            col = _symbol_key(a, 1 << j, h, m1)
            row += [key ^ col for key in row]
        for b, key in enumerate(row):
            table.setdefault(key, (a, b))
    return table


def bc_single_symbol_rep(B: BrauerClass):
    """The first symbol (a, b) with B's key, so that B + (a, b) is trivial,
    for B of index at most two over a valued layer.  Derivations and
    witnesses print it, so that choice is part of the contract."""
    k = B.field
    if not isinstance(k, CDVField):
        raise UnsupportedFieldError("single-symbol representatives need a valued layer")
    key = bc_key(B)
    pair = _single_symbol_table(k.height, k.minus_one_bit).get(key)
    if pair is None:
        raise UnsupportedClassError("single-symbol representatives exist for "
                                    "classes of index at most two only")
    return SquareClass(k, pair[0]), SquareClass(k, pair[1])


def morita_reduce(B: BrauerClass):
    """(index, class) of the division algebra behind B; every matrix algebra
    over it has its u-invariants.  The class has no symbol when B splits,
    one for quaternion index, and B's two effective symbols otherwise; it is
    B itself when those are B's own symbols."""
    kind = bc_is_division(B)
    syms = B.effective_symbols
    if kind is DivisionKind.SPLIT:
        syms = ()
    elif kind is DivisionKind.QUATERNION and len(syms) != 1:
        syms = (bc_single_symbol_rep(B),)
    if syms == B.symbols:
        return kind, B
    return kind, BrauerClass(B.field, syms)


def bc_base_change(B: BrauerClass, m: TransitionMap) -> BrauerClass:
    if m.source is not B.field:
        raise FieldMismatchError("class does not live over the map's source")
    return BrauerClass(m.target,
                       tuple((transport(m, a), transport(m, b))
                             for a, b in B.symbols))


# ---------------------------------------------------------------------------
# the three unitary ramification cases

class UnitaryCase(Enum):
    CASE1 = 1  # extension and extended algebra both unramified
    CASE2 = 2  # extended algebra ramified
    CASE3 = 3  # extension ramified

    def __str__(self) -> str:
        return f"Case{self.value}"


@record
class UnitaryCaseResult:
    """The case, B's character over the base, the unramified residue class
    the case recurses on, the unit part of the extension class, and whether
    B split over the extension and was reduced to its center.  In cases 1
    and 2 that residue class is B's own; in case 3 it is the residue class
    of B over the ramified extension."""

    case: UnitaryCase
    character: SquareClass
    residue_unramified: BrauerClass
    lam_residue: SquareClass
    reduced: bool


def classify_unitary_case(B: BrauerClass, lam: SquareClass, index: DivisionKind,
                          morita: bool) -> UnitaryCaseResult:
    """Sort the unitary setup over a valued layer into its three cases,
    given B's own index.

    Over a finite-based tower, B must stay division over k(sqrt(lam)); with
    morita set, a class that splits there may also reduce to its center,
    and is then classified as the trivial class.  Any other change of index
    raises `NotDivisionError` with its witness, the isotropic index form of
    B's effective symbols over the extension.  A split class needs no test:
    the extension itself is the algebra.  Case 3 reads its residue class
    from the same base change; a ramified extension reuses the residue
    field, so that base change is computable even when the residue classes
    are symbolic.  A ramified extension never leaves a ramified algebra behind:
    that combination is checked to be absent rather than assumed.
    """
    k = B.field
    if not isinstance(k, CDVField):
        raise UnsupportedFieldError("case classification needs a valued layer")
    check_extension_class(k, lam)
    B_K, reduced = None, False
    if index is not DivisionKind.SPLIT and is_finite_based(k):
        m = quadratic_extension(k, lam)
        B_K = bc_base_change(B, m)
        after = bc_is_division(B_K)
        if after is not index:
            if not (morita and after is DivisionKind.SPLIT):
                witness = _index_form(tuple((transport(m, a), transport(m, b))
                                            for a, b in B.effective_symbols))
                raise NotDivisionError(
                    f"the algebra does not stay division over the extension "
                    f"({index.value} became {after.value})", witness)
            # B_K is read only in case 3, whose extension keeps k
            B = B_K = trivial_class(k)
            reduced = True

    ram = bc_ramification(B)
    lam_unit, lam_vpar = lam.decompose()
    if lam_vpar:
        if B_K is None:
            B_K = bc_base_change(B, quadratic_extension(k, lam))
        ext_ram = bc_ramification(B_K)
        if not ext_ram.character.is_one:
            raise EngineError("a ramified extension left the algebra ramified")
        return UnitaryCaseResult(UnitaryCase.CASE3, ram.character,
                                 ext_ram.residue_class, lam_unit, reduced)
    extended_ramified = not (ram.character.is_one or ram.character == lam_unit)
    case = UnitaryCase.CASE2 if extended_ramified else UnitaryCase.CASE1
    return UnitaryCaseResult(case, ram.character, ram.residue_class, lam_unit, reduced)
