"""Diagonal quadratic forms over tower fields.

Isotropy is one pass over the entry masks: Springer's split, applied at
every layer at once, ends in leaves (the entries sharing ``mask >> 1``),
and a form is isotropic exactly when one of its leaves is.  The residue
recursion that this flattens logs the `isotropy quad` path.  Over the
height-one tower a second, fully independent decider checks the same
question from integer lifts, one per class, through classical
dimension / discriminant / Hasse-symbol criteria, so the two paths can be
compared form by form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter

from .errors import EngineError, FieldMismatchError, UnsupportedFieldError
from .fields import (
    CDVField,
    FieldDesc,
    FiniteField,
    SquareClass,
    class_to_str,
    is_finite_based,
    legendre,
    minus_one,
    one,
    record,
    smallest_nonresidue,
    sqcl_group,
    sqcl_mul,
    valuation_unit,
)


@record
class QuadForm:
    """Diagonal form with square-class entries; entries are never zero."""

    field: FieldDesc
    entries: tuple

    def __new__(cls, field: FieldDesc, entries: tuple):
        for a in entries:
            if a.field is not field:
                raise FieldMismatchError("form entry over the wrong field")
        return tuple.__new__(cls, (field, entries))

    def __str__(self) -> str:
        return "<" + ",".join(class_to_str(a) for a in self.entries) + ">"


def _form_str(k: FieldDesc, masks: tuple) -> str:
    return str(QuadForm(k, tuple(SquareClass(k, m) for m in masks)))


def _minus_one_bit(k: FieldDesc) -> int:
    """The mask of -1's class over a finite-based tower k."""
    m1 = k.minus_one_bit
    if m1 is None:
        raise UnsupportedFieldError("isotropy is undecidable over a "
                                    "global-function-field base")
    return m1


def _masks_isotropic(masks, m1: int) -> bool:
    """The leaf test on entry masks, with m1 the mask of -1: isotropic iff
    some leaf (the entries sharing ``mask >> 1``) has three or more
    entries, or two whose masks XOR to m1."""
    first, full = {}, set()
    for m in masks:
        leaf = m >> 1
        if leaf in full:
            return True
        other = first.get(leaf)
        if other is None:
            first[leaf] = m
        elif other ^ m == m1:
            return True
        else:
            full.add(leaf)
    return False


_mask = attrgetter("data")


def qf_is_isotropic(q: QuadForm) -> bool:
    return _masks_isotropic(map(_mask, q.entries), _minus_one_bit(q.field))


def qf_isotropy_path(q: QuadForm):
    """Decide isotropy by the residue recursion and log every split."""
    _minus_one_bit(q.field)  # refuses a global-function-field base
    path = []
    return _isotropic_rec(q.field, tuple(a.data for a in q.entries), path), path


def _isotropic_rec(k: FieldDesc, masks: tuple, path: list) -> bool:
    """Residue recursion on entry masks, which `qf_isotropy_path` logs and
    the tests check the leaf test against.  Over a height-h layer
    Springer's split sends the entries with bit h clear to the unit part
    and those with bit h set, that bit removed, to the twisted part; the
    form is isotropic exactly when one of the two residue forms is.
    Appends one entry per node to path."""
    if not masks:
        path.append({"field": k.text, "form": _form_str(k, masks),
                     "isotropic": False, "reason": "empty form"})
        return False
    if isinstance(k, FiniteField):
        return _finite_base_case(k, masks, path)
    bit = 1 << k.height
    units = tuple(m for m in masks if not m & bit)
    odd = tuple(m ^ bit for m in masks if m & bit)
    res = k.residue
    path.append({"field": k.text, "form": _form_str(k, masks),
                 "unit_part": _form_str(res, units),
                 "twisted_part": _form_str(res, odd)})
    return _isotropic_rec(res, units, path) or _isotropic_rec(res, odd, path)


def _finite_base_case(k: FiniteField, masks: tuple, path: list) -> bool:
    if len(masks) >= 3:
        verdict, reason = True, "three or more variables over a finite field"
    elif len(masks) == 2:
        a, b = masks
        verdict = k.minus_one_bit == a ^ b
        reason = "binary form, -ab square" if verdict else "binary form, -ab nonsquare"
    else:
        verdict, reason = False, "at most one variable"
    path.append({"field": k.text, "form": _form_str(k, masks),
                 "isotropic": verdict, "reason": reason})
    return verdict


# ---------------------------------------------------------------------------
# independent decider over the height-one tower

# Sixteen pairs of _lift_pair's four lifts per prime, for as many primes as
# its memo holds; the discriminant pairs of 3- and 4-entry forms share it.
@lru_cache(maxsize=16 * 64)
def hilbert_symbol(a, b, p: int) -> int:
    """Hilbert symbol over the p-adic rationals, p odd.

    Each argument is the (valuation, unit mod p) pair that valuation_unit
    returns; the symbol depends on nothing else (Serre, A Course in
    Arithmetic, III.1.2, Theorem 1), and is memoised per (pair, pair, p).
    """
    (alpha, s), (beta, t) = a, b
    result = -1 if alpha * beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        result *= legendre(s, p)
    if alpha % 2:
        result *= legendre(t, p)
    return result


def _is_square(pair, p: int) -> bool:
    v, u = pair
    return v % 2 == 0 and legendre(u, p) == 1


# Four masks per prime, for as many primes as standard_algebra's memo.
@lru_cache(maxsize=4 * 64)
def _lift_pair(p: int, data: int):
    """(valuation, unit mod p) of the integer lift of mask ``data`` over
    the height-one tower at p: u**(data & 1) * p**(data >> 1 & 1), with u
    the least positive nonresidue."""
    return valuation_unit(smallest_nonresidue(p) ** (data & 1) * p ** (data >> 1 & 1), p)


def qf_is_isotropic_oracle(q: QuadForm) -> bool:
    """Classical criterion from dimension, discriminant and Hasse symbol.

    Each dimension reads only the invariants its criterion needs (Serre,
    A Course in Arithmetic, IV.2.2, Theorem 6): at most one entry is
    anisotropic and five or more are isotropic, with no lift made;
    dimension 2 reads -d; dimensions 3 and 4 read d and the pairwise
    Hasse product.  Shares no code with the residue recursion: each class
    is lifted to an actual integer, each lift is split once into its
    valuation and its unit mod p, and the invariants are computed from
    those pairs with Legendre symbols.
    """
    k = q.field
    if not (isinstance(k, CDVField) and isinstance(k.residue, FiniteField)
            and k.residue.e == 1):
        raise UnsupportedFieldError("the invariant decider runs over the "
                                    "height-one tower only")
    n = len(q.entries)
    if n <= 1 or n >= 5:
        return n >= 5
    p = k.residue.p
    pairs = [_lift_pair(p, a.data) for a in q.entries]
    v, u = 0, 1
    for w, c in pairs:
        v, u = v + w, u * c % p
    minus_d, neg_one = (v, -u % p), (0, p - 1)
    if n == 2:
        return _is_square(minus_d, p)
    eps = 1
    for i in range(n):
        for j in range(i + 1, n):
            eps *= hilbert_symbol(pairs[i], pairs[j], p)
    if n == 3:
        return eps == hilbert_symbol(neg_one, minus_d, p)
    return (not _is_square((v, u), p)) or eps == hilbert_symbol(neg_one, neg_one, p)


# The oracle sweep's dimensions: 4 + 16 + 64 + 256 + 1024 ordered forms at height one.
ORACLE_SWEEP_DIMENSIONS = range(1, 6)
ORACLE_SWEEP_FORMS = sum(4 ** d for d in ORACLE_SWEEP_DIMENSIONS)


def oracle_disagreements(k: FieldDesc) -> int:
    """How many of the ORACLE_SWEEP_FORMS ordered forms over the height-one
    tower k the leaf test and the invariant decider answer differently."""
    classes = sqcl_group(k)
    disagreements = 0
    for dim in ORACLE_SWEEP_DIMENSIONS:
        for entries in itertools.product(classes, repeat=dim):
            form = QuadForm(k, entries)
            disagreements += qf_is_isotropic(form) != qf_is_isotropic_oracle(form)
    return disagreements


# ---------------------------------------------------------------------------
# u-invariant by exhaustive search

# The exhaustive searches range over all 2**(h+1) classes of a height-h
# tower.  At height 3 (16 classes) u_quadratic keeps 5**8 - 1 = 390,624
# anisotropic tuples when p = 3 mod 4 and 4**8 - 1 = 65,535 when p = 1
# mod 4, in about 0.2 s at p = 3 and 0.03 s at p = 5 (CPython 3.11, one
# core of a shared 2-vCPU container).  Height 4 would keep at least
# 4**16 - 1 tuples, so towers with more classes are refused before any
# search.
MAX_SEARCH_CLASSES = 16


def search_classes(k: FieldDesc) -> range:
    """The class masks of k in canonical order, for an exhaustive search."""
    if not is_finite_based(k):
        raise UnsupportedFieldError("u search needs a finite-based tower")
    h = k.height
    if 2 << h > MAX_SEARCH_CLASSES:
        raise ValueError(f"exhaustive search covers towers of at most {MAX_SEARCH_CLASSES} "
                         f"square classes; a height-{h} tower has {2 << h}")
    return range(2 << h)


def _anisotropic_layers(classes, template, m1: int):
    """Yield, for d = 0, 1, ..., the sorted d-tuples of class masks whose
    tensor with the template masks is anisotropic, until one is empty.

    Each kept tuple is (parent, last, state): its parent's place in the
    previous layer, from which the tuple reads back, the place of its last
    class, and the leaf state of its tensor, two bits per leaf at bit
    2*leaf: 0 empty, 1 one entry with bit 0 clear, 2 one entry with bit 0
    set, 3 full.  Masks in one leaf differ only in bit 0, so by the leaf
    test an anisotropic leaf holds at most two entries, and two only when
    their masks XOR to 1 ^ m1.  An extension by c touches only the leaves
    of c ^ t for t in the template, one mask at a time, and is refused as
    soon as a mask lands in a full leaf or next to a lone entry whose mask
    XORs with it to m1.
    """
    moves = []
    for c in classes:
        row = []
        for t in template:
            leaf, bit = divmod(c ^ t, 2)
            shift = 2 * leaf
            full = 3 << shift
            # The bits the mask ORs into the state, by its leaf's two bits;
            # None where it makes the leaf isotropic.
            row.append((shift, ((1 + bit) << shift, None if bit == m1 else full,
                                None if 1 ^ bit == m1 else full, None)))
        moves.append(row)
    n = len(classes)
    layer = [(0, 0, 0)]
    while layer:
        yield layer
        extended = []
        for parent, (_, start, state) in enumerate(layer):
            for last in range(start, n):
                s = state
                for shift, table in moves[last]:
                    bits = table[s >> shift & 3]
                    if bits is None:
                        break
                    s |= bits
                else:
                    extended.append((parent, last, s))
        layer = extended


def max_anisotropic_rank(classes, template, m1: int) -> int:
    """Largest d such that some sorted d-tuple of classes, tensored with the
    template masks, is anisotropic by the leaf test, m1 the mask of -1.

    A subform of an anisotropic form is anisotropic (Springer 1955; Larmour,
    Math. Z. 2006, for the hermitian shapes), so the anisotropic tuples of
    dimension d+1, sorted in class order, are the anisotropic extensions
    of those of dimension d by a class at or after their last entry.
    `_anisotropic_layers` keeps each layer with the leaf state of every
    kept tensor, so an extension costs O(template), not O(d * template).
    An anisotropic tensor holds at most two entries per leaf, so with a
    nonempty template no kept tuple is longer than twice the leaf count,
    which is the class count; only the empty template, whose tensor is
    the empty form and never turns isotropic, reaches the cap of twice the
    class count.
    """
    cap = 2 * len(classes)
    for rank, _ in enumerate(_anisotropic_layers(classes, template, m1)):
        if rank > cap:
            raise EngineError(f"anisotropic forms persist past the cap {cap}")
    return rank


def u_quadratic(k: FieldDesc) -> int:
    """Largest dimension of an anisotropic diagonal form, by enumeration.

    Entries range over the square-class masks of k; reordering entries
    never changes isotropy, and the subform-closed search of
    `max_anisotropic_rank` with the template <1> extends only the
    anisotropic forms of each dimension.
    """
    return max_anisotropic_rank(search_classes(k), (0,), minus_one(k).data)


def norm_form(a: SquareClass, b: SquareClass) -> QuadForm:
    """The four-dimensional form <1, -a, -b, ab> over the slots' field,
    with -1 folded into classes."""
    k = a.field
    m1 = minus_one(k)
    return QuadForm(k, (one(k), sqcl_mul(k, m1, a), sqcl_mul(k, m1, b), sqcl_mul(k, a, b)))


def albert_form(s1, s2) -> QuadForm:
    """Six-dimensional form <a1, b1, -a1b1, -a2, -b2, a2b2> of a symbol
    pair, over the slots' field."""
    (a1, b1), (a2, b2) = s1, s2
    k = a1.field
    m1 = minus_one(k)
    return QuadForm(k, (a1, b1, sqcl_mul(k, sqcl_mul(k, m1, a1), b1), sqcl_mul(k, m1, a2),
                        sqcl_mul(k, m1, b2), sqcl_mul(k, a2, b2)))
