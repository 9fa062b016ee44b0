"""Square-class calculus over field towers."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hermlab.brauer import BrauerClass, parse_brauer
from hermlab.errors import (
    FieldMismatchError,
    InvalidExtensionError,
    ParseError,
    UnsupportedFieldError,
)
from hermlab.fields import (
    MAX_FIELD_HEIGHT,
    MAX_FIELD_SIZE,
    CDVField,
    FiniteField,
    GlobalFunctionField,
    SquareClass,
    class_of_rational,
    class_to_str,
    height,
    lift,
    minus_one,
    nonsquare_unit,
    one,
    parse_class,
    parse_field,
    quadratic_extension,
    smallest_nonresidue,
    sqcl_group,
    sqcl_mul,
    transport,
    uniformizer,
)

F5 = FiniteField(5)
K1 = CDVField(F5)
K2 = CDVField(K1)
TOWERS = [F5, K1, K2, CDVField(FiniteField(3)), CDVField(CDVField(FiniteField(7)))]


def test_finite_base_rejects_two_and_composites():
    with pytest.raises(ValueError):
        FiniteField(2)
    with pytest.raises(ValueError):
        FiniteField(9)
    with pytest.raises(ValueError):
        GlobalFunctionField(8)
    assert GlobalFunctionField(27).q == 27


def test_group_size_doubles_per_layer():
    for k in TOWERS:
        assert len(sqcl_group(k)) == 2 ** (height(k) + 1)


def test_canonical_order_height_one():
    assert [class_to_str(c) for c in sqcl_group(K1)] == ["1", "u", "pi", "u*pi"]


def test_canonical_order_height_two():
    labels = [class_to_str(c) for c in sqcl_group(K2)]
    assert labels == ["1", "u", "pi", "u*pi", "t", "u*t", "pi*t", "u*pi*t"]


def test_group_law_exhaustive():
    for k in (F5, K1, K2):
        classes = sqcl_group(k)
        identity = one(k)
        for a, b in product(classes, repeat=2):
            ab = sqcl_mul(k, a, b)
            assert ab in classes
            assert ab == sqcl_mul(k, b, a)
            assert sqcl_mul(k, a, a) == identity
        for a, b, c in product(classes[:4], repeat=3):
            assert (a * b) * c == a * (b * c)


def test_mul_rejects_field_mismatch():
    with pytest.raises(FieldMismatchError):
        sqcl_mul(K1, one(K1), one(K2))


def test_decompose_round_trip():
    for c in sqcl_group(K2):
        unit, vpar = c.decompose()
        assert unit.field == K1
        assert class_to_str(c).endswith("t") == bool(vpar)
    with pytest.raises(UnsupportedFieldError):
        one(F5).decompose()


def test_minus_one_classes():
    assert minus_one(F5).is_one
    assert not minus_one(FiniteField(3)).is_one
    assert not minus_one(FiniteField(7)).is_one
    assert minus_one(FiniteField(3, 2)).is_one  # order 9 = 1 mod 4
    assert minus_one(K2) == parse_class(K2, "1")
    assert minus_one(CDVField(FiniteField(3))) == parse_class(CDVField(FiniteField(3)), "u")


def test_parse_serialize_round_trip():
    for k in (F5, K1, K2):
        for c in sqcl_group(k):
            assert parse_class(k, class_to_str(c)) == c
    for text in ("F5", "F5^2", "CDV(F5)", "CDV(CDV(F3))", "GFF(9)", "CDV(GFF(27))"):
        assert parse_field(text).text == text.replace("Qp", "")


def test_parse_sugar_and_aliases():
    assert parse_field("Qp[p=5]") == K1
    assert parse_field("Qp((t))[p=5]") == K2
    assert parse_class(K2, "p*t") == parse_class(K2, "pi*t")
    assert parse_class(K1, "-1") == minus_one(K1)
    assert parse_class(K1, "u*u").is_one


def test_parse_rejects_unknown_generators():
    with pytest.raises(ParseError):
        parse_class(K1, "w")
    with pytest.raises(ParseError):
        parse_field("F6")
    with pytest.raises(ParseError):
        parse_field("CDV(")


# Unicode decimal digits other than 0-9: Arabic-Indic and fullwidth.
@pytest.mark.parametrize("text", ["F\u0665", "F5^\u0662", "F\uff15", "GFF(\u0669)",
                                  "Qp[p=\u0665]", "Qp((t))[p=\u0665]", "CDV(F\u0665)"])
def test_field_grammar_takes_ascii_digits_only(text):
    with pytest.raises(ParseError):
        parse_field(text)


def test_class_grammar_takes_ascii_digits_only():
    for k in (K1, CDVField(GlobalFunctionField(9))):
        for text in ("\u0663", "-\u0663", "u*\uff13"):
            with pytest.raises(ParseError):
                parse_class(k, text)
    assert parse_class(K1, "-3") == parse_class(K1, "u") and parse_class(K1, "4").is_one


def test_class_grammar_refuses_with_parse_errors():
    # zero, a multiple of p over F_p, and more digits than int() converts
    for k, text in ((K1, "0"), (F5, "5"), (F5, "-10"), (K1, "7" * 5000)):
        with pytest.raises(ParseError) as info:
            parse_class(k, text)
        assert "set_int_max_str_digits" not in str(info.value)
    with pytest.raises(ParseError):
        parse_brauer(K1, "(0,pi)")


@pytest.mark.parametrize("text", ["F" + "7" * 5000, "F5^" + "2" * 5000, "GFF(" + "9" * 5000 + ")",
                                  "Qp[p=" + "5" * 5000 + "]", "CDV(Qp((t))[p=" + "5" * 5000 + "])"],
                         ids=["finite", "exponent", "gff", "qp", "qpt"])
def test_field_grammar_refuses_long_integers_in_its_own_words(text):
    # more digits than int() converts
    with pytest.raises(ParseError) as info:
        parse_field(text)
    assert str(info.value) == "an integer of 5000 digits in a field descriptor is too long"


def test_symbolic_classes_multiply_by_cancellation():
    g = GlobalFunctionField(9)
    uv = parse_class(g, "u*v")
    assert uv * parse_class(g, "v") == parse_class(g, "u")
    assert (uv * uv).is_one
    with pytest.raises(UnsupportedFieldError):
        sqcl_group(g)
    k = CDVField(g)
    assert class_to_str(parse_class(k, "v*pi")) == "v*pi"


@given(st.integers(min_value=-80, max_value=80).filter(lambda n: n != 0),
       st.integers(min_value=-80, max_value=80).filter(lambda n: n != 0))
def test_rational_class_is_multiplicative(m, n):
    a = class_of_rational(K2, m)
    b = class_of_rational(K2, n)
    assert a * b == class_of_rational(K2, Fraction(m) * n)
    assert class_of_rational(K2, Fraction(m) * m * n) == b


def test_rational_class_examples():
    assert class_to_str(class_of_rational(K1, 2)) == "u"
    assert class_to_str(class_of_rational(K1, 5)) == "pi"
    assert class_to_str(class_of_rational(K1, 10)) == "u*pi"
    assert class_to_str(class_of_rational(K1, Fraction(1, 5))) == "pi"
    assert class_of_rational(K1, 4).is_one


# quadratic extensions -------------------------------------------------------

def _all_extensions(k):
    for lam in sqcl_group(k):
        if not lam.is_one:
            yield lam, quadratic_extension(k, lam)


def test_extension_by_one_rejected():
    for k in (F5, K1, K2):
        with pytest.raises(InvalidExtensionError):
            quadratic_extension(k, one(k))


def test_finite_extension_kills_everything():
    m = quadratic_extension(F5, nonsquare_unit(F5))
    assert m.target == FiniteField(5, 2)
    assert transport(m, nonsquare_unit(F5)).is_one
    assert transport(m, one(F5)).is_one


def test_unramified_extension_keeps_parity():
    lam = parse_class(K1, "u")
    m = quadratic_extension(K1, lam)
    assert m.target == CDVField(FiniteField(5, 2))
    assert class_to_str(transport(m, parse_class(K1, "u*pi"))) == "pi"
    assert transport(m, parse_class(K1, "pi")) == uniformizer(m.target)


def test_ramified_extension_folds_uniformizer():
    lam = parse_class(K1, "pi")
    m = quadratic_extension(K1, lam)
    assert m.target == K1  # same descriptor, new uniformizer via the map only
    assert class_to_str(transport(m, parse_class(K1, "u*pi"))) == "u"
    lam2 = parse_class(K1, "u*pi")
    m2 = quadratic_extension(K1, lam2)
    assert class_to_str(transport(m2, parse_class(K1, "pi"))) == "u"


def test_transport_kills_extension_class_and_is_homomorphic():
    for k in (F5, K1, K2):
        classes = sqcl_group(k)
        for lam, m in _all_extensions(k):
            assert transport(m, lam).is_one
            for a, b in product(classes, repeat=2):
                assert transport(m, a * b) == transport(m, a) * transport(m, b)


def test_transport_rejects_wrong_source():
    m = quadratic_extension(K1, parse_class(K1, "u"))
    with pytest.raises(FieldMismatchError):
        transport(m, one(K2))


def test_gff_has_no_extension_operator():
    g = GlobalFunctionField(9)
    with pytest.raises(UnsupportedFieldError):
        quadratic_extension(g, parse_class(g, "v"))


def test_field_sizes_above_the_bound_are_refused():
    with pytest.raises(ValueError, match="supported bound"):
        FiniteField(MAX_FIELD_SIZE + 39)
    with pytest.raises(ValueError, match="supported bound"):
        GlobalFunctionField(3 ** 26)
    with pytest.raises(ParseError, match="supported bound"):
        parse_field(f"CDV(F{MAX_FIELD_SIZE + 39})")
    assert FiniteField(1000003).p == 1000003


def _nested(layers, base="F5"):
    return "CDV(" * layers + base + ")" * layers


def test_field_towers_above_the_layer_bound_are_refused():
    assert height(parse_field(_nested(MAX_FIELD_HEIGHT))) == MAX_FIELD_HEIGHT
    assert height(parse_field(_nested(MAX_FIELD_HEIGHT - 1, "Qp((t))[p=5]"))) \
        == MAX_FIELD_HEIGHT + 1
    # refused before the parser recurses, however deep the nesting
    for layers in (MAX_FIELD_HEIGHT + 1, 1000, 100_000):
        with pytest.raises(ParseError, match=f"at most {MAX_FIELD_HEIGHT} CDV layers"):
            parse_field(_nested(layers))


def _accepts(make, n) -> bool:
    try:
        make(n)
    except ValueError:
        return False
    return True


def test_size_checks_match_a_sieve():
    n = 3000
    composite = bytearray(n)
    for d in range(2, n):
        composite[2 * d::d] = b"\x01" * len(range(2 * d, n, d))
    odd_primes = {m for m in range(3, n) if not composite[m]}
    powers = {p ** e for p in odd_primes for e in range(1, 8) if p ** e < n}
    assert {m for m in range(n) if _accepts(FiniteField, m)} == odd_primes
    assert {m for m in range(n) if _accepts(GlobalFunctionField, m)} == powers
    # the size refusal comes before any parity or divisor test
    for make in (FiniteField, GlobalFunctionField):
        with pytest.raises(ValueError, match="supported bound"):
            make(2 * MAX_FIELD_SIZE + 2)


# differential check against the nested calculus ------------------------------
#
# Reference: the (unit, parity) representation the bit masks replaced.  A
# class over a finite base is 0 or 1, over a global-function-field base a
# frozenset of names, and over a valued layer a pair (unit class of the
# residue, valuation parity); every operation recurses down the tower.

def _ref_one(k):
    if isinstance(k, FiniteField):
        return 0
    if isinstance(k, GlobalFunctionField):
        return frozenset()
    return (_ref_one(k.residue), 0)


def _ref_group(k):
    if isinstance(k, FiniteField):
        return [0, 1]
    inner = _ref_group(k.residue)
    return [(u, vp) for vp in (0, 1) for u in inner]


def _ref_mul(k, a, b):
    if not isinstance(k, CDVField):
        return a ^ b
    return (_ref_mul(k.residue, a[0], b[0]), a[1] ^ b[1])


def _ref_minus_one(k):
    if isinstance(k, FiniteField):
        return 0 if k.p ** k.e % 4 == 1 else 1
    if isinstance(k, GlobalFunctionField):
        return frozenset() if k.q % 4 == 1 else frozenset({"-1"})
    return (_ref_minus_one(k.residue), 0)


def _ref_uniformizer_name(depth):
    return ("pi", "t", "s")[depth - 1] if depth <= 3 else f"s{depth - 2}"


def _ref_names(k, a):
    if isinstance(k, FiniteField):
        return ["u"] if a else []
    if isinstance(k, GlobalFunctionField):
        return sorted(a)
    names = _ref_names(k.residue, a[0])
    if a[1]:
        names.append(_ref_uniformizer_name(height(k)))
    return names


def _ref_str(k, a):
    return "*".join(_ref_names(k, a)) or "1"


def _ref_generator(k, name):
    """A symbolic unit name or a uniformizer name, lifted to the top."""
    if isinstance(k, GlobalFunctionField):
        return frozenset({name})
    if name == _ref_uniformizer_name(height(k)):
        return (_ref_one(k.residue), 1)
    return (_ref_generator(k.residue, name), 0)


def _ref_extension(k, lam):
    """(target, map); a map is ("finite-ext", None), ("unramified", the
    residue map) or ("ramified", the unit part of lam)."""
    if isinstance(k, FiniteField):
        return FiniteField(k.p, 2 * k.e), ("finite-ext", None)
    if isinstance(k, GlobalFunctionField):
        raise UnsupportedFieldError("no symbolic extension")
    unit, vpar = lam
    if vpar == 0:
        target, inner = _ref_extension(k.residue, unit)
        return CDVField(target), ("unramified", inner)
    return k, ("ramified", unit)


def _ref_transport(k, m, a):
    kind, payload = m
    if kind == "finite-ext":
        return 0
    unit, vpar = a
    if kind == "unramified":
        return (_ref_transport(k.residue, payload, unit), vpar)
    return (_ref_mul(k.residue, unit, payload) if vpar else unit, 0)


def _tower(base, h):
    for _ in range(h):
        base = CDVField(base)
    return base


def _assert_calculus_agrees(k, pairs):
    """pairs: (flat class, nested reference) over k.  Compares names,
    products, decompose and -1 through the printed class."""
    for c, r in pairs:
        assert class_to_str(c) == _ref_str(k, r)
        if isinstance(k, CDVField):
            unit, vpar = c.decompose()
            assert (class_to_str(unit), vpar) == (_ref_str(k.residue, r[0]), r[1])
    for (a, ra), (b, rb) in product(pairs, repeat=2):
        assert class_to_str(a * b) == _ref_str(k, _ref_mul(k, ra, rb))
    assert class_to_str(minus_one(k)) == _ref_str(k, _ref_minus_one(k))


def _assert_transport_agrees(k, lam, rlam, pairs):
    m = quadratic_extension(k, lam)
    rtarget, rm = _ref_extension(k, rlam)
    assert m.target == rtarget
    for c, r in pairs:
        moved = transport(m, c)
        assert moved.field == m.target
        assert class_to_str(moved) == _ref_str(k, _ref_transport(k, rm, r))


@pytest.mark.parametrize("base", [FiniteField(3), F5, FiniteField(3, 2)],
                         ids=str)
def test_flat_classes_match_nested_calculus(base):
    for h in range(4):
        k = _tower(base, h)
        pairs = list(zip(sqcl_group(k), _ref_group(k)))
        _assert_calculus_agrees(k, pairs)
        for lam, rlam in pairs[1:]:
            _assert_transport_agrees(k, lam, rlam, pairs)


def test_flat_symbolic_classes_match_nested_calculus():
    for q in (9, 27):
        k = _tower(GlobalFunctionField(q), 2)
        texts = ["1", "v", "w*pi", "u*v*t", "pi*t", "v*w*pi*t", "t"]
        pairs = []
        for text in texts:
            r = _ref_one(k)
            for name in text.split("*") if text != "1" else ():
                r = _ref_mul(k, r, _ref_generator(k, name))
            pairs.append((parse_class(k, text), r))
        _assert_calculus_agrees(k, pairs)
        # ramified at the top (t) and at depth 1 below an unramified layer (pi)
        for lam, rlam in pairs[2:]:
            _assert_transport_agrees(k, lam, rlam, pairs)
        with pytest.raises(UnsupportedFieldError):
            quadratic_extension(k, pairs[1][0])


def test_group_order_is_integer_order_of_masks():
    for h in range(5):
        k = _tower(F5, h)
        classes = sqcl_group(k)
        assert [c.data for c in classes] == list(range(2 << h))
        assert [class_to_str(c) for c in classes] == [_ref_str(k, r) for r in _ref_group(k)]


def test_smallest_nonresidue_matches_brute_force():
    for p in range(3, 200, 2):
        if any(p % d == 0 for d in range(3, p, 2)):
            continue
        squares = {x * x % p for x in range(1, p)}
        assert smallest_nonresidue(p) == min(n for n in range(2, p) if n not in squares)


# ---------------------------------------------------------------------------
# descriptors and classes as values: interned towers, immutable classes

def test_equal_towers_are_one_object():
    k2 = parse_field("CDV(CDV(F5))")
    for other in (parse_field("Qp((t))[p=5]"), parse_field(" CDV( CDV(F5^1) ) "),
                  CDVField(CDVField(FiniteField(5))), CDVField(CDVField(FiniteField(5, 1))),
                  CDVField(CDVField(FiniteField(p=5, e=1))), K2):
        assert other is k2
    assert k2.residue is K1 is parse_field("Qp[p=5]") is CDVField(F5)
    assert k2.residue.residue is F5 is parse_field("F5")
    assert GlobalFunctionField(9) is parse_field("GFF(9)")
    k3 = parse_field("CDV(CDV(F3))")
    assert quadratic_extension(k3, nonsquare_unit(k3)).target is parse_field("CDV(CDV(F3^2))")
    assert quadratic_extension(k3, uniformizer(k3)).target is k3


def test_distinct_towers_stay_distinct():
    pairs = [(FiniteField(3), FiniteField(5)), (FiniteField(5), FiniteField(5, 2)),
             (GlobalFunctionField(9), FiniteField(3, 2))]
    for a, b in pairs:
        for x, y in ((a, b), (CDVField(a), CDVField(b)), (a, CDVField(a))):
            assert x is not y and x != y
            assert str(x) != str(y)
            assert SquareClass(x, 0) != SquareClass(y, 0)
            assert BrauerClass(x, ()) != BrauerClass(y, ())


def test_copies_and_pickles_return_the_interned_tower():
    towers = TOWERS + [GlobalFunctionField(9), CDVField(GlobalFunctionField(27)),
                       FiniteField(3, 2)]
    for k in towers:
        assert copy.copy(k) is k
        assert copy.deepcopy(k) is k
        assert pickle.loads(pickle.dumps(k)) is k
    a = parse_class(K2, "u*t")
    B = parse_brauer(K2, "(u,pi);(t,u*pi)")
    for x in (a, B):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and y.field is K2


def test_minus_one_bit_matches_the_order_mod_four():
    for p in (3, 5, 7, 11, 13):
        for e in (1, 2, 3):
            base = FiniteField(p, e)
            k = CDVField(CDVField(base))
            assert base.minus_one_bit == k.minus_one_bit == p ** e % 4 >> 1
            assert minus_one(k).data == base.minus_one_bit
    assert GlobalFunctionField(7).minus_one_bit is None
    assert CDVField(GlobalFunctionField(9)).minus_one_bit is None


def test_a_large_extension_degree_is_read_once():
    # -1's mask is computed once per tower, not as p**e on every read
    start = time.monotonic()
    assert parse_field("F5^10000000").minus_one_bit == 0
    assert parse_field("F3^10000001").minus_one_bit == 1
    assert time.monotonic() - start < 1.0
    k = parse_field("F5^3")
    assert repr(k) == "FiniteField(p=5, e=3)"
    assert pickle.loads(pickle.dumps(k)) is k


def test_descriptors_and_classes_refuse_assignment():
    a = parse_class(K2, "u*t")
    B = parse_brauer(K2, "(u,pi)")
    hash(B)
    for obj, name, value in ((F5, "p", 7), (F5, "e", 2), (K1, "residue", F5),
                             (K1, "height", 3), (K1, "text", "F7"), (K1, "base", K1),
                             (F5, "minus_one_bit", 1), (K1, "minus_one_bit", 1),
                             (GlobalFunctionField(9), "q", 3), (K1, "extra", 1),
                             (a, "data", 0), (a, "field", K1), (a, "extra", 1),
                             (B, "symbols", ()), (B, "field", K1), (B, "_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert F5.p == 5 and K1.residue is F5 and a.data == 5 and len(B.symbols) == 1


def test_reprs_are_the_dataclass_texts():
    assert repr(K2) == "CDVField(residue=CDVField(residue=FiniteField(p=5, e=1)))"
    assert repr(CDVField(GlobalFunctionField(9))) == \
        "CDVField(residue=GlobalFunctionField(q=9))"
    assert repr(FiniteField(3, 2)) == "FiniteField(p=3, e=2)"
    assert repr(parse_class(CDVField(GlobalFunctionField(9)), "v*pi")) == (
        "SquareClass(field=CDVField(residue=GlobalFunctionField(q=9)), data=2, "
        "names=frozenset({'v'}))")
    assert repr(parse_brauer(K1, "(u,pi)")) == (
        "BrauerClass(field=CDVField(residue=FiniteField(p=5, e=1)), symbols=(("
        "SquareClass(field=CDVField(residue=FiniteField(p=5, e=1)), data=1, names=frozenset()), "
        "SquareClass(field=CDVField(residue=FiniteField(p=5, e=1)), data=2, names=frozenset())),))")
    assert repr(parse_brauer(F5, "1")) == "BrauerClass(field=FiniteField(p=5, e=1), symbols=())"


def _ref_height(k):
    return 1 + _ref_height(k.residue) if isinstance(k, CDVField) else 0


def _ref_base(k):
    return _ref_base(k.residue) if isinstance(k, CDVField) else k


def _ref_text(k):
    if isinstance(k, FiniteField):
        return f"F{k.p}" if k.e == 1 else f"F{k.p}^{k.e}"
    if isinstance(k, GlobalFunctionField):
        return f"GFF({k.q})"
    return f"CDV({_ref_text(k.residue)})"


def test_tower_attributes_match_recursion_to_the_layer_bound():
    for base in (FiniteField(5), FiniteField(3, 2), GlobalFunctionField(9)):
        k = base
        for layers in range(MAX_FIELD_HEIGHT + 1):
            assert height(k) == _ref_height(k) == layers
            assert k.base is _ref_base(k) is base
            assert k.text == str(k) == _ref_text(k)
            assert parse_field(k.text) is k
            k = CDVField(k)


_HASH_SCRIPT = """
from hermlab.brauer import parse_brauer
from hermlab.fields import parse_class, parse_field
k = parse_field("CDV(CDV(F5))")
print(hash(k), hash(parse_class(k, "u*t")), hash(parse_brauer(k, "(u,pi);(t,u*pi)")))
"""


def test_hashes_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=60, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_unreferenced_towers_are_released():
    k = CDVField(CDVField(FiniteField(1009)))  # a prime no other test uses
    refs = [weakref.ref(k), weakref.ref(k.residue), weakref.ref(k.base)]
    assert sqcl_group(k)[5] == parse_class(k, "u*t")
    del k
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert height(CDVField(CDVField(FiniteField(1009)))) == 2


# A fresh interpreter, so that no memo of another test holds the tower.
_RELEASE_SCRIPT = """
import gc, weakref
from hermlab.fields import CDVField, GlobalFunctionField, parse_class, sqcl_mul
k = CDVField(GlobalFunctionField(9))
a = parse_class(k, "v*pi")
b = parse_class(k.residue, "w*v")
assert sqcl_mul(k, a, a).is_one and b.names == {"v", "w"}
refs = [weakref.ref(k), weakref.ref(k.residue)]
del k, a, b
gc.collect()
print([r() is None for r in refs])
"""


def test_a_tower_with_named_classes_is_released_in_one_collection():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RELEASE_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "[True, True]\n"


def test_equal_classes_are_one_object():
    a = SquareClass(K2, 5)
    m = quadratic_extension(K2, parse_class(K2, "u*pi"))  # pi*t -> u*t
    for x in (SquareClass(K2, 5, frozenset()), sqcl_mul(K2, nonsquare_unit(K2), uniformizer(K2)),
              parse_class(K2, "u*t"), sqcl_group(K2)[5],
              lift(K2, SquareClass(K1, 1)) * uniformizer(K2),
              transport(m, parse_class(K2, "pi*t")), copy.copy(a), copy.deepcopy(a),
              pickle.loads(pickle.dumps(a))):
        assert x is a
    unit, parity = a.decompose()
    assert unit is SquareClass(K1, 1) is nonsquare_unit(K1) and parity == 1
    k = CDVField(GlobalFunctionField(9))
    v = parse_class(k, "v*pi")
    for x in (SquareClass(k, 2, frozenset({"v"})), parse_class(k, "pi*v"),
              sqcl_mul(k, parse_class(k, "v"), uniformizer(k)),
              lift(k, parse_class(k.residue, "v")) * uniformizer(k),
              copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert x is v
    assert v.decompose()[0] is parse_class(k.residue, "v")
    assert SquareClass(k, 2) is uniformizer(k) is not v


def test_classes_compare_by_identity_and_hash_their_value():
    a = SquareClass(K1, 1)
    assert (a == 1) is False and (a != 1) is True
    assert SquareClass.__eq__(a, 1) is NotImplemented
    assert a != SquareClass(F5, 1) and a != SquareClass(K1, 3)
    v = parse_class(CDVField(GlobalFunctionField(9)), "v*pi")
    for x in (a, v, parse_class(K2, "u*t"), one(F5)):
        assert hash(x) == hash((x.field, x.data, x.names))
