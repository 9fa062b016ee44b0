"""Square-class calculus over field towers."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hermlab.errors import (
    FieldMismatchError,
    InvalidExtensionError,
    ParseError,
    UnsupportedFieldError,
)
from hermlab.fields import (
    MAX_FIELD_SIZE,
    CDVField,
    FiniteField,
    GlobalFunctionField,
    class_of_rational,
    class_to_str,
    field_to_str,
    height,
    minus_one,
    nonsquare_unit,
    one,
    parse_class,
    parse_field,
    quadratic_extension,
    sqcl_group,
    sqcl_mul,
    symbolic,
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
        assert field_to_str(parse_field(text)) == text.replace("Qp", "")


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


def test_symbolic_classes_multiply_by_cancellation():
    g = GlobalFunctionField(9)
    uv = symbolic(g, "u", "v")
    assert uv * symbolic(g, "v") == symbolic(g, "u")
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
    target, m = quadratic_extension(F5, nonsquare_unit(F5))
    assert target == FiniteField(5, 2)
    assert transport(m, nonsquare_unit(F5)).is_one
    assert transport(m, one(F5)).is_one


def test_unramified_extension_keeps_parity():
    lam = parse_class(K1, "u")
    target, m = quadratic_extension(K1, lam)
    assert target == CDVField(FiniteField(5, 2))
    assert class_to_str(transport(m, parse_class(K1, "u*pi"))) == "pi"
    assert transport(m, parse_class(K1, "pi")) == uniformizer(target)


def test_ramified_extension_folds_uniformizer():
    lam = parse_class(K1, "pi")
    target, m = quadratic_extension(K1, lam)
    assert target == K1  # same descriptor, new uniformizer via the map only
    assert class_to_str(transport(m, parse_class(K1, "u*pi"))) == "u"
    lam2 = parse_class(K1, "u*pi")
    _, m2 = quadratic_extension(K1, lam2)
    assert class_to_str(transport(m2, parse_class(K1, "pi"))) == "u"


def test_transport_kills_extension_class_and_is_homomorphic():
    for k in (F5, K1, K2):
        classes = sqcl_group(k)
        for lam, (target, m) in _all_extensions(k):
            assert transport(m, lam).is_one
            for a, b in product(classes, repeat=2):
                assert transport(m, a * b) == transport(m, a) * transport(m, b)


def test_transport_rejects_wrong_source():
    _, m = quadratic_extension(K1, parse_class(K1, "u"))
    with pytest.raises(FieldMismatchError):
        transport(m, one(K2))


def test_gff_has_no_extension_operator():
    g = GlobalFunctionField(9)
    with pytest.raises(UnsupportedFieldError):
        quadratic_extension(g, symbolic(g, "v"))


def test_field_sizes_above_the_bound_are_refused():
    with pytest.raises(ValueError, match="supported bound"):
        FiniteField(MAX_FIELD_SIZE + 39)
    with pytest.raises(ValueError, match="supported bound"):
        GlobalFunctionField(3 ** 26)
    with pytest.raises(ParseError, match="supported bound"):
        parse_field(f"CDV(F{MAX_FIELD_SIZE + 39})")
    assert FiniteField(1000003).p == 1000003
