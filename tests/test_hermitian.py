"""Hermitian descriptors, reductions and exhaustive searches."""

import random
from collections import Counter
from itertools import combinations_with_replacement, islice, permutations, product

import pytest

import hermlab.hermitian
from hermlab.brauer import (
    BrauerClass,
    DivisionKind,
    bc_is_division,
    bc_single_symbol_rep,
    morita_reduce,
    parse_brauer,
    trivial_class,
)
from hermlab.errors import (HermlabError, InvalidExtensionError, UnsupportedFieldError,
                            UnsupportedShapeError)
from hermlab.fields import (
    CDVField,
    FiniteField,
    GlobalFunctionField,
    minus_one,
    one,
    parse_class,
    parse_field,
    sqcl_group,
)
from hermlab.hermitian import (
    HermFormDesc,
    canonical_involution,
    herm_is_isotropic,
    jacobson_quadratic,
    reduced_quadratic,
    transfer_quadratic,
    u_search,
    unitary_involution,
)
from hermlab.quadform import albert_form, norm_form, qf_is_isotropic, u_quadratic

F5 = FiniteField(5)
K1 = CDVField(F5)
K2 = CDVField(K1)


def pc(k, s):
    return parse_class(k, s)


def test_unitary_involution_needs_nontrivial_class():
    with pytest.raises(InvalidExtensionError):
        unitary_involution(pc(K1, "1"))


def test_morita_reduction():
    split = parse_brauer(K1, "(1,pi)")
    assert morita_reduce(split) == (DivisionKind.SPLIT, trivial_class(K1))
    B = parse_brauer(K1, "(u,pi)")
    assert morita_reduce(B) == (DivisionKind.QUATERNION, B)
    # a class already reduced is returned as it is, not rebuilt
    for C in (B, trivial_class(K1), parse_brauer(CDVField(K2), "(u,pi);(t,s)")):
        assert morita_reduce(C)[1] is C
    padded = parse_brauer(K1, "(u,pi);(1,1)")
    assert morita_reduce(padded)[1].symbols == B.symbols
    two = parse_brauer(K1, "(u,pi);(u,u)")
    assert morita_reduce(two) == (DivisionKind.QUATERNION,
                                  BrauerClass(K1, (bc_single_symbol_rep(two),)))
    for C in (split, B, padded, two, parse_brauer(K2, "(u,t);(p,u*t)")):
        index, reduced = morita_reduce(C)
        assert index == bc_is_division(C) == bc_is_division(reduced)


@pytest.mark.parametrize("field,stride,expected", [
    ("CDV(F3)", 1, 36), ("CDV(F5)", 1, 36), ("CDV(CDV(F3))", 7, 300)])
def test_shape_a_reduces_two_symbol_classes_first(field, stride, expected):
    k = parse_field(field)
    symbols = list(product(sqcl_group(k)[1:], repeat=2))
    checked = 0
    for pair in islice(product(symbols, repeat=2), 0, None, stride):
        B = BrauerClass(k, pair)
        index, reduced = morita_reduce(B)
        if index is DivisionKind.QUATERNION:
            assert u_search(B, canonical_involution(), 1) == \
                u_search(reduced, canonical_involution(), 1), str(B)
            checked += 1
    assert checked == expected


def test_trace_reduction_examples():
    B = parse_brauer(K1, "(u,pi)")
    h1 = HermFormDesc(B, canonical_involution(), 1, (pc(K1, "1"),))
    assert str(jacobson_quadratic(h1)) == "<1,u,pi,u*pi>"
    assert not herm_is_isotropic(h1)
    for c in sqcl_group(K1):
        h2 = HermFormDesc(B, canonical_involution(), 1, (pc(K1, "1"), c))
        assert herm_is_isotropic(h2)  # eight quadratic variables over a u=4 tower


def test_trace_reduction_height_two():
    B = parse_brauer(K2, "(u,p)")
    h = HermFormDesc(B, canonical_involution(), 1, (pc(K2, "1"), pc(K2, "t")))
    assert not herm_is_isotropic(h)


def test_transfer_examples():
    lam = pc(K1, "u")
    h1 = HermFormDesc(trivial_class(K1), unitary_involution(lam), 1, (pc(K1, "1"),))
    assert not herm_is_isotropic(h1)
    h2 = HermFormDesc(trivial_class(K1), unitary_involution(lam), 1,
                      (pc(K1, "1"), pc(K1, "pi")))
    assert str(transfer_quadratic(h2)) == "<1,u,pi,u*pi>"
    assert not herm_is_isotropic(h2)
    h3 = HermFormDesc(trivial_class(K1), unitary_involution(lam), 1,
                      tuple(pc(K1, "1") for _ in range(3)))
    assert herm_is_isotropic(h3)


def test_unsupported_shapes_refused():
    B = parse_brauer(K1, "(u,pi)")
    skew = HermFormDesc(B, canonical_involution(), -1, (pc(K1, "1"),))
    assert skew.shape == "unsupported"
    with pytest.raises(UnsupportedShapeError):
        herm_is_isotropic(skew)
    split_shape_a = HermFormDesc(parse_brauer(K1, "(1,pi)"), canonical_involution(),
                                 1, (pc(K1, "1"),))
    with pytest.raises(UnsupportedShapeError):
        herm_is_isotropic(split_shape_a)
    for h in (skew, split_shape_a):
        with pytest.raises(UnsupportedShapeError, match="no concrete decider"):
            reduced_quadratic(h)
    with pytest.raises(UnsupportedShapeError):
        u_search(B, canonical_involution(), -1)


def test_rank_zero_forms_are_anisotropic():
    B = parse_brauer(K1, "(u,pi)")
    assert not herm_is_isotropic(HermFormDesc(B, canonical_involution(), 1, ()))


def test_rank_one_forms_over_division_algebras_anisotropic():
    B = parse_brauer(K1, "(u,pi)")
    for c in sqcl_group(K1):
        assert not herm_is_isotropic(HermFormDesc(B, canonical_involution(), 1, (c,)))
    lam = pc(K2, "t")
    for c in sqcl_group(K2):
        h = HermFormDesc(trivial_class(K2), unitary_involution(lam), 1, (c,))
        assert not herm_is_isotropic(h)


def test_isotropy_invariant_under_permutation_and_scaling():
    B = parse_brauer(K2, "(u,t)")
    classes = sqcl_group(K2)
    for entries in combinations_with_replacement(classes[:4], 3):
        h = HermFormDesc(B, canonical_involution(), 1, entries)
        verdict = herm_is_isotropic(h)
        for perm in permutations(entries):
            assert herm_is_isotropic(
                HermFormDesc(B, canonical_involution(), 1, perm)) == verdict
        for c in classes:
            scaled = tuple(c * e for e in entries)
            assert herm_is_isotropic(
                HermFormDesc(B, canonical_involution(), 1, scaled)) == verdict


def test_search_values():
    assert u_search(parse_brauer(K1, "(u,pi)"), canonical_involution(), 1) == 1
    assert u_search(parse_brauer(K2, "(u,p)"), canonical_involution(), 1) == 2
    assert u_search(parse_brauer(K2, "(u,t)"), canonical_involution(), 1) == 2
    assert u_search(trivial_class(K1), unitary_involution(pc(K1, "u")), 1) == 2


def test_transfer_search_halves_the_quadratic_value():
    cases = [
        (K1, "u"), (K1, "pi"), (K1, "u*pi"),
        (K2, "u"), (K2, "t"), (K2, "p*t"),
        (CDVField(FiniteField(3)), "u"),
    ]
    for k, lam in cases:
        inv = unitary_involution(parse_class(k, lam))
        assert u_search(trivial_class(k), inv, 1) == u_quadratic(k) // 2


# The reductions take products without a field check.  Their entries, in
# order, must equal the checked class products of `SquareClass.__mul__`:
# witnesses and the CLI print them.

def _ref_norm_form(a, b, k):
    m1 = minus_one(k)
    return (one(k), m1 * a, m1 * b, a * b)


def _ref_albert_form(s1, s2, k):
    (a1, b1), (a2, b2) = s1, s2
    m1 = minus_one(k)
    return (a1, b1, m1 * a1 * b1, m1 * a2, m1 * b2, a2 * b2)


def _ref_jacobson(h):
    a, b = h.algebra.effective_symbols[0]
    nf = _ref_norm_form(a, b, h.algebra.field)
    return tuple(c * n for c in h.entries for n in nf)


def _ref_transfer(h):
    k = h.algebra.field
    m1, lam = minus_one(k), h.lam
    pieces = []
    for c in h.entries:
        pieces.append(c)
        pieces.append(m1 * lam * c)
    return tuple(pieces)


HEIGHT_TWO = [CDVField(CDVField(FiniteField(p))) for p in (3, 5)]


@pytest.mark.parametrize("k", HEIGHT_TWO, ids=str)
def test_norm_and_albert_forms_match_class_products(k):
    classes = sqcl_group(k)
    symbols = list(product(classes, repeat=2))
    for a, b in symbols:
        assert norm_form(a, b).entries == _ref_norm_form(a, b, k)
    for s1, s2 in product(symbols, repeat=2):
        assert albert_form(s1, s2).entries == _ref_albert_form(s1, s2, k)


@pytest.mark.parametrize("k", HEIGHT_TWO, ids=str)
def test_trace_reduction_matches_class_products(k):
    classes = sqcl_group(k)
    entries = (tuple(classes), tuple(reversed(classes)))  # every product, both orders
    for a, b in product(classes, repeat=2):
        B = BrauerClass(k, ((a, b),))
        if bc_is_division(B) is not DivisionKind.QUATERNION:
            continue
        for e in entries:
            h = HermFormDesc(B, canonical_involution(), 1, e)
            assert jacobson_quadratic(h).entries == _ref_jacobson(h)
            assert reduced_quadratic(h).entries == _ref_jacobson(h)


@pytest.mark.parametrize("k", HEIGHT_TWO, ids=str)
def test_transfer_matches_class_products(k):
    classes = sqcl_group(k)
    entries = (tuple(classes), tuple(reversed(classes)))
    for lam in classes[1:]:
        for e in entries:
            h = HermFormDesc(trivial_class(k), unitary_involution(lam), 1, e)
            assert transfer_quadratic(h).entries == _ref_transfer(h)
            assert reduced_quadratic(h).entries == _ref_transfer(h)


def test_transfer_keeps_symbolic_units():
    for q in (7, 9):  # -1 is the symbolic class "-1" for q = 3 mod 4
        k = CDVField(GlobalFunctionField(q))
        v, w, pi = (parse_class(k, t) for t in ("v", "w", "pi"))
        for lam in (v, pi, v * pi):
            h = HermFormDesc(trivial_class(k), unitary_involution(lam), 1,
                             (one(k), w, v * w * pi))
            assert transfer_quadratic(h).entries == _ref_transfer(h)


# herm_is_isotropic decides on entry masks; the reduced quadratic form and
# its decision are the reference route.

def _entry_tuples(classes, seed):
    """Seeded entry tuples of ranks 0 to 6: past u for every shape at
    heights 1 and 2 (u is at most 2 for shape a and 4 for shape b there)."""
    rng = random.Random(seed)
    return [tuple(rng.choice(classes) for _ in range(rank))
            for rank in range(7) for _ in range(3)]


@pytest.mark.parametrize("k", [CDVField(FiniteField(p)) for p in (3, 5)] + HEIGHT_TWO, ids=str)
def test_isotropy_on_masks_matches_the_reduced_quadratic_form(k):
    classes = sqcl_group(k)
    forms = []
    for a, b in product(classes, repeat=2):
        B = BrauerClass(k, ((a, b),))
        if bc_is_division(B) is DivisionKind.QUATERNION:
            forms.append((B, canonical_involution()))
    assert forms
    forms += [(trivial_class(k), unitary_involution(lam)) for lam in classes[1:]]
    verdicts = set()
    for seed, (B, lam) in enumerate(forms):
        for entries in _entry_tuples(classes, seed):
            h = HermFormDesc(B, lam, 1, entries)
            verdict = herm_is_isotropic(h)
            assert verdict == (h.rank > 0 and qf_is_isotropic(reduced_quadratic(h))), str(h)
            verdicts.add((h.shape, h.rank > 0, verdict))
    assert {(s, True, v) for s in "ab" for v in (False, True)} <= verdicts


@pytest.mark.parametrize("k", [CDVField(FiniteField(p)) for p in (3, 5)] + HEIGHT_TWO, ids=str)
def test_shape_b_decides_both_signs_alike(k):
    # Under a unitary involution an eps = -1 form is sqrt(lam) times an
    # eps = +1 form, so the descriptor's classes c_i are read the same way.
    classes = sqcl_group(k)
    for lam in classes[1:]:
        for rank in range(4):
            for entries in combinations_with_replacement(classes, rank):
                plus, minus = (HermFormDesc(trivial_class(k), lam, eps, entries)
                               for eps in (1, -1))
                assert plus.shape == minus.shape == "b"
                assert herm_is_isotropic(plus) == herm_is_isotropic(minus), str(minus)
        assert u_search(trivial_class(k), lam, 1) == u_search(trivial_class(k), lam, -1)


@pytest.mark.parametrize("q", [7, 9])
def test_isotropy_refusals_over_a_gff_base_keep_their_order(q):
    k = CDVField(GlobalFunctionField(q))
    v = parse_class(k, "v")
    division = parse_brauer(k, "(v,pi)")
    shapes = ((division, None, -1), (division, None, 1), (trivial_class(k), v, 1),
              (trivial_class(k), parse_class(k, "pi"), 1))
    for B, lam, eps in shapes:
        assert not herm_is_isotropic(HermFormDesc(B, lam, eps, ()))
    entries = (one(k), v)
    with pytest.raises(UnsupportedShapeError, match="no concrete decider for this form shape"):
        herm_is_isotropic(HermFormDesc(division, None, -1, entries))
    with pytest.raises(UnsupportedFieldError, match="division testing needs a finite-based tower"):
        herm_is_isotropic(HermFormDesc(division, None, 1, entries))
    for B, lam, eps in shapes[2:]:
        h = HermFormDesc(B, lam, eps, entries)
        assert h.shape == "b"
        with pytest.raises(UnsupportedFieldError,
                           match="^isotropy is undecidable over a global-function-field base$"):
            herm_is_isotropic(h)


def test_hermitian_keeps_the_quadratic_decider_bound():
    # the benchmark's tracer test asserts that hermitian binds this name
    assert hermlab.hermitian.qf_is_isotropic is qf_is_isotropic


# metamorphic relations: the same algebra written another way ------------------

def _descriptor_outcome(B, lam, eps, forms):
    """What may depend only on the algebra, not on how it is written: the
    shape, the isotropy of each form and the searched value, each of them or
    the type of its refusal."""
    def attempt(f):
        try:
            return f()
        except HermlabError as exc:
            return type(exc).__name__
    return (attempt(lambda: HermFormDesc(B, lam, eps, ()).shape),
            tuple(attempt(lambda e=e: herm_is_isotropic(HermFormDesc(B, lam, eps, e)))
                  for e in forms),
            attempt(lambda: u_search(B, lam, eps)))


def _descriptor_rewritings(B, c):
    """(relation, class) for each rewriting of B that names the same algebra:
    symbol order, slots swapped, a symbol with a trivial slot, and the split
    symbol (c, -c) (Lam, Introduction to Quadratic Forms over Fields, 2005,
    ch. III) while B keeps at most two effective symbols with it."""
    k, syms = B.field, B.symbols
    if len(syms) > 1:
        yield "order", BrauerClass(k, syms[::-1])
    yield "swap", BrauerClass(k, tuple((b, a) for a, b in syms))
    yield "trivial first slot", BrauerClass(k, syms + ((one(k), c),))
    yield "trivial second slot", BrauerClass(k, syms + ((c, one(k)),))
    if len(B.effective_symbols) < 2:
        yield "split symbol", BrauerClass(k, syms + ((c, minus_one(k) * c),))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("h", [1, 2])
def test_rewriting_the_class_keeps_the_descriptor_outcome(p, h):
    """The trivial class and 12 seeded classes of one or two symbols, under
    the canonical involution and one seeded unitary one, with both signs:
    every rewriting keeps the shape, the isotropy of six seeded forms and
    the value of the search."""
    rng = random.Random(f"descriptor-metamorphic:{p}:{h}")
    k = parse_field(f"F{p}")
    for _ in range(h):
        k = CDVField(k)
    classes = sqcl_group(k)
    sample = [trivial_class(k)] + [
        BrauerClass(k, tuple((rng.choice(classes), rng.choice(classes))
                             for _ in range(rng.choice((1, 2)))))
        for _ in range(12)]
    differences, compared, shapes = [], 0, Counter()
    for B in sample:
        c = rng.choice(classes[1:])
        forms = [tuple(rng.choice(classes) for _ in range(rng.randint(1, 3)))
                 for _ in range(6)]
        for lam in (None, rng.choice(classes[1:])):
            for eps in (1, -1):
                expected = _descriptor_outcome(B, lam, eps, forms)
                shapes[expected[0]] += 1
                for relation, B2 in _descriptor_rewritings(B, c):
                    compared += 1
                    got = _descriptor_outcome(B2, lam, eps, forms)
                    if got != expected:
                        differences.append((relation, str(B), str(B2), lam, eps,
                                            expected, got))
    assert shapes["a"] and shapes["b"] and compared >= 4 * 13 * 4
    assert differences == []
