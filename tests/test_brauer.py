"""Brauer class predicates, ramification data and the case classifier."""

import random
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, islice, product

import pytest

from hermlab import brauer
from hermlab.brauer import (
    BrauerClass,
    DivisionKind,
    UnitaryCase,
    bc_base_change,
    bc_is_division,
    bc_is_trivial,
    bc_key,
    bc_ramification,
    bc_single_symbol_rep,
    classify_unitary_case,
    parse_brauer,
    trivial_class,
)
from hermlab.errors import (
    InvalidExtensionError,
    NeedsAssertionError,
    NotDivisionError,
    UnsupportedClassError,
    UnsupportedFieldError,
)
from hermlab.fields import (
    CDVField,
    FiniteField,
    GlobalFunctionField,
    class_to_str,
    minus_one,
    one,
    parse_class,
    parse_field,
    quadratic_extension,
    sqcl_group,
)
from hermlab.quadform import QuadForm, norm_form, qf_is_isotropic
from hermlab.uinv import u_exact

F5 = FiniteField(5)
K1 = CDVField(F5)
K2 = CDVField(K1)
K3 = CDVField(FiniteField(3))


def test_ramification_of_the_model_symbol():
    ram = bc_ramification(parse_brauer(K1, "(u,pi)"))
    assert class_to_str(ram.character) == "u"
    assert bc_is_trivial(ram.residue_class)


def test_ramification_unit_symbol_is_unramified():
    ram = bc_ramification(parse_brauer(K2, "(u,p)"))
    assert ram.character.is_one
    assert str(ram.residue_class) == "(u,pi)"


def test_uniformizer_square_symbol_contributes_minus_one():
    assert bc_ramification(parse_brauer(K1, "(pi,pi)")).character == minus_one(F5)
    k3 = K3
    ram3 = bc_ramification(parse_brauer(k3, "(pi,pi)"))
    assert ram3.character == minus_one(FiniteField(3))
    assert not ram3.character.is_one
    # cross-check through norm forms: (pi,pi) and (-1,pi) have the same class
    a = parse_brauer(k3, "(pi,pi)")
    b = parse_brauer(k3, "(-1,pi)")
    assert bc_is_trivial(BrauerClass(k3, a.symbols + b.symbols))


def test_trivial_tests():
    assert bc_is_trivial(trivial_class(K1))
    assert not bc_is_trivial(parse_brauer(K1, "(u,pi)"))
    assert bc_is_trivial(parse_brauer(K1, "(u,pi);(u,pi)"))
    assert bc_is_trivial(parse_brauer(K1, "(1,pi)"))


def test_trivial_matches_norm_form_for_all_symbols():
    for k in (K1, K2):
        classes = sqcl_group(k)
        for a, b in product(classes, repeat=2):
            single = BrauerClass(k, ((a, b),))
            assert bc_is_trivial(single) == qf_is_isotropic(norm_form(a, b)), \
                str(single)


def test_division_kinds():
    assert bc_is_division(trivial_class(K1)) == DivisionKind.SPLIT
    assert bc_is_division(parse_brauer(K1, "(u,pi)")) == DivisionKind.QUATERNION
    assert bc_is_division(parse_brauer(K1, "(u,pi);(u,pi)")) == DivisionKind.SPLIT
    assert bc_is_division(parse_brauer(K1, "(u,pi);(1,1)")) == DivisionKind.QUATERNION
    with pytest.raises(UnsupportedClassError):
        bc_is_division(parse_brauer(K1, "(u,pi);(u,u);(pi,pi)"))


def test_effective_symbols_are_built_once_and_change_no_identity():
    B = parse_brauer(K2, "(u,p);(1,t)")
    fresh = parse_brauer(K2, "(u,p);(1,t)")
    assert B.effective_symbols is B.effective_symbols
    assert B.effective_symbols == ((parse_class(K2, "u"), parse_class(K2, "p")),)
    assert B == fresh and hash(B) == hash(fresh) and repr(B) == repr(fresh)


def test_division_invariant_under_swap_and_padding():
    B = parse_brauer(K2, "(u,t);(p,u*t)")
    swapped = parse_brauer(K2, "(p,u*t);(u,t)")
    padded = parse_brauer(K2, "(u,t);(p,u*t);(1,u)")
    assert bc_is_division(B) == bc_is_division(swapped) == bc_is_division(padded)


def test_no_two_symbol_class_is_biquaternion_over_height_two():
    classes = sqcl_group(K2)
    symbols = [(a, b) for a in classes for b in classes
               if not a.is_one and not b.is_one]
    for s1 in symbols:
        for s2 in symbols:
            kind = bc_is_division(BrauerClass(K2, (s1, s2)))
            assert kind != DivisionKind.BIQUATERNION


def test_single_symbol_rep_is_minimal_and_equivalent():
    B = parse_brauer(K1, "(u,pi);(u,u)")
    assert bc_is_division(B) == DivisionKind.QUATERNION
    rep = bc_single_symbol_rep(B)
    assert bc_is_trivial(BrauerClass(K1, B.symbols + (rep,)))
    assert bc_single_symbol_rep(parse_brauer(K1, "(u,pi)")) == \
        tuple(parse_brauer(K1, "(u,pi)").symbols[0])
    biquaternion = parse_brauer(CDVField(K2), "(u,pi);(t,s)")
    assert bc_is_division(biquaternion) == DivisionKind.BIQUATERNION
    with pytest.raises(UnsupportedClassError, match="index at most two only"):
        bc_single_symbol_rep(biquaternion)


def _is_trivial_by_residues(B):
    """Reference triviality, the residue recursion on `bc_ramification`: a
    class over a valued layer is trivial iff its character is and its
    residue class is, and a finite field has no Brauer two-torsion."""
    if isinstance(B.field, FiniteField):
        return True
    ram = bc_ramification(B)
    return ram.character.is_one and _is_trivial_by_residues(ram.residue_class)


def _first_trivialising_pair(B):
    """Reference search: every square-class pair in order, each tested by
    re-ramifying the whole class B + (a, b)."""
    classes = sqcl_group(B.field)
    for a in classes:
        for b in classes:
            if _is_trivial_by_residues(BrauerClass(B.field, B.symbols + ((a, b),))):
                return (a, b)
    return None


def _symbol_lists(k, stride):
    """Every stride-th list of one or two symbols over k, up to order."""
    symbols = list(product(sqcl_group(k), repeat=2))
    lists = chain(((s,) for s in symbols), combinations_with_replacement(symbols, 2))
    for syms in islice(lists, 0, None, stride):
        yield BrauerClass(k, syms)


def _tower(base, h):
    k = parse_field(base)
    for _ in range(h):
        k = CDVField(k)
    return k


@pytest.mark.parametrize("base", ["F3", "F5", "F7", "F3^2"])
@pytest.mark.parametrize("h,stride", [(1, 1), (2, 1), (3, 97), (4, 1543)])
def test_key_triviality_matches_the_residue_recursion(base, h, stride):
    k = _tower(base, h)
    for B in _symbol_lists(k, stride):
        assert bc_is_trivial(B) == _is_trivial_by_residues(B), str(B)


@pytest.mark.parametrize("p", [3, 5])
def test_index_is_a_function_of_the_key(p):
    # (height, keys, stride, split / quaternion / biquaternion keys); every
    # 47th list at height 4 still reaches all 1024 keys
    for h, keys, stride, kinds in ((1, 2, 1, None), (2, 8, 1, None), (3, 64, 3, (1, 35, 28)),
                                   (4, 1024, 47, (1, 155, 868))):
        index_of = {}
        for B in _symbol_lists(_tower(f"F{p}", h), stride):
            index = bc_is_division(B)
            assert index_of.setdefault(bc_key(B), index) is index, str(B)
        assert len(index_of) == keys
        if kinds:
            counts = Counter(index_of.values())
            assert tuple(counts[kind] for kind in DivisionKind) == kinds


def _two_symbol_classes(k, stride):
    """Every stride-th unordered pair of distinct symbols with nontrivial
    slots over k, with the index of its class."""
    nontrivial = sqcl_group(k)[1:]
    symbols = list(product(nontrivial, repeat=2))
    for pair in islice(combinations(symbols, 2), 0, None, stride):
        B = BrauerClass(k, pair)
        yield B, bc_is_division(B)


# split and biquaternion classes among the pairs that give the `expected`
# quaternion classes below
_SPLIT_AND_BIQUATERNION = {
    "CDV(F3)": (18, 0), "CDV(F5)": (18, 0), "CDV(F7)": (18, 0),
    "CDV(CDV(F3))": (126, 0), "CDV(CDV(CDV(F5)))": (3, 38),
    "CDV(CDV(CDV(CDV(F3))))": (2, 84),
}


@pytest.mark.parametrize("field,stride,expected", [
    ("CDV(F3)", 1, 18),
    ("CDV(F5)", 1, 18),
    ("CDV(F7)", 1, 18),
    ("CDV(CDV(F3))", 1, 1050),
    ("CDV(CDV(CDV(F5)))", 251, 60),
    ("CDV(CDV(CDV(CDV(F3))))", 4001, 30),
])
def test_single_symbol_rep_is_the_first_trivialising_pair(field, stride, expected):
    k = parse_field(field)
    seen = {kind: 0 for kind in DivisionKind}
    for B, index in _two_symbol_classes(k, stride):
        if index is DivisionKind.BIQUATERNION:
            with pytest.raises(UnsupportedClassError):
                bc_single_symbol_rep(B)
        else:
            assert bc_single_symbol_rep(B) == _first_trivialising_pair(B), str(B)
        seen[index] += 1
    assert seen[DivisionKind.QUATERNION] == expected
    assert (seen[DivisionKind.SPLIT], seen[DivisionKind.BIQUATERNION]) == \
        _SPLIT_AND_BIQUATERNION[field]


@pytest.mark.parametrize("h,stride", [(1, 1), (2, 1), (3, 7)])
def test_single_symbol_rep_depends_on_height_and_minus_one_only(h, stride):
    # -1 is a nonsquare over F3, F7 and F11 and a square over F5 and F13;
    # the primes alternate class by class, so a table shared across the two
    # groups would answer one group with the other's pair
    groups = {1: [_tower(f"F{p}", h) for p in (3, 7, 11)],
              0: [_tower(f"F{p}", h) for p in (5, 13)]}
    fields = [k for pair in zip(groups[1], groups[0]) for k in pair] + groups[1][2:]
    n = 2 << h
    for masks in islice(product(range(n), repeat=2), 0, None, stride):
        reps = {}
        for k in fields:
            B = BrauerClass(k, (tuple(sqcl_group(k)[m] for m in masks),))
            rep = bc_single_symbol_rep(B)
            assert rep == _first_trivialising_pair(B), str(B)
            reps.setdefault(minus_one(k).data, set()).add(tuple(c.data for c in rep))
        assert all(len(pairs) == 1 for pairs in reps.values()), masks


def _ref_single_symbol_table(h, m1):
    """Reference table: the key of every mask pair, a outer and b inner,
    each computed on its own; the first pair per key is kept."""
    table = {}
    for a in range(2 << h):
        for b in range(2 << h):
            table.setdefault(brauer._symbol_key(a, b, h, m1), (a, b))
    return table


@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("m1", [0, 1])
def test_single_symbol_table_matches_the_double_loop(h, m1):
    table, ref = brauer._single_symbol_table(h, m1), _ref_single_symbol_table(h, m1)
    # same keys, same first pair per key, same order
    assert list(table.items()) == list(ref.items())


def _ref_ramification(B):
    """Reference ramification data: each slot split by `decompose`, the
    character built as a product of classes."""
    res = B.field.residue
    character, residue_symbols = one(res), []
    for a, b in B.symbols:
        (s, i), (t, j) = a.decompose(), b.decompose()
        if j:
            character = character * s
        if i:
            character = character * t
        if i and j:
            character = character * minus_one(res)
        if not s.is_one and not t.is_one:
            residue_symbols.append((s, t))
    return character, BrauerClass(res, tuple(residue_symbols))


def _assert_ramification_matches(B):
    ram = bc_ramification(B)
    character, residue_class = _ref_ramification(B)
    assert ram.character is character, str(B)
    assert ram.residue_class == residue_class, str(B)


@pytest.mark.parametrize("base", ["F3", "F5"])
@pytest.mark.parametrize("h", [1, 2])
def test_mask_ramification_matches_decompose_on_every_pair(base, h):
    k = _tower(base, h)
    symbols = list(product(sqcl_group(k), repeat=2))
    for sym in symbols:
        _assert_ramification_matches(BrauerClass(k, (sym,)))
    for pair in islice(combinations_with_replacement(symbols, 2), 0, None, 7):
        _assert_ramification_matches(BrauerClass(k, pair))


def test_mask_ramification_matches_decompose_with_names():
    k = parse_field("CDV(CDV(GFF(9)))")
    rng = random.Random(27)

    def random_class():
        names = frozenset(n for n in ("v", "w", "x") if rng.random() < 0.4)
        text = "*".join(sorted(names) + [g for g in ("pi", "t") if rng.random() < 0.5])
        return parse_class(k, text or "1")

    for _ in range(300):
        syms = tuple((random_class(), random_class()) for _ in range(rng.randint(1, 3)))
        _assert_ramification_matches(BrauerClass(k, syms))


def test_base_change_by_ramified_map_unramifies():
    for k in (K1, K2):
        classes = sqcl_group(k)
        lam = next(c for c in classes if c.decompose()[1] == 1)
        m = quadratic_extension(k, lam)
        for a, b in product(classes[:4], repeat=2):
            moved = bc_base_change(BrauerClass(k, ((a, b),)), m)
            assert bc_ramification(moved).character.is_one


def test_base_change_model_computation():
    B = parse_brauer(K1, "(u,pi)")
    m = quadratic_extension(K1, parse_class(K1, "pi"))
    assert bc_is_trivial(bc_base_change(B, m))
    m2 = quadratic_extension(K1, parse_class(K1, "u*pi"))
    assert bc_is_trivial(bc_base_change(B, m2))


def test_base_change_by_independent_unit_keeps_ramification():
    B = parse_brauer(K2, "(p,t)")
    m = quadratic_extension(K2, parse_class(K2, "u"))
    moved = bc_base_change(B, m)
    assert not bc_ramification(moved).character.is_one


def test_classifier_case3_on_ramified_extension():
    B = parse_brauer(K2, "(u,p)")
    res = classify_unitary_case(B, parse_class(K2, "t"), DivisionKind.QUATERNION, False)
    assert res.case == UnitaryCase.CASE3
    assert str(res.residue_unramified) == "(u,pi)"


def test_classifier_case3_makes_one_base_change(monkeypatch):
    # the extended index and the extended residue class come from one base change
    calls = []

    def counted(B, m):
        calls.append(B)
        return bc_base_change(B, m)

    monkeypatch.setattr(brauer, "bc_base_change", counted)
    res = classify_unitary_case(parse_brauer(K2, "(u,p)"), parse_class(K2, "t"),
                                DivisionKind.QUATERNION, False)
    assert (res.case, str(res.residue_unramified), res.reduced) == \
        (UnitaryCase.CASE3, "(u,pi)", False)
    assert len(calls) == 1


def test_classifier_case2_on_ramified_algebra():
    B = parse_brauer(K2, "(u,t)")
    res = classify_unitary_case(B, parse_class(K2, "p"), DivisionKind.QUATERNION, False)
    assert res.case == UnitaryCase.CASE2
    assert class_to_str(res.character) == "u"


def test_classifier_case1_for_field_case():
    res = classify_unitary_case(trivial_class(K2), parse_class(K2, "u"),
                                DivisionKind.SPLIT, False)
    assert res.case == UnitaryCase.CASE1


def test_classifier_division_precondition():
    B = parse_brauer(K2, "(u,p)")
    for lam in ("u", "p", "u*p"):
        with pytest.raises(NotDivisionError) as err:
            u_exact(B, "zero", parse_class(K2, lam))
        assert err.value.witness is not None
        assert qf_is_isotropic(err.value.witness)
    Bram = parse_brauer(K2, "(u,t)")
    with pytest.raises(NotDivisionError):
        u_exact(Bram, "zero", parse_class(K2, "u"))  # same unit class
    with pytest.raises(NotDivisionError):
        u_exact(Bram, "zero", parse_class(K2, "t"))  # extension splits it


def test_extended_index_keeps_the_index():
    res = classify_unitary_case(parse_brauer(K2, "(u,t)"), parse_class(K2, "p"),
                                DivisionKind.QUATERNION, False)
    assert (res.case, res.reduced) == (UnitaryCase.CASE2, False)
    res = classify_unitary_case(trivial_class(K2), parse_class(K2, "u"),
                                DivisionKind.SPLIT, False)
    assert (res.case, res.reduced) == (UnitaryCase.CASE1, False)


def test_extended_index_splits_only_with_morita():
    B, lam = parse_brauer(K2, "(u,t)"), parse_class(K2, "t")
    res = classify_unitary_case(B, lam, DivisionKind.QUATERNION, True)
    assert (res.case, res.reduced) == (UnitaryCase.CASE3, True)
    assert (class_to_str(res.character), str(res.residue_unramified)) == ("1", "1")
    with pytest.raises(NotDivisionError) as err:
        classify_unitary_case(B, lam, DivisionKind.QUATERNION, False)
    assert str(err.value) == ("the algebra does not stay division over the "
                              "extension (quaternion became split)")
    assert qf_is_isotropic(err.value.witness)


def test_lost_index_witness_reads_the_effective_symbols():
    """A split symbol written into the class leaves the witness as it is:
    the isotropic index form over the extension of the symbols that count."""
    k = parse_field("CDV(CDV(F5))")
    witnesses = []
    for text in ("(u,t);(1,pi);(pi,t)", "(u,t);(pi,t)"):
        with pytest.raises(NotDivisionError) as err:
            classify_unitary_case(parse_brauer(k, text), parse_class(k, "t"),
                                  DivisionKind.QUATERNION, False)
        witnesses.append(err.value.witness)
    assert isinstance(witnesses[0], QuadForm) and qf_is_isotropic(witnesses[0])
    assert witnesses[0] == witnesses[1]


def test_extended_index_refuses_a_lost_biquaternion():
    k = parse_field("CDV(CDV(CDV(F5)))")
    B = parse_brauer(k, "(u,pi);(t,s)")
    for morita in (False, True):
        with pytest.raises(NotDivisionError) as err:
            classify_unitary_case(B, parse_class(k, "u"), DivisionKind.BIQUATERNION, morita)
        assert str(err.value).endswith("(biquaternion became quaternion)")
        assert qf_is_isotropic(err.value.witness)


def test_classifier_rejects_trivial_extension_class():
    with pytest.raises(InvalidExtensionError):
        classify_unitary_case(parse_brauer(K1, "(u,pi)"), parse_class(K1, "1"),
                              DivisionKind.QUATERNION, False)


def test_gff_residue_needs_assertion():
    kg = CDVField(GlobalFunctionField(9))
    B = parse_brauer(kg, "(a,b)")
    with pytest.raises(NeedsAssertionError):
        u_exact(B, "zero", parse_class(kg, "v"))
    res = classify_unitary_case(B, parse_class(kg, "v"), DivisionKind.QUATERNION, False)
    assert res.case == UnitaryCase.CASE1
    with pytest.raises(UnsupportedFieldError):
        bc_is_division(B)


def test_gff_triviality_only_for_degenerate_lists():
    g = GlobalFunctionField(9)
    kg = CDVField(g)
    assert bc_is_trivial(trivial_class(kg))
    assert bc_is_trivial(parse_brauer(kg, "(1,v)"))
    with pytest.raises(UnsupportedFieldError, match="triviality"):
        bc_is_trivial(parse_brauer(kg, "(a,b)"))
    with pytest.raises(UnsupportedFieldError):
        bc_key(trivial_class(kg))


def test_ramification_needs_valued_layer():
    with pytest.raises(UnsupportedFieldError):
        bc_ramification(trivial_class(F5))
