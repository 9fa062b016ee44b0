"""The u-invariant recursion, witnesses, bounds and descent."""

import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from hermlab import uinv
from hermlab.brauer import (
    BrauerClass,
    DivisionKind,
    bc_is_division,
    bc_is_trivial,
    bc_key,
    classify_unitary_case,
    parse_brauer,
    trivial_class,
)
from hermlab.errors import (
    FieldMismatchError,
    GapError,
    HermlabError,
    InvalidExtensionError,
    NeedsAssertionError,
    NotDivisionError,
    UnsupportedClassError,
)
from hermlab.fields import (
    CDVField,
    FiniteField,
    GlobalFunctionField,
    SquareClass,
    class_to_str,
    one,
    parse_class,
    parse_field,
    quadratic_extension,
    sqcl_group,
)
from hermlab.hermitian import (HermFormDesc, UKind, canonical_involution, u_search,
                               unitary_involution)
from hermlab.quadform import u_quadratic
from hermlab.uinv import (
    MAX_BOUND_LEVEL,
    MAX_TENSOR_FACTORS,
    bounds_ai,
    bounds_tensor,
    expected_table,
    semi_global_combine,
    sequence_abc,
    sequence_abc_recursive,
    tensor_comparison_bound,
    u_exact,
    witness,
)

K1 = parse_field("CDV(F5)")
K2 = parse_field("CDV(CDV(F5))")
KG = parse_field("CDV(GFF(9))")
RESIDUE = frozenset({"residue"})


def pc(k, s):
    return parse_class(k, s)


def child_values(derivation):
    return tuple(c.value for c in derivation.numeric_children())


# recursion values -----------------------------------------------------------

def test_local_quaternion_values():
    B = parse_brauer(K1, "(u,pi)")
    plus = u_exact(B, "plus")
    assert (plus.value, child_values(plus.derivation)) == (3, (1, 2))
    minus = u_exact(B, "minus")
    assert (minus.value, child_values(minus.derivation)) == (1, (1, 0))
    assert plus.derivation.rule == "ramified-sum"
    assert plus.derivation.audit()


def test_completion_quaternion_unramified():
    B = parse_brauer(K2, "(u,p)")
    plus = u_exact(B, "plus")
    assert plus.value == 6
    assert plus.derivation.combine == "double"
    assert child_values(plus.derivation) == (3,)
    minus = u_exact(B, "minus")
    assert minus.value == 2 and child_values(minus.derivation) == (1,)


@pytest.mark.parametrize("w", ["u", "p", "u*p"])
def test_completion_quaternion_ramified_any_unit(w):
    B = parse_brauer(K2, f"({w},t)")
    plus = u_exact(B, "plus")
    assert plus.value == 6
    assert plus.derivation.combine == "sum"
    assert child_values(plus.derivation) == (2, 4)
    minus = u_exact(B, "minus")
    assert minus.value == 2 and child_values(minus.derivation) == (2, 0)


def test_field_values_match_quadratic_engine():
    for k in (K1, K2, CDVField(FiniteField(3))):
        assert u_exact(trivial_class(k), "plus").value == u_quadratic(k)
        assert u_exact(trivial_class(k), "minus").value == 0


def test_split_class_treated_as_field():
    B = parse_brauer(K1, "(u,pi);(u,pi)")
    assert u_exact(B, "plus").value == 4


def test_walk_memo_keeps_towers_with_equal_masks_apart():
    # -1 is a nonsquare over F3 and F7, so both walks take the same steps on
    # the same masks; each derivation must still name its own tower
    def labels(d):
        return [d.field_label] + [x for c in d.children for x in labels(c)]

    for kind, cls, lam in (("plus", "(u,pi)", None), ("minus", "(u,pi)", None),
                           ("zero", "1", "u"), ("zero", "(u,pi)", "t")):
        results = []
        for p in (3, 7):
            k = CDVField(CDVField(FiniteField(p)))
            results.append(u_exact(parse_brauer(k, cls), kind, lam and pc(k, lam)))
        (v3, d3), (v7, d7) = results
        assert v3 == v7
        for p, d in ((3, d3), (7, d7)):
            assert all(lb.replace("CDV(", "").startswith(f"F{p}") for lb in labels(d)), d
        assert d7.render() == d3.render().replace("F3", "F7")


def test_unitary_field_extension_values():
    assert u_exact(trivial_class(K1), "zero", pc(K1, "u")).value == 2
    assert u_exact(trivial_class(K1), "zero", pc(K1, "pi")).value == 2
    assert u_exact(trivial_class(K1), "zero", pc(K1, "u*pi")).value == 2
    for lam in ("u", "t", "u*p*t"):
        assert u_exact(trivial_class(K2), "zero", pc(K2, lam)).value == 4


def test_unitary_case_split_shapes():
    case3 = u_exact(parse_brauer(K2, "(u,p)"), "zero", pc(K2, "t"))
    assert case3.value == 4 and child_values(case3.derivation) == (3, 1)
    assert case3.derivation.note.startswith("Case3")
    case2 = u_exact(parse_brauer(K2, "(u,t)"), "zero", pc(K2, "p"))
    assert case2.value == 4 and child_values(case2.derivation) == (2, 2)
    assert case2.derivation.note.startswith("Case2")


def test_unitary_over_gff_residues():
    assert u_exact(trivial_class(KG), "zero", pc(KG, "w")).value == 4
    assert u_exact(trivial_class(KG), "zero", pc(KG, "pi")).value == 4
    B = parse_brauer(KG, "(a,b)")
    case1 = u_exact(B, "zero", pc(KG, "w"), assertions=RESIDUE)
    assert case1.value == 4 and case1.derivation.combine == "double"
    ram = parse_brauer(KG, "(v,pi)")
    case2 = u_exact(ram, "zero", pc(KG, "w"), assertions=RESIDUE)
    assert case2.value == 4 and child_values(case2.derivation) == (2, 2)
    case3 = u_exact(B, "zero", pc(KG, "pi"), assertions=RESIDUE)
    assert case3.value == 4 and child_values(case3.derivation) == (3, 1)
    for res in (case1, case2, case3):
        assert res.derivation.audit()


def test_towers_of_height_two_over_gff():
    k = CDVField(KG)
    assert u_exact(trivial_class(k), "plus").value == 16
    B = parse_brauer(k, "(a,b)")
    assert u_exact(B, "plus", assertions=RESIDUE).value == 12  # 2 * 2 * 3


def test_unitary_preconditions():
    with pytest.raises(InvalidExtensionError):
        u_exact(parse_brauer(K1, "(u,pi)"), "zero")
    with pytest.raises(InvalidExtensionError):
        u_exact(parse_brauer(K1, "(u,pi)"), "zero", pc(K1, "1"))
    with pytest.raises(InvalidExtensionError):
        u_exact(parse_brauer(K1, "(u,pi)"), "plus", pc(K1, "u"))
    with pytest.raises(NotDivisionError):
        u_exact(parse_brauer(K2, "(u,p)"), "zero", pc(K2, "u"))


# Every public entry point that takes an extension class, called with the
# trivial class over K1 as B.
EXTENSION_ENTRY_POINTS = {
    "u_exact": lambda B, lam: u_exact(B, "zero", lam),
    "witness": lambda B, lam: witness(B, B.field, "zero", lam),
    "classify_unitary_case": lambda B, lam: classify_unitary_case(
        B, lam, DivisionKind.SPLIT, False),
    "quadratic_extension": lambda B, lam: quadratic_extension(B.field, lam),
    "HermFormDesc": lambda B, lam: HermFormDesc(B, lam, 1, ()),
    "u_search": lambda B, lam: u_search(B, lam, 1),
    "unitary_involution": lambda B, lam: HermFormDesc(B, unitary_involution(lam), 1, ()),
}


@pytest.mark.parametrize("entry", EXTENSION_ENTRY_POINTS)
@pytest.mark.parametrize("lam, error, message", [
    pytest.param(pc(K1, "1"), InvalidExtensionError,
                 "the trivial class defines no quadratic extension", id="trivial"),
    pytest.param(pc(K2, "u"), FieldMismatchError,
                 "extension class over the wrong field", id="wrong-field"),
])
def test_extension_class_is_refused_by_one_owner(entry, lam, error, message):
    with pytest.raises(error) as err:
        EXTENSION_ENTRY_POINTS[entry](trivial_class(K1), lam)
    assert type(err.value) is error and str(err.value) == message


def test_involutions_are_their_extension_classes():
    lam = pc(K1, "u")
    assert unitary_involution(lam) is lam
    assert canonical_involution() is None
    assert HermFormDesc(trivial_class(K1), lam, 1, ()).shape == "b"


def test_more_than_two_symbols_rejected():
    B = parse_brauer(K2, "(u,t);(p,t);(u,p)")
    with pytest.raises(UnsupportedClassError):
        u_exact(B, "plus")


def test_gff_biquaternion_values_and_assertions():
    B = parse_brauer(KG, "(a,b);(v,pi)")
    with pytest.raises(NeedsAssertionError):
        u_exact(B, "plus")
    plus = u_exact(B, "plus", assertions=RESIDUE)
    minus = u_exact(B, "minus", assertions=RESIDUE)
    assert (plus.value, child_values(plus.derivation)) == (5, (2, 3))
    assert (minus.value, child_values(minus.derivation)) == (3, (2, 1))
    assert plus.derivation.audit() and minus.derivation.audit()

    def count_assertions(node):
        own = 1 if node.rule == "assert:division" else 0
        return own + sum(count_assertions(c) for c in node.children)

    assert count_assertions(plus.derivation) == 2


def test_gff_quaternion_values():
    B = parse_brauer(KG, "(a,b)")
    assert u_exact(B, "plus", assertions=RESIDUE).value == 6  # 2 * 3
    assert u_exact(B, "minus", assertions=RESIDUE).value == 2
    ram = parse_brauer(KG, "(v,pi)")
    assert u_exact(ram, "plus", assertions=RESIDUE).value == 6  # 2 + 4
    assert u_exact(ram, "minus", assertions=RESIDUE).value == 2


def test_biquaternion_directly_over_gff_base_rejected():
    g = GlobalFunctionField(9)
    B = parse_brauer(g, "(a,b);(c,d)")
    with pytest.raises(UnsupportedClassError):
        u_exact(B, "plus", assertions=RESIDUE)


def test_derivation_audit_and_json_shape():
    res = u_exact(parse_brauer(K2, "(u,t)"), "plus")
    assert res.derivation.audit()
    payload = res.derivation.to_json_dict()
    assert set(payload) >= {"rule", "field", "class", "kind", "value", "cite", "children"}
    assert payload["value"] == 6
    assert len(payload["children"]) == 2


def test_audit_rejects_a_wrong_inner_node_and_an_unknown_combinator():
    """audit() is False for a tree whose inner node does not follow from its
    children, however right the root's own arithmetic, and for a node whose
    combinator it does not know."""
    d = u_exact(parse_brauer(K2, "(u,t)"), "plus").derivation
    unit_part = d.children[0]
    assert unit_part.combine != "leaf" and d.audit()
    wrong = unit_part._replace(value=unit_part.value + 1)
    tree = d._replace(children=(wrong, d.children[1]), value=d.value + 1)
    assert tree.value == sum(c.value for c in tree.numeric_children())
    assert not tree.audit()
    assert not d._replace(combine="mean").audit()


def test_recursion_agrees_with_search():
    assert u_exact(parse_brauer(K1, "(u,pi)"), "minus").value == \
        u_search(parse_brauer(K1, "(u,pi)"), canonical_involution(), 1)
    assert u_exact(parse_brauer(K2, "(u,p)"), "minus").value == \
        u_search(parse_brauer(K2, "(u,p)"), canonical_involution(), 1)
    assert u_exact(trivial_class(K1), "zero", pc(K1, "u")).value == \
        u_search(trivial_class(K1), unitary_involution(pc(K1, "u")), 1)


def test_values_stay_under_the_degree_bounds():
    plus6, minus2 = bounds_ai(3, 2)
    assert u_exact(parse_brauer(K2, "(u,p)"), "plus").value <= plus6
    assert u_exact(parse_brauer(K2, "(u,p)"), "minus").value <= minus2
    plus5, minus3 = bounds_ai(3, 4)
    B = parse_brauer(KG, "(a,b);(v,pi)")
    assert u_exact(B, "plus", assertions=RESIDUE).value <= plus5
    assert u_exact(B, "minus", assertions=RESIDUE).value <= minus3
    assert u_exact(parse_brauer(K2, "(u,p)"), "zero",
                   pc(K2, "t")).value <= bounds_ai(3, 2, "second")


# witnesses -------------------------------------------------------------------

def test_witness_examples():
    w1 = witness(parse_brauer(K1, "(u,pi)"), K1, "minus")
    assert [class_to_str(c) for c in w1.entries] == ["1"]
    assert w1.verified and w1.rank == 1
    w2 = witness(parse_brauer(K2, "(u,p)"), K2, "minus")
    assert [class_to_str(c) for c in w2.entries] == ["1", "t"]
    assert w2.verified
    w3 = witness(trivial_class(K1), K1, "zero", pc(K1, "u"))
    assert [class_to_str(c) for c in w3.entries] == ["1", "pi"]
    assert w3.verified


def test_witness_rank_always_matches_value():
    cases = [
        (parse_brauer(K1, "(u,pi)"), K1, "plus", None, frozenset()),
        (parse_brauer(K1, "(u,pi)"), K1, "minus", None, frozenset()),
        (parse_brauer(K2, "(u,t)"), K2, "plus", None, frozenset()),
        (parse_brauer(K2, "(u,t)"), K2, "minus", None, frozenset()),
        (trivial_class(K2), K2, "plus", None, frozenset()),
        (parse_brauer(K2, "(u,p)"), K2, "zero", pc(K2, "t"), frozenset()),
        (parse_brauer(K2, "(u,t)"), K2, "zero", pc(K2, "p"), frozenset()),
        (parse_brauer(KG, "(a,b);(v,pi)"), KG, "plus", None, RESIDUE),
    ]
    for B, k, kind, lam, asserts in cases:
        w = witness(B, k, kind, lam, asserts)
        assert w.rank == u_exact(B, kind, lam, asserts).value
        assert w.verified


def _some_classes(k):
    """Every class of a finite-based k; over a global-function-field base,
    each uniformizer parity times each product of the units a and b."""
    if isinstance(k.base, FiniteField):
        return sqcl_group(k)
    return [SquareClass(k, m, frozenset(names)) for m in range(0, 2 << k.height, 2)
            for names in ((), ("a",), ("b",), ("a", "b"))]


def test_every_value_up_to_the_witness_bound_has_a_witness():
    """Wherever u_exact gives a value of at most MAX_WITNESS_RANK, witness
    succeeds with that rank, over a global-function-field base too, where a
    split class's minus witness is the empty form."""
    rng = random.Random("witness for every value")
    empty_over_gff = 0
    for text in ("F5", "CDV(F3)", "CDV(CDV(F5))", "GFF(9)", "CDV(GFF(9))",
                 "CDV(CDV(GFF(27)))"):
        k = parse_field(text)
        classes = _some_classes(k)
        for kind in ("plus", "minus", "zero"):
            for _ in range(30):
                B = BrauerClass(k, tuple((rng.choice(classes), rng.choice(classes))
                                         for _ in range(rng.choice((0, 1, 2)))))
                lam = rng.choice(classes[1:]) if kind == "zero" else None
                try:
                    value = u_exact(B, kind, lam, RESIDUE).value
                except HermlabError:
                    continue
                if value <= uinv.MAX_WITNESS_RANK:
                    w = witness(B, k, kind, lam, RESIDUE)
                    assert w.rank == value, (text, str(B), kind, lam)
                    empty_over_gff += w.rank == 0 and isinstance(k.base, GlobalFunctionField)
    assert empty_over_gff


def test_witness_flattens_ramified_minus():
    w = witness(parse_brauer(K2, "(u,t)"), K2, "minus")
    assert w.entries is not None and len(w.entries) == 2
    assert w.verified


def test_witness_plus_field_is_quadratic():
    w = witness(trivial_class(K2), K2, "plus")
    assert [class_to_str(c) for c in w.entries] == \
        ["1", "u", "pi", "u*pi", "t", "u*t", "pi*t", "u*pi*t"]
    assert w.rank == 8 and w.verified


def test_verify_flat_rejects_each_unverifiable_witness():
    B = parse_brauer(K1, "(u,pi)")
    one_, m1 = pc(K1, "1"), pc(K1, "-1")
    quaternion, split = (DivisionKind.QUATERNION, B), (DivisionKind.SPLIT, trivial_class(K1))
    # the zero kind over a non-split index, and the plus kind, have no flat decider
    assert not uinv._verify_flat(quaternion, UKind.ZERO, pc(K1, "u"), (one_,))
    assert not uinv._verify_flat(quaternion, UKind.PLUS, None, (one_,))
    # isotropic flat forms: quadratic, quaternion-minus and unitary
    assert not uinv._verify_flat(split, UKind.MINUS, None, (one_, m1))
    assert not uinv._verify_flat(quaternion, UKind.MINUS, None, (one_, one_))
    assert not uinv._verify_flat(split, UKind.ZERO, pc(K1, "u"), (one_,) * 3)
    # and their anisotropic counterparts pass
    assert uinv._verify_flat(split, UKind.MINUS, None, (one_, pc(K1, "u")))
    assert uinv._verify_flat(quaternion, UKind.MINUS, None, (one_,))
    assert uinv._verify_flat(split, UKind.ZERO, pc(K1, "u"), (one_, pc(K1, "pi")))


def test_split_minus_leaf_is_one_record_over_every_base():
    """The minus value of a field is 0 with the empty witness, whether the
    walk reaches it over a finite residue or over a global-function-field
    extension (the parameter-twisted part of a ramified sum)."""
    finite = witness(parse_brauer(K1, "(u,pi)"), K1, "minus").node.children[1]
    gff = witness(parse_brauer(KG, "(v,pi)"), KG, "minus").node.children[1]
    assert finite.to_json_dict() == {"field": "F5^2", "op": "empty", "rank": 0}
    assert gff.to_json_dict() == {"field": "GFF(9)[sqrt(v)]", "op": "empty", "rank": 0}
    for leaf in (finite, gff):
        assert (leaf.derivation.rule, leaf.value, leaf.entries) == ("base:field-minus", 0, ())


def test_witness_drops_rejected_flat_entries(monkeypatch):
    B = parse_brauer(K1, "(u,pi)")
    assert witness(B, K1, "minus").entries is not None
    monkeypatch.setattr(uinv, "_verify_flat", lambda *args: False)
    w = witness(B, K1, "minus")
    assert (w.rank, w.entries, w.verified) == (1, None, False)


def test_witness_symbolic_tree_has_concrete_leaves():
    w = witness(parse_brauer(K2, "(u,p)"), K2, "plus")
    assert w.entries is None and w.rank == 6 and w.verified

    def leaves(node):
        if not node.children:
            yield node
        for c in node.children:
            yield from leaves(c)

    kinds = {leaf.op for leaf in leaves(w.node)}
    assert kinds <= {"quad", "unitary", "empty", "axiom"}
    assert any(leaf.entries for leaf in leaves(w.node))


# bounds and sequences --------------------------------------------------------

def test_degree_bound_values():
    assert bounds_ai(3, 2) == (6, 2)
    assert bounds_ai(3, 4) == (5, 3)
    assert bounds_ai(2, 2) == (3, 1)
    assert bounds_ai(3, 7, "second") == 4
    n = 4
    assert bounds_ai(n + 2, 2) == (3 * 2 ** n, 2 ** n)
    with pytest.raises(ValueError):
        bounds_ai(0, 2)
    with pytest.raises(ValueError):
        bounds_ai(3, 2, "third")


def test_sequence_closed_form_and_recursion_agree():
    for n in range(1, 21):
        closed = sequence_abc(n)
        rec = sequence_abc_recursive(n)
        assert (closed.a, closed.b, closed.c) == (rec.a, rec.b, rec.c)
    with pytest.raises(ValueError):
        sequence_abc(0)


def test_sequence_recursion_agrees_in_any_order():
    # The recursion resumes from kept states: ask out of order and past the
    # last kept index.
    for n in (90, 3, 64, 65, 1, 200, 40):
        closed, rec = sequence_abc(n), sequence_abc_recursive(n)
        assert (closed.a, closed.b, closed.c) == (rec.a, rec.b, rec.c)


def test_sequence_values():
    s1 = sequence_abc(1)
    assert (s1.a, s1.b, s1.c) == (Fraction(5, 4), Fraction(1, 4), Fraction(7, 8))
    s2 = sequence_abc(2)
    assert s2.a == Fraction(29, 16) and s2.b == Fraction(13, 16)


def test_sequence_identities_exact():
    for n in range(1, 21):
        cur = sequence_abc(n)
        nxt = sequence_abc(n + 1)
        assert nxt.a == Fraction(3, 4) * cur.a + cur.c
        assert nxt.b == Fraction(3, 2) * cur.b + Fraction(1, 2) * cur.c
        assert cur.c == Fraction(1, 2) * cur.a + cur.b
        assert Fraction(3, 2) * cur.a >= cur.c >= Fraction(3, 2) * cur.b


def test_tensor_bounds():
    tb = bounds_tensor(2, 8)
    assert tb.plus == Fraction(29, 2)
    assert tb.minus == Fraction(13, 2)
    assert tb.floor_minus == 6
    assert tb.zero == Fraction(55, 4)
    assert tb.derivation.audit()
    tb1 = bounds_tensor(1, Fraction(4))
    assert (tb1.plus, tb1.minus, tb1.zero) == \
        (Fraction(5), Fraction(1), Fraction(7, 2))
    steps = [c for c in tb.derivation.children if c.rule == "induction-step"]
    assert len(steps) == 1 and "takes left" in steps[0].cite


def test_tensor_bounds_render_their_product_nodes():
    derivation = bounds_tensor(2, 8).derivation
    assert [c.chain() for c in derivation.children] == [
        "tensor-bound: 29/16*8=29/2", "tensor-bound: 13/16*8=13/2",
        "tensor-bound: 55/32*8=55/4", "induction-step: 29/16"]
    assert derivation.render().splitlines() == [
        "tensor-bounds: None  [- over -, class 2 quaternion factors]",
        "  tensor-bound: 29/16*8=29/2  [plus over -, class 2 quaternion factors]",
        "    seq:closed-form: 29/16  [plus over -, class -]",
        "    base-u: 8  [- over -, class -]",
        "  tensor-bound: 13/16*8=13/2  [minus over -, class 2 quaternion factors]",
        "    seq:closed-form: 13/16  [minus over -, class -]",
        "    base-u: 8  [- over -, class -]",
        "  tensor-bound: 55/32*8=55/4  [zero over -, class 2 quaternion factors]",
        "    seq:closed-form: 55/32  [zero over -, class -]",
        "    base-u: 8  [- over -, class -]",
        "  induction-step: 29/16  [- over -, class -]",
    ]


def test_tensor_factor_count_is_bounded():
    def timeout(signum, frame):
        raise TimeoutError("bounds_tensor(100000) did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="above the supported bound"):
            bounds_tensor(100000, 8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert bounds_tensor(MAX_TENSOR_FACTORS, 1).n == MAX_TENSOR_FACTORS


def test_bound_level_is_bounded():
    with pytest.raises(ValueError, match="above the supported bound"):
        bounds_ai(MAX_BOUND_LEVEL + 1, 2)
    assert bounds_ai(MAX_BOUND_LEVEL, 2, "second") == Fraction(2) ** (MAX_BOUND_LEVEL - 1)


def test_tensor_bound_beats_comparison():
    for n in range(3, 11):
        assert sequence_abc(n).a < tensor_comparison_bound(n)


def test_descent_combines_matching_sides():
    lower = (u_exact(parse_brauer(K2, "(u,p)"), "plus"),
             u_exact(parse_brauer(K2, "(u,p)"), "minus"))
    res = semi_global_combine("quaternion", bounds_ai(3, 2), lower)
    assert res.values == (6, 2)
    for d in res.derivations:
        assert d.audit()
        rules = {c.rule for c in d.children}
        assert "hypothesis:divisorial-completion" in rules and "bound" in rules


def test_descent_rejects_gaps():
    lower = (u_exact(parse_brauer(K2, "(u,p)"), "plus"),
             u_exact(parse_brauer(K2, "(u,p)"), "minus"))
    with pytest.raises(GapError):
        semi_global_combine("quaternion", bounds_ai(3, 4), lower)


def test_expected_table_all_pass():
    for p in (3, 5, 7):
        table = expected_table(p=p)
        assert len(table) == 38
        for entry in table:
            assert entry.compute() == entry.expected, \
                f"{entry.section}/{entry.instance} at p={p}"


def _one_list_per_key(k):
    """The first list with each Brauer key among all single symbols over k,
    then all unordered pairs of distinct symbols."""
    symbols = list(product(sqcl_group(k), repeat=2))
    first = {}
    for syms in chain(((s,) for s in symbols), combinations(symbols, 2)):
        B = BrauerClass(k, syms)
        first.setdefault(bc_key(B), B)
    return list(first.values())


_DEGREE = {DivisionKind.SPLIT: 1, DivisionKind.QUATERNION: 2, DivisionKind.BIQUATERNION: 4}


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("h,kinds,refused", [
    (1, (1, 1, 0), {DivisionKind.QUATERNION: 3}),
    (2, (1, 7, 0), {DivisionKind.QUATERNION: 21}),
    (3, (1, 35, 28), {DivisionKind.QUATERNION: 105, DivisionKind.BIQUATERNION: 420}),
])
def test_every_class_attains_the_degree_bounds(p, h, kinds, refused):
    """Every Brauer class of the height-h tower, split, quaternion or
    biquaternion of degree d, has (plus, minus) = bounds_ai(h+1, d), and
    every nontrivial lambda gives the unitary value 2**h or is refused."""
    k = parse_field(f"F{p}")
    for _ in range(h):
        k = CDVField(k)
    seen, refusals = Counter(), Counter()
    for B in _one_list_per_key(k):
        kind = bc_is_division(B)
        seen[kind] += 1
        assert (u_exact(B, "plus").value, u_exact(B, "minus").value) \
            == bounds_ai(h + 1, _DEGREE[kind]), str(B)
        for lam in sqcl_group(k)[1:]:
            try:
                assert u_exact(B, "zero", lam).value == bounds_ai(h + 1, 2, "second"), \
                    f"{B} over {class_to_str(lam)}"
            except NotDivisionError:
                refusals[kind] += 1
    assert tuple(seen[kind] for kind in DivisionKind) == kinds
    assert refusals == refused


@pytest.mark.parametrize("p", [3, 5])
def test_every_division_symbol_over_height_two(p):
    """Exhaustive cross-validation: recursion, search and witnesses agree on
    every single-symbol division class, for both first-kind values and every
    admissible unitary extension."""
    from itertools import product

    from hermlab.brauer import BrauerClass, DivisionKind, bc_is_division
    from hermlab.fields import sqcl_group

    k2 = parse_field(f"CDV(CDV(F{p}))")
    classes = sqcl_group(k2)
    division = 0
    for a, b in product(classes, repeat=2):
        B = BrauerClass(k2, ((a, b),))
        if bc_is_division(B) != DivisionKind.QUATERNION:
            continue
        division += 1
        assert u_exact(B, "plus").value == 6
        assert u_exact(B, "minus").value == 2
        assert u_search(B, canonical_involution(), 1) == 2
        wm = witness(B, k2, "minus")
        assert wm.rank == 2 and wm.verified
        for lam in classes:
            if lam.is_one:
                continue
            try:
                value = u_exact(B, "zero", lam).value
            except NotDivisionError:
                continue
            assert value == 4
            w0 = witness(B, k2, "zero", lam)
            assert w0.rank == 4 and w0.verified
    assert division == 42


# height-3 exhaustive checks --------------------------------------------------

HEIGHT_THREE = pytest.mark.parametrize("K3", [parse_field(f"CDV(CDV(CDV(F{p})))") for p in (3, 5)],
                                       ids=str)


@HEIGHT_THREE
def test_quadratic_u_at_height_three(K3):
    assert u_quadratic(K3) == 16


def _quaternion_index_classes(k):
    """One symbol per quaternion-index class: a new symbol is kept unless
    its sum with a kept one is trivial."""
    kept = []
    classes = sqcl_group(k)[1:]
    for a in classes:
        for b in classes:
            B = BrauerClass(k, ((a, b),))
            if bc_is_division(B) is not DivisionKind.QUATERNION:
                continue
            if not any(bc_is_trivial(BrauerClass(k, B.symbols + C.symbols)) for C in kept):
                kept.append(B)
    return kept


@HEIGHT_THREE
def test_shape_a_search_matches_recursion_at_height_three(K3):
    classes = _quaternion_index_classes(K3)
    assert len(classes) == 35
    for B in classes:
        assert u_search(B, canonical_involution(), 1) == u_exact(B, "minus").value, str(B)


@HEIGHT_THREE
def test_shape_b_search_matches_recursion_at_height_three(K3):
    lams = sqcl_group(K3)[1:]
    assert len(lams) == 15
    for lam in lams:
        assert (u_search(trivial_class(K3), unitary_involution(lam), 1)
                == u_exact(trivial_class(K3), "zero", lam).value), class_to_str(lam)


# the per-process memo of the residue walk -------------------------------------

def _clear_walk_memos():
    for step in (uinv._category, uinv._step):
        step.cache_clear()


def _walk_sample(seed=15):
    """Seeded (class, kind, lambda) instances at heights 1-4, p = 3 and 5,
    one or two symbols, every kind."""
    rng = random.Random(seed)
    sample = []
    for p in (3, 5):
        k = parse_field(f"F{p}")
        for _ in range(4):
            k = CDVField(k)
            classes = sqcl_group(k)[1:]
            for kind in ("plus", "minus", "zero"):
                for nsym in (1, 2, 2):
                    syms = tuple((rng.choice(classes), rng.choice(classes))
                                 for _ in range(nsym))
                    lam = rng.choice(classes) if kind == "zero" else None
                    sample.append((BrauerClass(k, syms), k, kind, lam))
    return sample


def _walk_outcome(B, k, kind, lam, witness_first=False):
    """Everything u_exact and witness return on one input, or the refusal."""
    try:
        if witness_first:
            w = witness(B, k, kind, lam)
            r = u_exact(B, kind, lam)
        else:
            r = u_exact(B, kind, lam)
            w = witness(B, k, kind, lam)
    except HermlabError as exc:
        return type(exc).__name__, str(exc)
    return (r.value, r.derivation.to_json_dict(), w.node.to_json_dict(),
            w.rank, w.entries, w.verified)


def test_walk_memo_is_invisible():
    """Cold (memos cleared before each input), warm, and with witness
    called first, u_exact and witness give the same trees and entries."""
    sample = _walk_sample()
    cold = []
    for inst in sample:
        _clear_walk_memos()
        cold.append(_walk_outcome(*inst))
    warm = [_walk_outcome(*inst) for inst in sample]
    _clear_walk_memos()
    witness_first = [_walk_outcome(*inst, witness_first=True) for inst in sample]
    assert warm == cold
    assert witness_first == cold
    refusals = Counter(out[0] for out in cold if isinstance(out[0], str))
    assert set(refusals) == {"NotDivisionError"}
    assert 0 < refusals["NotDivisionError"] < len(sample) // 2


def test_class_from_lists_walks_like_one_from_tuples():
    a, b = pc(K2, "u"), pc(K2, "t")
    from_lists, from_tuples = BrauerClass(K2, [[a, b]]), BrauerClass(K2, ((a, b),))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    for kind, lam in (("plus", None), ("minus", None), ("zero", pc(K2, "p"))):
        _clear_walk_memos()
        listed = _walk_outcome(from_lists, K2, kind, lam)
        _clear_walk_memos()
        assert listed == _walk_outcome(from_tuples, K2, kind, lam)


def test_walk_failures_are_raised_every_time():
    k4 = parse_field("CDV(CDV(CDV(CDV(F3))))")
    B = parse_brauer(k4, "(u,pi);(t,s*s2)")
    assert bc_is_division(B) is DivisionKind.BIQUATERNION
    for _ in range(2):
        with pytest.raises(NotDivisionError):
            u_exact(B, "plus")
    quaternion = parse_brauer(KG, "(a,b)")
    assert u_exact(quaternion, "plus", assertions=RESIDUE).value == 6
    for _ in range(2):
        with pytest.raises(NeedsAssertionError):
            u_exact(quaternion, "plus")


# metamorphic relations: the same algebra written another way ------------------

def _outcome(B, kind, lam):
    """What may depend only on the algebra, not on how it is written: the
    value, the witness rank, whether the witness verified and whether the
    derivation audits, or the type of the refusal.  Derivation text is
    left out, because a rewritten class prints other symbols."""
    try:
        r = u_exact(B, kind, lam)
        w = witness(B, B.field, kind, lam)
    except HermlabError as exc:
        return type(exc).__name__
    return r.value, w.rank, w.verified, r.derivation.audit()


def _relabel(k, layer):
    """The uniformizer change t_L -> u*t_L at layer L (p -> u*p at L = 1):
    every class with bit L set is multiplied by u.  At L >= 2 it is an
    automorphism of a Laurent series field over its coefficients; at L = 1 it
    keeps -1 and the Hilbert symbol for odd p, so it keeps every isotropy."""
    return lambda c: SquareClass(k, c.data ^ (c.data >> layer & 1))


def _rewritings(B, lam, rng):
    """(relation, class, lam) for each rewriting of B that names the same
    algebra: symbol order, slots swapped, the bilinear split (a, b) =
    (a, b1) + (a, b*b1) of a one-symbol class (Lam, Introduction to
    Quadratic Forms over Fields, 2005, ch. III), a split symbol (1, c) or
    (c, 1) appended, and the uniformizer change at every layer."""
    k, syms = B.field, B.symbols
    c = syms[0][1]  # not drawn from rng, so the seeded classes stay the same
    yield "trivial first slot", BrauerClass(k, syms + ((one(k), c),)), lam
    yield "trivial second slot", BrauerClass(k, syms + ((c, one(k)),)), lam
    if len(syms) > 1:
        yield "order", BrauerClass(k, syms[::-1]), lam
    yield "swap", BrauerClass(k, tuple((b, a) for a, b in syms)), lam
    if len(syms) == 1:
        (a, b), = syms
        b1 = rng.choice(sqcl_group(k)[1:])
        yield "split", BrauerClass(k, ((a, b1), (a, b * b1))), lam
    for layer in range(1, k.height + 1):
        f = _relabel(k, layer)
        yield (f"relabel layer {layer}", BrauerClass(k, tuple((f(a), f(b)) for a, b in syms)),
               None if lam is None else f(lam))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_rewriting_the_class_keeps_the_outcome(p, h):
    """25 seeded classes of one or two symbols per kind give the same
    outcome under every rewriting.  Height 4 is left out: there the walk
    refuses some biquaternion classes by the choice of top uniformizer
    (ROADMAP item 2), which this relation would show."""
    rng = random.Random(f"metamorphic:{p}:{h}")
    k = parse_field(f"F{p}")
    for _ in range(h):
        k = CDVField(k)
    classes = sqcl_group(k)[1:]
    differences, compared = [], 0
    for kind in ("plus", "minus", "zero"):
        for _ in range(25):
            B = BrauerClass(k, tuple((rng.choice(classes), rng.choice(classes))
                                     for _ in range(rng.choice((1, 2)))))
            lam = rng.choice(classes) if kind == "zero" else None
            expected = _outcome(B, kind, lam)
            for relation, B2, lam2 in _rewritings(B, lam, rng):
                compared += 1
                got = _outcome(B2, kind, lam2)
                if got != expected:
                    differences.append((relation, str(B), kind, lam, expected, got))
    assert compared >= 75 * (h + 4)
    assert differences == []
