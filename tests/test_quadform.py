"""Isotropy deciders and the quadratic u-invariant search."""

import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from hermlab import quadform
from hermlab.brauer import parse_brauer
from hermlab.errors import EngineError, FieldMismatchError, UnsupportedFieldError
from hermlab.fields import (
    CDVField,
    FiniteField,
    GlobalFunctionField,
    SquareClass,
    minus_one,
    parse_class,
    parse_field,
    smallest_nonresidue,
    split_valuation,
    sqcl_group,
    valuation_unit,
)
from hermlab.hermitian import HermFormDesc, canonical_involution, herm_is_isotropic
from hermlab.quadform import (
    QuadForm,
    _is_square,
    albert_form,
    hilbert_symbol,
    legendre,
    max_anisotropic_rank,
    norm_form,
    qf_is_isotropic,
    qf_is_isotropic_oracle,
    qf_isotropy_path,
    u_quadratic,
)

F3 = FiniteField(3)
F5 = FiniteField(5)
K1 = CDVField(F5)
K2 = CDVField(K1)


def form(k, text):
    return QuadForm(k, tuple(parse_class(k, tok) for tok in text.split(",")))


def test_hyperbolic_plane_isotropic_everywhere():
    for k in (F3, F5, K1, K2):
        assert qf_is_isotropic(QuadForm(k, (parse_class(k, "1"), minus_one(k))))


def test_finite_base_cases():
    assert not qf_is_isotropic(form(F5, "1,u"))   # -u stays a nonsquare mod 5
    assert qf_is_isotropic(form(F3, "1,u"))       # -u = 1 mod 3
    assert qf_is_isotropic(form(F5, "1,1,1"))
    assert not qf_is_isotropic(form(F5, "u"))
    assert not qf_is_isotropic(QuadForm(F5, ()))


def test_norm_form_of_division_symbol_anisotropic():
    q = form(K1, "1,u,pi,u*pi")
    assert not qf_is_isotropic(q)
    assert not qf_is_isotropic_oracle(q)


def test_oracle_examples():
    assert qf_is_isotropic_oracle(QuadForm(K1, (parse_class(K1, "1"), minus_one(K1))))
    assert qf_is_isotropic_oracle(form(K1, "1,1,1,1,1"))
    assert not qf_is_isotropic_oracle(form(K1, "1,u"))


def test_oracle_restricted_to_height_one():
    with pytest.raises(UnsupportedFieldError):
        qf_is_isotropic_oracle(form(K2, "1,u"))
    with pytest.raises(UnsupportedFieldError):
        qf_is_isotropic_oracle(form(F5, "1,u"))
    # the field check comes before the dimensions decided without invariants
    for k in (K2, F5):
        classes = sqcl_group(k)
        for dim in (0, 1, 5, 12):
            q = QuadForm(k, tuple(classes[i % len(classes)] for i in range(dim)))
            with pytest.raises(UnsupportedFieldError):
                qf_is_isotropic_oracle(q)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_oracle_equivalence_all_small_forms(p):
    k = CDVField(FiniteField(p))
    classes = sqcl_group(k)
    for dim in range(1, 5):
        for entries in product(classes, repeat=dim):
            q = QuadForm(k, entries)
            assert qf_is_isotropic(q) == qf_is_isotropic_oracle(q), str(q)


def _rational_lift(a):
    """Reference lift, one Fraction per entry: the oracle's former lift."""
    k = a.field
    if not (isinstance(k, CDVField) and isinstance(k.residue, FiniteField)
            and k.residue.e == 1):
        raise UnsupportedFieldError("rational lifts exist over the height-one tower only")
    p = k.residue.p
    value = Fraction(smallest_nonresidue(p) if a.data & 1 else 1)
    if a.data & 2:
        value *= p
    return value


def _hilbert_by_formula(a, b, p):
    """Serre's formula (A Course in Arithmetic, III.1.2, Theorem 1) on
    (valuation, unit mod p) pairs, with no memo."""
    (alpha, s), (beta, t) = a, b
    return ((-1) ** (alpha * beta * (p - 1) // 2 % 2)
            * legendre(s, p) ** (beta % 2) * legendre(t, p) ** (alpha % 2))


def _oracle_by_fraction_lifts(q):
    """Reference invariant decider on Fraction lifts and the unmemoised
    Hilbert symbol: the oracle before it lifted each class once."""
    k = q.field
    if not (isinstance(k, CDVField) and isinstance(k.residue, FiniteField)
            and k.residue.e == 1):
        raise UnsupportedFieldError("the invariant decider runs over the "
                                    "height-one tower only")
    p = k.residue.p
    pairs = [valuation_unit(_rational_lift(a), p) for a in q.entries]
    n = len(pairs)
    if n <= 1:
        return False
    v, u = 0, 1
    for w, c in pairs:
        v, u = v + w, u * c % p
    minus_d, neg_one = (v, -u % p), (0, p - 1)
    eps = 1
    for i in range(n):
        for j in range(i + 1, n):
            eps *= _hilbert_by_formula(pairs[i], pairs[j], p)
    if n == 2:
        return _is_square(minus_d, p)
    if n == 3:
        return eps == _hilbert_by_formula(neg_one, minus_d, p)
    if n == 4:
        return (not _is_square((v, u), p)) or eps == _hilbert_by_formula(neg_one, neg_one, p)
    return True


def test_oracle_matches_the_fraction_lift_reference():
    # The primes alternate form by form, so a lift or a Hilbert symbol keyed
    # without the prime would answer one prime with another's value.
    fields = [CDVField(FiniteField(p)) for p in (3, 5, 7, 11, 13)]
    shapes = [masks for dim in range(1, 6) for masks in product(range(4), repeat=dim)]
    # jacobson_verdict hands the oracle forms of 4, 8 and 12 entries
    rng = random.Random(612)
    shapes += [tuple(rng.randrange(4) for _ in range(dim))
               for dim in range(6, 13) for _ in range(30)]
    for masks in shapes:
        for k in fields:
            q = QuadForm(k, tuple(SquareClass(k, m) for m in masks))
            assert qf_is_isotropic_oracle(q) == _oracle_by_fraction_lifts(q), str(q)


def test_finite_base_agreement_with_vector_search():
    for p in (3, 5):
        k = FiniteField(p)
        reps = {0: 1, 1: _nonresidue(p)}
        for dim in range(1, 5):
            for entries in product(sqcl_group(k), repeat=dim):
                coeffs = [reps[c.data] for c in entries]
                expected = _vector_search(coeffs, p)
                assert qf_is_isotropic(QuadForm(k, entries)) == expected


def _nonresidue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _vector_search(coeffs, p):
    for vec in product(range(p), repeat=len(coeffs)):
        if any(vec) and sum(c * x * x for c, x in zip(coeffs, vec)) % p == 0:
            return True
    return False


def test_permutation_and_scaling_invariance():
    classes = sqcl_group(K2)
    for entries in combinations_with_replacement(classes[:5], 3):
        q = QuadForm(K2, entries)
        verdict = qf_is_isotropic(q)
        for perm in permutations(entries):
            assert qf_is_isotropic(QuadForm(K2, perm)) == verdict
        for c in classes:
            assert qf_is_isotropic(QuadForm(K2, tuple(c * a for a in entries))) == verdict


def test_subform_monotonicity():
    classes = sqcl_group(K1)
    for entries in combinations_with_replacement(classes, 2):
        q = QuadForm(K1, entries)
        if qf_is_isotropic(q):
            for c in classes:
                assert qf_is_isotropic(QuadForm(K1, entries + (c,)))


def test_u_values_and_doubling():
    assert u_quadratic(F5) == 2
    assert u_quadratic(K1) == 4
    assert u_quadratic(K2) == 8
    for base in (FiniteField(3), FiniteField(7)):
        k = base
        for _ in range(2):
            k_up = CDVField(k)
            assert u_quadratic(k_up) == 2 * u_quadratic(k)
            k = k_up


def _kept_layers(k, template):
    """The layers of the search over k's class masks with the template's
    masks, each as the list of its kept mask tuples, read back through
    every kept tuple's parent."""
    classes = quadform.search_classes(k)
    layers = quadform._anisotropic_layers(classes, template, minus_one(k).data)
    assert next(layers) == [(0, 0, 0)]  # the empty tuple
    kept = [[()]]
    for layer in layers:
        kept.append([kept[-1][parent] + (classes[last],) for parent, last, _ in layer])
    return kept


def _quadratic_anisotropic(k):
    return (0,), lambda entries: not qf_is_isotropic(QuadForm(k, entries))


def _shape_a_anisotropic(k):
    B = parse_brauer(k, "(u,pi)")
    template = tuple(t.data for t in HermFormDesc(B, canonical_involution(), 1, ()).template)
    return template, lambda entries: not herm_is_isotropic(
        HermFormDesc(B, canonical_involution(), 1, entries))


@pytest.mark.parametrize("k", [CDVField(F3), K1], ids=str)
@pytest.mark.parametrize("predicate", [_quadratic_anisotropic, _shape_a_anisotropic],
                         ids=["quadratic", "shape_a"])
def test_subform_closed_layers_match_brute_force(k, predicate):
    template, is_anisotropic = predicate(k)
    layers = _kept_layers(k, template)
    classes = sqcl_group(k)
    rank = max_anisotropic_rank(quadform.search_classes(k), template, minus_one(k).data)
    assert rank == len(layers) - 1
    for d in range(1, rank + 2):
        brute = [tuple(a.data for a in e) for e in combinations_with_replacement(classes, d)
                 if is_anisotropic(e)]
        kept = layers[d] if d < len(layers) else []
        assert Counter(kept) == Counter(brute)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("h", [0, 1, 2])
def test_kept_tuples_count_the_anisotropic_forms_of_every_leaf(p, h):
    """Each of the 2**h leaves holds one of the anisotropic forms over F_p of
    rank at most 2: 4 of them with the empty one when -1 is a square, 5
    when it is not.  A sorted tuple is its multiset, so the search keeps
    one tuple per choice of leaf forms, the empty tuple aside."""
    k = parse_field("CDV(" * h + f"F{p}" + ")" * h)
    forms = 4 if p % 4 == 1 else 5
    assert sum(map(len, _kept_layers(k, (0,))[1:])) == forms ** (2 ** h) - 1


def test_search_cap_stops_a_predicate_that_never_turns_isotropic():
    with pytest.raises(EngineError, match="cap 4"):
        max_anisotropic_rank(range(2), (), 1)


def test_square_test_rejects_zero():
    def timeout(signum, frame):
        raise TimeoutError("split_valuation(0, 5) did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            split_valuation(Fraction(0), 5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hilbert_symbol_relations(p):
    def h(a, b):
        return hilbert_symbol(valuation_unit(a, p), valuation_unit(b, p), p)

    rng = random.Random(1000 + p)
    sample = []
    while len(sample) < 40:
        num, den = rng.randint(-60, 60), rng.randint(1, 30)
        if num:
            sample.append(Fraction(num, den) * Fraction(p) ** rng.randint(-2, 2))
    for a, a2, b in zip(sample, sample[1:] + sample[:1], sample[2:] + sample[:2]):
        assert h(a, b) == h(b, a)
        assert h(a * a2, b) == h(a, b) * h(a2, b)
        assert h(a, -a) == 1
        if a != 1:
            assert h(a, 1 - a) == 1
    u = Fraction(smallest_nonresidue(p))
    assert h(u, Fraction(p)) == -1
    assert h(Fraction(p), Fraction(p)) == h(Fraction(-1), Fraction(p))


def test_dim_five_forms_all_isotropic_height_one():
    classes = sqcl_group(K1)
    for entries in combinations_with_replacement(classes, 5):
        assert qf_is_isotropic(QuadForm(K1, entries))


def test_gff_base_refused():
    k = CDVField(GlobalFunctionField(9))
    with pytest.raises(UnsupportedFieldError):
        qf_is_isotropic(QuadForm(k, (parse_class(k, "v"),)))
    with pytest.raises(UnsupportedFieldError):
        qf_is_isotropic(QuadForm(k, ()))
    with pytest.raises(UnsupportedFieldError):
        qf_isotropy_path(QuadForm(k, (parse_class(k, "v"),)))
    with pytest.raises(UnsupportedFieldError):
        u_quadratic(k)


def test_norm_form_resolves_minus_one():
    k3 = CDVField(F3)
    q = norm_form(parse_class(k3, "u"), parse_class(k3, "pi"))
    assert str(q) == "<1,1,u*pi,u*pi>"
    assert not qf_is_isotropic(q)
    q5 = norm_form(parse_class(K1, "1"), parse_class(K1, "pi"))
    assert qf_is_isotropic(q5)  # split symbol


def test_albert_form_shapes():
    s = (parse_class(K2, "u"), parse_class(K2, "p"))
    q = albert_form(s, s)
    assert len(q.entries) == 6
    assert qf_is_isotropic(q)  # equal symbols never give a six-dimensional kernel
    one_ = parse_class(K2, "1")
    q2 = albert_form((one_, one_), (one_, one_))
    assert qf_is_isotropic(q2)


def test_norm_and_albert_forms_live_over_their_slots_field():
    a, b = parse_class(K2, "u"), parse_class(K2, "p")
    assert norm_form(a, b).field is K2 and albert_form((a, b), (b, a)).field is K2
    stray = parse_class(K1, "u")
    for build in (lambda: norm_form(a, stray), lambda: norm_form(stray, a),
                  lambda: albert_form((a, b), (a, stray)),
                  lambda: albert_form((stray, a), (a, b))):
        with pytest.raises(FieldMismatchError):
            build()


def test_isotropy_path_logs_splits():
    verdict, path = qf_isotropy_path(form(K2, "1,u,t,u*t"))
    assert not verdict
    assert path[0]["field"] == "CDV(CDV(F5))"
    assert "unit_part" in path[0]
    assert any(step.get("reason") for step in path)


def test_plain_decision_formats_no_path_strings(monkeypatch):
    anisotropic, isotropic = form(K2, "1,u,t,u*t"), form(K2, "1,1,1")

    def refuse(*_):
        raise AssertionError("a plain isotropy decision formatted a path string")

    monkeypatch.setattr(QuadForm, "__str__", refuse)
    monkeypatch.setattr(quadform, "_form_str", refuse)
    assert not qf_is_isotropic(anisotropic)
    assert qf_is_isotropic(isotropic)


def test_empty_form_anisotropic_at_every_height():
    for k in (F3, K1, K2, CDVField(CDVField(K2))):
        assert not qf_is_isotropic(QuadForm(k, ()))
        assert qf_isotropy_path(QuadForm(k, ())) == (False, [
            {"field": str(k), "form": "<>", "isotropic": False, "reason": "empty form"}])


# The leaf test against the residue recursion it flattens, which
# `qf_isotropy_path` still runs.  q = 3 mod 4 (F3, F7, CDV towers over
# them) and q = 1 mod 4 (F5, F3^2) are both covered.
@pytest.mark.parametrize("text", ["F3", "F5", "F3^2", "CDV(F3)", "CDV(F5)", "CDV(F3^2)",
                                  "CDV(CDV(F3))", "CDV(CDV(F5))", "CDV(CDV(F7))"])
def test_leaf_test_matches_residue_recursion_exhaustively(text):
    k = parse_field(text)
    classes = sqcl_group(k)
    for dim in range(7):
        for entries in combinations_with_replacement(classes, dim):
            q = QuadForm(k, entries)
            assert qf_is_isotropic(q) == qf_isotropy_path(q)[0], str(q)


def _leaf_biased_form(rng, k, h):
    """Entries drawn leaf by leaf: most leaves get zero or one entry, so
    that anisotropic forms are common even at height 4."""
    masks = []
    for leaf in range(1 << h):
        count = rng.choices((0, 1, 2, 3), weights=(45, 45, 8, 2))[0]
        masks += [leaf << 1 | rng.randrange(2) for _ in range(count)]
    rng.shuffle(masks)
    return QuadForm(k, tuple(sqcl_group(k)[m] for m in masks))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("h", [3, 4])
def test_leaf_test_matches_residue_recursion_on_samples(p, h):
    k = parse_field("CDV(" * h + f"F{p}" + ")" * h)
    classes = sqcl_group(k)
    rng = random.Random(f"leaf-test:{p}:{h}")
    verdicts = Counter()
    for i in range(600):
        if i % 2:
            q = _leaf_biased_form(rng, k, h)
        else:
            q = QuadForm(k, tuple(rng.choice(classes)
                                  for _ in range(rng.randint(1, 2 ** (h + 1) + 2))))
        verdict = qf_is_isotropic(q)
        assert verdict == qf_isotropy_path(q)[0], str(q)
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) >= 60, verdicts
