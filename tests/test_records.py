"""The value records: immutable, equal by value within their own class, with
the repr, constructor order and constructor checks they always had, and no
record machinery loaded by ``import hermlab``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hermlab.brauer import RamificationData, UnitaryCase, UnitaryCaseResult, parse_brauer, \
    trivial_class
from hermlab.derivation import Derivation
from hermlab.errors import FieldMismatchError, InvalidExtensionError
from hermlab.fields import CDVField, FiniteField, TransitionMap, one, parse_class
from hermlab.hermitian import HermFormDesc
from hermlab.lab import (Involution, LabAlgebra, LarmourResult, PidResult, QuaternionElt,
                         ResidueForm, scalar)
from hermlab.quadform import QuadForm
from hermlab.uinv import (ABCSequence, DescentResult, TableEntry, TensorBounds, UResult, Witness,
                          WitnessNode, u_exact)

SRC = Path(__file__).resolve().parent.parent / "src"

F5 = FiniteField(5)
K1 = CDVField(F5)
U, PI = parse_class(K1, "u"), parse_class(K1, "pi")
B = parse_brauer(K1, "(u,pi)")
D = Derivation("r", "F5", "1", "plus", 2, "c")
ALG = LabAlgebra(Fraction(2), Fraction(5), 5)
X = QuaternionElt(ALG, (1, Fraction(1, 2), 0, 0))
RF = ResidueForm(5, 2, ((1, 0),), "conjugation", 1)


def _records():
    """(record, its repr) for one record of every class, each built by
    position in constructor order."""
    node = WitnessNode(D, "quad", 2)
    k, e, cls = repr(K1), repr((one(K1), U)), repr(U)
    return [
        (TransitionMap(K1, K1, PI), f"TransitionMap(source={k}, target={k}, lam={PI!r})"),
        (QuadForm(K1, (one(K1), U)), f"QuadForm(field={k}, entries={e})"),
        (RamificationData(U, trivial_class(F5)),
         f"RamificationData(character={cls}, residue_class={trivial_class(F5)!r})"),
        (UnitaryCaseResult(UnitaryCase.CASE1, U, B, one(F5), False),
         f"UnitaryCaseResult(case=<UnitaryCase.CASE1: 1>, character={cls}, "
         f"residue_unramified={B!r}, lam_residue={one(F5)!r}, reduced=False)"),
        (HermFormDesc(B, None, 1, (one(K1), U)),
         f"HermFormDesc(algebra={B!r}, lam=None, eps=1, entries={e})"),
        (D, "Derivation(rule='r', field_label='F5', class_label='1', kind='plus', value=2, "
            "cite='c', children=(), combine='leaf', note=None)"),
        (UResult(2, D), f"UResult(value=2, derivation={D!r})"),
        (node, f"WitnessNode(derivation={D!r}, op='quad', rank=2, children=(), entries=None, "
               f"lam=None, note=None, ok=True)"),
        (Witness(2, node), f"Witness(rank=2, node={node!r}, entries=None, verified=False)"),
        (ABCSequence(1, Fraction(5, 4), Fraction(1, 4), Fraction(11, 20)),
         "ABCSequence(n=1, a=Fraction(5, 4), b=Fraction(1, 4), c=Fraction(11, 20))"),
        (TensorBounds(1, Fraction(4), Fraction(5), Fraction(1), Fraction(2), 1, D),
         f"TensorBounds(n=1, u_base=Fraction(4, 1), plus=Fraction(5, 1), minus=Fraction(1, 1), "
         f"zero=Fraction(2, 1), floor_minus=1, derivation={D!r})"),
        (DescentResult((3, 1), (D, D)), f"DescentResult(values=(3, 1), derivations=({D!r}, {D!r}))"),
        (TableEntry("s", "i", 2, int, "src"),
         "TableEntry(section='s', instance='i', expected=2, compute=<class 'int'>, source='src')"),
        (ALG, "LabAlgebra(a=Fraction(2, 1), b=Fraction(5, 1), p=5)"),
        (X, f"QuaternionElt(alg={ALG!r}, nums=(2, 1, 0, 0), den=2)"),
        (Involution(ALG, "gamma"), f"Involution(alg={ALG!r}, name='gamma')"),
        (PidResult(X, 1, 1, {"sign": True}),
         f"PidResult(pid={X!r}, eps_prime=1, case=1, checks={{'sign': True}})"),
        (RF, "ResidueForm(p=5, u=2, entries=((1, 0),), involution='conjugation', eps=1)"),
        (LarmourResult(RF, RF), f"LarmourResult(h1={RF!r}, h2={RF!r})"),
    ]


RECORDS = _records()


def _fields(r):
    """The field names of r, in constructor order, and r's values of them."""
    names = type(r).__match_args__
    return names, tuple(getattr(r, n) for n in names)


def _again(r):
    """A second record of r's class with r's fields."""
    if type(r) is QuaternionElt:
        return QuaternionElt(r.alg, r.coords)
    return type(r)(*_fields(r)[1])


def test_import_loads_no_record_machinery():
    code = ("import sys, hermlab\n"
            "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("r, text", RECORDS, ids=lambda x: type(x).__name__)
def test_repr_is_unchanged(r, text):
    assert repr(r) == text
    assert str(r) == text or type(r) in (QuadForm, QuaternionElt)


@pytest.mark.parametrize("r", [r for r, _ in RECORDS], ids=lambda x: type(x).__name__)
def test_records_are_immutable_values_of_their_own_class(r):
    names, values = _fields(r)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    twin = _again(r)
    assert twin == r and not twin != r and twin is not r
    if type(r) is not PidResult:  # a dict field leaves it unhashable, as it always was
        assert hash(twin) == hash(r)
    other = type("Other", (type(r),), {})
    other = other(r.alg, r.coords) if type(r) is QuaternionElt else other(*values)
    for stranger in (values, other):
        assert r != stranger and stranger != r
        assert not r == stranger and not stranger == r
    if type(r) is not TableEntry:  # its int compute pickles; a lambda would not
        for y in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert y == r and type(y) is type(r)


@pytest.mark.parametrize("r", [r for r, _ in RECORDS if type(r) is not QuaternionElt],
                         ids=lambda x: type(x).__name__)
def test_records_refuse_tuple_arithmetic(r):
    for operation in (lambda: 2 * r, lambda: r * 2, lambda: r + (1,), lambda: r + r):
        with pytest.raises(TypeError):
            operation()


def test_quaternions_keep_their_own_arithmetic_only():
    with pytest.raises(TypeError):
        2 * X
    three = scalar(ALG, 3)
    assert X + three - three == X and X * three == X.scale(3)


def test_quaternion_operators_answer_other_operands_with_type_error():
    """+, - and * take two elements of one algebra; any other operand is
    NotImplemented, which Python turns into TypeError."""
    for operation in (lambda: X * 2, lambda: X + (1,), lambda: X - 1,
                      lambda: X * Fraction(1, 2), lambda: 1 - X):
        with pytest.raises(TypeError):
            operation()
    other = QuaternionElt(LabAlgebra(Fraction(3), Fraction(5), 5), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="mixed quaternion algebras"):
        X + other


def test_records_of_two_classes_with_equal_fields_differ():
    assert UResult(2, D) != DescentResult(2, D) and not UResult(2, D) == DescentResult(2, D)


def test_constructor_checks_raise_their_errors():
    k2 = CDVField(K1)
    with pytest.raises(FieldMismatchError, match="form entry over the wrong field"):
        QuadForm(K1, (one(k2),))
    with pytest.raises(FieldMismatchError, match="form entry over the wrong field"):
        HermFormDesc(B, None, 1, (one(k2),))
    with pytest.raises(FieldMismatchError, match="extension class over the wrong field"):
        HermFormDesc(trivial_class(K1), one(k2), 1, ())
    with pytest.raises(InvalidExtensionError, match="the trivial class defines no"):
        HermFormDesc(trivial_class(K1), one(K1), 1, ())
    with pytest.raises(ValueError, match="finite base needs an odd prime, got 9"):
        LabAlgebra(Fraction(2), Fraction(9), 9)
    with pytest.raises(ValueError, match="slot a = 5 of the symbol is not a 5-adic unit"):
        LabAlgebra(Fraction(5), Fraction(5), 5)
    with pytest.raises(ValueError, match="slot a = 0 of the symbol is not a 5-adic unit"):
        LabAlgebra(Fraction(0), Fraction(5), 5)
    with pytest.raises(ValueError, match="four coordinates required"):
        QuaternionElt(ALG, (1, 2, 3))


def test_keywords_and_defaults_follow_the_fields():
    d = Derivation(rule="r", field_label="F5", class_label="1", kind="plus", value=2, cite="c",
                   note="n")
    assert (d.children, d.combine, d.note) == ((), "leaf", "n")
    assert WitnessNode(D, "empty", 0).ok is True and Witness(0, None).verified is False


def test_uresult_unpacks_to_value_and_derivation():
    result = u_exact(B, "plus")
    value, derivation = result
    assert (value, derivation) == (result.value, result.derivation) == (3, result.derivation)


def test_template_stays_lazy_and_audit_stays_patchable():
    h = HermFormDesc(B, None, 1, (U,))
    assert "template" not in vars(h)
    assert h.template is h.template and "template" in vars(h)
    audit = Derivation.audit
    Derivation.audit = lambda self: "patched"
    try:
        assert D.audit() == "patched"
    finally:
        Derivation.audit = audit
    assert D.audit() is True
