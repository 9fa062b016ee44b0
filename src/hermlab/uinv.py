"""Exact u-invariant calculus over field towers.

Values come out of a residue recursion.  Over a valued layer an
unramified class doubles the value of its residue class; a ramified class
splits into a unitary value over the residue field plus a first-kind
value over the character extension.  Unitary values sort into three
cases: doubling when nothing ramifies, a two-fixed-field sum when the
extended algebra ramifies, and a plus-plus-minus sum when the extension
itself ramifies.  Finite bases contribute 2/0/1, global-function-field
bases contribute a fixed axiom table, and every step is recorded in a
Derivation tree that can be audited node by node.  Each step is computed
once per process for its exact (class, kind, extension), so `witness`
after `u_exact` and every repeated sub-walk reuse it; errors are raised
again on every call.

Each value has a witness: an anisotropic form of exactly that rank,
built by the same walk that computes the value.  Concrete leaves are
checked anisotropic where they are built; whenever the shape allows, the
witness flattens to diagonal entries that are re-verified through the
quadratic reductions.

The bound formulas live here too: the degree bounds over fields with the
odd-extension zero property, the exact rational coefficient sequences for
tensor products of quaternion algebras, and the descent step that turns a
matching bound and completion value into an exact answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .brauer import (
    BrauerClass,
    DivisionKind,
    UnitaryCase,
    bc_base_change,
    bc_ramification,
    bc_supported_symbols,
    classify_unitary_case,
    morita_reduce,
    parse_brauer,
    trivial_class,
)
from .derivation import Derivation, leaf
from .errors import (
    EngineError,
    FieldMismatchError,
    GapError,
    InvalidExtensionError,
    NeedsAssertionError,
    UnsupportedClassError,
)
from .fields import (
    CDVField,
    FieldDesc,
    FiniteField,
    GlobalFunctionField,
    SquareClass,
    check_extension_class,
    class_to_str,
    is_finite_based,
    lift,
    minus_one,
    nonsquare_unit,
    one,
    quadratic_extension,
    record,
    transport,
    uniformizer,
)
from .hermitian import HermFormDesc, UKind, herm_is_isotropic, u_search
from .lab import (LARMOUR_SWEEP_FORMS, basis_j, choose_pid, choose_sigma,
                  gamma_involution, larmour_mismatches, standard_algebra)
from .quadform import (ORACLE_SWEEP_FORMS, QuadForm, oracle_disagreements,
                       qf_is_isotropic, u_quadratic)

# Base values. A finite field carries an anisotropic plane and nothing
# bigger, skew rank-one entries cannot exist away from characteristic 2,
# and norm surjectivity caps unitary ranks at one.  The
# global-function-field table is axiomatic: the base u-invariant is 4,
# division quaternions carry 3/1/2 and quadratic extensions halve the
# base value.
_FINITE_BASE = {UKind.PLUS: 2, UKind.MINUS: 0, UKind.ZERO: 1}

_GFF_BASE = {
    (DivisionKind.SPLIT, UKind.PLUS): 4,
    (DivisionKind.SPLIT, UKind.MINUS): 0,
    (DivisionKind.SPLIT, UKind.ZERO): 2,
    (DivisionKind.QUATERNION, UKind.PLUS): 3,
    (DivisionKind.QUATERNION, UKind.MINUS): 1,
    (DivisionKind.QUATERNION, UKind.ZERO): 2,
}

_CITES = {
    "base:finite": "finite base values: plane 2 / skew 0 / norm rank 1",
    "base:gff": "axiom table for a global-function-field base",
    "base:field-minus": "a skew rank-one entry over a field would need a = -a",
    "unramified-double": "unramified class: value doubles from the residue",
    "ramified-sum": "ramified class: unitary residue value plus the value over the character extension",
    "unitary-unramified-double": "nothing ramifies: unitary value doubles from the residue",
    "unitary-two-fixed-fields": "extended algebra ramified: unitary values over the two fixed fields add",
    "unitary-ramified-base": "ramified extension: plus and minus residue values add",
    "assert:division": "externally asserted division fact",
    "hypothesis:divisorial-completion": "a completion with division image is taken as a hypothesis",
}


@record
class UResult:
    """A u-value with its derivation; unpacks to (value, derivation)."""

    value: int
    derivation: Derivation


@record
class WitnessNode:
    """One step of the residue walk: the derivation of its value and the
    witness part built beside it.  `entries` are the concrete diagonal
    entries, a leaf's own or flattened from the parts below, and None where
    the part stays symbolic; `ok` says every concrete leaf below verified
    anisotropic."""

    derivation: Derivation
    op: str                 # quad | unitary | axiom | empty | pair
    rank: int
    children: tuple = ()    # the two parts of a pair
    entries: tuple = None
    lam: SquareClass = None
    note: str = None
    ok: bool = True

    @property
    def value(self) -> int:
        return self.derivation.value

    def to_json_dict(self) -> dict:
        out = {"op": self.op, "field": self.derivation.field_label, "rank": self.rank}
        if self.entries and not self.children:
            out["entries"] = [class_to_str(c) for c in self.entries]
        if self.lam is not None:
            out["lam"] = class_to_str(self.lam)
        if self.note:
            out["note"] = self.note
        if self.children:
            out["children"] = [c.to_json_dict() for c in self.children]
        return out


@record
class Witness:
    rank: int
    node: WitnessNode
    entries: tuple = None   # flattened diagonal entries over B's field, when available
    verified: bool = False


def u_exact(B: BrauerClass, kind, lam: SquareClass = None,
            assertions=frozenset()) -> UResult:
    """Exact u-invariant of a division class with its derivation tree.

    First-kind values (plus/minus) take the class itself; unitary values
    additionally take the class defining the quadratic extension.  Over a
    global-function-field residue, division facts the recursion needs must
    be asserted through the token "residue" and are echoed in the tree.
    """
    node = _walk(B, UKind(kind), lam, frozenset(assertions))
    return UResult(node.value, node.derivation)


def witness(B: BrauerClass, k: FieldDesc, kind, lam: SquareClass = None,
            assertions=frozenset()) -> Witness:
    """Anisotropic form of rank exactly u, from the walk that computes u.

    Every step of the residue walk builds its witness part beside its
    derivation, and concrete leaves are checked anisotropic where they
    are built.  The witness rank is then checked against the value.
    Reducible shapes of rank at most MAX_WITNESS_RANK flatten to concrete
    diagonal entries, re-verified through the quadratic reductions; entries that
    fail that check are dropped and the witness is marked unverified.  The
    rest stay symbolic trees whose concrete leaves are still verified.
    """
    kind = UKind(kind)
    if B.field is not k:
        raise FieldMismatchError("class over the wrong field")
    node = _walk(B, kind, lam, frozenset(assertions))
    flat, ok = node.entries, node.ok
    if node.rank != node.value:
        raise EngineError(f"witness rank {node.rank} disagrees with value {node.value}")
    if flat is not None and not _verify_flat(_category(B), kind, lam, flat):
        flat, ok = None, False
    return Witness(node.rank, node, flat, ok)


def _verify_flat(category, kind: UKind, lam, entries) -> bool:
    """Whether entries are anisotropic over category's division class: as a
    quadratic form for a split class of the first kind, else as the hermitian
    form of that class, kind and lam, False when its shape has no decider.
    The empty form is anisotropic over any base."""
    if not entries:
        return True
    index, Bn = category
    if index is DivisionKind.SPLIT and kind is not UKind.ZERO:
        return not qf_is_isotropic(QuadForm(Bn.field, entries))
    h = HermFormDesc(Bn, lam, -1 if kind is UKind.PLUS else 1, entries)
    return h.template is not None and not herm_is_isotropic(h)


# ---------------------------------------------------------------------------
# the residue walk

# Bound on the steps kept by each memo of the walk below.  A step is keyed
# by its exact class, not by the class's key, because derivations and
# witnesses print the caller's own symbols.
_STEP_MEMO = 1024

# Largest witness rank that is kept flat or printed.  A doubling step lists
# its child twice, so flat entries and printed trees grow like the value,
# which doubles with every layer: 2**63 at 64 layers.  512 is the rank of
# the plus witness of the trivial class at height 8.
MAX_WITNESS_RANK = 512


def _walk(B: BrauerClass, kind: UKind, lam, assertions) -> WitnessNode:
    """The walk from the top class, after checking the extension class.  A
    first-kind step takes morita as every internal step does: one memo key."""
    if kind is UKind.ZERO:
        if lam is None:
            raise InvalidExtensionError("unitary values need the extension class")
        check_extension_class(B.field, lam)
    elif lam is not None:
        raise InvalidExtensionError("first-kind values take no extension class")
    return _step(B, kind, lam, assertions, kind is not UKind.ZERO)


@lru_cache(maxsize=_STEP_MEMO)
def _category(B: BrauerClass):
    """(index, division class) of B: `morita_reduce` over a finite-based
    tower; over a global-function-field base, where division is asserted
    rather than decided, the count of B's effective symbols and those
    symbols."""
    if is_finite_based(B.field):
        return morita_reduce(B)
    syms = bc_supported_symbols(B)
    return list(DivisionKind)[len(syms)], BrauerClass(B.field, syms)


def _assert_leaf(field_label: str, class_label: str, assertions) -> Derivation:
    if "residue" not in assertions:
        raise NeedsAssertionError(
            f"division of {class_label} over {field_label} is not computable; "
            "pass the assertion token 'residue'")
    return leaf("assert:division", field_label, class_label, "-", None,
                _CITES["assert:division"])


def _base_leaf(k: FieldDesc, fl: str, cl: str, category, kind: UKind, lam,
               assertions, note: str = None) -> WitnessNode:
    """Where the walk ends, or None on a valued layer: a split minus value is
    0 over any field, with the empty witness; a finite field gives its base
    value, its witness the norm form <1, -nonsquare> (`quad`) or <1> over
    k(sqrt(lam)) (`unitary`), checked by `_verify_flat`; a global-function-
    field base gives the axiom table, its witness the tabulated rank."""
    index = category[0]
    if index is DivisionKind.SPLIT and kind is UKind.MINUS:
        return WitnessNode(leaf("base:field-minus", fl, cl, kind.value, 0,
                                _CITES["base:field-minus"]), "empty", 0, entries=())
    if isinstance(k, FiniteField):
        entries = (one(k),) if lam is not None else (one(k), minus_one(k) * nonsquare_unit(k))
        return WitnessNode(leaf("base:finite", fl, cl, kind.value, _FINITE_BASE[kind],
                                _CITES["base:finite"], note),
                           "quad" if lam is None else "unitary", len(entries),
                           entries=entries, lam=lam,
                           ok=_verify_flat(category, kind, lam, entries))
    if not isinstance(k, GlobalFunctionField):
        return None
    if index is DivisionKind.BIQUATERNION:
        raise UnsupportedClassError(
            "a biquaternion over a global-function-field base cannot be "
            "division: six variables over a u=4 base always vanish")
    children = ()
    if index is not DivisionKind.SPLIT:
        children = (_assert_leaf(fl, cl, assertions),)
    d = Derivation("base:gff", fl, cl, kind.value, _GFF_BASE[(index, kind)],
                   _CITES["base:gff"], children, "leaf", note)
    return WitnessNode(d, "axiom", d.value, note="tabulated base value")


def _double(rule: str, k: CDVField, class_label: str, kind: UKind,
            child: WitnessNode, pre: tuple = (), note: str = None) -> WitnessNode:
    """Doubling step; the witness is the lifted child next to its
    uniformizer twist, kept flat up to MAX_WITNESS_RANK."""
    fl = k.text
    rank = 2 * child.rank
    flat = None
    if child.entries is not None and rank <= MAX_WITNESS_RANK:
        pi = uniformizer(k)
        flat = tuple(lift(k, c) for c in child.entries) + \
            tuple(lift(k, c) * pi for c in child.entries)
    return WitnessNode(
        Derivation(rule, fl, class_label, kind.value, 2 * child.value, _CITES[rule],
                   pre + (child.derivation,), "double", note),
        "pair", rank, (child, child), flat, note="uniformizer twist", ok=child.ok)


def _sum(rule: str, k: CDVField, class_label: str, kind: UKind,
         first: WitnessNode, second: WitnessNode, node_note: str, pre: tuple = (),
         note: str = None) -> WitnessNode:
    """Sum of two parts from the residue layer; when the second is empty,
    the first part's entries lift to a flat witness.  Only a
    parameter-twisted second part can be empty: unitary values are >= 1."""
    fl = k.text
    flat = None
    if second.rank == 0 and first.entries is not None:
        flat = tuple(lift(k, c) for c in first.entries)
    return WitnessNode(
        Derivation(rule, fl, class_label, kind.value, first.value + second.value,
                   _CITES[rule], pre + (first.derivation, second.derivation), "sum", note),
        "pair", first.rank + second.rank, (first, second), flat, note=node_note,
        ok=first.ok and second.ok)


@lru_cache(maxsize=_STEP_MEMO)
def _step(B: BrauerClass, kind: UKind, lam, assertions, morita: bool) -> WitnessNode:
    """The walk's one step, for every kind; lam and morita are the unitary
    kind's (`_unitary`).  A first-kind class over a valued layer doubles its
    residue value, or, ramified, takes the sum over its character."""
    k = B.field
    category = _category(B)
    fl, cl = k.text, str(category[1])
    note = None if lam is None else f"extension by {class_to_str(lam)}"
    node = _base_leaf(k, fl, cl, category, kind, lam, assertions, note)
    if node is not None:
        return node
    if kind is UKind.ZERO:
        return _unitary(k, category, cl, lam, assertions, morita, note)
    ram = bc_ramification(category[1])
    if ram.character.is_one:
        return _double("unramified-double", k, cl, kind,
                       _step(ram.residue_class, kind, None, assertions, True))
    return _sum("ramified-sum", k, cl, kind,
                _step(ram.residue_class, UKind.ZERO, ram.character, assertions, True),
                _over_extension(k.residue, ram.residue_class, ram.character,
                                kind, assertions),
                "unit part; parameter-twisted part over the extension")


def _over_extension(res: FieldDesc, R0: BrauerClass, c: SquareClass,
                    kind: UKind, assertions, lam: SquareClass = None) -> WitnessNode:
    """The step of the residue class R0 over res(sqrt(c)), of either kind,
    with the unitary kind's extension class lam carried over."""
    if isinstance(res, GlobalFunctionField):
        return _base_leaf(res, f"GFF({res.q})[sqrt({class_to_str(c)})]", str(R0),
                          _category(R0), kind, lam, assertions)
    ext_map = quadratic_extension(res, c)
    return _step(bc_base_change(R0, ext_map), kind,
                 None if lam is None else transport(ext_map, lam), assertions, True)


def _unitary(k: CDVField, category, cl: str, lam: SquareClass, assertions,
             morita: bool, ext_note: str) -> WitnessNode:
    """Unitary step over a valued layer for the algebra presented by
    (class, extension class).

    With morita set (internal residue-algebra presentations), a class that
    splits over the extension is reduced to its center first; without it
    (the public precondition), that situation is an error.  `_walk` checks
    the top lam; every lam below (a ramified character, lam's unit part in
    case 1, its transport in case 2) is nontrivial by the case analysis.
    """
    index, Bn = category
    assert_children = ()
    if not is_finite_based(k) and index is not DivisionKind.SPLIT:
        assert_children = (_assert_leaf(k.text, cl, assertions),)
    case = classify_unitary_case(Bn, lam, index, morita)
    case_note = f"{case.case}; {ext_note}"
    if case.reduced:
        cl = str(trivial_class(k))
        case_note += "; splits over the extension; reduced to the center"
    res_class = case.residue_unramified

    if case.case is UnitaryCase.CASE1:
        return _double("unitary-unramified-double", k, cl, UKind.ZERO,
                       _step(res_class, UKind.ZERO, case.lam_residue, assertions, True),
                       assert_children, case_note)

    if case.case is UnitaryCase.CASE2:
        first, second = (_over_extension(k.residue, res_class, c,
                                         UKind.ZERO, assertions, case.lam_residue)
                         for c in (case.character, case.character * case.lam_residue))
        return _sum("unitary-two-fixed-fields", k, cl, UKind.ZERO, first, second,
                    "parts over the two fixed fields", assert_children, case_note)

    # ramified extension: the extended class is unramified, its residue
    # contributes a plus and a minus value
    return _sum("unitary-ramified-base", k, cl, UKind.ZERO,
                _step(res_class, UKind.PLUS, None, assertions, True),
                _step(res_class, UKind.MINUS, None, assertions, True),
                "plus part; parameter-twisted minus part",
                assert_children, case_note)


# ---------------------------------------------------------------------------
# bound formulas

# bounds_ai's values carry 2**(i-1): at level 1000 that has 301 digits, and
# from about level 14300 on the digits pass Python's int-to-str limit.
MAX_BOUND_LEVEL = 1000


def bounds_ai(i: int, d: int, kind: str = "first"):
    """Degree bounds over a base with the odd-extension zero property for
    systems of quadratic forms in more than r*2**i variables.

    First kind returns the (plus, minus) pair ((1+1/d)*2**(i-1),
    (1-1/d)*2**(i-1)); second kind returns 2**(i-1).
    """
    if i < 1:
        raise ValueError("level must be >= 1")
    if i > MAX_BOUND_LEVEL:
        raise ValueError(f"level {i} is above the supported bound {MAX_BOUND_LEVEL}")
    if d < 1:
        raise ValueError("degree must be >= 1")
    half = Fraction(2) ** (i - 1)
    if kind == "first":
        return (Fraction(d + 1, d) * half, Fraction(d - 1, d) * half)
    if kind == "second":
        return half
    raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")


@record
class ABCSequence:
    """Exact coefficient triple a, b, c at index n, with
    a = 4/5 + (1/5)(9/4)^n, b = -1/5 + (1/5)(9/4)^n, c = 1/5 + (3/10)(9/4)^n."""

    n: int
    a: Fraction
    b: Fraction
    c: Fraction


def _abc_closed(n: int):
    r = Fraction(9, 4) ** n
    return (Fraction(4, 5) + r / 5, Fraction(-1, 5) + r / 5,
            Fraction(1, 5) + Fraction(3, 10) * r)


# The recursion's states (a, b, c) by index, filled on first use and kept up
# to _ABC_KEPT, so ascending indices take one step each.  An index is only
# ever written with its one value, so the keys stay 1..len(_abc_states).
_ABC_KEPT = 64
_abc_states = {}


def sequence_abc_recursive(n: int) -> ABCSequence:
    """Evaluate the triple through its recursions from the base index,
    extending the longest state already computed."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if not _abc_states:
        _abc_states[1] = _abc_closed(1)
    start = min(n, len(_abc_states))
    a, b, c = _abc_states[start]
    for m in range(start + 1, n + 1):
        a, b = Fraction(3, 4) * a + c, Fraction(3, 2) * b + Fraction(1, 2) * c
        c = Fraction(1, 2) * a + b
        if m <= _ABC_KEPT:
            _abc_states[m] = (a, b, c)
    return ABCSequence(n, a, b, c)


def sequence_abc(n: int) -> ABCSequence:
    """Closed-form triple; the recursive evaluation must agree exactly."""
    rec = sequence_abc_recursive(n)  # refuses n < 1 first
    a, b, c = _abc_closed(n)
    if (a, b, c) != (rec.a, rec.b, rec.c):
        raise EngineError(f"closed form and recursion disagree at n={n}")
    return ABCSequence(n, a, b, c)


IDENTITY_INDICES = range(1, 21)
COMPARISON_INDICES = range(3, 11)  # where the plus coefficient is compared


def sequence_identity_failures() -> list:
    """(identity, n) for each n in IDENTITY_INDICES where c = a/2 + b, the
    ordering 3a/2 >= c >= 3b/2 or a recursion from n-1 fails exactly."""
    broken = []
    prev = sequence_abc(1)
    for n in IDENTITY_INDICES:
        cur = sequence_abc(n)
        holds = {"c": cur.c == Fraction(1, 2) * cur.a + cur.b,
                 "order": Fraction(3, 2) * cur.a >= cur.c >= Fraction(3, 2) * cur.b,
                 "a": n == 1 or cur.a == Fraction(3, 4) * prev.a + prev.c,
                 "b": n == 1 or cur.b == Fraction(3, 2) * prev.b + Fraction(1, 2) * prev.c}
        broken += [(name, n) for name, ok in holds.items() if not ok]
        prev = cur
    return broken


# bounds_tensor prints every induction step's exact coefficients, whose
# numerators grow like 9**n: n = 1000 takes a fraction of a second, and
# from about n = 4600 on the digits pass Python's int-to-str limit.
MAX_TENSOR_FACTORS = 1000


@record
class TensorBounds:
    n: int
    u_base: Fraction
    plus: Fraction
    minus: Fraction
    zero: Fraction
    floor_minus: int
    derivation: Derivation


def bounds_tensor(n: int, u_k) -> TensorBounds:
    """Bounds for a product of n quaternion algebras over a base with
    u-invariant u_k: (a_n, b_n, c_n) times u_k.

    The derivation records, for every induction step, both candidate
    combinations and which one the minimum selects: the plus chain always
    takes the left branch (c <= 3a/2) and the minus chain the right
    branch (c >= 3b/2).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if n > MAX_TENSOR_FACTORS:
        raise ValueError(f"{n} quaternion factors are above the supported bound "
                         f"{MAX_TENSOR_FACTORS}")
    u_k = Fraction(u_k)
    if u_k <= 0:
        raise ValueError("the base u-invariant must be positive")
    steps = []
    a, b, c = _abc_closed(1)
    for m in range(1, n):
        left_p = Fraction(3, 4) * a + c
        right_p = Fraction(3, 2) * a + Fraction(1, 2) * c
        left_m = Fraction(3, 4) * b + c
        right_m = Fraction(3, 2) * b + Fraction(1, 2) * c
        if not (left_p <= right_p and right_m <= left_m):
            raise EngineError("minimum selection drifted from the coefficient order")
        a, b = left_p, right_m
        c = Fraction(1, 2) * a + b
        steps.append(leaf(
            "induction-step", "-", "-", "-", a,
            f"step {m}->{m + 1}: plus=min({left_p},{right_p}) takes left; "
            f"minus=min({left_m},{right_m}) takes right; zero=a/2+b={c}"))
    if (a, b, c) != _abc_closed(n):
        raise EngineError("induction chain drifted from the closed form")

    def product_node(kind_label, coeff):
        return Derivation(
            "tensor-bound", "-", f"{n} quaternion factors", kind_label,
            coeff * u_k, "coefficient times the base u-invariant",
            (leaf("seq:closed-form", "-", "-", kind_label, coeff,
                  f"coefficient at n={n}"),
             leaf("base-u", "-", "-", "-", u_k, "u-invariant of the base")),
            "product")

    root = Derivation(
        "tensor-bounds", "-", f"{n} quaternion factors", "-", None,
        "bounds for plus/minus/unitary kinds",
        (product_node("plus", a), product_node("minus", b),
         product_node("zero", c)) + tuple(steps), "leaf")
    minus_val = b * u_k
    return TensorBounds(n, u_k, a * u_k, minus_val, c * u_k,
                        minus_val.numerator // minus_val.denominator, root)


def tensor_comparison_bound(n: int) -> Fraction:
    """The coefficient 213 * 3**(2n-6) / 4**n that the plus coefficient
    stays strictly below from n = 3 on."""
    return Fraction(213 * 3 ** (2 * n - 6), 4 ** n)


# ---------------------------------------------------------------------------
# descent to exact values

@record
class DescentResult:
    values: object
    derivations: tuple


def semi_global_combine(shape: str, upper, lower) -> DescentResult:
    """Exact value from a matching upper bound and completion value.

    shape "quaternion"/"biquaternion": upper is the (plus, minus) bound
    pair, lower the pair of completion results.  shape "unitary": a
    single bound and completion result.  Any gap is an error: on the
    supported instances the two sides always meet.
    """
    if shape in ("quaternion", "biquaternion"):
        pairs, pack = list(zip(("plus", "minus"), upper, lower)), tuple
    elif shape == "unitary":
        pairs, pack = [("zero", upper, lower)], lambda values: values[0]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    values = []
    derivations = []
    for kind_label, bound, completion in pairs:
        comp_value, comp_deriv = completion
        if Fraction(bound) != Fraction(comp_value):
            raise GapError(f"{shape}/{kind_label}: bound {bound} does not meet "
                           f"the completion value {comp_value}")
        node = Derivation(
            "descent:exact", "-", shape, kind_label, comp_value,
            "matching upper bound and completion value pin the exact answer",
            (leaf("bound", "-", shape, kind_label, Fraction(bound),
                  "degree bound at level 3"),
             comp_deriv,
             leaf("hypothesis:divisorial-completion", "-", shape, kind_label,
                  None, _CITES["hypothesis:divisorial-completion"])),
            "equal")
        values.append(comp_value)
        derivations.append(node)
    return DescentResult(pack(values), tuple(derivations))


# ---------------------------------------------------------------------------
# the fixed table of published values

@record
class TableEntry:
    section: str
    instance: str
    expected: object
    compute: object        # zero-argument callable
    source: str


def _with_children(result: UResult):
    return result.value, tuple(c.value for c in result.derivation.numeric_children())


def _standard_pid_checks(p: int, involution, scale: int = 1):
    """choose_pid on standard_algebra(p) and t = scale * j: (case, all checks hold)."""
    alg = standard_algebra(p)
    result = choose_pid(alg, involution(alg), basis_j(alg).scale(scale))
    return result.case, all(result.checks.values())


def expected_table(p: int = 5, q: int = 9):
    """The rows of `verify paper`, in order: every published value the engine
    reproduces, with how to compute it, then the checks of one route against another.

    Entries whose expected value is a (value, child-values) pair also pin
    the arithmetic shape of the derivation, e.g. 6 via 2+4 versus 6 via
    2*3.
    """
    k0 = FiniteField(p)
    k1 = CDVField(k0)
    k2 = CDVField(k1)
    kg = CDVField(GlobalFunctionField(q))
    B1 = parse_brauer(k1, "(u,pi)")
    B2u = parse_brauer(k2, "(u,p)")
    B2r = parse_brauer(k2, "(u,t)")
    Bg = parse_brauer(kg, "(a,b);(v,pi)")
    residue = frozenset({"residue"})

    return [
        TableEntry("uquad", f"u(F{p})", 2,
                   lambda: u_quadratic(k0), "exhaustive search"),
        TableEntry("uquad", f"u(CDV(F{p}))", 4,
                   lambda: u_quadratic(k1), "exhaustive search"),
        TableEntry("uquad", f"u(CDV(CDV(F{p})))", 8,
                   lambda: u_quadratic(k2), "exhaustive search"),

        TableEntry("local", "quaternion plus, height 1", (3, (1, 2)),
                   lambda: _with_children(u_exact(B1, UKind.PLUS)),
                   "residue recursion"),
        TableEntry("local", "quaternion minus, height 1", (1, (1, 0)),
                   lambda: _with_children(u_exact(B1, UKind.MINUS)),
                   "residue recursion"),
        TableEntry("local", "quaternion minus, height 1, search", 1,
                   lambda: u_search(B1, None, 1),
                   "exhaustive search"),
        TableEntry("local", "unitary over the quadratic extension", 2,
                   lambda: u_exact(trivial_class(k1), UKind.ZERO,
                                   nonsquare_unit(k1)).value,
                   "residue recursion"),
        TableEntry("local", "unitary over the quadratic extension, search", 2,
                   lambda: u_search(trivial_class(k1), nonsquare_unit(k1), 1),
                   "exhaustive search"),

        TableEntry("completion", "unramified quaternion plus", (6, (3,)),
                   lambda: _with_children(u_exact(B2u, UKind.PLUS)),
                   "residue recursion, doubling"),
        TableEntry("completion", "unramified quaternion minus", (2, (1,)),
                   lambda: _with_children(u_exact(B2u, UKind.MINUS)),
                   "residue recursion, doubling"),
        TableEntry("completion", "ramified quaternion plus", (6, (2, 4)),
                   lambda: _with_children(u_exact(B2r, UKind.PLUS)),
                   "residue recursion, ramified sum"),
        TableEntry("completion", "ramified quaternion minus", (2, (2, 0)),
                   lambda: _with_children(u_exact(B2r, UKind.MINUS)),
                   "residue recursion, ramified sum"),
        TableEntry("completion", "quaternion minus, search (unramified)", 2,
                   lambda: u_search(B2u, None, 1),
                   "exhaustive search"),
        TableEntry("completion", "quaternion minus, search (ramified)", 2,
                   lambda: u_search(B2r, None, 1),
                   "exhaustive search"),

        TableEntry("unitary", "field extension, height 2, unramified", 4,
                   lambda: u_exact(trivial_class(k2), UKind.ZERO,
                                   lift(k2, nonsquare_unit(k2.residue))).value,
                   "residue recursion"),
        TableEntry("unitary", "field extension, height 2, ramified", 4,
                   lambda: u_exact(trivial_class(k2), UKind.ZERO,
                                   uniformizer(k2)).value,
                   "residue recursion"),
        TableEntry("unitary", "ramified algebra, two fixed fields", (4, (2, 2)),
                   lambda: _with_children(u_exact(
                       B2r, UKind.ZERO, lift(k2, uniformizer(k2.residue)))),
                   "residue recursion"),
        TableEntry("unitary", "ramified extension, plus+minus", (4, (3, 1)),
                   lambda: _with_children(u_exact(B2u, UKind.ZERO,
                                                  uniformizer(k2))),
                   "residue recursion"),

        TableEntry("gff", "global-function-field quaternion table", (3, 1, 2),
                   lambda: tuple(_GFF_BASE[(DivisionKind.QUATERNION, kind)]
                                 for kind in UKind),
                   "axiom table"),
        TableEntry("gff", "biquaternion plus over the completion", (5, (2, 3)),
                   lambda: _with_children(u_exact(Bg, UKind.PLUS,
                                                  assertions=residue)),
                   "residue recursion with assertion"),
        TableEntry("gff", "biquaternion minus over the completion", (3, (2, 1)),
                   lambda: _with_children(u_exact(Bg, UKind.MINUS,
                                                  assertions=residue)),
                   "residue recursion with assertion"),

        TableEntry("descent", "quaternion exact values", (6, 2),
                   lambda: semi_global_combine(
                       "quaternion", bounds_ai(3, 2),
                       (u_exact(B2u, UKind.PLUS), u_exact(B2u, UKind.MINUS))).values,
                   "bound meets completion"),
        TableEntry("descent", "biquaternion exact values", (5, 3),
                   lambda: semi_global_combine(
                       "biquaternion", bounds_ai(3, 4),
                       (u_exact(Bg, UKind.PLUS, assertions=residue),
                        u_exact(Bg, UKind.MINUS, assertions=residue))).values,
                   "bound meets completion"),
        TableEntry("descent", "unitary exact value", 4,
                   lambda: semi_global_combine(
                       "unitary", bounds_ai(3, 2, "second"),
                       u_exact(B2u, UKind.ZERO, uniformizer(k2))).values,
                   "bound meets completion"),

        TableEntry("bounds", "first kind, level 3, degree 2", (6, 2),
                   lambda: tuple(bounds_ai(3, 2)), "bound formula"),
        TableEntry("bounds", "first kind, level 3, degree 4", (5, 3),
                   lambda: tuple(bounds_ai(3, 4)), "bound formula"),
        TableEntry("bounds", "first kind, level 2, degree 2", (3, 1),
                   lambda: tuple(bounds_ai(2, 2)), "bound formula"),
        TableEntry("bounds", "second kind, level 3", 4,
                   lambda: bounds_ai(3, 2, "second"), "bound formula"),

        TableEntry("sequence", "plus coefficient at n=2", Fraction(29, 16),
                   lambda: sequence_abc(2).a, "closed form"),
        TableEntry("sequence", "minus coefficient at n=2", Fraction(13, 16),
                   lambda: sequence_abc(2).b, "closed form"),
        TableEntry("sequence", "floor of the minus bound at u=8", 6,
                   lambda: bounds_tensor(2, 8).floor_minus, "closed form"),

        TableEntry("oracle", f"residue decider vs invariant decider on {ORACLE_SWEEP_FORMS} "
                   "forms", 0, lambda: oracle_disagreements(k1), "two independent paths"),
        TableEntry("sequence", "recursions and orderings hold exactly for "
                   f"n <= {IDENTITY_INDICES[-1]}", [], sequence_identity_failures,
                   "exact arithmetic"),
        TableEntry("sequence", "plus coefficient beats the comparison bound for "
                   f"{COMPARISON_INDICES[0]} <= n <= {COMPARISON_INDICES[-1]}", [],
                   lambda: [n for n in COMPARISON_INDICES
                            if not sequence_abc(n).a < tensor_comparison_bound(n)],
                   "exact arithmetic"),

        TableEntry("lab", "case-1 parameter checks", (1, True),
                   lambda: _standard_pid_checks(p, choose_sigma), "exact arithmetic"),
        TableEntry("lab", "case-2 parameter checks", (2, True),
                   lambda: _standard_pid_checks(p, gamma_involution), "exact arithmetic"),
        TableEntry("lab", "scaled parameter keeps its case", 2,
                   lambda: _standard_pid_checks(p, gamma_involution, p)[0], "exact arithmetic"),
        TableEntry("lab", f"decomposition vs trace reduction on {LARMOUR_SWEEP_FORMS} "
                   "random forms", 0, lambda: larmour_mismatches(p), "two independent paths"),
    ]
