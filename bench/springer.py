"""Reference isotropy decider on square-class text, sharing no code with hermlab.

The benchmark checks every isotropy verdict against this module.  It reads
the class grammar (``1``, ``u``, ``pi``, ``t``, ``s``, ``s2``, ... joined by
``*``) itself, so a later change to hermlab's class representation cannot
break the check.

A square class over the height-h tower above F_p is stored as an int: bit 0
is the nonsquare unit ``u`` of the base, bit d the parity of the depth-d
uniformizer (``pi`` is depth 1, ``t`` depth 2, ``s`` depth 3, ``s<n>`` depth
n + 2).  Class multiplication is XOR.

Iterating Springer's theorem down the tower splits a diagonal form into
2**h residue forms over F_p, one per uniformizer-parity vector; the form is
isotropic exactly when one of them is, and hyperbolic exactly when all of
them are.  Over F_p three or more variables are isotropic, a binary form
<a, b> is isotropic iff -ab is a square, and a single variable is
anisotropic; a form is hyperbolic iff its dimension 2m is even and its
determinant is the class of (-1)^m.
"""

from __future__ import annotations

_DEPTH = {"pi": 1, "p": 1, "t": 2, "s": 3}


def generator_depth(name: str) -> int:
    """Depth of a uniformizer name; 0 for the unit ``u``."""
    if name == "u":
        return 0
    if name in _DEPTH:
        return _DEPTH[name]
    if name.startswith("s") and name[1:].isdigit():
        return int(name[1:]) + 2
    raise ValueError(f"unknown generator {name!r}")


def generator_name(depth: int) -> str:
    if depth == 0:
        return "u"
    for name, d in _DEPTH.items():
        if d == depth and name != "p":
            return name
    return f"s{depth - 2}"


def parse(text: str) -> int:
    """Class text to its bit vector."""
    bits = 0
    for token in text.strip().split("*"):
        if token != "1":
            bits ^= 1 << generator_depth(token)
    return bits


def render(bits: int) -> str:
    """Bit vector to class text, generators innermost first."""
    names = [generator_name(d) for d in range(bits.bit_length()) if bits >> d & 1]
    return "*".join(names) if names else "1"


def minus_one(p: int) -> int:
    """-1 is a nonsquare unit exactly when p = 3 mod 4."""
    return 1 if p % 4 == 3 else 0


def is_isotropic(p: int, entries) -> bool:
    """Isotropy of the diagonal form with the given class bit vectors."""
    m1 = minus_one(p)
    for units in _components(entries).values():
        if len(units) >= 3:
            return True
        if len(units) == 2 and (m1 ^ units[0] ^ units[1]) == 0:
            return True
    return False


def _components(entries) -> dict:
    components = {}
    for c in entries:
        components.setdefault(c >> 1, []).append(c & 1)
    return components


def is_hyperbolic(p: int, entries) -> bool:
    m1 = minus_one(p)
    for units in _components(entries).values():
        if len(units) % 2:
            return False
        det = 0
        for u in units:
            det ^= u
        if det != (m1 if len(units) // 2 % 2 else 0):
            return False
    return True


def division_kind(p: int, symbols) -> str:
    """Index of a class of one or two symbols: its norm form is anisotropic
    iff it is a division quaternion; its Albert form is anisotropic iff it is
    a division biquaternion and hyperbolic iff it is split."""
    m1 = minus_one(p)
    if len(symbols) == 1:
        (a, b), = symbols
        return "quaternion" if is_division(p, a, b) else "split"
    (a1, b1), (a2, b2) = symbols
    albert = [a1, b1, m1 ^ a1 ^ b1, m1 ^ a2, m1 ^ b2, a2 ^ b2]
    if not is_isotropic(p, albert):
        return "biquaternion"
    return "split" if is_hyperbolic(p, albert) else "quaternion"


def norm_form(p: int, a: int, b: int) -> list:
    """<1, -a, -b, ab>."""
    m1 = minus_one(p)
    return [0, m1 ^ a, m1 ^ b, a ^ b]


def is_division(p: int, a: int, b: int) -> bool:
    """The quaternion symbol (a, b) is division iff its norm form is anisotropic."""
    return not is_isotropic(p, norm_form(p, a, b))


def trace_reduction(p: int, a: int, b: int, entries) -> list:
    """Shape (a): entries tensored with the norm form of (a, b)."""
    nf = norm_form(p, a, b)
    return [c ^ n for c in entries for n in nf]


def transfer_reduction(p: int, lam: int, entries) -> list:
    """Shape (b): entries tensored with <1, -lam>."""
    twist = minus_one(p) ^ lam
    out = []
    for c in entries:
        out += [c, c ^ twist]
    return out
