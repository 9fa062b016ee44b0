"""Derivation trees: every computed u-value or bound carries the rule tree
that produced it, and the tree can be re-audited node by node.

Each node records a rule id, the field and class it was applied to, the
u-kind, the resulting value, a one-line statement of the rule, and its
children.  A combinator tag says how the value is recomputed from the
children during an audit; assertion and hypothesis leaves carry no value
and are transparent to the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import record


@record
class Derivation:
    rule: str
    field_label: str
    class_label: str
    kind: str
    value: object              # int or Fraction; None on assertion/hypothesis leaves
    cite: str
    children: tuple = ()
    combine: str = "leaf"      # leaf | double | sum | equal | product
    note: str = None

    def numeric_children(self):
        return [c for c in self.children if c.value is not None]

    def audit(self) -> bool:
        """Recompute every node from its children; True iff the whole tree
        is arithmetically consistent."""
        for child in self.children:
            if not child.audit():
                return False
        kids = self.numeric_children()
        if self.combine == "leaf":
            return True
        if self.combine == "double":
            return len(kids) == 1 and self.value == 2 * kids[0].value
        if self.combine == "sum":
            return self.value == sum(c.value for c in kids)
        if self.combine == "equal":
            return all(c.value == self.value for c in kids)
        if self.combine == "product":
            prod = Fraction(1)
            for c in kids:
                prod *= Fraction(c.value)
            return Fraction(self.value) == prod
        return False

    def to_json_dict(self) -> dict:
        value = self.value
        if isinstance(value, Fraction):
            value = str(value)
        out = {
            "rule": self.rule,
            "field": self.field_label,
            "class": self.class_label,
            "kind": self.kind,
            "value": value,
            "cite": self.cite,
            "children": [c.to_json_dict() for c in self.children],
        }
        if self.note:
            out["note"] = self.note
        return out

    def chain(self) -> str:
        """Compact one-line rendering, e.g. "ramified-sum: 2+4=6"."""
        kids = self.numeric_children()
        if self.combine == "double" and kids:
            return f"{self.rule}: 2*{kids[0].value}={self.value}"
        if self.combine == "sum" and kids:
            parts = "+".join(str(c.value) for c in kids)
            return f"{self.rule}: {parts}={self.value}"
        if self.combine == "product" and kids:
            parts = "*".join(str(c.value) for c in kids)
            return f"{self.rule}: {parts}={self.value}"
        return f"{self.rule}: {self.value}"

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = f"{pad}{self.chain()}  [{self.kind} over {self.field_label}, class {self.class_label}]"
        if self.note:
            head += f"  ({self.note})"
        lines = [head]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


def leaf(rule: str, field_label: str, class_label: str, kind: str,
         value, cite: str, note: str = None) -> Derivation:
    return Derivation(rule, field_label, class_label, kind, value, cite,
                      (), "leaf", note)
