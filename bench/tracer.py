"""Per-layer tracing from outside hermlab, by rebinding its public functions.

Most hermlab modules import names with ``from .x import f``, so patching
``hermlab.x.f`` alone would miss most calls (``hermlab.brauer`` calls its own
binding of ``qf_is_isotropic``).  ``install`` therefore rebinds every
attribute of every loaded ``hermlab`` module that is bound to a wrapped
function object, and ``uninstall`` restores them.

Spanned functions record (name, start, end, parent, item) in flat arrays;
the two hot leaves ``sqcl_mul`` and ``class_to_str`` are only counted, to
keep the overhead down.  A span's self time is its duration minus the
durations of its direct children, which cover disjoint intervals inside it
because the program is single-threaded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function) pairs wrapped with a span.  ``Derivation.audit`` is a
# method and is wrapped on its class.
SPANNED = {
    "fields": ("parse_field", "parse_class", "quadratic_extension", "sqcl_group"),
    "quadform": ("qf_is_isotropic", "qf_is_isotropic_oracle", "u_quadratic",
                 "norm_form", "albert_form"),
    "brauer": ("parse_brauer", "bc_ramification", "bc_is_trivial", "bc_is_division",
               "bc_single_symbol_rep", "bc_base_change", "classify_unitary_case"),
    "hermitian": ("herm_is_isotropic", "jacobson_quadratic", "transfer_quadratic",
                  "u_search", "morita_reduce"),
    "uinv": ("u_exact", "witness", "expected_table", "semi_global_combine",
             "bounds_ai", "bounds_tensor", "sequence_abc"),
    "lab": ("standard_algebra", "choose_sigma", "gamma_involution", "choose_pid",
            "larmour_decompose", "jacobson_verdict"),
    "cli": ("main", "verify_paper"),
}
COUNTED = {"fields": ("sqcl_mul", "class_to_str")}


class Tracer:
    """Span sink and counters for one worker process."""

    def __init__(self, hermlab):
        self.hermlab = hermlab
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.item = array("l")
        self.tag = array("l")          # tower height for isotropy and u_quadratic spans
        self.stack = []
        self.current_item = -1
        self.counts = Counter()
        self.qf_entries = 0
        self.qf_keys = set()
        self.qf_repeats = 0
        self.div_keys = set()
        self.div_repeats = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        h = self.hermlab
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hermlab" or n.startswith("hermlab."))]
        replacements = {}
        for mod, names in SPANNED.items():
            for fname in names:
                fn = getattr(getattr(h, mod), fname)
                replacements[id(fn)] = (fn, self._span_wrapper(fn, f"{mod}.{fname}"))
        for mod, names in COUNTED.items():
            for fname in names:
                fn = getattr(getattr(h, mod), fname)
                replacements[id(fn)] = (fn, self._count_wrapper(fn, f"{mod}.{fname}"))
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((m, attr, value))
                    setattr(m, attr, hit[1])
        cls = h.derivation.Derivation
        audit = cls.audit
        self._restore.append((cls, "audit", audit))
        cls.audit = self._span_wrapper(audit, "derivation.audit")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        tag_of = self._tagger(name)
        start, end, parent = self.start, self.end, self.parent
        names, items, tags, stack = self.name, self.item, self.tag, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            items.append(self.current_item)
            tags.append(tag_of(args) if tag_of else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _tagger(self, name: str):
        height = self.hermlab.fields.height
        if name == "quadform.qf_is_isotropic":
            def tag(args):
                q = args[0]
                self.qf_entries += len(q.entries)
                key = (q.field, frozenset(Counter(q.entries).items()))
                if key in self.qf_keys:
                    self.qf_repeats += 1
                else:
                    self.qf_keys.add(key)
                return height(q.field)
            return tag
        if name == "quadform.u_quadratic":
            return lambda args: height(args[0])
        if name == "brauer.bc_is_division":
            def tag(args):
                B = args[0]
                key = (B.field, B.effective_symbols)
                if key in self.div_keys:
                    self.div_repeats += 1
                else:
                    self.div_keys.add(key)
                return 0
            return tag
        return None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the keyed extras."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, self_s = Counter(), Counter(), Counter()
        qf_height = {}
        uquad_height = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            if name == "quadform.qf_is_isotropic":
                entry = qf_height.setdefault(str(self.tag[i]), [0, 0.0])
                entry[0] += 1
                entry[1] += dur[i]
            elif name == "quadform.u_quadratic":
                uquad_height[str(self.tag[i])] += dur[i]
        calls.update(self.counts)
        return {"calls": dict(calls), "incl_s": dict(incl), "self_s": dict(self_s),
                "qf_entries": self.qf_entries, "qf_repeats": self.qf_repeats,
                "div_repeats": self.div_repeats, "qf_height": qf_height,
                "uquad_height": dict(uquad_height)}

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent, item, name, start_s, end_s."""
        with open(path, "w") as f:
            f.write("span,parent,item,name,start_s,end_s\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.item[i]},"
                        f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                        f"{self.end[i]:.9f}\n")
