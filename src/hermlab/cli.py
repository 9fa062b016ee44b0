"""Command-line front end.

Verbs: isotropy (quad | herm), usearch, uinv exact, bounds (ai | tensor),
lab (pid | larmour) and verify paper.  Descriptors use the field grammar
(F5, CDV(F5), GFF(9), Qp[p=5]), classes as generator products (u*pi) and
Brauer classes as symbol lists ((u,pi);(v,t)).  JSON mode always includes
the full derivation tree; table mode prints the rule chain compactly.

Exit codes: 0 success, 1 usage error or a closed output pipe,
2 verification failure, 3 unsupported shape or missing assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .brauer import parse_brauer, parse_symbols
from .errors import (
    HermlabError,
    InvalidExtensionError,
    NeedsAssertionError,
    NotDivisionError,
    ParseError,
    UnsupportedClassError,
    UnsupportedFieldError,
    UnsupportedShapeError,
)
from .fields import parse_class, parse_field
from .hermitian import HermFormDesc, herm_is_isotropic, reduced_quadratic, u_search
from .lab import (
    LabAlgebra,
    QuaternionElt,
    basis_i,
    basis_ij,
    basis_j,
    choose_pid,
    choose_sigma,
    gamma_involution,
    jacobson_verdict,
    larmour_decompose,
    scalar,
    standard_algebra,
)
from .quadform import QuadForm, qf_is_isotropic_oracle, qf_isotropy_path
from .uinv import MAX_WITNESS_RANK, bounds_ai, bounds_tensor, expected_table, u_exact, witness

_USAGE_EXIT = 1
_VERIFY_EXIT = 2
_UNSUPPORTED_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _ascii_int(text: str) -> int:
    """An integer option, in ASCII digits only, as in the field and class
    grammars: int() alone would also read other Unicode digits."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# The values --eps accepts, with the sign each stands for.
_EPS = {"+1": 1, "-1": -1}

# Options that several verbs take: flag -> add_argument keywords.
_SHARED = {
    "--field": {"required": True},
    "--class": {"dest": "brauer", "default": "1"},
    "--lambda": {"dest": "lam", "default": None},
    "--eps": {"default": "+1", "choices": _EPS},
    "--p": {"type": _ascii_int, "required": True},
    "--symbol": {"default": None},
    "--sigma": {"choices": ("inti-gamma", "gamma")},
    "--t": {"default": "j"},
}


def _shared(parser, *flags, **overrides) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED[flag], **overrides)


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argparse tree, built on first use and shared by every later call;
    parsing leaves no state on it, each call gets a fresh namespace."""
    parser = _Parser(prog="hermlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    isotropy = sub.add_parser("isotropy", help="decide isotropy of a form")
    iso_sub = isotropy.add_subparsers(dest="what", required=True)
    quad = iso_sub.add_parser("quad")
    _shared(quad, "--field")
    quad.add_argument("--form", required=True, help="comma-separated entries, e.g. 1,u,pi")
    quad.add_argument("--oracle", action="store_true",
                      help="also run the invariant-based decider (height-one towers)")
    quad.set_defaults(run=_run_isotropy_quad)
    herm = iso_sub.add_parser("herm")
    _shared(herm, "--field", "--class", "--eps", "--lambda")
    herm.add_argument("--form", required=True)
    herm.set_defaults(run=_run_isotropy_herm)

    usearch = sub.add_parser("usearch", help="u-invariant by exhaustive search")
    _shared(usearch, "--field", "--class", "--lambda", "--eps")
    usearch.set_defaults(run=_run_usearch)

    uinv = sub.add_parser("uinv", help="exact u-invariants with derivations")
    uinv_sub = uinv.add_subparsers(dest="what", required=True)
    exact = uinv_sub.add_parser("exact")
    _shared(exact, "--field", "--class")
    exact.add_argument("--type", required=True, choices=("plus", "minus", "zero"))
    _shared(exact, "--lambda")
    exact.add_argument("--assert-division", dest="assertions", action="append",
                       default=[], choices=("residue",), metavar="TOKEN")
    exact.add_argument("--witness", action="store_true")
    exact.set_defaults(run=_run_uinv_exact)

    bounds = sub.add_parser("bounds", help="bound formulas")
    bounds_sub = bounds.add_subparsers(dest="what", required=True)
    ai = bounds_sub.add_parser("ai")
    ai.add_argument("--i", type=_ascii_int, required=True)
    ai.add_argument("--d", type=_ascii_int, default=2)
    ai.add_argument("--kind", default="first", choices=("first", "second"))
    ai.set_defaults(run=_run_bounds_ai)
    tensor = bounds_sub.add_parser("tensor")
    tensor.add_argument("--n", type=_ascii_int, required=True)
    tensor.add_argument("--uk", required=True)
    tensor.set_defaults(run=_run_bounds_tensor)

    lab = sub.add_parser("lab", help="concrete element checks")
    lab_sub = lab.add_subparsers(dest="what", required=True)
    pid = lab_sub.add_parser("pid")
    _shared(pid, "--p")
    _shared(pid, "--symbol", help="(a,b), defaults to (nonresidue, p)")
    _shared(pid, "--sigma", default="inti-gamma")
    _shared(pid, "--t")
    pid.set_defaults(run=_run_lab_pid)
    larmour = lab_sub.add_parser("larmour")
    _shared(larmour, "--p", "--symbol")
    _shared(larmour, "--sigma", default="gamma")
    _shared(larmour, "--t")
    larmour.add_argument("--form", required=True, help="comma-separated scalar entries")
    larmour.set_defaults(run=_run_lab_larmour)

    verify = sub.add_parser("verify", help="reproduce the published values")
    verify.add_argument("subject", choices=("paper",))
    verify.add_argument("--p", type=_ascii_int, default=5)
    verify.add_argument("--q", type=_ascii_int, default=9)
    verify.add_argument("--only", default=None,
                        help="run one section: uquad, oracle, local, completion, "
                             "unitary, gff, descent, bounds, sequence, lab")
    # looks verify_paper up per call: the parser is cached, the name may be rebound
    verify.set_defaults(run=lambda args: verify_paper(args.p, args.q, args.only, args.json))

    # every verb ends with --json
    for verb in (quad, herm, usearch, exact, ai, tensor, pid, larmour, verify):
        verb.add_argument("--json", action="store_true")
    return parser


def parse(argv) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# lab element grammar

# Longest name first: "ij" before "i" and "j".
_BASIS = {"ij": basis_ij, "k": basis_ij, "i": basis_i, "j": basis_j}


def _fraction(token: str, text: str, what: str) -> Fraction:
    """The rational n or n/d in ASCII digits in token, or a ParseError naming
    text: Fraction() alone also reads Unicode digits, "_", decimals and exponents."""
    if re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", token):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):  # more digits than int() converts, or n/0
            pass
    raise ParseError(f"cannot parse {what} {text!r}")


def parse_element(alg: LabAlgebra, text: str) -> QuaternionElt:
    s = text.strip().replace(" ", "")
    if "," in s:
        parts = s.split(",")
        if len(parts) != 4:
            raise ParseError("coordinate form needs four entries")
        return QuaternionElt(alg, tuple(_fraction(x, text, "element") for x in parts))
    body = s
    for name, basis in _BASIS.items():
        if body.endswith(name):
            head = body[:-len(name)].rstrip("*")
            if head in ("", "+"):
                coeff = Fraction(1)
            elif head == "-":
                coeff = Fraction(-1)
            else:
                coeff = _fraction(head, text, "element")
            return basis(alg).scale(coeff)
    return scalar(alg, _fraction(body, text, "element"))


def _parse_symbol(p: int, text) -> LabAlgebra:
    if text is None:
        return standard_algebra(p)
    symbols = parse_symbols(text, lambda x: _fraction(x, text, "symbol"))
    if len(symbols) != 1:
        raise ParseError(f"lab takes one symbol, got {len(symbols)}")
    return LabAlgebra(*symbols[0], p)


def _lab_setup(args):
    """The (algebra, involution, t) that lab pid and lab larmour start from."""
    alg = _parse_symbol(args.p, args.symbol)
    sigma = choose_sigma(alg) if args.sigma == "inti-gamma" else gamma_involution(alg)
    return alg, sigma, parse_element(alg, args.t)


# ---------------------------------------------------------------------------
# subcommand bodies

def _run_isotropy_quad(args) -> int:
    k = parse_field(args.field)
    entries = [parse_class(k, tok) for tok in args.form.split(",")]
    form = QuadForm(k, tuple(entries))
    isotropic, path = qf_isotropy_path(form)
    payload = {"field": args.field.strip(), "form": str(form),
               "isotropic": isotropic, "path": path}
    lines = [f"{form} over {k}: {'isotropic' if isotropic else 'anisotropic'}"]
    if args.oracle:
        payload["oracle"] = qf_is_isotropic_oracle(form)
        lines.append(f"invariant decider: "
                     f"{'isotropic' if payload['oracle'] else 'anisotropic'}")
    _emit(payload, args.json, lines)
    return 0


def _class_args(args):
    """(field, Brauer class, lam) from --field, --class and --lambda; lam is
    None, the first kind, when --lambda is absent."""
    k = parse_field(args.field)
    B = parse_brauer(k, args.brauer)
    return k, B, parse_class(k, args.lam) if args.lam else None


def _run_isotropy_herm(args) -> int:
    k, B, lam = _class_args(args)
    entries = tuple(parse_class(k, tok) for tok in args.form.split(","))
    h = HermFormDesc(B, lam, _EPS[args.eps], entries)
    isotropic = herm_is_isotropic(h)
    reduced = reduced_quadratic(h) if h.rank else None
    payload = {"field": str(k), "class": str(h.algebra), "shape": h.shape,
               "eps": h.eps, "rank": h.rank, "isotropic": isotropic,
               "reduced_quadratic": str(reduced) if reduced else None}
    _emit(payload, args.json, [
        f"rank-{h.rank} form over {payload['class']} / {payload['field']} "
        f"(shape {h.shape}): {'isotropic' if isotropic else 'anisotropic'}",
        f"reduced quadratic form: {payload['reduced_quadratic']}",
    ])
    return 0


def _run_usearch(args) -> int:
    k, B, lam = _class_args(args)
    eps = _EPS[args.eps]
    value = u_search(B, lam, eps)
    shape = HermFormDesc(B, lam, eps, ()).shape
    payload = {"field": str(k), "class": str(B), "shape": shape, "eps": eps, "u": value}
    _emit(payload, args.json, [f"u = {value} (shape {shape} over {k})"])
    return 0


def _run_uinv_exact(args) -> int:
    k, B, lam = _class_args(args)
    assertions = frozenset(args.assertions)
    value, derivation = u_exact(B, args.type, lam, assertions)
    payload = {"field": str(k), "class": str(B), "kind": args.type,
               "value": value, "derivation": derivation.to_json_dict()}
    lines = [f"u[{args.type}] = {value}", derivation.render()]
    if args.witness:
        if value > MAX_WITNESS_RANK:
            raise ValueError(f"a witness of rank {value} is above the supported bound "
                             f"{MAX_WITNESS_RANK}")
        w = witness(B, k, args.type, lam, assertions)
        payload["witness"] = {
            "rank": w.rank,
            "entries": [str(c) for c in w.entries] if w.entries is not None else None,
            "verified": w.verified,
            "tree": w.node.to_json_dict(),
        }
        flat = ("<" + ",".join(str(c) for c in w.entries) + ">"
                if w.entries is not None else "symbolic")
        lines.append(f"witness rank {w.rank}: {flat} "
                     f"({'verified' if w.verified else 'unverified'})")
    _emit(payload, args.json, lines)
    return 0


def _run_bounds_ai(args) -> int:
    value = bounds_ai(args.i, args.d, args.kind)
    if args.kind == "first":
        payload = {"i": args.i, "d": args.d, "kind": "first",
                   "plus": str(value[0]), "minus": str(value[1])}
        lines = [f"plus <= {value[0]}, minus <= {value[1]}"]
    else:
        payload = {"i": args.i, "kind": "second", "zero": str(value)}
        lines = [f"zero <= {value}"]
    _emit(payload, args.json, lines)
    return 0


def _run_bounds_tensor(args) -> int:
    result = bounds_tensor(args.n, _fraction(args.uk, args.uk, "--uk"))
    payload = {"n": args.n, "uk": str(result.u_base), "plus": str(result.plus),
               "minus": str(result.minus), "minus_floor": result.floor_minus,
               "zero": str(result.zero), "derivation": result.derivation.to_json_dict()}
    _emit(payload, args.json, [
        f"plus <= {result.plus}",
        f"minus <= {result.minus} (floor {result.floor_minus})",
        f"zero <= {result.zero}",
    ])
    return 0


def _run_lab_pid(args) -> int:
    alg, sigma, t = _lab_setup(args)
    result = choose_pid(alg, sigma, t)
    payload = {"p": args.p, "symbol": f"({alg.a},{alg.b})", "sigma": args.sigma,
               "t": str(t), "case": result.case, "pid": str(result.pid),
               "eps_prime": result.eps_prime,
               "checks": {k: bool(v) for k, v in result.checks.items()}}
    _emit(payload, args.json, [
        f"case {result.case}: pid = {result.pid}, sign {result.eps_prime:+d}",
        "checks: " + ", ".join(f"{k}={v}" for k, v in result.checks.items()),
    ])
    return 0


def _run_lab_larmour(args) -> int:
    alg, sigma, t = _lab_setup(args)
    pid = choose_pid(alg, sigma, t).pid
    entries = [parse_element(alg, tok) for tok in args.form.split(",")]
    result = larmour_decompose(entries, sigma, pid)
    payload = {"p": args.p, "symbol": f"({alg.a},{alg.b})", "sigma": args.sigma}
    lines = []
    for name, part in (("h1", result.h1), ("h2", result.h2)):
        isotropic = part.is_isotropic()
        payload[name] = {"entries": [list(e) for e in part.entries],
                         "involution": part.involution, "eps": part.eps,
                         "isotropic": isotropic}
        lines.append(f"{name} {part.involution}/{part.eps:+d}: {list(part.entries)} "
                     f"-> {'isotropic' if isotropic else 'anisotropic'}")
    payload["isotropic"] = payload["h1"]["isotropic"] or payload["h2"]["isotropic"]
    lines.append(f"verdict: {'isotropic' if payload['isotropic'] else 'anisotropic'}")
    scalars = [e.coords[0] for e in entries]
    if all(e == scalar(alg, c) for e, c in zip(entries, scalars)) \
            and sigma.name == "gamma":
        payload["trace_reduction"] = jacobson_verdict(scalars, alg)
        lines.append(f"trace reduction agrees: "
                     f"{payload['trace_reduction'] == payload['isotropic']}")
    _emit(payload, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# verification suite

def _verify_rows(p: int, q: int, only=None):
    table = expected_table(p, q)
    sections = {e.section for e in table}
    if only is not None and only not in sections:
        raise ParseError(f"unknown section {only!r}; pick one of "
                         f"{', '.join(sorted(sections))}")
    rows = []
    for entry in [e for e in table if only in (None, e.section)]:
        try:
            computed = entry.compute()
        except HermlabError as exc:
            computed = f"error: {exc}"
        rows.append({
            "section": entry.section, "instance": entry.instance,
            "expected": repr(entry.expected), "computed": repr(computed),
            "source": entry.source, "ok": entry.expected == computed,
        })
    return rows


def verify_paper(p: int = 5, q: int = 9, only=None, as_json: bool = False) -> int:
    rows = _verify_rows(p, q, only)
    ok = all(r["ok"] for r in rows)
    width = max((len(r["instance"]) for r in rows), default=0)
    lines = [f"[{'PASS' if r['ok'] else 'FAIL'}] {r['section']:>10} | "
             f"{r['instance']:<{width}} | expected {r['expected']} | "
             f"computed {r['computed']} | {r['source']}" for r in rows]
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r['ok'] for r in rows)}/{len(rows)} "
                 f"checks passed at p={p}, q={q}")
    _emit({"p": p, "q": q, "ok": ok, "rows": rows}, as_json, lines)
    return 0 if ok else _VERIFY_EXIT


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: exit 1, and let the flush at exit write nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ParseError, InvalidExtensionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (UnsupportedShapeError, UnsupportedFieldError, UnsupportedClassError,
            NeedsAssertionError, NotDivisionError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return _UNSUPPORTED_EXIT
    except HermlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
