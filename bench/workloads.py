"""The three benchmark workloads: seeded inputs, the timed item, the check.

Each workload is a closed loop with one client.  A run is a sequence of
passes, each in a fresh worker process, so every pass pays a cold import and
no in-process cache carries over from one pass to the next.  Inputs are
generated here as text in hermlab's public grammars (fields, classes, Brauer
classes, argv); the worker parses them during set-up and times the items.

Why these three:

* ``paper`` runs ``hermlab verify paper --only S --json`` for each of the ten
  sections at p = 3, 5, 7.  It is the end-to-end reproduction command and the
  only workload that runs the exhaustive quadform searches, ``lab`` and the
  oracle sweep.
* ``recursion`` runs ``u_exact`` + ``witness`` + ``Derivation.audit()`` on
  seeded instances of heights 1-4.  Its time goes to ``fields`` and
  ``brauer``; its division and isotropy inputs repeat heavily within a pass.
* ``isotropy`` decides a stream of diagonal forms at heights 1-4, no two of
  which share an entry multiset within a pass.  It exercises the same
  quadform layer as ``paper`` one decision at a time, with no shared inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import springer

WORKLOADS = ("paper", "recursion", "isotropy")

PRIMES = (3, 5, 7)
SECTIONS = ("uquad", "oracle", "local", "completion", "unitary", "gff",
            "descent", "bounds", "sequence", "lab")

# Items per pass.  paper: every (section, prime) pair once.  recursion: each
# (prime, height, symbol count, kind) stratum three times, so that the share
# of the expensive two-symbol instances does not vary from seed to seed.
# Two-symbol classes at heights 3 and 4 also take their division kind from a
# fixed quota near its frequency among random symbol pairs (quaternion 58% /
# biquaternion 38% at height 3, 30% / 70% at height 4): a quaternion-index
# pair costs several times a biquaternion, and leaving the split to chance
# moved a pass's total time by about 15%.
RECURSION_PER_STRATUM = 3
DIVISION_QUOTA = {3: ("quaternion", "quaternion", "biquaternion"),
                  4: ("quaternion", "biquaternion", "biquaternion")}
ISOTROPY_PASS = 1200
HERMITIAN_SHARE = 8          # one isotropy item in eight is hermitian


def field_text(p: int, h: int) -> str:
    return "CDV(" * h + f"F{p}" + ")" * h


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _random_class(rng: random.Random, h: int, nontrivial: bool = False) -> int:
    low = 1 if nontrivial else 0
    return rng.randrange(low, 1 << (h + 1))


# ---------------------------------------------------------------------------
# input generation (benchmark side, text only)

def generate(workload: str, seed: int, pass_index: int) -> list:
    """The inputs of one pass, as JSON-serialisable text records."""
    rng = _rng(workload, seed, pass_index)
    if workload == "paper":
        items = [{"section": s, "p": p,
                  "argv": ["verify", "paper", "--p", str(p), "--only", s, "--json"]}
                 for s in SECTIONS for p in PRIMES]
    elif workload == "recursion":
        items = [_recursion_instance(rng, p, h, nsym, kind,
                                     DIVISION_QUOTA[h][r] if nsym == 2 and h in DIVISION_QUOTA
                                     else None)
                 for p in PRIMES for h in (1, 2, 3, 4) for nsym in (1, 2)
                 for kind in ("plus", "minus", "zero")
                 for r in range(RECURSION_PER_STRATUM)]
    elif workload == "isotropy":
        items = _isotropy_stream(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def _recursion_instance(rng: random.Random, p: int, h: int, nsym: int, kind: str,
                        division=None) -> dict:
    while True:
        symbols = [(_random_class(rng, h, True), _random_class(rng, h, True))
                   for _ in range(nsym)]
        if division is None or springer.division_kind(p, symbols) == division:
            break
    item = {"p": p, "h": h, "field": field_text(p, h),
            "class": ";".join(f"({springer.render(a)},{springer.render(b)})"
                              for a, b in symbols),
            "kind": kind, "lam": None}
    if kind == "zero":
        item["lam"] = springer.render(_random_class(rng, h, True))
    return item


def _isotropy_stream(rng: random.Random) -> list:
    """Distinct forms: no two items share (field, multiset) of the entries
    that hermlab's quadratic decider receives, hermitian reductions included."""
    seen = set()
    items = []
    for i in range(ISOTROPY_PASS):
        h = 1 + i % 4
        shape = "quad"
        if i % HERMITIAN_SHARE == HERMITIAN_SHARE - 1:
            shape = "herm_a" if (i // HERMITIAN_SHARE) % 2 else "herm_b"
        for _ in range(1000):
            item = _isotropy_item(rng, shape, h)
            key = (item["p"], h, tuple(sorted(item["reduced"])))
            if key not in seen:
                seen.add(key)
                del item["reduced"]
                items.append(item)
                break
        else:
            raise RuntimeError(f"no fresh {shape} form at height {h}")
    return items


def _isotropy_item(rng: random.Random, shape: str, h: int) -> dict:
    p = rng.choice(PRIMES)
    item = {"shape": shape, "p": p, "h": h, "field": field_text(p, h)}
    if shape == "quad":
        dim = rng.randint(1, 2 ** (h + 1) + 2)
        entries = [_random_class(rng, h) for _ in range(dim)]
        item["reduced"] = entries
    elif shape == "herm_a":
        while True:
            a, b = _random_class(rng, h, True), _random_class(rng, h, True)
            if springer.is_division(p, a, b):
                break
        entries = [_random_class(rng, h) for _ in range(rng.randint(1, 2 ** (h - 1) + 1))]
        item["symbol"] = [springer.render(a), springer.render(b)]
        item["reduced"] = springer.trace_reduction(p, a, b, entries)
    else:
        lam = _random_class(rng, h, True)
        entries = [_random_class(rng, h) for _ in range(rng.randint(1, 2 ** h + 1))]
        item["lam"] = springer.render(lam)
        item["reduced"] = springer.transfer_reduction(p, lam, entries)
    item["form"] = ",".join(springer.render(c) for c in entries)
    return item


# ---------------------------------------------------------------------------
# set-up (worker side): parse the text with hermlab's public parsers

def prepare(workload: str, items: list, hermlab) -> list:
    """hermlab objects for each input record; this is the parsing part of set-up."""
    if workload == "paper":
        return [item["argv"] for item in items]
    fields, classes = {}, {}

    def field(text):
        if text not in fields:
            fields[text] = hermlab.fields.parse_field(text)
        return fields[text]

    def cls(k_text, text):
        key = (k_text, text)
        if key not in classes:
            classes[key] = hermlab.fields.parse_class(field(k_text), text)
        return classes[key]

    out = []
    for item in items:
        k = field(item["field"])
        if workload == "recursion":
            B = hermlab.brauer.parse_brauer(k, item["class"])
            lam = cls(item["field"], item["lam"]) if item["lam"] else None
            out.append((B, k, item["kind"], lam))
            continue
        entries = tuple(cls(item["field"], t) for t in item["form"].split(","))
        if item["shape"] == "quad":
            out.append(hermlab.quadform.QuadForm(k, entries))
        elif item["shape"] == "herm_a":
            algebra = hermlab.brauer.parse_brauer(k, "({},{})".format(*item["symbol"]))
            out.append(hermlab.hermitian.HermFormDesc(
                algebra, hermlab.hermitian.canonical_involution(), 1, entries))
        else:
            out.append(hermlab.hermitian.HermFormDesc(
                hermlab.brauer.trivial_class(k),
                hermlab.hermitian.unitary_involution(cls(item["field"], item["lam"])),
                1, entries))
    return out


# ---------------------------------------------------------------------------
# the timed item; every call goes through a module attribute so that the
# traced run's wrappers see it

def run_item(workload: str, obj, hermlab):
    """One item; returns a JSON-serialisable output."""
    try:
        if workload == "paper":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = hermlab.cli.main(obj)
            return [code, buf.getvalue()]
        if workload == "recursion":
            B, k, kind, lam = obj
            try:
                result = hermlab.uinv.u_exact(B, kind, lam)
                w = hermlab.uinv.witness(B, k, kind, lam)
                audit = result.derivation.audit()
            except hermlab.errors.NotDivisionError:
                return ["refused"]
            return ["ok", result.value, w.rank, w.verified, audit]
        if isinstance(obj, hermlab.quadform.QuadForm):
            return hermlab.quadform.qf_is_isotropic(obj)
        return hermlab.hermitian.herm_is_isotropic(obj)
    except Exception as exc:  # any other exception is a failed item
        return ["error", type(exc).__name__, str(exc)]


# ---------------------------------------------------------------------------
# independent checks, run after the timed loop

def check_paper(output) -> bool:
    """Exit code 0 and every row of the JSON report ``ok``."""
    if not isinstance(output, list) or output[0] != 0:
        return False
    try:
        rows = json.loads(output[1])["rows"]
    except (ValueError, KeyError, TypeError):
        return False
    return bool(rows) and all(r["ok"] for r in rows)


def check_recursion(output) -> bool:
    """A typed refusal completes; otherwise the derivation must audit and the
    verified witness must have rank equal to the value."""
    if output == ["refused"]:
        return True
    if not isinstance(output, list) or output[0] != "ok":
        return False
    _, value, rank, verified, audit = output
    return audit is True and verified is True and rank == value


def reference_verdict(item: dict) -> bool:
    """Isotropy from the generated text alone, through the reduced form for
    hermitian items."""
    p = item["p"]
    entries = [springer.parse(t) for t in item["form"].split(",")]
    if item["shape"] == "herm_a":
        a, b = (springer.parse(t) for t in item["symbol"])
        entries = springer.trace_reduction(p, a, b, entries)
    elif item["shape"] == "herm_b":
        entries = springer.transfer_reduction(p, springer.parse(item["lam"]), entries)
    return springer.is_isotropic(p, entries)


def check_isotropy(item: dict, output, oracle=None) -> bool:
    """The verdict must match the reference decider and, where given, the
    invariant oracle."""
    if not isinstance(output, bool):
        return False
    if oracle is not None and oracle != output:
        return False
    return output == reference_verdict(item)


def check(workload: str, item: dict, output, oracle=None) -> bool:
    if workload == "paper":
        return check_paper(output)
    if workload == "recursion":
        return check_recursion(output)
    return check_isotropy(item, output, oracle)
