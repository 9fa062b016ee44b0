"""Acceptance criteria: one test per criterion, each printing a verdict line.

Every numeric expectation here is exact; the stated wall-clock budgets are
enforced with a comfortable margin on the measured work.
"""

import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from hermlab.brauer import parse_brauer, trivial_class
from hermlab.cli import verify_paper
from hermlab.fields import parse_class, parse_field, sqcl_group
from hermlab.hermitian import canonical_involution, u_search, unitary_involution
from hermlab.lab import (
    basis_j,
    choose_pid,
    choose_sigma,
    gamma_involution,
    jacobson_verdict,
    larmour_decompose,
    scalar,
    standard_algebra,
)
from hermlab.quadform import QuadForm, qf_is_isotropic, qf_is_isotropic_oracle, u_quadratic
from hermlab.uinv import bounds_ai, bounds_tensor, sequence_abc, tensor_comparison_bound, u_exact

import random

DATA = Path(__file__).parent / "data"


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def child_values(derivation):
    return tuple(c.value for c in derivation.numeric_children())


def test_criterion_01_quadratic_u_values():
    start = time.monotonic()
    values = (u_quadratic(parse_field("F5")),
              u_quadratic(parse_field("CDV(F5)")),
              u_quadratic(parse_field("CDV(CDV(F5))")))
    elapsed = time.monotonic() - start
    report("criterion 1 (quadratic u-invariants 2/4/8)",
           values == (2, 4, 8) and elapsed < 10,
           f"values={values}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    total = disagreements = 0
    for p in (3, 5, 7):
        k = parse_field(f"CDV(F{p})")
        classes = sqcl_group(k)
        for dim in range(1, 6):
            for entries in product(classes, repeat=dim):
                form = QuadForm(k, entries)
                total += 1
                if qf_is_isotropic(form) != qf_is_isotropic_oracle(form):
                    disagreements += 1
    elapsed = time.monotonic() - start
    report("criterion 2 (independent deciders agree)",
           disagreements == 0 and total == 3 * 1364 and elapsed < 5,
           f"{total} forms, {disagreements} disagreements, {elapsed:.2f}s")


def test_criterion_03_local_quaternion_values():
    k = parse_field("CDV(F5)")
    B = parse_brauer(k, "(u,pi)")
    plus = u_exact(B, "plus")
    minus = u_exact(B, "minus")
    searched = u_search(B, canonical_involution(), 1)
    ok = (plus.value, minus.value, searched) == (3, 1, 1)
    report("criterion 3 (local quaternion 3/1, search agrees)", ok,
           f"recursion=({plus.value},{minus.value}), search={searched}")


def test_criterion_04_completion_quaternion_values():
    start = time.monotonic()
    k = parse_field("CDV(CDV(F5))")
    unram = parse_brauer(k, "(u,p)")
    ram = parse_brauer(k, "(u,t)")
    up, um = u_exact(unram, "plus"), u_exact(unram, "minus")
    rp, rm = u_exact(ram, "plus"), u_exact(ram, "minus")
    shapes = (
        up.value == 6 and up.derivation.combine == "double"
        and child_values(up.derivation) == (3,),
        um.value == 2 and child_values(um.derivation) == (1,),
        rp.value == 6 and child_values(rp.derivation) == (2, 4),
        rm.value == 2 and child_values(rm.derivation) == (2, 0),
    )
    searched = (u_search(unram, canonical_involution(), 1),
                u_search(ram, canonical_involution(), 1))
    elapsed = time.monotonic() - start
    report("criterion 4 (completion quaternion 6/2 both ways, search agrees)",
           all(shapes) and searched == (2, 2) and elapsed < 30,
           f"shapes={shapes}, search={searched}, {elapsed:.2f}s")


def test_criterion_05_unitary_values():
    k1 = parse_field("CDV(F5)")
    k2 = parse_field("CDV(CDV(F5))")
    transfer = u_search(trivial_class(k1),
                        unitary_involution(parse_class(k1, "u")), 1)
    case2 = u_exact(parse_brauer(k2, "(u,t)"), "zero", parse_class(k2, "p"))
    case3 = u_exact(parse_brauer(k2, "(u,p)"), "zero", parse_class(k2, "t"))
    ok = (transfer == 2
          and (case2.value, child_values(case2.derivation)) == (4, (2, 2))
          and (case3.value, child_values(case3.derivation)) == (4, (3, 1)))
    report("criterion 5 (unitary values 2 and 4 via both cases)", ok,
           f"transfer={transfer}, case2={case2.value}, case3={case3.value}")


def test_criterion_06_biquaternion_with_assertion():
    k = parse_field("CDV(GFF(9))")
    B = parse_brauer(k, "(a,b);(v,pi)")
    plus = u_exact(B, "plus", assertions={"residue"})
    minus = u_exact(B, "minus", assertions={"residue"})

    def audit_all(node):
        return node.audit() and all(audit_all(c) for c in node.children)

    ok = ((plus.value, child_values(plus.derivation)) == (5, (2, 3))
          and (minus.value, child_values(minus.derivation)) == (3, (2, 1))
          and audit_all(plus.derivation) and audit_all(minus.derivation))
    report("criterion 6 (asserted biquaternion 5/3, tree audited)", ok,
           f"plus={plus.value} via {child_values(plus.derivation)}, "
           f"minus={minus.value} via {child_values(minus.derivation)}")


def test_criterion_07_degree_bounds():
    values = (bounds_ai(3, 2), bounds_ai(3, 4), bounds_ai(2, 2),
              bounds_ai(3, 9, "second"))
    ok = values == ((6, 2), (5, 3), (3, 1), 4)
    report("criterion 7 (degree bounds)", ok, f"{values}")


def test_criterion_08_sequences():
    start = time.monotonic()
    s2 = sequence_abc(2)
    floor_ok = bounds_tensor(2, 8).floor_minus == 6
    identities = True
    for n in range(1, 21):
        cur, nxt = sequence_abc(n), sequence_abc(n + 1)
        identities &= nxt.a == Fraction(3, 4) * cur.a + cur.c
        identities &= nxt.b == Fraction(3, 2) * cur.b + Fraction(1, 2) * cur.c
        identities &= cur.c == Fraction(1, 2) * cur.a + cur.b
        identities &= Fraction(3, 2) * cur.a >= cur.c >= Fraction(3, 2) * cur.b
    comparison = all(bounds_tensor(n, 1).plus < tensor_comparison_bound(n)
                     for n in range(3, 11))
    elapsed = time.monotonic() - start
    ok = (s2.a == Fraction(29, 16) and s2.b == Fraction(13, 16)
          and floor_ok and identities and comparison and elapsed < 1)
    report("criterion 8 (exact sequences and bounds)", ok,
           f"a2={s2.a}, b2={s2.b}, identities={identities}, "
           f"comparison={comparison}, {elapsed:.2f}s")


def test_criterion_09_lab_constructions():
    start = time.monotonic()
    alg = standard_algebra(5)
    case1 = choose_pid(alg, choose_sigma(alg), basis_j(alg))
    gamma = gamma_involution(alg)
    case2 = choose_pid(alg, gamma, basis_j(alg))
    pid_ok = (case1.case == 1 and all(case1.checks.values())
              and case2.case == 2 and all(case2.checks.values()))
    rng = random.Random(20250808)
    mismatches = 0
    runs = 0
    for _ in range(120):
        rank = rng.randint(1, 3)
        scalars = []
        while len(scalars) < rank:
            m = rng.randint(-25, 25)
            if m == 0 or m % 5 == 0:
                continue
            scalars.append(Fraction(m * 5 ** rng.randint(0, 2)))
        entries = [scalar(alg, c) for c in scalars]
        verdict = larmour_decompose(entries, gamma, case2.pid).isotropic
        runs += 1
        if verdict != jacobson_verdict(scalars, alg):
            mismatches += 1
    elapsed = time.monotonic() - start
    report("criterion 9 (parameter checks and decomposition agreement)",
           pid_ok and mismatches == 0 and runs >= 100 and elapsed < 30,
           f"pid_ok={pid_ok}, {runs} forms, {mismatches} mismatches, {elapsed:.2f}s")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_criterion_10_verify_paper_exits_clean(p, capsys):
    code = verify_paper(p=p, as_json=True)
    out = capsys.readouterr().out
    golden = (DATA / f"verify_paper_p{p}.json").read_text()
    ok = code == 0 and "FAILED" not in out and out == golden
    print(f"{'PASS' if ok else 'FAIL'} criterion 10 (verify paper, p={p}): exit {code}")
    assert ok
