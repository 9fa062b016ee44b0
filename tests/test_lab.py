"""Concrete quaternion arithmetic, parameter constructions and the
residue decomposition."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hermlab.errors import EngineError, UnsupportedShapeError
from hermlab.fields import class_of_rational, split_valuation
from hermlab.lab import (
    LabAlgebra,
    LarmourResult,
    QuaternionElt,
    _parameter_data,
    _twice_value,
    ResidueForm,
    basis_i,
    basis_ij,
    basis_j,
    choose_pid,
    choose_sigma,
    gamma_involution,
    jacobson_verdict,
    larmour_decompose,
    residue_elt,
    scalar,
    standard_algebra,
    w_value,
)
from hermlab.quadform import QuadForm, qf_is_isotropic, qf_is_isotropic_oracle

ALG = standard_algebra(5)

coords = st.tuples(*[st.integers(min_value=-9, max_value=9) for _ in range(4)])


def make(c, alg=ALG):
    return QuaternionElt(alg, tuple(Fraction(x) for x in c))


def _residue(x, p):
    """Image mod p of a p-integral rational, by search: the r with p | x - r."""
    x = Fraction(x)
    return next(r for r in range(p) if (x - r).numerator % p == 0)


def test_padic_rational_valuation_and_residue():
    x, y = Fraction(50, 3), Fraction(2, 5)
    assert split_valuation(x, 5) == (2, 2, 3)
    assert split_valuation(y, 5) == (-1, 2, 1)
    assert split_valuation(x * y, 5)[0] == 1
    assert _residue(Fraction(7, 3), 5) == (7 * pow(3, 3, 5)) % 5


def test_slot_a_residue_matches_brute_force():
    rng = random.Random(20)
    algs = [LabAlgebra(2, 5, 5), LabAlgebra(-3, 5, 5), standard_algebra(7)] + LATTICE_ALGEBRAS
    for p in (3, 5, 7, 11):
        for _ in range(20):
            num, den = (rng.choice([n for n in range(-60, 61) if n % p])
                        for _ in range(2))
            algs.append(LabAlgebra(Fraction(num, abs(den)), Fraction(p), p))
    for alg in algs:
        assert alg._a_residue == _residue(alg.a, alg.p), alg


@pytest.mark.parametrize("a", [0, 5, Fraction(1, 5)])
def test_slot_a_must_be_a_unit(a):
    with pytest.raises(ValueError) as exc:
        LabAlgebra(a, Fraction(5), 5)
    assert str(exc.value) == f"slot a = {a} of the symbol is not a 5-adic unit"


def test_standard_algebra_is_division():
    for p in (3, 5, 7):
        assert standard_algebra(p).is_division()
    assert not LabAlgebra(Fraction(1), Fraction(5), 5).is_division()


def test_standard_algebra_is_memoised_but_not_its_refusals():
    assert standard_algebra(7) is standard_algebra(7)
    for p in (9, 9, 2, 2):  # a refused prime raises again on the next call
        with pytest.raises(ValueError):
            standard_algebra(p)


@given(coords, coords)
@settings(max_examples=60)
def test_norm_is_multiplicative_and_conj_antimultiplicative(c1, c2):
    x, y = make(c1), make(c2)
    assert (x * y).nrd() == x.nrd() * y.nrd()
    assert (x * y).conj() == y.conj() * x.conj()
    assert x * x.conj() == scalar(ALG, x.nrd())


@given(coords, coords)
@settings(max_examples=60)
def test_value_is_a_valuation(c1, c2):
    x, y = make(c1), make(c2)
    if x.is_zero or y.is_zero:
        return
    assert w_value(x * y) == w_value(x) + w_value(y)
    if not (x + y).is_zero:
        assert w_value(x + y) >= min(w_value(x), w_value(y))
    sigma = gamma_involution(ALG)
    assert w_value(sigma(x)) == w_value(x)


# Test-local copies of the coordinate formulas over Fractions, the
# reference for the integer lattice arithmetic of QuaternionElt.

def _ref_mul(a, b, x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _ref_nrd(a, b, x):
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def _ref_vp(x, p):
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _ref_residue(x, a, b, p, allow_positive):
    """The residue pair, or None where residue_elt must raise ValueError."""
    if any(c.denominator % p == 0 for c in x):
        return None
    if any(x):
        n = _ref_nrd(a, b, x)
        if n == 0:
            return None
        w = Fraction(_ref_vp(n, p), 2)
        if w < 0 or (w != 0 and not allow_positive):
            return None
    return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in x[:2])


def _ref_str(x):
    parts = [f"{c}{n}" if n else f"{c}" for c, n in zip(x, ("", "i", "j", "ij")) if c != 0]
    return " + ".join(parts) if parts else "0"


# slots with rational entries and p in their denominators next to the
# standard presentations; every a is a p-adic unit
LATTICE_ALGEBRAS = [standard_algebra(5), LabAlgebra(Fraction(2, 3), Fraction(5, 7), 5),
                    LabAlgebra(Fraction(-3, 7), Fraction(1, 5), 5),
                    LabAlgebra(Fraction(2, 5), Fraction(9, 4), 3),
                    standard_algebra(7), LabAlgebra(Fraction(4), Fraction(1, 98), 7)]


def _rationals(p):
    """Rationals n/m * p**e: p-power denominators mixed with other primes,
    p-integral about half the time."""
    return st.builds(lambda n, e, m: Fraction(n, m) * Fraction(p) ** e,
                     st.integers(min_value=-60, max_value=60),
                     st.integers(min_value=-2, max_value=3),
                     st.sampled_from([1, 2, 3, 4, 7, 11]))


lattice_cases = st.sampled_from(LATTICE_ALGEBRAS).flatmap(
    lambda alg: st.tuples(st.just(alg),
                          st.tuples(*[_rationals(alg.p)] * 4),
                          st.tuples(*[_rationals(alg.p)] * 4),
                          _rationals(alg.p)))


@given(lattice_cases, st.booleans())
@settings(max_examples=200)
def test_lattice_arithmetic_matches_fraction_formulas(case, allow_positive):
    alg, xc, yc, c = case
    a, b, p = Fraction(alg.a), Fraction(alg.b), alg.p
    x, y = QuaternionElt(alg, xc), QuaternionElt(alg, yc)
    assert x.coords == xc and y.coords == yc
    assert all(type(t) is Fraction for t in x.coords)
    assert (x * y).coords == _ref_mul(a, b, xc, yc)
    assert (x + y).coords == tuple(s + t for s, t in zip(xc, yc))
    assert (x - y).coords == tuple(s - t for s, t in zip(xc, yc))
    assert (-x).coords == tuple(-s for s in xc)
    assert x.scale(c).coords == tuple(c * s for s in xc)
    assert x.conj().coords == (xc[0], -xc[1], -xc[2], -xc[3])
    n = _ref_nrd(a, b, xc)
    assert x.nrd() == n
    if n == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x.inverse().coords == tuple(t / n for t in (xc[0], -xc[1], -xc[2], -xc[3]))
        assert w_value(x) == Fraction(_ref_vp(n, p), 2)
        assert _twice_value(x) == _ref_vp(n, p)
        assert w_value(x) == Fraction(_twice_value(x), 2)
    if not any(xc):
        with pytest.raises(ValueError):
            w_value(x)
    assert x.is_integral() == all(t.denominator % p != 0 for t in xc)
    expected = _ref_residue(xc, a, b, p, allow_positive)
    if expected is None:
        with pytest.raises(ValueError):
            residue_elt(x, allow_positive=allow_positive)
    else:
        assert residue_elt(x, allow_positive=allow_positive) == expected
    assert str(x) == _ref_str(xc)


def test_one_element_built_two_ways_is_equal():
    halves = [QuaternionElt(ALG, (Fraction(2, 4), 0, 0, 0)), scalar(ALG, Fraction(1, 2)),
              scalar(ALG, 2) * scalar(ALG, Fraction(1, 4)),
              make((3, 0, 0, 0)).scale(Fraction(1, 6))]
    for x in halves:
        assert x == halves[0] and hash(x) == hash(halves[0])
    y = make((Fraction(2, 6), Fraction(10, 15), 0, Fraction(-4, 50)))
    z = make((Fraction(1, 3), Fraction(2, 3), 0, Fraction(-2, 25)))
    assert y == z and hash(y) == hash(z)
    w = make((1, 2, 3, 4))
    assert (y * w) * w.inverse() == y and hash((y * w) * w.inverse()) == hash(y)
    zero = y - z
    assert zero == scalar(ALG, 0) and hash(zero) == hash(scalar(ALG, 0))
    assert zero.is_zero and str(zero) == "0"


def test_residue_forms_carry_the_residue_of_a_rational_slot():
    # a = 2/3 reduces to 3 mod 7, a nonsquare; the residue forms must work
    # in F_7(sqrt(3)), not with the integer part of 2/3
    alg = LabAlgebra(Fraction(2, 3), Fraction(5, 7), 7)
    sigma = choose_sigma(alg)
    pid = choose_pid(alg, sigma, basis_j(alg)).pid
    res = larmour_decompose([basis_j(alg), basis_j(alg).scale(2) + basis_ij(alg)], sigma, pid)
    assert res.h1.u == res.h2.u == 3
    assert res.h2.rank == 2 and res.h2.involution == "identity"
    c1, c2 = res.h2.entries
    minus_prod = _fp2_mul((6, 0), _fp2_mul(c1, c2, 7, 3), 7, 3)
    squares = {_fp2_mul(s, s, 7, 3) for s in product(range(7), repeat=2)}
    assert res.h2.is_isotropic() == (minus_prod in squares)


def test_basis_values():
    assert w_value(basis_j(ALG)) == Fraction(1, 2)
    assert w_value(basis_ij(ALG)) == Fraction(1, 2)
    assert w_value(basis_i(ALG)) == 0
    assert w_value(scalar(ALG, 1)) == 0
    assert w_value(scalar(ALG, 5)) == 1
    with pytest.raises(ValueError):
        w_value(scalar(ALG, 0))


def test_inverse():
    x = make((3, 2, 1, 4))
    assert x * x.inverse() == scalar(ALG, 1)


def test_residue_examples():
    assert residue_elt(scalar(ALG, 1)) == (1, 0)
    assert residue_elt(make((3, 2, 0, 0))) == (3, 2)
    assert residue_elt(scalar(ALG, 1) + basis_j(ALG).scale(Fraction(5))) == (1, 0)
    with pytest.raises(ValueError):
        residue_elt(make((Fraction(1, 5), 0, 0, 0)))
    with pytest.raises(ValueError):
        residue_elt(scalar(ALG, 5))
    assert residue_elt(scalar(ALG, 5), allow_positive=True) == (0, 0)


def test_sigma_table_and_second_kind_residue():
    sigma = choose_sigma(ALG)
    i, j, ij = basis_i(ALG), basis_j(ALG), basis_ij(ALG)
    assert sigma(i) == -i and sigma(j) == j and sigma(ij) == ij
    rng = random.Random(7)
    for _ in range(100):
        x = make([rng.randint(-9, 9) for _ in range(4)])
        y = make([rng.randint(-9, 9) for _ in range(4)])
        assert sigma(x * y) == sigma(y) * sigma(x)
        assert sigma(sigma(x)) == x
    # residue involution moves sqrt(u): sigma(i) * i^-1 reduces to -1
    assert residue_elt(sigma(i) * i.inverse()) == (4, 0)


def test_sigma_refuses_split_presentations():
    with pytest.raises(UnsupportedShapeError):
        choose_sigma(LabAlgebra(Fraction(4), Fraction(5), 5))


def test_pid_case_one():
    sigma = choose_sigma(ALG)
    result = choose_pid(ALG, sigma, basis_j(ALG))
    assert result.case == 1
    assert result.pid == basis_j(ALG).scale(Fraction(2))
    assert result.eps_prime == 1
    assert all(result.checks.values())
    assert result.checks["case1_residue_is_two"]


def test_pid_case_two():
    gamma = gamma_involution(ALG)
    result = choose_pid(ALG, gamma, basis_j(ALG))
    assert result.case == 2
    assert result.pid == basis_ij(ALG).scale(Fraction(2))
    assert result.eps_prime == -1
    assert all(result.checks.values())
    assert result.checks["case2_chain_vanishes"]
    assert result.checks["case2_ratio_nonzero"]


def test_pid_scaled_parameter():
    gamma = gamma_involution(ALG)
    result = choose_pid(ALG, gamma, basis_j(ALG).scale(Fraction(5)))
    assert result.case == 2 and all(result.checks.values())
    assert w_value(result.pid) == Fraction(3, 2)
    sigma = choose_sigma(ALG)
    r2 = choose_pid(ALG, sigma, basis_j(ALG).scale(Fraction(5)))
    assert r2.case == 1 and all(r2.checks.values())


def test_pid_rejects_non_parameters():
    sigma = choose_sigma(ALG)
    with pytest.raises(ValueError):
        choose_pid(ALG, sigma, scalar(ALG, 5))  # integer value
    with pytest.raises(ValueError):
        choose_pid(ALG, sigma, scalar(ALG, 0))


def test_pid_other_primes():
    for p in (3, 7):
        alg = standard_algebra(p)
        sigma = choose_sigma(alg)
        gamma = gamma_involution(alg)
        assert choose_pid(alg, sigma, basis_j(alg)).case == 1
        assert choose_pid(alg, gamma, basis_j(alg)).case == 2


def test_decomposition_splits_by_parity():
    gamma = gamma_involution(ALG)
    pid = choose_pid(ALG, gamma, basis_j(ALG)).pid
    res = larmour_decompose([scalar(ALG, 1), scalar(ALG, 5)], gamma, pid)
    assert res.h1.rank == 2 and res.h2.rank == 0
    assert res.h1.involution == "conjugation"
    assert res.h2.involution == "identity"
    assert res.isotropic  # two conjugation entries always meet


def test_decomposition_mixed_entries_with_twisted_part():
    sigma = choose_sigma(ALG)
    pid = choose_pid(ALG, sigma, basis_j(ALG)).pid
    entries = [scalar(ALG, 1), basis_j(ALG)]  # both fixed by sigma
    res = larmour_decompose(entries, sigma, pid)
    assert res.h1.rank == 1 and res.h2.rank == 1
    assert res.h2.involution == "identity" and res.h2.eps == 1
    assert not res.isotropic


def test_decomposition_rejects_bad_entries():
    gamma = gamma_involution(ALG)
    pid = choose_pid(ALG, gamma, basis_j(ALG)).pid
    with pytest.raises(ValueError):
        larmour_decompose([basis_i(ALG)], gamma, pid)  # skew, not symmetric
    with pytest.raises(ValueError):
        larmour_decompose([scalar(ALG, 0)], gamma, pid)
    for eps in (2, 0, -2):  # a skew entry is not eps-symmetric for any of these
        with pytest.raises(ValueError):
            larmour_decompose([basis_i(ALG)], gamma, pid, eps)


def test_decomposition_matches_trace_reduction_randomized():
    rng = random.Random(20250808)
    gamma = gamma_involution(ALG)
    pid = choose_pid(ALG, gamma, basis_j(ALG)).pid
    agreements = 0
    for _ in range(120):
        rank = rng.randint(1, 3)
        scalars = []
        while len(scalars) < rank:
            m = rng.randint(-25, 25)
            if m == 0 or m % 5 == 0:
                continue
            scalars.append(Fraction(m * 5 ** rng.randint(0, 2)))
        entries = [scalar(ALG, c) for c in scalars]
        verdict = larmour_decompose(entries, gamma, pid).isotropic
        assert verdict == jacobson_verdict(scalars, ALG)
        agreements += 1
    assert agreements == 120


def _larmour_by_fractions(entries, sigma, pid, eps=1):
    """Reference decomposition: larmour_decompose before its valuations
    became integers, every value a Fraction and every sign a Fraction
    scale."""
    alg = pid.alg
    pid_inv, sigma_twisted, eps_prime, r, kind1, kind2 = _parameter_data(sigma, pid)

    def rescaler(shift: int) -> QuaternionElt:
        """An element x with 2*w(x) = shift, mixing pid and prime powers."""
        if shift % 2 == 0:
            return scalar(alg, Fraction(alg.p) ** (shift // 2))
        return pid.scale(Fraction(alg.p) ** ((shift - r) // 2))

    h1_entries, h2_entries = [], []
    for d in entries:
        if d.is_zero:
            raise ValueError("zero diagonal entry")
        if sigma(d) != d.scale(Fraction(eps)):
            raise ValueError("entry is not eps-symmetric under sigma")
        wd = w_value(d)
        if wd.denominator == 1:
            x = rescaler(-int(wd))
            unit = sigma(x) * d * x
            if w_value(unit) != 0:
                raise EngineError("rescaling missed the unit range")
            h1_entries.append(residue_elt(unit))
        else:
            e = d * pid_inv
            we = w_value(e)
            if we.denominator != 1:
                raise EngineError("parameter stripping left a half-odd value")
            x = rescaler(-int(we))
            unit = sigma_twisted(x) * e * x
            if w_value(unit) != 0:
                raise EngineError("rescaling missed the unit range")
            if sigma_twisted(unit) != unit.scale(Fraction(eps * eps_prime)):
                raise EngineError("twisted entry has the wrong symmetry")
            h2_entries.append(residue_elt(unit))

    u = _residue(alg.a, alg.p)
    h1 = ResidueForm(alg.p, u, tuple(h1_entries), kind1, eps)
    h2 = ResidueForm(alg.p, u, tuple(h2_entries), kind2, eps * eps_prime)
    return LarmourResult(h1, h2)


def _decomposition_outcome(decompose, entries, sigma, pid, eps):
    try:
        return decompose(entries, sigma, pid, eps)
    except (ValueError, EngineError) as exc:
        return type(exc)


def _random_entry(alg, sigma, eps, rng):
    """x + eps * sigma(x) for a seeded x whose coordinates carry powers of
    p from -2 to 2, so values fall on both sides of zero; one draw in ten
    is x itself, which is rarely eps-symmetric."""
    x = QuaternionElt(alg, [Fraction(rng.randint(-4, 4)) * Fraction(alg.p) ** rng.randint(-2, 2)
                            for _ in range(4)])
    if rng.random() < 0.1:
        return x
    return x + sigma(x) if eps == 1 else x - sigma(x)


@pytest.mark.parametrize("alg", [standard_algebra(p) for p in (3, 5, 7)]
                         + [LabAlgebra(Fraction(2, 3), Fraction(5, 7), 7)])
def test_decomposition_matches_the_fraction_reference(alg):
    rng = random.Random(4100 + alg.p)
    j = basis_j(alg)
    reached = set()
    for sigma in (gamma_involution(alg), choose_sigma(alg)):
        # the scaled parameters make the rescaling powers of p go negative
        for t in (j, j.scale(alg.p), j.scale(Fraction(1, alg.p))):
            pid = choose_pid(alg, sigma, t).pid
            for eps in (1, -1):
                for _ in range(15):
                    rank, entries = rng.randint(1, 3), []
                    while len(entries) < rank:
                        d = _random_entry(alg, sigma, eps, rng)
                        if not d.is_zero:
                            entries.append(d)
                    got = _decomposition_outcome(larmour_decompose, entries, sigma, pid, eps)
                    ref = _decomposition_outcome(_larmour_by_fractions, entries, sigma, pid, eps)
                    assert got == ref, (sigma.name, str(pid), eps, [str(d) for d in entries])
                    if isinstance(got, LarmourResult):
                        reached.add((sigma.name, eps, "twisted" if got.h2.rank else "unit"))
                        reached.update(("value", (w_value(d) > 0) - (w_value(d) < 0))
                                       for d in entries)
                    else:
                        reached.add(got)
    # every involution and sign decomposes; the twisted part is reached
    # where half-odd values are eps-symmetric, entries of positive and
    # negative value are rescaled, and non-symmetric entries are refused
    assert reached >= {("gamma", 1, "unit"), ("gamma", -1, "twisted"),
                       ("int(i)*gamma", 1, "twisted"), ("int(i)*gamma", -1, "unit"),
                       ("value", 1), ("value", -1), ValueError}


def _norm_entries(alg):
    return (Fraction(1), -alg.a, -alg.b, alg.a * alg.b)


def _fraction_product_form(scalars, alg):
    """Reference trace-reduction form: each product c*n of a scalar and a
    norm-form entry formed as a Fraction and classed on its own."""
    k = alg.tower()
    return QuadForm(k, tuple(class_of_rational(k, Fraction(c) * n)
                             for c in scalars for n in _norm_entries(alg)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_jacobson_verdict_matches_the_fraction_product_form(p):
    rng = random.Random(7000 + p)
    alg = standard_algebra(p)
    for _ in range(200):
        rank, scalars = rng.randint(1, 3), []
        while len(scalars) < rank:
            m = rng.randint(-20, 20)
            if m % p:
                scalars.append(Fraction(m * p ** rng.randint(0, 2)))
        ref = _fraction_product_form(scalars, alg)
        verdict = jacobson_verdict(scalars, alg)
        assert verdict == qf_is_isotropic(ref) == qf_is_isotropic_oracle(ref), scalars


@pytest.mark.parametrize("alg", [standard_algebra(p) for p in (3, 5, 7, 11, 13)]
                         + LATTICE_ALGEBRAS + [LabAlgebra(Fraction(1), Fraction(5), 5)])
def test_is_division_matches_the_fraction_norm_form(alg):
    k = alg.tower()
    ref = QuadForm(k, tuple(class_of_rational(k, c) for c in _norm_entries(alg)))
    assert alg.is_division() == (not qf_is_isotropic(ref))


def test_decomposition_verdict_independent_of_parameter():
    gamma = gamma_involution(ALG)
    pid1 = choose_pid(ALG, gamma, basis_j(ALG)).pid
    pid2 = choose_pid(ALG, gamma, basis_j(ALG).scale(Fraction(5))).pid
    pid3 = choose_pid(ALG, gamma, basis_ij(ALG)).pid
    rng = random.Random(99)
    for _ in range(40):
        scalars = [Fraction(m * 5 ** rng.randint(0, 1))
                   for m in rng.sample([1, 2, 3, 4, 6, 7, -1, -2, -3], k=2)]
        entries = [scalar(ALG, c) for c in scalars]
        verdicts = {larmour_decompose(entries, gamma, pid).isotropic
                    for pid in (pid1, pid2, pid3)}
        assert len(verdicts) == 1


def test_parameter_memo_keys_on_involution_and_parameter():
    sigma, gamma = choose_sigma(ALG), gamma_involution(ALG)
    pids = [choose_pid(ALG, sigma, basis_j(ALG)).pid,
            choose_pid(ALG, gamma, basis_j(ALG)).pid,
            choose_pid(ALG, gamma, basis_j(ALG).scale(Fraction(5))).pid,
            choose_pid(ALG, gamma, basis_ij(ALG)).pid]
    scalars = [scalar(ALG, 1), scalar(ALG, 10)]
    # entries of half-odd value land in the twisted part, which uses pid^-1
    twisted = {sigma: ([basis_j(ALG), basis_ij(ALG).scale(Fraction(5))], 1),
               gamma: ([basis_i(ALG), basis_j(ALG), basis_ij(ALG).scale(Fraction(5))], -1)}
    # consecutive calls share the parameter but not the involution, then
    # the involution but not the parameter
    pairs = ([(inv, pid) for pid in pids for inv in (sigma, gamma)]
             + [(inv, pid) for inv in (sigma, gamma) for pid in pids])
    calls = [(entries, inv, pid, eps) for inv, pid in pairs
             for entries, eps in ((scalars, 1), twisted[inv])]
    _parameter_data.cache_clear()
    warm = [larmour_decompose(*call) for call in calls]
    for call, result in zip(calls, warm):
        _parameter_data.cache_clear()
        assert larmour_decompose(*call) == result, call[1:]


def test_algebras_with_int_and_fraction_slots_share_one_parameter_entry():
    algs = [LabAlgebra(2, 5, 5), LabAlgebra(Fraction(2), Fraction(5), 5)]
    assert algs[0] == algs[1] and hash(algs[0]) == hash(algs[1])
    _parameter_data.cache_clear()
    results = []
    for alg in algs:
        sigma = choose_sigma(alg)
        pid = choose_pid(alg, sigma, basis_j(alg)).pid
        hits = _parameter_data.cache_info().hits
        # j has half-odd value and is fixed by sigma: it lands in the twisted part
        results.append(larmour_decompose([scalar(alg, 1), scalar(alg, 10), basis_j(alg)],
                                         sigma, pid))
        assert _parameter_data.cache_info().hits == hits + (alg is algs[1])
    assert _parameter_data.cache_info().currsize == 1
    assert results[0] == results[1]
    assert results[0].h1.u == results[1].h2.u == _residue(2, 5) == 2


def test_residue_square_classes():
    # the rule binary residue forms are decided by: a unit of F_p(sqrt(u))
    # is a square iff its norm is a square mod p
    for p in (3, 5, 7):
        u = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        units = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        squares = {_fp2_mul(x, x, p, u) for x in units}
        for a, b in units:
            norm = (a * a - u * b * b) % p
            assert ((a, b) in squares) == (pow(norm, (p - 1) // 2, p) == 1), (p, a, b)
        assert all((c, 0) in squares for c in range(1, p))
        # sqrt(u) has norm -u, a square iff -1 is not
        assert ((0, 1) in squares) == (p % 4 == 3)


def _fp2_mul(x, y, p, u):
    """Test-local product in F_p(sqrt(u)), elements as pairs (x0, x1)."""
    return ((x[0] * y[0] + u * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


@pytest.mark.parametrize("p", [3, 5])
def test_identity_involution_binary_forms_match_brute_force(p):
    u = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    units = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    for c1, c2 in product(units, repeat=2):
        # a nonzero (x, y) with c1*x^2 + c2*y^2 = 0 has both coordinates nonzero
        lhs = {_fp2_mul(c1, _fp2_mul(x, x, p, u), p, u) for x in units}
        rhs = (_fp2_mul(c2, _fp2_mul(y, y, p, u), p, u) for y in units)
        expected = any(((-r0) % p, (-r1) % p) in lhs for r0, r1 in rhs)
        form = ResidueForm(p, u, (c1, c2), "identity", 1)
        assert form.is_isotropic() == expected, (c1, c2)


def test_identity_involution_refuses_skew_entries():
    assert not ResidueForm(5, 2, (), "identity", -1).is_isotropic()
    with pytest.raises(EngineError):
        ResidueForm(5, 2, ((1, 0),), "identity", -1).is_isotropic()
