"""Concrete quaternion arithmetic, parameter constructions and the
residue decomposition."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hermlab.errors import EngineError, UnsupportedShapeError
from hermlab.lab import (
    LabAlgebra,
    _parameter_data,
    ResidueForm,
    basis_i,
    basis_ij,
    basis_j,
    choose_pid,
    choose_sigma,
    fp2_is_square,
    gamma_involution,
    jacobson_verdict,
    larmour_decompose,
    residue_elt,
    residue_rational,
    scalar,
    standard_algebra,
    vp,
    w_value,
)

ALG = standard_algebra(5)

coords = st.tuples(*[st.integers(min_value=-9, max_value=9) for _ in range(4)])


def make(c, alg=ALG):
    from hermlab.lab import QuaternionElt
    return QuaternionElt(alg, tuple(Fraction(x) for x in c))


def test_padic_rational_valuation_and_residue():
    x, y = Fraction(50, 3), Fraction(2, 5)
    assert vp(x, 5) == 2
    assert vp(y, 5) == -1
    assert vp(x * y, 5) == 1
    assert residue_rational(Fraction(7, 3), 5) == (7 * pow(3, 3, 5)) % 5


def test_standard_algebra_is_division():
    for p in (3, 5, 7):
        assert standard_algebra(p).is_division()
    assert not LabAlgebra(Fraction(1), Fraction(5), 5).is_division()


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


def test_residue_square_classes():
    # every prime-field unit is a square in the quadratic extension
    for c in range(1, 5):
        assert fp2_is_square((c, 0), 5, 2)
    assert not fp2_is_square((0, 1), 5, 2)  # sqrt(u) is not a square when p = 5


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
