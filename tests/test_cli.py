"""Command parsing, output shapes and exit codes."""

import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hermlab import lab
from hermlab.brauer import parse_brauer
from hermlab.cli import build_parser, main, parse, parse_element
from hermlab.errors import EngineError, ParseError
from hermlab.fields import parse_field
from hermlab.lab import basis_ij, basis_j, scalar, standard_algebra
from hermlab.quadform import u_quadratic
from hermlab.uinv import expected_table, witness

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_parse_builds_commands():
    args = parse(["isotropy", "quad", "--field", "CDV(F5)", "--form", "1,u"])
    assert args.verb == "isotropy" and args.what == "quad"
    args = parse(["uinv", "exact", "--field", "CDV(GFF(9))", "--class", "(u,pi)",
                  "--type", "plus", "--assert-division", "residue"])
    assert args.assertions == ["residue"]
    args = parse(["bounds", "tensor", "--n", "2", "--uk", "8"])
    assert args.n == 2


def test_parse_errors_do_not_exit():
    with pytest.raises(ParseError):
        parse(["isotropy", "quad", "--field", "CDV(F5)"])
    with pytest.raises(ParseError):
        parse(["nonsense"])


def test_cached_parser_holds_no_state_between_calls():
    first = parse(["verify", "paper", "--only", "lab"])
    second = parse(["verify", "paper"])
    assert first.only == "lab" and second.only is None
    assert first is not second
    marked = parse(["uinv", "exact", "--field", "CDV(F5)", "--type", "plus",
                    "--assert-division", "residue"])
    plain = parse(["uinv", "exact", "--field", "CDV(F5)", "--type", "plus"])
    assert marked.assertions == ["residue"] and plain.assertions == []
    with pytest.raises(ParseError):
        parse(["verify", "paper", "--only"])
    assert parse(["verify", "paper"]).only is None


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "isotropy", "quad", "--field", "CDV(F5)")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "isotropy", "quad", "--field", "F6", "--form", "1")
    assert code == 1
    code, _, err = run(capsys, "uinv", "exact", "--field", "CDV(F5)",
                       "--class", "(u,pi)", "--type", "zero")
    assert code == 1  # unitary kind without the extension class


def test_deeply_nested_fields_are_a_usage_error(capsys):
    def nested(layers):
        return "CDV(" * layers + "F5" + ")" * layers

    refusal = "usage error: a field descriptor nests at most 64 CDV layers\n"
    for argv in (("isotropy", "quad", "--field", nested(1000), "--form", "1,u"),
                 ("uinv", "exact", "--field", nested(500), "--class", "(u,pi)",
                  "--type", "plus")):
        assert run(capsys, *argv) == (1, "", refusal)
    code, out, _ = run(capsys, "uinv", "exact", "--field", nested(64), "--class", "(u,pi)",
                       "--type", "plus")
    assert code == 0 and out.startswith(f"u[plus] = {3 * 2 ** 63}\n")


@pytest.mark.parametrize("layers", [4, 64])
def test_exhaustive_searches_refuse_towers_above_the_class_bound(capsys, layers):
    field = "CDV(" * layers + "F5" + ")" * layers
    refusal = (f"exhaustive search covers towers of at most 16 square classes; "
               f"a height-{layers} tower has {2 << layers}")
    for involution in (("--class", "(u,pi)"), ("--lambda", "u")):
        argv = ("usearch", *involution, "--field", field)
        assert run_within(5, capsys, *argv) == (1, "", f"usage error: {refusal}\n")
    with time_limit(5, "u_quadratic"), pytest.raises(ValueError) as err:
        u_quadratic(parse_field(field))
    assert str(err.value) == refusal


def test_quad_json_payload(capsys):
    code, payload, _ = run_json(capsys, "isotropy", "quad", "--field", "CDV(F5)",
                                "--form", "1,u,pi,u*pi", "--oracle")
    assert code == 0
    assert payload["isotropic"] is False
    assert payload["oracle"] is False
    assert payload["path"] and payload["path"][0]["field"] == "CDV(F5)"
    # stable under reserialization
    assert json.loads(json.dumps(payload)) == payload


# Full `isotropy quad --json` outputs, pinned byte for byte: residue paths at
# heights 1-3 through every finite-field reason, an empty twisted part, both
# verdicts and the invariant decider.
ISOTROPY_GOLDEN = {
    "h1f5_1_u": "--field CDV(F5) --form 1,u",
    "h1f5_1_u_pi_upi_oracle": "--field CDV(F5) --form 1,u,pi,u*pi --oracle",
    "h1f3_1_1_1": "--field CDV(F3) --form 1,1,1",
    "h2f5_1_u_p_t_upt": "--field CDV(CDV(F5)) --form 1,u,p,t,u*p*t",
    "h2f3_1_u_pi_upi_t": "--field CDV(CDV(F3)) --form 1,u,pi,u*pi,t",
    "h3f5_1_u_pi_t_s_upits": "--field CDV(CDV(CDV(F5))) --form 1,u,pi,t,s,u*pi*t*s",
}


@pytest.mark.parametrize("name", list(ISOTROPY_GOLDEN))
def test_isotropy_quad_json_golden(capsys, name):
    code, out, _ = run(capsys, "isotropy", "quad", *ISOTROPY_GOLDEN[name].split(),
                       "--json")
    assert code == 0
    assert out == (DATA / f"isotropy_quad_{name}.json").read_text()


def test_herm_json_payload(capsys):
    code, payload, _ = run_json(
        capsys, "isotropy", "herm", "--field", "CDV(F5)", "--class", "(u,pi)",
        "--eps", "+1", "--form", "1,pi")
    assert code == 0
    assert payload["shape"] == "a"
    assert payload["isotropic"] is True
    assert payload["reduced_quadratic"].startswith("<")


def test_herm_without_lambda_takes_the_canonical_involution(capsys):
    # the class of isotropy_herm_a, with no involution option
    code, payload, _ = run_json(capsys, "isotropy", "herm", "--field", "CDV(F5)",
                                "--class", "(u,pi)", "--form", "1")
    assert code == 0 and payload["shape"] == "a" and payload["isotropic"] is False
    code, payload, _ = run_json(capsys, "isotropy", "herm", "--field", "CDV(F5)",
                                "--lambda", "u", "--form", "1")
    assert code == 0 and payload["shape"] == "b"


def test_usearch(capsys):
    code, payload, _ = run_json(capsys, "usearch",
                                "--field", "CDV(F5)", "--class", "(u,pi)")
    assert code == 0 and payload["u"] == 1
    code, payload, _ = run_json(capsys, "usearch",
                                "--field", "CDV(F5)", "--lambda", "u")
    assert code == 0 and payload["u"] == 2


def test_usearch_shape_a_reduces_a_two_symbol_class(capsys):
    # (u,u);(u,pi) is the class of (u,pi): u = 1, and <1> is anisotropic
    code, payload, _ = run_json(capsys, "usearch", "--field",
                                "CDV(F5)", "--class", "(u,u);(u,pi)")
    assert code == 0 and payload["u"] == 1
    code, payload, _ = run_json(capsys, "isotropy", "herm", "--field", "CDV(F5)",
                                "--class", "(u,u);(u,pi)", "--form", "1")
    assert code == 0 and payload["isotropic"] is False


def test_usearch_refuses_an_unsupported_class_and_lambda_like_isotropy_herm(capsys):
    # a division class with a unitary involution has no concrete decider
    options = ("--field", "CDV(F5)", "--class", "(u,pi)", "--lambda", "u")
    refusal = "unsupported: no concrete decider for this form shape\n"
    assert run(capsys, "usearch", *options) == (3, "", refusal)
    assert run(capsys, "isotropy", "herm", *options, "--form", "1") == (3, "", refusal)


def test_uinv_exact_json_includes_derivation(capsys):
    code, payload, _ = run_json(
        capsys, "uinv", "exact", "--field", "CDV(CDV(F5))", "--class", "(u,t)",
        "--type", "plus", "--witness")
    assert code == 0
    assert payload["value"] == 6
    deriv = payload["derivation"]
    assert set(deriv) >= {"rule", "field", "class", "kind", "value", "cite", "children"}
    assert [c["value"] for c in deriv["children"]] == [2, 4]
    assert payload["witness"]["rank"] == 6
    assert payload["witness"]["verified"] is True


# Full `uinv exact --witness --json` outputs, pinned byte for byte: one
# instance per branch of the residue walk (doubling, ramified sum, the three
# unitary cases, the Morita reduction, height 3, global-function-field leaves).
WITNESS_GOLDEN = {
    "h2f5_up_plus": "--field CDV(CDV(F5)) --class (u,p) --type plus",
    "h2f5_ut_minus": "--field CDV(CDV(F5)) --class (u,t) --type minus",
    "h2f5_1_zero_u": "--field CDV(CDV(F5)) --class 1 --type zero --lambda u",
    "h2f5_ut_zero_p": "--field CDV(CDV(F5)) --class (u,t) --type zero --lambda p",
    "h2f5_up_zero_t": "--field CDV(CDV(F5)) --class (u,p) --type zero --lambda t",
    "h2f3_upit_plus": "--field CDV(CDV(F3)) --class (u,pi*t) --type plus",
    "h3f3_upi_ts_plus": "--field CDV(CDV(CDV(F3))) --class (u,pi);(t,s) --type plus",
    "h3f5_upi_tupi_minus": "--field CDV(CDV(CDV(F5))) --class (u,pi);(t,u*pi) "
                           "--type minus",
    "h3f5_upit_piut_zero_s": "--field CDV(CDV(CDV(F5))) --class (u*pi,t);(pi,u*t) "
                             "--type zero --lambda s",
    "h4f3_upi_pit_plus": "--field CDV(CDV(CDV(CDV(F3)))) --class (u,pi);(pi,t) "
                         "--type plus",
    "h4f3_upit_piut_zero_t": "--field CDV(CDV(CDV(CDV(F3)))) --class (u*pi,t);(pi,u*t) "
                             "--type zero --lambda t",
    "gff_ab_vpi_plus": "--field CDV(GFF(9)) --class (a,b);(v,pi) --type plus "
                       "--assert-division residue",
    "gff_vpi_zero_w": "--field CDV(GFF(9)) --class (v,pi) --type zero --lambda w "
                      "--assert-division residue",
}


@pytest.mark.parametrize("name", list(WITNESS_GOLDEN))
def test_uinv_exact_witness_json_golden(capsys, name):
    code, out, _ = run(capsys, "uinv", "exact", *WITNESS_GOLDEN[name].split(),
                       "--witness", "--json")
    assert code == 0
    assert out == (DATA / f"uinv_witness_{name}.json").read_text()


def test_uinv_missing_assertion_exit_code(capsys):
    code, _, err = run(capsys, "uinv", "exact", "--field", "CDV(GFF(9))",
                       "--class", "(a,b);(v,pi)", "--type", "plus")
    assert code == 3 and "assert" in err


def test_uinv_not_division_exit_code(capsys):
    code, _, err = run(capsys, "uinv", "exact", "--field", "CDV(CDV(F5))",
                       "--class", "(u,p)", "--type", "zero", "--lambda", "u")
    assert code == 3 and "division" in err


def test_unsupported_shape_exit_code(capsys):
    code, _, err = run(capsys, "usearch", "--field", "CDV(F5)",
                       "--class", "(u,pi)", "--eps", "-1")
    assert code == 3


def test_bounds_commands(capsys):
    code, payload, _ = run_json(capsys, "bounds", "ai", "--i", "3", "--d", "4")
    assert code == 0 and payload["plus"] == "5" and payload["minus"] == "3"
    code, payload, _ = run_json(capsys, "bounds", "tensor", "--n", "2", "--uk", "8")
    assert code == 0
    assert payload["minus"] == "13/2" and payload["minus_floor"] == 6


def test_lab_commands(capsys):
    code, payload, _ = run_json(capsys, "lab", "pid", "--p", "5",
                                "--sigma", "inti-gamma", "--t", "j")
    assert code == 0 and payload["case"] == 1 and all(payload["checks"].values())
    code, payload, _ = run_json(capsys, "lab", "pid", "--p", "5",
                                "--sigma", "gamma", "--t", "j")
    assert code == 0 and payload["case"] == 2
    code, payload, _ = run_json(capsys, "lab", "larmour", "--p", "5",
                                "--sigma", "gamma", "--form", "1,5")
    assert code == 0
    assert payload["isotropic"] is True
    assert payload["trace_reduction"] is True


def test_lab_symbol_needs_two_slots(capsys):
    code, _, err = run(capsys, "lab", "pid", "--p", "5", "--symbol", "(1,2,3)")
    assert code == 1 and "a symbol has two slots" in err


@pytest.mark.parametrize("argv", [
    ("uinv", "exact", "--field", "CDV(F5)", "--class", "(u,pi", "--type", "plus"),
    ("isotropy", "herm", "--field", "CDV(F5)", "--class", "(u,pi", "--form", "1"),
    ("usearch", "--field", "CDV(F5)", "--class", "u,pi)"),
    ("lab", "pid", "--p", "5", "--symbol", "(2,5"),
])
def test_a_malformed_symbol_list_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage error: malformed symbol ")


def test_symbol_lists_have_one_reader(capsys):
    code, _, err = run(capsys, "uinv", "exact", "--field", "CDV(F5)",
                       "--class", "(u,pi,t)", "--type", "plus")
    assert code == 1 and "a symbol has two slots" in err
    code, _, err = run(capsys, "lab", "pid", "--p", "5", "--symbol", "(2,5);(2,5)")
    assert code == 1 and "lab takes one symbol, got 2" in err


@pytest.mark.parametrize("argv", [
    ("isotropy", "herm", "--field", "CDV(F5)", "--class", "(u,pi)", "--eps", "1",
     "--form", "1"),
    ("usearch", "--field", "CDV(F5)", "--class", "(u,pi)", "--eps", "1"),
    ("uinv", "exact", "--field", "CDV(F5)", "--class", "(u,pi)", "--type", "plus",
     "--assert-division", "foo"),
    ("uinv", "exact", "--field", "CDV(GFF(9))", "--class", "(a,b);(v,pi)", "--type", "plus",
     "--assert-division", "residu"),
])
def test_option_values_the_engine_never_reads_are_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "invalid choice" in err


@contextmanager
def time_limit(seconds, what):
    def timeout(signum, frame):
        raise TimeoutError(f"{what} did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_within(seconds, capsys, *argv):
    with time_limit(seconds, " ".join(argv)):
        return run(capsys, *argv)


def _tower(layers):
    return "CDV(" * layers + "F5" + ")" * layers


def test_tall_minus_value_builds_no_flat_witness(capsys):
    # the doubling steps would list 2**63 lifted classes
    code, out, _ = run_within(5, capsys, "uinv", "exact", "--field", _tower(64),
                              "--class", "(u,pi)", "--type", "minus")
    assert code == 0 and out.startswith(f"u[minus] = {2 ** 63}\n")
    k = parse_field(_tower(64))
    for kind, value in (("plus", 3 * 2 ** 63), ("minus", 2 ** 63)):
        with time_limit(1, f"witness {kind}"):
            w = witness(parse_brauer(k, "(u,pi)"), k, kind)
        assert (w.rank, w.node.rank, w.entries) == (value, value, None)


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_witness_above_the_rank_bound_is_a_usage_error(capsys, mode):
    def argv(layers, cls):
        return ("uinv", "exact", "--field", _tower(layers), "--class", cls,
                "--type", "plus", "--witness", *mode)

    for layers, cls, rank in ((64, "(u,pi)", 3 * 2 ** 63), (9, "1", 1024)):
        refusal = f"usage error: a witness of rank {rank} is above the supported bound 512\n"
        assert run_within(5, capsys, *argv(layers, cls)) == (1, "", refusal)
    # the plus witness of the trivial class at height 8 has rank 512
    code, out, _ = run_within(5, capsys, *argv(8, "1"))
    assert code == 0 and ("witness rank 512: <" in out or '"rank": 512' in out)


@pytest.mark.parametrize("layers", [10, 64])
def test_single_symbol_table_refuses_towers_above_the_class_bound(capsys, layers):
    refusal = ("usage error: single-symbol representatives cover towers of at most 512 "
               f"square classes; a height-{layers} tower has {2 << layers}\n")
    assert run_within(5, capsys, "uinv", "exact", "--field", _tower(layers),
                      "--class", "(u,pi);(u,t)", "--type", "plus") == (1, "", refusal)


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("hermlab ")]
    assert len(examples) == 11
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_lab_symbol_needs_a_unit_first_slot(capsys):
    for symbol in ("(2/5,5)", "(50,5)", "(10,5)"):
        for verb in (("pid",), ("larmour", "--form", "1,5")):
            code, _, err = run(capsys, "lab", *verb, "--p", "5", "--symbol", symbol)
            assert code == 1 and "slot a" in err, (verb, symbol)
    # the prime is checked first: a valuation at p = 1 would never end
    code, _, err = run_within(5, capsys, "lab", "pid", "--p", "1", "--symbol", "(2,3)")
    assert code == 1 and "odd prime" in err


HUGE = "1000000000000000003"


@pytest.mark.parametrize("argv", [
    ("lab", "pid", "--p", HUGE),
    ("lab", "pid", "--p", "1000000000000000000"),
    ("isotropy", "quad", "--field", f"F{HUGE}", "--form", "1"),
    ("verify", "paper", "--q", HUGE, "--only", "gff"),
    ("bounds", "tensor", "--n", "100000", "--uk", "8"),
    ("bounds", "ai", "--i", "20000"),
])
def test_huge_field_size_is_a_usage_error(capsys, argv):
    code, _, err = run_within(5, capsys, *argv)
    assert code == 1 and "above the supported bound" in err


def test_parse_element_grammar():
    alg = standard_algebra(5)
    assert parse_element(alg, "j") == basis_j(alg)
    assert parse_element(alg, "5j") == basis_j(alg).scale(5)
    assert parse_element(alg, "-j") == -basis_j(alg)
    assert parse_element(alg, "k") == basis_ij(alg)
    assert parse_element(alg, "7") == scalar(alg, 7)
    assert parse_element(alg, "1,2,3,4").coords == (1, 2, 3, 4)
    with pytest.raises(ParseError):
        parse_element(alg, "1,2,3")
    with pytest.raises(ParseError):
        parse_element(alg, "zebra")
    for text in ("1/0", "1/0j", "1,2,3,1/0"):
        with pytest.raises(ParseError):
            parse_element(alg, text)


@pytest.mark.parametrize("argv", [
    ("lab", "pid", "--p", "5", "--symbol", "(1/0,5)"),
    ("lab", "pid", "--p", "5", "--t", "1/0"),
    ("lab", "larmour", "--p", "5", "--form", "1/0"),
    ("bounds", "tensor", "--n", "2", "--uk", "1/0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "usage error" in err


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--only", "bounds")
    assert code == 0
    assert "[PASS]" in out and "bounds" in out and "lab" not in out


def test_verify_unknown_section(capsys):
    code, _, err = run(capsys, "verify", "paper", "--only", "nonsense")
    assert code == 1


@pytest.mark.parametrize("argv, q", [((), 9), (("--q", "25"), 25)])
def test_verify_summary_names_p_and_q(capsys, argv, q):
    code, out, _ = run(capsys, "verify", "paper", *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"OK: 38/38 checks passed at p=5, q={q}"


@pytest.mark.parametrize("argv, message", [
    (("--p", "0"), "finite base needs an odd prime, got 0"),
    (("--p", "1"), "finite base needs an odd prime, got 1"),
    (("--p", "4"), "finite base needs an odd prime, got 4"),
    (("--p", "-3"), "finite base needs an odd prime, got -3"),
    (("--p", "10000000000000"),
     "field size 10000000000000 is above the supported bound 1000000000000"),
    (("--q", "0"), "constant field size must be an odd prime power, got 0"),
    (("--q", "4"), "constant field size must be an odd prime power, got 4"),
    (("--q", "8"), "constant field size must be an odd prime power, got 8"),
    (("--only", "nonsense"), "unknown section 'nonsense'; pick one of bounds, completion, "
                             "descent, gff, lab, local, oracle, sequence, unitary, uquad"),
    (("--q", "-3"), "constant field size must be an odd prime power, got -3"),
])
def test_verify_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "verify", "paper", *argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "paper", "--p", "٥"), "--p", "٥"),
    (("bounds", "ai", "--i", "٣"), "--i", "٣"),
    (("bounds", "tensor", "--n", "١", "--uk", "8"), "--n", "١"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv, flag, value):
    # Arabic-Indic digits, which int() alone reads as 5, 3 and 1
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        1, "", f"usage error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv", [
    ("bounds", "tensor", "--n", "2", "--uk", "\u0668"),  # an Arabic-Indic 8
    ("bounds", "tensor", "--n", "2", "--uk", "1_0"),
    ("bounds", "tensor", "--n", "2", "--uk", "0.5"),
    ("bounds", "tensor", "--n", "1", "--uk", "1e10000000"),
    ("lab", "larmour", "--p", "5", "--form", "1_000"),
    ("lab", "pid", "--p", "5", "--t", "1e300000000j"),
    ("lab", "pid", "--p", "5", "--symbol", "(2,5e1)"),
])
def test_rational_options_take_ascii_digits_only(capsys, argv):
    # Fraction() alone reads all of these, the exponents after seconds or minutes
    code, out, err = run_within(2, capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage error: cannot parse "), err


def test_verify_json(capsys):
    code, payload, _ = run_json(capsys, "verify", "paper", "--only", "sequence")
    assert code == 0
    assert payload["ok"] is True
    assert all(row["ok"] for row in payload["rows"])


SECTIONS = sorted({entry.section for entry in expected_table()})


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("section", SECTIONS)
def test_verify_only_matches_the_golden_rows(capsys, p, section):
    code, payload, _ = run_json(capsys, "verify", "paper", "--p", str(p), "--only", section)
    golden = json.loads((DATA / f"verify_paper_p{p}.json").read_text())
    assert code == 0
    assert payload["rows"] == [row for row in golden["rows"] if row["section"] == section]


def test_only_help_names_the_table_sections():
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    only = next(a for a in verbs.choices["verify"]._actions if a.dest == "only")
    named = only.help.split(":", 1)[1].replace(" ", "").split(",")
    assert len(SECTIONS) == 10 and sorted(named) == SECTIONS


def test_an_engine_error_in_a_check_is_a_failed_row(capsys, monkeypatch):
    def broken(scalars, alg):
        raise EngineError("the two quadratic deciders disagree")

    monkeypatch.setattr(lab, "jacobson_verdict", broken)
    code, payload, _ = run_json(capsys, "verify", "paper", "--only", "lab")
    assert code == 2 and payload["ok"] is False
    row = payload["rows"][-1]
    assert row["instance"].startswith("decomposition vs trace reduction")
    assert row["ok"] is False and row["computed"].startswith("'error: ")
    assert [r["ok"] for r in payload["rows"][:-1]] == [True, True, True]


def test_help_text_lists_verbs():
    helptext = build_parser().format_help()
    for verb in ("isotropy", "usearch", "uinv", "bounds", "lab", "verify"):
        assert verb in helptext


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hermlab", "bounds", "ai", "--i", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "plus <= 6, minus <= 2\n"


def test_a_large_extension_degree_ends_fast():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def isotropy(field, timeout):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "hermlab", "isotropy", "quad",
                               "--field", field, "--form", "1,u"],
                              capture_output=True, text=True, env=env, timeout=timeout)
        return proc, time.monotonic() - start

    control, control_s = isotropy("CDV(F5)", 60)
    assert control.returncode == 0
    # the budget is about one second over a fresh process of the same verb
    budget = control_s + 1.0
    field = "CDV(F5^" + "9" * 4000 + ")"
    proc, elapsed = isotropy(field, budget)
    assert proc.returncode == 0 and elapsed < budget
    assert proc.stdout == f"<1,u> over {field}: anisotropic\n"


def test_non_ascii_digits_are_a_usage_error(capsys):
    code, out, err = run(capsys, "isotropy", "quad", "--field", "CDV(F\u0665)",
                         "--form", "1,\u0663")
    assert (code, out) == (1, "") and err.startswith("usage error: ")
    code, out, err = run(capsys, "isotropy", "quad", "--field", "CDV(F5)",
                         "--form", "1,\u0663")
    assert (code, out) == (1, "") and err.startswith("usage error: ")


def test_closed_output_pipe_exits_without_a_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    field = "CDV(" * 64 + "F5" + ")" * 64
    proc = subprocess.Popen([sys.executable, "-m", "hermlab", "uinv", "exact", "--field", field,
                             "--class", "(u,pi)", "--type", "plus"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the run writes anything
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


# Table-mode and `--json` stdout of one argv per output branch, pinned byte
# for byte in tests/data/cli_<name>.txt and cli_<name>.json.
CLI_GOLDEN = {
    "bounds_ai_first_d2": "bounds ai --i 3 --d 2",
    "bounds_ai_first_d3": "bounds ai --i 3 --d 3",
    "bounds_ai_first_d4": "bounds ai --i 5 --d 4",
    "bounds_ai_second_d2": "bounds ai --i 3 --d 2 --kind second",
    "bounds_ai_second_d3": "bounds ai --i 4 --d 3 --kind second",
    "bounds_ai_second_d4": "bounds ai --i 5 --d 4 --kind second",
    "bounds_tensor_8": "bounds tensor --n 2 --uk 8",
    "bounds_tensor_7_3": "bounds tensor --n 2 --uk 7/3",
    "bounds_tensor_1_2": "bounds tensor --n 3 --uk 1/2",
    "lab_pid_inti_gamma": "lab pid --p 5",
    "lab_pid_gamma": "lab pid --p 5 --sigma gamma",
    "lab_pid_symbol_inti_gamma": "lab pid --p 7 --symbol (2/3,5/7)",
    "lab_pid_symbol_gamma": "lab pid --p 7 --symbol (2/3,5/7) --sigma gamma --t 3ij",
    "lab_larmour_gamma": "lab larmour --p 5 --form 1,5",
    "lab_larmour_inti_gamma": "lab larmour --p 5 --sigma inti-gamma --form 1,j,5,ij",
    "lab_larmour_inti_gamma_binary": "lab larmour --p 5 --sigma inti-gamma --form j,-j",
    "lab_larmour_symbol_gamma": "lab larmour --p 7 --symbol (2/3,5/7) --form 1,7,3",
    "lab_larmour_symbol_inti_gamma": "lab larmour --p 7 --symbol (2/3,5/7) "
                                     "--sigma inti-gamma --form 1,j,ij",
    "uinv_h2f5_up_plus": "uinv exact --field CDV(CDV(F5)) --class (u,p) --type plus "
                         "--witness",
    "uinv_h2f5_up_zero_t": "uinv exact --field CDV(CDV(F5)) --class (u,p) --type zero "
                           "--lambda t --witness",
    "uinv_h3f5_upi_tupi_minus": "uinv exact --field CDV(CDV(CDV(F5))) "
                                "--class (u,pi);(t,u*pi) --type minus --witness",
    "uinv_gff_ab_vpi_plus": "uinv exact --field CDV(GFF(9)) --class (a,b);(v,pi) "
                            "--type plus --assert-division residue",
    "isotropy_herm_a": "isotropy herm --field CDV(F5) --class (u,pi) --form 1,pi",
    "isotropy_herm_b": "isotropy herm --field CDV(CDV(F3)) --lambda u*t --eps -1 "
                       "--form 1,pi,t",
    "usearch_a": "usearch --field CDV(F3) --class (u,pi)",
    "usearch_b": "usearch --field CDV(F3) --lambda pi",
}


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("name", list(CLI_GOLDEN))
def test_cli_output_golden(capsys, name, mode):
    argv = CLI_GOLDEN[name].split() + (["--json"] if mode == "json" else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"cli_{name}.{mode}").read_text()


HELP_GOLDEN = ["", "isotropy", "isotropy quad", "isotropy herm", "usearch", "uinv",
               "uinv exact", "bounds", "bounds ai", "bounds tensor", "lab", "lab pid",
               "lab larmour", "verify"]


@pytest.mark.parametrize("verb", HELP_GOLDEN)
def test_help_golden(capsys, monkeypatch, verb):
    # wide enough that no usage line wraps: Python 3.13 wraps them differently
    monkeypatch.setenv("COLUMNS", "160")
    with pytest.raises(SystemExit) as exit_info:
        main(verb.split() + ["-h"])
    assert exit_info.value.code == 0
    name = "_".join(["help", *verb.split()])
    assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text()


# The argv grammar for the totality test below: fields of height at most two
# over primes 3-13 and the global-function-field forms, class and Brauer
# tokens that do and do not parse over them, and lab symbols and elements
# with zero denominators.
PRIMES = st.sampled_from(["3", "5", "7", "11", "13"])
FIELDS = st.one_of(
    st.builds("F{}".format, PRIMES), st.builds("F{}^2".format, PRIMES),
    st.builds("CDV(F{})".format, PRIMES), st.builds("CDV(CDV(F{}))".format, PRIMES),
    st.builds("Qp[p={}]".format, PRIMES), st.builds("Qp((t))[p={}]".format, PRIMES),
    st.sampled_from(["GFF(9)", "GFF(25)", "GFF(27)", "GFF(6)", "CDV(GFF(9))",
                     "CDV(CDV(GFF(27)))", "F4", "CDV(F1)", "nonsense"]))
GOOD_CLASSES = st.sampled_from(["1", "u", "pi", "p", "t", "u*pi", "pi*t", "u*pi*t",
                                "-1", "2", "v", "a"])
CLASSES = GOOD_CLASSES | st.sampled_from(["0", "w", "s", "x y", "", "7" * 5000])
FORMS = (st.lists(GOOD_CLASSES, min_size=1, max_size=5)
         | st.lists(CLASSES, min_size=1, max_size=5)).map(",".join)
BRAUER = st.sampled_from(["1", "(u,pi)", "(u,t)", "(pi,t)", "(u*pi,t)", "(u,pi);(pi,t)",
                          "(u,pi);(t,u*pi)", "(a,b)", "(v,pi)", "(a,b);(v,pi)",
                          "(u,pi);(t,s);(u,t)", "(u,pi", "(u)", ""])
SMALL = st.integers(min_value=-2, max_value=12).map(str)
LAB_NUMBERS = st.sampled_from(["1", "2", "3", "5", "7", "2/3", "5/7", "1/0", "0", "-1",
                               "13/5", "x", "1e3", "1_0", "\u0663", "0.5", "1e300000000",
                               "7" * 5000])
ELEMENTS = st.one_of(
    LAB_NUMBERS,
    st.builds("{}{}".format, st.sampled_from(["", "-", "2", "1/0", "3/5"]),
              st.sampled_from(["i", "j", "ij", "k"])),
    st.lists(LAB_NUMBERS, min_size=3, max_size=4).map(",".join))
# symmetric under both involutions when the sign is +1
SYMMETRIC = st.sampled_from(["1", "2", "3", "5", "7", "-1", "2/3", "j", "2j", "-j", "ij",
                             "5ij"])
SYMBOLS = st.builds("({},{})".format, LAB_NUMBERS, LAB_NUMBERS) | st.just("(1,2,3)")


def _opt(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


ARGV = st.one_of(
    _argv(st.just(["isotropy", "quad", "--field"]), FIELDS.map(lambda f: [f]),
          FORMS.map(lambda f: ["--form", f]), _flag("--oracle"), _flag("--json")),
    _argv(st.just(["isotropy", "herm", "--field"]), FIELDS.map(lambda f: [f]),
          _opt("--class", BRAUER), _opt("--eps", st.sampled_from(["+1", "-1", "1", "2"])),
          _opt("--lambda", CLASSES),
          FORMS.map(lambda f: ["--form", f]), _flag("--json")),
    _argv(st.just(["usearch"]),
          FIELDS.map(lambda f: ["--field", f]), _opt("--class", BRAUER),
          _opt("--lambda", CLASSES), _opt("--eps", st.sampled_from(["+1", "-1"])),
          _flag("--json")),
    _argv(st.just(["uinv", "exact", "--field"]), FIELDS.map(lambda f: [f]),
          _opt("--class", BRAUER),
          st.sampled_from(["plus", "minus", "zero", "half"]).map(lambda k: ["--type", k]),
          _opt("--lambda", CLASSES), _opt("--assert-division", st.just("residue")),
          _flag("--witness"), _flag("--json")),
    _argv(st.just(["bounds", "ai", "--i"]), SMALL.map(lambda i: [i]),
          _opt("--d", SMALL), _opt("--kind", st.sampled_from(["first", "second"])),
          _flag("--json")),
    _argv(st.just(["bounds", "tensor", "--n"]), SMALL.map(lambda n: [n]),
          LAB_NUMBERS.map(lambda u: ["--uk", u]), _flag("--json")),
    _argv(st.sampled_from([["lab", "pid"], ["lab", "larmour"]]),
          st.sampled_from(["3", "5", "7", "11", "13", "3", "5", "7", "1", "4", "0"])
          .map(lambda p: ["--p", p]),
          _opt("--symbol", SYMBOLS), _opt("--sigma", st.sampled_from(["gamma", "inti-gamma"])),
          _opt("--t", ELEMENTS), _flag("--json")).flatmap(
        lambda argv: st.just(argv) if argv[1] == "pid" else
        (st.lists(SYMMETRIC, min_size=1, max_size=4) | st.lists(ELEMENTS, min_size=1, max_size=4))
        .map(lambda es: argv + ["--form", ",".join(es)])),
    _argv(st.just(["verify", "paper"]), _opt("--p", PRIMES | SMALL),
          _opt("--q", st.sampled_from(["9", "25", "27", "6", "1"])),
          _opt("--only", st.sampled_from(SECTIONS + ["nonsense"])), _flag("--json")),
)


@given(ARGV)
@settings(max_examples=400, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_drawn_argv_exits_with_a_code(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
