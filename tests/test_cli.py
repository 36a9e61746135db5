"""Command-line interface: records, tables, determinism and exit codes."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexlink as al
from alexlink import cli
from alexlink.cli import main
from alexlink.factor import (MAX_FACTOR_VARS, is_negligible_factor,
                             norm_verdict)
from alexlink.laurent import (COEFFICIENT_BIT_BUDGET, FACTOR_DEGREE_BUDGET,
                              LaurentPoly, PolyParseError)

from conftest import (FIXTURE_DIR, braid_closure_pd, corpus_diagrams,
                      fixture_paths, is_negligible, load_fixture,
                      negligible_decompose, seeded)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = main(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def records(text):
    return [json.loads(line) for line in text.splitlines()]


def fx(name):
    return str(FIXTURE_DIR / f"{name}.lnk")


class TestInvariants:
    def test_hopf_record(self):
        status, out, err = run(["invariants", fx("hopf")])
        assert status == 0 and err == ""
        (rec,) = records(out)
        assert rec["kind"] == "invariants"
        assert rec["name"] == "Hopf"
        assert rec["m"] == 2 and rec["beta"] == 0
        assert rec["delta"] == "1"
        assert rec["conway"] == "z"
        assert rec["linkingNumbers"] == {"2,1": 1}
        assert rec["componentPolys"] == ["1", "1"]

    def test_directory_input_sorted(self):
        status, out, _ = run(["invariants", str(FIXTURE_DIR)])
        assert status == 0
        names = [r["file"] for r in records(out)]
        assert names == sorted(names)
        assert len(names) == len(list(FIXTURE_DIR.glob("*.lnk")))

    def test_deterministic_output(self):
        _, out1, _ = run(["invariants", str(FIXTURE_DIR)])
        _, out2, _ = run(["invariants", str(FIXTURE_DIR)])
        assert out1 == out2
        for line in out1.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_schema_version_present(self):
        _, out, _ = run(["invariants", fx("trefoil")])
        assert records(out)[0]["schemaVersion"] == 1

    def test_invariants_never_import_sympy(self):
        """The fixtures' invariants need no factorization nor sympy gcd."""
        code = ("import io, sys\n"
                "from alexlink import cli\n"
                f"status = cli.main(['invariants', {str(FIXTURE_DIR)!r}], "
                "out=io.StringIO(), err=io.StringIO())\n"
                "print(status, 'sympy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(al.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestObstruct:
    def test_json_bounds(self):
        status, out, _ = run(["obstruct", fx("L9a54")])
        assert status == 0
        (rec,) = records(out)
        assert rec["bounds"]["unlinking"]["lower"] == 3
        assert rec["bounds"]["splitting"]["lower"] == 4
        assert rec["bounds"]["weakSplitting"]["lower"] == 2
        assert rec["annotations"]["note_u"] == "3"

    def test_inconclusive_listed(self):
        _, out, _ = run(["obstruct", fx("L9a30")])
        assert records(out)[0]["inconclusive"] == ["unlinking"]

    def test_table_output(self):
        status, out, _ = run(["obstruct", "--table",
                              fx("hopf"), fx("L9a30")])
        assert status == 0
        lines = out.splitlines()
        assert lines[0].split() == ["name", "m", "beta", "u>=", "sp>=",
                                    "wsp>=", "flags"]
        assert len(lines) == 3
        assert "inconclusive:unlinking" in lines[2]

    def test_unknown_inconclusive_name_rejected(self, tmp_path):
        text = Path(fx("L9a30")).read_text()
        assert "note_open: unlinking\n" in text
        bad = tmp_path / "bad.lnk"
        bad.write_text(text.replace("note_open: unlinking",
                                    "note_open: unlinkng, "))
        both = tmp_path / "both.lnk"
        both.write_text(text.replace("note_open: unlinking",
                                     "note_open: splitting, weakSplitting"))
        status, out, err = run(["obstruct", "--table", str(bad), str(both)])
        assert status == 1
        assert err == (f"error: {bad}: note_open names ['unlinkng', ''], "
                       "which are not among the quantities unlinking, "
                       "splitting, weakSplitting\n")
        lines = out.splitlines()
        assert len(lines) == 2
        assert "inconclusive:splitting,weakSplitting" in lines[1]

    def test_search_depth_adds_intervals(self):
        _, out, _ = run(["obstruct", fx("hopf"), "--search-depth", "1"])
        (rec,) = records(out)
        assert rec["search"]["found"] and rec["search"]["depth"] == 1
        assert rec["intervals"]["splitting"] == {
            "lower": 1, "upper": 1, "exact": True}


class TestFactor:
    def test_factor_record(self):
        status, out, _ = run(["factor", "(t1-1)*(t2-1)", "--vars", "2"])
        assert status == 0
        (rec,) = records(out)
        assert rec["kind"] == "factor"
        assert {f["factor"] for f in rec["factors"]} \
            <= {"t1 - 1", "t2 - 1", "-t1 + 1", "-t2 + 1"}
        assert rec["negligible"]["isNegligible"]
        assert rec["isNormUpToNegligible"]["isNorm"]

    def test_non_norm_reported(self):
        _, out, _ = run(["factor", "t1*t2-1", "--vars", "2"])
        (rec,) = records(out)
        assert not rec["isNormUpToNegligible"]["isNorm"]
        assert rec["isNormUpToNegligible"]["blockingFactors"]

    def test_parse_error_exit_one(self):
        status, out, err = run(["factor", "t1+%%", "--vars", "1"])
        assert status == 1 and out == "" and "error" in err

    @pytest.mark.parametrize("text", ["t²+1", "٣*t", "t^٣", "t³"])
    def test_non_ascii_digit_is_a_parse_error(self, factor_calls, text):
        # str.isdigit holds for all four, but only ASCII digits are numbers
        status, out, err = run(["factor", text])
        assert status == 1 and out == "" and factor_calls == []
        assert err.startswith("error: ") and "at position" in err
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["1" * 5000 + "*t"], id="literal"),
        pytest.param(["t^" + "1" * 5000], id="exponent"),
        pytest.param(["t" + "1" * 5000, "--vars", "2"], id="index"),
        pytest.param(["2^4000*2^4000*2^4000*2^4000*2^4000*t"], id="product"),
    ])
    def test_long_number_or_big_product_is_a_parse_error(self, factor_calls,
                                                          argv):
        # past 4,300 digits int() and str() raise ValueError: each is
        # refused by the parser, before it is read or multiplied out
        status, out, err = run(["factor"] + argv)
        assert status == 1 and out == "" and factor_calls == []
        assert err.startswith("error: ") and "at position" in err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"the bound of {COEFFICIENT_BIT_BUDGET} bits" in err

    def test_non_ascii_digit_in_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alexlink.cli", "factor", "t²+1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(al.__file__).parents[1]),
                 "PYTHONIOENCODING": "utf-8"})
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: unexpected trailing input at "
                                      "position 1\n")
        assert proc.stderr.count("error:") == 1
        assert "Traceback" not in proc.stderr

    def test_zero_rejected(self):
        status, _, err = run(["factor", "0", "--vars", "1"])
        assert status == 1 and "zero" in err

    @pytest.mark.parametrize("nvars", ["0", "-3"])
    def test_vars_below_one_rejected(self, nvars):
        status, out, err = run(["factor", "1", "--vars", nvars])
        assert status == 1 and out == ""
        assert err == f"error: --vars {nvars}: need at least one variable\n"

    @pytest.mark.parametrize("nvars", [MAX_FACTOR_VARS + 1, 500])
    def test_vars_over_budget_rejected(self, nvars):
        # sympy recursed past the interpreter's limit near 500 variables
        status, out, err = run(["factor", "t1-1", "--vars", str(nvars)])
        assert status == 1 and out == ""
        assert err == (f"error: --vars {nvars}: exceeds the budget of "
                       f"{MAX_FACTOR_VARS} variables\n")

    def test_vars_budget_is_inclusive(self):
        status, out, _ = run(["factor", "t1-1", "--vars",
                              str(MAX_FACTOR_VARS)])
        assert status == 0
        assert records(out)[0]["vars"] == MAX_FACTOR_VARS

    def test_one_factorization_feeds_both_verdicts(self, factor_calls):
        text = "(t1^2-t1+1)*(2*t2^2-3*t2+2)*(t1*t2-1)^2"
        _, out, _ = run(["factor", text, "--vars", "2"])
        (rec,) = records(out)
        assert len(factor_calls) == 1
        p = al.parse_poly(text, 2)
        fact = al.factor_irreducible(p)
        for key, skip in [("isNormUpToNegligible", False),
                          ("isNormModuloUnivariate", True)]:
            v = norm_verdict(fact, skip_univariate=skip)
            assert rec[key]["isNorm"] == v.is_norm
            assert rec[key]["blockingFactors"] == \
                [al.format_poly(b) for b in v.blocking_factors]


    def test_leading_minus_after_double_dash(self):
        text = "-2*t^3*(1-t)^2*(t+1)"
        status, out, _ = run(["factor", "--", text])
        assert status == 0
        (rec,) = records(out)
        assert rec["input"] == text
        assert rec["negligible"] == {
            "sign": -1, "monomial": [3], "oneMinusTExponents": [2],
            "core": "2*t + 2", "isNegligible": False}

    def test_leading_minus_without_double_dash_is_a_usage_error(
            self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "-2*t^3*(1-t)^2*(t+1)"])
        assert exc.value.code == 2
        assert "required: poly" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["factor", "-2*t^3*(1-t)^2*(t+1)"],
                                      ["factor", "-t", "--vars", "1"],
                                      ["factor"]])
    def test_missing_poly_error_names_double_dash(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "required: poly; a polynomial that starts with '-' must " \
            "follow --" in err
        assert 'alexlink factor -- "-t^2+1"' in err

    def test_other_usage_errors_carry_no_hint(self, capsys):
        for argv in (["factor", "t", "--vars", "x"],
                     ["invariants"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "must follow --" not in capsys.readouterr().err


def check_negligible_record(p):
    """p's negligible object, read off its factorization, equals the
    reference decomposition, and the shape test on each irreducible factor
    equals the reference is_negligible."""
    fact = al.factor_irreducible(p)
    dec = negligible_decompose(p)
    assert cli._negligible_record(fact) == {
        "sign": dec.sign, "monomial": list(dec.monomial),
        "oneMinusTExponents": list(dec.one_minus_t_exponents),
        "core": al.format_poly(dec.core), "isNegligible": dec.core.is_one(),
    }, p
    for q, _ in fact.factors:
        assert is_negligible_factor(q) == is_negligible(q), q


@st.composite
def negligible_products(draw):
    """poly * negligible * unit in 1 to 3 variables; the poly may carry
    factors that look like 1 - t_i but are not negligible."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    p = LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-4, 4),
                                            max_size=4)))
    if p.is_zero():
        p = LaurentPoly.one(n)
    t = [LaurentPoly.var(n, i) for i in range(n)]
    near = [LaurentPoly.const(n, 2), t[-1] - 2, 1 - t[0] * t[-1]]
    for i in range(n):
        near += [1 + t[i], 1 - t[i] ** 2, t[i] ** 2 - t[i] + 1]
    for q in draw(st.lists(st.sampled_from(near), max_size=2)):
        p = p * q
    for i in range(n):
        p = p * (1 - t[i]) ** draw(st.integers(0, 3))
    return p * LaurentPoly.monomial(n, draw(exps),
                                    draw(st.sampled_from([1, -1])))


class TestNegligibleRecord:
    """The negligible object against the reference decomposition."""

    def test_corpus_polynomials(self):
        count = 0
        for d in corpus_diagrams():
            alex = al.alexander_data(d)
            polys = [alex.delta, alex.delta_tor,
                     *al.component_polynomials(d, alex)]
            for p in polys:
                if not p.is_zero():
                    check_negligible_record(p)
                    count += 1
        assert count >= 60

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(negligible_products())
    def test_products(self, p):
        check_negligible_record(p)


class TestFactorBudget:
    """Oversized input is refused before sympy is asked to factor it."""

    def test_budget_is_inclusive(self, factor_calls):
        budget = FACTOR_DEGREE_BUDGET
        status, out, err = run(["factor", f"t^{budget}-1"])
        assert status == 0 and err == "" and len(factor_calls) == 1
        status, out, err = run(["factor", f"t^{budget + 1}-1"])
        assert status == 1 and out == "" and len(factor_calls) == 1
        assert err == (f"error: degree span {budget + 1} exceeds the factor "
                       f"budget of {budget}\n")

    @pytest.mark.parametrize("text, nvars, span", [
        ("t^1000-1", 1, 1000),
        ("t^10000-1", 1, 10000),
        ("t1^1099511627776*t2-1", 2, 1099511627777),
        # the spans of the variables add up
        ("t1^200*t2^-100+1", 2, 300),
        ("(t1^100*t2^100*t3^100-1)*(t1^-30-t2)", 3, 331),
    ])
    def test_over_budget_rejected(self, factor_calls, text, nvars, span):
        status, out, err = run(["factor", text, "--vars", str(nvars)])
        assert status == 1 and out == "" and factor_calls == []
        assert f"degree span {span} exceeds the factor budget" in err

    @pytest.mark.parametrize("text, nvars, span", [
        # refused before the power or product is expanded
        ("(t+1)^30000", 1, 30000),
        ("(t^200+1)*(t^100-1)", 1, 300),
        ("(t1+t2)^200*(t1-1)^100", 2, 400),
    ])
    def test_expansion_over_budget_refused_while_parsing(
            self, factor_calls, text, nvars, span):
        status, out, err = run(["factor", text, "--vars", str(nvars)])
        assert status == 1 and out == "" and factor_calls == []
        assert err == (f"error: degree span {span} exceeds the factor "
                       f"budget of {FACTOR_DEGREE_BUDGET}\n")

    @pytest.mark.parametrize("text, nvars", [
        ("t^1152921504606846976", 1),
        ("t^-1152921504606846976", 1),
        ("t1^1152921504606846975*t1 + t2", 2),
        ("(t^1073741824)^1073741824", 1),
        ("t^99999999999999999999999999 - 1", 1),
        ("t2^-1152921504606846975*t2^-1", 2),
    ])
    def test_exponent_limit_is_a_parse_error(self, factor_calls, text, nvars):
        status, out, err = run(["factor", text, "--vars", str(nvars)])
        assert status == 1 and out == "" and factor_calls == []
        assert err.startswith("error: ") and "limit" in err
        assert "at position" in err and "Traceback" not in err

    def test_exponent_limit_in_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alexlink.cli", "factor",
             "t1^1152921504606846975*t1^2", "--vars", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(al.__file__).parents[1])})
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and "limit" in proc.stderr

    def test_constant_power_refused_at_once(self, factor_calls):
        # span 0, so only the coefficient bound can refuse it
        start = time.perf_counter()
        status, out, err = run(["factor", "7^999999999"])
        assert time.perf_counter() - start < 1
        assert status == 1 and out == "" and factor_calls == []
        assert err.startswith("error: power with coefficients of up to ")
        assert f"the bound of {COEFFICIENT_BIT_BUDGET} bits" in err
        assert "at position 11" in err

    def test_coefficient_bound_in_the_parser(self):
        with pytest.raises(PolyParseError,
                           match=f"bound of {COEFFICIENT_BIT_BUDGET} bits"):
            al.parse_poly("7^3000000", 1)
        t = LaurentPoly.var(1, 0)
        assert al.parse_poly("(2*t+3)^40", 1) == (2 * t + 3) ** 40
        # sum |c| = 1: no power of a unit grows its coefficients
        assert al.parse_poly("-1^999999999", 1) == LaurentPoly.const(1, -1)


class TestSearchCommand:
    def test_hopf(self):
        status, out, _ = run(["search", fx("hopf"), "--search-depth", "1"])
        assert status == 0
        (rec,) = records(out)
        assert rec["kind"] == "search"
        assert rec["search"]["mode"] == "inter"
        assert rec["intervals"]["splitting"]["exact"]

    def test_any_mode(self):
        _, out, _ = run(["search", fx("whitehead"), "--search-depth", "2",
                         "--mode", "any"])
        (rec,) = records(out)
        assert rec["search"]["mode"] == "any"
        assert rec["intervals"]["weakSplitting"]["upper"] == 2


def torus_fixture(tmp_path, n):
    """A fixture file holding T(2,n), the closure of sigma_1^n."""
    p = tmp_path / f"T2_{n}.lnk"
    p.write_text(f"name: T(2,{n})\npd: {braid_closure_pd([1] * n, 2)}\n")
    return str(p)


def sympy_loaded(tmp_path, argv):
    """(exit status, whether sympy is loaded) after ``argv`` runs in a
    fresh interpreter; None runs nothing but ``import alexlink``."""
    code = "import io, sys\nimport alexlink\nstatus = 0\n"
    if argv is not None:
        code += ("from alexlink import cli\n"
                 f"status = cli.main({argv!r}, out=io.StringIO(), "
                 "err=io.StringIO())\n")
    code += "print(status, 'sympy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(al.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    status, loaded = proc.stdout.split()
    return int(status), loaded == "True"


class TestLazySympy:
    """sympy is loaded only by a factorization that neither a certificate
    nor a degree-one split settles."""

    def test_import_alone(self, tmp_path):
        assert sympy_loaded(tmp_path, None) == (0, False)

    def test_certified_records_skip_sympy(self, tmp_path):
        # T(2,4): delta = 1 + t1*t2, linear in t1; unknotted components
        path = torus_fixture(tmp_path, 4)
        assert sympy_loaded(tmp_path, ["obstruct", path]) == (0, False)
        assert sympy_loaded(tmp_path, ["factor", "t1*t2+1", "--vars", "2"]) \
            == (0, False)

    def test_content_primes_by_trial_division(self, tmp_path):
        # 6 = 2 * 3 and t^2 - t + 1 is certified by its discriminant
        assert sympy_loaded(tmp_path, ["factor", "6*(t^2-t+1)"]) == \
            (0, False)
        # 1000003 * 1000033 is past 1000^2, so factorint splits it
        assert sympy_loaded(tmp_path, ["factor", "1000003*1000033*(t-2)"]) \
            == (0, True)
        status, out, _ = run(["factor", "1000003*1000033*(t-2)"])
        (rec,) = records(out)
        assert status == 0 and rec["unit"] == "-1"
        assert rec["factors"] == [
            {"factor": "-t + 2", "multiplicity": 1},
            {"factor": "1000003", "multiplicity": 1},
            {"factor": "1000033", "multiplicity": 1}]

    def test_knotted_component_loads_sympy(self, tmp_path):
        # t^2 - t + 1 is certified by its discriminant, in pure Python
        assert sympy_loaded(tmp_path, ["obstruct", fx("trefoil")]) == \
            (0, False)
        # the granny knot, the closure of s1^3 s2^3: delta = (t^2 - t + 1)^2
        # has no rational root and no certificate, so sympy factors it
        granny = tmp_path / "granny.lnk"
        granny.write_text(
            f"name: granny\npd: {braid_closure_pd([1, 1, 1, 2, 2, 2], 3)}\n")
        assert sympy_loaded(tmp_path, ["obstruct", str(granny)]) == (0, True)


class TestOverBudget:
    def test_over_skein_budget_succeeds(self, tmp_path):
        # 17 crossings: one over the skein's budget, which guards only
        # the skein reference, so the record has conway
        path = torus_fixture(tmp_path, 17)
        expected = al.divide_exact(al.parse_poly("t^17+1", 1),
                                   al.parse_poly("t+1", 1))
        # nabla(T(2,n)) = z nabla(T(2,n-1)) + nabla(T(2,n-2)), a Fibonacci
        # polynomial: the coefficient of z^(16-2j) is C(16-j, j)
        fibonacci = {16 - 2 * j: math.comb(16 - j, j) for j in range(9)}
        for argv in (["invariants"], ["obstruct"],
                     ["search", "--search-depth", "1"]):
            status, out, err = run(argv + [path])
            assert status == 0 and err == "", argv
            (rec,) = records(out)
            if argv[0] == "invariants":
                assert rec["conway"] == cli._conway_str(fibonacci)
            else:
                assert "conway" not in rec
            if argv[0] != "search":
                (poly,) = rec["componentPolys"]
                assert al.unit_equal(al.parse_poly(poly, 1), expected)

    def test_over_search_budget_keeps_obstruct_record(self, tmp_path):
        # 21 crossings: one over the search's budget, which guards only
        # the search and the upper bounds
        path = torus_fixture(tmp_path, 21)
        status, out, err = run(["obstruct", "--search-depth", "1", path,
                                fx("hopf")])
        assert status == 0 and err == ""
        big, hopf = records(out)
        assert big["search"] is None
        assert big["bounds"]["unlinking"]["lower"] == 1
        assert all(iv["upper"] is None and not iv["exact"]
                   for iv in big["intervals"].values())
        assert hopf["search"]["found"]
        status, out, err = run(["search", "--search-depth", "1", path])
        assert status == 1 and out == "" and "budget" in err

    def test_search_over_budget_skips_the_report(self, tmp_path,
                                                  monkeypatch):
        # the search's crossing budget is checked before the Alexander
        # stage, whose report would be thrown away
        calls = []
        monkeypatch.setattr(cli, "build_report",
                            lambda d: calls.append(d) or al.build_report(d))
        path = torus_fixture(tmp_path, 21)
        status, out, err = run(["search", "--search-depth", "1", path])
        assert (status, out) == (1, "")
        assert err == (f"error: {path}: 21 crossings exceed the budget "
                       f"of {al.search.SEARCH_CROSSING_BUDGET}\n")
        assert calls == []

    def test_search_depth_over_budget_is_an_error(self):
        status, out, err = run(["obstruct", "--search-depth", "5",
                                fx("hopf")])
        assert status == 1 and out == "" and "budget" in err


def mutate(rng, text):
    """text after one to three seeded edits: a character deleted, a
    separator inserted, a digit changed, a line repeated or dropped, or
    two numbers swapped."""
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(6)
        lines = text.splitlines()
        nums = [m.span() for m in re.finditer(r"\d+", text)]
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif op == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("[],:X- \n#") + text[i:]
        elif op == 2 and nums:
            i = rng.randrange(*rng.choice(nums))
            text = text[:i] + rng.choice("0123456789") + text[i + 1:]
        elif op in (3, 4) and lines:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [lines[i]] * (2 if op == 3 else 0)
            text = "\n".join(lines) + "\n"
        elif op == 5 and len(nums) >= 2:
            (a, b), (c, d) = sorted(rng.sample(nums, 2))
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text


class TestMutatedFixtures:
    """Damaged fixture files are reported one error line each, and never
    escape ``main`` as an exception."""

    @pytest.mark.parametrize("argv", [["invariants"], ["obstruct"],
                                      ["search", "--search-depth", "1"]])
    def test_each_file_is_a_record_or_one_error(self, tmp_path, argv):
        rng = seeded(81)
        texts = [p.read_text() for p in fixture_paths()]
        paths = []
        # a repeated line is an error since repeated keys are refused,
        # so 250 files keep at least 20 that parse
        for k in range(250):
            path = tmp_path / f"m{k:03d}.lnk"
            path.write_text(mutate(rng, rng.choice(texts)))
            paths.append(str(path))
        status, out, err = run(argv[:1] + [str(tmp_path)] + argv[1:])
        done = [r["file"] for r in records(out)]
        failed = [line[len("error: "):].split(": ", 1)[0]
                  for line in err.splitlines() if line.startswith("error:")]
        assert sorted(done + failed) == paths
        assert status == 1 and len(failed) >= 50 and len(done) >= 20


class TestExitCodes:
    def test_missing_file(self):
        status, out, err = run(["invariants", "/nonexistent/file.lnk"])
        assert status == 2
        assert "no such file" in err

    @pytest.mark.parametrize("argv", [["invariants"], ["obstruct", "--table"]])
    def test_missing_file_stops_the_loop(self, monkeypatch, argv):
        read = []
        parse = cli.parse_fixture
        monkeypatch.setattr(cli, "parse_fixture", lambda text, name_hint:
                            read.append(name_hint) or parse(text, name_hint))
        missing = "/nonexistent/file.lnk"
        status, out, err = run(argv + [fx("hopf"), missing, fx("trefoil")])
        assert status == 2 and err == f"error: no such file: {missing}\n"
        assert read == ["hopf"]
        if "--table" in argv:
            header, row = out.splitlines()
            assert header.split()[0] == "name" and row.split()[0] == "Hopf"
        else:
            (rec,) = records(out)
            assert rec["name"] == "Hopf"

    @pytest.mark.parametrize("argv", [["invariants"], ["obstruct", "--table"]])
    def test_directory_without_fixtures_stops_the_loop(self, tmp_path,
                                                       argv):
        # like a missing file: exit 2, the records before it written
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("not a fixture\n")
        status, out, err = run(argv + [fx("hopf"), str(empty),
                                       fx("trefoil")])
        assert status == 2 and err == f"error: no .lnk fixture in {empty}\n"
        if "--table" in argv:
            header, row = out.splitlines()
            assert row.split()[0] == "Hopf"
        else:
            (rec,) = records(out)
            assert rec["name"] == "Hopf"

    def test_bad_fixture_content(self, tmp_path):
        p = tmp_path / "bad.lnk"
        p.write_text("name: bad\ncomponents: 2\npd: X[1,2,3]\n")
        status, _, err = run(["invariants", str(p)])
        assert status == 1 and "error" in err

    def test_repeated_fixture_key_rejected(self, tmp_path):
        # two pd: lines would otherwise parse only the second diagram
        p = tmp_path / "twice.lnk"
        p.write_text((FIXTURE_DIR / "hopf.lnk").read_text()
                     + "pd: X[1,5,2,4], X[5,3,6,2], X[3,1,4,6]\n")
        status, out, err = run(["invariants", str(p)])
        assert status == 1 and out == ""
        assert err == f"error: {p}: repeated fixture key 'pd'\n"

    @pytest.mark.parametrize("line", [
        "components: 2\npd: X[" + "1" * 5000 + ",2,3,4]",
        "components: " + "1" * 5000 + "\npd: X[4,2,1,3], X[2,4,3,1]",
    ], ids=["edge-label", "components"])
    def test_long_number_in_fixture_is_one_error_line(self, tmp_path, line):
        p = tmp_path / "long.lnk"
        p.write_text(f"name: long\n{line}\n")
        status, out, err = run(["obstruct", str(p)])
        assert status == 1 and out == ""
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1
        assert "5000 digits exceeds the bound of 1234 digits" in err
        assert len(err) < 200

    def test_non_planar_rejected(self, tmp_path):
        p = tmp_path / "nonplanar.lnk"
        p.write_text("name: nonplanar\npd: X[1,3,2,4], X[2,4,3,1]\n")
        status, out, err = run(["obstruct", str(p)])
        assert status == 1 and out == ""
        assert "planar" in err

    def test_negative_search_depth_rejected_by_obstruct(self):
        # rejected before any file is read: a missing file would exit 2
        status, out, err = run(["obstruct", "--search-depth", "-2",
                                "/nonexistent/file.lnk"])
        assert status == 1 and out == "" and "negative" in err

    def test_negative_search_depth_rejected_by_search(self):
        status, out, err = run(["search", fx("hopf"), "--search-depth", "-1"])
        assert status == 1 and out == "" and "negative" in err

    @pytest.mark.parametrize("command", ["obstruct", "search"])
    @pytest.mark.parametrize("depth", ["-1", "5"])
    def test_search_depth_checked_once_before_reading(self, command, depth):
        # a missing file would exit 2, and a per-file check would print
        # one error per fixture
        for path in ("/nonexistent/file.lnk", str(FIXTURE_DIR)):
            status, out, err = run([command, path, "--search-depth", depth])
            assert status == 1 and out == ""
            assert err.count("\n") == 1 and "--search-depth" in err

    def test_negative_freeloops_rejected_per_file(self, tmp_path):
        # without a components: line to catch the count, the diagram
        # would be built with one component fewer than its PD code has
        bad = tmp_path / "trefoil_trefoil.lnk"
        text = (FIXTURE_DIR / "trefoil_trefoil.lnk").read_text()
        bad.write_text(text.replace("components: 2\n", "freeloops: -1\n"))
        (tmp_path / "hopf.lnk").write_text(
            (FIXTURE_DIR / "hopf.lnk").read_text())
        status, out, err = run(["invariants", str(tmp_path)])
        assert status == 1
        assert err.startswith(f"error: {bad}:") and err.count("\n") == 1
        (rec,) = records(out)
        assert rec["name"] == load_fixture("hopf").name

    @pytest.mark.parametrize("command", ["invariants", "obstruct"])
    def test_component_budget_is_inclusive(self, tmp_path, command):
        # one Laurent variable per component, as for factor --vars
        trefoil = (FIXTURE_DIR / "trefoil.lnk").read_text()
        ok = tmp_path / "ok.lnk"
        ok.write_text(trefoil.replace(
            "components: 1\n",
            f"components: {MAX_FACTOR_VARS}\n"
            f"freeloops: {MAX_FACTOR_VARS - 1}\n"))
        over = tmp_path / "over.lnk"
        over.write_text(trefoil.replace(
            "components: 1\n", f"freeloops: {MAX_FACTOR_VARS}\n"))
        status, out, err = run([command, str(ok)])
        assert status == 0 and err == ""
        (rec,) = records(out)
        assert rec["m"] == MAX_FACTOR_VARS
        status, out, err = run([command, str(over)])
        assert status == 1 and out == ""
        assert err == (f"error: {over}: {MAX_FACTOR_VARS + 1} components "
                       f"exceed the budget of {MAX_FACTOR_VARS}: the Laurent "
                       "ring has one variable per component\n")

    def test_huge_free_loop_count_refused_at_once(self, tmp_path):
        # every pair's linking number rescans the crossings, so without
        # the bound the time grows with the square of the loop count
        p = tmp_path / "loops.lnk"
        p.write_text("name: loops\nfreeloops: 100000000\n"
                     "pd: X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]\n")
        start = time.perf_counter()
        status, out, err = run(["obstruct", str(p)])
        assert time.perf_counter() - start < 1
        assert status == 1 and out == ""
        assert err.startswith(f"error: {p}: 100000001 components exceed ")
        assert err.count("\n") == 1

    def test_bad_file_does_not_stop_good_ones(self, tmp_path):
        p = tmp_path / "bad.lnk"
        p.write_text("garbage\n")
        status, out, err = run(["invariants", str(p), fx("hopf")])
        assert status == 1
        assert len(records(out)) == 1


def test_parser_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["invariants", fx("hopf")])[0] == 0
    assert run(["factor", "t-1"])[0] == 0
    assert built == []
