"""The package's public surface, and the rules every module shares.

Every flag is decided by ``precision._slack_sign``, every p is checked
by ``precision._probability``, and every count and positive real by
``precision._count`` and ``precision._positive``; the tests below pin
each rule to its function.
"""

import ast
import importlib
import inspect
import io
import json
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import discrete_epi
from discrete_epi import cli, epi_engine, precision
from discrete_epi.asymptotics import (
    iid_power_pmfs,
    knessl_profile,
    leading_constant_fit,
    tulino_verdu_compare,
)
from discrete_epi.discrimination import (
    binomial_step_c,
    cap_discrimination,
    cap_via_series,
    mixture,
)
from discrete_epi.dist_core import (
    bernoulli_entropy,
    binomial_entropy_chain,
    binomial_pmf,
    iid_sum_pmf,
    omega,
    shift,
)
from discrete_epi.epi_engine import (
    empirical_threshold,
    epi_gap,
    epi_grid_check,
    iid_epi_gap,
    semi_asymptotic_condition,
    sufficient_step_check,
    zero_crossing_scan,
)
from discrete_epi.moments_bounds import (
    bernoulli_cumulants,
    c_coeff,
    central_moment_brute,
    central_moment_closed,
    cumulative_gamma_bound,
    faa_di_bruno_poly,
    gamma_l,
    harmonic_bound_violations,
    harmonic_lower_bound,
    harmonic_number,
    taylor_coeff,
    taylor_lower_bound,
)

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY = Path(discrete_epi.__file__).resolve().parent


def test_package_exports_the_union_of_module_lists():
    # Every module but the command-line front end is part of the library.
    modules = [
        importlib.import_module(f"discrete_epi.{info.name}")
        for info in pkgutil.iter_modules(discrete_epi.__path__)
        if info.name != "cli"
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert discrete_epi.__all__ == sorted(names)
    for name in names:
        getattr(discrete_epi, name)

    namespace = {}
    exec("from discrete_epi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == discrete_epi.__all__

    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    exec(re.search(r"```python\n(.*?)```", library, re.S).group(1), {})


@pytest.mark.parametrize("sign", [1, -1])
def test_every_flag_follows_the_slack_sign(monkeypatch, capsys, sign):
    modules = [
        importlib.import_module(f"discrete_epi.{info.name}")
        for info in pkgutil.iter_modules(discrete_epi.__path__)
    ]
    binders = [m for m in modules if m is not precision and "_slack_sign" in vars(m)]
    assert sorted(m.__name__ for m in binders) == [
        "discrete_epi.asymptotics",
        "discrete_epi.cli",
        "discrete_epi.epi_engine",
        "discrete_epi.moments_bounds",
    ]
    for module in binders:
        assert module._slack_sign is precision._slack_sign
        monkeypatch.setattr(module, "_slack_sign", lambda margin, precision, slack=None: sign)
    holds = sign > 0

    assert epi_gap(1, 2, "0.3").holds is holds
    assert iid_epi_gap(binomial_pmf(1, "0.3"), 1, 2).holds is holds
    assert sufficient_step_check(2, "0.3").holds is holds
    assert empirical_threshold("0.3", 5).empirical_n0 == (1 if holds else None)
    assert {rep.holds for rep in epi_grid_check(2, 2, "0.3").values()} == {holds}
    assert semi_asymptotic_condition(4, "0.3").holds is holds
    assert harmonic_bound_violations("0.3", 4, 2) == ([] if holds else [1, 2, 3, 4])
    rows = tulino_verdu_compare("0.3", "1e-3", [2, 3], precision=30)
    assert {(row.meets_half, row.meets_full) for row in rows} == {(holds, holds)}

    assert cli.main(["bound", "--p", "0.3", "--n", "12", "--l", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["cumulative_holds"], payload["harmonic_holds"]) == (holds, holds)


def test_zero_crossings_follow_the_slack_sign(monkeypatch):
    # At p = 0.3 only the n = 1 margin is negative: one crossing, at 2.
    assert zero_crossing_scan("0.3", 5) == [2]
    signs = iter([1, 0, -1, -1, 1])

    def scripted(margin, precision, slack=None):
        return next(signs)

    monkeypatch.setattr(epi_engine, "_slack_sign", scripted)
    assert zero_crossing_scan("0.3", 5) == [3, 5]


PAIR = (shift(binomial_pmf(1, "0.5"), 1), binomial_pmf(1, "0.5"))

# Every public function taking p: a call at p, and whether p = 0 and
# p = 1 are refused too.
P_READERS = {
    "bernoulli_cumulants": (lambda p: bernoulli_cumulants(p, 2), False),
    "bernoulli_entropy": (bernoulli_entropy, False),
    "binomial_entropy_chain": (lambda p: binomial_entropy_chain(p, 3), False),
    "binomial_pmf": (lambda p: binomial_pmf(3, p), False),
    "binomial_step_c": (lambda p: binomial_step_c(2, p), True),
    "c_coeff": (lambda p: c_coeff(1, p), True),
    "cap_discrimination": (lambda p: cap_discrimination(*PAIR, p), True),
    "cap_via_series": (lambda p: cap_via_series(*PAIR, p, "1e-3"), True),
    "central_moment_closed": (lambda p: central_moment_closed(3, p, 2), False),
    "cumulative_gamma_bound": (lambda p: cumulative_gamma_bound(3, p, 1), True),
    "empirical_threshold": (lambda p: empirical_threshold(p, 5), True),
    "epi_gap": (lambda p: epi_gap(1, 2, p), False),
    "epi_grid_check": (lambda p: epi_grid_check(2, 2, p), False),
    "gamma_l": (lambda p: gamma_l(2, p, 1), True),
    "harmonic_bound_violations": (lambda p: harmonic_bound_violations(p, 3, 2), True),
    "harmonic_lower_bound": (lambda p: harmonic_lower_bound(3, p, 2), True),
    "mixture": (lambda p: mixture(*PAIR, p), True),
    "omega": (omega, True),
    "semi_asymptotic_condition": (lambda p: semi_asymptotic_condition(3, p), True),
    "sufficient_step_check": (lambda p: sufficient_step_check(2, p), False),
    "taylor_lower_bound": (lambda p: taylor_lower_bound("0.5", p, 1), True),
    "tulino_verdu_compare": (lambda p: tulino_verdu_compare(p, "1e-3", [2]), False),
    "zero_crossing_scan": (lambda p: zero_crossing_scan(p, 5), False),
}


def test_the_p_table_lists_every_public_function_taking_p():
    functions = {name: getattr(discrete_epi, name) for name in discrete_epi.__all__}
    takes_p = {
        name for name, f in functions.items()
        if inspect.isfunction(f) and "p" in inspect.signature(f).parameters
    }
    assert takes_p == set(P_READERS)


@pytest.mark.parametrize("name", sorted(P_READERS))
def test_every_p_range_message_is_one_of_two(name):
    call, strict = P_READERS[name]
    shown = {"-0.1": "-0.1", "1.5": "1.5", "0": "0.0", "1": "1.0"}
    for p in ["-0.1", "1.5"] + (["0", "1"] if strict else []):
        with pytest.raises(ValueError) as info:
            call(p)
        if strict:
            assert str(info.value) == f"p must lie strictly in (0, 1), got {shown[p]}"
        else:
            assert str(info.value) == f"p must lie in [0, 1], got {shown[p]}"
    if not strict:
        call("0")
        call("1")


BASE = binomial_pmf(1, "0.3")

# Every public function taking a count: for each count, the name its
# message gives, its least value, and a call at a value of it.
COUNT_READERS = {
    "bernoulli_cumulants": {"max_order": (1, lambda k: bernoulli_cumulants("0.3", k))},
    "binomial_entropy_chain": {"n_max": (0, lambda n: binomial_entropy_chain("0.3", n))},
    "binomial_pmf": {"n": (0, lambda n: binomial_pmf(n, "0.3"))},
    "binomial_step_c": {"n": (0, lambda n: binomial_step_c(n, "0.3"))},
    "c_coeff": {"w": (1, lambda w: c_coeff(w, "0.3"))},
    "central_moment_brute": {"k": (0, lambda k: central_moment_brute(BASE, k))},
    "central_moment_closed": {
        "n": (0, lambda n: central_moment_closed(n, "0.3", 3)),
        "k": (0, lambda k: central_moment_closed(2, "0.3", k)),
    },
    "cumulative_gamma_bound": {
        "n": (1, lambda n: cumulative_gamma_bound(n, "0.3", 1)),
        "l": (1, lambda l: cumulative_gamma_bound(3, "0.3", l)),
    },
    "empirical_threshold": {"cap": (1, lambda cap: empirical_threshold("0.3", cap))},
    "epi_gap": {
        "m": (1, lambda m: epi_gap(m, 2, "0.3")),
        "n": (1, lambda n: epi_gap(1, n, "0.3")),
    },
    "epi_grid_check": {
        "m_max": (1, lambda m: epi_grid_check(m, 2, "0.3")),
        "n_max": (1, lambda n: epi_grid_check(2, n, "0.3")),
    },
    "faa_di_bruno_poly": {"k": (0, lambda k: faa_di_bruno_poly(k, bernoulli_cumulants("0.3", 3)))},
    "gamma_l": {
        "j": (1, lambda j: gamma_l(j, "0.3", 1)),
        "l": (1, lambda l: gamma_l(2, "0.3", l)),
    },
    "harmonic_bound_violations": {
        "n_max": (0, lambda n: harmonic_bound_violations("0.3", n, 2)),
        "bound_order": (1, lambda w: harmonic_bound_violations("0.3", 0, w)),
    },
    "harmonic_lower_bound": {
        "n": (0, lambda n: harmonic_lower_bound(n, "0.3", 2)),
        "bound_order": (1, lambda w: harmonic_lower_bound(3, "0.3", w)),
    },
    "harmonic_number": {
        "n": (0, lambda n: harmonic_number(n, 2)),
        "w": (1, lambda w: harmonic_number(3, w)),
    },
    "iid_epi_gap": {
        "m": (1, lambda m: iid_epi_gap(BASE, m, 2)),
        "n": (1, lambda n: iid_epi_gap(BASE, 1, n)),
    },
    "iid_power_pmfs": {"fold count": (1, lambda n: iid_power_pmfs(BASE, [4, n]))},
    "iid_sum_pmf": {"n": (0, lambda n: iid_sum_pmf(BASE, n))},
    "knessl_profile": {"fold count": (1, lambda n: knessl_profile(BASE, [4, n]))},
    "leading_constant_fit": {"fold count": (1, lambda n: leading_constant_fit(BASE, [n, 2, 4, 8]))},
    "semi_asymptotic_condition": {"m": (1, lambda m: semi_asymptotic_condition(m, "0.3"))},
    "sufficient_step_check": {"n": (1, lambda n: sufficient_step_check(n, "0.3"))},
    "taylor_coeff": {"k": (1, lambda k: taylor_coeff(k, "0.3"))},
    "taylor_lower_bound": {"l": (0, lambda l: taylor_lower_bound("0.5", "0.3", l))},
    "tulino_verdu_compare": {
        "n": (2, lambda n: tulino_verdu_compare("0.3", "1e-3", [4, n], precision=30)),
    },
    "zero_crossing_scan": {"cap": (1, lambda cap: zero_crossing_scan("0.3", cap))},
}

# Integer parameters that place or move a support accept any integer
# (IntegerPmf's offset, shift's k).
NOT_COUNTS = {("delta_pmf", "k"), ("shift", "k")}


def test_the_count_table_lists_every_public_function_taking_a_count():
    takes_count = set()
    for name in discrete_epi.__all__:
        f = getattr(discrete_epi, name)
        if not inspect.isfunction(f):
            continue
        for param in inspect.signature(f).parameters.values():
            if (
                param.annotation in ("int", "Iterable[int]")
                and param.name != "precision"
                and (name, param.name) not in NOT_COUNTS
            ):
                takes_count.add(name)
    assert takes_count == set(COUNT_READERS)


@pytest.mark.parametrize("name", sorted(COUNT_READERS))
def test_every_count_message_is_one_of_three(name):
    kinds = {0: "a nonnegative integer", 1: "a positive integer", 2: "an integer >= 2"}
    for count, (least, call) in COUNT_READERS[name].items():
        for bad in (least - 1, 2.5):
            with pytest.raises(ValueError) as info:
                call(bad)
            assert str(info.value) == f"{count} must be {kinds[least]}, got {bad!r}"
        call(least)


def _code_tokens(path: Path):
    """(token, enclosing def or class) for each token of a source, docstrings left out."""
    source = path.read_text(encoding="utf-8")
    scopes, docstrings = [], set()

    def visit(node, prefix):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.add((value.lineno, value.col_offset))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scopes.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        line = token.start[0]
        inside = [s for s in scopes if s[0] <= line <= s[1]]
        yield token, max(inside)[2] if inside else None


def test_flags_and_p_checks_are_written_once():
    # The slack eps_for is read only by precision._slack_sign and by the
    # mass check of IntegerPmf; a range message only by
    # precision._probability and by taylor_coeff, whose x is a point of
    # the expansion rather than an input p.  A count or positive-real
    # message only by precision._count and precision._positive, and an
    # isinstance(..., int) only by them and by the two checks that take
    # any integer: IntegerPmf's offset and shift's k.
    strings = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    words = ("nonnegative integer", "positive integer", "must be positive", "must be finite")
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "precision.py":
            continue
        tokens = list(_code_tokens(path))
        for i, ((token, scope), (after, _)) in enumerate(zip(tokens, tokens[1:])):
            where = f"{path.name}:{token.start[0]} in {scope}"
            if (token.type, token.string, after.string) == (tokenize.NAME, "eps_for", "("):
                if scope != "IntegerPmf.__post_init__":
                    found.append(f"eps_for( at {where}")
            if token.type in strings and "must lie" in token.string and scope != "taylor_coeff":
                found.append(f"a range message at {where}")
            if token.type in strings and any(word in token.string for word in words):
                found.append(f"a count or positive-real message at {where}")
            if (token.type, token.string, after.string) == (tokenize.NAME, "isinstance", "("):
                depth, args = 0, []
                for later, _ in tokens[i + 1:]:
                    depth += {"(": 1, ")": -1}.get(later.string, 0)
                    if depth == 0:
                        break
                    args.append(later.string)
                if "int" in args and scope not in ("IntegerPmf.__post_init__", "shift"):
                    found.append(f"isinstance(..., int) at {where}")
    assert found == []
