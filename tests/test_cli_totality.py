"""The CLI is total on integer input: every pair of integers for --a and --b,
given to classify or to polygon, and every --prime, --modulus and --lifts
given to verify, ends with exit code 0, 1, 2 or 3 and never prints a
traceback.  verify rejects options that would check nothing, or that its
suite would ignore, and classify rejects a --prime that is not prime, with a
usage message and exit code 2."""

import contextlib
import io
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonicindex.cli import main

# arbitrary integers, the edge values 0 and +-1, and values above 300 digits,
# past the factoring chain's digit ceiling
INTEGERS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(-(10**400), 10**400).filter(lambda n: abs(n) > 10**300),
)


def _run(argv):
    """(exit code, stdout + stderr) of the CLI, with a traceback printed as
    the CLI's own entry point would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue() + err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(INTEGERS, INTEGERS, st.booleans())
@example(1, 1, True)  # the engine meets the factor x^2 + x + 1
@example(17, 6, False)
@example(-(10**301) - 7, 0, False)  # gcd(a, b) = |a|, far past any sieve
def test_classify_cli_is_total(a, b, as_json):
    code, text = _run(["classify", "--a", str(a), "--b", str(b)] + ["--json"] * as_json)
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(INTEGERS, INTEGERS, st.sampled_from((2, 3, 5, 7)),
       st.sampled_from(("x", "x-1", "x+1", "shifted")), st.booleans())
@example(1, 0, 2, "x", False)  # phi = x divides x^9 + x
@example(-2, 1, 3, "x-1", True)  # phi = x - 1 divides x^9 - 2x + 1
def test_polygon_cli_is_total(a, b, p, phi, as_json):
    argv = ["polygon", "--a", str(a), "--b", str(b), "--p", str(p), "--phi", phi]
    code, text = _run(argv + ["--json"] * as_json)
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("examples", "dedekind", "agreement", "tables")),
       st.one_of(st.sampled_from((2, 3, 5, 7)), st.integers()),
       st.integers(-3, 16), st.integers(-2, 2))
@example("dedekind", 4, 4, 1)
@example("agreement", 11, 5, 1)
@example("agreement", 2, 6, 1)
@example("agreement", 2, 0, 1)
@example("agreement", 2, -3, 1)
@example("agreement", 2, 16, -1)
@example("agreement", 2, 16, 0)
@example("agreement", 0, 16, 1)
def test_verify_cli_is_total(suite, prime, modulus, lifts):
    argv = ["verify", "--suite", suite, "--prime", str(prime),
            "--modulus", str(modulus), "--lifts", str(lifts)]
    code, text = _run(argv)
    assert code in (0, 1, 2), text
    assert "Traceback" not in text
    assert "checked 0 of 0" not in text


@pytest.mark.parametrize("options", [
    "--suite dedekind --prime 4",
    "--suite agreement --prime 11",
    "--suite agreement --prime 2 --modulus 6",
    "--suite agreement --prime 2 --modulus 0",
    "--suite agreement --prime 2 --modulus -4",
    "--suite agreement --prime 2 --lifts -1",
    "--suite agreement --prime 2 --lifts 0",
    "--suite dedekind --lifts 0",
    "--suite agreement --prime 0",
    "--suite dedekind --prime 0",
    "--suite examples --lifts -1",
    "--suite examples --prime 2",
    "--suite tables --modulus 16",
    "--suite tables --prime 3 --lifts 1",
    "--suite examples --seed 5",
    "--suite tables --seed -3",
])
def test_verify_rejects_options_that_check_nothing(options):
    code, text = _run(["verify"] + options.split())
    assert code == 2, text
    assert text.startswith("usage:") and "Traceback" not in text


@pytest.mark.parametrize("prime", ["6", "9", "1", "0", "-7", str(2**89 + 1)])
def test_classify_rejects_a_prime_that_is_not_prime(prime):
    # (7335, 24184) has i(K) = 24, so 6 divides it: a "6:ge5" row would be wrong
    code, text = _run(["classify", "--a", "7335", "--b", "24184", "--prime", prime, "--json"])
    assert code == 2, text
    assert text.startswith("usage:") and "Traceback" not in text
