"""End-to-end tests of the command-line interface (subprocess level, and in process
for the totality property over small argv)."""

import hashlib
import io
import json
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kirchlab import cli, descriptor
from kirchlab.verify import knobs, suite_names

CMD = [sys.executable, "-m", "kirchlab"]


def run_cli(*args, timeout=180):
    return subprocess.run(
        CMD + [str(a) for a in args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_closure_window_prints_members():
    r = run_cli("closure", 5, 6, "--window", 1, 12)
    assert r.returncode == 0
    assert r.stdout == "2 3 5 6 8 9 11 12\n"


def test_closure_json_form():
    r = run_cli("closure", 5, 6)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"forced": [], "two_class": {"3": "2"}}
    r = run_cli("closure", 10, 5)
    assert json.loads(r.stdout) == {"forced": [5], "two_class": {}}


def test_filter_descriptor_json():
    r = run_cli("filter", 3, 6)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "E": [3, 6],
        "A": [2, 3],
        "Pi": [3],
        "alpha": {"2": "1", "3": "0"},
    }


def test_filter_json_round_trips_against_library():
    rng = random.Random(99)
    for _ in range(6):
        E = sorted(rng.sample(range(1, 150), rng.choice((1, 2, 3))))
        r = run_cli("filter", *E)
        assert r.returncode == 0
        assert json.loads(r.stdout) == descriptor(E).to_json_dict()


def test_classify_cases():
    r = run_cli("classify", 3, 6)
    assert json.loads(r.stdout) == {"tag": "FDoublePrime", "case": 1, "p": 3}
    r = run_cli("classify", 4, 8)
    assert json.loads(r.stdout) == {"tag": "FInfinity"}
    r = run_cli("classify", 1, 3, 6)
    assert json.loads(r.stdout) == {"tag": "FPrime", "p": 3, "alpha_value": 1}


def test_classify_singleton_is_a_domain_error():
    r = run_cli("classify", 7)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.strip() != ""


def test_upset_case1():
    r = run_cli("upset", 5, 10)
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert [d["E"] for d in docs] == [[1, 5, 10], [2, 5, 10], [3, 5, 10], [4, 5, 10]]


def test_upset_wrong_class():
    r = run_cli("upset", 1, 3, 6)
    assert r.returncode == 1


def test_realize():
    r = run_cli("realize", "--primes", "2,3", "--alpha", "1,2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["E"] == [3, 5, 6]
    assert doc["alpha"] == {"2": "1", "3": "2"}


def test_realize_mismatched_lists():
    r = run_cli("realize", "--primes", "2,3", "--alpha", "1")
    assert r.returncode == 2


@pytest.mark.parametrize("alpha", ["1,1,2", "1,2,1"])
def test_realize_repeated_prime_is_a_usage_error(alpha):
    r = run_cli("realize", "--primes", "2,3,3", "--alpha", alpha)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "repeat" in r.stderr


def test_gamma_dot():
    r = run_cli("gamma", 11, "--bound", 25, "--format", "dot")
    assert r.returncode == 0
    assert "11 -- 22;" in r.stdout
    assert r.stdout.startswith("graph gamma11 {")


def test_gamma_json():
    r = run_cli("gamma", 3, "--bound", 12, "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["p"] == 3
    assert doc["vertices"] == [3, 6, 9, 12]
    assert len(doc["edges"]) == 6


def test_gamma_rejects_composite():
    r = run_cli("gamma", 4, "--bound", 10)
    assert r.returncode == 1


def test_primes_classify():
    r = run_cli("primes", "classify", 5)
    assert json.loads(r.stdout) == {"p": 5, "tag": "Fermat", "m": 2}
    r = run_cli("primes", "classify", 11)
    assert json.loads(r.stdout) == {"p": 11, "tag": "Neither", "m": None}


def test_cmp():
    r = run_cli("cmp", 1, 121, "--", 1, 11)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "E": [1, 121],
        "F": [1, 11],
        "E_le_F": True,
        "F_le_E": False,
        "equal": False,
    }


# every argv that prints help: (argv, a line its stdout must hold)
_HELP = [
    (("--help",), "    cmp                 compare two filters: cmp E1 [E2 ...] -- F1 [F2 ...]"),
    (("cmp", "--help"), "usage: kirchlab cmp E1 [E2 ...] -- F1 [F2 ...]"),
    (("cmp", "-h"), "usage: kirchlab cmp E1 [E2 ...] -- F1 [F2 ...]"),
]
_SUBCOMMANDS = ("closure", "filter", "classify", "upset", "cmp", "realize", "gamma", "verify", "primes")


@pytest.mark.parametrize("argv, line", _HELP, ids=[" ".join(a) for a, _ in _HELP])
def test_help_prints_to_stdout_and_exits_0(monkeypatch, argv, line):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = _dispatch(list(argv))
    assert (code, err) == (0, "")
    assert line in out.splitlines(), out
    if argv == ("--help",):
        assert f"{{{','.join(_SUBCOMMANDS)}}}" in out, out


def test_verify_exit_status_and_report():
    r = run_cli("verify", "powers", "--bound", 1000)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["findings"] == [{"consecutive_pairs": [[8, 9]]}]
    assert "suite powers:" in r.stderr


def test_verify_bound_arity_checked():
    r = run_cli("verify", "powers", "--bound", 10, 20)
    assert r.returncode == 2


@pytest.mark.parametrize(
    "suite, bound, knob",
    [
        ("pairA", (1,), "max_value"),
        ("classify", (1,), "max_value"),
        ("order", (1,), "max_value"),
        ("zsigmondy", (1, 1), "max_base"),
        ("chains", (1, 1), "max_base"),
        ("gamma", (0,), "bound"),
    ],
)
def test_verify_bound_below_minimum_is_a_domain_error(suite, bound, knob):
    r = run_cli("verify", suite, "--bound", *bound)
    assert r.returncode == 1
    assert r.stdout == ""
    assert knob in r.stderr
    assert "randrange" not in r.stderr and "Sample larger" not in r.stderr


def test_verify_bound_at_a_least_value_of_zero_runs():
    r = run_cli("verify", "upsets", "--bound", 0)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["bounds"]["instances"] == 0
    assert doc["passed"] and doc["instances_checked"] > 0


# (id, argv, message) just past each cap; the verify knobs' rows put each
# knob one past its most in its --bound slot, after the knobs before it at
# their defaults
_CAPS_PAST = [
    ("closure window", ("closure", 7, 30, "--window", 1, 1000001),
     "window capped at 1000000 values, got 1000001"),
    ("closure window end", ("closure", 7, 30, "--window", 10**12, 10**12 + 10),
     "hi capped at 1000000000, got 1000000000010"),
    ("upset p", ("upset", 10007, 20014), "case-1 up-set: p capped at 10000, got 10007"),
    ("gamma bound", ("gamma", 3, "--bound", 10**9 + 1), "bound capped at 1000000000, got 1000000001"),
    ("primes classify", ("primes", "classify", 10**22 + 1),
     "primality operands capped at 1000000000000000000, got a 74-bit integer"),
    ("gamma p", ("gamma", 10**9 + 7, "--bound", 5), "p capped at 1000000000, got 1000000007"),
    ("verify chains joint", ("verify", "chains", "--bound", 32, 6),
     "suite chains: max_base ** max_exponent capped at 1000000000, got 1073741824"),
    *(
        (f"verify {suite} {knob}",
         ("verify", suite, "--bound", *[k.default for k in list(ks.values())[:i]], k.most + 1),
         f"suite {suite}: {knob} capped at {k.most}, got {k.most + 1}")
        for suite in suite_names()
        for ks in [knobs(suite)]
        for i, (knob, k) in enumerate(ks.items())
    ),
]


@pytest.mark.parametrize("argv, message", [pytest.param(*row[1:], id=row[0]) for row in _CAPS_PAST])
def test_argv_just_over_a_cap_is_a_domain_error(argv, message):
    r = run_cli(*argv, timeout=60)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("verify", "order", "--bound", "34"), ("verify", "chains", "--bound", "12", "12")],
    ids=" ".join,
)
def test_oversized_verify_argv_is_refused_before_any_work(argv):
    # the order grid at 34 and the chains at 12 12 would each take seconds
    t0 = time.perf_counter()
    code, out, _ = _dispatch(list(argv))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "--primes", "2,999999999999999989", "--alpha", "1,5"),
        ("gamma", "999999999999999989", "--bound", "5"),
    ],
    ids=" ".join,
)
def test_prime_near_the_trial_cap_is_refused_before_any_work(argv):
    # testing this prime by trial division would grow the table to 10**9
    t0 = time.perf_counter()
    code, out, err = _dispatch(list(argv))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert "capped at 1000000000," in err


def test_verify_unknown_suite_is_usage_error():
    r = run_cli("verify", "nonsense")
    assert r.returncode == 2


def test_identical_argv_identical_stdout():
    argvs = [
        ("verify", "pairA", "--bound", 150, "--seed", 7),
        ("gamma", 3, "--bound", 54, "--format", "dot"),
        ("filter", 7, 15, 30),
    ]
    for argv in argvs:
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("closure", 0, 6).returncode == 2


# every usage error that argparse's own checks cannot see, and the text it names
_USAGE_ERRORS = [
    (("realize", "--primes", "2,3", "--alpha", "1"), "must have the same length"),
    (("realize", "--primes", "2,3,3", "--alpha", "1,1,2"), "must not repeat a prime"),
    (("verify", "powers", "--bound", "10", "20"), "takes at most 1 --bound values (limit)"),
    (("verify", "realize", "--bound", "1"), "takes at most 0 --bound values (none)"),
    (("cmp", "1", "2"), "expected kirchlab cmp E1"),
    (("cmp", "--", "1"), "expected kirchlab cmp E1"),
    (("cmp", "1", "--"), "expected kirchlab cmp E1"),
    (("cmp", "1", "x", "--", "1"), "need a positive integer, got 'x'"),
    (("cmp", "1", "--", "0"), "need a positive integer, got '0'"),
]


@pytest.mark.parametrize("argv, text", _USAGE_ERRORS, ids=[" ".join(a) for a, _ in _USAGE_ERRORS])
def test_usage_errors_outside_argparse_exit_2(argv, text):
    code, out, err = _dispatch(list(argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err, err


# domain errors of an option value led by a minus sign, which argparse alone
# would take for an option and refuse as a usage error
_DOMAIN_ERRORS = [
    (("realize", "--primes", "2,3", "--alpha", "-1,1"), "alpha(2) must be 1"),
    (("realize", "--primes", "-2,3", "--alpha", "1,1"), "-2 is not prime"),
    (("realize", "--pr", "2,3", "--al", "-1,1"), "alpha(2) must be 1"),
]


@pytest.mark.parametrize("argv, text", _DOMAIN_ERRORS, ids=[" ".join(a) for a, _ in _DOMAIN_ERRORS])
def test_domain_errors_exit_1(argv, text):
    code, out, err = _dispatch(list(argv))
    assert (code, out, err) == (1, "", f"error: {text}\n")


# one slot per integer argument; "{}" stands for the literal under test
_INTEGER_SLOTS = [
    ("closure", "{}", "6"),
    ("closure", "5", "{}"),
    ("closure", "5", "6", "--window", "{}", "9"),
    ("closure", "5", "6", "--window", "1", "{}"),
    ("filter", "3", "{}"),
    ("classify", "{}", "6"),
    ("upset", "3", "{}"),
    ("realize", "--primes", "2,{}", "--alpha", "1,1"),
    ("realize", "--primes", "2,3", "--alpha", "1,{}"),
    ("gamma", "{}", "--bound", "5"),
    ("gamma", "3", "--bound", "{}"),
    ("verify", "powers", "--seed", "{}"),
    ("verify", "powers", "--bound", "{}"),
    ("verify", "chains", "--bound", "2", "{}"),
    ("primes", "classify", "{}"),
    ("cmp", "{}", "2", "--", "1"),
    ("cmp", "1", "--", "1", "{}"),
]


@pytest.mark.parametrize("slot", _INTEGER_SLOTS, ids=" ".join)
@pytest.mark.parametrize(
    "literal", ["9" * 5001, "-" + "9" * 5001, "9" * 5000 + "x"], ids=["decimal", "-decimal", "x"]
)
def test_an_unbounded_literal_in_any_integer_slot_is_a_short_usage_error(slot, literal):
    code, out, err = _dispatch([arg.replace("{}", literal) for arg in slot])
    assert (code, out) == (2, "")
    assert len(err) < 300 and "integer string conversion" not in err, err
    if literal.endswith("x"):
        assert f"integer, got '{'9' * 40}'...\n" in err
    else:
        assert "an integer of 5001 digits;" in err and "not an integer" not in err


# sha256 of stdout for a fixed argv corpus (every subcommand), recorded before
# the removal of the empty congruence set; a simplification must keep each one
GOLDEN_STDOUT = {
    ("closure", "5", "6"):
        "79a371f6a3337b6d0f3561ba83305ff0a4120258cedf1b3b3657baafa59543b8",
    ("closure", "7", "30", "--window", "100", "200"):
        "7c4aa2ece048576673ddcbfe8eca1d412fad5b87136c4b3a8ee7d9f05977d98d",
    ("filter", "7", "15", "30"):
        "545adb58ddb2facabd908ee2203b1f87b48e195d06cd42b37d9a848fa077ac13",
    ("filter", "12"):
        "f77c73a122a3e034e09a2d0045e521e2471312c2eb154d785025bc8a98888bf9",
    ("classify", "1", "3", "6"):
        "8fc62c5806a24fe02d0c52db387cd4c295cbca66300e77d47d3c2f7717a1d677",
    ("upset", "5", "10"):
        "ec06890936284287b52ac148f29a76b05e49e03f1b715b97e2171a6dcc696940",
    ("upset", "1", "15", "30"):
        "e72c026cf66908710fceccefc6ca6c63c4cf1a814bce993d2e3c2cd80c47d0a0",
    ("realize", "--primes", "2,3,5", "--alpha", "1,2,0"):
        "228b61e6df35a206926e97a6e9e9aac8476f6f8183db2f817e6c7146cd6c3949",
    ("gamma", "3", "--bound", "200", "--format", "dot"):
        "53c26e8a53833e33ceced4aded871de454379015149b31e5b55f9dee1b831e02",
    ("gamma", "5", "--bound", "500", "--format", "json"):
        "008c9a1624e7f25d265abbee7c896d4e4bf0ff24342e0f51d9f6335a35f148cb",
    ("verify", "order", "--bound", "12", "40", "--seed", "3"):
        "975894e99dd1f147e2f155f72fc4a3e17b56212edffefee270fe2dcaa6be26a0",
    ("primes", "classify", "257"):
        "f0e3a3eca505c46c50c8db994d8e7c022824e0bd40bdcfa71673579b02552227",
    ("cmp", "1", "121", "--", "1", "11"):
        "e9967e79b22d7d4b0ed0e6243c90455f08769f9e61cca32ca7a1f78588866991",
    # wide windows, recorded before members enumerated by CRT residues
    ("closure", "7", "30", "--window", "1", "1000000"):
        "0afec652ec4754c82ac7b39844e5fa442fcedc2ae286ef13ee70e2c15fae27a3",
    ("closure", "1", "1", "--window", "1", "1000000"):
        "00d7f1ab6b1cb0cb6a09ee0ed1a09353f20b1a892090d2bceda2371fdde09dc1",
    ("closure", "1", "4849845", "--window", "999000001", "1000000000"):
        "a9489454a54da5b0a8e5d0728cb079ecfd1d2a8114f5e16650604f9c77c98846",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_matches_the_golden_digest(argv):
    r = run_cli(*argv)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def _readme_tour():
    # (argv, shown stdout) for each "$ kirchlab ..." line of README's
    # command-line tour; the shown stdout runs to the next blank line
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command-line tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    tour = []
    for example in block.split("\n\n"):
        lines = [line for line in example.splitlines() if not line.startswith("#")]
        assert lines[0].startswith("$ kirchlab "), lines
        tour.append((shlex.split(lines[0])[2:], "\n".join(lines[1:]) + "\n"))
    return tour


def test_readme_tour_prints_what_it_shows():
    tour = _readme_tour()
    shown_in_full = [(argv, want) for argv, want in tour if "..." not in want]
    abbreviated = [(argv, want) for argv, want in tour if "..." in want]
    assert (len(shown_in_full), len(abbreviated)) == (8, 2)
    for argv, want in shown_in_full:
        assert _dispatch(argv)[:2] == (0, want), argv
    for argv, want in abbreviated:
        code, out, _ = _dispatch(argv)
        assert code == 0, argv
        # the shown pieces, in order: a prefix, the middle ones, a suffix
        pieces = want.split("...")
        assert out.startswith(pieces[0]) and out.endswith(pieces[-1]), (argv, out)
        at = len(pieces[0])
        for piece in pieces[1:-1]:
            at = out.index(piece, at) + len(piece)
        assert at <= len(out) - len(pieces[-1]), (argv, out)


# ------------------------------------------------------------ totality

_OPERAND = st.integers(-1, 1000).map(str)
# mostly primes, so that realize and gamma get past their prime checks
_PRIME_OR_NOT = st.sampled_from((2, 3, 5, 7, 11, 13, 17, 31, 257)) | st.integers(-1, 1000)


@st.composite
def small_argv(draw):
    """argv of every subcommand with operands <= 1000; verify knobs near their least values."""
    command = draw(
        st.sampled_from(
            ("closure", "filter", "classify", "upset", "realize", "gamma", "verify", "primes", "cmp",
             "frobnicate")
        )
    )
    if command == "closure":
        argv = ["closure", draw(_OPERAND), draw(_OPERAND)]
        if draw(st.booleans()):
            argv += ["--window", draw(_OPERAND), draw(_OPERAND)]
    elif command in ("filter", "classify", "upset"):
        argv = [command] + draw(st.lists(_OPERAND, max_size=4))
    elif command == "realize":
        # at most two odd primes, so that the witness stays below 2 * 1000**2
        pairs = draw(st.lists(st.tuples(_PRIME_OR_NOT, st.integers(-1, 20)), min_size=1, max_size=2))
        if draw(st.booleans()):
            pairs.insert(0, (2, 1))
        primes, alpha = zip(*pairs)
        alpha = alpha[: len(alpha) - draw(st.integers(0, 1))]  # shorter: a usage error
        argv = ["realize", "--primes", ",".join(map(str, primes))]
        argv += ["--alpha", ",".join(map(str, alpha))]
    elif command == "gamma":
        argv = ["gamma", str(draw(_PRIME_OR_NOT)), "--bound", draw(_OPERAND)]
        argv += ["--format", draw(st.sampled_from(("dot", "json")))]
    elif command == "verify":
        suite = draw(st.sampled_from(suite_names()))
        settable = knobs(suite)
        argv = ["verify", suite, "--seed", str(draw(st.integers(-1, 5))), "--bound"]
        for knob in settable.values():
            # from just below the knob's least value to a little above it
            argv.append(str(draw(st.integers(knob.least - 1, knob.least + 3))))
        if not settable or draw(st.booleans()):
            argv.append("1")  # one value too many: a usage error
    elif command == "primes":
        argv = ["primes", "classify", draw(_OPERAND)]
    elif command == "cmp":
        argv = ["cmp"] + draw(st.lists(_OPERAND, max_size=3))
        argv += ["--"] + draw(st.lists(_OPERAND, max_size=3))
    else:
        argv = [command]
    return argv


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600)
@given(small_argv())
def test_every_small_argv_answers_or_fails_cleanly(argv):
    code, out, err = _dispatch(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _dispatch(argv)[:2] == (code, out)  # stderr may carry timings
