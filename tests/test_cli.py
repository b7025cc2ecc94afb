"""Exit codes, canonical output, and flag handling of the command line."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sring.cli import main
from sring.core import CLOSURE_BOUND
from sring.oracle import ENUMERATE_BOUND
from sring.verify import SUITES


@pytest.fixture
def ring_file(tmp_path):
    def write(name, n, classes):
        path = tmp_path / name
        path.write_text(json.dumps({"n": n, "classes": classes}))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(ring_file, capsys):
    path = ring_file("good.json", 5, [[0], [1, 4], [2, 3]])
    code, out, err = run(capsys, "validate", path)
    assert code == 0 and "rank 3" in out

    code, out, err = run(capsys, "validate", path, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "n": 5, "rank": 3}


def test_validate_closes_its_input_file(ring_file, capsys):
    path = ring_file("good.json", 5, [[0], [1, 4], [2, 3]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "validate", path)
        gc.collect()
    assert code == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_validate_diagnoses_bad_input(ring_file, capsys):
    path = ring_file("bad.json", 5, [[0], [1], [2, 3, 4]])
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert "NotInverseClosed" in err and "[1]" in err


def test_validate_rejects_huge_uncovered_group(ring_file, capsys):
    path = ring_file("huge.json", 10**12, [[0]])
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and "element 1 is not covered" in err and not out


def test_validate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and "input error" in err


@pytest.mark.parametrize(
    "data, reason",
    [
        ({"n": 4.9, "classes": [[0], [1, 3], [2]]}, "integer"),
        ({"n": True, "classes": [[0]]}, "integer"),
        ({"n": 4, "classes": "0123"}, "integer"),
        ({"n": 2, "classes": [[0], [0.7]]}, "integer"),
        ({"n": 4, "classes": [[0, 0], [1, 3], [2]]}, "element 0 appears twice"),
    ],
    ids=["float-n", "bool-n", "string-classes", "float-element", "repeated-element"],
)
def test_validate_rejects_non_integer_json(tmp_path, capsys, data, reason):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "ValidationError" in err and reason in err


_json_leaves = st.integers(-5, 40) | st.booleans() | st.floats() | st.text(max_size=3)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "classes", ""]), inner, max_size=3),
    max_leaves=8,
)
_class_lists = st.lists(st.lists(st.integers(-5, 40) | _json_leaves, max_size=6), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    data=st.fixed_dictionaries(
        {"n": st.integers(-5, 40) | _json_values, "classes": _class_lists | _json_values}
    )
    | _json_values
)
def test_validate_fuzz_exits_cleanly(tmp_path_factory, data):
    # Any JSON document: ``validate`` either accepts it (0) or reports an
    # input error (2); no exception escapes ``main``.
    path = tmp_path_factory.getbasetemp() / "fuzz-ring.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) in (0, 2)


def _far_past(bound: int):
    return st.integers(bound + 1, 10**12)


# small values run in milliseconds; values past a bound must be refused
# before any work of that size starts
_malformed = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "-"])
_enumerate_argv = st.tuples(
    st.integers(-3, 10) | _far_past(ENUMERATE_BOUND),
    st.none() | st.integers(-3, 10) | _far_past(ENUMERATE_BOUND),
).map(lambda p: [p[0]] + ([] if p[1] is None else ["--max-n", p[1]]))
_closure_argv = st.tuples(
    st.integers(-3, 64) | _far_past(CLOSURE_BOUND),
    st.lists(st.lists(st.integers(-(10**12), 10**12), max_size=3), max_size=3),
).map(lambda p: [p[0], "--seed-sets", ";".join(",".join(map(str, s)) for s in p[1])])
_verify_argv = st.tuples(
    st.sampled_from(sorted(SUITES)), st.integers(-3, 6) | _far_past(ENUMERATE_BOUND)
).map(lambda p: [p[0], "--max-n", p[1]])


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["enumerate", "closure", "verify"]),
    data=st.data(),
)
def test_numeric_arguments_fuzz_exits_cleanly(command, data):
    # Any numeric argument, far past each bound too: the command runs (0),
    # reports an input error (2) or refuses the size (3); no traceback.
    args = data.draw(
        {"enumerate": _enumerate_argv, "closure": _closure_argv, "verify": _verify_argv}[command]
    )
    if command == "enumerate" and len(args) == 3:
        # a lifted bound is honoured, so only a small group may be enumerated
        assume(args[0] <= 10 or args[2] < args[0])
    argv = [command] + [str(a) for a in args]
    if data.draw(st.booleans()):
        argv[data.draw(st.integers(1, len(argv) - 1))] = data.draw(_malformed)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2


def test_closure_with_seed_sets(capsys):
    code, out, err = run(capsys, "closure", "5", "--seed-sets", "1,4", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "classes": [[0], [1, 4], [2, 3]]}

    code, out, err = run(capsys, "closure", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 6, "classes": [[0], [1, 2, 3, 4, 5]]}

    code, out, err = run(
        capsys, "closure", "8", "--seed-sets", "4;2,6", "--json"
    )
    assert code == 0
    assert json.loads(out)["classes"] == [[0], [1, 3, 5, 7], [2, 6], [4]]


def test_closure_rejects_bad_seed_sets(capsys):
    code, out, err = run(capsys, "closure", "6", "--seed-sets", "1,x")
    assert code == 2


@pytest.mark.parametrize("argv", [("closure", "0"), ("enumerate", "-1")])
def test_nonpositive_order_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "input error" in err


def test_analyze_json(ring_file, capsys):
    path = ring_file("orbit8.json", 8, [[0], [4], [2, 6], [1, 3, 5, 7]])
    code, out, err = run(capsys, "analyze", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 8 and data["rank"] == 4
    assert data["quasidense"] is True
    assert data["a_subgroups"] == [1, 2, 4, 8]
    assert {"l": 4, "u": 8} in data["frs0"]
    assert data["separability"]["separable"] is True
    assert "timings" not in data
    assert "singular_witness" not in data


def test_analyze_reports_witness(ring_file, capsys):
    path = ring_file("rank2_4.json", 4, [[0], [1, 2, 3]])
    code, out, err = run(capsys, "analyze", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["quasidense"] is False
    assert data["singular_witness"]["smallest"] == {"l": 1, "u": 4}


def test_separability_with_oracle(ring_file, capsys):
    path = ring_file("good.json", 5, [[0], [1, 4], [2, 3]])
    code, out, err = run(capsys, "separability", path, "--json", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["separable"] is True and data["oracle"] is True
    assert data["agrees"] is True


def test_dual_round_trip(ring_file, capsys):
    path = ring_file("good.json", 5, [[0], [1, 4], [2, 3]])
    code, out, err = run(capsys, "dual", path, "--json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "classes": [[0], [1, 4], [2, 3]]}


def test_enumerate_json(capsys):
    code, out, err = run(capsys, "enumerate", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert {"n": 4, "classes": [[0], [1, 3], [2]]} in data["srings"]


def test_enumerate_limit(capsys):
    code, out, err = run(capsys, "enumerate", "37")
    assert code == 3 and "limit exceeded" in err
    code, out, err = run(capsys, "enumerate", "10", "--max-n", "9")
    assert code == 3


@pytest.mark.parametrize(
    "n, bound, expected", [("5", "0", 2), ("5", "-1", 2), ("10", "9", 3)]
)
def test_enumerate_bound_below_one_is_input_error(capsys, n, bound, expected):
    # a bound that lets no group be enumerated is bad input, not a refused size
    code, out, err = run(capsys, "enumerate", n, "--max-n", bound)
    assert code == expected and not out
    assert ("input error" if expected == 2 else "limit exceeded") in err
    assert "Traceback" not in err


def test_enumerate_reports_nonseparable(capsys):
    code, out, err = run(
        capsys, "enumerate", "8", "--json", "--report-nonseparable"
    )
    assert code == 0
    data = json.loads(out)
    assert data["nonseparable"] == []


def test_verify_suite_pass(capsys):
    code, out, err = run(capsys, "verify", "axioms", "--max-n", "6")
    assert code == 0
    assert "axioms: passed" in out

    code, out, err = run(capsys, "verify", "pgroups", "--max-n", "9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [c["name"] for c in data["checks"]] == [
        "n=2",
        "n=3",
        "n=4",
        "n=5",
        "n=7",
        "n=8",
        "n=9",
    ]


def test_verify_limit_exceeded(capsys):
    code, out, err = run(capsys, "verify", "oracle", "--max-n", "25")
    assert code == 3


@pytest.mark.parametrize(
    "suite, bound",
    [
        ("axioms", 36),
        ("phi-iso", 36),
        ("pgroups", 36),
        ("duality", 36),
        ("oracle", 20),
        ("coset-closure", 16),
    ],
)
def test_verify_refuses_bound_before_checking(capsys, monkeypatch, suite, bound):
    # the bound is checked before the first n, so no ring is enumerated and
    # no list of n up to the bound is built
    def refuse(n, **kwargs):
        raise AssertionError(f"enumerated Z_{n}")

    monkeypatch.setattr("sring.verify.enumerate_srings", refuse)
    for max_n in (bound + 1, 10**12):
        code, out, err = run(capsys, "verify", suite, "--max-n", str(max_n))
        assert code == 3 and not out
        assert f"exceeds the bound {bound}" in err


def test_closure_limit(capsys):
    code, out, err = run(capsys, "closure", "5000000", "--seed-sets", "1,2")
    assert code == 3 and "limit exceeded" in err and not out


@pytest.mark.parametrize(
    "suite, bound", [("axioms", "-5"), ("oracle", "0"), ("pgroups", "1")]
)
def test_verify_rejects_bound_with_no_checks(capsys, suite, bound):
    code, out, err = run(capsys, "verify", suite, "--max-n", bound)
    assert code == 2
    assert "passed" not in out and "input error" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_is_byte_identical(ring_file, capsys):
    path = ring_file("good.json", 5, [[0], [1, 4], [2, 3]])
    first = run(capsys, "analyze", path, "--json")
    second = run(capsys, "analyze", path, "--json")
    assert first == second


def test_stdin_input(ring_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"n": 5, "classes": [[0], [1,4], [2,3]]}')
    )
    code, out, err = run(capsys, "validate", "-", "--json")
    assert code == 0 and json.loads(out)["ok"] is True


# stdout without --json, against the SHA-256 of the text each subcommand
# prints, so the text reports stay byte-identical as the JSON ones do
_TEXT_RING = [[0], [1, 2, 5, 7, 10, 11], [3, 6, 9], [4, 8]]
_TEXT_PINS = [
    (["validate", "RING"], "bf53f1eef5fb65186c0f9e6e05f72fe764db5b7452aafe044b3704f907f642d5"),
    (["analyze", "RING"], "97a168d28f2a568449790b6fa8c651a89c18991b43282733dca746fa75664005"),
    (["dual", "RING"], "82c425e98a4e829d32ef9c54857e4bc3cf94833ce4e99252acc6cc258d5c44d0"),
    (
        ["closure", "12", "--seed-sets", "1,11"],
        "e6958717f209f06a4d088520bc6b8193365aef9f010a7fa2899adadeae5a3628",
    ),
    (["separability", "RING"], "32b1633a333ddc92c192a90c615f26765d651ab24a5beae65731994eeb38f70f"),
    (
        ["separability", "RING", "--oracle"],
        "1753dd119d6a01eecab4ca4811c3807be47701200ee6ae9ab47549a7e1f09c9a",
    ),
    (["enumerate", "12"], "e72c394421a1a6b7cb3ad1998eccbe61c59434722258aafd92e237c825cf952e"),
    (
        ["enumerate", "12", "--report-nonseparable"],
        "fbf095f49f0bb8f6e87ed0b78f8510c8d6640d710c685da7f0a773b4cb77166e",
    ),
    (
        ["verify", "oracle", "--max-n", "8"],
        "ffc643a5fe4062f292ce78cd317536cea4f065bd4e0e651e4480fa70414adb66",
    ),
    # the one suite that checks only some rings: "N quasidense rings"
    (
        ["verify", "phi-iso", "--max-n", "8"],
        "dc706b1e75b473d4cf1ad3493cf31a0e5234e2d6146f89a640a7e06dfdd03b48",
    ),
]


@pytest.mark.parametrize("argv, digest", _TEXT_PINS, ids=[" ".join(a) for a, _ in _TEXT_PINS])
def test_text_output_is_unchanged(ring_file, capsys, argv, digest):
    # the ring over Z_12 is not quasidense, so analyze prints its witness
    path = ring_file("ring12.json", 12, _TEXT_RING)
    code, out, err = run(capsys, *[path if a == "RING" else a for a in argv])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
