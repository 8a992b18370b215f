"""The exit-code contract under generated input: every run of the CLI ends
with 0 (ok), 1 (verification failure) or 2 (input error), and no exception
escapes ``main``.  argparse's own ``SystemExit(2)`` counts as 2."""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchrom.cli import main

SWEEDLER = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "docs" / "sweedler_h4.json").read_text())

BUILTINS = st.sampled_from([
    "group:Z2", "group:Z3", "group:S3", "dualgroup:Z2", "dualgroup:S3", "sweedler",
    "taft:2", "taft:3", "uqsl2:3", "group:Z0", "group:Z-2", "group:S9", "group:Q8",
    "taft:", "taft:x", "taft:1", "taft:999", "uqsl2:2", "uqsl2:1000", "dualgroup:",
    "sweedler:2", ""])
FIELDS = st.sampled_from(["Q", "GF:2", "GF:3", "GF:7", "GF:13", "GF:4", "GF:-7", "GF:",
                          "GF:x", "Cyc:3", "Cyc:4", "Cyc:0", "Cyc:-1", "R"])
TOKENS = st.sampled_from([
    "id", "ev", "coev", "evt", "coevt", "lamL", "lamR", "cL", "cR", "cSph", "foo",
    "H", "triv", "alpha", "ld", "rd", "(", ")", ",", ";", "*", "%", " "])
EXPRS = st.lists(TOKENS, max_size=10).map(" ".join)


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["verify", "integrals", "chromatic", "check", "nope"]))
    argv = [cmd, "--builtin", draw(BUILTINS), "--field", draw(FIELDS)]
    if cmd in ("chromatic", "check") and draw(st.booleans()):
        argv += ["--side", draw(st.sampled_from(["left", "right", "spherical", "all", "up"]))]
    if cmd == "check":
        if draw(st.booleans()):
            argv += ["--modules", draw(st.sampled_from(
                ["trivial", "alpha", "trivial,alpha", "regular", "all", "bogus", ""]))]
        if draw(st.booleans()):
            argv += ["--inject-fault", draw(st.sampled_from(
                ["0,0", "0,15", "3,2", "-1,0", "99,99", "a,b", "1", "1,2,3"]))]
        if draw(st.booleans()):
            argv.append("--no-split")
        if draw(st.booleans()):
            argv += ["--expr", draw(EXPRS)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 6) | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_files(draw):
    """``docs/sweedler_h4.json`` with one field replaced: a top-level value,
    or one entry of a top-level list."""
    data = json.loads(json.dumps(SWEEDLER))
    key = draw(st.sampled_from(sorted(data) + ["extra"]))
    value = draw(JSON_VALUES | st.sampled_from(["1", "-1", "1/0", "[1,2]", 2000, 64, 0]))
    if isinstance(data.get(key), list) and data[key] and draw(st.booleans()):
        data[key][draw(st.integers(0, len(data[key]) - 1))] = value
    else:
        data[key] = value
    return data


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=80, deadline=None)
@given(argvs())
def test_generated_arguments_exit_0_1_or_2(argv):
    assert exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=60, deadline=None)
@given(mutated_files(), st.sampled_from([["verify"], ["integrals"],
                                         ["check", "--side", "left", "--modules", "trivial"]]))
def test_mutated_sweedler_file_exits_0_1_or_2(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(json.dumps(data))
        assert exit_code(command + [str(path)]) in (0, 1, 2), data
