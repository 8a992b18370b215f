"""Golden ``--json`` payloads: fresh CLI output must match the committed files.

Every ``elapsed_s`` field is dropped before comparing, and the comparison is
on the serialized text, so key order and formatting count.  To regenerate the
files after a deliberate output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from hopfchrom.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
SWEEDLER_FILE = str(pathlib.Path(__file__).parents[1] / "docs" / "sweedler_h4.json")
# the left defining identity at X = triv, P = H, as the README types it
README_LEFT_IDENTITY = ("id(triv)*ev(H)*id(H) ; lamL(triv,ld(H))*id(H,H) ; "
                        "id(triv,ld(H))*cL ; id(triv)*coev(ld(H))*id(H)")

CASES = {
    "integrals-sweedler": ["integrals", "--builtin", "sweedler"],
    "integrals-group-S3-gf7": ["integrals", "--builtin", "group:S3", "--field", "GF:7"],
    "integrals-dualgroup-S3-gf7": ["integrals", "--builtin", "dualgroup:S3",
                                   "--field", "GF:7"],
    "integrals-taft3-gf7": ["integrals", "--builtin", "taft:3", "--field", "GF:7"],
    "integrals-uqsl2-3-gf7": ["integrals", "--builtin", "uqsl2:3", "--field", "GF:7"],
    "check-sweedler": ["check", "--builtin", "sweedler"],
    "check-group-S3": ["check", "--builtin", "group:S3"],
    "check-taft3-gf7": ["check", "--builtin", "taft:3", "--field", "GF:7"],
    "chromatic-left-taft3-gf7": ["chromatic", "--builtin", "taft:3", "--field", "GF:7",
                                 "--side", "left"],
    "chromatic-right-taft3-gf7": ["chromatic", "--builtin", "taft:3", "--field", "GF:7",
                                  "--side", "right"],
    "verify-sweedler-file": ["verify", SWEEDLER_FILE],
    "integrals-sweedler-file": ["integrals", SWEEDLER_FILE],
    "integrals-taft4-cyc8": ["integrals", "--builtin", "taft:4", "--field", "Cyc:8"],
    "check-taft3-cyc3": ["check", "--builtin", "taft:3", "--field", "Cyc:3"],
    "chromatic-left-taft3-cyc3": ["chromatic", "--builtin", "taft:3", "--field", "Cyc:3",
                                  "--side", "left"],
    "verify-uqsl2-3-gf7": ["verify", "--builtin", "uqsl2:3", "--field", "GF:7"],
    "integrals-dualgroup-Z3": ["integrals", "--builtin", "dualgroup:Z3"],
    "integrals-dualgroup-S3-q": ["integrals", "--builtin", "dualgroup:S3"],
    "check-expr-left-z2": ["check", "--builtin", "group:Z2", "--expr", README_LEFT_IDENTITY,
                           "--equals", "id(triv,H)"],
    "check-spherical-uqsl2-3-gf7": ["check", "--builtin", "uqsl2:3", "--field", "GF:7",
                                    "--side", "spherical", "--modules", "trivial,alpha"],
    "chromatic-spherical-group-S3": ["chromatic", "--builtin", "group:S3",
                                     "--side", "spherical"],
}


def _strip_elapsed(node):
    if isinstance(node, dict):
        return {k: _strip_elapsed(v) for k, v in node.items() if k != "elapsed_s"}
    if isinstance(node, list):
        return [_strip_elapsed(v) for v in node]
    return node


def render(argv: list[str]) -> str:
    """The command's ``--json`` payload without timings, as stored on disk."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    assert code == 0, f"{argv} exited {code}"
    return json.dumps(_strip_elapsed(json.loads(out.getvalue())), indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(render(argv), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
