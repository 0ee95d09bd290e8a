"""Mutated fixture files against the exit-code contract.

Each case drops, duplicates or garbles tokens and lines of a shipped
fixture, or slips bytes that are not UTF-8 into it, and runs the
subcommands that read that kind of file in process.  Whatever the
input, the run must end with 0, 1 or 2: never 3 (an internal error),
never an escaping exception and never a traceback.
"""

import contextlib
import io
import os
import tempfile

import pytest

from hhsforge import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the argv of each subcommand run on a fixture, MUTATED standing for
# the mutated copy
MUTATED = "<mutated>"
COMMANDS = {
    "square.cplx": (("cubes", MUTATED), ("verify-chhs", MUTATED)),
    "b3.idx": (("check-indexset", MUTATED),
               ("lattice", MUTATED, "--max-size", "8")),
    "o6.idx": (("check-indexset", MUTATED),
               ("lattice", MUTATED, "--max-size", "8")),
    "chain.model": (("blowup", MUTATED), ("verify-chhs", MUTATED),
                    ("qi-report", MUTATED)),
    "grid_transpose.aut": (("equivariance",
                            os.path.join(ROOT, "fixtures", "grid.cplx"),
                            MUTATED),),
}

# separators, digits, signs and names the formats use, plus a
# non-ASCII letter that is valid UTF-8
GARBLE = st.text(alphabet="0123456789-+.,#_*|SVabcpxé \t", max_size=4)
BAD_BYTES = st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\x00"])


@st.composite
def mutated(draw, lines):
    """The fixture's lines after one to three random edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(b" ")
        j = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop line", "duplicate line",
                                     "drop token", "duplicate token",
                                     "garble token", "bad bytes"]))
        if kind == "drop line" and len(lines) > 1:
            del lines[i]
            continue
        if kind == "duplicate line":
            lines.insert(i, lines[i])
            continue
        if kind == "drop token":
            del tokens[j]
        elif kind == "duplicate token":
            tokens.insert(j, tokens[j])
        elif kind == "garble token":
            tokens[j] = draw(GARBLE).encode("utf-8")
        elif kind == "bad bytes":
            tokens[j] = tokens[j] + draw(BAD_BYTES)
        lines[i] = b" ".join(tokens)
    return b"\n".join(lines) + b"\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_fixture_honours_exit_codes(name):
    with open(os.path.join(ROOT, "fixtures", name), "rb") as handle:
        lines = handle.read().splitlines()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(mutated(lines))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz" + os.path.splitext(name)[1])
            with open(path, "wb") as handle:
                handle.write(data)
            for command in COMMANDS[name]:
                code, err = run([path if arg == MUTATED else arg
                                 for arg in command])
                assert code in (0, 1, 2), (command, data, err)
                assert "Traceback" not in err, (command, data, err)

    check()
