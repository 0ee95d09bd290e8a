"""Mutated fixture files against the exit-code contract.

Each case drops, duplicates or garbles tokens and lines of a shipped
fixture, or slips bytes that are not UTF-8 into it, and runs the
subcommands that read that kind of file in process.  Whatever the
input, the run must end with 0, 1 or 2: never 3 (an internal error),
never an escaping exception and never a traceback.  A keyed line given
again with another value must end with 2; given again with the same
value, it changes nothing.
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
    return code, out.getvalue(), err.getvalue()


def run_on(name, data):
    """(exit code, stdout, stderr) of each subcommand of the fixture
    `name` run on a copy holding data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz" + os.path.splitext(name)[1])
        with open(path, "wb") as handle:
            handle.write(data)
        return [run([path if arg == MUTATED else arg for arg in command])
                for command in COMMANDS[name]]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_fixture_honours_exit_codes(name):
    with open(os.path.join(ROOT, "fixtures", name), "rb") as handle:
        lines = handle.read().splitlines()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(mutated(lines))
    def check(data):
        for command, (code, out, err) in zip(COMMANDS[name],
                                             run_on(name, data)):
            assert code in (0, 1, 2), (command, data, err)
            assert "Traceback" not in err, (command, data, err)

    check()


# the keyed line kinds of a fixture: the words of such a line before
# the last name a key, and the last word gives its value
KEYED = {"chain.model": ("pi", "rho", "E", "kappa"),
         "grid_transpose.aut": ("domain", "coord", "point")}


def new_value(word, old, new):
    """Whether a keyed line's value changes when its last word goes from
    old to new: E and kappa are read as integers, pi and rho as sets of
    comma-separated names, and the lines of an automorphism as names."""
    if word in ("E", "kappa"):
        return not (new.isdigit() and int(new) == int(old))
    if word in ("pi", "rho"):
        return set(new.split(",")) != set(old.split(","))
    return new != old


@st.composite
def repeated(draw, lines, words):
    """The fixture's lines with one keyed line given again anywhere, its
    last word drawn from the last words of that kind of line or made up;
    with the line's first word, its old value and the new one."""
    parts = draw(st.sampled_from([line.split() for line in lines
                                  if line.split(" ", 1)[0] in words]))
    values = sorted(set(line.split()[-1] for line in lines
                        if line.split(" ", 1)[0] == parts[0]))
    value = draw(st.sampled_from(values)
                 | st.text(alphabet="0123456789-abcpx", min_size=1,
                           max_size=4))
    out = list(lines)
    out.insert(draw(st.integers(0, len(lines))),
               " ".join(parts[:-1] + [value]))
    return "\n".join(out) + "\n", parts[0], parts[-1], value


@pytest.mark.parametrize("name", sorted(KEYED))
def test_keyed_repeat_with_new_value_exits_2(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as handle:
        text = handle.read()
    expected = run_on(name, text.encode("utf-8"))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(repeated(text.splitlines(), KEYED[name]))
    def check(case):
        data, word, old, new = case
        got = run_on(name, data.encode("utf-8"))
        if new_value(word, old, new):
            assert [code for code, _, _ in got] == [2] * len(got), (case, got)
        else:
            assert got == expected, case

    check()
