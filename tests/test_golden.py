"""Byte-for-byte comparison of CLI runs against the golden transcripts.

The cases and the stored files live in tests/golden/; see
tests/golden/regenerate.py for how they were made.
"""

import os

import pytest

from golden.regenerate import CASES, EXIT_CODES, HERE, run_case
from helpers import keeps_lemma_2


def _stored_codes():
    with open(EXIT_CODES, encoding="utf-8") as handle:
        return dict((name, int(code)) for name, code
                    in (line.split() for line in handle))


STORED = _stored_codes()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_transcript(name, argv):
    with open(os.path.join(HERE, name + ".out"), "rb") as handle:
        expected = handle.read()
    code, stdout = run_case(argv)
    assert code == STORED[name]
    assert stdout == expected


VERIFY = [name for name, argv in CASES if argv[0] == "verify-chhs"]


@pytest.mark.parametrize("name", VERIFY)
def test_verify_chhs_golden_keeps_lemma_2(name):
    with open(os.path.join(HERE, name + ".out"), encoding="utf-8") as handle:
        assert keeps_lemma_2(handle.read())
