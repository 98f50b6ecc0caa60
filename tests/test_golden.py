"""Golden-bytes gate: `--format json` stdout must not drift.

tests/golden/ holds small documents serialized from corpus fixtures with
textio.serialize_document, and expected.json maps each command line to
the exact stdout it printed when the file was recorded.  A key is the
argv without `--format json`; tokens ending in .txt name documents in
tests/golden/.  Any refactor must leave every entry byte-identical.
"""

import json
import os

import pytest

from modalfib.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_json_output_is_byte_identical(key, capsys):
    argv = [os.path.join(GOLDEN, t) if t.endswith(".txt") else t
            for t in key.split()]
    code = main(argv + ["--format", "json"])
    assert code in (0, 1)
    assert capsys.readouterr().out == EXPECTED[key]
