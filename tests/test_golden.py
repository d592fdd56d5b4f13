"""Every command line of ``make_golden.py`` prints what ``golden.json``
recorded: the same exit code, stdout and stderr, byte for byte."""

import json

from make_golden import GOLDEN, outputs


def test_every_command_line_prints_its_golden_output(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = outputs(tmp_path)
    assert list(got) == list(want)
    assert [line for line in want if got[line] != want[line]] == []
