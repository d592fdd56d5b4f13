"""Every command line of ``make_golden.py`` prints what ``golden.json``
recorded: the same exit code, stdout and stderr, byte for byte.  The file
itself is the text ``make_golden.py`` writes, byte for byte, so a
hand-edited or reformatted file fails too."""

import json

from make_golden import GOLDEN, golden_text, outputs


def test_every_command_line_prints_its_golden_output(tmp_path):
    text = GOLDEN.read_text()
    want = json.loads(text)
    got = outputs(tmp_path)
    assert list(got) == list(want)
    assert [line for line in want if got[line] != want[line]] == []
    assert text == golden_text(got)
