"""Random-search reports pinned before the column pass existed.

``tests/data/pinned.json`` maps each name to CLI arguments, and
``tests/data/<name>.json`` holds the report ``python -m cartier <args>
--threads 1`` wrote with the scalar per-candidate path alone.  They cover
script 2 at seeds 2 and 3; F_5, F_9, F_25 and F_61 with the a = g - 1 target
(the gate and, at p >= 5, the end-row test) and another a-target (the gate
alone), each with and without ``--require-smooth``; a factor x(x^2 + 1)
over F_7, whose rest N = x^2 + 1 has degree 2; and F_27 and F_67, which have
no byte lanes and skip the pass.
"""

import json
from pathlib import Path

import pytest

from cartier.cli import main

DATA = Path(__file__).resolve().parent / "data"
PINNED = json.loads((DATA / "pinned.json").read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", PINNED)
def test_report_equals_the_pinned_bytes(capsys, name, threads):
    assert main([*PINNED[name], "--threads", threads]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()
