"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # its last line prints the trace's status and final cost
    status, final_cost = capsys.readouterr().out.splitlines()[-1].split()
    assert status == "RunStatus.TOL_COST" and float(final_cost) <= 1e-12
