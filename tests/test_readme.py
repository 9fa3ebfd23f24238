"""The README's library quick start runs as printed and shows what it claims."""

import re
from pathlib import Path

from tamperscan import fit_width, score_counties

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_three_most_anomalous_counties(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    lines = capsys.readouterr().out.splitlines()
    resid = namespace["resid"]
    top = score_counties(resid, fit_width(resid))[:3]
    assert [line.rsplit(" ", 2)[0] for line in lines] == [s.key.name for s in top]
