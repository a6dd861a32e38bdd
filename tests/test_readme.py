"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # The blocks continue one another (the second reuses the first's
    # family and data), so they run in one namespace, in order.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["family"].weight_matrix.shape[0] == 3
    assert namespace["result"].m_hat in namespace["family"].models
    assert capsys.readouterr().out
