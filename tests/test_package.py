import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Quick start, library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from lapra import" in code and "side=5" in code
    scope = {}
    exec(code.replace("side=5", "side=3"), scope)  # 27 vertices keep the test fast
    assert scope["trace"].converged
    assert scope["ttrace"].converged

