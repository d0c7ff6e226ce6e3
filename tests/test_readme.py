import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_digest_count_matches_tool():
    stated = re.findall(r"on a fixed set of\s+(\d+)\s+invocations", README.read_text())
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert stated == [str(len(list(digest.invocations())))]
