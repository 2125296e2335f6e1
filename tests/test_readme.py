"""The README's Python examples run as printed.

Both `python` blocks run in one namespace, as a reader pasting them in
order would, so a public name the README uses cannot disappear silently.
Each `print` whose trailing comment is a value is checked against it:
`59.072...` is a prefix of the printed number, and `[0.674 0.326]` gives
each printed entry rounded to the digits shown.
"""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
VALUE_COMMENT = re.compile(r"#\s*(\[[\d. ]+\]|[\d.]+)\s*$")


def matches(printed: str, shown: str) -> bool:
    if shown.endswith("..."):
        return printed.startswith(shown[:-3])
    got, want = printed.strip("[]").split(), shown.strip("[]").split()
    return len(got) == len(want) and all(
        round(float(g), len(w.split(".")[1])) == float(w) for g, w in zip(got, want)
    )


def test_readme_examples_print_their_documented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    prints = [line for block in blocks for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    checked = 0
    for line, value in zip(prints, printed):
        comment = VALUE_COMMENT.search(line)
        if comment:
            assert matches(value, comment.group(1)), (line, value)
            checked += 1
    assert checked == 3
