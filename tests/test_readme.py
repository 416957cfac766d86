"""README's library example runs, and its comments state what it computes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# each value the example states in a comment, and the expression it states
COMMENTED = [
    ("w = 2.263624744 f", "opt.waist"),
    ("eta = 0.98243", "opt.eta"),
    ("ratio = 1", "res.ratio"),
    ("0.93648", "frac"),
    ("0.94345", "eta_t"),
    ("w = 2.274196043 f", "weighted.waist"),
    ("eta = 0.98280", "weighted.eta"),
]


def _library_example() -> str:
    """The indented block under '## Library example', dedented."""
    lines = README.read_text().split("## Library example\n", 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line and not line.startswith("    "):
            break
        block.append(line[4:])
    return "\n".join(block)


def test_library_example_computes_its_commented_values():
    code = _library_example()
    comments = " ".join(line.split("#", 1)[1] for line in code.splitlines() if "#" in line)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    for comment, expression in COMMENTED:
        assert comment in comments, comment
        text = re.findall(r"\d+(?:\.\d+)?", comment)[-1]
        value = eval(expression, namespace)
        # a number is stated to its last digit; an integer exactly
        digits = len(text.partition(".")[2])
        assert abs(value - float(text)) <= (0.5 * 10.0**-digits if digits else 0.0), expression
