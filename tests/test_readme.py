"""README's examples run: the library example computes the values its comments
state, and the configuration example runs a report."""

import re
from pathlib import Path

from dipolemirror.cli import main

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


def _indented_block(after: str) -> str:
    """The first indented block after the text ``after``, dedented."""
    lines = README.read_text().split(after, 1)[1].splitlines()
    while not lines[0].startswith("    "):
        lines.pop(0)
    block = []
    for line in lines:
        if line and not line.startswith("    "):
            break
        block.append(line[4:])
    return "\n".join(block)


def test_configuration_example_runs_a_report(tmp_path, capsys):
    config = tmp_path / "toolkit.ini"
    config.write_text(_indented_block("Configuration is an INI-style file."))
    assert main(["report", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "provenance.eta_t = computed: modeled pulse overlap from [pulse] inputs" in out


def test_library_example_computes_its_commented_values():
    code = _indented_block("## Library example\n")
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
