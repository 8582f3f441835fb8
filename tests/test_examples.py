"""Each eval, valence, heatmap and gallery example of EXAMPLES.md does what it says.

An example is a ``blaschke-lab`` command (a trailing backslash continues it),
an optional trailing ``# ...`` note, and the ``# -> ...`` or ``# summary:
...`` lines under it.  Its claims:

- ``$? = N`` is the exit code; without one the command exits 0;
- a ``# -> `` line lists output text, its pieces split at `` / `` and
  ``...``, and each piece appears in stdout or stderr;
- each ``key = value`` of a trailing note, e.g. ``value = 0``, appears too;
- each ``key=value`` of a ``# summary:`` line appears in the heatmap summary.

The examples of the verify section are left out: ``verify theorem-a --seed
1`` alone runs 5,002 cases, and ``test_acceptance.py`` already runs that
suite at seed 1.  A verify example in a section of its own is run.
"""

import re
import shlex
from pathlib import Path

import pytest

from blaschke_lab.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "EXAMPLES.md"
COMMANDS = ("eval", "valence", "heatmap", "gallery")


def _examples(keep):
    """(command line, claim lines) for each example whose section heading and
    command ``keep(heading, command)`` takes, in order."""
    examples = []
    heading = ""
    lines = iter(EXAMPLES.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("## "):
            heading = line[3:]
        elif line.startswith("blaschke-lab "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines).strip()
            examples.append((heading, line, []))
        elif line.startswith(("# -> ", "# summary: ")):
            examples[-1][2].append(line)
    return [(line, claims) for heading, line, claims in examples
            if keep(heading, line.split()[1])]


def _pieces(line, claims):
    """The exit code and the output pieces that one example claims."""
    note = line.partition(" # ")[2]
    text = " / ".join([note] + claims)
    codes = re.findall(r"\$\? = (\d+)", text)
    pieces = [piece for piece in note.split(", ") if re.fullmatch(r"[a-z]+ = \S+", piece)]
    for claim in claims:
        kind, _, body = claim[2:].partition(" ")
        body = re.sub(r",? ?\$\? = \d+", "", body)
        if kind == "->":
            pieces += [p.strip() for p in re.split(r" / |\.\.\.", body) if p.strip()]
        else:
            pieces += body.split()
    return int(codes[0]) if codes else 0, pieces


def _appears(piece, text):
    """piece occurs in text; one that ends in a word or number ends there too,
    so that "value = 1" is not found in "value = 15"."""
    tail = r"(?![\w.])" if re.match(r"[\w.]", piece[-1]) else ""
    return re.search(re.escape(piece) + tail, text) is not None


EXAMPLE_CASES = _examples(lambda heading, command: command in COMMANDS)
# verify examples outside the verify section, whose suite runs are left out
PIPELINE_CASES = _examples(lambda heading, command:
                           command == "verify" and not heading.startswith("verify"))


def test_the_examples_are_found():
    assert len(EXAMPLE_CASES) >= 25
    assert {line.split()[1] for line, _ in EXAMPLE_CASES} == set(COMMANDS)


@pytest.mark.parametrize("line,claims", EXAMPLE_CASES,
                         ids=[f"{i}-{line.split()[1]}" for i, (line, _) in
                              enumerate(EXAMPLE_CASES)])
def test_an_example_does_what_it_says(line, claims, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # heatmap examples write their --out file here
    _check_example(line, claims, capsys)


def _check_example(line, claims, capsys):
    code, pieces = _pieces(line, claims)
    assert main(shlex.split(line, comments=True)[1:]) == code
    captured = capsys.readouterr()
    for piece in pieces:
        assert _appears(piece, captured.out + captured.err), piece


def test_the_pipeline_examples_are_found():
    assert len(PIPELINE_CASES) >= 1
    assert all("theorem-3-1" in line for line, _ in PIPELINE_CASES)


@pytest.mark.parametrize("line,claims", PIPELINE_CASES,
                         ids=[f"{i}-verify" for i in range(len(PIPELINE_CASES))])
def test_a_pipeline_example_does_what_it_says(line, claims, capsys):
    _check_example(line, claims, capsys)
