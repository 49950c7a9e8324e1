"""Command-line stdout and exit codes, compared byte for byte with recorded outputs.

``tests/fixtures/cli_golden`` holds, for each case below, the stdout
(``<name>.out``) and the exit code (``exit_codes.json``) of the command
line as it was before each command took only the flags it reads.  In
arguments and outputs ``{sites}`` stands for the fixture sites directory
and ``{tmp}`` for a scratch directory filled by :func:`materialize`.
``train`` and ``analyze`` run in table mode, whose rounding keeps the
figures stable across numeric libraries.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sourcescope.cli import main
from tests.synth import balanced_dataset, write_csv

GOLDEN = Path(__file__).parent / "fixtures" / "cli_golden"

CASES = {
    "score-share": ["score", "https://en-full.test", "--offline-root", "{sites}"],
    "score-withhold": ["score", "http://en-bare.test", "--offline-root", "{sites}"],
    "score-mimic": ["score", "http://nbcnews.com.co", "--offline-root", "{sites}"],
    "score-json": ["score", "https://en-full.test", "--output-mode", "json",
                   "--offline-root", "{sites}"],
    "score-threshold": ["score", "http://en-bare.test", "--threshold", "0.99",
                        "--offline-root", "{sites}"],
    "score-batch-table": ["score", "--batch", "{tmp}/urls.txt", "--offline-root", "{sites}"],
    "score-batch-json": ["score", "--batch", "{tmp}/urls.txt", "--output-mode", "json",
                         "--offline-root", "{sites}"],
    "score-batch-all-errors": ["score", "--batch", "{tmp}/unreachable.txt",
                               "--offline-root", "{sites}"],
    "score-unreachable": ["score", "http://no-such-fixture.test", "--offline-root", "{sites}"],
    "score-bad-threshold": ["score", "http://en-bare.test", "--threshold", "1.5",
                            "--offline-root", "{sites}"],
    "score-bad-timeout": ["score", "http://en-bare.test", "--timeout", "0",
                          "--offline-root", "{sites}"],
    "score-missing-model": ["score", "http://en-bare.test", "--model", "{tmp}/missing.json",
                            "--offline-root", "{sites}"],
    "extract-table": ["extract", "http://en-bare.test", "--offline-root", "{sites}"],
    "extract-json": ["extract", "https://en-full.test", "--output-mode", "json",
                     "--offline-root", "{sites}"],
    "extract-missing": ["extract", "http://missing.test", "--offline-root", "{sites}"],
    "screen-mimic": ["screen", "nbcnews.com.co"],
    "screen-json": ["screen", "nbcnews.com", "--output-mode", "json"],
    "screen-known-domains": ["screen", "quiet-herald.net", "--known-domains", "{tmp}/db.txt"],
    "train-table": ["train", "{tmp}/dataset.csv", "--model-out", "{tmp}/m.json",
                    "--slope-convention", "average", "--cutoff", "0.4"],
    "train-separated": ["train", "{tmp}/sep.csv", "--features", "padlock",
                        "--model-out", "{tmp}/sep.json"],
    "analyze-table": ["analyze", "{tmp}/dataset.csv", "--yates", "--alpha", "0.05"],
}


def materialize(tmp: Path) -> None:
    """The input files the cases name under ``{tmp}``."""
    write_csv(tmp / "dataset.csv", balanced_dataset(np.random.default_rng(42), per_class=150))
    separated = ["label,padlock,contact,telephone,about,terms"]
    separated += [f"{i % 2},{i % 2},0,1,0,1" for i in range(40)]
    (tmp / "sep.csv").write_text("\n".join(separated) + "\n", encoding="utf-8")
    (tmp / "urls.txt").write_text(
        "https://en-full.test\nhttp://nbcnews.com.co\n# comment\n"
        "http://no-such-fixture.test\nhttp://en-bare.test\n", encoding="utf-8")
    (tmp / "unreachable.txt").write_text("http://no-such-fixture.test\n", encoding="utf-8")
    (tmp / "db.txt").write_text("quiet-herald.net\n", encoding="utf-8")


def run_case(name: str, sites: Path, tmp: Path) -> tuple[int, str]:
    """Exit code and stdout of one case, with both directories put back as placeholders."""
    argv = [arg.format(sites=sites, tmp=tmp) for arg in CASES[name]]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().replace(str(tmp), "{tmp}").replace(str(sites), "{sites}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match_recording(name, fixture_sites, tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCESCOPE_OFFLINE", raising=False)
    materialize(tmp_path)
    code, out = run_case(name, fixture_sites, tmp_path)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_every_recording_has_a_case():
    recorded = {path.stem for path in GOLDEN.glob("*.out")}
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert recorded == set(expected_codes) == set(CASES)
