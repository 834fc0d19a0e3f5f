"""The plane table behind ``python -m repro <plane>``.

Every byte-stable plane subcommand is generated from
:data:`repro.__main__.PLANES`.  These tests pin that each flag reaches
the ``run`` keyword it names, that every flag's default is the ``run``
signature default, and that every ``python -m repro`` command quoted in
the docs parses with the real parser.
"""

import inspect
import pathlib
import re
import shlex

import pytest

from repro.__main__ import PLANES, build_parser, main
from repro.adversary import run_survivability
from repro.analysis import failover, fleetwatch, mcommerce, survivability
from repro.fleet import run_failover
from repro.observability.export import (
    fleet_flamegraph_folds,
    fleet_jsonl,
    prometheus_text,
)
from repro.observability.fleetwatch import run_fleetwatch
from repro.workloads import run_mcommerce

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_FLEET_ARGV = ["--sessions", "4", "--shards", "2", "--requests", "2",
               "--interarrival", "0.3", "--seed", "11"]
_FLEET_KWARGS = dict(sessions=4, shards=2, requests_per_session=2,
                     interarrival_s=0.3, seed=11)

#: plane -> (CLI flags, the ``run`` keywords they must reach, ``run``,
#: analysis module).  Every flag takes a non-default value, so a flag
#: wired to the wrong keyword changes the report.
ROUND_TRIPS = {
    "failover": (_FLEET_ARGV, _FLEET_KWARGS, run_failover, failover),
    "fleetwatch": (_FLEET_ARGV, _FLEET_KWARGS, run_fleetwatch, fleetwatch),
    "mcommerce": (
        ["--sessions", "4", "--shards", "2", "--duration", "0.6",
         "--seed", "11"],
        dict(sessions=4, shards=2, duration_s=0.6, seed=11),
        run_mcommerce, mcommerce),
    "survivability": (
        ["--sessions", "4", "--requests", "2", "--interarrival", "0.2",
         "--attacker-fraction", "0.25", "--fault-rate", "0.1",
         "--seed", "11"],
        dict(sessions=4, requests_per_session=2, interarrival_s=0.2,
             attacker_fraction=0.25, fault_rate=0.1, seed=11),
        run_survivability, survivability),
}

#: The CLI surface: flag names per plane, ``--report`` and exports
#: included.
SURFACE = {
    "conformance": {"seed", "fuzz-iterations", "depth", "report"},
    "survivability": {"sessions", "requests", "interarrival",
                      "attacker-fraction", "fault-rate", "seed", "report"},
    "failover": {"sessions", "shards", "requests", "interarrival", "seed",
                 "report"},
    "mcommerce": {"sessions", "shards", "duration", "seed", "report"},
    "fleetwatch": {"sessions", "shards", "requests", "interarrival", "seed",
                   "report", "jsonl", "metrics", "folded"},
}


def _keyword(spec):
    return spec if isinstance(spec, str) else spec[0]


def test_every_plane_but_conformance_has_a_round_trip():
    # conformance takes seconds even at minimal parameters: parse only.
    assert set(ROUND_TRIPS) | {"conformance"} == {p.name for p in PLANES}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_cli_report_equals_direct_render(name, tmp_path, capsys):
    argv, kwargs, run, analysis = ROUND_TRIPS[name]
    path = tmp_path / "report.json"
    assert main([name, *argv, "--report", str(path)]) == 0
    stdout = capsys.readouterr().out
    expected = analysis.format_report(analysis.build_report(run(**kwargs)))
    assert stdout == expected
    assert path.read_bytes() == expected.encode("utf-8")


def test_fleetwatch_exports_equal_direct_render(tmp_path, capsys):
    paths = {flag: tmp_path / flag for flag in ("jsonl", "metrics", "folded")}
    argv = [arg for flag, path in paths.items()
            for arg in (f"--{flag}", str(path))]
    assert main(["fleetwatch", *_FLEET_ARGV, *argv]) == 0
    capsys.readouterr()
    result = run_fleetwatch(**_FLEET_KWARGS)
    telemetry = result.failover.telemetry
    assert paths["jsonl"].read_bytes() == \
        fleet_jsonl(telemetry, result.store).encode("utf-8")
    assert paths["metrics"].read_bytes() == \
        prometheus_text(telemetry).encode("utf-8")
    assert paths["folded"].read_bytes() == \
        fleet_flamegraph_folds(telemetry, result.store).encode("utf-8")


@pytest.mark.parametrize("plane", PLANES, ids=lambda plane: plane.name)
def test_flag_defaults_are_run_defaults(plane):
    parser = build_parser()
    parameters = inspect.signature(plane.run).parameters
    defaults = vars(parser.parse_args([plane.name]))
    for flag, spec in plane.flags.items():
        default = parameters[_keyword(spec)].default
        parsed = defaults[flag.replace("-", "_")]
        assert parsed == default and type(parsed) is type(default), flag
        explicit = vars(parser.parse_args(
            [plane.name, f"--{flag}", str(default)]))
        assert explicit[flag.replace("-", "_")] == default, flag
    assert defaults["report"] is None


def test_cli_surface_is_pinned():
    parser = build_parser()
    for name, flags in SURFACE.items():
        dests = set(vars(parser.parse_args([name]))) - {"command"}
        assert dests == {flag.replace("-", "_") for flag in flags}, name
        for flag in flags:
            parser.parse_args([name, f"--{flag}", "1"])


_DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
_COMMAND = re.compile(r"python3?(?: -O)? -m repro(?=\s|$)(.*)")
_SHELL_STOP = {"&&", "||", "|", ";", ">", "2>&1"}


def _quoted_commands(text):
    """The argv after every ``python -m repro`` in a Markdown document:
    fenced shell lines (backslash continuations joined) and inline code
    spans (which may wrap across lines)."""
    text = re.sub(r"\\\n\s*", " ", text)
    commands = []
    fenced = text.split("```")
    for index, chunk in enumerate(fenced):
        if index % 2:
            lines = [line.split(" #")[0] for line in chunk.splitlines()
                     if not line.lstrip().startswith("#")]
        else:
            lines = [" ".join(span.split())
                     for span in re.findall(r"`([^`]+)`", chunk)]
        for line in lines:
            match = _COMMAND.search(line)
            if match is None:
                continue
            argv = []
            for token in shlex.split(match.group(1)):
                if token in _SHELL_STOP:
                    break
                argv.append(token)
            commands.append(argv)
    return commands


@pytest.mark.parametrize("doc", _DOCS)
def test_documented_commands_parse(doc):
    commands = _quoted_commands((REPO_ROOT / doc).read_text(encoding="utf-8"))
    assert commands, f"{doc} quotes no python -m repro command"
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # --help exits 0; a bad command exits 2
            assert exc.code == 0, f"{doc}: python -m repro {' '.join(argv)}"
