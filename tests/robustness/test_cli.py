"""Tests for the ``etsc-bench robustness`` CLI."""

import io
import json

import pytest

from repro.core.cli import build_parser as grid_parser
from repro.core.cli import main as dispatch_main
from repro.robustness.cli import build_parser, main

#: One argv per flag the robustness grid shares with ``etsc-bench``.
SHARED_GRID_ARGV = [
    ["--algorithms", "ECTS", "TEASER"],
    ["--datasets", "PowerCons"],
    ["--scale", "0.08"],
    ["--folds", "2"],
    ["--seed", "3"],
    ["--workers", "2"],
    ["--workers", "auto"],
    ["--checkpoint", "grid.jsonl"],
    ["--checkpoint", "grid.jsonl", "--resume"],
    ["--trace", "trace.jsonl"],
    ["--log-level", "debug"],
    ["--progress"],
]


class TestSharedGridFlags:
    """The robustness parser takes the grid's flags from one declaration."""

    @pytest.mark.parametrize(
        "argv", [[]] + SHARED_GRID_ARGV, ids=lambda argv: " ".join(argv)
    )
    def test_same_destinations_and_values(self, argv):
        grid = vars(grid_parser().parse_args(argv))
        robust = vars(build_parser().parse_args(argv))
        shared = set(grid) & set(robust)
        for flag in (token for token in argv if token.startswith("--")):
            assert flag.lstrip("-").replace("-", "_") in shared
        assert {key: robust[key] for key in shared} == {
            key: grid[key] for key in shared
        }

    def test_every_shared_flag_is_declared_alike(self):
        def declared(parser):
            return {
                option: (action.dest, action.default, action.nargs)
                for action in parser._actions
                for option in action.option_strings
            }

        grid, robust = declared(grid_parser()), declared(build_parser())
        flags = {argv[0] for argv in SHARED_GRID_ARGV}
        assert {flag: robust[flag] for flag in flags} == {
            flag: grid[flag] for flag in flags
        }

    def test_workers_auto_is_accepted(self):
        out = io.StringIO()
        assert main(["--workers", "auto", "--list-ops"], out=out) == 0
        assert build_parser().parse_args(["--workers", "auto"]).workers == (
            "auto"
        )


class TestListOps:
    def test_catalog_lists_every_operator(self):
        out = io.StringIO()
        assert main(["--list-ops"], out=out) == 0
        text = out.getvalue()
        for op in (
            "missing_blocks", "point_dropout", "irregular_resample",
            "additive_noise", "magnitude_warp", "truncate_varlen",
            "label_noise", "concept_drift",
        ):
            assert op in text
        assert "op:severity[@where]" in text
        assert "s5:" in text


class TestValidation:
    def test_unknown_operator_is_a_usage_error(self):
        out = io.StringIO()
        assert main(["--ops", "gremlins"], out=out) == 2
        assert "unknown corruption operator" in out.getvalue()

    def test_out_of_range_severity_is_a_usage_error(self):
        out = io.StringIO()
        assert main(
            ["--ops", "missing_blocks", "--severities", "9"], out=out
        ) == 2
        assert "severity" in out.getvalue()

    def test_resume_requires_checkpoint(self):
        out = io.StringIO()
        assert main(["--resume"], out=out) == 2
        assert "--checkpoint" in out.getvalue()


class TestTinyRun:
    def test_mini_grid_renders_and_writes_report(self, tmp_path):
        out = io.StringIO()
        report_path = tmp_path / "robust.json"
        code = main(
            [
                "--ops", "missing_blocks",
                "--severities", "2",
                "--algorithms", "ECTS",
                "--datasets", "PowerCons",
                "--scale", "0.08",
                "--folds", "2",
                "--output", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "missing_blocks" in text
        assert "ECTS" in text
        payload = json.loads(report_path.read_text())
        assert payload["grid"]["ops"] == ["missing_blocks"]
        assert payload["grid"]["severities"] == [0, 2]
        assert "environment" in payload

    def test_dispatch_through_etsc_bench(self):
        out = io.StringIO()
        assert dispatch_main(["robustness", "--list-ops"], out=out) == 0
        assert "corruption operators" in out.getvalue()
