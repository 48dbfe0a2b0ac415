"""The grid runner's plan -> dispatch -> commit pipeline.

Unknown names fail before the grid starts, in every mode and on the
CLI; an in-process run streams each outcome to the checkpoint before
the next cell starts; and a checkpoint holds each dataset's line once,
also across a resume.
"""

import io
import json

import pytest

from repro.core import BenchmarkRunner
from repro.core.cli import main
from repro.core.sched import shard_checkpoint_path
from repro.exceptions import ConfigurationError
from repro.obs.trace import Tracer, use_tracer

from tests.core.test_parallel import _registries, frozen_clock  # noqa: F401


def _cell_lines(path):
    if not path.exists():
        return 0
    return sum(
        json.loads(line)["type"] == "cell"
        for line in path.read_text().splitlines()
    )


class TestUnknownNames:
    @pytest.mark.parametrize(
        "mode",
        [{}, {"workers": 2}, {"shard": "0/2"}],
        ids=["serial", "pool", "shard"],
    )
    @pytest.mark.parametrize(
        "names, unknown, registered",
        [
            ((["FAST", "NOPE"], None), "NOPE", "FAST, ALSO"),
            ((None, ["ds0", "nope"]), "nope", "ds0, ds1, ds2"),
        ],
        ids=["algorithm", "dataset"],
    )
    def test_fails_before_the_grid_starts(
        self, tmp_path, mode, names, unknown, registered
    ):
        calls = []
        algorithms, datasets = _registries()
        checkpoint = tmp_path / "checkpoint"
        runner = BenchmarkRunner(
            algorithms, datasets, n_folds=2,
            checkpoint_path=checkpoint,
            fault_injector=lambda *call: calls.append(call),
            **mode,
        )
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(ConfigurationError) as error:
            runner.run(*names)
        assert unknown in str(error.value)
        assert f"registered: {registered}" in str(error.value)
        assert calls == []  # nothing was loaded or evaluated
        assert tracer.finished_spans() == []  # no grid span opened
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (["--algorithms", "ECTS", "NOPE", "--datasets", "PowerCons"],
             "NOPE"),
            (["--algorithms", "ECTS", "--datasets", "Nope"], "Nope"),
        ],
        ids=["algorithm", "dataset"],
    )
    def test_cli_exits_2_with_an_error_line(self, argv, unknown):
        out = io.StringIO()
        assert main(argv + ["--scale", "0.05", "--folds", "2"], out) == 2
        text = out.getvalue()
        assert text.startswith("error: unknown")
        assert unknown in text and "registered:" in text
        assert "ECTS on" not in text  # no cell ran


class TestCheckpointStreaming:
    @pytest.mark.parametrize("shard", [None, "0/1"], ids=["plain", "shard"])
    def test_each_outcome_is_on_disk_before_the_next_cell(
        self, tmp_path, shard
    ):
        if shard is None:
            checkpoint = written = tmp_path / "checkpoint.jsonl"
        else:
            checkpoint = tmp_path / "shards"
            written = shard_checkpoint_path(checkpoint, 0)
        seen = []

        def probe(stage, algorithm, dataset, attempt):
            if stage == "evaluate":
                seen.append(_cell_lines(written))

        algorithms, datasets = _registries()
        BenchmarkRunner(
            algorithms, datasets, n_folds=2,
            checkpoint_path=checkpoint, shard=shard, fault_injector=probe,
        ).run()
        # Cell k starts with exactly k-1 outcomes already flushed.
        assert seen == list(range(6))


class TestDatasetLines:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("into", ["same", "fresh"])
    def test_resume_mid_dataset_does_not_repeat_its_line(
        self, tmp_path, frozen_clock, workers, into  # noqa: F811
    ):
        def run(path, **kwargs):
            algorithms, datasets = _registries()
            BenchmarkRunner(
                algorithms, datasets, n_folds=2, seed=0, **kwargs
            ).run()
            return path.read_bytes()

        full_path = tmp_path / "full.jsonl"
        full = run(full_path, checkpoint_path=full_path)
        # Kill after the first cell of ds0: meta, ds0's line, one cell.
        cut_path = tmp_path / "cut.jsonl"
        cut_path.write_bytes(b"".join(full.splitlines(True)[:3]))
        target = cut_path if into == "same" else tmp_path / "fresh.jsonl"
        resumed = run(
            target, resume_from=cut_path, checkpoint_path=target,
            workers=workers,
        )
        assert resumed == full
