"""Tests for the benchmark-harness infrastructure (benchmarks/common.py)."""

from pathlib import Path

import numpy as np
import pytest

from benchmarks import common


class TestComparisonTable:
    def test_measured_and_paper_side_by_side(self):
        rows = {"gin": {"nci1": 76.0}}
        paper = {"gin": {"nci1": 76.17}}
        table = common.comparison_table(rows, paper, ["gin"], ["nci1"])
        assert "76.00 (76.17)" in table

    def test_missing_cells_render_dashes(self):
        table = common.comparison_table({}, {}, ["gin"], ["nci1"])
        assert "- (-)" in table

    def test_custom_format(self):
        rows = {"m": {"d": 0.987}}
        table = common.comparison_table(rows, {}, ["m"], ["d"],
                                        fmt="{:.3f}")
        assert "0.987" in table


class TestEmit:
    def test_writes_results_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCOPE", raising=False)
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        common.emit("Table X: sample", "hello world")
        written = (tmp_path / "table_x:_sample.txt").read_text()
        assert "hello world" in written

    def test_smoke_scope_leaves_committed_table_alone(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCOPE", "smoke")
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        committed = tmp_path / "table_x:_sample.txt"
        committed.write_text("full run\n")
        common.emit("Table X: sample", "smoke run")
        assert committed.read_text() == "full run\n"
        assert (tmp_path / "smoke" / committed.name).read_text() \
            == "smoke run\n"


class TestOutputPath:
    def test_full_scope_returns_committed_path(self, tmp_path,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCOPE", raising=False)
        committed = tmp_path / "BENCH_x.json"
        assert common.output_path(committed) == committed

    def test_smoke_scope_redirects_under_results_smoke(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCOPE", "smoke")
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path / "results")
        path = common.output_path(tmp_path / "BENCH_x.json")
        assert path == tmp_path / "results" / "smoke" / "BENCH_x.json"
        assert path.parent.is_dir()

    def test_smoke_directory_is_gitignored(self):
        root = Path(common.__file__).resolve().parent.parent
        ignored = (root / ".gitignore").read_text().split()
        smoke = common.RESULTS_DIR / "smoke"
        assert f"{smoke.relative_to(root).as_posix()}/" in ignored


class TestHistory:
    CONFIG = {"workload": "proteins", "dtype": "float32",
              "timed": "train_steps"}

    def test_rerun_replaces_only_its_own_series(self):
        # A rule that looked only at the last recorded entry let a
        # same-commit rerun of one section overwrite another's entry.
        plain_key = common.history_key("steady_state", self.CONFIG)
        other = common.history_key("dp_scaling", dict(self.CONFIG,
                                                      dp_procs=4))
        history = {plain_key: [{"commit": "c1", "median_epoch_ms": 183.0}],
                   other: [{"commit": "c1", "median_epoch_ms": 220.1}]}
        common.record_history(history, "steady_state", self.CONFIG,
                              {"commit": "c1", "median_epoch_ms": 181.0})
        assert history[other] == [{"commit": "c1",
                                   "median_epoch_ms": 220.1}]
        plain = history[plain_key]
        assert plain == [{"commit": "c1", "median_epoch_ms": 181.0}]
        common.record_history(history, "steady_state", self.CONFIG,
                              {"commit": "c4", "median_epoch_ms": 175.0})
        assert [e["commit"] for e in plain] == ["c1", "c4"]

    def test_key_is_order_independent(self):
        assert common.history_key("s", {"a": 1, "b": 2}) \
            == common.history_key("s", {"b": 2, "a": 1}) == "s[a=1,b=2]"


class TestScope:
    def test_default_is_full(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCOPE", raising=False)
        assert common.bench_scope() == "full"
        assert not common.is_smoke()

    def test_smoke_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCOPE", "SMOKE")
        assert common.is_smoke()


class TestPeakRss:
    def test_positive_on_this_platform(self):
        assert common.peak_rss_bytes() > 0

    def test_monotone_high_water_mark(self):
        before = common.peak_rss_bytes()
        assert common.peak_rss_bytes() >= before


def _allocate_mb(mb):
    block = np.ones(mb * 1024 * 1024 // 8, dtype=np.float64)
    return float(block.sum())


def _raise_value_error():
    raise ValueError("boom")


class TestRunIsolated:
    def test_returns_result_and_peak(self):
        result, peak = common.run_isolated(_allocate_mb, 32)
        assert result == 32 * 1024 * 1024 // 8
        assert peak > 32 * 1024 * 1024  # at least the allocation itself

    def test_child_peak_is_workload_private(self):
        """The parent's own allocation history never inflates a child."""
        _allocate_mb(256)   # raise the parent's high-water mark
        _, small_peak = common.run_isolated(_allocate_mb, 1)
        assert small_peak < common.peak_rss_bytes()

    def test_child_exception_surfaces(self):
        with pytest.raises(RuntimeError, match="boom"):
            common.run_isolated(_raise_value_error)


class TestPaperReferenceTables:
    """Sanity-lock the transcribed paper values used in every comparison."""

    def test_table1_adamgnn_wins_five_of_six(self):
        adam = common.PAPER_TABLE1["adamgnn"]
        wins = 0
        for dataset in adam:
            best_baseline = max(common.PAPER_TABLE1[m][dataset]
                                for m in common.PAPER_TABLE1
                                if m != "adamgnn")
            wins += adam[dataset] > best_baseline
        assert wins == 5  # StructPool takes PROTEINS

    def test_table2_adamgnn_has_best_average(self):
        for table in (common.PAPER_TABLE2_NC, common.PAPER_TABLE2_LP):
            averages = {m: np.mean(list(v.values()))
                        for m, v in table.items()}
            assert max(averages, key=averages.get) == "adamgnn"

    def test_table3_full_model_best(self):
        full = common.PAPER_TABLE3["full"]
        for variant, row in common.PAPER_TABLE3.items():
            for column, value in row.items():
                if value is not None:
                    assert value <= full[column]

    def test_table4_sagpool_cheapest(self):
        for dataset in ("nci1", "nci109", "proteins"):
            times = {m: common.PAPER_TABLE4[m][dataset]
                     for m in common.PAPER_TABLE4}
            assert min(times, key=times.get) == "sagpool"

    def test_table5_flyback_helps_everywhere(self):
        for dataset, value in common.PAPER_TABLE5["full model"].items():
            assert value > common.PAPER_TABLE5["no flyback"][dataset]
