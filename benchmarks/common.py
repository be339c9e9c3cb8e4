"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's evaluation has one bench module.
Each bench:

* regenerates the experiment with this library (synthetic data, NumPy
  substrate — absolute numbers differ from the paper; *shapes* should
  hold, see EXPERIMENTS.md);
* prints the rows next to the paper's reported values;
* writes the rendered table to ``benchmarks/results/<name>.txt``.

Output is emitted through :func:`emit`, which bypasses pytest's capture so
the tables appear in ``pytest benchmarks/ --benchmark-only`` logs, and is
also persisted to disk.

Scope control: set ``REPRO_BENCH_SCOPE=smoke`` to shrink every bench to a
seconds-long sanity pass (used by CI); the default ``full`` scope runs the
complete grids (~30–45 minutes total on a laptop CPU).  Every result file
a bench writes goes through :func:`output_path`, so smoke runs land in
the gitignored ``benchmarks/results/smoke/`` and never overwrite the
committed full-scope results.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Environment knobs that change what a wall-clock number means.  BLAS
#: thread counts matter because the fused kernels lean on matmul.
THREAD_ENV_KEYS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Data-parallel knob: the process count routing ``fit`` through the
#: sharded trainer.
DP_ENV_KEYS = ("REPRO_DP_PROCS",)


def bench_environment(dtype: str, **extra) -> dict:
    """Precision/parallelism context for a recorded measurement.

    Records the compute dtype, the CPU count, the BLAS thread environment
    and the data-parallel knobs; benches measuring a sharded run pass
    run-scoped facts (shard count, comm segment bytes, effective process
    count) through ``extra``.
    """
    env = {
        "dtype": dtype,
        "cpu_count": os.cpu_count(),
        "thread_env": {key: os.environ.get(key)
                       for key in THREAD_ENV_KEYS},
        "dp_env": {key: os.environ.get(key) for key in DP_ENV_KEYS},
    }
    env.update(extra)
    return env


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes.

    Uses ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux, bytes on
    macOS) with a ``psutil`` fallback; returns 0 when neither source is
    available.  Note the value is a process-lifetime high-water mark — to
    attribute a peak to one workload, run it via :func:`run_isolated`.
    """
    try:
        import resource
        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(raw) if sys.platform == "darwin" else int(raw) * 1024
    except Exception:
        pass
    try:
        import psutil
        return int(psutil.Process().memory_info().rss)
    except Exception:
        return 0


def run_isolated(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` in a forked child; return
    ``(result, peak_rss_bytes)``.

    Forking gives the workload a private address space, so the child's
    ``ru_maxrss`` *is* the workload's peak (the parent's own history
    cannot inflate it) — this is how benches report memory alongside
    latency.  Falls back to in-process execution (peak measured before
    and after, high-water semantics) when fork is unavailable; the
    result must be picklable on the forked path.
    """
    import multiprocessing as mp
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return fn(*args, **kwargs), peak_rss_bytes()
    parent_conn, child_conn = ctx.Pipe(duplex=False)

    def _child() -> None:
        try:
            result = fn(*args, **kwargs)
            child_conn.send(("ok", result, peak_rss_bytes()))
        except BaseException as exc:  # surface the real failure in the parent
            child_conn.send(("err", repr(exc), peak_rss_bytes()))
        finally:
            child_conn.close()

    proc = ctx.Process(target=_child)
    proc.start()
    child_conn.close()
    try:
        status, payload, peak = parent_conn.recv()
    finally:
        proc.join()
        parent_conn.close()
    if status == "err":
        raise RuntimeError(f"run_isolated child failed: {payload}")
    return payload, peak


def current_commit() -> str:
    """Short hash of HEAD, suffixed ``-dirty`` when tracked files differ
    from it (the figure then measures uncommitted code), or
    ``"unknown"`` outside a usable git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except Exception:
        return "unknown"
    if not head:
        return "unknown"
    return f"{head}-dirty" if dirty else head


# ---------------------------------------------------------------------------
# Per-commit history, one series per (section, config)
# ---------------------------------------------------------------------------
def history_key(section: str, config: Dict) -> str:
    """Name of one history series, e.g.
    ``"dp_scaling[dp_procs=4,dtype=float32,timed=fit_epoch,workload=proteins]"``."""
    fields = ",".join(f"{name}={config[name]}" for name in sorted(config))
    return f"{section}[{fields}]"


def record_history(history: Dict[str, List[dict]], section: str,
                   config: Dict, entry: dict) -> None:
    """Append ``entry`` to the (section, config) series.  A rerun on the
    commit that series last recorded replaces that entry; other series
    are never touched."""
    series = history.setdefault(history_key(section, config), [])
    if series and series[-1].get("commit") == entry.get("commit"):
        series[-1] = entry
    else:
        series.append(entry)


#: Paper-reported values, used to print side-by-side comparisons.
PAPER_TABLE1 = {
    # model: {dataset: accuracy %}
    "gin": {"nci1": 76.17, "nci109": 77.31, "dd": 78.05, "mutag": 75.11,
            "mutagenicity": 77.24, "proteins": 75.37},
    "3wl": {"nci1": 79.38, "nci109": 78.34, "dd": 78.32, "mutag": 78.34,
            "mutagenicity": 81.52, "proteins": 77.92},
    "sortpool": {"nci1": 72.25, "nci109": 73.21, "dd": 73.31,
                 "mutag": 71.47, "mutagenicity": 74.65, "proteins": 70.49},
    "diffpool": {"nci1": 76.47, "nci109": 76.17, "dd": 76.16,
                 "mutag": 73.61, "mutagenicity": 76.30, "proteins": 71.90},
    "topkpool": {"nci1": 77.56, "nci109": 77.02, "dd": 73.98,
                 "mutag": 76.60, "mutagenicity": 78.64, "proteins": 72.94},
    "sagpool": {"nci1": 75.76, "nci109": 73.67, "dd": 76.21,
                "mutag": 75.27, "mutagenicity": 77.09, "proteins": 75.27},
    "structpool": {"nci1": 77.61, "nci109": 78.39, "dd": 80.10,
                   "mutag": 77.13, "mutagenicity": 80.94,
                   "proteins": 78.84},
    "adamgnn": {"nci1": 79.77, "nci109": 79.36, "dd": 81.51,
                "mutag": 80.11, "mutagenicity": 82.04, "proteins": 77.04},
}

PAPER_TABLE2_NC = {
    "gcn": {"acm": 92.25, "citeseer": 76.13, "cora": 88.90,
            "emails": 85.03, "dblp": 82.68, "wiki": 69.03},
    "sage": {"acm": 92.48, "citeseer": 76.75, "cora": 88.92,
             "emails": 85.80, "dblp": 83.20, "wiki": 71.83},
    "gat": {"acm": 91.69, "citeseer": 76.96, "cora": 88.33,
            "emails": 84.67, "dblp": 84.04, "wiki": 56.50},
    "gin": {"acm": 90.66, "citeseer": 76.39, "cora": 87.74,
            "emails": 87.18, "dblp": 82.54, "wiki": 66.29},
    "topkpool": {"acm": 93.42, "citeseer": 75.59, "cora": 87.68,
                 "emails": 89.16, "dblp": 85.27, "wiki": 71.33},
    "adamgnn": {"acm": 93.61, "citeseer": 78.92, "cora": 90.92,
                "emails": 91.88, "dblp": 88.36, "wiki": 73.37},
}

PAPER_TABLE2_LP = {
    "gcn": {"acm": 0.975, "citeseer": 0.887, "cora": 0.918,
            "emails": 0.930, "dblp": 0.904, "wiki": 0.523},
    "sage": {"acm": 0.972, "citeseer": 0.884, "cora": 0.908,
             "emails": 0.923, "dblp": 0.889, "wiki": 0.577},
    "gat": {"acm": 0.968, "citeseer": 0.910, "cora": 0.912,
            "emails": 0.930, "dblp": 0.889, "wiki": 0.594},
    "gin": {"acm": 0.787, "citeseer": 0.808, "cora": 0.878,
            "emails": 0.859, "dblp": 0.820, "wiki": 0.501},
    "topkpool": {"acm": 0.890, "citeseer": 0.918, "cora": 0.932,
                 "emails": 0.936, "dblp": 0.934, "wiki": 0.734},
    "adamgnn": {"acm": 0.988, "citeseer": 0.970, "cora": 0.948,
                "emails": 0.937, "dblp": 0.965, "wiki": 0.920},
}

PAPER_TABLE3 = {
    "task only": {"dblp_lp": 0.956, "citeseer_nc": 76.63,
                  "mutagenicity_gc": 79.04},
    "task + kl": {"dblp_lp": None, "citeseer_nc": 77.17,
                  "mutagenicity_gc": 78.94},
    "task + recon": {"dblp_lp": None, "citeseer_nc": 77.64,
                     "mutagenicity_gc": 80.65},
    "full": {"dblp_lp": 0.965, "citeseer_nc": 78.92,
             "mutagenicity_gc": 82.04},
}

PAPER_TABLE4 = {
    "diffpool": {"nci1": 6.23, "nci109": 3.22, "proteins": 3.65},
    "sagpool": {"nci1": 1.95, "nci109": 1.55, "proteins": 0.45},
    "topkpool": {"nci1": 4.58, "nci109": 4.45, "proteins": 1.46},
    "structpool": {"nci1": 6.31, "nci109": 6.04, "proteins": 1.34},
    "adamgnn": {"nci1": 3.62, "nci109": 3.24, "proteins": 1.03},
}

PAPER_TABLE5 = {
    "no flyback": {"nci1": 75.54, "nci109": 77.49, "mutagenicity": 79.89},
    "full model": {"nci1": 79.77, "nci109": 79.36, "mutagenicity": 82.04},
}

PAPER_TABLE8 = {
    # levels: {dataset_task: value}
    2: {"dblp_lp": 0.951, "wiki_lp": 0.912, "acm_nc": 92.60,
        "citeseer_nc": 77.68, "emails_nc": 86.83, "mutagenicity_gc": 78.16},
    3: {"dblp_lp": 0.958, "wiki_lp": 0.913, "acm_nc": 93.38,
        "citeseer_nc": 74.67, "emails_nc": 91.88, "mutagenicity_gc": 82.04},
    4: {"dblp_lp": 0.959, "wiki_lp": 0.917, "acm_nc": 93.61,
        "citeseer_nc": 76.15, "emails_nc": 90.61, "mutagenicity_gc": 81.58},
    5: {"dblp_lp": 0.965, "wiki_lp": 0.920, "acm_nc": 90.84,
        "citeseer_nc": 78.92, "emails_nc": None, "mutagenicity_gc": 81.01},
}


def bench_scope() -> str:
    """``"full"`` (default) or ``"smoke"`` from REPRO_BENCH_SCOPE."""
    return os.environ.get("REPRO_BENCH_SCOPE", "full").lower()


def is_smoke() -> bool:
    return bench_scope() == "smoke"


def output_path(committed: Path) -> Path:
    """Where a bench writes the result file ``committed``.

    Full scope returns ``committed`` itself.  Smoke scope returns a file
    of the same name under ``RESULTS_DIR / "smoke"``, which git ignores,
    so a seconds-long sanity pass never overwrites a committed full-scope
    result.  The returned file's directory exists.
    """
    path = (RESULTS_DIR / "smoke" / committed.name if is_smoke()
            else committed)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


#: Set by the benchmarks conftest to pytest's capfd fixture, letting
#: :func:`emit` print through the fd-level capture.
CAPTURE_CONTROL = None


def emit(name: str, text: str) -> None:
    """Print a rendered table bypassing pytest capture, and persist it."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"

    def write() -> None:
        sys.__stdout__.write(banner + text + "\n")
        sys.__stdout__.flush()

    if CAPTURE_CONTROL is not None:
        with CAPTURE_CONTROL.disabled():
            write()
    else:
        write()
    safe = name.lower().replace(" ", "_").replace("/", "-")
    output_path(RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")


def comparison_table(rows: Dict[str, Dict[str, float]],
                     paper: Dict[str, Dict[str, float]],
                     row_names: Sequence[str], col_names: Sequence[str],
                     fmt: str = "{:.2f}") -> str:
    """Render measured-vs-paper cells as ``measured (paper)``."""
    width = max(18, max(len(c) for c in col_names) + 11)
    header = f"{'row':<14}" + "".join(f"{c:>{width}}" for c in col_names)
    lines = [header, "-" * len(header)]
    for row in row_names:
        cells = []
        for col in col_names:
            measured = rows.get(row, {}).get(col)
            reference = paper.get(row, {}).get(col)
            m_txt = fmt.format(measured) if measured is not None else "-"
            p_txt = fmt.format(reference) if reference is not None else "-"
            cells.append(f"{m_txt + ' (' + p_txt + ')':>{width}}")
        lines.append(f"{row:<14}" + "".join(cells))
    lines.append("")
    lines.append("cell format: measured (paper).  Absolute values are not "
                 "comparable\n(synthetic data, NumPy-on-CPU substrate); "
                 "compare orderings and gaps.")
    return "\n".join(lines)
