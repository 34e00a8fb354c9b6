"""Smoke runs of the demo scripts at small sizes: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_hawkes_demo.py", ["--t-end", "1e4"]),
    ("run_survival_demo.py", ["--n-subjects", "300", "--boot", "5"]),
    ("run_separation_demo.py", []),
])
def test_demo_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_pairs_marks_a_checkout_with_edits_dirty(tmp_path):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "f.txt").write_text("one\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    head = bench_pairs.commit_of(str(tmp_path))
    assert len(head) == 40 and not head.endswith("-dirty")
    (tmp_path / "f.txt").write_text("two\n")
    assert bench_pairs.commit_of(str(tmp_path)) == head + "-dirty"


def _summarize_setup_s(parent, change):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    pairs = [{"parent": {"metrics": {"setup_s": p}},
              "change": {"metrics": {"setup_s": c}}}
             for p, c in zip(parent, change)]
    end_to_end = {"setup_s": {"name": "setup_s", "better": "lower",
                              "bound": 0.25}}
    return bench_pairs.summarize(pairs, end_to_end)["setup_s"]


# hawkes_identify's setup_s in BENCH_23.json: two modes near 0.12 and 0.18 s
BIMODAL_PARENT = [0.113, 0.12, 0.174, 0.121, 0.122, 0.191, 0.14, 0.184, 0.2,
                  0.115]
BIMODAL_CHANGE = [0.162, 0.163, 0.175, 0.161, 0.12, 0.171, 0.185, 0.181,
                  0.158, 0.181]


def test_bench_pairs_marks_a_spread_wider_than_the_bound_unresolved():
    entry = _summarize_setup_s(BIMODAL_PARENT, BIMODAL_CHANGE)
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    assert iqr > 0.25 * entry["parent"]["median"]
    assert entry["unresolved"] is True
    # the verdicts are computed as before the flag was added
    assert entry["regression"] is True and entry["gain"] is False
    assert entry["relative_worsening"] == pytest.approx(
        (0.167 - 0.131) / 0.131)


def test_bench_pairs_leaves_a_tight_metric_resolved():
    parent = [0.120, 0.122, 0.121, 0.119, 0.123, 0.120, 0.121, 0.122,
              0.120, 0.121]
    change = [0.121, 0.120, 0.122, 0.121, 0.119, 0.122, 0.120, 0.121,
              0.123, 0.120]
    entry = _summarize_setup_s(parent, change)
    assert entry["unresolved"] is False
    assert entry["regression"] is False and entry["gain"] is False


def test_bench_pairs_resolves_a_wide_metric_when_every_change_run_wins():
    change = [0.100, 0.104, 0.101, 0.103, 0.102, 0.100, 0.105, 0.101,
              0.102, 0.103]
    entry = _summarize_setup_s(BIMODAL_PARENT, change)
    assert entry["unresolved"] is False
    assert entry["change_wins"] == 10 and entry["regression"] is False
    # one change run inside the parent's range leaves it unresolved
    entry = _summarize_setup_s(BIMODAL_PARENT, change[:-1] + [0.15])
    assert entry["unresolved"] is True
