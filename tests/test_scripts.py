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
