"""The CLI starts numpy's OpenBLAS on one thread unless the caller says otherwise.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first imported, so
each run is a fresh interpreter that imports the CLI and runs score, the
first stage to load numpy. A change that imports numpy before ``main`` sets
the variable would leave OpenBLAS's default threads running and fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cultnovelty.cli import main

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least 2 CPUs, where OpenBLAS would start more threads",
)

SCORE = """
import json, os, sys
from cultnovelty.cli import main
code = main(["score", "--output-dir", sys.argv[1]])
print(json.dumps({"code": code, "tasks": len(os.listdir("/proc/self/task")),
                  "threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("threads")
    assert main(["build", "--corpus", str(FIXTURES / "recipes_50.jsonl"),
                 "--dishes", str(FIXTURES / "dishes_sample.json"), "--seed", "17",
                 "--output-dir", str(out)]) == 0
    return out


def _score(out, threads=None):
    # OpenBLAS also takes its thread count from the other two, so none may leak in
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCORE, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result


def test_score_runs_on_one_thread_by_default(built):
    result = _score(built)
    assert result["tasks"] == 1
    assert result["threads"] == "1"


def test_a_callers_thread_count_is_kept(built):
    assert _score(built, "2")["threads"] == "2"
