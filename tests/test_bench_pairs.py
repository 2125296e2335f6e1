"""The BENCH record tool: the summary's quartiles per side and pairs won per
metric, the parent extract's cleanup when the run is terminated, and the
copy of the working tree that the change side runs in."""
import importlib.util
import io
import json
import signal
import subprocess
import tarfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(session_s: float, failed: int = 0, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"session_s": {"value": session_s, "unit": "s"}}}


def test_summary_counts_pairs_the_change_won():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 4.0, 1.0]
    pairs = [{"seed": s, "first": "parent", "parent": result(p), "change": result(c)}
             for s, p, c in zip(range(5), parent, change)]
    pairs[1]["change"] = result(2.5, failed=1, correct=False)
    summary = bench_pairs.summarize(pairs, ["session_s"])
    assert summary["session_s"] == {
        "parent_median": 3.0, "parent_q1": 2.0, "parent_q3": 4.0,
        "change_median": 2.0, "change_q1": 1.0, "change_q3": 2.5,
        "pairs_change_lower": 3,  # a tie counts for neither side
        "pairs": 5,
    }
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] == {"parent": True, "change": False}


def test_sigterm_still_removes_the_extract(tmp_path, monkeypatch):
    calls, checkouts = [], []

    def git(*args):
        calls.append(args)
        if args[0] == "archive":
            # a one-file archive where `git archive --output=PATH` writes it
            output = Path(next(a for a in args if a.startswith("--output="))[len("--output="):])
            with tarfile.open(output, "w") as tar:
                data = b"print('parent')\n"
                info = tarfile.TarInfo("src/module.py")
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        return "abc1234"

    def bench(checkout, *args):
        # without a handler SIGTERM would end the test process itself
        if not callable(signal.getsignal(signal.SIGTERM)):
            pytest.fail("no SIGTERM handler is installed during the runs")
        checkouts.append(checkout)
        # the parent runs first, extracted and byte-compiled
        assert (checkout / "src" / "module.py").is_file()
        assert list((checkout / "src" / "__pycache__").glob("module.*.pyc"))
        signal.raise_signal(signal.SIGTERM)

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    handler = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "record.json")])
    [parent] = checkouts
    assert parent != bench_pairs.ROOT
    assert not parent.exists() and not parent.parent.exists()
    # the repository's git state is left alone: no worktree command runs
    assert [c[0] for c in calls] == ["rev-parse", "archive", "ls-files"]
    assert signal.getsignal(signal.SIGTERM) is handler
    assert not (tmp_path / "record.json").exists()


def test_an_edit_after_the_snapshot_is_not_measured(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": [{"name": "session_s"}]}))
    (root / "src" / "module.py").write_text("VALUE = 'committed'\n")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], check=True)
    (root / "src" / "module.py").write_text("VALUE = 'working tree'\n")
    (root / "src" / "new.py").write_text("")  # untracked, not ignored: measured too
    seen = {"parent": set(), "change": set()}

    def bench(checkout, workload, seed, seconds, trace):
        side = checkout.name
        assert checkout != root and (checkout / "src" / "new.py").is_file() == (side == "change")
        seen[side].add((checkout / "src" / "module.py").read_text())
        # an edit while the record runs, as from an editor or another session
        (root / "src" / "module.py").write_text(f"VALUE = 'edit {seed} {trace}'\n")
        return result(1.0)

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "record.json")])
    assert seen == {"parent": {"VALUE = 'committed'\n"}, "change": {"VALUE = 'working tree'\n"}}
