"""The BENCH record summary: quartiles per side and pairs won per metric."""
import importlib.util
from pathlib import Path

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
