import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_smoke_run_of_one_tree_against_itself(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                    "--label", "smoke", "--pairs", "2", "--iters", "5", "--out", str(tmp_path)],
                   check=True, capture_output=True)
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert result["pairs"] == 2
    assert set(result["commits"]) == {"base", "head"}
    assert set(result["environment"]) == {"kernel", "numpy", "python", "cpu_count"}
    assert set(result["workloads"]) == {"gevp", "lrmc16"}
    for workload in result["workloads"].values():
        assert workload["config"]["run.K"] == "5"
        for metric in ("setup_s", "run_s"):
            times = workload[metric]
            for side in ("base", "head", "ratio"):
                assert times[side]["q1"] <= times[side]["median"] <= times[side]["q3"]
            assert 0 <= times["head_faster"] <= 2
        # One tree on both sides: every output byte agrees.
        assert workload["byte_equal"] == {"records": True, "points": True, "tracking_gap": True,
                                          "s_hat_norm_sq": True}
        assert workload["finals_max_rel_dev"] is None
