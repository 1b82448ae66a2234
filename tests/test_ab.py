"""tools/ab.py on canned ``bench/run.py`` output: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(certs: float, setup: float = 0.28, rss: float = 38.4, failed: int = 0) -> str:
    """The tail of a ``bench/run.py`` run's stdout."""
    last = {"correct": True, "attempted": 200, "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "certs_per_s": {"value": certs, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return ("# end-to-end metrics\n"
            f"certs_per_s {certs:16.6g} 1/s    n=200\n"
            "# argv_sha256 abc over 200 requests\n"
            + json.dumps(last) + "\n\n")


def test_parse_result_reads_the_last_line():
    ab = load_tool()
    got = ab.parse_result(canned(480.5, failed=3))
    assert got == {"correct": True, "attempted": 200, "failed": 3,
                   "metrics": {"setup_s": 0.28, "certs_per_s": 480.5, "peak_rss_mb": 38.4}}
    with pytest.raises(ValueError):
        ab.parse_result("\n \n")


def test_summarize_counts_wins_in_each_metric_direction():
    ab = load_tool()
    parent = [480.0, 500.0, 460.0, 470.0, 490.0]
    change = [580.0, 600.0, 470.0, 560.0, 490.0]   # the last pair is a tie
    setup_parent = [0.28, 0.29, 0.28, 0.30, 0.28]
    setup_change = [0.27, 0.30, 0.28, 0.29, 0.27]
    pairs = [(ab.parse_result(canned(a, setup=sa)), ab.parse_result(canned(b, setup=sb)))
             for a, b, sa, sb in zip(parent, change, setup_parent, setup_change)]
    got = ab.summarize(pairs, SPEC)
    certs = got["certs_per_s"]
    assert (certs["change_wins"], certs["parent_wins"]) == (4, 0)
    assert certs["parent"]["runs"] == parent
    assert (certs["parent"]["q1"], certs["parent"]["median"], certs["parent"]["q3"]) == (
        470.0, 480.0, 490.0)
    assert certs["change"]["median"] == 560.0
    assert certs["ratio"] == pytest.approx(560.0 / 480.0)
    # lower is better for setup_s: 0.27 < 0.28 wins, 0.30 > 0.29 loses
    setup = got["setup_s"]
    assert (setup["change_wins"], setup["parent_wins"]) == (3, 1)
    assert got["peak_rss_mb"]["change_wins"] == got["peak_rss_mb"]["parent_wins"] == 0
    one = ab.summarize(pairs[:1], SPEC)["certs_per_s"]["parent"]
    assert one["q1"] == one["median"] == one["q3"] == 480.0


def test_out_is_required(capsys):
    # a default file would be some earlier change's committed record
    with pytest.raises(SystemExit):
        load_tool().main(["--parent", "HEAD", "--change", "HEAD", "--workload", "exact_certify",
                          "--seed", "21"])
    assert "--out" in capsys.readouterr().err
